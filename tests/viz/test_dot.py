"""DOT diagram generation (Figures 1–3)."""

from repro.core.dependency import extract_dependency_graph
from repro.core.spec import ClassSpec
from repro.viz.dot import dependency_diagram, dfa_dot, spec_diagram


class TestFigure1Valve:
    def test_nodes_and_shapes(self, valve):
        dot = spec_diagram(ClassSpec.of(valve))
        assert '"test" [shape=circle];' in dot
        assert '"open" [shape=circle];' in dot
        assert '"close" [shape=doublecircle];' in dot
        assert '"clean" [shape=doublecircle];' in dot

    def test_initial_arrow(self, valve):
        dot = spec_diagram(ClassSpec.of(valve))
        assert '__start__ -> "test";' in dot

    def test_exact_edge_set(self, valve):
        """The five arcs of Figure 1."""
        dot = spec_diagram(ClassSpec.of(valve))
        edges = [line for line in dot.splitlines() if '" -> "' in line]
        assert sorted(edge.strip() for edge in edges) == [
            '"clean" -> "test";',
            '"close" -> "test";',
            '"open" -> "close";',
            '"test" -> "clean";',
            '"test" -> "open";',
        ]

    def test_valid_dot_shape(self, valve):
        dot = spec_diagram(ClassSpec.of(valve))
        assert dot.startswith('digraph "Valve" {')
        assert dot.rstrip().endswith("}")


class TestFigure2BadSector:
    def test_structure(self, bad_sector):
        dot = spec_diagram(ClassSpec.of(bad_sector))
        # Both ops final (doublecircle), open_a initial.
        assert '"open_a" [shape=doublecircle];' in dot
        assert '"open_b" [shape=doublecircle];' in dot
        assert '__start__ -> "open_a";' in dot
        assert '"open_a" -> "open_b";' in dot

    def test_no_duplicate_edges(self, bad_sector):
        dot = spec_diagram(ClassSpec.of(bad_sector))
        edges = [line for line in dot.splitlines() if '" -> "' in line]
        assert len(edges) == len(set(edges))


class TestFigure3Dependency:
    def test_all_nodes_present(self, sector):
        dot = dependency_diagram(extract_dependency_graph(sector))
        for method in ("open_a", "clean_a", "close_a", "open_b"):
            assert f'"entry:{method}"' in dot
        assert '"exit:open_a:0"' in dot
        assert '"exit:open_a:1"' in dot

    def test_exit_labels_show_returns(self, sector):
        dot = dependency_diagram(extract_dependency_graph(sector))
        assert "open_a/return [close_a, open_b]" in dot
        assert "open_b/return []" in dot

    def test_arc_count_matches_graph(self, sector):
        graph = extract_dependency_graph(sector)
        dot = dependency_diagram(graph)
        arrows = [line for line in dot.splitlines() if " -> " in line]
        assert len(arrows) == graph.arc_count


class TestGenericAutomata:
    def test_dfa_dot(self, valve):
        spec = ClassSpec.of(valve)
        dot = dfa_dot(spec.dfa(), "valve")
        assert dot.startswith('digraph "valve" {')
        assert '__start__ -> "0";' in dot
        # Every operation labels some edge, and nothing else does.
        edges = [line for line in dot.splitlines() if " -> " in line and "label=" in line]
        labels = {line.split("label=")[1] for line in edges}
        assert labels == {f'"{name}"];' for name in spec.operation_names()}

    def test_quoting_of_labels(self):
        from repro.automata.kernel import Alphabet, BitDFA

        dfa = BitDFA(Alphabet(['say "hi"']), 1, [0], 0, 0)
        dot = dfa_dot(dfa)
        assert '\\"hi\\"' in dot
