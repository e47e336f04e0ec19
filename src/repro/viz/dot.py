"""Graphviz DOT rendering of extracted models.

Three diagram kinds, matching the paper's figures:

* :func:`spec_diagram` — the class behavior diagram of Figures 1 and 2:
  one node per operation, an edge per allowed successor, an entry arrow
  into each initial operation, double circles on final operations;
* :func:`dependency_diagram` — the §3.1 method-dependency graph of
  Figure 3, with entry and exit nodes drawn separately;
* :func:`dfa_dot` — a generic kernel-DFA diagram for debugging and
  documentation.

Output is plain DOT text: render with any Graphviz installation
(``dot -Tpng``), no Python dependency required.
"""

from __future__ import annotations

from repro.automata.kernel import BitDFA
from repro.core.dependency import DependencyGraph, EntryNode, ExitNode
from repro.core.spec import ClassSpec


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def spec_diagram(spec: ClassSpec, title: str | None = None) -> str:
    """The behavior diagram generated from annotations (Figures 1–2)."""
    lines = [f"digraph {_quote(title or spec.name)} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=circle, fontname="Helvetica"];')
    lines.append('  __start__ [shape=point, label=""];')
    for operation in spec.operations:
        shape = "doublecircle" if operation.kind.is_final else "circle"
        lines.append(f"  {_quote(operation.name)} [shape={shape}];")
    for operation in spec.initial_operations():
        lines.append(f"  __start__ -> {_quote(operation.name)};")
    seen: set[tuple[str, str]] = set()
    for operation in spec.operations:
        for point in operation.returns:
            for successor in point.next_methods:
                edge = (operation.name, successor)
                if edge in seen or spec.operation(successor) is None:
                    continue
                seen.add(edge)
                lines.append(
                    f"  {_quote(operation.name)} -> {_quote(successor)};"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dependency_diagram(graph: DependencyGraph) -> str:
    """The §3.1 method-dependency graph (Figure 3)."""

    def node_id(node) -> str:
        if isinstance(node, EntryNode):
            return _quote(f"entry:{node.method}")
        assert isinstance(node, ExitNode)
        return _quote(f"exit:{node.method}:{node.exit_id}")

    lines = [f"digraph {_quote(graph.class_name + ' dependencies')} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [fontname="Helvetica"];')
    for entry in graph.entries:
        lines.append(
            f"  {node_id(entry)} [shape=box, style=bold, label={_quote(entry.label())}];"
        )
    for exit_node in graph.exits:
        lines.append(
            f"  {node_id(exit_node)} [shape=ellipse, label={_quote(exit_node.label())}];"
        )
    for source, target in graph.arcs:
        lines.append(f"  {node_id(source)} -> {node_id(target)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dfa_dot(dfa: BitDFA, title: str = "dfa") -> str:
    """A generic DFA diagram; states and moves go in ``str`` order of
    the state ids (``10`` before ``2``)."""
    lines = [f"digraph {_quote(title)} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=circle, fontname="Helvetica"];')
    lines.append('  __start__ [shape=point, label=""];')
    for state in sorted(range(dfa.n), key=str):
        shape = "doublecircle" if dfa.accepting >> state & 1 else "circle"
        lines.append(f"  {_quote(str(state))} [shape={shape}];")
    lines.append(f"  __start__ -> {_quote(str(dfa.initial))};")
    for source, symbol, target in sorted(
        dfa.moves(), key=lambda move: (str(move[0]), move[1])
    ):
        lines.append(
            f"  {_quote(str(source))} -> {_quote(str(target))} "
            f"[label={_quote(symbol)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
