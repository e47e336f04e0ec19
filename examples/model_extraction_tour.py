"""A tour of the formal core (Section 3 / Figure 4 of the paper).

Walks through, printing each artifact:

1. the worked Examples 1–3 (trace semantics + behavior inference);
2. the bounded mechanization of Theorems 1–2 and Corollary 1;
3. method dependency extraction for Listing 3.1's ``Sector`` (Figure 3);
4. per-exit behavior extraction for ``BadSector``;
5. the NuSMV encoding Shelley would hand to the external model checker;
6. DOT diagrams for Figures 1 and 3, written next to this script.

Run with::

    python examples/model_extraction_tour.py
"""

from pathlib import Path


def part_1_worked_examples() -> None:
    from repro.lang import (
        ONGOING,
        RETURNED,
        behavior,
        derivable,
        format_program,
        infer,
        paper_example_program,
    )
    from repro.regex import format_regex

    program = paper_example_program()
    print(f"program p = {format_program(program)}")
    print()
    print("Example 1 (ongoing trace, two full iterations):")
    print(f"  0 |- [a, c, a, c] in p : {derivable(ONGOING, ('a', 'c', 'a', 'c'), program)}")
    print("Example 2 (returned trace, return in the second iteration):")
    print(f"  R |- [a, c, a, b] in p : {derivable(RETURNED, ('a', 'c', 'a', 'b'), program)}")
    print()
    inferred = behavior(program)
    print("Example 3 (behavior inference [[p]] = (r, s)):")
    print(f"  r = {format_regex(inferred.ongoing)}")
    for _exit, regex in inferred.returned:
        print(f"  s = {{ {format_regex(regex)} }}")
    print(f"  infer(p) = {format_regex(infer(program))}")


def part_2_metatheory() -> None:
    from repro.lang import check_all_theorems

    for report in check_all_theorems(max_program_size=4, max_trace_length=5):
        print(f"  {report.summary()}")


def part_3_dependency_graph() -> None:
    from repro.core import extract_dependency_graph
    from repro.frontend.parse import parse_module
    from repro.paper import SECTOR_MODULE
    from repro.viz import dependency_text

    module, _ = parse_module(SECTOR_MODULE)
    graph = extract_dependency_graph(module.get_class("Sector"))
    print(dependency_text(graph), end="")


def part_4_per_exit_behaviors() -> None:
    from repro.core import operation_exit_regexes
    from repro.frontend.parse import parse_module
    from repro.paper import SECTION_2_MODULE
    from repro.regex import format_regex

    module, _ = parse_module(SECTION_2_MODULE)
    bad_sector = module.get_class("BadSector")
    for operation in bad_sector.operations:
        print(f"  {operation.name}:")
        per_exit = operation_exit_regexes(operation)
        for point in operation.returns:
            print(
                f"    exit {point.exit_id} -> {list(point.next_methods)}: "
                f"{format_regex(per_exit[point.exit_id])}"
            )


def part_5_nusmv() -> None:
    from repro.automata.kernel import determinize_bitset
    from repro.core import behavior_nfa
    from repro.frontend.parse import parse_module
    from repro.ltlf import parse_claim
    from repro.nusmv import emit_model
    from repro.paper import SECTION_2_MODULE

    module, _ = parse_module(SECTION_2_MODULE)
    bad_sector = module.get_class("BadSector")
    dfa = determinize_bitset(behavior_nfa(bad_sector))
    claims = [parse_claim(text) for text in bad_sector.claims]
    text = emit_model(dfa, claims)
    head = "\n".join(text.splitlines()[:12])
    print(head)
    print(f"  ... ({len(text.splitlines())} lines total)")


def part_6_diagrams(output_dir: Path) -> list[Path]:
    from repro.core import ClassSpec, extract_dependency_graph
    from repro.frontend.parse import parse_module
    from repro.paper import SECTION_2_MODULE, SECTOR_MODULE
    from repro.viz import dependency_diagram, spec_diagram

    written = []
    module, _ = parse_module(SECTION_2_MODULE)
    valve_dot = output_dir / "figure1_valve.dot"
    valve_dot.write_text(spec_diagram(ClassSpec.of(module.get_class("Valve"))))
    written.append(valve_dot)

    sector_module, _ = parse_module(SECTOR_MODULE)
    sector_dot = output_dir / "figure3_sector_deps.dot"
    sector_dot.write_text(
        dependency_diagram(extract_dependency_graph(sector_module.get_class("Sector")))
    )
    written.append(sector_dot)
    return written


def main() -> int:
    sections = [
        ("1. Worked Examples 1-3 (Figure 4)", part_1_worked_examples),
        ("2. Bounded mechanization of the metatheory", part_2_metatheory),
        ("3. Method dependency extraction (Figure 3)", part_3_dependency_graph),
        ("4. Per-exit behavior extraction (BadSector)", part_4_per_exit_behaviors),
        ("5. NuSMV encoding (backend emission)", part_5_nusmv),
    ]
    for title, section in sections:
        print("=" * 72)
        print(title)
        print("=" * 72)
        section()
        print()

    print("=" * 72)
    print("6. DOT diagrams")
    print("=" * 72)
    for path in part_6_diagrams(Path(__file__).parent):
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
