"""Emission of NuSMV models from extracted automata.

Shelley delegates model checking to NuSMV by encoding the extracted NFA
(a regular language) as an ω-regular structure; this module reproduces
that interface.  The encoding is the standard finite-to-infinite lifting:

* the event input variable gains a reserved ``_end`` value;
* a fresh ``done`` state is entered from any *accepting* state on
  ``_end`` and self-loops on ``_end`` forever;
* any other move lands in a ``dead`` sink.

A finite word is accepted by the DFA iff the lifted structure has a run
reading the word followed by ``_end^ω`` that reaches ``done`` — which is
what the emitted ``JUSTICE``/``LTLSPEC`` lines quantify over.

NuSMV itself is not bundled (offline environment; substitution recorded
in DESIGN.md): the verdicts in this reproduction come from the native
automata checker, and this emitter is golden-tested for syntax and
structure so the artifact stays interoperable with a real NuSMV.
"""

from __future__ import annotations

from typing import Sequence

from repro.automata.kernel import BitDFA
from repro.ltlf.ast import (
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
    WeakNext,
    WeakUntil,
)
from repro.nusmv.syntax import (
    case_expression,
    disjunction,
    enum_declaration,
    unique_names,
)

#: Reserved identifiers of the encoding.
END_EVENT = "_end"
DONE_STATE = "done"
DEAD_STATE = "dead"


def emit_dfa(dfa: BitDFA, module_name: str = "main") -> str:
    """Emit a NuSMV module for the ω-lifting of ``dfa``.

    States are listed in ``str`` order of their ids (``10`` before
    ``2``); the missing moves of a partial DFA go to the ``dead`` sink.
    """
    ordered_states = sorted(range(dfa.n), key=str)
    ordered_events = sorted(dfa.alphabet)
    state_names = unique_names([str(s) for s in ordered_states] + [DONE_STATE, DEAD_STATE])
    event_names = unique_names(list(ordered_events) + [END_EVENT])

    def state_id(state) -> str:
        return state_names[str(state)]

    lines = [f"MODULE {module_name}"]
    lines.append(
        enum_declaration("event", [event_names[e] for e in ordered_events] + [event_names[END_EVENT]], input_var=True)
    )
    lines.append(
        enum_declaration(
            "state",
            [state_id(s) for s in ordered_states]
            + [state_names[DONE_STATE], state_names[DEAD_STATE]],
        )
    )
    branches: list[tuple[str, str]] = []
    for state in ordered_states:
        for event in ordered_events:
            successor = dfa.successor(state, dfa.alphabet.id_of(event))
            if successor < 0:
                continue
            branches.append(
                (
                    f"state = {state_id(state)} & event = {event_names[event]}",
                    state_id(successor),
                )
            )
    for state in sorted(dfa.accepting_states(), key=str):
        branches.append(
            (
                f"state = {state_id(state)} & event = {event_names[END_EVENT]}",
                state_names[DONE_STATE],
            )
        )
    branches.append(
        (
            f"state = {state_names[DONE_STATE]} & event = {event_names[END_EVENT]}",
            state_names[DONE_STATE],
        )
    )
    branches.append(("TRUE", state_names[DEAD_STATE]))

    lines.append("ASSIGN")
    lines.append(f"  init(state) := {state_id(dfa.initial)};")
    lines.append("  next(state) := " + case_expression(branches, indent="    ") + ";")
    lines.append("DEFINE")
    accepting_terms = [
        f"state = {state_id(s)}" for s in sorted(dfa.accepting_states(), key=str)
    ]
    lines.append(f"  accepting := {disjunction(accepting_terms)};")
    lines.append(f"  finished := state = {state_names[DONE_STATE]};")
    lines.append("JUSTICE")
    lines.append("  finished;")
    return "\n".join(lines) + "\n"


def formula_to_nusmv(formula: Formula, event_names: dict[str, str]) -> str:
    """Render an LTLf formula as NuSMV LTL over the lifted structure.

    Atoms become ``event = <id>``; the finite-trace operators are guarded
    by the end-marker: positions after the word has ended (``event =
    _end``) satisfy no atom, strong next requires a real next event, and
    ``G``/weak operators tolerate the ``_end`` tail.  ``W`` (absent from
    NuSMV) expands to ``(φ U ψ) | G φ``.
    """
    end_id = event_names[END_EVENT]
    in_word = f"event != {end_id}"

    def render(node: Formula) -> str:
        if isinstance(node, Top):
            return "TRUE"
        if isinstance(node, Bottom):
            return "FALSE"
        if isinstance(node, Atom):
            return f"event = {event_names[node.name]}"
        if isinstance(node, Not):
            return f"!({render(node.operand)})"
        if isinstance(node, And):
            return " & ".join(f"({render(op)})" for op in node.operands)
        if isinstance(node, Or):
            return " | ".join(f"({render(op)})" for op in node.operands)
        if isinstance(node, Next):
            return f"X (({in_word}) & ({render(node.operand)}))"
        if isinstance(node, WeakNext):
            return f"X ((!({in_word})) | ({render(node.operand)}))"
        if isinstance(node, Eventually):
            return f"F (({in_word}) & ({render(node.operand)}))"
        if isinstance(node, Globally):
            return f"G ((!({in_word})) | ({render(node.operand)}))"
        if isinstance(node, Until):
            left = f"(!({in_word})) | ({render(node.left)})"
            right = f"({in_word}) & ({render(node.right)})"
            return f"(({left}) U ({right}))"
        if isinstance(node, WeakUntil):
            left = f"(!({in_word})) | ({render(node.left)})"
            right = f"({in_word}) & ({render(node.right)})"
            return f"((({left}) U ({right})) | G ({left}))"
        if isinstance(node, Release):
            left = f"({in_word}) & ({render(node.left)})"
            right = f"(!({in_word})) | ({render(node.right)})"
            return f"(({left}) V ({right}))"
        raise TypeError(f"not a Formula: {node!r}")

    return render(formula)


def emit_model(
    dfa: BitDFA,
    claims: Sequence[Formula] = (),
    module_name: str = "main",
) -> str:
    """Emit the lifted DFA plus one ``LTLSPEC`` per claim."""
    text = emit_dfa(dfa, module_name)
    if not claims:
        return text
    event_names = unique_names(sorted(dfa.alphabet) + [END_EVENT])
    lines = [text.rstrip("\n")]
    for claim in claims:
        lines.append(f"LTLSPEC {formula_to_nusmv(claim, event_names)};")
    return "\n".join(lines) + "\n"
