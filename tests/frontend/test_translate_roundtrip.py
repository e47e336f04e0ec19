"""Round-trip property: print a calculus term as MicroPython, parse it back.

Theorems 1–2 are checked on the calculus (``repro.lang.metatheory``);
this property checks the step that feeds it, the Python → calculus
translation of :mod:`repro.frontend.translate`.  A random term of
:mod:`repro.lang.ast` is printed as the body of an ``@op`` method —
calls as ``self.<field>.<m>()`` in a drawn expression or statement
position, ``skip`` as ``pass``, choices as if/else, an ``if`` without
``else``, a ``match`` whose last case is ``case _:``, a short-circuit or
a conditional expression, loops as ``while`` or ``for``, returns as
``return [...]`` — and :func:`repro.frontend.parse.parse_module` must
translate it back to the term's normal form :func:`normal`:

* sequences of statements nest to the right (``(p; q); r`` becomes
  ``p; (q; r)``);
* a loop is one statement followed by the ``skip`` that its empty
  ``else`` adds: ``loop(*) {p}`` becomes ``(loop(*) {p}; skip)``, which
  stays nested on the left of what follows it;
* returns carry exit ids ``0, 1, ...`` in source order, which is the
  term's left-to-right order;
* everything else is kept as it is (``if(*) {p} else {skip}`` is also
  what an ``if`` without ``else`` becomes).

The nightly CI job re-runs this file with a larger budget; explicit
``max_examples`` would override any profile, so the budget is scaled by
``REPRO_FUZZ_MULTIPLIER`` (the nightly workflow sets it to 20).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.frontend.parse import parse_module
from repro.lang.ast import (
    SKIP,
    Call,
    If,
    Loop,
    Program,
    Return,
    Seq,
    Skip,
    calls,
    seq_all,
)

FIELDS = ("a", "b")
METHODS = ("open", "close", "test")

_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))


def _examples(base: int) -> int:
    return base * _MULTIPLIER


leaves = st.one_of(
    st.just(SKIP),
    st.builds(
        lambda field, method: Call(f"{field}.{method}"),
        st.sampled_from(FIELDS),
        st.sampled_from(METHODS),
    ),
    st.builds(
        lambda names: Return(next_methods=tuple(names)),
        st.lists(st.sampled_from(METHODS), unique=True, max_size=2),
    ),
)

programs = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(Seq, inner, inner),
        st.builds(If, inner, inner),
        st.builds(Loop, inner),
    ),
    max_leaves=14,
)


# -- the normal form ----------------------------------------------------


def _items(program: Program) -> list[Program]:
    """The statement-level items of ``program``, in source order."""
    if isinstance(program, Seq):
        return _items(program.first) + _items(program.second)
    if isinstance(program, If):
        return [If(normal(program.then_branch), normal(program.else_branch))]
    if isinstance(program, Loop):
        return [Seq(Loop(normal(program.body)), SKIP)]
    return [program]


def normal(program: Program) -> Program:
    """The normal form documented above, exit ids still unnumbered."""
    return seq_all(_items(program))


def number_exits(program: Program, counter: list[int]) -> Program:
    """``program`` with its returns numbered left to right."""
    if isinstance(program, Return):
        counter[0] += 1
        return Return(exit_id=counter[0] - 1, next_methods=program.next_methods)
    if isinstance(program, Seq):
        first = number_exits(program.first, counter)
        return Seq(first, number_exits(program.second, counter))
    if isinstance(program, If):
        then_branch = number_exits(program.then_branch, counter)
        return If(then_branch, number_exits(program.else_branch, counter))
    if isinstance(program, Loop):
        return Loop(number_exits(program.body, counter))
    return program


def returns_of(program: Program) -> list[Return]:
    if isinstance(program, Return):
        return [program]
    if isinstance(program, Seq):
        return returns_of(program.first) + returns_of(program.second)
    if isinstance(program, If):
        return returns_of(program.then_branch) + returns_of(program.else_branch)
    if isinstance(program, Loop):
        return returns_of(program.body)
    return []


# -- the printer --------------------------------------------------------

#: Expression positions a constrained call is printed in; each leaves the
#: call's event unconditional and unrepeated.
CALL_EXPRESSIONS = (
    "{call}",
    "log({call})",
    "log(level=2, key={call})",
    "[0, {call}][1]",
    "{{'k': {call}}}",
    "-{call}",
    "{call} + 1",
    "{call} == state",
    "f'{{{call}}}'",
    "(yield {call})",
)

#: Statement positions of such an expression.
CALL_STATEMENTS = (
    "{expr}",
    "value = {expr}",
    "self.buf[0] = {expr}",
    "assert {expr}",
)


def _call(label: str, data) -> str:
    field, method = label.split(".")
    template = data.draw(st.sampled_from(CALL_EXPRESSIONS))
    return template.format(call=f"self.{field}.{method}()")


def _block(program: Program, depth: int, data) -> list[str]:
    lines: list[str] = []
    for item in _flatten(program):
        lines.extend(_statement(item, depth, data))
    return lines


def _flatten(program: Program) -> list[Program]:
    if isinstance(program, Seq):
        return _flatten(program.first) + _flatten(program.second)
    return [program]


def _statement(program: Program, depth: int, data) -> list[str]:
    pad = "    " * depth
    if isinstance(program, Skip):
        return [pad + "pass"]
    if isinstance(program, Call):
        template = data.draw(st.sampled_from(CALL_STATEMENTS))
        return [pad + template.format(expr=_call(program.name, data))]
    if isinstance(program, Return):
        return [pad + "return " + repr(list(program.next_methods))]
    if isinstance(program, Loop):
        if data.draw(st.booleans()):
            header = "while ready:"
        else:
            header = "for item in items:"
        return [pad + header] + _block(program.body, depth + 1, data)
    assert isinstance(program, If)
    then_branch, else_branch = program.then_branch, program.else_branch
    forms = ["if", "match"]
    if isinstance(else_branch, Skip):
        forms.append("if-no-else")
        if isinstance(then_branch, Call):
            forms.append("short-circuit")
    if isinstance(then_branch, Call) and isinstance(else_branch, (Call, Skip)):
        forms.append("conditional")
    form = data.draw(st.sampled_from(forms))
    if form == "short-circuit":
        operator = data.draw(st.sampled_from(["and", "or"]))
        return [pad + f"value = ready {operator} {_call(then_branch.name, data)}"]
    if form == "conditional":
        orelse = (
            "None" if isinstance(else_branch, Skip) else _call(else_branch.name, data)
        )
        return [pad + f"value = {_call(then_branch.name, data)} if ready else {orelse}"]
    if form == "match":
        return (
            [pad + "match state:", pad + "    case 1:"]
            + _block(then_branch, depth + 2, data)
            + [pad + "    case _:"]
            + _block(else_branch, depth + 2, data)
        )
    lines = [pad + "if ready:"] + _block(then_branch, depth + 1, data)
    if form == "if":
        lines += [pad + "else:"] + _block(else_branch, depth + 1, data)
    return lines


def module_source(body: list[str]) -> str:
    return "\n".join(
        [
            "@sys(['a', 'b'])",
            "class Controller:",
            "    def __init__(self):",
            "        self.a = Valve()",
            "        self.b = Valve()",
            "",
            "    @op_initial_final",
            "    def run(self):",
            *body,
            "",
        ]
    )


@settings(max_examples=_examples(150), deadline=None)
@given(program=programs, data=st.data())
def test_printed_term_translates_to_its_normal_form(program, data):
    source = module_source(_block(program, 2, data))
    module, violations = parse_module(source)
    (operation,) = module.classes[0].operations
    expected = number_exits(normal(program), [0])
    assert operation.body == expected, source
    assert operation.calls == calls(expected), source
    assert [(p.exit_id, p.next_methods) for p in operation.returns] == [
        (r.exit_id, r.next_methods) for r in returns_of(expected)
    ], source
    expected_codes = [] if operation.returns else ["missing-return"]
    assert [v.code for v in violations] == expected_codes, source
