"""Body → IR translation: control-flow abstraction and call extraction."""

import ast

from repro.frontend.translate import translate_body
from repro.lang.ast import calls, format_program

FIELDS = frozenset({"a", "b"})


def translate(source: str):
    module = ast.parse(source)
    function = module.body[0]
    return translate_body(function.body, FIELDS)


class TestCallExtraction:
    def test_statement_call(self):
        result = translate(
            "def f(self):\n"
            "    self.a.open()\n"
            "    return []\n"
        )
        assert calls(result.program) == {"a.open"}

    def test_non_subsystem_calls_are_skip(self):
        result = translate(
            "def f(self):\n"
            "    self.control.on()\n"
            "    print('x')\n"
            "    return []\n"
        )
        assert calls(result.program) == set()

    def test_call_in_assignment(self):
        result = translate(
            "def f(self):\n"
            "    value = self.a.test()\n"
            "    return []\n"
        )
        assert calls(result.program) == {"a.test"}

    def test_call_in_condition(self):
        result = translate(
            "def f(self):\n"
            "    if self.a.test():\n"
            "        pass\n"
            "    return []\n"
        )
        assert calls(result.program) == {"a.test"}

    def test_call_as_argument_evaluated_before_outer(self):
        result = translate(
            "def f(self):\n"
            "    self.b.push(self.a.read())\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert text.index("a.read") < text.index("b.push")

    def test_two_calls_in_order(self):
        result = translate(
            "def f(self):\n"
            "    self.a.test()\n"
            "    self.b.test()\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert text.index("a.test") < text.index("b.test")

    def test_call_in_return_expression(self):
        result = translate(
            "def f(self):\n"
            "    return [], self.a.test()\n"
        )
        assert calls(result.program) == {"a.test"}

    def test_self_method_call_not_extracted(self):
        result = translate(
            "def f(self):\n"
            "    self.helper()\n"
            "    return []\n"
        )
        assert calls(result.program) == set()


class TestControlFlow:
    def test_if_else_becomes_choice(self):
        result = translate(
            "def f(self):\n"
            "    if cond:\n"
            "        self.a.open()\n"
            "    else:\n"
            "        self.a.clean()\n"
            "    return []\n"
        )
        assert "if(*) {a.open()} else {a.clean()}" in format_program(result.program)

    def test_elif_chain_nests(self):
        result = translate(
            "def f(self):\n"
            "    if c1:\n"
            "        self.a.open()\n"
            "    elif c2:\n"
            "        self.a.clean()\n"
            "    else:\n"
            "        pass\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert text.count("if(*)") == 2

    def test_while_becomes_loop(self):
        result = translate(
            "def f(self):\n"
            "    while running:\n"
            "        self.a.open()\n"
            "    return []\n"
        )
        assert "loop(*) {a.open()" in format_program(result.program)

    def test_while_with_call_condition_replays_per_iteration(self):
        result = translate(
            "def f(self):\n"
            "    while self.a.test():\n"
            "        self.b.open()\n"
            "    return []\n"
        )
        text = format_program(result.program)
        # c; loop(*) {body; c}
        assert text.startswith("a.test(); loop(*) {b.open(); a.test()}")

    def test_for_becomes_loop_iterator_once(self):
        result = translate(
            "def f(self):\n"
            "    for item in self.a.items():\n"
            "        self.b.open()\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert text.startswith("a.items(); loop(*) {b.open()}")

    def test_match_becomes_choice(self):
        result = translate(
            "def f(self):\n"
            "    match self.a.test():\n"
            "        case ['open']:\n"
            "            self.a.open()\n"
            "        case ['clean']:\n"
            "            self.a.clean()\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert text.startswith("a.test(); if(*) {a.open()} else {a.clean()}")

    def test_match_use_recorded(self):
        result = translate(
            "def f(self):\n"
            "    match self.a.test():\n"
            "        case ['open']:\n"
            "            pass\n"
            "        case ['clean']:\n"
            "            pass\n"
            "    return []\n"
        )
        assert len(result.match_uses) == 1
        use = result.match_uses[0]
        assert (use.subsystem, use.method) == ("a", "test")
        assert use.handled == (("open",), ("clean",))
        assert not use.has_wildcard

    def test_match_wildcard_detected(self):
        result = translate(
            "def f(self):\n"
            "    match self.a.test():\n"
            "        case ['open']:\n"
            "            pass\n"
            "        case _:\n"
            "            pass\n"
            "    return []\n"
        )
        assert result.match_uses[0].has_wildcard

    def test_returns_numbered_in_source_order(self):
        result = translate(
            "def f(self):\n"
            "    if cond:\n"
            "        return ['x']\n"
            "    return ['y']\n"
        )
        assert [p.exit_id for p in result.return_points] == [0, 1]
        assert [p.next_methods for p in result.return_points] == [("x",), ("y",)]


class TestSubsetHandling:
    def test_try_rejected(self):
        result = translate(
            "def f(self):\n"
            "    try:\n"
            "        self.a.open()\n"
            "    except Exception:\n"
            "        pass\n"
            "    return []\n"
        )
        assert any(v.code == "unsupported-construct" for v in result.violations)

    def test_raise_rejected(self):
        result = translate(
            "def f(self):\n"
            "    raise ValueError('x')\n"
        )
        assert any("raise" in v.message for v in result.violations)

    def test_bad_return_reported_but_translation_continues(self):
        result = translate(
            "def f(self):\n"
            "    return\n"
        )
        assert any(v.code == "bad-return-form" for v in result.violations)
        assert result.exit_count == 1

    def test_break_and_continue_are_skips(self):
        result = translate(
            "def f(self):\n"
            "    while True:\n"
            "        break\n"
            "    return []\n"
        )
        assert not result.violations

    def test_docstring_is_skip(self):
        result = translate(
            "def f(self):\n"
            "    'docstring'\n"
            "    return []\n"
        )
        assert not result.violations


class TestCallPositions:
    """Calls in assignment targets, ``for`` targets and case guards run
    in Python's evaluation order."""

    def test_assignment_target_after_the_value(self):
        result = translate(
            "def f(self):\n"
            "    self.buf[self.a.open()] = self.b.read()\n"
            "    return []\n"
        )
        assert format_program(result.program) == "b.read(); a.open(); return []"

    def test_annotated_assignment_target_after_the_value(self):
        result = translate(
            "def f(self):\n"
            "    self.buf[self.a.open()]: int = self.b.read()\n"
            "    return []\n"
        )
        assert format_program(result.program) == "b.read(); a.open(); return []"

    def test_augmented_assignment_target_before_the_value(self):
        result = translate(
            "def f(self):\n"
            "    self.buf[self.a.open()] += self.b.read()\n"
            "    return []\n"
        )
        assert format_program(result.program) == "a.open(); b.read(); return []"

    def test_for_target_at_the_start_of_each_iteration(self):
        result = translate(
            "def f(self):\n"
            "    for self.buf[self.a.open()] in self.b.items():\n"
            "        self.b.use()\n"
            "    return []\n"
        )
        assert format_program(result.program) == (
            "b.items(); loop(*) {a.open(); b.use()}; skip; return []"
        )

    def test_guard_may_run_and_fail(self):
        result = translate(
            "def f(self):\n"
            "    match x:\n"
            "        case 1 if self.a.open():\n"
            "            self.b.use()\n"
            "        case _:\n"
            "            pass\n"
            "    return []\n"
        )
        assert format_program(result.program) == (
            "if(*) {a.open(); b.use()} else {if(*) {a.open()} else {skip}; skip}; "
            "return []"
        )

    def test_case_without_guard_events_keeps_its_term(self):
        result = translate(
            "def f(self):\n"
            "    match x:\n"
            "        case 1 if y:\n"
            "            self.a.open()\n"
            "        case _:\n"
            "            self.a.clean()\n"
            "    return []\n"
        )
        assert format_program(result.program) == (
            "if(*) {a.open()} else {a.clean()}; return []"
        )


class TestMatchFallThrough:
    """A match that may match no case gains a ``skip`` branch."""

    def test_match_without_catch_all_may_run_no_case(self):
        result = translate(
            "def f(self):\n"
            "    self.a.test()\n"
            "    match x:\n"
            "        case 1:\n"
            "            self.a.open()\n"
            "    return []\n"
        )
        assert format_program(result.program) == (
            "a.test(); if(*) {a.open()} else {skip}; return []"
        )

    def test_guarded_catch_all_may_fail(self):
        result = translate(
            "def f(self):\n"
            "    match x:\n"
            "        case 1:\n"
            "            self.a.open()\n"
            "        case _ if y:\n"
            "            self.a.clean()\n"
            "    return []\n"
        )
        assert format_program(result.program) == (
            "if(*) {a.open()} else {if(*) {a.clean()} else {skip}}; return []"
        )

    def test_capture_pattern_catches_all(self):
        result = translate(
            "def f(self):\n"
            "    match x:\n"
            "        case 1:\n"
            "            self.a.open()\n"
            "        case other:\n"
            "            self.a.clean()\n"
            "    return []\n"
        )
        assert format_program(result.program) == (
            "if(*) {a.open()} else {a.clean()}; return []"
        )

    def test_match_on_constrained_call_keeps_its_term(self):
        # The exhaustiveness analysis covers it (MatchUse).
        result = translate(
            "def f(self):\n"
            "    match self.a.test():\n"
            "        case ['open']:\n"
            "            self.a.open()\n"
            "    return []\n"
        )
        assert format_program(result.program) == "a.test(); a.open(); return []"

    def test_guarded_wildcard_is_not_a_wildcard(self):
        result = translate(
            "def f(self):\n"
            "    match self.a.test():\n"
            "        case ['open']:\n"
            "            pass\n"
            "        case _ if ready:\n"
            "            pass\n"
            "    return []\n"
        )
        assert not result.match_uses[0].has_wildcard

    def test_guarded_case_handles_no_exit(self):
        result = translate(
            "def f(self):\n"
            "    match self.a.test():\n"
            "        case ['open'] if ready:\n"
            "            pass\n"
            "        case ['clean']:\n"
            "            pass\n"
            "    return []\n"
        )
        assert result.match_uses[0].handled == (("clean",),)
