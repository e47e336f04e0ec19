"""Control-flow-faithful call extraction inside expressions.

These behaviors matter for soundness: a conditional expression runs one
branch, a comprehension runs its body many times, a lambda runs later —
each must be abstracted with the matching IR shape, not flattened into
a straight-line sequence.
"""

import ast

from repro.frontend.translate import translate_body
from repro.lang.ast import calls, format_program
from repro.lang.inference import infer
from repro.regex.enumerate_words import words_up_to

FIELDS = frozenset({"a", "b"})


def translate(source: str):
    module = ast.parse(source)
    return translate_body(module.body[0].body, FIELDS)


def body_language(source: str, max_length: int = 4):
    return words_up_to(infer(translate(source).program), max_length)


class TestConditionalExpressions:
    def test_ifexp_is_a_choice(self):
        result = translate(
            "def f(self):\n"
            "    x = self.a.hot() if cond else self.a.cold()\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert "if(*) {a.hot()} else {a.cold()}" in text

    def test_ifexp_branches_are_exclusive(self):
        language = body_language(
            "def f(self):\n"
            "    x = self.a.hot() if cond else self.a.cold()\n"
            "    return []\n"
        )
        assert ("a.hot",) in language
        assert ("a.cold",) in language
        assert ("a.hot", "a.cold") not in language

    def test_ifexp_condition_always_runs(self):
        language = body_language(
            "def f(self):\n"
            "    x = self.a.read() if self.a.probe() else None\n"
            "    return []\n"
        )
        assert ("a.probe",) in language
        assert ("a.probe", "a.read") in language
        assert ("a.read",) not in language


class TestShortCircuiting:
    def test_and_second_operand_optional(self):
        language = body_language(
            "def f(self):\n"
            "    z = self.a.first() and self.a.second()\n"
            "    return []\n"
        )
        assert ("a.first",) in language
        assert ("a.first", "a.second") in language
        assert ("a.second",) not in language

    def test_or_behaves_the_same(self):
        language = body_language(
            "def f(self):\n"
            "    z = self.a.first() or self.a.second()\n"
            "    return []\n"
        )
        assert ("a.first",) in language
        assert ("a.first", "a.second") in language

    def test_three_way_boolop(self):
        language = body_language(
            "def f(self):\n"
            "    z = self.a.x() and self.a.y() and self.a.z()\n"
            "    return []\n",
            max_length=4,
        )
        assert ("a.x",) in language
        assert ("a.x", "a.y", "a.z") in language
        # y and z are jointly optional; z alone after x is legal in the
        # over-approximation (the abstraction groups the tail) — the key
        # soundness property is that x-only is present and nothing runs
        # before x.
        assert all(word[0] == "a.x" for word in language if word)


class TestComprehensions:
    def test_list_comprehension_loops(self):
        result = translate(
            "def f(self):\n"
            "    xs = [self.a.open() for i in items]\n"
            "    return []\n"
        )
        assert "loop(*) {a.open()}" in format_program(result.program)

    def test_comprehension_zero_iterations_possible(self):
        language = body_language(
            "def f(self):\n"
            "    xs = [self.a.open() for i in items]\n"
            "    return []\n"
        )
        assert () in language
        assert ("a.open", "a.open") in language

    def test_first_iterable_runs_once(self):
        result = translate(
            "def f(self):\n"
            "    xs = [self.a.open() for i in self.a.items()]\n"
            "    return []\n"
        )
        text = format_program(result.program)
        assert text.startswith("a.items(); loop(*) {a.open()}")

    def test_condition_calls_loop(self):
        result = translate(
            "def f(self):\n"
            "    xs = [i for i in items if self.a.check()]\n"
            "    return []\n"
        )
        assert "loop(*) {a.check()}" in format_program(result.program)

    def test_dict_comprehension_key_and_value(self):
        result = translate(
            "def f(self):\n"
            "    d = {self.a.key(): self.a.val() for i in items}\n"
            "    return []\n"
        )
        assert "loop(*) {a.key(); a.val()}" in format_program(result.program)

    def test_generator_expression_also_loops(self):
        result = translate(
            "def f(self):\n"
            "    g = (self.a.open() for i in items)\n"
            "    return []\n"
        )
        assert "loop(*)" in format_program(result.program)

    def test_nested_generators_later_iters_loop(self):
        result = translate(
            "def f(self):\n"
            "    xs = [1 for i in items for j in self.a.sub()]\n"
            "    return []\n"
        )
        assert "loop(*) {a.sub()}" in format_program(result.program)

    def test_target_calls_loop_between_iter_and_guard(self):
        result = translate(
            "def f(self):\n"
            "    xs = [0 for i in items\n"
            "          for self.buf[self.a.open()] in self.a.sub()\n"
            "          if self.b.check()]\n"
            "    return []\n"
        )
        assert "loop(*) {a.sub(); a.open(); b.check()}" in format_program(
            result.program
        )
        assert result.calls == {"a.sub", "a.open", "b.check"}


class TestLambdas:
    def test_lambda_with_constrained_call_rejected(self):
        result = translate(
            "def f(self):\n"
            "    g = lambda: self.a.test()\n"
            "    return []\n"
        )
        assert any(v.code == "deferred-call" for v in result.violations)
        assert calls(result.program) == set()

    def test_innocent_lambda_allowed(self):
        result = translate(
            "def f(self):\n"
            "    g = lambda x: x + 1\n"
            "    return []\n"
        )
        assert result.violations == []

    def test_lambda_default_argument_scanned(self):
        # Defaults evaluate at definition time — not deferred; but we
        # conservatively treat the whole lambda as deferred only for its
        # body, so a call in a default is still observed... the current
        # abstraction rejects nothing here and extracts nothing: assert
        # the conservative outcome is at least flagged or extracted.
        result = translate(
            "def f(self):\n"
            "    g = lambda x=self.a.test(): x\n"
            "    return []\n"
        )
        flagged = any(v.code == "deferred-call" for v in result.violations)
        extracted = "a.test" in calls(result.program)
        assert flagged or extracted
