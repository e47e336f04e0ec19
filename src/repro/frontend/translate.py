"""Translation of MicroPython method bodies into the IR of Figure 4.

The abstraction the paper describes (§3.2, *Supported Python
constructs*): ``for`` and ``while`` become ``loop(*)``, ``if``/``elif``
and ``match`` become nondeterministic choice, every statement of no
interest becomes ``skip``, and only two things survive —

* **constrained calls** ``self.<field>.<method>(...)`` where ``field`` is
  a declared subsystem: they become ``Call("field.method")`` events, in
  evaluation order, wherever the call appears — in statement position,
  an argument, a condition, an assignment's value, a ``match`` subject;
  in an assignment target, after the value (before it in an augmented
  assignment); in a ``for`` target, at the start of each iteration; in
  a case guard, after its pattern matched;
* **returns**: every ``return`` becomes a :class:`repro.lang.ast.Return`
  carrying its exit id and declared next-method set.

``while``/``for`` loops whose condition or iterator performs a
constrained call are translated with the call replayed per iteration
(``c; loop(*) {body; c}``), matching the actual evaluation order of the
source.  ``match`` is a choice among its cases; a case guard runs only
when its pattern matched and may fail.  A ``match`` that may match no
case — its subject is not a constrained call and its last case is not
an unguarded ``case _:`` or bare capture — gains a ``skip`` branch, like
an ``if`` without ``else``.  ``match`` statements over a constrained
call are instead recorded as :class:`MatchUse` facts for the
exhaustiveness analysis, in which a guarded case handles no exit.

Each body is translated in one pass: statements dispatch on their exact
node type, and expressions are walked by one visitor that reads only
the fields that can hold an expression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.frontend.model_ast import MatchUse, ReturnPoint, SubsetViolation
from repro.frontend.returns import ReturnFormError, parse_return
from repro.lang.ast import (
    SKIP,
    Call,
    If,
    Loop,
    Program,
    Return,
    choice_all,
    seq_all,
)


@dataclass
class TranslationResult:
    """The abstracted body plus the side facts the checker needs."""

    program: Program
    return_points: list[ReturnPoint] = field(default_factory=list)
    match_uses: list[MatchUse] = field(default_factory=list)
    violations: list[SubsetViolation] = field(default_factory=list)
    exit_count: int = 0
    #: The call labels of ``program`` (those of lambda bodies, which the
    #: program drops, excluded).
    calls: set[str] = field(default_factory=set)


#: Statements that are outside the supported subset (the analysis cannot
#: soundly abstract them, so they are reported instead of skipped).
_REJECTED_STATEMENTS = {
    ast.Try: "try/except (the analysis does not model exceptions)",
    ast.Raise: "raise (the analysis does not model exceptions)",
    ast.With: "with blocks",
    ast.AsyncFunctionDef: "async functions",
    ast.AsyncFor: "async for",
    ast.AsyncWith: "async with",
    ast.FunctionDef: "nested function definitions",
    ast.ClassDef: "nested class definitions",
    ast.Global: "global declarations",
    ast.Nonlocal: "nonlocal declarations",
    ast.Delete: "del statements",
}
try:  # pragma: no cover - TryStar exists on 3.11+
    _REJECTED_STATEMENTS[ast.TryStar] = "try/except* (the analysis does not model exceptions)"
except AttributeError:  # pragma: no cover
    pass

#: The children of the expression kinds with no control flow of their
#: own: only the fields that can hold an expression, in the order
#: ``ast.iter_child_nodes`` yields them (evaluation order).  ``None``
#: entries (``**`` in a dict display, an absent slice bound) are skipped.
_EXPRESSION_CHILDREN = {
    ast.Attribute: lambda node: (node.value,),
    ast.Subscript: lambda node: (node.value, node.slice),
    ast.Starred: lambda node: (node.value,),
    ast.BinOp: lambda node: (node.left, node.right),
    ast.UnaryOp: lambda node: (node.operand,),
    ast.Compare: lambda node: (node.left, *node.comparators),
    ast.Tuple: lambda node: node.elts,
    ast.List: lambda node: node.elts,
    ast.Set: lambda node: node.elts,
    ast.Dict: lambda node: (*node.keys, *node.values),
    ast.JoinedStr: lambda node: node.values,
    ast.FormattedValue: lambda node: (node.value, node.format_spec),
    ast.Slice: lambda node: (node.lower, node.upper, node.step),
    ast.NamedExpr: lambda node: (node.target, node.value),
    ast.Await: lambda node: (node.value,),
    ast.Yield: lambda node: (node.value,),
    ast.YieldFrom: lambda node: (node.value,),
}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class BodyTranslator:
    """Translates one method body; create one instance per method."""

    def __init__(self, subsystem_fields: frozenset[str], class_name: str = ""):
        self._fields = subsystem_fields
        self._class_name = class_name
        self._result = TranslationResult(program=SKIP)
        self._next_exit_id = 0

    # ------------------------------------------------------------------
    # Expressions: constrained-call extraction
    # ------------------------------------------------------------------

    def _constrained_target(self, call: ast.Call) -> tuple[str, str] | None:
        """``self.<field>.<method>(...)`` with a declared field, or None."""
        func = call.func
        if type(func) is not ast.Attribute:
            return None
        owner = func.value
        if (
            type(owner) is ast.Attribute
            and owner.attr in self._fields
            and type(owner.value) is ast.Name
            and owner.value.id == "self"
        ):
            return owner.attr, func.attr
        return None

    def _calls_in_expression(self, node: ast.expr | None) -> list[Program]:
        """Constrained-call behavior of an expression, in evaluation order.

        The result is a list of IR fragments (calls, choices, loops)
        faithful to the expression's *control flow*:

        * plain subexpressions contribute their calls left to right
          (in ``ast.iter_child_nodes`` order, which is evaluation order
          for every expression kind);
        * conditional expressions and short-circuiting ``and``/``or``
          contribute a nondeterministic choice (only one branch runs);
        * comprehensions and generator expressions contribute a
          ``loop(*)`` (their bodies run an unknown number of times);
        * ``lambda`` bodies run at an unknowable later time — a lambda
          capturing a constrained call is rejected as outside the
          supported subset.
        """
        events: list[Program] = []
        if node is not None:
            self._visit(node, events)
        return events

    def _visit(self, node: ast.AST, sink: list[Program]) -> None:
        """Append the constrained-call behavior of ``node`` to ``sink``."""
        kind = type(node)
        if kind is ast.Name or kind is ast.Constant:
            return
        if kind is ast.Call:
            target = self._constrained_target(node)
            if target is None:
                self._visit(node.func, sink)
            # Arguments are evaluated before the call fires.
            for argument in node.args:
                self._visit(argument, sink)
            for keyword in node.keywords:
                self._visit(keyword.value, sink)
            if target is not None:
                label = f"{target[0]}.{target[1]}"
                sink.append(Call(label))
                self._result.calls.add(label)
            return
        children = _EXPRESSION_CHILDREN.get(kind)
        if children is not None:
            for child in children(node):
                if child is not None:
                    self._visit(child, sink)
        elif kind is ast.IfExp:
            self._visit(node.test, sink)
            then_events: list[Program] = []
            else_events: list[Program] = []
            self._visit(node.body, then_events)
            self._visit(node.orelse, else_events)
            if then_events or else_events:
                sink.append(If(seq_all(then_events), seq_all(else_events)))
        elif kind is ast.BoolOp:
            # The first operand always runs; later operands only when
            # short-circuiting lets them.
            self._visit(node.values[0], sink)
            rest: list[Program] = []
            for value in node.values[1:]:
                self._visit(value, rest)
            if rest:
                sink.append(If(seq_all(rest), SKIP))
        elif kind in _COMPREHENSIONS:
            # The first iterable is evaluated eagerly, once; the rest of
            # the comprehension runs zero or more times.
            self._visit(node.generators[0].iter, sink)
            body_events: list[Program] = []
            for index, generator in enumerate(node.generators):
                if index > 0:
                    self._visit(generator.iter, body_events)
                # Each item is bound to the target before the guards run.
                self._visit(generator.target, body_events)
                for condition in generator.ifs:
                    self._visit(condition, body_events)
            if kind is ast.DictComp:
                self._visit(node.key, body_events)
                self._visit(node.value, body_events)
            else:
                self._visit(node.elt, body_events)
            if body_events:
                sink.append(Loop(seq_all(body_events)))
        elif kind is ast.Lambda:
            self._visit_lambda(node, sink)
        else:
            # A node kind the table does not list (newer syntax): every
            # child, in evaluation order.
            for child in ast.iter_child_nodes(node):
                self._visit(child, sink)

    def _visit_lambda(self, node: ast.Lambda, sink: list[Program]) -> None:
        # Default-argument expressions evaluate eagerly, at definition
        # time; only the body is deferred.
        for default in node.args.defaults:
            self._visit(default, sink)
        for default in node.args.kw_defaults:
            if default is not None:
                self._visit(default, sink)
        deferred: list[Program] = []
        outer_calls = self._result.calls
        self._result.calls = set()  # the body's calls never reach the program
        self._visit(node.body, deferred)
        self._result.calls = outer_calls
        if deferred:
            self._result.violations.append(
                SubsetViolation(
                    code="deferred-call",
                    message=(
                        "a lambda captures a constrained call; "
                        "deferred execution cannot be analysed"
                    ),
                    lineno=getattr(node, "lineno", 0),
                    class_name=self._class_name,
                )
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _reject(self, node: ast.stmt) -> Program:
        reason = _REJECTED_STATEMENTS[type(node)]
        self._result.violations.append(
            SubsetViolation(
                code="unsupported-construct",
                message=f"unsupported construct: {reason}",
                lineno=getattr(node, "lineno", 0),
                class_name=self._class_name,
            )
        )
        return SKIP

    def _translate_return(self, node: ast.Return) -> Program:
        exit_id = self._next_exit_id
        self._next_exit_id += 1
        try:
            point = parse_return(node, exit_id)
        except ReturnFormError as error:
            self._result.violations.append(error.as_violation(self._class_name))
            point = ReturnPoint(exit_id=exit_id, next_methods=(), lineno=node.lineno)
        self._result.return_points.append(point)
        prelude = self._calls_in_expression(node.value)
        return seq_all(prelude + [Return(exit_id=exit_id, next_methods=point.next_methods)])

    def _translate_match(self, node: ast.Match) -> Program:
        prelude = self._calls_in_expression(node.subject)
        # Record the exhaustiveness fact when matching a constrained call.
        target = None
        if type(node.subject) is ast.Call:
            target = self._constrained_target(node.subject)
        if target is not None:
            handled: list[tuple[str, ...]] = []
            has_wildcard = False
            for case in node.cases:
                if case.guard is not None:
                    continue  # a guard may fail: the case handles no exit
                pattern = _literal_list_pattern(case.pattern)
                if pattern is not None:
                    handled.append(pattern)
                elif _is_wildcard(case.pattern):
                    has_wildcard = True
            self._result.match_uses.append(
                MatchUse(
                    subsystem=target[0],
                    method=target[1],
                    handled=tuple(handled),
                    has_wildcard=has_wildcard,
                    lineno=node.lineno,
                )
            )
        cases = [
            (self._calls_in_expression(case.guard), self._translate_body(case.body))
            for case in node.cases
        ]
        # A match over a constrained call is left to the exhaustiveness
        # analysis; any other may match no case, unless its last case
        # matches anything.
        last = node.cases[-1]
        falls_through = target is None and not (
            last.guard is None and _is_wildcard(last.pattern)
        )
        return seq_all(prelude + [_match_choice(cases, falls_through)])

    def _translate_if(self, node: ast.If) -> Program:
        prelude = self._calls_in_expression(node.test)
        then_branch = self._translate_body(node.body)
        else_branch = self._translate_body(node.orelse)
        return seq_all(prelude + [If(then_branch, else_branch)])

    def _translate_while(self, node: ast.While) -> Program:
        condition_calls = self._calls_in_expression(node.test)
        body = self._translate_body(node.body)
        # The condition runs before entering and again after every
        # iteration: c; loop(*) { body; c }.
        looped = Loop(seq_all([body] + condition_calls))
        trailer = self._translate_body(node.orelse)
        return seq_all(condition_calls + [looped, trailer])

    def _translate_for(self, node: ast.For) -> Program:
        iterator_calls = self._calls_in_expression(node.iter)
        # The target is assigned at the start of every iteration.
        target_calls = self._calls_in_expression(node.target)
        body = self._translate_body(node.body)
        trailer = self._translate_body(node.orelse)
        # The iterator expression is evaluated once, before the loop.
        return seq_all(
            iterator_calls + [Loop(seq_all(target_calls + [body])), trailer]
        )

    def _translate_expression(self, node: ast.Expr) -> Program:
        return seq_all(self._calls_in_expression(node.value))

    def _translate_assign(self, node: ast.Assign) -> Program:
        # The value runs first, then each target's subexpressions, left
        # to right (``self.buf[self.a.open()] = v``).
        events = self._calls_in_expression(node.value)
        for target in node.targets:
            self._visit(target, events)
        return seq_all(events)

    def _translate_annotated_assign(self, node: ast.AnnAssign) -> Program:
        events = self._calls_in_expression(node.value)
        self._visit(node.target, events)
        return seq_all(events)

    def _translate_augmented_assign(self, node: ast.AugAssign) -> Program:
        # ``t op= v`` reads the target before it evaluates the value.
        events = self._calls_in_expression(node.target)
        self._visit(node.value, events)
        return seq_all(events)

    def _translate_assert(self, node: ast.Assert) -> Program:
        return seq_all(self._calls_in_expression(node.test))

    def _translate_body(self, statements: list[ast.stmt]) -> Program:
        # Statements outside the table (pass, break, continue, imports,
        # ...) are of no interest: skip, per the paper.  break/continue
        # are sound to skip: loops are already abstracted to "any number
        # of iterations".
        parts = []
        for statement in statements:
            translate = _STATEMENTS.get(type(statement))
            parts.append(SKIP if translate is None else translate(self, statement))
        return seq_all(parts)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def translate(self, statements: list[ast.stmt]) -> TranslationResult:
        """Translate a method body (list of statements)."""
        self._result.program = self._translate_body(statements)
        self._result.exit_count = self._next_exit_id
        return self._result


#: Statement translation by exact node type; a rejected statement
#: becomes its ``unsupported-construct`` violation.
_STATEMENTS = {
    ast.Return: BodyTranslator._translate_return,
    ast.If: BodyTranslator._translate_if,
    ast.Match: BodyTranslator._translate_match,
    ast.While: BodyTranslator._translate_while,
    ast.For: BodyTranslator._translate_for,
    ast.Expr: BodyTranslator._translate_expression,
    ast.Assign: BodyTranslator._translate_assign,
    ast.AugAssign: BodyTranslator._translate_augmented_assign,
    ast.AnnAssign: BodyTranslator._translate_annotated_assign,
    ast.Assert: BodyTranslator._translate_assert,
    **dict.fromkeys(_REJECTED_STATEMENTS, BodyTranslator._reject),
}


def _match_choice(
    cases: list[tuple[list[Program], Program]], falls_through: bool
) -> Program:
    """The choice among ``(guard events, body)`` cases, right-nested.

    A guard runs only after its pattern matched and may fail, so a case
    with guard events ``G`` is ``if(*) {G; body} else {if(*) {G} else
    {skip}; rest}``; a case without is ``if(*) {body} else {rest}``, as
    :func:`~repro.lang.ast.choice_all` builds.  ``falls_through`` adds a
    final ``skip`` branch: no case matched.
    """
    rest = SKIP if falls_through else None
    for guard, body in reversed(cases):
        if guard:
            failed = If(seq_all(guard), SKIP)
            otherwise = failed if rest is None else seq_all([failed, rest])
            rest = If(seq_all(guard + [body]), otherwise)
        else:
            rest = body if rest is None else If(body, rest)
    return SKIP if rest is None else rest


def _literal_list_pattern(pattern: ast.pattern) -> tuple[str, ...] | None:
    """Parse ``case ["open", "clean"]:`` into ``("open", "clean")``.

    Also accepts the tuple-result form ``case ["close"], value:`` via
    ``MatchSequence`` of a nested sequence plus a capture.
    """
    if isinstance(pattern, ast.MatchSequence):
        # Direct list of string literals?
        strings: list[str] = []
        for element in pattern.patterns:
            if (
                isinstance(element, ast.MatchValue)
                and isinstance(element.value, ast.Constant)
                and isinstance(element.value.value, str)
            ):
                strings.append(element.value.value)
            else:
                break
        else:
            return tuple(strings)
        # Tuple form: first element is itself a sequence pattern.
        if pattern.patterns and isinstance(pattern.patterns[0], ast.MatchSequence):
            return _literal_list_pattern(pattern.patterns[0])
    return None


def _is_wildcard(pattern: ast.pattern) -> bool:
    """``case _:`` or a bare capture name — matches anything."""
    return isinstance(pattern, ast.MatchAs) and pattern.pattern is None


def translate_body(
    statements: list[ast.stmt],
    subsystem_fields: frozenset[str] | set[str],
    class_name: str = "",
) -> TranslationResult:
    """Convenience wrapper around :class:`BodyTranslator`."""
    translator = BodyTranslator(frozenset(subsystem_fields), class_name)
    return translator.translate(statements)
