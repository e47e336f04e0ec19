"""Parsing annotated MicroPython source into the frontend data model.

This is step zero of the extraction pipeline: read the source with the
CPython ``ast`` module (the MicroPython subset Shelley supports is also
valid CPython), recognise the annotations of Table 1 *syntactically*
(user code is never imported or executed), collect subsystem field
declarations from ``__init__``, and hand each operation body to
:mod:`repro.frontend.translate`.
"""

from __future__ import annotations

import ast
import os
from functools import lru_cache
from pathlib import Path

from repro.frontend.model_ast import (
    OP_DECORATORS,
    FrontendError,
    OperationDef,
    OpKind,
    ParsedClass,
    ParsedModule,
    SubsetViolation,
    SubsystemDecl,
)
from repro.frontend.translate import translate_body


def _decorator_name(node: ast.expr) -> str | None:
    """The base name of a decorator expression (``sys``, ``claim``, ...).

    Both plain names (``@sys``) and attribute paths (``@shelley.sys``)
    are recognised; call decorators return the name of the callee.
    """
    if isinstance(node, ast.Call):
        return _decorator_name(node.func)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _string_list(node: ast.expr) -> tuple[str, ...] | None:
    """A literal list/tuple of strings, or ``None``."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    values: list[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            values.append(element.value)
        else:
            return None
    return tuple(values)


class _ClassParser:
    """Parses one ``class`` statement into a :class:`ParsedClass`."""

    def __init__(self, node: ast.ClassDef, violations: list[SubsetViolation]):
        self._node = node
        self._violations = violations
        self.is_system = False
        self.subsystem_fields: tuple[str, ...] = ()
        self.claims: list[str] = []

    def _violation(self, code: str, message: str, lineno: int) -> None:
        self._violations.append(
            SubsetViolation(
                code=code,
                message=message,
                lineno=lineno,
                class_name=self._node.name,
            )
        )

    def _parse_class_decorators(self) -> None:
        for decorator in self._node.decorator_list:
            name = _decorator_name(decorator)
            if name == "sys":
                self.is_system = True
                if isinstance(decorator, ast.Call):
                    if len(decorator.args) != 1:
                        self._violation(
                            "bad-annotation",
                            "@sys takes a single list of subsystem names",
                            decorator.lineno,
                        )
                        continue
                    fields = _string_list(decorator.args[0])
                    if fields is None:
                        self._violation(
                            "bad-annotation",
                            "@sys subsystem names must be string literals",
                            decorator.lineno,
                        )
                        continue
                    self.subsystem_fields = fields
            elif name == "claim":
                if (
                    isinstance(decorator, ast.Call)
                    and len(decorator.args) == 1
                    and isinstance(decorator.args[0], ast.Constant)
                    and isinstance(decorator.args[0].value, str)
                ):
                    self.claims.append(decorator.args[0].value)
                else:
                    self._violation(
                        "bad-annotation",
                        "@claim takes a single literal formula string",
                        decorator.lineno,
                    )
            elif name in OP_DECORATORS:
                self._violation(
                    "bad-annotation",
                    f"@{name} applies to methods, not classes",
                    decorator.lineno,
                )

    def _parse_init(self, node: ast.FunctionDef) -> list[SubsystemDecl]:
        """Collect ``self.<field> = <Class>(...)`` declarations."""
        declarations: list[SubsystemDecl] = []
        for statement in node.body:
            if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
                continue
            target = statement.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = statement.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                declarations.append(
                    SubsystemDecl(
                        field_name=target.attr,
                        class_name=value.func.id,
                        lineno=statement.lineno,
                    )
                )
        return declarations

    def _operation_kind(self, node: ast.FunctionDef) -> OpKind | None:
        kinds: list[OpKind] = []
        for decorator in node.decorator_list:
            name = _decorator_name(decorator)
            if name in OP_DECORATORS:
                kinds.append(OP_DECORATORS[name])
        if not kinds:
            return None
        if len(kinds) > 1:
            self._violation(
                "bad-annotation",
                f"method {node.name} carries more than one @op decorator",
                node.lineno,
            )
        return kinds[0]

    def parse(self) -> ParsedClass | None:
        self._parse_class_decorators()
        if not self.is_system:
            return None
        operations: list[OperationDef] = []
        subsystems: list[SubsystemDecl] = []
        fields = frozenset(self.subsystem_fields)
        for statement in self._node.body:
            if not isinstance(statement, ast.FunctionDef):
                continue
            if statement.name == "__init__":
                subsystems.extend(self._parse_init(statement))
                continue
            kind = self._operation_kind(statement)
            if kind is None:
                continue
            result = translate_body(statement.body, fields, self._node.name)
            self._violations.extend(result.violations)
            if not result.return_points:
                self._violation(
                    "missing-return",
                    f"operation {statement.name} has no return statement; "
                    "every operation must declare its next methods",
                    statement.lineno,
                )
            operations.append(
                OperationDef(
                    name=statement.name,
                    kind=kind,
                    returns=tuple(result.return_points),
                    body=result.program,
                    match_uses=tuple(result.match_uses),
                    calls=frozenset(result.calls),
                    lineno=statement.lineno,
                )
            )
        # Declared subsystem fields must be assigned in __init__.
        assigned = {declaration.field_name for declaration in subsystems}
        for field_name in self.subsystem_fields:
            if field_name not in assigned:
                self._violation(
                    "unknown-subsystem",
                    f"@sys declares subsystem {field_name!r} but __init__ "
                    "never assigns self." + field_name,
                    self._node.lineno,
                )
        relevant = tuple(
            declaration
            for declaration in subsystems
            if declaration.field_name in fields or not fields
        )
        return ParsedClass(
            name=self._node.name,
            subsystem_fields=self.subsystem_fields,
            claims=tuple(self.claims),
            operations=tuple(operations),
            subsystems=relevant,
            lineno=self._node.lineno,
        )


#: How many distinct source texts one process keeps parsed.  A daemon
#: sees the same files resubmitted (docs/serve.md), so each is parsed
#: once; the bound keeps a long-lived process from growing with every
#: new text.
PARSE_MEMO_SIZE = 128


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_source(
    source: str,
) -> tuple[tuple[ParsedClass, ...], tuple[SubsetViolation, ...]]:
    """The ``@sys`` classes of ``source`` and its subset violations.

    A pure function of the text, so its result is shared by every
    caller: everything in it is frozen.  A :class:`SyntaxError`
    propagates, and ``lru_cache`` never stores an exception.
    """
    tree = ast.parse(source)
    violations: list[SubsetViolation] = []
    classes: list[ParsedClass] = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            parsed = _ClassParser(node, violations).parse()
            if parsed is not None:
                classes.append(parsed)
    return tuple(classes), tuple(violations)


def parse_module(
    source: str, source_name: str = "<string>"
) -> tuple[ParsedModule, list[SubsetViolation]]:
    """Parse a source string into all its ``@sys`` classes.

    Returns the parsed module plus every subset violation encountered;
    violations do not abort parsing (the checker reports them together
    with semantic errors).  A syntactically invalid file raises
    :class:`FrontendError`.  Each distinct text is parsed once per
    process (:data:`PARSE_MEMO_SIZE`); every call still gets its own
    module and violations list.
    """
    try:
        classes, violations = _parse_source(source)
    except SyntaxError as error:
        error.filename = source_name  # the memo parses without a name
        raise FrontendError(
            [
                SubsetViolation(
                    code="syntax-error",
                    message=str(error),
                    lineno=error.lineno or 0,
                )
            ]
        ) from error
    return ParsedModule(classes=classes, source_name=source_name), list(violations)


def parse_file(path: str | Path) -> tuple[ParsedModule, list[SubsetViolation]]:
    """Parse an annotated MicroPython file; bytes that are not UTF-8
    raise :class:`FrontendError`, as a syntax error does."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except UnicodeDecodeError as error:
        line = error.object.count(b"\n", 0, error.start) + 1
        message = f"{error} ({os.path.basename(path)})"
        raise FrontendError([SubsetViolation("syntax-error", message, line)]) from error
    return parse_module(source, source_name=str(path))
