"""Content-addressed fingerprints of extracted models.

The batch engine caches one kind of result (see :mod:`repro.engine.cache`),
the per-class check verdict, keyed by :func:`class_key`: the class's
full syntactic content *plus* the specification structure of every
subsystem class it names (the usage, exhaustiveness and claim checks
read those specs).  :func:`method_key` fingerprints one body IR term
``p`` alone (Figure 4's ``infer(p)`` is a pure function of ``p``); no
cache reads it.

Keys are hex SHA-256 digests of a canonical textual rendering.  The
rendering is deliberately boring: nested s-expressions with every field
spelled out, so two inputs collide exactly when they are structurally
equal.  Line numbers are *included* in class fingerprints because cached
diagnostics carry line numbers — shifting a method down a file must miss
the verdict cache so reports stay byte-accurate — but *excluded* from
method fingerprints, where only the IR term determines the answer.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Mapping

from repro.frontend.model_ast import OperationDef, ParsedClass
from repro.lang.ast import Call, If, Loop, Program, Return, Seq, Skip

#: Bump when the rendering (or anything the cached payloads depend on)
#: changes shape; stale cache entries then miss instead of lying.
FINGERPRINT_VERSION = 1

#: Classes whose two digests stay memoized.  Both renderings read only
#: fields of the frozen class, so equal classes share their digests; the
#: parse memo hands back the same objects for every unchanged file, so
#: an incremental re-run in the same process renders only what the edit
#: changed.  Each entry keeps its class alive, hence the small bound.
DIGEST_MEMO_SIZE = 256


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Body IR terms
# ----------------------------------------------------------------------

def program_text(program: Program) -> str:
    """Canonical rendering of a body IR term."""
    if isinstance(program, Call):
        return f"(call {program.name})"
    if isinstance(program, Skip):
        return "(skip)"
    if isinstance(program, Return):
        annotation = "-" if program.exit_id is None else str(program.exit_id)
        if program.next_methods is None:
            nexts = "-"
        else:
            nexts = ",".join(program.next_methods)
        return f"(return {annotation} [{nexts}])"
    if isinstance(program, Seq):
        return f"(seq {program_text(program.first)} {program_text(program.second)})"
    if isinstance(program, If):
        return (
            f"(if {program_text(program.then_branch)} "
            f"{program_text(program.else_branch)})"
        )
    if isinstance(program, Loop):
        return f"(loop {program_text(program.body)})"
    raise TypeError(f"not a Program: {program!r}")


def method_key(operation: OperationDef) -> str:
    """Fingerprint of one method's inferred behavior.

    The inferred per-exit regexes depend on the body term and on the
    declared exit points (missing exits default to ``eps``), nothing
    else — in particular not on the method's name or position.
    """
    exits = ",".join(str(point.exit_id) for point in operation.returns)
    text = f"v{FINGERPRINT_VERSION};exits[{exits}];{program_text(operation.body)}"
    return _digest(text)


# ----------------------------------------------------------------------
# Classes and their dependency context
# ----------------------------------------------------------------------

def _operation_text(operation: OperationDef, with_lineno: bool) -> str:
    returns = " ".join(
        f"(exit {point.exit_id} [{','.join(point.next_methods)}] "
        f"{int(point.has_user_value)}"
        + (f" @{point.lineno}" if with_lineno else "")
        + ")"
        for point in operation.returns
    )
    matches = " ".join(
        f"(match {use.subsystem}.{use.method} "
        f"[{';'.join(','.join(case) for case in use.handled)}] "
        f"{int(use.has_wildcard)}"
        + (f" @{use.lineno}" if with_lineno else "")
        + ")"
        for use in operation.match_uses
    )
    calls = ",".join(sorted(operation.calls))
    location = f" @{operation.lineno}" if with_lineno else ""
    return (
        f"(op {operation.name} {operation.kind.value}{location} "
        f"(returns {returns}) (matches {matches}) (calls {calls}) "
        f"{program_text(operation.body)})"
    )


def spec_text(parsed: ParsedClass) -> str:
    """Rendering of the *specification structure* only.

    This is exactly what :class:`repro.core.spec.ClassSpec` is built
    from: operation names, kinds and exit points.  Bodies, claims and
    line numbers are irrelevant to how a class behaves *as a subsystem
    of someone else*, so they are left out — editing a method body of
    ``Valve`` must not invalidate the cached verdict of ``Sector``.
    """
    operations = " ".join(
        f"(op {operation.name} {operation.kind.value} "
        + " ".join(
            f"(exit {point.exit_id} [{','.join(point.next_methods)}])"
            for point in operation.returns
        )
        + ")"
        for operation in parsed.operations
    )
    return f"(spec {parsed.name} {operations})"


@lru_cache(maxsize=DIGEST_MEMO_SIZE)
def spec_fingerprint(parsed: ParsedClass) -> str:
    return _digest(f"v{FINGERPRINT_VERSION};{spec_text(parsed)}")


def class_text(parsed: ParsedClass) -> str:
    """Full canonical rendering of a parsed class, line numbers included."""
    fields = ",".join(parsed.subsystem_fields)
    claims = " ".join(f"(claim {text!r})" for text in parsed.claims)
    subsystems = " ".join(
        f"(uses {decl.field_name} {decl.class_name} @{decl.lineno})"
        for decl in parsed.subsystems
    )
    operations = " ".join(
        _operation_text(operation, with_lineno=True)
        for operation in parsed.operations
    )
    return (
        f"(class {parsed.name} @{parsed.lineno} (fields {fields}) "
        f"(claims {claims}) (subsystems {subsystems}) {operations})"
    )


@lru_cache(maxsize=DIGEST_MEMO_SIZE)
def class_fingerprint(parsed: ParsedClass) -> str:
    """Digest of one class's full syntactic content, *dependencies
    excluded* — the "own syntax" half of :func:`class_key`.

    The incremental planner (:mod:`repro.engine.incremental`) stores
    this per class and compares it across runs: together with the
    :func:`spec_fingerprint` of every named subsystem it determines the
    verdict key exactly, so "own fingerprint unchanged + every
    dependency's spec digest unchanged" implies "``class_key``
    unchanged" — the soundness contract of verdict reuse.
    """
    return _digest(f"v{FINGERPRINT_VERSION};{class_text(parsed)}")


def class_key(parsed: ParsedClass, specs_in_scope: Mapping[str, ParsedClass]) -> str:
    """Cache key for a class's check verdict.

    ``specs_in_scope`` maps class name → parsed class for every class
    whose specification the checker could consult (all classes of the
    module/project).  Only the classes this one actually names as
    subsystem types contribute — their *spec* fingerprint, not their full
    content — so touching an unrelated class leaves the key unchanged.
    """
    parts = [f"v{FINGERPRINT_VERSION}", class_text(parsed)]
    for class_name in sorted({decl.class_name for decl in parsed.subsystems}):
        dependency = specs_in_scope.get(class_name)
        if dependency is None:
            parts.append(f"(missing {class_name})")
        else:
            parts.append(f"(dep {class_name} {spec_fingerprint(dependency)})")
    return _digest(";".join(parts))
