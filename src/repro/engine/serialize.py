"""JSON (de)serialization of diagnostics.

The cached value of a class check is its diagnostic list (so are the
verdicts in the project state and in shard results); round trips
must be *exact* (``from_dict(to_dict(d)) == d``) so a warm-cache run
renders byte-identical reports.  Diagnostics are flat frozen dataclasses,
so this is a field-by-field mapping with tuples flattened to lists.
"""

from __future__ import annotations

from typing import Any

from repro.core.diagnostics import Diagnostic, Severity, SubsystemError


def diagnostic_to_dict(diagnostic: Diagnostic) -> dict[str, Any]:
    """Serialize one diagnostic (all fields, including defaults)."""
    return {
        "severity": diagnostic.severity.value,
        "code": diagnostic.code,
        "message": diagnostic.message,
        "class_name": diagnostic.class_name,
        "title": diagnostic.title,
        "formula": diagnostic.formula,
        "counterexample": (
            None
            if diagnostic.counterexample is None
            else list(diagnostic.counterexample)
        ),
        "subsystem_errors": [
            {
                "class_name": error.class_name,
                "field_name": error.field_name,
                "rendered": error.rendered,
            }
            for error in diagnostic.subsystem_errors
        ],
        "lineno": diagnostic.lineno,
    }


def diagnostic_from_dict(data: dict[str, Any]) -> Diagnostic:
    """Rebuild a diagnostic; raises ``KeyError``/``ValueError`` on junk."""
    counterexample = data["counterexample"]
    return Diagnostic(
        severity=Severity(data["severity"]),
        code=data["code"],
        message=data["message"],
        class_name=data["class_name"],
        title=data["title"],
        formula=data["formula"],
        counterexample=None if counterexample is None else tuple(counterexample),
        subsystem_errors=tuple(
            SubsystemError(
                class_name=error["class_name"],
                field_name=error["field_name"],
                rendered=error["rendered"],
            )
            for error in data["subsystem_errors"]
        ),
        lineno=data["lineno"],
    )


def diagnostics_to_list(diagnostics: list[Diagnostic]) -> list[dict[str, Any]]:
    return [diagnostic_to_dict(diagnostic) for diagnostic in diagnostics]


def diagnostics_from_list(payload: list[dict[str, Any]]) -> list[Diagnostic]:
    return [diagnostic_from_dict(data) for data in payload]
