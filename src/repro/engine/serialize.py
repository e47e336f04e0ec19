"""JSON (de)serialization of diagnostics and kernel DFAs for the cache.

The cached value of a class check is its diagnostic list; round trips
must be *exact* (``from_dict(to_dict(d)) == d``) so a warm-cache run
renders byte-identical reports.  Diagnostics are flat frozen dataclasses,
so this is a field-by-field mapping with tuples flattened to lists.
Behavior DFAs ship as *flat arrays* (``bitdfa_to_flat``) — a symbol
list plus a list of ints — which is what lets process-pool workers
return automata without pickling frozenset-of-tuples state graphs.
"""

from __future__ import annotations

from typing import Any

from repro.automata.kernel import Alphabet, BitDFA
from repro.core.diagnostics import Diagnostic, Severity, SubsystemError


class FlatFormatError(ValueError):
    """A flat DFA payload that does not decode."""


def bitdfa_to_flat(bitdfa: BitDFA) -> dict[str, Any]:
    """Serialize a :class:`~repro.automata.kernel.BitDFA` as flat arrays.

    The payload is pure JSON: the alphabet's symbols *in id order* (so
    the decoder rebuilds the exact interning), the state count, the flat
    ``delta`` row-major array (``-1`` = missing move), the initial state
    and the accepting ids.  No state names exist to preserve — kernel
    states are dense ints by construction.
    """
    return {
        "symbols": bitdfa.alphabet.to_payload(),
        "n": bitdfa.n,
        "delta": list(bitdfa.delta),
        "initial": bitdfa.initial,
        "accepting": list(bitdfa.accepting_states()),
    }


def bitdfa_from_flat(payload: dict[str, Any]) -> BitDFA:
    """Rebuild a :class:`~repro.automata.kernel.BitDFA` from flat arrays.

    Raises :class:`FlatFormatError` on malformed payloads — the cache
    treats that as a miss, never as a crash.
    """
    try:
        alphabet = Alphabet.from_payload(payload["symbols"])
        n = int(payload["n"])
        delta = [int(move) for move in payload["delta"]]
        initial = int(payload["initial"])
        accepting = 0
        for state in payload["accepting"]:
            state = int(state)
            if not 0 <= state < max(n, 1):
                raise ValueError(f"accepting state {state} out of range")
            accepting |= 1 << state
        for move in delta:
            if move >= n or move < -1:
                raise ValueError(f"transition target {move} out of range")
        return BitDFA(alphabet, n, delta, initial, accepting)
    except FlatFormatError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise FlatFormatError(f"bad flat DFA payload: {error}") from error


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
