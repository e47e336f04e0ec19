"""Serialization of extracted models to a stable JSON interchange format.

Shelley-style toolchains pass extracted models between tools (checker,
visualizer, NuSMV backend); this module defines that interchange for the
reproduction.  Three payload kinds share an envelope with a ``kind`` and
``version`` field:

* ``class-spec`` — a :class:`ClassSpec` (operations, kinds, exits),
* ``dependency-graph`` — the §3.1 graph,
* ``dfa`` — a kernel :class:`~repro.automata.kernel.BitDFA` (states
  ``0..n-1``, as the kernel numbers them: BFS order).

Round trips are exact: ``load_spec(dump_spec(spec)) == spec`` up to the
frontend-only fields (body IR and match facts are *not* serialized —
they are source-level artifacts; the model is the annotation structure).
"""

from __future__ import annotations

import json
from typing import Any

from repro.automata.kernel import Alphabet, BitDFA
from repro.core.dependency import DependencyGraph, extract_dependency_graph
from repro.core.spec import ClassSpec
from repro.frontend.model_ast import OperationDef, OpKind, ParsedClass, ReturnPoint
from repro.lang.ast import SKIP

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a payload is not a valid serialized model."""


def _envelope(kind: str, payload: dict[str, Any]) -> dict[str, Any]:
    return {"kind": kind, "version": FORMAT_VERSION, **payload}


def _check_envelope(data: dict[str, Any], kind: str) -> None:
    if not isinstance(data, dict):
        raise ModelFormatError("payload must be a JSON object")
    if data.get("kind") != kind:
        raise ModelFormatError(f"expected kind {kind!r}, got {data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {data.get('version')!r}")


# ----------------------------------------------------------------------
# Class specifications
# ----------------------------------------------------------------------

def spec_to_dict(spec: ClassSpec) -> dict[str, Any]:
    """Serialize a class specification."""
    return _envelope(
        "class-spec",
        {
            "name": spec.name,
            "operations": [
                {
                    "name": operation.name,
                    "kind": operation.kind.value,
                    "exits": [
                        {
                            "exit_id": point.exit_id,
                            "next_methods": list(point.next_methods),
                            "has_user_value": point.has_user_value,
                        }
                        for point in operation.returns
                    ],
                }
                for operation in spec.operations
            ],
        },
    )


def spec_from_dict(data: dict[str, Any]) -> ClassSpec:
    """Deserialize a class specification.

    The reconstructed operations carry ``skip`` bodies: the interchange
    format transports the *model*, not the source.
    """
    _check_envelope(data, "class-spec")
    try:
        operations = tuple(
            OperationDef(
                name=op["name"],
                kind=OpKind(op["kind"]),
                returns=tuple(
                    ReturnPoint(
                        exit_id=exit_data["exit_id"],
                        next_methods=tuple(exit_data["next_methods"]),
                        has_user_value=bool(exit_data.get("has_user_value", False)),
                    )
                    for exit_data in op["exits"]
                ),
                body=SKIP,
            )
            for op in data["operations"]
        )
        return ClassSpec(name=data["name"], operations=operations)
    except (KeyError, TypeError, ValueError) as error:
        raise ModelFormatError(f"malformed class-spec payload: {error}") from error


def dump_spec(spec: ClassSpec, indent: int | None = 2) -> str:
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=True)


def load_spec(text: str) -> ClassSpec:
    return spec_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Dependency graphs
# ----------------------------------------------------------------------

def dependency_graph_to_dict(graph: DependencyGraph) -> dict[str, Any]:
    """Serialize a §3.1 dependency graph."""
    return _envelope(
        "dependency-graph",
        {
            "class_name": graph.class_name,
            "entries": [entry.method for entry in graph.entries],
            "exits": [
                {
                    "method": node.method,
                    "exit_id": node.exit_id,
                    "next_methods": list(node.next_methods),
                }
                for node in graph.exits
            ],
        },
    )


def dependency_graph_from_dict(data: dict[str, Any]) -> DependencyGraph:
    """Deserialize by rebuilding through the extraction function, which
    recomputes the arcs (they are derived data)."""
    _check_envelope(data, "dependency-graph")
    try:
        operations = []
        exits_by_method: dict[str, list[dict[str, Any]]] = {}
        for exit_data in data["exits"]:
            exits_by_method.setdefault(exit_data["method"], []).append(exit_data)
        for method in data["entries"]:
            returns = tuple(
                ReturnPoint(
                    exit_id=e["exit_id"], next_methods=tuple(e["next_methods"])
                )
                for e in exits_by_method.get(method, [])
            )
            operations.append(
                OperationDef(
                    name=method, kind=OpKind.MIDDLE, returns=returns, body=SKIP
                )
            )
        surrogate = ParsedClass(
            name=data["class_name"],
            subsystem_fields=(),
            claims=(),
            operations=tuple(operations),
            subsystems=(),
        )
        return extract_dependency_graph(surrogate)
    except (KeyError, TypeError) as error:
        raise ModelFormatError(f"malformed dependency-graph payload: {error}") from error


def dump_dependency_graph(graph: DependencyGraph, indent: int | None = 2) -> str:
    return json.dumps(dependency_graph_to_dict(graph), indent=indent, sort_keys=True)


def load_dependency_graph(text: str) -> DependencyGraph:
    return dependency_graph_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Automata
# ----------------------------------------------------------------------

def dfa_to_dict(dfa: BitDFA) -> dict[str, Any]:
    """Serialize a DFA: its states keep their ids, so a kernel DFA's BFS
    numbering is the stable output order."""
    return _envelope(
        "dfa",
        {
            "alphabet": sorted(dfa.alphabet),
            "states": list(range(dfa.n)),
            "initial": dfa.initial,
            "accepting": list(dfa.accepting_states()),
            "transitions": sorted([*move] for move in dfa.moves()),
        },
    )


def dfa_from_dict(data: dict[str, Any]) -> BitDFA:
    """Rebuild a DFA, refusing states outside ``0..n-1``, symbols outside
    the alphabet and two targets for one (state, symbol)."""
    _check_envelope(data, "dfa")
    try:
        alphabet = Alphabet(data["alphabet"])
        n = len(data["states"])
        if data["states"] != list(range(n)):
            raise ValueError(f"states must be 0..{n - 1}")

        def state(value: Any, role: str) -> int:
            if type(value) is not int or not 0 <= value < n:
                raise ValueError(f"{role} {value!r} is not a declared state")
            return value

        k = len(alphabet)
        delta = [-1] * (n * k)
        for source, symbol, target in data["transitions"]:
            if symbol not in alphabet:
                raise ValueError(f"symbol {symbol!r} is not in the alphabet")
            slot = state(source, "source") * k + alphabet.id_of(symbol)
            if delta[slot] >= 0:
                raise ValueError(f"two targets for ({source}, {symbol!r})")
            delta[slot] = state(target, "target")
        accepting = 0
        for value in data["accepting"]:
            accepting |= 1 << state(value, "accepting state")
        return BitDFA(
            alphabet, n, delta, state(data["initial"], "initial state"), accepting
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ModelFormatError(f"malformed dfa payload: {error}") from error


def dump_dfa(dfa: BitDFA, indent: int | None = 2) -> str:
    return json.dumps(dfa_to_dict(dfa), indent=indent, sort_keys=True)


def load_dfa(text: str) -> BitDFA:
    return dfa_from_dict(json.loads(text))
