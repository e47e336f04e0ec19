"""JSON interchange of extracted models."""

import json

import pytest

from repro.automata.kernel import bitset_equivalent, determinize_bitset
from repro.core.behavior import behavior_nfa
from repro.core.dependency import extract_dependency_graph
from repro.core.model_io import (
    ModelFormatError,
    dump_dependency_graph,
    dump_dfa,
    dump_spec,
    load_dependency_graph,
    load_dfa,
    load_spec,
)
from repro.core.spec import ClassSpec


class TestSpecRoundTrip:
    def test_valve_round_trip(self, valve):
        spec = ClassSpec.of(valve)
        loaded = load_spec(dump_spec(spec))
        assert loaded.name == spec.name
        assert loaded.operation_names() == spec.operation_names()
        for operation in spec.operations:
            reloaded = loaded.operation(operation.name)
            assert reloaded is not None
            assert reloaded.kind == operation.kind
            assert [p.next_methods for p in reloaded.returns] == [
                p.next_methods for p in operation.returns
            ]

    def test_round_trip_preserves_language(self, valve, bad_sector):
        for parsed in (valve, bad_sector):
            spec = ClassSpec.of(parsed)
            loaded = load_spec(dump_spec(spec))
            assert bitset_equivalent(spec.dfa(), loaded.dfa())

    def test_user_value_flag_preserved(self, good_sector):
        spec = ClassSpec.of(good_sector)
        loaded = load_spec(dump_spec(spec))
        originals = [p.has_user_value for op in spec.operations for p in op.returns]
        reloaded = [p.has_user_value for op in loaded.operations for p in op.returns]
        assert originals == reloaded

    def test_output_is_stable(self, valve):
        spec = ClassSpec.of(valve)
        assert dump_spec(spec) == dump_spec(spec)


class TestDependencyGraphRoundTrip:
    def test_sector_round_trip(self, sector):
        graph = extract_dependency_graph(sector)
        loaded = load_dependency_graph(dump_dependency_graph(graph))
        assert loaded.class_name == graph.class_name
        assert loaded.entries == graph.entries
        assert {(e.method, e.exit_id, e.next_methods) for e in loaded.exits} == {
            (e.method, e.exit_id, e.next_methods) for e in graph.exits
        }
        assert loaded.arc_count == graph.arc_count


class TestDfaRoundTrip:
    def test_behavior_dfa_round_trip(self, bad_sector):
        dfa = determinize_bitset(behavior_nfa(bad_sector))
        assert load_dfa(dump_dfa(dfa)) == dfa

    def test_renumbering_makes_output_json_stable(self, bad_sector):
        # Kernel DFAs are BFS-numbered, so a dump is a fixed point.
        text = dump_dfa(determinize_bitset(behavior_nfa(bad_sector)))
        assert dump_dfa(load_dfa(text)) == text
        payload = json.loads(text)
        assert payload["states"] == list(range(len(payload["states"])))
        assert payload["transitions"] == sorted(payload["transitions"])


class TestErrors:
    def test_wrong_kind_rejected(self, valve):
        payload = json.loads(dump_spec(ClassSpec.of(valve)))
        payload["kind"] = "dfa"
        with pytest.raises(ModelFormatError):
            load_spec(json.dumps(payload))

    def test_wrong_version_rejected(self, valve):
        payload = json.loads(dump_spec(ClassSpec.of(valve)))
        payload["version"] = 99
        with pytest.raises(ModelFormatError):
            load_spec(json.dumps(payload))

    def test_missing_field_rejected(self, valve):
        payload = json.loads(dump_spec(ClassSpec.of(valve)))
        del payload["operations"]
        with pytest.raises(ModelFormatError):
            load_spec(json.dumps(payload))

    def test_bad_kind_value_rejected(self, valve):
        payload = json.loads(dump_spec(ClassSpec.of(valve)))
        payload["operations"][0]["kind"] = "op_sideways"
        with pytest.raises(ModelFormatError):
            load_spec(json.dumps(payload))

    def test_non_object_rejected(self):
        with pytest.raises(ModelFormatError):
            load_dfa("[1, 2, 3]")


def _dfa_payload(**changes):
    """A valid two-state DFA payload over {a, b}, with ``changes``."""
    payload = {
        "kind": "dfa",
        "version": 1,
        "alphabet": ["a", "b"],
        "states": [0, 1],
        "initial": 0,
        "accepting": [1],
        "transitions": [[0, "a", 1]],
    }
    payload.update(changes)
    return json.dumps(payload)


class TestMalformedDfa:
    def test_valid_payload_loads(self):
        dfa = load_dfa(_dfa_payload())
        assert dfa.accepts(["a"]) and not dfa.accepts(["b"])
        assert dump_dfa(dfa) == dump_dfa(load_dfa(dump_dfa(dfa)))

    @pytest.mark.parametrize(
        "changes",
        [
            {"transitions": [[0, "a", 7]]},  # undeclared target
            {"transitions": [[5, "a", 1]]},  # undeclared source
            {"transitions": [[0, "z", 1]]},  # symbol outside the alphabet
            {"transitions": [[0, "a", 1], [0, "a", 0]]},  # two targets
            {"initial": 2},
            {"accepting": [1, 3]},
            {"states": [0, 2]},  # not 0..n-1
            {"transitions": [[0, "a"]]},
        ],
        ids=[
            "undeclared-target",
            "undeclared-source",
            "foreign-symbol",
            "two-targets",
            "initial-out-of-range",
            "accepting-out-of-range",
            "states-not-dense",
            "short-transition",
        ],
    )
    def test_malformed_payload_refused(self, changes):
        with pytest.raises(ModelFormatError):
            load_dfa(_dfa_payload(**changes))
