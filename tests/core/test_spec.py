"""Class specifications and their automata (the Valve lifecycle language)."""

from repro.core.spec import START_STATE, ClassSpec, exit_state


class TestQueries:
    def test_operation_lookup(self, valve):
        spec = ClassSpec.of(valve)
        assert spec.operation("test") is not None
        assert spec.operation("missing") is None

    def test_initial_and_final(self, valve):
        spec = ClassSpec.of(valve)
        assert [op.name for op in spec.initial_operations()] == ["test"]
        assert [op.name for op in spec.final_operations()] == ["close", "clean"]

    def test_initial_final_counted_in_both(self, bad_sector):
        spec = ClassSpec.of(bad_sector)
        assert [op.name for op in spec.initial_operations()] == ["open_a"]
        assert {op.name for op in spec.final_operations()} == {"open_a", "open_b"}

    def test_exit_points(self, valve):
        spec = ClassSpec.of(valve)
        assert len(spec.exit_points("test")) == 2
        assert spec.exit_points("nope") == ()


class TestValveAutomaton:
    def accepted(self, spec, word):
        return spec.nfa().accepts(word)

    def test_empty_lifecycle_is_valid(self, valve):
        assert self.accepted(ClassSpec.of(valve), [])

    def test_complete_lifecycles(self, valve):
        spec = ClassSpec.of(valve)
        assert self.accepted(spec, ["test", "clean"])
        assert self.accepted(spec, ["test", "open", "close"])
        assert self.accepted(spec, ["test", "open", "close", "test", "clean"])

    def test_incomplete_lifecycles_rejected(self, valve):
        spec = ClassSpec.of(valve)
        # The paper's verdict: an open valve must be closed.
        assert not self.accepted(spec, ["test", "open"])
        assert not self.accepted(spec, ["test"])

    def test_wrong_order_rejected(self, valve):
        spec = ClassSpec.of(valve)
        assert not self.accepted(spec, ["open"])  # must test first
        assert not self.accepted(spec, ["test", "close"])  # close needs open
        assert not self.accepted(spec, ["test", "open", "clean"])  # clean not after open

    def test_prefix_applies_to_events(self, valve):
        spec = ClassSpec.of(valve)
        prefixed = spec.nfa(prefix="a.")
        assert prefixed.accepts(["a.test", "a.clean"])
        assert not prefixed.accepts(["test", "clean"])

    def test_alphabet_has_all_operations(self, valve):
        spec = ClassSpec.of(valve)
        assert spec.nfa().alphabet == {"test", "open", "close", "clean"}

    def test_dfa_agrees_with_nfa(self, valve):
        spec = ClassSpec.of(valve)
        nfa, dfa = spec.nfa(), spec.dfa()
        for word in (
            [],
            ["test"],
            ["test", "open"],
            ["test", "open", "close"],
            ["test", "clean", "test", "clean"],
            ["clean"],
        ):
            assert nfa.accepts(word) == dfa.accepts(word)


def state_bits(spec, *states):
    """The :attr:`ClassSpec.table` bitset of the named ``states``."""
    return sum(1 << spec.states().index(state) for state in states)


class TestAllowedAfter:
    """The compiled table's allowed set after a set of spec states."""

    def test_from_start(self, valve):
        spec = ClassSpec.of(valve)
        assert spec.table.allowed(state_bits(spec, START_STATE)) == {"test"}

    def test_from_specific_exit(self, valve):
        spec = ClassSpec.of(valve)
        # test's exit 0 returns ["open"].
        allowed = spec.table.allowed(state_bits(spec, exit_state("test", 0)))
        assert allowed == {"open"}

    def test_union_over_state_set(self, valve):
        spec = ClassSpec.of(valve)
        allowed = spec.table.allowed(
            state_bits(spec, exit_state("test", 0), exit_state("test", 1))
        )
        assert allowed == {"open", "clean"}


class TestBadSectorAutomaton:
    def test_open_a_alone_is_complete(self, bad_sector):
        # open_a is initial_final: a user may legally stop after it —
        # exactly the hole the usage check reports against Valve 'a'.
        spec = ClassSpec.of(bad_sector)
        assert spec.nfa().accepts(["open_a"])

    def test_open_a_then_open_b(self, bad_sector):
        spec = ClassSpec.of(bad_sector)
        assert spec.nfa().accepts(["open_a", "open_b"])

    def test_open_b_not_initial(self, bad_sector):
        spec = ClassSpec.of(bad_sector)
        assert not spec.nfa().accepts(["open_b"])

    def test_nothing_after_empty_exit(self, bad_sector):
        spec = ClassSpec.of(bad_sector)
        assert not spec.nfa().accepts(["open_a", "open_b", "open_a"])
