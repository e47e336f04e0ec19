"""Property tests for the kernel's symbol interner.

The interner's one load-bearing promise: symbol ids are a pure function
of the symbol *set* — insertion order, duplicates and process boundaries
must never change them, because kernel automata encode transitions by
id.
"""

import concurrent.futures
import os

from hypothesis import given, settings, strategies as st

from repro.automata.kernel import Alphabet

# Same convention as test_kernel_differential.py: the nightly CI job
# raises every example budget by setting REPRO_FUZZ_MULTIPLIER.
_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))


def _examples(base: int) -> int:
    return base * _MULTIPLIER


symbols_strategy = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=12,
)


@given(symbols_strategy, st.randoms())
@settings(max_examples=_examples(200), deadline=None)
def test_ids_stable_under_insertion_order(symbols, rng):
    shuffled = list(symbols)
    rng.shuffle(shuffled)
    original = Alphabet(symbols)
    permuted = Alphabet(shuffled)
    assert original == permuted
    for symbol in symbols:
        assert original.id_of(symbol) == permuted.id_of(symbol)


@given(symbols_strategy)
@settings(max_examples=_examples(200), deadline=None)
def test_ids_are_dense_and_sorted(symbols):
    alphabet = Alphabet(symbols)
    assert list(alphabet.symbols) == sorted(set(symbols))
    assert [alphabet.id_of(s) for s in alphabet.symbols] == list(
        range(len(alphabet))
    )


@given(symbols_strategy, symbols_strategy)
@settings(max_examples=_examples(100), deadline=None)
def test_intern_growth_keeps_existing_ids(symbols, extra):
    alphabet = Alphabet(symbols)
    before = {s: alphabet.id_of(s) for s in alphabet.symbols}
    for symbol in extra:
        alphabet.intern(symbol)
    for symbol, index in before.items():
        assert alphabet.id_of(symbol) == index


def test_decode_maps_ids_back():
    alphabet = Alphabet(["open", "close", "test"])
    ids = [alphabet.id_of("test"), alphabet.id_of("open")]
    assert alphabet.decode(ids) == ("test", "open")


def _intern_in_subprocess(symbols):
    from repro.automata.kernel import Alphabet

    alphabet = Alphabet(symbols)
    return {symbol: alphabet.id_of(symbol) for symbol in alphabet.symbols}


def test_cross_process_consistency():
    """The same symbol set interns identically in a fresh interpreter.

    Ids depend only on sorted symbol order, never on per-process hash
    randomization.
    """
    symbols = ["b.close", "a.open", "a.test", "b.open", "step", "a.close"]
    local = {s: Alphabet(symbols).id_of(s) for s in sorted(set(symbols))}
    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
        remote = pool.submit(_intern_in_subprocess, symbols).result(timeout=60)
    assert local == remote
