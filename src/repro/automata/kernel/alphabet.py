"""Dense symbol interning for the bitset kernel.

Every bitset automaton carries an :class:`Alphabet` mapping its event
symbols to dense integer ids ``0..k-1``.  Construction *sorts* the
symbol set first, so the id assignment is a pure function of the set —
two alphabets built from the same symbols in any insertion order are
identical, in any process (see the property tests in
``tests/automata/test_alphabet.py``).

Symbols interned *after* construction get the next free id in call
order; callers that need permutation-stable ids for a grown alphabet
rebuild via :meth:`Alphabet.canonical`.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Alphabet:
    """An interner from event symbols (str) to dense integer ids."""

    __slots__ = ("_ids", "_symbols")

    def __init__(self, symbols: Iterable[str] = ()):
        ordered = sorted(set(symbols))
        self._symbols: list[str] = ordered
        self._ids: dict[str, int] = {
            symbol: index for index, symbol in enumerate(ordered)
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._symbols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(tuple(self._symbols))

    def __repr__(self) -> str:
        return f"Alphabet({self._symbols!r})"

    @property
    def symbols(self) -> tuple[str, ...]:
        """All symbols, in id order (id ``i`` names ``symbols[i]``)."""
        return tuple(self._symbols)

    def id_of(self, symbol: str) -> int:
        """The id of ``symbol``; raises ``KeyError`` when unknown."""
        return self._ids[symbol]

    def get(self, symbol: str, default: int = -1) -> int:
        """The id of ``symbol``, or ``default`` when unknown."""
        return self._ids.get(symbol, default)

    def symbol(self, symbol_id: int) -> str:
        """The symbol with id ``symbol_id``."""
        return self._symbols[symbol_id]

    def decode(self, ids: Iterable[int]) -> tuple[str, ...]:
        """Map a word of symbol ids back to a word of symbols."""
        symbols = self._symbols
        return tuple(symbols[i] for i in ids)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def intern(self, symbol: str) -> int:
        """The id of ``symbol``, adding it (next free id) when new."""
        ids = self._ids
        found = ids.get(symbol)
        if found is not None:
            return found
        index = len(self._symbols)
        self._symbols.append(symbol)
        ids[symbol] = index
        return index

    def is_sorted(self) -> bool:
        """Do ids follow sorted symbol order (the canonical layout)?"""
        return all(
            self._symbols[i] < self._symbols[i + 1]
            for i in range(len(self._symbols) - 1)
        )

    def canonical(self) -> "Alphabet":
        """A fresh alphabet over the same symbols with canonical ids."""
        return Alphabet(self._symbols)
