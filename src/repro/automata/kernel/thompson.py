"""Thompson construction straight into a :class:`BitNFABuilder`.

One fragment per regex node — an entry and an exit state, epsilon glue
— allocated in preorder, so the automaton of ``r`` has exactly twice
as many states as ``r`` has nodes.  The behavior construction (:func:`repro.core.behavior.behavior_nfa`)
splices these fragments into one automaton per class.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitNFA, BitNFABuilder
from repro.regex.ast import Concat, Empty, Epsilon, Regex, Star, Symbol, Union


def add_thompson(
    builder: BitNFABuilder,
    regex: Regex,
    fresh: Callable[[], int] | None = None,
) -> tuple[int, int]:
    """Add the Thompson fragment of ``regex``; return its (entry, exit).

    ``fresh`` allocates the fragment's states in preorder (default:
    :meth:`BitNFABuilder.add_state`).
    """
    fresh = fresh or builder.add_state
    add_epsilon = builder.add_epsilon

    def build(node: Regex) -> tuple[int, int]:
        entry, exit_ = fresh(), fresh()
        if isinstance(node, Symbol):
            builder.add_transition(entry, node.name, exit_)
        elif isinstance(node, Concat):
            left_entry, left_exit = build(node.left)
            right_entry, right_exit = build(node.right)
            add_epsilon(entry, left_entry)
            add_epsilon(left_exit, right_entry)
            add_epsilon(right_exit, exit_)
        elif isinstance(node, Union):
            left_entry, left_exit = build(node.left)
            right_entry, right_exit = build(node.right)
            add_epsilon(entry, left_entry)
            add_epsilon(entry, right_entry)
            add_epsilon(left_exit, exit_)
            add_epsilon(right_exit, exit_)
        elif isinstance(node, Star):
            inner_entry, inner_exit = build(node.inner)
            add_epsilon(entry, inner_entry)
            add_epsilon(inner_exit, inner_entry)
            add_epsilon(entry, exit_)
            add_epsilon(inner_exit, exit_)
        elif isinstance(node, Epsilon):
            add_epsilon(entry, exit_)
        elif not isinstance(node, Empty):
            raise TypeError(f"not a Regex: {node!r}")
        return entry, exit_

    return build(regex)


def thompson_bitnfa(regex: Regex, alphabet: Iterable[str] = ()) -> BitNFA:
    """A :class:`BitNFA` accepting exactly the language of ``regex``.

    ``alphabet`` optionally widens the alphabet beyond the regex's
    symbols (useful before products).
    """
    builder = BitNFABuilder()
    entry, exit_ = add_thompson(builder, regex)
    return builder.build(
        1 << entry, 1 << exit_, Alphabet(builder.symbols().union(alphabet))
    )
