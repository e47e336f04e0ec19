"""Behavior inference (the ``⟦p⟧ = (r, s)`` and ``infer(p)`` of Figure 4).

``behavior(p)`` computes a pair of

* ``ongoing`` — a regular expression for the traces derivable with
  status ``0`` (no ``return`` fired), and
* ``returned`` — the returned behaviors; the paper makes this a *set* of
  regexes, we keep a *tuple of (Return node, regex) pairs* so the checker
  knows which source-level ``return`` (hence which next-method set) each
  behavior ends in.  The paper's set is the projection
  :func:`returned_set`.

``infer(p)`` merges everything into a single regex — the subject of
Theorems 1 (soundness) and 2 (completeness), which
:mod:`repro.lang.metatheory` checks on bounded program spaces.

``behavior`` is plain structural recursion: every node is visited once
and nothing is kept after the call.  The one memo is at the method level,
:func:`exit_behaviors`, bounded by :data:`EXIT_BEHAVIOR_MEMO_SIZE`, so a
long-lived process (``repro serve``) stays the same size however many
new method bodies it sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.lang.ast import Call, If, Loop, Program, Return, Seq, Skip
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Regex,
    concat,
    star,
    symbol,
    union,
    union_all,
)


@dataclass(frozen=True)
class Behavior:
    """The result of ``⟦p⟧``: ongoing regex plus per-exit returned regexes.

    ``returned`` pairs appear in derivation order: for ``p1; p2`` the
    early returns of ``p1`` precede those reached through ``p2``, matching
    Figure 4's ``{r1 · r | r ∈ s2} ∪ s1`` read left to right.
    """

    ongoing: Regex
    returned: tuple[tuple[Return, Regex], ...]

    def returned_set(self) -> frozenset[Regex]:
        """The paper's ``s`` component: the set of returned regexes."""
        return frozenset(regex for _exit, regex in self.returned)

    def merged(self) -> Regex:
        """``infer(p)``: the union of ongoing and all returned behaviors."""
        return union_all([self.ongoing, *(regex for _exit, regex in self.returned)])


#: How many method bodies :func:`exit_behaviors` remembers per process
#: (least recently used first out).  Bodies recur across the classes of
#: a project, across projects that share code and in every resubmission,
#: so a thousand cover a working set; the bound keeps a daemon from
#: growing with every new vocabulary.
EXIT_BEHAVIOR_MEMO_SIZE = 1024


def behavior(program: Program) -> Behavior:
    """Compute ``⟦program⟧`` by structural recursion (Figure 4 verbatim)."""
    if isinstance(program, Call):
        # ⟦f()⟧ = (f, ∅)
        return Behavior(symbol(program.name), ())
    if isinstance(program, Skip):
        # ⟦skip⟧ = (ε, ∅)
        return Behavior(EPSILON, ())
    if isinstance(program, Return):
        # ⟦return⟧ = (∅, {ε}) — nothing may follow; the empty returned trace.
        return Behavior(EMPTY, ((program, EPSILON),))
    if isinstance(program, Seq):
        first = behavior(program.first)
        second = behavior(program.second)
        # ⟦p1; p2⟧ = (r1 · r2, {r1 · r | r ∈ s2} ∪ s1)
        returned = first.returned + tuple(
            (exit_, concat(first.ongoing, regex)) for exit_, regex in second.returned
        )
        return Behavior(concat(first.ongoing, second.ongoing), returned)
    if isinstance(program, If):
        then_behavior = behavior(program.then_branch)
        else_behavior = behavior(program.else_branch)
        # ⟦if(*) {p1} else {p2}⟧ = (r1 + r2, s1 ∪ s2)
        return Behavior(
            union(then_behavior.ongoing, else_behavior.ongoing),
            then_behavior.returned + else_behavior.returned,
        )
    if isinstance(program, Loop):
        body = behavior(program.body)
        # ⟦loop(*) {p1}⟧ = (r1*, {r1* · r | r ∈ s1})
        looped = star(body.ongoing)
        returned = tuple(
            (exit_, concat(looped, regex)) for exit_, regex in body.returned
        )
        return Behavior(looped, returned)
    raise TypeError(f"not a Program: {program!r}")


def infer(program: Program) -> Regex:
    """``infer(p) = r + r'_1 + ... + r'_n`` where ``⟦p⟧ = (r, {r'_1..r'_n})``."""
    return behavior(program).merged()


@lru_cache(maxsize=EXIT_BEHAVIOR_MEMO_SIZE)
def exit_behaviors(program: Program) -> Mapping[int, Regex]:
    """Per-exit behaviors keyed by ``Return.exit_id``.

    Behaviors of several ``Return`` nodes sharing an ``exit_id`` (the
    anonymous ``None`` becomes ``-1``) are unioned.  This is what the
    usage checker consumes: the language of call traces that lead to
    each source-level exit point of a method.

    The result is memoized (:data:`EXIT_BEHAVIOR_MEMO_SIZE` bodies) and
    shared by every caller and thread, so it is a read-only mapping.
    """
    merged: dict[int, Regex] = {}
    for exit_node, regex in behavior(program).returned:
        key = exit_node.exit_id if exit_node.exit_id is not None else -1
        merged[key] = union(merged.get(key, EMPTY), regex)
    return MappingProxyType(merged)
