"""Language-preserving regex simplification beyond canonical construction.

The smart constructors in :mod:`repro.regex.ast` apply only *local* unit
and ACI laws.  State elimination (:mod:`repro.automata.kernel.to_regex`) and
long inference chains still produce noisy terms; :func:`simplify`
rewrites them with a bounded set of additional Kleene-algebra laws:

* ``ε + r · r*  =  r*``   and its mirror (star unrolling),
* ``r + r  =  r`` across concat heads: ``r·s + r·t  =  r·(s + t)``
  (left factoring) and ``s·r + t·r  =  (s + t)·r`` (right factoring),
* ``r* · r*  =  r*``,
* ``(ε + r)*  =  r*`` and ``ε + r*  =  r*``.

Every rewrite is language-preserving (property-tested against the
derivative semantics) and size-non-increasing except factoring, which
strictly reduces size; the rewriting therefore terminates.
"""

from __future__ import annotations

from functools import lru_cache

from repro.regex.ast import (
    EPSILON,
    Concat,
    Epsilon,
    Regex,
    Star,
    Union,
    concat,
    star,
    union_all,
)


def _alternatives(regex: Regex) -> list[Regex]:
    """Flattened alternatives of a canonical union (or the term itself)."""
    if not isinstance(regex, Union):
        return [regex]
    parts: list[Regex] = []
    node: Regex = regex
    while isinstance(node, Union):
        parts.append(node.left)
        node = node.right
    parts.append(node)
    return parts


def _head_tail(regex: Regex) -> tuple[Regex, Regex]:
    """Split a (canonical, right-nested) concat into (head, rest)."""
    if isinstance(regex, Concat):
        return regex.left, regex.right
    return regex, EPSILON


def _split_last(regex: Regex) -> tuple[Regex, Regex]:
    """Split into (prefix, last factor)."""
    if not isinstance(regex, Concat):
        return EPSILON, regex
    factors: list[Regex] = []
    node: Regex = regex
    while isinstance(node, Concat):
        factors.append(node.left)
        node = node.right
    factors.append(node)
    prefix = factors[:-1]
    result: Regex = EPSILON
    for factor in reversed(prefix):
        result = concat(factor, result)
    return result, factors[-1]


def _simplify_union(parts: list[Regex]) -> Regex:
    """Union-level rewrites: star absorption and left/right factoring."""
    parts = [simplify(part) for part in parts]

    # r + r* = r*  and  ε + r* = r*: a starred alternative absorbs its
    # own body and the empty word.
    starred_bodies = {part.inner for part in parts if isinstance(part, Star)}
    if starred_bodies:
        absorbed = [
            part
            for part in parts
            if part not in starred_bodies and not isinstance(part, Epsilon)
        ]
        if len(absorbed) < len(parts):
            return simplify(union_all(absorbed))

    # ε + r·r* = r*  (and ε + r*·r = r*): detect an alternative whose
    # language is (one or more of) a starred alternative present as body.
    has_epsilon = any(isinstance(p, Epsilon) for p in parts)
    if has_epsilon:
        rest = [p for p in parts if not isinstance(p, Epsilon)]
        rewritten: list[Regex] = []
        absorbed_epsilon = False
        for part in rest:
            head, tail = _head_tail(part)
            if isinstance(tail, Star) and tail.inner == head:
                rewritten.append(tail)  # r · r* -> r* once ε joins in
                absorbed_epsilon = True
                continue
            prefix, last = _split_last(part)
            if isinstance(prefix, Star) and prefix.inner == last:
                rewritten.append(prefix)
                absorbed_epsilon = True
                continue
            if isinstance(part, Star):
                rewritten.append(part)  # ε + r* = r*
                absorbed_epsilon = True
                continue
            rewritten.append(part)
        if absorbed_epsilon:
            return simplify(union_all(rewritten))

    # Left factoring: group alternatives by their first concat factor.
    by_head: dict[Regex, list[Regex]] = {}
    for part in parts:
        head, tail = _head_tail(part)
        by_head.setdefault(head, []).append(tail)
    if any(len(tails) > 1 for tails in by_head.values()) and len(by_head) < len(parts):
        factored = [
            concat(head, simplify(union_all(tails))) for head, tails in by_head.items()
        ]
        return simplify(union_all(factored))

    # Right factoring: group by the last factor.
    by_last: dict[Regex, list[Regex]] = {}
    for part in parts:
        prefix, last = _split_last(part)
        by_last.setdefault(last, []).append(prefix)
    if any(len(prefixes) > 1 for prefixes in by_last.values()) and len(by_last) < len(parts):
        factored = [
            concat(simplify(union_all(prefixes)), last)
            for last, prefixes in by_last.items()
        ]
        return simplify(union_all(factored))

    return union_all(parts)


@lru_cache(maxsize=None)
def simplify(regex: Regex) -> Regex:
    """Rewrite ``regex`` into a smaller language-equal term (see module
    docstring for the rule set)."""
    if isinstance(regex, Union):
        return _simplify_union(_alternatives(regex))
    if isinstance(regex, Concat):
        left = simplify(regex.left)
        right = simplify(regex.right)
        # r* · r* = r*  (also reaches r* · (r* · s) via right nesting).
        if isinstance(left, Star):
            if left == right:
                return left
            head, tail = _head_tail(right)
            if head == left:
                return simplify(concat(left, tail))
            # r* · r · s  =  r · r* · s is not smaller; skip.
        return concat(left, right)
    if isinstance(regex, Star):
        inner = simplify(regex.inner)
        # (ε + r)* = r*: drop epsilon alternatives under a star.
        parts = [p for p in _alternatives(inner) if not isinstance(p, Epsilon)]
        # (r* + s)* = (r + s)*: unwrap starred alternatives under a star.
        unwrapped = [p.inner if isinstance(p, Star) else p for p in parts]
        return star(simplify(union_all(unwrapped)))
    return regex
