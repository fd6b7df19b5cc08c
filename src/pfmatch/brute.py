"""Backtracking matching counters, the oracle everything else is checked against.

No linear algebra here: the counters repeatedly match the lowest-index
uncovered vertex against each free neighbor.  Vertex sets are bitmasks,
which keeps the intended desk-scale inputs (a few dozen vertices) fast.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .graphs import Edge, Graph


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _free_mask(g: Graph, excluding: Iterable[int]) -> int:
    mask = (1 << g.n) - 1
    for v in excluding:
        mask &= ~(1 << v)
    return mask


def count_perfect_matchings(g: Graph, excluding: Iterable[int] = ()) -> int:
    """Number of perfect matchings of g (or of g minus `excluding`)."""
    free = _free_mask(g, excluding)
    if bin(free).count("1") % 2:
        return 0
    nbr = _neighbor_masks(g)

    def rec(free: int) -> int:
        if not free:
            return 1
        v = (free & -free).bit_length() - 1
        total = 0
        choices = nbr[v] & free
        while choices:
            wbit = choices & -choices
            choices ^= wbit
            total += rec(free & ~(wbit | (1 << v)))
        return total

    return rec(free)


def find_perfect_matching(g: Graph, excluding: Iterable[int] = ()) -> Optional[tuple[Edge, ...]]:
    """A perfect matching of g (or of g minus `excluding`) as sorted edges in
    ascending order, or None; the search stops at the first one found."""
    free = _free_mask(g, excluding)
    if bin(free).count("1") % 2:
        return None
    nbr = _neighbor_masks(g)

    def rec(free: int) -> Optional[list[Edge]]:
        if not free:
            return []
        v = (free & -free).bit_length() - 1
        choices = nbr[v] & free
        while choices:
            wbit = choices & -choices
            choices ^= wbit
            rest = rec(free & ~(wbit | (1 << v)))
            if rest is not None:
                rest.append((v, wbit.bit_length() - 1))
                return rest
        return None

    found = rec(free)
    return None if found is None else tuple(reversed(found))


def has_perfect_matching(g: Graph, excluding: Iterable[int] = ()) -> bool:
    """True iff g (or g minus `excluding`) has a perfect matching."""
    return find_perfect_matching(g, excluding) is not None


def max_matching_size(g: Graph) -> int:
    """Maximum number of edges in a matching, by memoized branch-and-skip."""
    nbr = _neighbor_masks(g)
    memo: dict[int, int] = {}

    def best(free: int) -> int:
        if not free:
            return 0
        cached = memo.get(free)
        if cached is not None:
            return cached
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        result = best(rest)  # leave v unmatched
        choices = nbr[v] & rest
        while choices:
            wbit = choices & -choices
            choices ^= wbit
            result = max(result, 1 + best(rest & ~wbit))
        memo[free] = result
        return result

    return best((1 << g.n) - 1)

