"""Perfect matchings by plain enumeration: the count everything else is
checked against, and the signed count that decides the Pfaffian check.

No linear algebra here: one sweep matches the lowest free vertex
against each free neighbour, as a forward dynamic program.  It first
relabels the vertices in reverse Cuthill-McKee order (the breadth-first
Cuthill-McKee order, reversed), which keeps each vertex's neighbours
close to it in the order; one bucket pass over the edges builds it in
O(n + m) besides a sort by degree.  It then sweeps the positions of that
order.  At position v every position below v is matched, so partial
matchings that match the same positions from v on share one state, a
window of those positions relative to v (bit j stands for position
v + j), kept in a bucket per lowest free position; bucket v is expanded
by matching v to each free neighbour and then dropped.  A position
matched so far is a neighbour of a position below v, which the order
keeps close to v, so windows are about as wide as that frontier and the
sweep holds about 2^frontier states where a depth-first search visits
one node per partial matching.  At most DEFAULT_BRUTE_STATE_GUARD
states may be created over the whole sweep, which bounds its time as
well as its memory.  A narrow product creates 3 states per vertex, in
time linear in its order: the passing Pfaffian check of C_4 x P_5000
takes about 0.2 s.

Each state carries the sum of its partial matchings' Pfaffian signs
beside their number, so one pass gives both Pm(G) and |Pf(A)|.  A plain
count carries the signs too: on 40-vertex products they cost it 1.3 to
1.6 times the time of the same sweep without them (Python 3.11 on a
shared 2-core host).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import SizeLimitError
from .graphs import Graph, OrientedGraph, neighbour_lists

#: Most states the sweep may create.  The widest product of the identity
#: checks, C_4 x T for the star on 10 vertices, creates 27,133 (177,258
#: in the forward order) and counts in 0.02-0.03 s.  K_40 and the
#: 40-vertex band |i - j| <= 17 reach the limit in about 0.75 s, K_20,20
#: in about 1 s (Python 3.11 on a shared 2-core host): the band creates
#: 573,439 states in all but never holds 100,000 at once.
DEFAULT_BRUTE_STATE_GUARD = 200_000


def _sweep_order(g: Graph) -> tuple[list[int], list[int], bool]:
    """(position of each vertex, forward neighbour offsets of each
    position, matchable) in reverse Cuthill-McKee order: the reverse of a
    breadth-first search that takes each component from its vertex of
    least degree and neighbours by ascending (degree, label).  One bucket
    pass, O(n + m) besides a sort of the vertices by degree: appending
    each vertex, in rank order, to its neighbours' lists leaves every
    list in rank order.  Bit j of ahead[i] is set when position i + j is
    a neighbour of position i, so each mask is as wide as the order's
    bandwidth, not n bits.

    The search also gives each vertex the parity of its depth, its side.
    matchable is False when parity alone rules out a perfect matching:
    some component has odd order, or is bipartite (no edge joins two
    vertices of one side) with sides of unequal size.  The edges are
    scanned for that only when a component's sides differ in size."""
    n = g.n
    nbrs = neighbour_lists(g)
    # a stable sort by degree keeps equal degrees in label order
    ranked = sorted(range(n), key=[len(a) for a in nbrs].__getitem__)
    by_rank: list[list[int]] = [[] for _ in range(n)]
    for v in ranked:
        for w in nbrs[v]:
            by_rank[w].append(v)
    order: list[int] = []
    side = [-1] * n
    matchable = True
    for start in ranked:
        if side[start] < 0:
            side[start] = 0
            queue = [start]
            ones = 0
            for v in queue:
                other = side[v] ^ 1
                for w in by_rank[v]:
                    if side[w] < 0:
                        side[w] = other
                        ones += other
                        queue.append(w)
            if 2 * ones != len(queue) and matchable:
                matchable = len(queue) % 2 == 0 and not all(
                    side[v] != side[w] for v in queue for w in nbrs[v])
            order += queue
    position = [0] * n
    for i, v in enumerate(reversed(order)):
        position[v] = i
    ahead = [0] * n
    for u, v in g.edges:
        i, j = position[u], position[v]
        if i < j:
            ahead[i] |= 1 << (j - i)
        else:
            ahead[j] |= 1 << (i - j)
    return position, ahead, matchable


def _state_guard(k: int) -> SizeLimitError:
    return SizeLimitError(
        f"brute-force state guard: more than {DEFAULT_BRUTE_STATE_GUARD} "
        f"matching states created on {k} vertices"
    )


def _sweep(g: Graph, arcs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(Pm(g), ±Pf(A)), where A is the skew adjacency matrix of arcs, one
    orientation of g's edges.

    Expanding the Pfaffian along the lowest free position v, matching v
    to w contributes a_vw * (-1)^(free positions strictly between v and
    w) * Pf(the rest), where a_vw is +1 for the arc v -> w and -1 for
    w -> v.  Relabelling by the order multiplies Pf by the sign of the
    permutation, the same for every matching.  Odd order and 2m < n
    (some vertex is left uncovered) give (0, 0) before the order is
    built, so neither costs work per vertex.
    """
    k = g.n
    if k % 2 or 2 * g.m < k:
        return 0, 0
    if not k:
        return 1, 1
    position, ahead, matchable = _sweep_order(g)
    if not matchable:
        return 0, 0
    back = [0] * k  # bit j of back[i]: the arc points from position i + j to i
    for u, w in arcs:
        i, j = position[u], position[w]
        if j < i:
            back[j] |= 1 << (i - j)
    buckets: list[Optional[dict[int, tuple[int, int]]]] = [{} for _ in range(k)]
    buckets[0] = {0: (1, 1)}
    created, total, signed_total = 1, 0, 0
    for v in range(k):
        bucket, buckets[v] = buckets[v], None
        ahead_v, back_v = ahead[v], back[v]
        for window, (ways, signed) in bucket.items():
            taken = window | 1
            free = ~taken
            choices = ahead_v & free
            while choices:
                wbit = choices & -choices
                choices ^= wbit
                # each free position between v and w flips the sign, and so
                # does a_vw = -1: wbit itself is counted iff w -> v is the arc
                flips = (free & (wbit - 1) | back_v & wbit).bit_count()
                term = -signed if flips & 1 else signed
                left = taken | wbit
                shift = (left ^ (left + 1)).bit_length() - 1  # trailing ones
                if v + shift == k:
                    total += ways
                    signed_total += term
                    continue
                target = buckets[v + shift]
                left >>= shift
                if left in target:
                    had_ways, had_signed = target[left]
                    target[left] = (had_ways + ways, had_signed + term)
                    continue
                target[left] = (ways, term)
                created += 1
                if created > DEFAULT_BRUTE_STATE_GUARD:
                    raise _state_guard(k)
    return total, signed_total


def count_perfect_matchings(g: Graph) -> int:
    """Number of perfect matchings of g: the count of the one sweep (see
    the module docstring), with g's edges as the orientation it signs.

    Reversed, the breadth-first order holds fewer states: 27,133
    instead of 177,258 on C_4 x (star of 10).  Raises SizeLimitError as
    soon as the sweep would create more than DEFAULT_BRUTE_STATE_GUARD
    states.  Odd order, and fewer edges than half the vertices (2m < n
    leaves a vertex uncovered), give 0 before the order is built, so
    neither costs work per vertex.
    """
    return _sweep(g, g.edges)[0]


def count_signed_matchings(d: OrientedGraph) -> tuple[int, int]:
    """(Pm(G), ±Pf(A)): the number of perfect matchings of the graph G
    that d orients and the Pfaffian of d's skew adjacency matrix A, up to
    one overall sign.

    The one sweep, in the order and under the state guard of
    count_perfect_matchings and at the same cost (see _sweep).  |Pf| = Pm
    exactly when every perfect matching has one sign, i.e. when d is a
    Pfaffian orientation of G.  Odd order and 2m < n give (0, 0) before
    the order is built.
    """
    return _sweep(d.base, d.arcs)
