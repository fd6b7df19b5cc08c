"""Perfect matchings by plain enumeration: the count everything else is
checked against, and the signed count that decides the Pfaffian check.

No linear algebra here: both sweeps match the lowest free vertex
against each free neighbour.  Vertex sets are bitmasks.

count_perfect_matchings runs that branching as a forward dynamic
program.  It first relabels the vertices in reverse Cuthill-McKee order
(the breadth-first Cuthill-McKee order, reversed), which keeps each
vertex's neighbours close to it in the order; one bucket pass over the
edges builds it in O(n + m) besides a sort by degree.  It then sweeps
the positions of that order.  Partial matchings that leave the same set
of vertices free share one state {free mask: number of ways}, kept in a
bucket per lowest free position; bucket v is expanded by matching v to
each free neighbour and then dropped.  A vertex matched so far is a neighbour of
a position below v, which the order keeps close to v, so states differ
only in a narrow frontier after v: the sweep holds about 2^frontier
states where a depth-first search visits one node per partial
matching.  At most DEFAULT_BRUTE_STATE_GUARD states may be created over
the whole sweep, which bounds its time as well as its memory.

count_signed_matchings is the same sweep over an orientation: each
state also carries the sum of its partial matchings' Pfaffian signs, so
one pass gives both Pm(G) and |Pf(A)|.  It is a separate loop, so a
plain count pays nothing for the signs.
"""

from __future__ import annotations

from typing import Optional

from .errors import SizeLimitError
from .graphs import Graph, OrientedGraph, neighbour_lists

#: Most states count_perfect_matchings may create in one sweep.  The
#: widest product of the identity checks, C_4 x T for the star on 10
#: vertices, creates 27,133 (177,258 in the forward order) and counts in
#: about 0.02 s.  K_40 reaches the limit in about 0.4 s, K_20,20 and the
#: 40-vertex band |i - j| <= 17 in 0.7-0.9 s (Python 3.11 on a shared
#: 2-core host): the band creates 573,439 states in all but never holds
#: 100,000 at once.
DEFAULT_BRUTE_STATE_GUARD = 200_000


def _sweep_order(g: Graph) -> tuple[list[int], list[int], bool]:
    """(position of each vertex, neighbour mask of each position,
    matchable) in reverse Cuthill-McKee order: the reverse of a
    breadth-first search that takes each component from its vertex of
    least degree and neighbours by ascending (degree, label).  One bucket
    pass, O(n + m) besides a sort of the vertices by degree: appending
    each vertex, in rank order, to its neighbours' lists leaves every
    list in rank order.

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
    bit = [1 << i for i in position]
    nbr = [0] * n
    for u, v in g.edges:
        nbr[position[u]] |= bit[v]
        nbr[position[v]] |= bit[u]
    return position, nbr, matchable


def _state_guard(k: int) -> SizeLimitError:
    return SizeLimitError(
        f"brute-force state guard: more than {DEFAULT_BRUTE_STATE_GUARD} "
        f"matching states created on {k} vertices"
    )


def count_perfect_matchings(g: Graph) -> int:
    """Number of perfect matchings of g.

    A forward sweep over free-vertex masks in reverse Cuthill-McKee
    order (see the module docstring).  Reversed, the breadth-first
    order holds fewer states: 27,133 instead of 177,258 on C_4 x (star
    of 10).  Raises SizeLimitError as soon as the sweep would create
    more than DEFAULT_BRUTE_STATE_GUARD states.  Odd order, and fewer
    edges than half the vertices (2m < n leaves a vertex uncovered),
    give 0 before the order is built, so neither costs work per vertex.
    """
    if g.n % 2 or 2 * g.m < g.n:
        return 0
    if not g.n:
        return 1
    k = g.n
    _, nbr, matchable = _sweep_order(g)
    if not matchable:
        return 0
    buckets: list[Optional[dict[int, int]]] = [{} for _ in range(k)]
    buckets[0] = {(1 << k) - 1: 1}
    created, total = 1, 0
    for v in range(k):
        bucket, buckets[v] = buckets[v], None
        vbit = 1 << v
        for mask, ways in bucket.items():
            rest = mask ^ vbit
            choices = nbr[v] & rest
            while choices:
                wbit = choices & -choices
                choices ^= wbit
                left = rest ^ wbit
                if not left:
                    total += ways
                    continue
                target = buckets[(left & -left).bit_length() - 1]
                if left in target:
                    target[left] += ways
                    continue
                target[left] = ways
                created += 1
                if created > DEFAULT_BRUTE_STATE_GUARD:
                    raise _state_guard(k)
    return total


def count_signed_matchings(d: OrientedGraph) -> tuple[int, int]:
    """(Pm(G), ±Pf(A)): the number of perfect matchings of the graph G
    that d orients and the Pfaffian of d's skew adjacency matrix A, up to
    one overall sign.

    The sweep of count_perfect_matchings, in the same order and under the
    same state guard, with a signed sum beside each state's count.
    Expanding the Pfaffian along the lowest free position v, matching v
    to w contributes a_vw * (-1)^(free positions strictly between v and
    w) * Pf(the rest), where a_vw is +1 for the arc v -> w and -1 for
    w -> v.  Relabelling by the order multiplies Pf by the sign of the
    permutation, the same for every matching.  |Pf| = Pm exactly when
    every perfect matching has one sign, i.e. when d is a Pfaffian
    orientation of G.  Odd order and 2m < n give (0, 0) before the order
    is built.
    """
    k = d.n
    if k % 2 or 2 * len(d.arcs) < k:
        return 0, 0
    if not k:
        return 1, 1
    position, nbr, matchable = _sweep_order(d.base)
    if not matchable:
        return 0, 0
    backward = nbr[:]  # backward[i]: the positions with an arc into position i
    for u, w in d.arcs:
        backward[position[u]] ^= 1 << position[w]
    buckets: list[Optional[dict[int, tuple[int, int]]]] = [{} for _ in range(k)]
    buckets[0] = {(1 << k) - 1: (1, 1)}
    created, total, signed_total = 1, 0, 0
    for v in range(k):
        bucket, buckets[v] = buckets[v], None
        vbit, into_v = 1 << v, backward[v]
        for mask, (ways, signed) in bucket.items():
            rest = mask ^ vbit
            choices = nbr[v] & rest
            while choices:
                wbit = choices & -choices
                choices ^= wbit
                # each free position between v and w flips the sign, and so
                # does a_vw = -1: wbit itself is counted iff w -> v is the arc
                flips = (rest & (wbit - 1) | into_v & wbit).bit_count()
                term = -signed if flips & 1 else signed
                left = rest ^ wbit
                if not left:
                    total += ways
                    signed_total += term
                    continue
                target = buckets[(left & -left).bit_length() - 1]
                if left in target:
                    had_ways, had_signed = target[left]
                    target[left] = (had_ways + ways, had_signed + term)
                    continue
                target[left] = (ways, term)
                created += 1
                if created > DEFAULT_BRUTE_STATE_GUARD:
                    raise _state_guard(k)
    return total, signed_total
