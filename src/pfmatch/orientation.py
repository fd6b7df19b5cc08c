"""Edge orientations and the Pfaffian criterion.

The constructors here are plans for one builder: place copies of an
oriented graph d side by side, each copy either d or its converse, and
join chosen pairs of copies by rungs that all point the same way.  Two
copies make the doubling orient_double (P_2 x G); m alternating copies
joined in a path orient P_m x T; four copies joined around a 4-cycle
orient a graph isomorphic to C_4 x T whose skew adjacency matrix is
block-tridiagonal-plus-corners in the tree's skew adjacency A:

    [[ A,  I,  I,  0],
     [-I, -A,  0,  I],
     [-I,  0, -A, -I],
     [ 0, -I,  I,  A]]

An orientation is Pfaffian when every perfect matching carries the same
sign in the Pfaffian of the skew adjacency matrix A, that is, when
|Pf(A)| = Pm(G) (Kasteleyn; R. Thomas, "A survey of Pfaffian
orientations of graphs", ICM 2006).  `check_pfaffian` decides it that
way: one sweep of brute.count_signed_matchings(d) yields both numbers,
and a pass runs nothing else.  Equivalently, every nice even cycle (one
whose removal leaves a perfectly matchable remainder) contains an odd
number of arcs agreeing with each traversal direction; the nice even
cycles are exactly the cycles alternating with some perfect matching,
so only a failure enumerates the perfect matchings, to list its
violations by walking the alternating cycles of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Sequence

from .brute import count_signed_matchings
from .errors import InvalidSizeError, SizeLimitError
from .graphs import Arc, Graph, OrientedGraph, parse_edge_lines, validate_tree

#: A simple cycle c0 c1 ... c_{k-1} c0, stored as the k distinct vertices.
CycleSeq = tuple[int, ...]

#: Default vertex guard of check_pfaffian.  A pass is one signed sweep,
#: which the brute-force state guard bounds; this guard bounds only the
#: listing of a failure's violations, which walks every perfect matching.
DEFAULT_CYCLE_GUARD = 24

#: Steps (path extensions and closed cycles) of the alternating-cycle walk
#: over a whole listing.  It bounds dense graphs inside the vertex guard:
#: the lexicographic K_10 lists in 1.37 M steps, K_12 in full takes minutes.
LISTING_STEP_GUARD = 2_000_000


@dataclass(frozen=True)
class PfaffianReport:
    """Outcome of check_pfaffian.

    Every call sets matchings, the number Pm of perfect matchings, and
    pfaffian, |Pf| of the skew adjacency matrix, both from one signed
    sweep; the check passes iff they are equal.  A pass runs nothing
    else: route is "matching-signs", nice_even_cycles is 0 and
    violations is empty.  A failure walks the alternating cycles of
    every perfect matching, which are all the nice even cycles: route is
    "nice-cycles", nice_even_cycles counts the distinct ones and
    violations lists those that are not oddly oriented, in
    lexicographic order.
    """

    nice_even_cycles: int
    violations: tuple[CycleSeq, ...]
    matchings: int
    pfaffian: int

    @property
    def passed(self) -> bool:
        return self.pfaffian == self.matchings

    @property
    def route(self) -> str:
        return "matching-signs" if self.passed else "nice-cycles"


def orient_lexicographic(g: Graph) -> OrientedGraph:
    """Direct every edge from its lower to its higher endpoint.

    The arcs are g's own sorted edges, which orient g once each, so g
    itself is the base, not a copy derived from the arcs: a Tree stays
    a Tree, and orient_layered and orient_c4_tree do not check it again.
    """
    d = object.__new__(OrientedGraph)
    for name, value in (("n", g.n), ("arcs", frozenset(g.edges)), ("base", g)):
        object.__setattr__(d, name, value)
    return d


def _stack(d: OrientedGraph, flipped: Sequence[bool], rungs: Sequence[tuple[int, int]]
           ) -> OrientedGraph:
    """One copy of d per entry of flipped, joined by rungs: layer i carries
    d, or its converse when flipped[i], and each rung (i, j) points every
    vertex i*n + v to j*n + v.  Vertex (i, v) is i*n + v, the layer-major
    numbering of graphs.cartesian_product."""
    n = d.n
    converse = [(v, u) for u, v in d.arcs]
    arcs: list[Arc] = []
    for i, j in rungs:
        arcs += [(i * n + v, j * n + v) for v in range(n)]
    for i, flip in enumerate(flipped):
        off = i * n
        arcs += [(off + u, off + v) for u, v in (converse if flip else d.arcs)]
    return OrientedGraph(n=len(flipped) * n, arcs=frozenset(arcs))


def orient_double(d: OrientedGraph) -> OrientedGraph:
    """Orient P_2 x G for any graph G: left copy keeps d, right copy gets
    its converse, and every rung v .. n+v points left to right."""
    return _stack(d, (False, True), [(0, 1)])


def orient_layered(d: OrientedGraph, m: int) -> OrientedGraph:
    """Orient P_m x T by stacking m copies of the tree orientation d.

    The layers alternate d and its converse, with every rung pointing to
    the next layer, so orient_layered(d, 2) is orient_double(d); m = 1
    returns d itself.
    """
    validate_tree(d.base)
    if m < 1:
        raise InvalidSizeError(f"need at least 1 layer, got {m}")
    if m == 1:
        return d
    return _stack(d, [i % 2 == 1 for i in range(m)], [(i, i + 1) for i in range(m - 1)])


def orient_c4_tree(d: OrientedGraph) -> OrientedGraph:
    """Orient a graph isomorphic to C_4 x T: orient_double(orient_double(d))
    as one plan.

    Layers 0 to 3 carry d, its converse, its converse and d, and the
    rungs point from layer 0 to 1, 0 to 2, 1 to 3 and 3 to 2.  Around
    the 4-cycle 0, 1, 3, 2 the layers alternate d and its converse, and
    the skew adjacency matrix has the block form of the module docstring.
    """
    validate_tree(d.base)
    return _stack(d, (False, True, True, False), [(0, 1), (0, 2), (1, 3), (3, 2)])


def _perfect_matching_mates(g: Graph) -> Iterator[tuple[int, ...]]:
    """Every perfect matching of g once, as its mate array (mate[v] is
    v's partner), in lexicographic order of the sorted edge lists.

    Depth-first with an explicit stack, so the depth is not bounded by
    Python's recursion limit: entry i holds the i-th vertex matched, v,
    with the partners of v still to try.  The lowest free vertex is
    matched to each free neighbour in ascending order.  Exponential and
    unguarded: only a failing check_pfaffian walks it, under its vertex
    guard and its step guard, which every matching after the first
    charges at least one closed cycle.
    """
    if g.n % 2:
        return
    nbr = [sum(1 << w for w in a) for a in g.adjacency]
    mate = [-1] * g.n
    free = (1 << g.n) - 1
    stack: list[tuple[int, int]] = []
    while True:
        if free:
            v = (free & -free).bit_length() - 1
            choices = nbr[v] & free
        else:
            yield tuple(mate)
            choices = 0
        while not choices:
            if not stack:
                return
            v, choices = stack.pop()
            free |= (1 << v) | (1 << mate[v])
        wbit = choices & -choices
        w = wbit.bit_length() - 1
        stack.append((v, choices ^ wbit))
        mate[v], mate[w] = w, v
        free ^= (1 << v) | wbit


def _alternating_cycles(d: OrientedGraph, mate: Sequence[int],
                        steps: int = LISTING_STEP_GUARD
                        ) -> Generator[tuple[CycleSeq, bool], None, int]:
    """Every cycle alternating with the perfect matching M whose mate
    array is mate, exactly once, with True iff it is oddly oriented.

    A cycle is listed from its smallest vertex s, first along s's M-edge;
    the walk then alternates a non-M edge with the M-edge of the vertex
    it reaches, through vertices above s only, and closes on a non-M
    edge back to s.  The walk keeps the parity of the arcs it has
    followed forward, so closing a cycle costs one step; for an even
    cycle of length k the two traversal directions follow f and k - f
    arcs, which share parity, so the flag holds either way.  Iterative,
    so the depth is not bounded by Python's recursion limit.

    The walk takes at most steps steps, each one extension of the path or
    one closed cycle, and returns the number left; one step more raises
    SizeLimitError.
    """
    g, arcs = d.base, d.arcs
    along_m = [(v, w) in arcs for v, w in enumerate(mate)]
    # each non-M neighbour w of v, with True when v -> w is an arc
    others = [tuple((w, (v, w) in arcs) for w in nbrs if w != mate[v])
              for v, nbrs in enumerate(g.adjacency)]
    for s, t in enumerate(mate):
        if t < s:
            continue
        path = [s, t]
        odd = [along_m[s]]  # parity of the forward arcs of path, one entry per M-edge
        onpath = (1 << s) | (1 << t)
        stack = [iter(others[t])]
        while stack:
            for w, forward in stack[-1]:
                if w != s and (w < s or mate[w] < s or (onpath >> w) & 1):
                    continue
                steps -= 1
                if steps < 0:
                    raise SizeLimitError(
                        f"Pfaffian check guard: not Pfaffian, and listing the violations takes "
                        f"more than {LISTING_STEP_GUARD:,} steps of the alternating-cycle walk"
                    )
                if w == s:
                    yield tuple(path), odd[-1] ^ forward
                else:
                    path += (w, mate[w])
                    odd.append(odd[-1] ^ forward ^ along_m[w])
                    onpath |= (1 << w) | (1 << mate[w])
                    stack.append(iter(others[mate[w]]))
                    break
            else:
                stack.pop()
                if stack:
                    odd.pop()
                    onpath &= ~((1 << path.pop()) | (1 << path.pop()))
    return steps


def check_pfaffian(d: OrientedGraph, max_vertices: int = DEFAULT_CYCLE_GUARD) -> PfaffianReport:
    """Test the Pfaffian property at desk scale.

    One sweep of brute.count_signed_matchings(d) gives the number Pm of
    perfect matchings and |Pf| of the skew adjacency matrix.  Pf sums
    the signs of the perfect matchings, so |Pf| = Pm exactly when they
    all share one sign, which is the Pfaffian property (Kasteleyn; R.
    Thomas, "A survey of Pfaffian orientations of graphs", ICM 2006);
    odd and unmatchable graphs pass vacuously, with Pm = |Pf| = 0.  A
    pass runs that sweep alone.  A failure lists its violations: the cycles
    alternating with some perfect matching are exactly the nice even
    cycles, each also alternates with a matching other than the first,
    M (swap the matching along the cycle), and each that is not oddly
    oriented is a violation.  The sweep runs at every size, under the
    brute-force state guard; max_vertices and LISTING_STEP_GUARD bound
    only that listing, so a failure on more vertices, or one whose walk
    takes more steps, raises SizeLimitError instead of listing.
    """
    count, signed = count_signed_matchings(d)
    pfaffian = abs(signed)
    if pfaffian == count:
        return PfaffianReport(nice_even_cycles=0, violations=(), matchings=count,
                              pfaffian=pfaffian)
    if d.n > max_vertices:
        raise SizeLimitError(
            f"Pfaffian check guard: not Pfaffian (|Pf| {pfaffian} < {count} perfect "
            f"matchings), and listing the violations on {d.n} vertices > limit "
            f"{max_vertices} needs the limit raised explicitly"
        )
    # A cycle C alternating with a matching M' also alternates with M' xor C,
    # so the matchings after the first, M, alone reach every nice even cycle;
    # a failure has at least two matchings.
    mates = _perfect_matching_mates(d.base)
    next(mates)
    nice: dict[CycleSeq, bool] = {}

    def walks() -> Iterator[tuple[CycleSeq, bool]]:  # one step budget for every matching
        steps = LISTING_STEP_GUARD
        for mate in mates:
            steps = yield from _alternating_cycles(d, mate, steps)

    for c, odd in walks():
        # one direction per cycle: toward the start's smaller neighbour
        nice[c if c[1] < c[-1] else c[:1] + c[:0:-1]] = odd
    violations = tuple(sorted(c for c, odd in nice.items() if not odd))
    return PfaffianReport(nice_even_cycles=len(nice), violations=violations, matchings=count,
                          pfaffian=pfaffian)


# ---------------------------------------------------------------------------
# Oriented edge-list text: the edge-list format of graphs.parse_edge_lines
# with "u -> v" lines.
# ---------------------------------------------------------------------------

def parse_oriented_edge_list(text: str) -> OrientedGraph:
    n, arcs, _ = parse_edge_lines(text, arrows=True)
    return OrientedGraph(n=n, arcs=frozenset(arcs))


def format_oriented_edge_list(d: OrientedGraph, comments: Iterable[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{d.n} {len(d.arcs)}")
    out.extend(f"{u} -> {v}" for u, v in sorted(d.arcs))
    return "\n".join(out) + "\n"
