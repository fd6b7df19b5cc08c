"""Edge orientations and the Pfaffian criterion.

The constructors here realize one idea at increasing depth: orient a
graph, place copies side by side with every copy's orientation reversed
relative to its neighbor, and direct all the connecting rungs the same
way.  Applied once to a tree this doubles it; applied layer by layer it
orients P_m x T; applied twice it orients a graph isomorphic to
C_4 x T whose skew adjacency matrix is block-tridiagonal-plus-corners
in the tree's skew adjacency A:

    [[ A,  I,  I,  0],
     [-I, -A,  0,  I],
     [-I,  0, -A, -I],
     [ 0, -I,  I,  A]]

An orientation is Pfaffian when every nice even cycle (one whose
removal leaves a perfectly matchable remainder) contains an odd number
of arcs agreeing with each traversal direction.  A cycle is nice and
even exactly when it alternates with some perfect matching: add every
other edge of the cycle to a matching of the remainder.  `check_pfaffian`
fixes one perfect matching M and tests only the M-alternating cycles,
which suffices (Lovász & Plummer, *Matching Theory*, ch. 8; R. Thomas,
"A survey of Pfaffian orientations of graphs", ICM 2006); to list the
violations of a failure it walks the alternating cycles of every other
perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .brute import perfect_matchings
from .errors import InvalidSizeError, SizeLimitError
from .graphs import (
    Edge,
    Graph,
    _sorted_edge,
    cartesian_product,
    parse_edge_lines,
    path_graph,
    validate_tree,
)

Arc = tuple[int, int]

#: A simple cycle c0 c1 ... c_{k-1} c0, stored as the k distinct vertices.
CycleSeq = tuple[int, ...]

#: Default vertex guard of check_pfaffian, which is exponential.
DEFAULT_CYCLE_GUARD = 24


@dataclass(frozen=True)
class OrientedGraph:
    """A simple graph with exactly one direction chosen per edge."""

    base: Graph
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        undirected = frozenset(_sorted_edge(u, v) for u, v in self.arcs)
        if undirected != self.base.edges or len(self.arcs) != len(self.base.edges):
            raise ValueError("arcs must direct each base edge exactly once")

    @property
    def n(self) -> int:
        return self.base.n

    def orients(self, g: Graph) -> bool:
        """True iff this orients g: the same vertex count and edge set.

        Structural on purpose: a Tree and a plain Graph with the same
        vertices and edges are the same graph here, although dataclass
        equality tells them apart.
        """
        return self.base.n == g.n and self.base.edges == g.edges


@dataclass(frozen=True)
class PfaffianReport:
    """Outcome of check_pfaffian.

    The check passes when no violation was found: every M-alternating
    cycle of the perfect matching `matching` (empty when the graph has
    none) was oddly oriented, and route is then "alternating".  A
    failure walked the alternating cycles of every other perfect
    matching, which are all the nice even cycles, and listed the
    violations among them in lexicographic order; route is then
    "nice-cycles".
    nice_even_cycles counts the distinct cycles the route examined.
    """

    nice_even_cycles: int
    violations: tuple[CycleSeq, ...]
    matching: tuple[Edge, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def route(self) -> str:
        return "alternating" if self.passed else "nice-cycles"


def orient_lexicographic(g: Graph) -> OrientedGraph:
    """Direct every edge from its lower to its higher endpoint."""
    return OrientedGraph(base=g, arcs=frozenset(g.edges))


def _stack(d: OrientedGraph, m: int) -> OrientedGraph:
    """Orient P_m x G with m copies of d: layer i (0-based) keeps d when i
    is even and gets its converse when i is odd; every rung points from
    layer i to layer i+1."""
    n = d.n
    product = cartesian_product(path_graph(m), d.base)
    arcs: set[Arc] = set()
    for i in range(m):
        off = i * n
        for u, v in d.arcs:
            arcs.add((off + u, off + v) if i % 2 == 0 else (off + v, off + u))
    arcs.update((k, k + n) for k in range((m - 1) * n))  # the rungs
    return OrientedGraph(base=product, arcs=frozenset(arcs))


def orient_double(d: OrientedGraph) -> OrientedGraph:
    """Orient P_2 x G for any graph G: left copy keeps d, right copy gets
    its converse, and every rung v .. n+v points left to right."""
    return _stack(d, 2)


def orient_layered(d: OrientedGraph, m: int) -> OrientedGraph:
    """Orient P_m x T by stacking m copies of the tree orientation d.

    The layers alternate d and its converse, with every rung pointing to
    the next layer, so orient_layered(d, 2) is orient_double(d); m = 1
    returns d itself.
    """
    validate_tree(d.base)
    if m < 1:
        raise InvalidSizeError(f"need at least 1 layer, got {m}")
    return d if m == 1 else _stack(d, m)


def orient_c4_tree(d: OrientedGraph) -> OrientedGraph:
    """Orient a graph isomorphic to C_4 x T by doubling the doubling.

    The four tree layers, in the cyclic order they sit around the
    4-cycle, carry d, its converse, d, its converse; the resulting skew
    adjacency matrix has the block form shown in the module docstring.
    """
    validate_tree(d.base)
    return orient_double(orient_double(d))


def _odd_forward(arcs: frozenset[Arc], c: CycleSeq) -> bool:
    """True iff an odd number of c's consecutive pairs, wrapping around, are arcs.

    For an even cycle of length k the two traversal directions count f
    and k - f arcs, which share parity, so one traversal suffices.
    """
    return sum((u, v) in arcs for u, v in zip(c, c[1:] + c[:1])) % 2 == 1


def _alternating_cycles(g: Graph, matching: Iterable[Edge]) -> Iterator[CycleSeq]:
    """Every cycle of g alternating with the matching M, exactly once.

    A cycle is listed from its smallest vertex s, first along s's M-edge;
    the walk then alternates a non-M edge with the M-edge of the vertex
    it reaches, through vertices above s only, and closes on a non-M
    edge back to s.  Iterative, so the depth is not bounded by Python's
    recursion limit.
    """
    mate = [-1] * g.n
    for u, v in matching:
        mate[u], mate[v] = v, u
    others = [tuple(w for w in nbrs if w != mate[v]) for v, nbrs in enumerate(g.adjacency)]
    for s, t in enumerate(mate):
        if t < s:
            continue
        path = [s, t]
        onpath = (1 << s) | (1 << t)
        stack = [iter(others[t])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    yield tuple(path)
                elif w > s and mate[w] > s and not (onpath >> w) & 1:
                    path += (w, mate[w])
                    onpath |= (1 << w) | (1 << mate[w])
                    stack.append(iter(others[mate[w]]))
                    break
            else:
                stack.pop()
                if stack:
                    onpath &= ~((1 << path.pop()) | (1 << path.pop()))


def check_pfaffian(d: OrientedGraph, max_vertices: int = DEFAULT_CYCLE_GUARD) -> PfaffianReport:
    """Test the Pfaffian property at desk scale.

    Fixes the first perfect matching M of the base graph.  The
    orientation is Pfaffian iff every M-alternating cycle is oddly
    oriented (Lovász & Plummer, *Matching Theory*, ch. 8; R. Thomas, "A
    survey of Pfaffian orientations of graphs", ICM 2006).  Every such
    cycle is nice, since M covers what it leaves, so a pass needs no
    matching search per cycle; a graph without M has no nice cycle and
    passes vacuously.  A failure goes on through every other perfect
    matching: the cycles alternating with some matching are exactly the
    nice even cycles, each also alternates with a matching other than M
    (swap the matching along the cycle), and each that is not oddly
    oriented is a violation.  Graphs above max_vertices raise
    SizeLimitError first.
    """
    base = d.base
    if base.n > max_vertices:
        raise SizeLimitError(
            f"Pfaffian check guard: {base.n} vertices > limit {max_vertices}; "
            "raise the limit explicitly or use the brute-force counting route"
        )
    matchings = perfect_matchings(base)
    matching = next(matchings, ())
    checked = 0
    for c in _alternating_cycles(base, matching):
        if not _odd_forward(d.arcs, c):
            break
        checked += 1
    else:
        return PfaffianReport(nice_even_cycles=checked, violations=(), matching=matching)
    # A cycle C alternating with a matching M' also alternates with M' xor C,
    # so the matchings after M alone reach every nice even cycle.
    nice: set[CycleSeq] = set()
    for m in matchings:
        for c in _alternating_cycles(base, m):
            # one direction per cycle: toward the start's smaller neighbour
            nice.add(c if c[1] < c[-1] else c[:1] + c[:0:-1])
    violations = tuple(sorted(c for c in nice if not _odd_forward(d.arcs, c)))
    return PfaffianReport(nice_even_cycles=len(nice), violations=violations, matching=matching)


# ---------------------------------------------------------------------------
# Oriented edge-list text: the edge-list format of graphs.parse_edge_lines
# with "u -> v" lines.
# ---------------------------------------------------------------------------

def parse_oriented_edge_list(text: str) -> OrientedGraph:
    n, arcs = parse_edge_lines(text, arrows=True)
    return OrientedGraph(base=Graph.from_edges(n, arcs), arcs=frozenset(arcs))


def format_oriented_edge_list(d: OrientedGraph, comments: Iterable[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{d.n} {len(d.arcs)}")
    out.extend(f"{u} -> {v}" for u, v in sorted(d.arcs))
    return "\n".join(out) + "\n"
