"""Edge orientations, skew adjacency matrices, and the Pfaffian criterion.

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

`check_pfaffian` verifies the defining property directly: every nice
even cycle must contain an odd number of arcs agreeing with each
traversal direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .brute import has_perfect_matching
from .errors import (
    InvalidCycleError,
    InvalidSizeError,
    OddCycleParityError,
)
from .graphs import (
    DEFAULT_CYCLE_GUARD,
    CycleSeq,
    Graph,
    _sorted_edge,
    cartesian_product,
    enumerate_cycles,
    is_cycle_of,
    parse_edge_lines,
    path_graph,
    validate_tree,
)

Arc = tuple[int, int]


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
    """Outcome of the nice-even-cycle parity check."""

    passed: bool
    nice_even_cycles: int
    violations: tuple[CycleSeq, ...]

    def __post_init__(self) -> None:
        assert self.passed == (not self.violations)


def orient_lexicographic(g: Graph) -> OrientedGraph:
    """Direct every edge from its lower to its higher endpoint."""
    return OrientedGraph(base=g, arcs=frozenset(g.edges))


def converse(d: OrientedGraph) -> OrientedGraph:
    """Reverse every arc (an involution)."""
    return OrientedGraph(base=d.base, arcs=frozenset((v, u) for u, v in d.arcs))


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
    4-cycle, carry d, converse(d), d, converse(d); the resulting skew
    adjacency matrix has the block form shown in the module docstring.
    """
    validate_tree(d.base)
    return orient_double(orient_double(d))


def skew_adjacency(d: OrientedGraph) -> list[list[int]]:
    """Antisymmetric 0/1/-1 matrix: entry (u, v) is 1 iff the arc u->v exists."""
    n = d.n
    a = [[0] * n for _ in range(n)]
    for u, v in d.arcs:
        a[u][v] = 1
        a[v][u] = -1
    return a


def is_nice_cycle(g: Graph, c: CycleSeq) -> bool:
    """True iff deleting c's vertices leaves a graph with a perfect matching."""
    if not is_cycle_of(g, c):
        raise InvalidCycleError(f"{c} is not a simple cycle of the graph")
    return has_perfect_matching(g, excluding=c)


def is_oddly_oriented(d: OrientedGraph, c: CycleSeq) -> bool:
    """True iff an even cycle has an odd number of arcs along each direction.

    For even k the two traversal directions have co-directed counts f and
    k - f, which share parity, so one traversal suffices.
    """
    if not is_cycle_of(d.base, c):
        raise InvalidCycleError(f"{c} is not a simple cycle of the base graph")
    k = len(c)
    if k % 2:
        raise OddCycleParityError(f"odd orientation is undefined for odd cycle length {k}")
    forward = sum(1 for i in range(k) if (c[i], c[(i + 1) % k]) in d.arcs)
    return forward % 2 == 1


def check_pfaffian(d: OrientedGraph, max_vertices: int = DEFAULT_CYCLE_GUARD) -> PfaffianReport:
    """Exhaustively test the Pfaffian property at desk scale.

    Enumerates every cycle of the base graph, keeps the nice even ones,
    and reports each that is not oddly oriented.  Passing is equivalent
    to the orientation being Pfaffian.
    """
    base = d.base
    violations: list[CycleSeq] = []
    nice_even = 0
    for c in enumerate_cycles(base, max_vertices):
        if len(c) % 2:
            continue
        if not has_perfect_matching(base, excluding=c):
            continue
        nice_even += 1
        if not is_oddly_oriented(d, c):
            violations.append(c)
    return PfaffianReport(
        passed=not violations, nice_even_cycles=nice_even, violations=tuple(violations)
    )


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
