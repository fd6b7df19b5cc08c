"""Simple graphs, their orientations, trees, and the Cartesian products.

Vertices are always the integers 0..n-1 and an edge is a sorted pair
(u, v) with u < v.  Cartesian products use *layer-major* numbering:
vertex (i, j) of g x h becomes index i*|h| + j, i.e. one contiguous copy
of h per vertex of g.  The orientation module and the CLI's printed
comments rely on this convention; abs_pfaffian accepts any numbering.

A Tree is a Graph that passed the one tree check: building it runs a
breadth-first search from vertex 0, which either yields the parent
array and the vertex order every tree fold walks or raises
NotATreeError.  An OrientedGraph derives the Graph its arcs orient; it
sits below orientation so that exactlinalg and brute can take it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Optional

from .errors import (
    EdgeListParseError,
    InvalidSizeError,
    NotATreeError,
    PreconditionError,
)

Edge = tuple[int, int]
Arc = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Finite simple graph: vertex count plus a frozenset of sorted pairs."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise InvalidSizeError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise PreconditionError(f"edge ({u}, {v}) is not a sorted pair inside range(n)")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The graph of pairs in either order; __post_init__ refuses a self-loop.
        A sorted tuple is kept, not copied (tuple() returns a tuple itself)."""
        return cls(n=n, edges=frozenset(
            p if p[0] < p[1] else (p[1], p[0]) for p in map(tuple, pairs)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, sorted ascending (deterministic iteration order)."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)


@dataclass(frozen=True)
class Tree(Graph):
    """A connected acyclic Graph; building one is the check.

    Construction runs the breadth-first search from vertex 0 and raises
    NotATreeError for the empty graph, for a cycle (named through BFS
    parents) and for a disconnected graph (with the unreached count).
    The search's results are kept: parent[v] is v's neighbour towards
    the root 0 (parent[0] is None), and order lists every vertex once,
    each after its parent, with breadth-first depth never decreasing.
    The order is some breadth-first order, not a pinned one: in a tree
    every breadth-first order gives the same parents.
    """

    root: ClassVar[int] = 0
    parent: tuple[Optional[int], ...] = field(init=False, compare=False)
    order: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.n
        if n == 0:
            raise NotATreeError("the empty graph is not a tree")
        if self.m == n - 1:
            # unsorted neighbour lists: in a tree the parents do not depend on their order
            nbrs: list[list[int]] = [[] for _ in range(n)]
            for u, v in self.edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            parent: list[Optional[int]] = [-1] * n  # -1: not reached yet
            parent[0] = 0  # the root counts as reached; its parent becomes None below
            order = [0]
            for v in order:
                for w in nbrs[v]:
                    if parent[w] == -1:
                        parent[w] = v
                        order.append(w)
            if len(order) == n:  # connected with n - 1 edges
                parent[0] = None
                object.__setattr__(self, "parent", tuple(parent))
                object.__setattr__(self, "order", tuple(order))
                return
        # not a tree: the sorted search names the same witness whatever the edge order
        order, parent, depth = _bfs_forest(self)
        # the component of 0 ends where the search starts its second root
        reached = next((i for i in range(1, n) if parent[order[i]] is None), n)
        for v in order[:reached]:
            for w in self.adjacency[v]:
                if w != parent[v] and parent[w] != v:
                    cycle = _cycle_through(parent, depth, v, w)
                    raise NotATreeError(
                        "not a tree: contains cycle " + "-".join(str(x) for x in cycle)
                    )
        raise NotATreeError(
            f"not a tree: disconnected ({n - reached} of {n} vertices unreachable)"
        )


@dataclass(frozen=True)
class OrientedGraph:
    """A simple graph on range(n) with exactly one direction chosen per edge.

    Building one derives base, the Graph the arcs orient, once, and that
    is the whole check: Graph refuses an arc out of range or a self-loop,
    and an edge directed both ways leaves base fewer edges than arcs.
    orientation.orient_lexicographic, whose arcs are a graph's own
    edges, skips the check and keeps that graph itself as base.
    """

    n: int
    arcs: frozenset[Arc]
    base: Graph = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        base = Graph.from_edges(self.n, self.arcs)
        if len(base.edges) != len(self.arcs):
            raise PreconditionError("arcs must direct each edge once, not both ways")
        object.__setattr__(self, "base", base)

    def orients(self, g: Graph) -> bool:
        """True iff this orients g: the same vertex count and edge set.

        Structural on purpose: a Tree and a plain Graph with the same
        vertices and edges are the same graph here, although dataclass
        equality tells them apart.
        """
        return self.n == g.n and self.base.edges == g.edges


def path_graph(m: int) -> Tree:
    """The path P_m on vertices 0..m-1 with edges {i, i+1}."""
    if m < 1:
        raise InvalidSizeError(f"a path needs at least 1 vertex, got {m}")
    return Tree(n=m, edges=frozenset((i, i + 1) for i in range(m - 1)))


def cycle_graph(m: int) -> Graph:
    """The cycle C_m on vertices 0..m-1 with edges {i, (i+1) mod m}."""
    if m < 3:
        raise InvalidSizeError(f"a cycle needs at least 3 vertices, got {m}")
    return Graph.from_edges(m, ((i, (i + 1) % m) for i in range(m)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product g x h with layer-major vertex numbering.

    Vertex (i, j) maps to i*|h| + j; (i, j) ~ (i, j') iff {j, j'} in E(h),
    and (i, j) ~ (i', j) iff {i, i'} in E(g).  The result therefore has
    |g|*|h| vertices and |g|*|E(h)| + |h|*|E(g)| edges.
    """
    if g.n == 0 or h.n == 0:
        raise InvalidSizeError("Cartesian product factors must be nonempty")
    nh = h.n
    edges: list[Edge] = []
    for i in range(g.n):
        base = i * nh
        for u, v in h.edges:
            edges.append((base + u, base + v))
    for i, k in g.edges:
        for j in range(nh):
            edges.append((i * nh + j, k * nh + j))
    # both loops build sorted pairs: u < v in h, i < k in g
    return Graph(n=g.n * nh, edges=frozenset(edges))


def validate_tree(g: Graph) -> Tree:
    """g as a Tree, or NotATreeError: building the Tree is the check."""
    return g if isinstance(g, Tree) else Tree(n=g.n, edges=g.edges)


def _bfs_forest(g: Graph) -> tuple[list[int], list[Optional[int]], list[int]]:
    """(order, parent, depth) of a breadth-first search over every component.

    Components come in turn, each searched from its least vertex, and
    each vertex queues its unvisited neighbours in ascending order.  A
    root has parent None and depth 0.
    """
    adjacency = g.adjacency
    order: list[int] = []
    parent: list[Optional[int]] = [None] * g.n
    depth = [-1] * g.n
    for start in range(g.n):
        if depth[start] >= 0:
            continue
        depth[start] = 0
        queue = [start]
        for v in queue:
            for w in adjacency[v]:
                if depth[w] < 0:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    queue.append(w)
        order += queue
    return order, parent, depth


def tree_has_perfect_matching(t: Graph) -> bool:
    """True iff the tree t has a perfect matching, in O(n).

    Walks the tree's breadth-first order in reverse, so every vertex
    comes after its children, and matches each still unmatched vertex
    with its parent.  A vertex whose children are all matched can only
    be matched to its parent, so every choice is forced, and the tree
    has a perfect matching iff no vertex is left without a free parent.
    """
    tree = validate_tree(t)
    parent = tree.parent
    matched = [False] * tree.n
    for v in reversed(tree.order):
        if not matched[v]:
            p = parent[v]
            if p is None or matched[p]:
                return False
            matched[v] = matched[p] = True
    return True


def _cycle_through(parent: list[Optional[int]], depth: list[int], v: int, w: int) -> list[int]:
    """Cycle formed by BFS-tree paths of v and w plus the edge {v, w}:
    the deeper side steps up until both meet at their lowest common
    ancestor."""
    v_side: list[int] = []
    w_side: list[int] = []
    while v != w:
        if depth[v] >= depth[w]:
            v_side.append(v)
            v = parent[v]  # type: ignore[assignment]
        else:
            w_side.append(w)
            w = parent[w]  # type: ignore[assignment]
    return v_side + [v] + w_side[::-1]


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree on n vertices, deterministic in the seed.

    Draws the n-2 Prüfer digits from a splitmix64 stream (tiny, well
    documented, identical on every platform), with rejection sampling so
    each digit is exactly uniform, and decodes them in linear time: the
    least leaf is tracked by a pointer that only moves up, since a
    vertex that becomes a leaf below it is the least leaf at once.  The
    same (n, seed) pair yields the identical tree on any platform.
    """
    if n < 1:
        raise InvalidSizeError(f"a tree needs at least 1 vertex, got {n}")
    if n == 1:
        return Tree(n=1, edges=frozenset())
    mask = (1 << 64) - 1
    limit = (1 << 64) - ((1 << 64) % n)
    state = seed & mask
    digits: list[int] = []
    while len(digits) < n - 2:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        if z < limit:  # rejection keeps the modulo unbiased
            digits.append(z % n)
    return Tree(n=n, edges=frozenset(_prufer_decode(digits, n)))


def _prufer_decode(seq: list[int], n: int) -> list[Edge]:
    """The edges of the tree with Prüfer sequence seq, in O(n): each
    step joins the least leaf to the next digit."""
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    least = degree.index(1)
    leaf = least
    edges: list[Edge] = []
    for s in seq:
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[s] -= 1
        if degree[s] == 1 and s < least:
            leaf = s
        else:
            least += 1
            while degree[least] != 1:
                least += 1
            leaf = least
    edges.append((leaf, n - 1))
    return edges


# ---------------------------------------------------------------------------
# Edge-list text format (shared with the CLI): '#' comments, "n m" header,
# then m lines with 0-based indices, "u v" for an edge or "u -> v" for an
# arc.  A pair may appear once, in either direction.
# ---------------------------------------------------------------------------

def parse_edge_lines(text: str, arrows: bool = False
                     ) -> tuple[int, list[Edge], frozenset[Edge]]:
    """(n, pairs in file order, the pairs sorted) from edge-list text with
    "u v" lines, or "u -> v" lines when arrows is set; EdgeListParseError
    names the line of a bad header, line, endpoint, self-loop or repeated
    pair."""
    lines = [(i, line) for i, line in enumerate(map(str.strip, text.splitlines()), start=1)
             if line and line[0] != "#"]
    if not lines:
        raise EdgeListParseError("empty edge list: missing 'n m' header")
    (lineno, header), body = lines[0], lines[1:]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListParseError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise EdgeListParseError(f"line {lineno}: non-integer header {header!r}") from exc
    if n < 0 or len(body) != m:
        raise EdgeListParseError(
            f"line {lineno}: header {header!r} does not match the {len(body)} lines after it")
    shape = "u -> v" if arrows else "u v"
    pairs: list[Edge] = []
    seen: set[Edge] = set()
    for lineno, line in body:
        fields = line.split()
        if arrows:
            fields = fields[::2] if len(fields) == 3 and fields[1] == "->" else []
        if len(fields) != 2:
            raise EdgeListParseError(f"line {lineno}: expected {shape!r}, got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise EdgeListParseError(f"line {lineno}: non-integer endpoint in {line!r}") from exc
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise EdgeListParseError(f"line {lineno}: bad pair {line!r} for n={n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(f"line {lineno}: pair {line!r} repeats an earlier line")
        seen.add(key)
        pairs.append((u, v))
    return n, pairs, frozenset(seen)


def parse_edge_list(text: str) -> Graph:
    """The Graph of "u v" edge-list text (see parse_edge_lines)."""
    n, _, edges = parse_edge_lines(text)
    return Graph(n=n, edges=edges)


def format_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{g.n} {g.m}")
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"
