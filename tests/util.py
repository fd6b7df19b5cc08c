"""Shared test helpers: independent oracles and deterministic generators.

Every oracle here deliberately uses a different algorithm from the code
it checks: cycles come from vertex subsets or a depth-first scan over
all simple cycles, nice cycles from a backtracking matching count of
the remainder, matchings from edge subsets or plain backtracking, the
Cuthill-McKee order from a deque search that sorts as it goes, the tree
check's parents and witnesses from a sorted search of every component
over Graph.adjacency, grid counts from a broken-profile DP, the
2 x 2 x n lattice from the
Narumi-Hosoya trigonometric product in log space, determinants from
dense fraction-free (Bareiss) elimination or cofactor expansion,
resultants from the determinant of a multiplication matrix, primes from
Lucas certificates, characteristic polynomials from exact interpolation
or the Faddeev-LeVerrier recurrence, and closed forms from dense matrix
polynomials, from the whole tree characteristic polynomial over Z[x],
or (P_3 x T) from a weighted matching count.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from pfmatch import (
    CycleSeq,
    Graph,
    IntPolynomial,
    OrientedGraph,
    PreconditionError,
    SizeLimitError,
    Tree,
    cartesian_product,
    path_graph,
    validate_tree,
)

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# deterministic randomness (independent of the package's splitmix64 use)
# ---------------------------------------------------------------------------

def bit_stream(seed: int):
    """xorshift64* stream; only used to make test sampling reproducible."""
    state = (seed * 2 + 1) & ((1 << 64) - 1)
    while True:
        state ^= (state >> 12) & ((1 << 64) - 1)
        state = (state ^ (state << 25)) & ((1 << 64) - 1)
        state ^= state >> 27
        yield (state * 0x2545F4914F6CDD1D) & ((1 << 64) - 1)


def random_orientation(g: Graph, seed: int) -> OrientedGraph:
    bits = bit_stream(seed)
    arcs = []
    for u, v in sorted(g.edges):
        arcs.append((u, v) if next(bits) % 2 == 0 else (v, u))
    return OrientedGraph(n=g.n, arcs=frozenset(arcs))


# ---------------------------------------------------------------------------
# tree enumeration: all isomorphism classes on n vertices
# ---------------------------------------------------------------------------

def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    # O(n^2) textbook scan, structurally different from the package's heap decode
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = [x for x in range(n) if degree[x] == 1]
    edges.append((u, v))
    return edges


def labeled_trees(n: int):
    """Every labeled tree on n vertices, via all Prüfer sequences."""
    if n == 1:
        yield Tree(n=1, edges=frozenset())
        return
    if n == 2:
        yield validate_tree(Graph.from_edges(2, [(0, 1)]))
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield validate_tree(Graph.from_edges(n, _prufer_decode(list(seq), n)))


def _ahu_canonical(t: Graph) -> str:
    """Canonical string of an unrooted tree (root at center, sort subtrees)."""
    n = t.n
    if n == 1:
        return "()"
    # peel leaves to find the 1- or 2-vertex center
    degree = [len(t.adjacency[v]) for v in range(n)]
    alive = set(range(n))
    layer = [v for v in alive if degree[v] == 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in t.adjacency[v]:
                if w in alive:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt

    def rooted(v: int, parent: int) -> str:
        kids = sorted(rooted(w, v) for w in t.adjacency[v] if w != parent)
        return "(" + "".join(kids) + ")"

    return min(rooted(c, -1) for c in alive)


@functools.lru_cache(maxsize=None)
def nonisomorphic_trees(n: int) -> tuple[Tree, ...]:
    """One representative per isomorphism class of trees on n vertices: the
    first labeled tree of the class in Prüfer order.

    The classes come from adding a leaf to each vertex of each smaller
    representative (every tree is a smaller one plus a leaf), so the
    Prüfer scan stops as soon as every class has its first tree.
    """
    if n <= 2:
        return tuple(labeled_trees(n))
    classes = {_ahu_canonical(t) for t in tree_shapes(n)}
    seen: dict[str, Graph] = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        g = Graph.from_edges(n, _prufer_decode(list(seq), n))
        seen.setdefault(_ahu_canonical(g), g)
        if len(seen) == len(classes):
            break
    return tuple(validate_tree(seen[k]) for k in sorted(seen))


@functools.lru_cache(maxsize=None)
def tree_shapes(n: int) -> tuple[Tree, ...]:
    """One tree per isomorphism class on n vertices, each a smaller shape
    plus a leaf, in the order of their canonical strings.

    The same classes as nonisomorphic_trees without its Prüfer scan,
    which takes about 90 s for n = 10 where this takes milliseconds.
    """
    if n <= 2:
        return tuple(labeled_trees(n))
    shapes: dict[str, Graph] = {}
    for t in tree_shapes(n - 1):
        for v in range(n - 1):
            g = Graph.from_edges(n, [*t.edges, (v, n - 1)])
            shapes.setdefault(_ahu_canonical(g), g)
    return tuple(validate_tree(shapes[k]) for k in sorted(shapes))


def trees_up_to(n: int) -> list[Tree]:
    return [t for k in range(1, n + 1) for t in nonisomorphic_trees(k)]


def _bfs_forest(g: Graph) -> tuple[list[int], list[int | None], list[int]]:
    """(order, parent, depth) of a breadth-first search over every component.

    Components come in turn, each searched from its least vertex, and
    each vertex queues its unvisited neighbours in ascending order.  A
    root has parent None and depth 0.
    """
    adjacency = g.adjacency
    order: list[int] = []
    parent: list[int | None] = [None] * g.n
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


# ---------------------------------------------------------------------------
# oracle: simple cycles counted via vertex subsets
# ---------------------------------------------------------------------------

def hamiltonian_cycles(g: Graph, subset: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Hamiltonian cycles of the subgraph induced by a sorted vertex subset,
    started at its first vertex and directed so that the second vertex is
    below the last (the form enumerate_cycles uses)."""
    size, sset, start = len(subset), set(subset), subset[0]
    found: list[tuple[int, ...]] = []

    def ham(path: list[int], used: set[int]) -> None:
        v = path[-1]
        if len(path) == size:
            if (start, v) in g.edges and path[1] < path[-1]:
                found.append(tuple(path))
            return
        for w in g.adjacency[v]:
            if w in sset and w not in used:
                used.add(w)
                path.append(w)
                ham(path, used)
                path.pop()
                used.remove(w)

    ham([start], {start})
    return found


def cycles_by_subsets(g: Graph):
    """Every simple cycle of g once, one per rotation/reflection class, as
    the Hamiltonian cycles of each vertex subset of 3 or more."""
    for size in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            yield from hamiltonian_cycles(g, subset)


def cycle_census_by_subsets(g: Graph) -> dict[int, int]:
    """length -> number of simple cycles, one per rotation/reflection class."""
    counts: dict[int, int] = {}
    for c in cycles_by_subsets(g):
        counts[len(c)] = counts.get(len(c), 0) + 1
    return counts


def pfaffian_violations_by_subsets(d: OrientedGraph) -> list[tuple[int, ...]]:
    """The nice even cycles of d's base with an even forward-arc count, sorted.

    Cycles come from vertex subsets, niceness from the edge subsets of
    the remainder, and the forward arcs are counted around the cycle.
    """
    g = d.base
    found = []
    for size in range(4, g.n + 1, 2):
        for subset in itertools.combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in subset]
            if not matching_count_by_edge_subsets(induced_subgraph(g, rest)):
                continue
            for c in hamiltonian_cycles(g, subset):
                forward = sum(1 for i in range(size) if (c[i], c[(i + 1) % size]) in d.arcs)
                if forward % 2 == 0:
                    found.append(c)
    return sorted(found)


# ---------------------------------------------------------------------------
# oracle: the exhaustive scan over every simple cycle
# ---------------------------------------------------------------------------

def enumerate_cycles(g: Graph, max_vertices: int = 24) -> list[CycleSeq]:
    """Every simple cycle of g exactly once (up to rotation/reflection),
    in lexicographic order.

    Each cycle is reported starting at its smallest vertex, traversed
    toward its smaller neighbor on the cycle.  DFS grows paths whose
    interior vertices all exceed the start vertex, so no cycle repeats.
    Iterative, so the depth is not bounded by Python's recursion limit.
    Exponential in general; graphs above max_vertices raise SizeLimitError.
    """
    if g.n > max_vertices:
        raise SizeLimitError(f"cycle scan: {g.n} vertices > limit {max_vertices}")
    adj = g.adjacency
    cycles: list[CycleSeq] = []
    for s in range(g.n):
        path = [s]
        onpath = 1 << s
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif w > s and not (onpath >> w) & 1:
                    path.append(w)
                    onpath |= 1 << w
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                onpath &= ~(1 << path.pop())
    return cycles


def pfaffian_scan(d: OrientedGraph, max_vertices: int = 24) -> tuple[int, list[CycleSeq]]:
    """(number of nice even cycles, the violations among them in enumerate_cycles
    order) of d's base: every cycle is scanned, and an even one is nice when
    its remainder has a perfect matching by count_by_backtracking."""
    nice = [c for c in enumerate_cycles(d.base, max_vertices)
            if len(c) % 2 == 0 and count_by_backtracking(d.base, excluding=c) > 0]
    violations = [c for c in nice
                  if sum((u, v) in d.arcs for u, v in zip(c, c[1:] + c[:1])) % 2 == 0]
    return len(nice), violations


# ---------------------------------------------------------------------------
# oracle: perfect matchings via edge subsets
# ---------------------------------------------------------------------------

def matching_count_by_edge_subsets(g: Graph) -> int:
    if g.n % 2:
        return 0
    total = 0
    for combo in itertools.combinations(sorted(g.edges), g.n // 2):
        seen: set[int] = set()
        for u, v in combo:
            if u in seen or v in seen:
                break
            seen.update((u, v))
        else:
            total += 1
    return total


def count_by_backtracking(g: Graph, excluding=()) -> int:
    """Perfect matchings of g minus `excluding` by plain backtracking: match
    the lowest-index free vertex to each free neighbour, one call per
    partial matching, where count_perfect_matchings shares states."""
    free = (1 << g.n) - 1
    for v in excluding:
        free &= ~(1 << v)
    if bin(free).count("1") % 2:
        return 0
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

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


def matchings_by_size(g: Graph) -> list[int]:
    """counts[k] = number of k-edge matchings of g (counts[0] is always 1).

    Enumerates edge subsets with disjointness pruning; meant for the
    coefficient cross-checks on small graphs, not for large inputs.
    """
    edges = sorted(g.edges)
    counts = [0] * (g.n // 2 + 1)

    def rec(i: int, covered: int, size: int) -> None:
        if i == len(edges):
            counts[size] += 1
            return
        rec(i + 1, covered, size)
        u, v = edges[i]
        bits = (1 << u) | (1 << v)
        if not covered & bits:
            rec(i + 1, covered | bits, size + 1)

    rec(0, 0, 0)
    return counts


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    host: Graph
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        covered: set[int] = set()
        for u, v in self.edges:
            if (min(u, v), max(u, v)) not in self.host.edges:
                raise ValueError(f"matching edge ({u}, {v}) is not in the host graph")
            if u in covered or v in covered:
                raise ValueError(f"matching edges share vertex on ({u}, {v})")
            covered.update((u, v))

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.host.n


def doubling_matching(base: Graph) -> Matching:
    """The left-right rung matching of P_2 x base (always perfect)."""
    product = cartesian_product(path_graph(2), base)
    return Matching(host=product, edges=frozenset((j, base.n + j) for j in range(base.n)))


def induced_subgraph(g: Graph, keep: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(keep)}
    kset = set(keep)
    edges = [(index[u], index[v]) for u, v in g.edges if u in kset and v in kset]
    return Graph.from_edges(len(keep), edges)


def cuthill_mckee_order(g: Graph) -> list[int]:
    """The Cuthill-McKee order: breadth-first over every component, each
    from its unvisited vertex of least (degree, label), each vertex
    queueing its unvisited neighbours sorted by (degree, label).  Plain
    sets and a deque, with every neighbour list sorted on the spot, so it
    shares nothing with the package's searches; the brute-force sweep
    walks this order reversed (reverse Cuthill-McKee)."""
    neighbours: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)

    def key(v: int) -> tuple[int, int]:
        return len(neighbours[v]), v

    order: list[int] = []
    visited: set[int] = set()
    for start in sorted(neighbours, key=key):
        if start in visited:
            continue
        visited.add(start)
        queue = collections.deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(neighbours[v] - visited, key=key):
                visited.add(w)
                queue.append(w)
    return order


# ---------------------------------------------------------------------------
# oracle: grid dimer counts via broken-profile dynamic programming
# ---------------------------------------------------------------------------

def grid_tilings(m: int, n: int) -> int:
    """Domino tilings of the m x n grid, column by column.

    Profiles live on the smaller side (transposing the grid is a graph
    isomorphism), keeping the table at 2^min(m, n) entries.
    """
    if (m * n) % 2:
        return 0
    if m > n:
        m, n = n, m

    def transitions(incoming: int) -> list[int]:
        outs: list[int] = []

        def go(row: int, out: int) -> None:
            if row == m:
                outs.append(out)
                return
            if (incoming >> row) & 1:
                go(row + 1, out)
            else:
                go(row + 1, out | (1 << row))  # horizontal domino into the next column
                if row + 1 < m and not (incoming >> (row + 1)) & 1:
                    go(row + 2, out)  # vertical domino inside this column

        go(0, 0)
        return outs

    table = {profile: transitions(profile) for profile in range(1 << m)}
    dp = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for profile, ways in dp.items():
            for out in table[profile]:
                nxt[out] = nxt.get(out, 0) + ways
        dp = nxt
    return dp.get(0, 0)


def lattice_log_product(n: int) -> float:
    """log of the Narumi-Hosoya product prod_{k<=n} [2 + 4 cos^2(k pi/(n+1))],
    the number of perfect matchings of the 2 x 2 x n lattice C_4 x P_n,
    summed in log space so that it never overflows."""
    return math.fsum(math.log(2.0 + 4.0 * math.cos(k * math.pi / (n + 1)) ** 2)
                     for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# oracle: determinants by fraction-free elimination and by cofactor
# expansion, resultants as the determinant of a multiplication matrix,
# char polys by interpolation
# ---------------------------------------------------------------------------

def adjacency_matrix(g: Graph) -> IntMatrix:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return a


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination.

    Entries stay integral throughout: after eliminating column k, every
    entry is a (k+1)x(k+1) minor of the original matrix, and the division
    by the previous pivot is exact.  Row swaps flip the sign.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise PreconditionError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * row_k[k] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def norm_by_multiplication_matrix(q: IntPolynomial, p: IntPolynomial) -> int:
    """prod p(rho) over the roots of the monic q, as the determinant of
    multiplication by p on Z[y]/(q): its rows are p, y*p, ...,
    y^(d-1)*p reduced modulo q, d = deg q (1 for d = 0)."""
    d = len(q) - 1
    return det_bareiss([poly_remainder([0] * i + list(p), q) for i in range(d)])


def skew_adjacency(d: OrientedGraph) -> IntMatrix:
    """The dense skew adjacency matrix: entry (u, v) is 1 iff the arc u->v
    exists and -1 iff v->u does; the oracle input for det_bareiss."""
    a = [[0] * d.n for _ in range(d.n)]
    for u, v in d.arcs:
        a[u][v] = 1
        a[v][u] = -1
    return a


def det_cofactor(mat: list[list[int]]) -> int:
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det_cofactor(minor)
    return total


def pfaffian_by_expansion(mat: list[list[int]]) -> int:
    """Pf of a skew-symmetric matrix by expansion along the first row:
    Pf(A) = sum over j > 0 of (-1)^(j+1) a_0j Pf(A without rows and
    columns 0 and j); 1 for the empty matrix, 0 for odd order."""
    n = len(mat)
    if n == 0:
        return 1
    if n % 2:
        return 0
    total = 0
    for j in range(1, n):
        if mat[0][j]:
            keep = [k for k in range(1, n) if k != j]
            minor = [[mat[r][c] for c in keep] for r in keep]
            total += (-1) ** (j + 1) * mat[0][j] * pfaffian_by_expansion(minor)
    return total


def char_poly_by_interpolation(mat: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - A), constant first, via n+1 exact evaluations."""
    n = len(mat)
    points = []
    for k in range(n + 1):
        shifted = [[(k if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)]
        points.append((k, det_cofactor(shifted)))
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            new = [Fraction(0)] * (len(term) + 1)
            for p, c in enumerate(term):
                new[p] -= c * xj
                new[p + 1] += c
            term = new
            denom *= xi - xj
        for p, c in enumerate(term):
            coeffs[p] += c / denom
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


# ---------------------------------------------------------------------------
# oracle: dense matrix polynomials and the Faddeev-LeVerrier char poly
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    bt = list(zip(*b))  # column access by row of the transpose
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _char_poly_leverrier(a: IntMatrix) -> IntPolynomial:
    """det(xI - A) by Faddeev-LeVerrier; exact for integer matrices."""
    n = len(a)
    mat = identity_matrix(n)
    coeffs_high = [1]  # x^n downwards
    for k in range(1, n + 1):
        am = mat_mul(a, mat)
        trace = sum(am[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        if rem:  # cannot happen for integer input; guards against misuse
            raise ValueError("Faddeev-LeVerrier division was inexact; non-integer input?")
        coeffs_high.append(c)
        for i in range(n):
            am[i][i] += c
        mat = am
    return list(reversed(coeffs_high))


def _poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def rooted_traversal(t: Graph) -> tuple[list[list[int]], list[int]]:
    """(children, postorder) of the tree t rooted at 0, built from t.parent
    alone, so the oracles below share no traversal with the package's
    folds: child lists by one scan of the parent array, postorder by a
    depth-first walk of (vertex, next child) frames."""
    tree: Tree = validate_tree(t)
    kids: list[list[int]] = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent):
        if p is not None:
            kids[p].append(v)
    order: list[int] = []
    frames = [[tree.root, 0]]
    while frames:
        v, i = frames[-1]
        if i < len(kids[v]):
            frames[-1][1] += 1
            frames.append([kids[v][i], 0])
        else:
            order.append(frames.pop()[0])
    return kids, order


def char_poly_tree(t: Graph) -> IntPolynomial:
    """det(xI - A) for a tree, by the bridge recurrence over Z[x].

    Joining two graphs by a bridge uv gives

        phi(G1 + G2 + uv) = phi(G1) * phi(G2) - phi(G1 - u) * phi(G2 - v)

    (Godsil, Algebraic Combinatorics, ch. 1).  Each vertex v keeps the
    pair (p, q) = (phi of its subtree so far, phi of that subtree minus
    v), starts from (x, 1) and folds in its children one at a time:
    p, q = p * p_c - q * q_c, q * p_c.  Coefficients are returned
    constant first and alternate in sign: x^n - a1 x^(n-2) + a2 x^(n-4) - ...
    O(n^2) big-integer work: the whole polynomial, which the package's
    fold (psi_tree_mod) never forms.
    """
    children, postorder = rooted_traversal(t)
    p: list[IntPolynomial] = [[] for _ in range(t.n)]
    q: list[IntPolynomial] = [[] for _ in range(t.n)]
    for v in postorder:
        pv, qv = [0, 1], [1]
        for c in children[v]:
            pv, minus, qv = _poly_mul(pv, p[c]), _poly_mul(qv, q[c]), _poly_mul(qv, p[c])
            for j, mj in enumerate(minus):  # minus has the lower degree
                pv[j] -= mj
        p[v], q[v] = pv, qv
    return p[0]


def poly_remainder(p: IntPolynomial, m: IntPolynomial) -> IntPolynomial:
    """p modulo the monic m by schoolbook long division, padded to deg m coefficients."""
    dm = len(m) - 1
    r = list(p) + [0] * max(0, dm - len(p))
    for k in range(len(r) - 1, dm - 1, -1):
        c = r.pop()
        for j in range(dm):
            r[k - dm + j] -= c * m[j]
    return r


def p3_form_by_matchings(t: Graph) -> int:
    """|psi_T(-2)|, the P_3 x T form, as the weighted matching count sum_k m_k 2^(h-k).

    For a tree phi_T(x) = sum_k (-1)^k m_k x^(n-2k), m_k the k-edge
    matchings and h = floor(n/2), so |psi_T(-2)| needs no polynomial: a
    postorder dynamic program sums 2^(size - k) over the matchings of
    each subtree, split by whether its root is matched, in O(n) steps.
    """
    children, postorder = rooted_traversal(t)
    free = [0] * t.n    # root of the subtree left unmatched
    taken = [0] * t.n   # root of the subtree matched to a child
    for v in postorder:
        f, m = 2, 0
        for c in children[v]:
            both = free[c] + taken[c]
            # matching v to c adds an edge: one factor 2 fewer (f and free[c] are even)
            f, m = f * both, m * both + f * free[c] // 2
        free[v], taken[v] = f, m
    return (free[0] + taken[0]) >> (t.n - t.n // 2)


def skew_char_poly(d: OrientedGraph) -> IntPolynomial:
    """det(xI - A(T^e)) for an oriented tree, computed from the matrix itself.

    Independent of char_poly_tree on purpose: the two are compared in
    tests (the skew coefficients equal the absolute values of the tree's
    characteristic-polynomial coefficients, for any orientation).
    """
    validate_tree(d.base)
    return _char_poly_leverrier(skew_adjacency(d))


def eval_matrix_poly(a: IntMatrix, coeffs: list[int]) -> IntMatrix:
    """Horner evaluation of sum coeffs[k] * a^k, with a^0 the identity."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix polynomial evaluation needs a square matrix")
    result = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        result = mat_mul(result, a)
        for i in range(n):
            result[i][i] += c
    return result


# ---------------------------------------------------------------------------
# oracle: primality by certificate (the package uses Miller-Rabin)
# ---------------------------------------------------------------------------

def _rho_factor(m: int) -> int:
    """A nontrivial factor of the odd composite m, by Pollard's rho."""
    for c in itertools.count(1):
        x = y = 2
        f = 1
        while f == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            f = math.gcd(x - y, m)
        if f != m:
            return f
    raise AssertionError("unreachable")


def prime_factors(m: int) -> set[int]:
    """The distinct prime factors of m >= 1, each proven prime."""
    found = set()
    for q in range(2, 1000):
        while m % q == 0:
            found.add(q)
            m //= q
    stack = [m] if m > 1 else []
    while stack:
        x = stack.pop()
        if is_prime_by_certificate(x):
            found.add(x)
        else:
            f = _rho_factor(x)
            stack += [f, x // f]
    return found


def is_prime_by_certificate(p: int) -> bool:
    """Lucas's test: p is prime iff some a has multiplicative order p - 1.

    The order is checked against every prime factor of p - 1, which are
    themselves proven the same way (a Pratt certificate), so a True is a
    proof and not a probable answer.  Small p use trial division.
    """
    if p < 1 << 20:
        return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))
    factors = None
    for a in itertools.count(2):
        if math.gcd(a, p) > 1 or pow(a, p - 1, p) != 1:
            return False
        factors = factors or prime_factors(p - 1)
        if all(pow(a, (p - 1) // q, p) != 1 for q in factors):
            return True
    raise AssertionError("unreachable")
