"""Exact expected answers, computed without any pfmatch code.

Every route here is a different algorithm from the one the benchmark
times, so a wrong count from pfmatch cannot also be the expected count:

- products F x T (F a path or a 4-cycle, T a tree) by a dynamic program
  over the tree whose state is the set of rows of a column left for the
  parent column (`product_count`);
- the same products from the tree's matching numbers m_k, counted by a
  second tree recursion, through the closed forms (`closed_form_counts`);
  the two routes must agree wherever both apply;
- grids by a broken-profile dynamic program up to a side of 14, and
  above that by Kasteleyn's product carried to 60 more digits than the
  count has, whose distance to the nearest integer must stay below 1e-30;
- cycles of small graphs by Hamiltonian cycles of every vertex subset.

Only `grid_count` needs a package outside the standard library
(`mpmath`, for sides above 14), and only the orchestrating process
imports it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

Edge = tuple[int, int]


class OracleError(Exception):
    """Two independent routes disagreed: the expected answer is unknown."""


# ---------------------------------------------------------------------------
# small graph helpers (the oracle's own, never pfmatch's)
# ---------------------------------------------------------------------------

def neighbours(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def rooted_children(n: int, edges, root: int = 0) -> tuple[list[int], list[list[int]]]:
    """(vertices in DFS preorder, children lists) of a tree rooted at root."""
    adj = neighbours(n, edges)
    order, kids = [], [[] for _ in range(n)]
    seen = [False] * n
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                kids[v].append(w)
                stack.append(w)
    if len(order) != n:
        raise OracleError("oracle input is not a connected tree")
    return order, kids


def tree_has_perfect_matching(n: int, edges) -> bool:
    """Greedy leaf matching: a tree has a perfect matching iff it never fails."""
    order, kids = rooted_children(n, edges)
    matched = [False] * n
    for v in reversed(order):
        if matched[v]:
            continue
        free_kids = [c for c in kids[v] if not matched[c]]
        if len(free_kids) > 1:
            return False
        if free_kids:
            matched[v] = matched[free_kids[0]] = True
    return all(matched)


# ---------------------------------------------------------------------------
# route 1: column dynamic program over the tree
# ---------------------------------------------------------------------------

def _factor_edges(factor: str, m: int) -> list[Edge]:
    edges = [(i, i + 1) for i in range(m - 1)]
    if factor == "cycle":
        edges.append((0, m - 1))
    return edges


def _column_matchings(m: int, fedges: list[Edge]) -> list[int]:
    """pm[W] = perfect matchings of the factor induced on row set W."""
    nbr = [0] * m
    for u, v in fedges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    pm = [0] * (1 << m)
    pm[0] = 1
    for w in range(1, 1 << m):
        low = (w & -w).bit_length() - 1
        rest = w & ~(1 << low)
        choices = nbr[low] & rest
        total = 0
        while choices:
            bit = choices & -choices
            choices ^= bit
            total += pm[rest & ~bit]
        pm[w] = total
    return pm


def product_count(factor: str, m: int, n: int, edges) -> int:
    """Perfect matchings of F x T, F = path or cycle on m rows, T a tree.

    g[v][D] counts matchings of the columns of v's subtree in which the
    rows D of v's column are left over, to be matched along the tree edge
    to the parent's column.  Rows of a column not taken by a child or by
    the parent are matched inside the column along F.
    """
    full = (1 << m) - 1
    pm = _column_matchings(m, _factor_edges(factor, m))
    order, kids = rooted_children(n, edges)
    g: list[list[int]] = [[] for _ in range(n)]
    for v in reversed(order):
        used = {0: 1}  # rows of v already matched down to a child
        for c in kids[v]:
            gc = g[c]
            nxt: dict[int, int] = {}
            for x, ways in used.items():
                free = full & ~x
                d = free
                while True:  # every d subset of free
                    if gc[d]:
                        nxt[x | d] = nxt.get(x | d, 0) + ways * gc[d]
                    if d == 0:
                        break
                    d = (d - 1) & free
            used = nxt
            g[c] = []  # free the child's table
        gv = [0] * (1 << m)
        for x, ways in used.items():
            free = full & ~x
            d = free
            while True:
                inside = free & ~d
                if pm[inside]:
                    gv[d] += ways * pm[inside]
                if d == 0:
                    break
                d = (d - 1) & free
        g[v] = gv
    return g[order[0]][0]


# ---------------------------------------------------------------------------
# route 2: matching numbers of the tree plus the closed forms
# ---------------------------------------------------------------------------

def matching_numbers(n: int, edges) -> list[int]:
    """m[k] = number of k-edge matchings of the tree (m[0] = 1)."""

    def mul(p: list[int], q: list[int]) -> list[int]:
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    out[i + j] += a * b
        return out

    def add(p: list[int], q: list[int]) -> list[int]:
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, b in enumerate(q):
            out[i] += b
        return out

    order, kids = rooted_children(n, edges)
    free: list[list[int]] = [[] for _ in range(n)]   # v left unmatched
    taken: list[list[int]] = [[] for _ in range(n)]  # v matched to a child
    for v in reversed(order):
        unmatched, matched = [1], [0]
        for c in kids[v]:
            either = add(free[c], taken[c])
            matched = add(mul(matched, either), [0] + mul(unmatched, free[c]))
            unmatched = mul(unmatched, either)
        free[v], taken[v] = unmatched, matched
    total = add(free[order[0]], taken[order[0]])
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return total


def _quadratic_norm(poly_high_first: list[int]) -> int:
    """prod over the roots y of y^2 + 3y + 1 of the given polynomial at y.

    The roots are (-3 +- sqrt 5) / 2; the value at one root is a + b sqrt 5
    with rational a, b, and the product of the two conjugates is
    a^2 - 5 b^2, an integer.
    """
    ya, yb = Fraction(-3, 2), Fraction(1, 2)
    a, b = Fraction(0), Fraction(0)
    for c in poly_high_first:  # Horner in Q(sqrt 5)
        a, b = a * ya + 5 * b * yb + c, a * yb + b * ya
    value = a * a - 5 * b * b
    if value.denominator != 1:
        raise OracleError("norm in Q(sqrt 5) is not an integer")
    return int(value)


def closed_form_counts(n: int, edges) -> dict[str, int]:
    """Counts of P2 x T, C4 x T, P4 x T, and P3 x T when T is matched.

    With half = n // 2 and s = sum_k m_k 2^(half - k):
      P2 x T = sum_k m_k              (det(I + A^2) = Z^2)
      C4 x T = 2^(n mod 2) * s^2      (det(2I + A^2))
      P3 x T = s                      (matched trees only)
      P4 x T = Psi(y1) Psi(y2), Psi(y) = sum_k (-1)^k m_k y^(half - k),
               y1, y2 the roots of y^2 + 3y + 1.
    """
    mk = matching_numbers(n, edges)
    half = n // 2
    mk = mk + [0] * (half + 1 - len(mk))
    s = sum(c << (half - k) for k, c in enumerate(mk))
    counts = {
        "p2": sum(mk),
        "c4": (2 ** (n % 2)) * s * s,
        "p4": _quadratic_norm([(-1) ** k * c for k, c in enumerate(mk)]),
    }
    if tree_has_perfect_matching(n, edges):
        counts["p3"] = s
    return counts


def tree_product_count(kind: str, n: int, edges) -> int:
    """F x T for kind c4, p2, p3, p4 or pm:M, by route 1, checked by route 2."""
    if kind == "c4":
        factor, m = "cycle", 4
    else:
        factor, m = "path", int(kind[3:] if kind.startswith("pm:") else kind[1:])
    count = product_count(factor, m, n, edges)
    closed = closed_form_counts(n, edges).get(kind)
    if closed is not None and closed != count:
        raise OracleError(f"{kind} x T: column DP {count} != closed form {closed}")
    return count


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def grid_profile_count(m: int, n: int) -> int:
    """Domino tilings of m x n, cell by cell with a broken profile."""
    if (m * n) % 2:
        return 0
    if m > n:
        m, n = n, m
    size = 1 << m
    dp = [0] * size
    dp[0] = 1
    for _ in range(n):
        for row in range(m):
            bit = 1 << row
            nxt = [0] * size
            for profile, ways in enumerate(dp):
                if not ways:
                    continue
                if profile & bit:  # filled from the previous column
                    nxt[profile & ~bit] += ways
                    continue
                nxt[profile | bit] += ways  # horizontal domino sticking out
                if row + 1 < m and not profile & (bit << 1):
                    nxt[profile | (bit << 1)] += ways  # vertical domino
            dp = nxt
    return dp[0]


def grid_kasteleyn_count(m: int, n: int) -> int:
    """Kasteleyn's product for even sides, in enough digits to round safely.

    For even m and n the count is
        prod_{k <= m/2} prod_{l <= n/2} (4 cos^2(pi k/(m+1)) + 4 cos^2(pi l/(n+1))),
    evaluated with 60 more significant digits than the count has; the
    value must then lie within 1e-30 of an integer.
    """
    import mpmath  # only this route needs it

    if m % 2 or n % 2:
        raise OracleError("the Kasteleyn route here needs two even sides")
    digits = math.ceil(sum(
        math.log10(4 * math.cos(math.pi * k / (m + 1)) ** 2 + 4 * math.cos(math.pi * l / (n + 1)) ** 2)
        for k in range(1, m // 2 + 1)
        for l in range(1, n // 2 + 1)
    ))
    with mpmath.workdps(digits + 60):
        rows = [4 * mpmath.cos(mpmath.pi * k / (m + 1)) ** 2 for k in range(1, m // 2 + 1)]
        cols = [4 * mpmath.cos(mpmath.pi * l / (n + 1)) ** 2 for l in range(1, n // 2 + 1)]
        value = mpmath.fprod(r + c for r in rows for c in cols)
        rounded = int(mpmath.nint(value))
        if abs(value - rounded) > mpmath.mpf(10) ** -30:
            raise OracleError(f"{m} x {n}: Kasteleyn product is not near an integer")
    return rounded


def grid_count(m: int, n: int) -> int:
    if min(m, n) > 14 and m % 2 == 0 and n % 2 == 0:
        return grid_kasteleyn_count(m, n)
    return grid_profile_count(m, n)


# ---------------------------------------------------------------------------
# cycles and Pfaffian violations of small graphs
# ---------------------------------------------------------------------------

def canonical_cycle(cycle) -> tuple[int, ...]:
    """Start at the smallest vertex, go toward its smaller cycle neighbour."""
    k = len(cycle)
    i = cycle.index(min(cycle))
    forward = tuple(cycle[(i + j) % k] for j in range(k))
    backward = tuple(cycle[(i - j) % k] for j in range(k))
    return forward if forward[1] < backward[1] else backward


def cycles_by_subsets(n: int, edges) -> list[tuple[int, ...]]:
    """Every simple cycle, once, from Hamiltonian cycles of vertex subsets."""
    adj = [set(a) for a in neighbours(n, edges)]
    found = []
    for size in range(3, n + 1):
        for subset in itertools.combinations(range(n), size):
            members = set(subset)
            start = subset[0]

            def walk(path: list[int]) -> None:
                v = path[-1]
                if len(path) == size:
                    if start in adj[v] and path[1] < path[-1]:
                        found.append(tuple(path))
                    return
                for w in adj[v]:
                    if w in members and w not in path:
                        path.append(w)
                        walk(path)
                        path.pop()

            walk([start])
    return found


def _has_perfect_matching(n: int, adj: list[set[int]], removed: set[int]) -> bool:
    alive = [v for v in range(n) if v not in removed]
    return len(alive) % 2 == 0 and 2 * _max_matching_size(alive, adj) == len(alive)


def _max_matching_size(alive: list[int], adj: list[set[int]]) -> int:
    """Maximum matching by exhaustive search over edge choices (small graphs)."""
    order = sorted(alive)
    index = {v: i for i, v in enumerate(order)}
    memo: dict[int, int] = {}

    def best(free: int) -> int:
        if free == 0:
            return 0
        if free in memo:
            return memo[free]
        low = (free & -free).bit_length() - 1
        v = order[low]
        rest = free & ~(1 << low)
        result = best(rest)
        for w in adj[v]:
            if w in index and (rest >> index[w]) & 1:
                result = max(result, 1 + best(rest & ~(1 << index[w])))
        memo[free] = result
        return result

    return best((1 << len(order)) - 1)


def pfaffian_violations(n: int, arcs) -> list[tuple[int, ...]]:
    """Nice even cycles traversed with an even number of forward arcs."""
    arcset = set(arcs)
    edges = [(min(u, v), max(u, v)) for u, v in arcs]
    adj = [set(a) for a in neighbours(n, edges)]
    bad = []
    for cycle in cycles_by_subsets(n, edges):
        k = len(cycle)
        if k % 2 or not _has_perfect_matching(n, adj, set(cycle)):
            continue
        forward = sum((cycle[i], cycle[(i + 1) % k]) in arcset for i in range(k))
        if forward % 2 == 0:
            bad.append(canonical_cycle(cycle))
    return sorted(bad)


# ---------------------------------------------------------------------------
# products and the documented orientation constructions
# ---------------------------------------------------------------------------

def layer_major_product(fn: int, fedges, hn: int, hedges) -> list[Edge]:
    """Edges of F x H with vertex (i, j) numbered i * |H| + j, sorted."""
    out = [(i * hn + u, i * hn + v) for i in range(fn) for u, v in hedges]
    out += [(i * hn + j, k * hn + j) for i, k in fedges for j in range(hn)]
    return sorted((min(u, v), max(u, v)) for u, v in out)


def c4_tree_arcs(n: int, tree_arcs) -> list[Edge]:
    """Arcs of the C4 x T orientation built by doubling the doubling.

    One doubling of an orientation D on N vertices keeps D on the left
    copy, reverses it on the right copy (shifted by N) and directs every
    rung j -> N + j.
    """

    def double(size: int, arcs) -> list[Edge]:
        out = [(u, v) for u, v in arcs]
        out += [(size + v, size + u) for u, v in arcs]
        out += [(j, size + j) for j in range(size)]
        return out

    return sorted(double(2 * n, double(n, tree_arcs)))


# ---------------------------------------------------------------------------
# expected CLI responses
# ---------------------------------------------------------------------------

#: The CLI's documented default vertex guard for brute-force counting.
BRUTE_GUARD = 40


def answer(expect: dict, tree: tuple[int, list] | None) -> dict:
    """Expected exit code and JSON fields of one request.

    The exit code follows the CLI's documented routes: `auto` takes a
    closed form or a proven Pfaffian orientation where one applies (C4,
    P2, P4, and P3 on a matched tree), else brute force, which exits 4
    above BRUTE_GUARD vertices; `pfaffian` exits 3 where no proven
    orientation applies.
    """
    kind = expect["kind"]
    if kind == "product":
        n, edges = tree
        factor = expect["factor"]
        rows = 4 if factor == "c4" else int(factor[3:] if factor.startswith("pm:") else factor[1:])
        proven = factor in ("c4", "p2", "p4") or (factor == "p3" and tree_has_perfect_matching(n, edges))
        method = expect["method"]
        if method == "pfaffian" and not proven:
            return {"exit": 3}
        if (method == "brute" or (method == "auto" and not proven)) and rows * n > BRUTE_GUARD:
            return {"exit": 4}
        return {"exit": 0, "count": str(tree_product_count(factor, n, edges))}
    if kind == "grid":
        return {"exit": 0, "count": str(grid_count(expect["m"], expect["n"]))}
    if kind == "identities":
        n, edges = tree
        return {"exit": 0, "count": str(tree_product_count("c4", n, edges)), "violations": []}
    if kind == "pfaffian-pass":  # the constructions are Pfaffian by theorem
        return {"exit": 0, "violations": []}
    if kind == "pfaffian-violations":
        bad = pfaffian_violations(expect["n"], [tuple(a) for a in expect["arcs"]])
        return {"exit": 5 if bad else 0, "violations": [list(c) for c in bad]}
    if kind == "product-edges":
        n, edges = tree
        m = expect["m"]
        edges_out = layer_major_product(m, _factor_edges(expect["factor"], m), n, edges)
        return {"exit": 0, "edges": [f"{u} {v}" for u, v in edges_out], "vertices": m * n}
    if kind == "orient-c4":
        n, edges = tree
        arcs = c4_tree_arcs(n, [(min(u, v), max(u, v)) for u, v in edges])
        return {"exit": 0, "arcs": [f"{u} -> {v}" for u, v in arcs]}
    raise OracleError(f"unknown expectation kind {kind!r}")
