"""Perfect-matching counts: brute force, Pfaffians, closed forms.

Every closed form here is one eigenvalue product over the spectrum of a
tree T, evaluated exactly from its characteristic polynomial
phi_T(x) = x^e * psi_T(x^2), e = n mod 2 (the spectrum is symmetric
about zero).  With root_product(q, p), the product of p over the roots
of a monic q, and q_s(y) = sum_k C(s-k, k) y^(d-k), d = floor(s/2), whose
roots are -r^2 for the positive eigenvalues r of the path P_s:

    P_s x T  =  |root_product(q_s, psi_T)|

This counts P_2 x T (q_2 = y + 1), P_3 x T (q_3 = y + 2; T needs a
perfect matching), P_4 x T (q_4 = y^2 + 3y + 1) and the m x n grid
(T = P_L).  C_4 x T is 2^e * (P_3 x T form)^2 for every tree, and the
2 x 2 x n lattice is its case T = P_n.  psi_T is only ever known modulo
q_s: psi_tree_mod folds the tree in Z[y]/(q_s) in O(n) ring operations
of degree d.  For P_2, P_3 and C_4 (d = 1) they are integer operations,
so those counts are one evaluation psi_T(y0) at the root y0 of q_s; for
P_4, P_5 and grids with a side of 4 or 5 (d = 2) the elements are
integer pairs, and for d >= 3 they are lists.
No closed form takes a square root or rounds a float.  The trigonometric
products of the lattice and the grid are cross-checks, evaluated in log
space with explicit tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .brute import count_perfect_matchings
from .errors import (
    InvalidSizeError,
    NotSquarishError,
    NumericalConsistencyError,
    PreconditionError,
    SizeLimitError,
)
from .exactlinalg import abs_pfaffian, psi_tree_mod, root_product
from .graphs import (
    Graph,
    OrientedGraph,
    cartesian_product,
    cycle_graph,
    path_graph,
    tree_has_perfect_matching,
    validate_tree,
)
from .orientation import orient_c4_tree, orient_layered, orient_lexicographic

#: Vertex guard of every brute-force route: the counted graph, product
#: or grid may have at most this many vertices.  No parameter or flag
#: changes it.
DEFAULT_BRUTE_GUARD = 40

#: Guard for the grid's closed form on sides s <= L: s * L * (s + L/5000)
#: may not exceed it.  s^2 L follows the norm, a resultant of degree s/2
#: whose subresultant sequence takes about s^2 / 4 products of numbers
#: of up to about s L bits; s L^2 / 5000 follows the fold along the
#: long path, L shifts of s/2 operations on numbers of up to about L
#: bits.  At the limit 40 x 2164 and 100 x 349 take about 0.5 s,
#: 2 x 88674 about 0.3 s and 150 x 150 about 0.12 s (best of 3, Python
#: 3.11 on a shared 2-core host).
DEFAULT_GRID_GUARD = 3_500_000


@dataclass(frozen=True)
class CountResult:
    """A matching count plus how it was obtained.

    method is one of: brute | pfaffian | formula-c4t | formula-p2t |
    formula-p3t | formula-p4t | kasteleyn-grid.
    dimension is the vertex count the route worked on: the graph's for
    brute and pfaffian, the tree's for the tree formulas, None for the
    grid's closed form.  float_estimate carries the value of the grid's
    trigonometric product, or None where that value overflows a float.
    """

    count: int
    method: str
    dimension: Optional[int] = None
    float_estimate: Optional[float] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.count < 0:
            raise PreconditionError("matching counts are non-negative")


@dataclass(frozen=True)
class SquarishDecomposition:
    """v written as factor * root**2 with factor 1 (square) or 2 (double one)."""

    factor: int
    root: int

    def __post_init__(self) -> None:
        if self.factor not in (1, 2) or self.root < 0:
            raise PreconditionError("a squarish value is 1 or 2 times a non-negative root squared")

    @property
    def value(self) -> int:
        return self.factor * self.root * self.root


def _check_brute_guard(n: int) -> None:
    if n > DEFAULT_BRUTE_GUARD:
        raise SizeLimitError(f"brute-force guard: {n} vertices > limit {DEFAULT_BRUTE_GUARD}")


# Routes: each returns a CountResult, or a string saying why it does not apply.

def _brute(g: Graph) -> CountResult:
    """Exact count by enumerating matchings, with no linear algebra.

    count_perfect_matchings matches the lowest free vertex to each free
    neighbour, as a forward dynamic program over free-vertex masks in
    reverse Cuthill-McKee order.  Graphs above DEFAULT_BRUTE_GUARD
    vertices raise SizeLimitError, and so does a sweep that would create
    more than DEFAULT_BRUTE_STATE_GUARD states.
    """
    _check_brute_guard(g.n)
    return CountResult(count=count_perfect_matchings(g), method="brute", dimension=g.n)


def _pfaffian(d: OrientedGraph) -> CountResult:
    """Count d.base as |Pf| of the skew adjacency matrix of its Pfaffian orientation d.

    The caller vouches for Pfaffian-ness (check_pfaffian can verify it at
    desk scale); a non-Pfaffian orientation gives an undercount, as its
    perfect matchings cancel in the Pfaffian.  abs_pfaffian(d) computes |Pf|
    exactly, by sparse elimination modulo 256-bit Proth primes (one
    elimination up to about 500 vertices) and the Chinese remainder
    theorem; a graph whose eliminations would do more work than
    DEFAULT_PFAFFIAN_UPDATE_GUARD raises SizeLimitError within the first
    of them.
    """
    note = "odd vertex count" if d.n % 2 else ""
    return CountResult(count=abs_pfaffian(d), method="pfaffian", dimension=d.n, note=note)


def _path_product(s: int, t: Graph) -> int:
    """|root_product(q_s, psi_T)|, the closed form of P_s x T.

    psi comes from phi(x) = x^e * psi(x^2) for the tree T and the path
    P_s.  q_s(y) = (-1)^floor(s/2) * psi_{P_s}(-y) = sum_k C(s-k, k) y^(d-k),
    d = floor(s/2), is monic, with a root -r^2 for each positive
    eigenvalue r of P_s, so the value is the product of |psi_T(-r^2)|
    over those r.  psi_T itself is never formed: psi_tree_mod returns
    psi_T mod q_s, which has the same root product.  For s = 2 and 3,
    q_s = y + s - 1 and the value is the integer |psi_T(1 - s)|; for
    s = 1, q_1 = 1 has no root and the value is 1.  It counts the perfect
    matchings of P_s x T for s = 2 and 4, for s = 3 when T has a perfect
    matching, and for the grid (T = P_L) when s * L is even.
    """
    d = s // 2
    q_s = [math.comb(s - d + j, d - j) for j in range(d + 1)]
    return abs(root_product(q_s, psi_tree_mod(t, q_s)))


def _proven(m: int, tree: Graph) -> bool:
    """P_3 x T has a closed form and a proven orientation only when T has a perfect matching."""
    return m != 3 or tree_has_perfect_matching(tree)


def _product_formula(kind: str, m: int, tree: Graph) -> CountResult | str:
    """C_4 x T as 2^e * (P_3 x T form)^2, for every tree (the square of
    psi(-2) is det(2I + A^2)); P_m x T as |root_product(q_m, psi)| for
    m = 2 and 4, and for m = 3 when T has a perfect matching (then T has
    no zero eigenvalue, and each eigenvalue pair +-t contributes 2 + t^2
    once); P_3 x T on other trees has no known closed form."""
    if kind == "c4":
        count = 2 ** (tree.n % 2) * _path_product(3, tree) ** 2
        return CountResult(count=count, method="formula-c4t", dimension=tree.n)
    if m in (2, 3, 4) and _proven(m, tree):
        return CountResult(count=_path_product(m, tree), method=f"formula-p{m}t", dimension=tree.n)
    return "no closed form applies to this product/tree combination; try --method brute"


def _product_pfaffian(kind: str, m: int, tree: Graph) -> CountResult | str:
    """|Pf| over a proven orientation on the lexicographic base:
    orient_c4_tree, or orient_layered for m <= 4 (m = 3 again only when T
    has a perfect matching).  Every base gives the same count, as two
    orientations of a tree differ by switching vertex signs."""
    if kind == "c4":
        return _pfaffian(orient_c4_tree(orient_lexicographic(tree)))
    if m <= 4 and _proven(m, tree):
        return _pfaffian(orient_layered(orient_lexicographic(tree), m))
    return "no verified Pfaffian orientation constructor applies here; try --method brute"


def _product_brute(kind: str, m: int, tree: Graph) -> CountResult:
    _check_brute_guard(m * tree.n)  # before the product is built
    factor = cycle_graph(4) if kind == "c4" else path_graph(m)
    return _brute(cartesian_product(factor, tree))


def _cross_check(label: str, log_product: float, exact: int, digits: int) -> Optional[float]:
    """exp(log_product), or None where that overflows a float, if log_product
    lies within 10^-digits of log(exact); NumericalConsistencyError if not."""
    if abs(log_product - math.log(exact)) > 10.0 ** -digits:
        raise NumericalConsistencyError(
            f"{label} log product {log_product!r} is not within 1e-{digits} "
            f"of the log of the exact count {exact}"
        )
    try:
        return math.exp(log_product)
    except OverflowError:
        return None


def _grid_formula(m: int, n: int) -> CountResult:
    """Perfect matchings (dimer coverings) of the m x n grid P_m x P_n.

    Exact: for sides s <= L, the count is the P_s x T closed form with
    T = P_L, |root_product(q_s, psi_L)|.  This is Kasteleyn's product
    halved over the eigenvalue pairs of both paths; the zero eigenvalue
    of an odd side drops out because an even path has |psi(0)| = 1.
    The norm is a resultant of degree s/2, so q comes from the short
    side.  Grids with s * L * (s + L/5000) above DEFAULT_GRID_GUARD raise
    SizeLimitError before any polynomial work.

    Kasteleyn's trigonometric form

        2^(mn/2) * prod_{k<=m} prod_{l<=n}
            (cos^2(pi k/(m+1)) + cos^2(pi l/(n+1)))^(1/4)

    is a cross-check in log space: its log must lie within 1e-6 of
    log(count), or NumericalConsistencyError is raised.  For even m*n
    no factor vanishes (a zero needs both cosines to vanish, which
    requires both sides odd).  float_estimate is the product itself, or
    None once it exceeds the float range.
    """
    if (m * n) % 2:
        return CountResult(count=0, method="kasteleyn-grid", note="odd vertex count")
    short_side, long_side = sorted((m, n))
    if short_side * long_side * (5000 * short_side + long_side) > 5000 * DEFAULT_GRID_GUARD:
        raise SizeLimitError(f"grid guard: {m} x {n} has s*L*(s+L/5000) > {DEFAULT_GRID_GUARD}")
    exact = _path_product(short_side, path_graph(long_side))
    log_total = (m * n / 2.0) * math.log(2.0) + 0.25 * math.fsum(
        math.log(
            math.cos(math.pi * k / (m + 1)) ** 2 + math.cos(math.pi * l / (n + 1)) ** 2
        )
        for k in range(1, m + 1)
        for l in range(1, n + 1)
    )
    return CountResult(count=exact, method="kasteleyn-grid",
                       float_estimate=_cross_check("grid", log_total, exact, 6))


def _grid_brute(m: int, n: int) -> CountResult:
    _check_brute_guard(m * n)  # before the long side's path is built
    return _product_brute("pm", m, path_graph(n))


def _graph_pfaffian(g: Graph, d: Optional[OrientedGraph]) -> CountResult | str:
    if d is None:
        return ("--method pfaffian on a plain graph needs --orient-file "
                "(Pfaffian-ness is the caller's responsibility)")
    return _pfaffian(d) if d.orients(g) else "orientation is not over the given graph"


#: Every counting route: (family, method, run).  run(*request) takes the
#: family's request, (kind, m, tree) for "product", (m, n) for "grid" and
#: (g, d) for "graph".  A forced method takes its family's row; "auto"
#: takes the family's rows in this order and returns the first count.
ROUTES = (
    ("product", "formula", _product_formula),
    ("product", "pfaffian", _product_pfaffian),
    ("product", "brute", _product_brute),
    ("grid", "formula", _grid_formula),
    ("grid", "brute", _grid_brute),
    ("grid", "pfaffian", lambda m, n: "--grid supports auto, formula, or brute; for the Pfaffian"
                                      " route use --product p2/p3/p4 with --tree path:N"),
    ("graph", "brute", lambda g, d: _brute(g)),
    ("graph", "pfaffian", _graph_pfaffian),
    ("graph", "formula", lambda g, d: "no closed form applies to a plain graph; "
                                      "try --method brute"),
)


def _count(family: str, method: str, *request) -> CountResult:
    """The first count of the family's rows that method selects, in table
    order; PreconditionError with the last row's reason if none counts."""
    reason = f"unknown method {method!r}"
    for row_family, row_method, run in ROUTES:
        if row_family == family and method in ("auto", row_method):
            result = run(*request)
            if isinstance(result, CountResult):
                return result
            reason = result
    raise PreconditionError(reason)


def count_product(kind: str, m: int, tree: Graph, method: str = "auto") -> CountResult:
    """Perfect matchings of C_4 x T (kind "c4", m = 4) or P_m x T (kind "pm").

    "auto" takes the first route that applies: the closed form (C_4,
    P_2, P_4, and P_3 when T has a perfect matching); |Pf| over a proven
    orientation (C_4, and P_m for m <= 4 with m = 3 again only when T has
    a perfect matching), reached only by P_1 x T (T itself), as every
    other proven product has a closed form; brute force up to
    DEFAULT_BRUTE_GUARD vertices, checked before the product is built.
    "formula", "pfaffian" and "brute" force one route (PreconditionError
    where it cannot).
    """
    if kind not in ("c4", "pm"):
        raise PreconditionError(f"unknown product kind {kind!r}")
    if (kind == "c4" and m != 4) or m < 1:
        raise InvalidSizeError(f"no {m}-layer product of kind {kind!r}")
    return _count("product", method, kind, m, validate_tree(tree))


def count_grid(m: int, n: int, method: str = "auto") -> CountResult:
    """Perfect matchings of the m x n grid: "auto" and "formula" take the
    closed form with its log-space Kasteleyn cross-check, "brute" brute
    force up to DEFAULT_BRUTE_GUARD vertices, checked before the grid is
    built; no Pfaffian route."""
    if m < 1 or n < 1:
        raise InvalidSizeError(f"need positive grid sides, got {m} x {n}")
    return _count("grid", method, m, n)


def count_graph(g: Graph, method: str = "auto", d: Optional[OrientedGraph] = None) -> CountResult:
    """Perfect matchings of a plain graph: "auto" and "brute" count by
    brute force up to DEFAULT_BRUTE_GUARD vertices, "pfaffian" as |Pf| of
    the caller's orientation d, which must orient g (PreconditionError
    otherwise); no closed form applies."""
    return _count("graph", method, g, d)


def squarish_decompose(v: int) -> SquarishDecomposition:
    """Write v >= 1 as k^2 or 2k^2, or raise NotSquarishError."""
    if v < 1:
        raise PreconditionError(f"need a positive integer, got {v}")
    k = math.isqrt(v)
    if k * k == v:
        return SquarishDecomposition(factor=1, root=k)
    if v % 2 == 0:
        k = math.isqrt(v // 2)
        if 2 * k * k == v:
            return SquarishDecomposition(factor=2, root=k)
    raise NotSquarishError(f"{v} is neither a square nor double a square")


@dataclass(frozen=True)
class IdentityReport:
    """Cross-validation of the product-count identities on a single tree.

    Clauses checked (failures carry the clause name):
      squarish            the C_4 x T count is a square or double a square
      squarish-factor     factor 1 when T has a perfect matching
      square-root         count(P_3 x T)^2 == count(C_4 x T)   [matched T]
      brute-c4 / brute-p3 / brute-p4
                          formula equals brute force on the product graph
                          (run when the product has at most
                          DEFAULT_BRUTE_GUARD vertices)
    The factor is 2^(n mod 2): it follows the parity of the tree's order,
    not its matching, so an even tree without a perfect matching also
    gives a square (the star K_{1,3}: 100 = 10^2).  Only "perfect
    matching => square, with root count(P_3 x T)" is checked.

    Every count comes from count_product: its closed forms, and its
    brute route for the brute-* clauses, the only independent ones.
    squarish, squarish-factor and square-root hold by construction, as
    the C_4 x T closed form is 2^e * (P_3 x T form)^2: they can fail
    only if that arithmetic does.
    """

    tree_vertices: int
    c4_count: int
    factor: int
    root: int
    p3_count: Optional[int]
    p4_count: Optional[int]
    checks: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_identities(t: Graph) -> IdentityReport:
    """Run every applicable identity check on one tree; never raises on failure."""
    tree = validate_tree(t)
    checks: list[str] = []
    failures: list[str] = []

    c4 = count_product("c4", 4, tree, "formula").count
    matched = tree_has_perfect_matching(tree)

    checks.append("squarish")
    factor, root = 0, 0
    try:
        dec = squarish_decompose(c4)
        factor, root = dec.factor, dec.root
    except (NotSquarishError, PreconditionError):  # the latter: c4 < 1
        failures.append("squarish")
    else:
        checks.append("squarish-factor")
        if matched and factor != 1:
            failures.append("squarish-factor")

    p3_count = count_product("pm", 3, tree, "formula").count if matched else None
    if p3_count is not None:
        checks.append("square-root")
        if p3_count * p3_count != c4:
            failures.append("square-root")

    p4_count = count_product("pm", 4, tree, "formula").count

    # one brute-* clause per formula count (P3 only on a matched tree), under the guard
    for clause, kind, m, count in (("brute-c4", "c4", 4, c4), ("brute-p4", "pm", 4, p4_count),
                                   ("brute-p3", "pm", 3, p3_count)):
        if count is not None and m * tree.n <= DEFAULT_BRUTE_GUARD:
            checks.append(clause)
            if count_product(kind, m, tree, "brute").count != count:
                failures.append(clause)

    return IdentityReport(
        tree_vertices=tree.n,
        c4_count=c4,
        factor=factor,
        root=root,
        p3_count=p3_count,
        p4_count=p4_count,
        checks=tuple(checks),
        failures=tuple(failures),
    )
