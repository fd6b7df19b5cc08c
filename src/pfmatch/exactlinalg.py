"""Arbitrary-precision integer linear algebra.

Matrices and polynomials are plain lists of Python ints and nothing here
ever rounds: determinants use fraction-free (Bareiss) elimination, whose
intermediate divisions are exact by construction, and a tree's
characteristic polynomial is folded by the bridge recurrence modulo a
small monic polynomial, in O(n) ring operations.

This is the machinery that turns spectral product formulas into exact
integers.  For a monic integer polynomial q and an integer polynomial p,
root_product(q, p) is prod p(rho) over the roots rho of q, that is the
resultant Res(q, p), taken as the determinant of multiplication by p
on Z[y]/(q).  The irrational eigenvalues of a tree never need to be
computed, and neither does its whole characteristic polynomial: the
counting module reduces it modulo q(x^2) for a small q read off a path,
which keeps the resultant.
"""

from __future__ import annotations

import math

from .errors import NotAPerfectSquareError, PreconditionError
from .graphs import Graph, Tree, validate_tree

IntMatrix = list[list[int]]

#: Integer polynomial, constant coefficient first.
IntPolynomial = list[int]


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
        raise ValueError("determinant needs a square matrix")
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


def _reduce(r: IntPolynomial, m: IntPolynomial) -> IntPolynomial:
    """r modulo the monic m, in place; r needs at least deg m coefficients."""
    dm = len(m) - 1
    for k in range(len(r) - 1, dm - 1, -1):
        c = r.pop()
        if c:
            for j, mj in enumerate(m[:dm]):
                if mj:
                    r[k - dm + j] -= c * mj
    return r


def char_poly_tree_mod(t: Graph, m: IntPolynomial) -> IntPolynomial:
    """det(xI - A) of a tree reduced modulo the monic polynomial m.

    The bridge recurrence

        phi(G1 + G2 + uv) = phi(G1) * phi(G2) - phi(G1 - u) * phi(G2 - v)

    (Godsil, Algebraic Combinatorics, ch. 1) uses only ring operations,
    so it runs in Z[x]/(m) from the start and no coefficient of the full
    polynomial is ever formed.  Each vertex v keeps the pair (p, q) =
    (phi of its subtree so far, phi of that subtree minus v), starts
    from (x, 1) and folds in its children one at a time:
    p, q = p * p_c - q * q_c, q * p_c.  The first child needs no product,
    only a shift: p, q = x * p_c - q_c, p_c.  A tree costs O(n) ring
    operations, each O(deg m) for a shift and O(deg m ^ 2) for a product;
    a path needs shifts only.  Returns the deg m coefficients of the
    remainder, constant first.
    """
    tree: Tree = validate_tree(t)
    dm = len(m) - 1
    if dm < 0 or m[-1] != 1:
        raise ValueError("char_poly_tree_mod needs a monic polynomial m")

    def mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
        out = [0] * (2 * dm - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return _reduce(out, m)

    x = _reduce([0, 1] + [0] * (dm - 2), m)
    one = _reduce([1] + [0] * (dm - 1), m)
    children = tree.children()
    p: list[IntPolynomial] = [[] for _ in range(tree.n)]
    q: list[IntPolynomial] = [[] for _ in range(tree.n)]
    for v in tree.postorder():
        kids = children[v]
        if not kids:
            p[v], q[v] = x, one
            continue
        first = kids[0]
        pv = _reduce([0] + p[first], m)
        for j, c in enumerate(q[first]):
            pv[j] -= c
        qv = p[first]
        for c in kids[1:]:
            pv, minus, qv = mul(pv, p[c]), mul(qv, q[c]), mul(qv, p[c])
            for j, mj in enumerate(minus):
                pv[j] -= mj
        for c in kids:  # only unfinished vertices keep their pairs
            p[c] = q[c] = []
        p[v], q[v] = pv, qv
    return p[tree.root]


def root_product(q: IntPolynomial, p: IntPolynomial) -> int:
    """prod p(rho) over the roots rho of the monic polynomial q, exactly.

    The roots are counted with multiplicity, and the product equals the
    resultant Res(q, p).  It is the norm of p in Z[y]/(q): the
    determinant of multiplication by p on the basis 1, y, ..., y^(d-1),
    d = deg q, whose rows are p, y*p, ..., y^(d-1)*p reduced modulo q
    (without fractions, since q is monic).  For d = 0 the matrix is
    empty and the product is 1.  Cost grows with d cubed, so q should be
    the small side.
    """
    d = len(q) - 1
    if d < 0 or q[-1] != 1:
        raise ValueError("root_product needs a monic polynomial q")
    rows: IntMatrix = []
    r = list(p) + [0] * (d - len(p))
    for _ in range(d):
        rows.append(_reduce(r, q))
        r = [0] + r
    return det_bareiss(rows)


def integer_sqrt_exact(v: int) -> int:
    """The integer k with k*k == v, or an error; never rounds."""
    if v < 0:
        raise PreconditionError(f"square root of negative value {v}")
    k = math.isqrt(v)
    if k * k != v:
        raise NotAPerfectSquareError(f"{v} is not a perfect square")
    return k
