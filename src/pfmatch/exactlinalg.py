"""Arbitrary-precision integer linear algebra.

Matrices and polynomials are plain lists of Python ints and nothing here
ever rounds: determinants use fraction-free (Bareiss) elimination, whose
intermediate divisions are exact by construction, and tree
characteristic polynomials come from the bridge recurrence.

This is the machinery that turns spectral product formulas into exact
integers.  For a monic integer polynomial q and an integer polynomial p,
root_product(q, p) is prod p(rho) over the roots rho of q, that is the
resultant Res(q, p), taken as the determinant of multiplication by p
on Z[y]/(q).  The irrational eigenvalues of a tree never need to be
computed: the counting module pairs the tree's characteristic
polynomial with a small q read off a path.
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


def _poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def char_poly_tree(t: Graph) -> IntPolynomial:
    """det(xI - A) for a tree, by the bridge recurrence.

    Joining two graphs by a bridge uv gives

        phi(G1 + G2 + uv) = phi(G1) * phi(G2) - phi(G1 - u) * phi(G2 - v)

    (Godsil, Algebraic Combinatorics, ch. 1).  Each vertex v keeps the
    pair (p, q) = (phi of its subtree so far, phi of that subtree minus
    v), starts from (x, 1) and folds in its children one at a time:
    p, q = p * p_c - q * q_c, q * p_c.  Coefficients are returned
    constant first and alternate in sign: x^n - a1 x^(n-2) + a2 x^(n-4) - ...
    """
    tree: Tree = validate_tree(t)
    children = tree.children()
    p: list[IntPolynomial] = [[] for _ in range(tree.n)]
    q: list[IntPolynomial] = [[] for _ in range(tree.n)]
    for v in tree.postorder():
        pv, qv = [0, 1], [1]
        for c in children[v]:
            pv, minus, qv = _poly_mul(pv, p[c]), _poly_mul(qv, q[c]), _poly_mul(qv, p[c])
            for j, mj in enumerate(minus):  # minus has the lower degree
                pv[j] -= mj
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
    r = list(p)
    for _ in range(d):
        r += [0] * (d - len(r))
        for k in range(len(r) - 1, d - 1, -1):
            c = r.pop()
            for j in range(d):
                r[k - d + j] -= c * q[j]
        rows.append(r)
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
