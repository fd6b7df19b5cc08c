"""Arbitrary-precision integer linear algebra.

Matrices and polynomials are plain lists of Python ints and nothing here
ever rounds: determinants use fraction-free (Bareiss) elimination, whose
intermediate divisions are exact by construction, and tree
characteristic polynomials come from the leaf-deletion recurrence.

This is the machinery that turns spectral product formulas into exact
integers.  For a monic integer polynomial q and an integer polynomial p,
root_product(q, p) is prod p(rho) over the roots rho of q, that is the
resultant Res(q, p), so the irrational eigenvalues of a tree never need
to be computed: the counting module pairs the tree's characteristic
polynomial with a small fixed q.
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


def _poly_sub(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    out = list(p) + [0] * (len(q) - len(p))
    for j, qj in enumerate(q):
        out[j] -= qj
    return out


def char_poly_tree(t: Graph) -> IntPolynomial:
    """det(xI - A) for a tree, by the leaf-deletion recurrence.

    Rooted form: with children polynomials p_c (subtree) and q_c (subtree
    minus its root), a vertex v satisfies

        p_v = x * prod_c p_c  -  sum_c q_c * prod_{c' != c} p_{c'}
        q_v = prod_c p_c

    which is the repeated application of  phi(T) = x*phi(T-v) - phi(T-v-u)
    for a leaf v with neighbor u.  Coefficients are returned constant
    first and alternate in sign: x^n - a1 x^(n-2) + a2 x^(n-4) - ...
    """
    tree: Tree = validate_tree(t)
    children = tree.children()
    p: list[IntPolynomial] = [[] for _ in range(tree.n)]
    q: list[IntPolynomial] = [[] for _ in range(tree.n)]
    for v in tree.postorder():
        kids = children[v]
        prefix = [[1]]
        for c in kids:
            prefix.append(_poly_mul(prefix[-1], p[c]))
        suffix = [[1]] * (len(kids) + 1)
        for idx in range(len(kids) - 1, -1, -1):
            suffix[idx] = _poly_mul(p[kids[idx]], suffix[idx + 1])
        prod = prefix[-1]
        pv = _poly_mul([0, 1], prod)  # x * prod
        for idx, c in enumerate(kids):
            pv = _poly_sub(pv, _poly_mul(q[c], _poly_mul(prefix[idx], suffix[idx + 1])))
        p[v] = pv
        q[v] = prod
    return p[tree.root]


def root_product(q: IntPolynomial, p: IntPolynomial) -> int:
    """prod p(rho) over the roots rho of the monic polynomial q, exactly.

    The roots are counted with multiplicity, and the product equals the
    resultant Res(q, p).  Since q is monic, p reduces modulo q without
    fractions in O(deg p * deg q) steps, and p(rho) = r(rho) for the
    remainder r.  With d = deg q, the product over the roots is then the
    determinant of the (2d-1)-square Sylvester matrix of q and r
    (r taken at formal degree d-1): d-1 shifted rows of q above d
    shifted rows of r.  For d = 1 that matrix is the remainder itself,
    and for d = 0 the product is empty.  Cost grows with deg q cubed, so
    q should be the small side.
    """
    d = len(q) - 1
    if d < 0 or q[-1] != 1:
        raise ValueError("root_product needs a monic polynomial q")
    r = list(p) + [0] * (d - len(p))
    for k in range(len(r) - 1, d - 1, -1):
        c = r.pop()
        if c:
            for j in range(d):
                r[k - d + j] -= c * q[j]
    q_high, r_high = q[::-1], r[::-1]
    rows = [[0] * i + q_high + [0] * (d - 2 - i) for i in range(d - 1)]
    rows += [[0] * i + r_high + [0] * (d - 1 - i) for i in range(d)]
    return det_bareiss(rows)


def integer_sqrt_exact(v: int) -> int:
    """The integer k with k*k == v, or an error; never rounds."""
    if v < 0:
        raise PreconditionError(f"square root of negative value {v}")
    k = math.isqrt(v)
    if k * k != v:
        raise NotAPerfectSquareError(f"{v} is not a perfect square")
    return k
