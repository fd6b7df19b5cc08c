"""Arbitrary-precision integer linear algebra.

Polynomials are plain lists of Python ints, sparse matrices are rows of
{column: entry} dicts, and nothing here ever rounds.  |Pf| of the skew adjacency matrix of an orientation
(abs_pfaffian) is the half-size biadjacency determinant when the graph
is bipartite and the exact root of the whole skew determinant
otherwise, each eliminated sparsely modulo 256-bit Proth primes and
recombined by the Chinese remainder theorem in the symmetric range past
twice the Hadamard bound, which is exact whatever the sign; and psi_T,
read off a tree's characteristic polynomial as
phi_T(x) = x^e * psi_T(x^2), is folded by the bridge recurrence modulo
a small monic polynomial q(y), in O(n) ring operations of degree deg q.

This is the machinery that turns spectral product formulas into exact
integers.  For a monic integer polynomial q and an integer polynomial p,
root_product(q, p) is prod p(rho) over the roots rho of q, that is the
resultant Res(q, p), taken by the subresultant remainder sequence in
O(deg q ^ 2) operations on integers, with no matrix.  The irrational
eigenvalues of a tree never need to be computed, and neither does its
whole characteristic polynomial: the counting module needs psi_T only
modulo a small q read off a path, which keeps the resultant.  No dense
matrix is formed anywhere in this module.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Optional

from .errors import NotPfaffianError, PreconditionError, SizeLimitError
from .graphs import Graph, OrientedGraph, Tree, validate_tree

#: Integer polynomial, constant coefficient first.
IntPolynomial = list[int]


#: Work guard for abs_pfaffian, the only guard of the Pfaffian route: its
#: eliminations may together do at most this much work (see _det_mod),
#: c * r updates per pivot plus 20.  Fitted with 256-bit moduli on a
#: shared 2-core host (Python 3.11) whose speed drifts by up to 2x, so
#: that every family at the limit is faster than the slowest was under
#: the 62-bit moduli and budget of 8 million (K_150 and K_152,152 2.9 s,
#: timed alongside): K_172 2.4 s (K_174 is refused in 0.8 s), K_173,173
#: 2.3 s on its half-size matrix, C_4 x T up to 11,992 vertices 1.6 s,
#: P_4 x T up to 12,504 vertices 1.5 s, P_2 x T up to 14,904 vertices
#: 1.2 s and the lexicographic path up to 19,138 vertices 0.4 s.
#:
#: It also caps the moduli an elimination can need.  One that runs to
#: the end removes every entry, so its work is at least the sum of r + 20
#: over the row lengths r, while Hadamard's bound has 2 + sum log2 r
#: bits, and log2 r <= 0.11214 * (r + 20) (the ratio peaks at r = 13).
#: t moduli, each above 2^255, are taken only when 510 * (t - 1) bits
#: fall short of the bound, and each elimination gets a t-th of the
#: budget, so 510 * (t - 1) < 2 + 0.11214 * 4,000,000 / t, which holds up
#: to t = 30.
DEFAULT_PFAFFIAN_UPDATE_GUARD = 4_000_000

#: The moduli of abs_pfaffian, largest first: the Proth primes
#: k * 2^192 + 1 for odd k below 2^64, that is every odd k from 2^64 - 1
#: down to the last one listed whose k * 2^192 + 1 is prime.  Each is
#: above 2^255, and Proth's theorem (a^((p-1)/2) = -1 mod p for some a)
#: proves it prime.  A literal table, so neither a request nor the import
#: searches for primes; it holds the 30 moduli that the work guard can
#: admit (see DEFAULT_PFAFFIAN_UPDATE_GUARD).
_SKEW_MODULI = tuple(((1 << 64) - c) << 192 | 1 for c in (
    153, 565, 705, 931, 1149, 1281, 1423, 1443, 1495, 1579, 2079, 2245, 2251, 2283, 2925,
    3009, 3115, 3243, 3585, 3645, 3831, 4183, 4789, 4809, 4845, 5265, 5605, 5775, 5835, 5881,
))


def _det_mod(signed: list[dict[int, int]], p: int, max_work: int) -> int:
    """det of a square sparse matrix modulo the prime p.

    The matrix comes as rows {column: entry}, with columns numbered like
    the rows and every entry nonzero modulo p (abs_pfaffian's are +-1,
    copied as they are).  Each step takes the Markowitz pivot: the live
    column with the fewest nonzeros (a lazy heap keyed by count), then
    the row in it with the fewest nonzeros, and clears the column from
    the other rows; a column with one nonzero needs neither the row
    choice nor the pivot's inverse.  Permuted by the pivots, the matrix
    is then upper triangular, so the determinant is the product of the
    pivots times the sign of the row-to-column pivot permutation.  A
    pivot with c nonzeros in its column and r in its row counts c * r
    updates, which bounds the entries its step touches, plus 20 for the
    bookkeeping every pivot pays; an elimination whose work would pass
    max_work raises SizeLimitError before that step runs.
    """
    n = len(signed)
    rows = [dict(row) for row in signed]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(c), j) for j, c in enumerate(cols)]
    heapq.heapify(heap)
    done = [False] * n
    pivot_col = [0] * n
    det, work = 1, 0
    for _ in range(n):
        count, c = heapq.heappop(heap)
        while done[c] or count != len(cols[c]):
            count, c = heapq.heappop(heap)
        if count == 0:
            return 0
        done[c] = True
        column = cols[c]
        if count == 1:
            r = column.pop()
        else:
            r = min([(len(rows[i]), i) for i in column])[1]
            column.discard(r)
        pivot = rows[r]
        work += count * len(pivot) + 20
        if work > max_work:
            raise SizeLimitError(
                f"sparse determinant guard: one elimination needs over {max_work} units of work"
            )
        a = pivot.pop(c)
        det = det * a % p
        pivot_col[r] = c
        if column:
            inv = pow(a, -1, p)
            entries = pivot.items()
            for i in column:
                row = rows[i]
                f = row.pop(c) * inv % p
                for j, v in entries:
                    x = row.get(j)
                    if x is None:  # fill-in: f and v are units modulo p
                        row[j] = -f * v % p
                        cols[j].add(i)
                    else:
                        x = (x - f * v) % p
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                            cols[j].discard(i)
        for j in pivot:
            col = cols[j]
            col.discard(r)
            heapq.heappush(heap, (len(col), j))
    seen = [False] * n
    for start in range(n):  # each even cycle of the permutation flips the sign
        length, v = 0, start
        while not seen[v]:
            seen[v], v, length = True, pivot_col[v], length + 1
        if length and length % 2 == 0:
            det = -det
    return det % p


def _sides(g: Graph) -> Optional[list[int]]:
    """The parity of each vertex's breadth-first depth, each component
    searched from its least vertex as in graphs._bfs_forest, or None when
    an edge joins two vertices of equal parity (an odd cycle).

    Depth is the distance from the root in whatever order neighbours are
    queued, so one search over unsorted neighbour lists gives the same
    sides without building the sorted Graph.adjacency, and it meets
    every edge from both ends.
    """
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] < 0:
            side[start] = 0
            queue = [start]
            for v in queue:
                other = side[v] ^ 1
                for w in nbrs[v]:
                    if side[w] < 0:
                        side[w] = other
                        queue.append(w)
                    elif side[w] != other:
                        return None
    return side


def abs_pfaffian(d: OrientedGraph) -> int:
    """|Pf| of the skew adjacency matrix A of the orientation d, exactly.

    A has entry 1 at (u, v) and -1 at (v, u) for each arc u->v; it is
    never built densely.  A bipartite graph (its sides X and Y are the
    parities of breadth-first depth, which no edge joins) needs only the
    signed biadjacency matrix B, of half the order: B[x][y] is 1 for an
    arc x->y and -1 for an arc y->x, and with X listed before Y,
    A = [[0, B], [-B^T, 0]], so |Pf A| = |det B| (Kasteleyn's form of
    the method).  Sides of unequal size give 0, as there is no perfect
    matching.  A graph with an odd cycle eliminates A itself, and |Pf|
    is the exact integer root of det A = Pf^2 (Cayley); a determinant
    that is not a square means its residues were combined wrongly, and
    raises NotPfaffianError.  Sparse elimination runs modulo the 256-bit
    Proth primes of _SKEW_MODULI, one elimination each, and the residues
    are combined by the Chinese remainder theorem into the symmetric
    range (-M/2, M/2) until M^2 exceeds 4 * prod(row lengths).  By
    Hadamard's bound, with every entry +-1, that product is at least
    det^2, so the residue is the determinant itself, sign included:
    exact and deterministic.  A product of up to about 500 vertices
    needs a single elimination.  Odd order gives 0, as does a vertex of
    degree 0 (an empty row; a product of 0 needs no modulus), and the
    empty graph gives 1.  Each elimination gets an equal share of the
    work budget DEFAULT_PFAFFIAN_UPDATE_GUARD (updates plus a fixed
    charge per pivot), so a graph above it raises SizeLimitError within
    its first elimination; so does one whose bound needs more moduli
    than the table holds.
    """
    if d.n % 2:
        return 0
    side = _sides(d.base)
    if side is None:
        rows: list[dict[int, int]] = [{} for _ in range(d.n)]
        for u, v in d.arcs:
            rows[u][v] = 1
            rows[v][u] = -1
    else:
        index, sizes = [0] * d.n, [0, 0]
        for v in range(d.n):  # number each side in increasing order
            index[v] = sizes[side[v]]
            sizes[side[v]] += 1
        if sizes[0] != sizes[1]:
            return 0
        rows = [{} for _ in range(sizes[0])]
        for u, v in d.arcs:
            if side[u]:
                rows[index[v]][index[u]] = -1
            else:
                rows[index[u]][index[v]] = 1
    bound = 4 * math.prod(len(row) for row in rows)  # (2 det)^2 <= bound
    primes, modulus = 0, 1
    while modulus * modulus <= bound:
        if primes == len(_SKEW_MODULI):
            raise SizeLimitError(
                f"sparse determinant guard: Hadamard's bound needs more than {primes} "
                "moduli, more than any elimination within the work budget needs"
            )
        modulus *= _SKEW_MODULI[primes]
        primes += 1
    det, modulus = 0, 1
    for p in _SKEW_MODULI[:primes]:
        residue = _det_mod(rows, p, DEFAULT_PFAFFIAN_UPDATE_GUARD // primes)
        det += modulus * ((residue - det) * pow(modulus, -1, p) % p)
        modulus *= p
    if 2 * det > modulus:
        det -= modulus
    if side is not None:
        return abs(det)
    root = math.isqrt(max(det, 0))
    if root * root != det:
        raise NotPfaffianError(
            f"skew adjacency determinant {det} is not a perfect square, "
            "which no skew integer matrix has: the modular reconstruction failed"
        )
    return root


def _reduce(r: IntPolynomial, m: IntPolynomial) -> IntPolynomial:
    """r modulo the monic m, in place; r needs at least deg m coefficients."""
    dm = len(m) - 1
    low = m[:dm]
    for k in range(len(r) - 1 - dm, -1, -1):
        c = r.pop()
        if c:
            for j, mj in enumerate(low, k):
                if mj:
                    r[j] -= c * mj
    return r


def _ring(q: IntPolynomial) -> tuple:
    """(one, mul, sub, times_y) of Z[y]/(q) for the monic q of degree d >= 1.

    d = 1: the ring is Z itself, y = -q[0], and elements are plain ints.
    d = 2: elements are pairs (a0, a1) for a0 + a1*y, and y^2 = -q0 - q1*y;
    a product takes three big multiplications (Karatsuba's middle term)
    and "times y" none.  d >= 3: elements are lists of d coefficients,
    a product costs O(d^2) and "times y" is a shift and one reduction
    step.
    """
    d = len(q) - 1
    if d == 1:
        return 1, operator.mul, operator.sub, (-q[0]).__mul__
    if d == 2:
        q0, q1 = q[0], q[1]
        q1_1 = q1 + 1

        def mul_pair(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
            a0, a1 = a
            b0, b1 = b
            low, high = a0 * b0, a1 * b1
            return low - q0 * high, (a0 + a1) * (b0 + b1) - low - q1_1 * high

        def sub_pair(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
            return a[0] - b[0], a[1] - b[1]

        def times_y_pair(a: tuple[int, int]) -> tuple[int, int]:
            return -q0 * a[1], a[0] - q1 * a[1]

        return (1, 0), mul_pair, sub_pair, times_y_pair

    def mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
        out = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return _reduce(out, q)

    def sub(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
        return list(map(operator.sub, a, b))

    def times_y(a: IntPolynomial) -> IntPolynomial:
        return _reduce([0] + a, q)

    return [1] + [0] * (d - 1), mul, sub, times_y


def psi_tree_mod(t: Graph, q: IntPolynomial) -> IntPolynomial:
    """psi_T modulo the monic polynomial q(y), where phi_T(x) = x^e * psi_T(x^2).

    The bridge recurrence

        phi(G1 + G2 + uv) = phi(G1) * phi(G2) - phi(G1 - u) * phi(G2 - v)

    (Godsil, Algebraic Combinatorics, ch. 1) uses only ring operations.
    A forest's characteristic polynomial is its matching polynomial, so
    every subtree rooted at c has phi = x^odd_c * P_c(x^2) and
    phi(subtree - c) = x^(1 - odd_c) * Q_c(x^2), odd_c the parity of its
    order, and the recurrence runs on (P_c, Q_c) in Z[y]/(q), y = x^2,
    of degree d = deg q.  No coefficient of the whole polynomial is ever
    formed.

    The fold walks the tree's breadth-first order (Tree.order) in
    reverse, so each vertex comes after all of its descendants, and
    folds every finished subtree into its parent at once.  A vertex
    starts as a leaf, (1, 1, odd).  The first child c of v needs no
    product: P, Q = (y * P_c if odd_c else P_c) - Q_c, P_c, and v is odd
    when c is even.  Neither does a leaf child: it turns (P, Q) into
    (y * P - Q, Q) when v is odd and (P - Q, y * Q) when v is even, and
    flips odd_v.  Every other child c folds in as

        P <- y^[odd_v and odd_c] * P * P_c - y^[not odd_v and not odd_c] * Q * Q_c
        Q <- y^[not odd_v and odd_c] * Q * P_c

    and then odd_v flips when odd_c is set.  A tree costs O(n) ring
    operations.  The elements take one of three kinds by degree (see
    _ring): plain ints for d = 1, integer pairs for d = 2 and lists of
    d coefficients for d >= 3; for d = 0 the ring is zero.  Returns the
    d coefficients of the remainder, constant first.
    """
    tree: Tree = validate_tree(t)
    d = len(q) - 1
    if d < 0 or q[-1] != 1:
        raise PreconditionError("psi_tree_mod needs a monic polynomial q")
    if d == 0:
        return []
    one, mul, sub, times_y = _ring(q)
    y_minus_one = sub(times_y(one), one)  # a vertex with one leaf child
    parent = tree.parent
    p: list = [None] * tree.n  # P of each unfinished vertex, None while it is a leaf
    rest: list = [None] * tree.n  # its Q
    odd = [True] * tree.n
    order = tree.order
    for i in range(tree.n - 1, 0, -1):
        c = order[i]
        v = parent[c]
        pv, pc = p[v], p[c]
        if pc is None:  # a leaf child
            if pv is None:
                p[v], rest[v], odd[v] = y_minus_one, one, False
            elif odd[v]:
                p[v], odd[v] = sub(times_y(pv), rest[v]), False
            else:
                qv = rest[v]
                p[v], rest[v], odd[v] = sub(pv, qv), times_y(qv), True
            continue
        qc, odd_c = rest[c], odd[c]
        p[c] = rest[c] = None  # only unfinished vertices keep their pairs
        if pv is None:  # the first child
            p[v], rest[v], odd[v] = sub(times_y(pc) if odd_c else pc, qc), pc, not odd_c
            continue
        qv, odd_v = rest[v], odd[v]
        plus, minus, qv = mul(pv, pc), mul(qv, qc), mul(qv, pc)
        if odd_c:
            if odd_v:
                plus = times_y(plus)
            else:
                qv = times_y(qv)
        elif not odd_v:
            minus = times_y(minus)
        p[v], rest[v], odd[v] = sub(plus, minus), qv, odd_v ^ odd_c
    psi = p[tree.root]
    if psi is None:  # the one-vertex tree: phi = x, psi = 1
        psi = one
    return [psi] if d == 1 else list(psi)


def root_product(q: IntPolynomial, p: IntPolynomial) -> int:
    """prod p(rho) over the roots rho of the monic polynomial q, exactly.

    The roots are counted with multiplicity, and the product is the
    resultant Res(q, p), 1 for deg q = 0.  As q is monic, the remainder
    r of p modulo q takes the same values at the roots.  Res(q, r) comes
    from the subresultant remainder sequence (Collins 1967; Brown and
    Traub 1971) as in Cohen's Algorithm 3.3.7: the content of r comes
    out as cont(r)^deg q, and each pseudo-remainder of A by B is divided
    by g * h^delta, delta = deg A - deg B, a division that subresultant
    theory makes exact and that keeps the coefficients to the size of
    Sylvester minors.  A zero remainder means a common root.  O(d^2)
    operations on integers, d = deg q, and no matrix.
    """
    d = len(q) - 1
    if d < 0 or q[-1] != 1:
        raise PreconditionError("root_product needs a monic polynomial q")
    if d == 0:
        return 1
    b = _reduce(list(p) + [0] * (d - len(p)), q)
    while b and not b[-1]:
        b.pop()
    if not b:
        return 0
    content = math.gcd(*b)
    if content != 1:
        b = [c // content for c in b]
    a, sign, g, h = q, 1, 1, 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        lead, low = b[-1], b[:-1]
        r = a[:]
        for k in range(delta, -1, -1):  # r <- lead * r - lc(r) * y^k * b
            c = r.pop()
            r = [x * lead for x in r]
            if c:
                for j, bj in enumerate(low, k):
                    r[j] -= c * bj
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        divisor = g * h ** delta
        a, b = b, [c // divisor for c in r]
        g = lead
        h = g ** delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * content ** d * b[0] ** da // h ** (da - 1)
