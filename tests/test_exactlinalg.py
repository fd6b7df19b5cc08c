"""Exact determinants, |Pf| of skew adjacency matrices, characteristic and matrix polynomials."""

import ast
import math

import pytest

import pfmatch.exactlinalg

from pfmatch.brute import count_signed_matchings
from pfmatch.counting import _path_product
from pfmatch import (
    Graph,
    NotATreeError,
    OrientedGraph,
    PfmatchError,
    SizeLimitError,
    abs_pfaffian,
    count_perfect_matchings,
    count_product,
    cycle_graph,
    orient_c4_tree,
    orient_layered,
    orient_lexicographic,
    path_graph,
    psi_tree_mod,
    random_tree,
    root_product,
    validate_tree,
)

from util import (
    _bfs_forest,
    adjacency_matrix,
    bit_stream,
    char_poly_by_interpolation,
    char_poly_tree,
    count_by_backtracking,
    det_bareiss,
    det_cofactor,
    eval_matrix_poly,
    identity_matrix,
    is_prime_by_certificate,
    matchings_by_size,
    norm_by_multiplication_matrix,
    pfaffian_by_expansion,
    poly_remainder,
    random_orientation,
    skew_adjacency,
    skew_char_poly,
    trees_up_to,
)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(i, leaves) for i in range(leaves)])


def test_det_2x2_skew():
    assert det_bareiss([[0, 1], [-1, 0]]) == 1


def test_det_identity():
    assert det_bareiss(identity_matrix(5)) == 1


def test_det_cube_orientation_is_81():
    # the doubled-doubled edge orients the cube; its 9 matchings squared
    d = orient_c4_tree(orient_lexicographic(path_graph(2)))
    assert det_bareiss(skew_adjacency(d)) == 81


def test_det_singular():
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[0, 0], [0, 0]]) == 0


def test_det_needs_pivot_swap():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 2, 1], [3, 0, 0], [0, 0, 4]]) == -24


def test_det_empty_matrix():
    assert det_bareiss([]) == 1


def test_det_rejects_ragged():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])


def test_det_agrees_with_cofactor_expansion():
    bits = bit_stream(123)
    for _ in range(300):
        n = next(bits) % 7
        mat = [[next(bits) % 19 - 9 for _ in range(n)] for _ in range(n)]
        assert det_bareiss(mat) == det_cofactor(mat)


# ---------------------------------------------------------------------------
# sparse skew determinants modulo primes, against dense Bareiss
# ---------------------------------------------------------------------------

def _reachable(g: Graph, start: int) -> set[int]:
    seen, stack = {start}, [start]
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_det_skew_equals_bareiss_on_random_skew_matrices():
    # random orientations of random graphs up to 14 vertices, from empty
    # to complete: every kind below has to turn up
    bits = bit_stream(91)
    kinds = dict.fromkeys(("singular", "odd", "disconnected", "edgeless", "non-pfaffian"), 0)
    for seed in range(300):
        n, density = 1 + next(bits) % 14, next(bits) % 101
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if next(bits) % 100 < density])
        d = random_orientation(g, seed)
        det = det_bareiss(skew_adjacency(d))
        assert abs_pfaffian(d) ** 2 == det, (n, sorted(d.arcs))
        kinds["singular"] += det == 0
        kinds["odd"] += n % 2
        kinds["disconnected"] += len(_reachable(g, 0)) < n
        kinds["edgeless"] += not g.edges
        kinds["non-pfaffian"] += det != count_perfect_matchings(g) ** 2
    assert min(kinds.values()) >= 10, kinds


def test_det_skew_equals_bareiss_on_random_bipartite_orientations():
    # random orientations of random bipartite graphs up to 14 vertices,
    # the sides scattered over the labels: abs_pfaffian eliminates the
    # half-size biadjacency matrix, or answers 0 for sides of unequal
    # size, and every kind below has to turn up
    bits = bit_stream(92)
    kinds = dict.fromkeys(("balanced", "unbalanced", "disconnected", "isolated vertex",
                           "non-pfaffian"), 0)
    for seed in range(300):
        n, density = 1 + next(bits) % 14, next(bits) % 101
        side = [next(bits) % 2 for _ in range(n)]
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if side[u] != side[v] and next(bits) % 100 < density])
        d = random_orientation(g, seed)
        det = det_bareiss(skew_adjacency(d))
        assert abs_pfaffian(d) ** 2 == det, (n, sorted(d.arcs))
        # a connected graph has one two-colouring, the sides drawn here
        connected = len(_reachable(g, 0)) == n
        even = n % 2 == 0
        kinds["balanced"] += connected and even and 2 * sum(side) == n
        kinds["unbalanced"] += connected and even and 2 * sum(side) != n
        kinds["disconnected"] += not connected
        kinds["isolated vertex"] += n > 1 and any(not g.adjacency[v] for v in range(n))
        kinds["non-pfaffian"] += det != count_perfect_matchings(g) ** 2
    assert min(kinds.values()) >= 10, kinds


def test_det_mod_equals_bareiss_on_sparse_signed_matrices():
    # seeded sparse +-1 matrices up to 12 rows, modulo the first modulus
    # and modulo 3, where entries also cancel that do not over the
    # integers; every kind below has to turn up
    det_mod = pfmatch.exactlinalg._det_mod
    bits = bit_stream(94)
    kinds = dict.fromkeys(("one-entry column", "singular", "zero modulo 3 only"), 0)
    for _ in range(300):
        n, density = 1 + next(bits) % 12, 10 + next(bits) % 50
        mat = [[(1 if next(bits) % 2 else -1) if next(bits) % 100 < density else 0
                for _ in range(n)] for _ in range(n)]
        rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
        det = det_bareiss(mat)
        for p in (pfmatch.exactlinalg._SKEW_MODULI[0], 3):
            assert det_mod(rows, p, 10 ** 9) == det % p, mat
        kinds["one-entry column"] += any(sum(1 for row in mat if row[j]) == 1 for j in range(n))
        kinds["singular"] += det == 0
        kinds["zero modulo 3 only"] += det != 0 and det % 3 == 0
    assert min(kinds.values()) >= 10, kinds
    # Markowitz takes column 0 and row 0 first, and the update clears
    # entry (1, 1), so the next pivot stands alone in its column
    assert det_mod([{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}], 3, 10 ** 9) == 2
    assert det_mod([{0: 1, 1: -1}, {0: 1, 1: -1}], 3, 10 ** 9) == 0


def test_det_mod_work_count_is_pinned(monkeypatch):
    # the signed biadjacency matrix of C4 x T on 40 vertices costs exactly
    # 567 units of work, 20 per pivot for its 20 pivots and 167 for their
    # updates, so a budget one unit smaller refuses it
    det_mod = pfmatch.exactlinalg._det_mod
    captured = []
    monkeypatch.setattr(pfmatch.exactlinalg, "_det_mod",
                        lambda rows, p, work: captured.append(rows) or det_mod(rows, p, work))
    d = orient_c4_tree(orient_lexicographic(random_tree(10, 1)))
    pf = abs_pfaffian(d)
    (rows,) = captured
    p = pfmatch.exactlinalg._SKEW_MODULI[0]
    assert det_mod(rows, p, 567) in (pf, p - pf)
    with pytest.raises(SizeLimitError, match="guard"):
        det_mod(rows, p, 566)


def test_sides_are_the_breadth_first_depth_parities():
    # random graphs up to 14 vertices: _sides gives _bfs_forest's depth
    # parities, or None exactly when an edge joins two equal parities
    bits = bit_stream(95)
    kinds = dict.fromkeys(("odd cycle", "bipartite", "disconnected"), 0)
    for _ in range(300):
        n, density = 1 + next(bits) % 14, next(bits) % 60
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if next(bits) % 100 < density])
        parity = [depth % 2 for depth in _bfs_forest(g)[2]]
        odd_cycle = any(parity[u] == parity[v] for u, v in g.edges)
        assert pfmatch.exactlinalg._sides(g) == (None if odd_cycle else parity)
        assert odd_cycle == _has_odd_cycle(g)
        kinds["odd cycle"] += odd_cycle
        kinds["bipartite"] += not odd_cycle and bool(g.edges)
        kinds["disconnected"] += len(_reachable(g, 0)) < n
    assert min(kinds.values()) >= 10, kinds


def _has_odd_cycle(g: Graph) -> bool:
    colour: dict[int, int] = {}
    for start in range(g.n):
        if start in colour:
            continue
        colour[start], stack = 0, [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return True
    return False


def test_abs_pfaffian_equals_first_row_expansion():
    # random orientations of random graphs up to 12 vertices, one in five
    # of odd order, and every other one bipartite with two equal sides
    # scattered over the labels: |Pf| from elimination against the
    # oracle's expansion along the first row, and every kind below has to
    # turn up
    bits = bit_stream(93)
    kinds = dict.fromkeys(("odd cycle", "bipartite", "zero", "odd order", "non-pfaffian"), 0)
    for seed in range(240):
        n, density = 2 * (1 + next(bits) % 6) - (seed % 5 == 0), next(bits) % 101
        side = [0] * n
        if seed % 2:
            for i, v in enumerate(sorted(range(n), key=lambda v: next(bits))):
                side[v] = i % 2
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if (not seed % 2 or side[u] != side[v])
                                 and next(bits) % 100 < density])
        d = random_orientation(g, seed)
        pf = abs_pfaffian(d)
        assert pf == abs(pfaffian_by_expansion(skew_adjacency(d))), (n, sorted(d.arcs))
        odd_cycle = _has_odd_cycle(g)
        kinds["odd cycle"] += odd_cycle and pf > 1
        kinds["bipartite"] += not odd_cycle and pf > 1
        kinds["zero"] += n % 2 == 0 and pf == 0
        kinds["odd order"] += n % 2
        kinds["non-pfaffian"] += pf != count_perfect_matchings(g)
    assert min(kinds.values()) >= 10, kinds


def test_det_skew_of_the_empty_and_a_single_arc():
    assert abs_pfaffian(OrientedGraph(n=0, arcs=frozenset())) == 1
    assert abs_pfaffian(OrientedGraph(n=2, arcs=frozenset({(0, 1)}))) == 1


def test_arcs_outside_the_graph_are_refused_before_any_kernel_runs():
    # the pair (path_graph(2), [(5, 7)]) sent abs_pfaffian and the signed
    # sweep past the end of their rows with a bare IndexError; an
    # orientation is now one value, and building it refuses the arc
    for kernel in (abs_pfaffian, count_signed_matchings):
        with pytest.raises(PfmatchError, match=r"edge \(5, 7\)"):
            kernel(OrientedGraph(n=2, arcs=frozenset({(5, 7)})))


def test_det_skew_equals_bareiss_on_product_orientations(monkeypatch):
    # C4 x T and P2 x T from 20 to 160 vertices, bipartite, so abs_pfaffian
    # is |det B|
    for n, seed in ((5, 1), (10, 2), (20, 3), (40, 4)):
        base = orient_lexicographic(random_tree(n, seed))
        for d in (orient_c4_tree(base), orient_layered(base, 2)):
            assert abs_pfaffian(d) ** 2 == det_bareiss(skew_adjacency(d))
    # C4 x T on 1,000 vertices: Hadamard's bound needs two moduli, so CRT
    # combines two residues; dense Bareiss would be too slow there, and
    # the closed form is an independent route
    moduli = []
    det_mod = pfmatch.exactlinalg._det_mod
    monkeypatch.setattr(pfmatch.exactlinalg, "_det_mod",
                        lambda rows, p, work: moduli.append(p) or det_mod(rows, p, work))
    t = random_tree(250, 4)
    d = orient_c4_tree(orient_lexicographic(t))
    assert abs_pfaffian(d) == count_product("c4", 4, t, "formula").count
    assert moduli == list(pfmatch.exactlinalg._SKEW_MODULI[:2])


def test_det_skew_past_two_primes_on_the_half_size_route():
    # C4 x T and P4 x T of 1,600 vertices, where |det B| itself exceeds
    # the product of the two largest moduli, so CRT combines at least
    # three; the closed forms are an independent route, and dense
    # Bareiss would be too slow here
    moduli = pfmatch.exactlinalg._SKEW_MODULI
    for n, seed in ((400, 5), (400, 6)):
        t = random_tree(n, seed)
        base = orient_lexicographic(t)
        for d, count in ((orient_c4_tree(base), count_product("c4", 4, t, "formula").count),
                         (orient_layered(base, 4), count_product("pm", 4, t, "formula").count)):
            pf = abs_pfaffian(d)
            assert pf > moduli[0] * moduli[1]
            assert pf == count


def test_skew_moduli_are_the_proth_primes_below_two_to_the_256():
    moduli = pfmatch.exactlinalg._SKEW_MODULI
    ks = [p >> 192 for p in moduli]
    assert ks[0] == 2 ** 64 - 153
    assert all(p == k << 192 | 1 and k % 2 for p, k in zip(moduli, ks))
    assert all(is_prime_by_certificate(p) for p in moduli)
    # odd k descending from 2^64 - 1, none skipped
    assert all(hi > lo for hi, lo in zip(ks, ks[1:]))
    assert all(not is_prime_by_certificate(k << 192 | 1)
               for hi, lo in zip([2 ** 64 + 1] + ks, ks) for k in range(lo + 2, hi, 2))


def test_skew_moduli_cover_every_elimination_the_guard_admits():
    # An elimination that runs to the end removes every entry and pays
    # 20 per pivot, so its work is at least the sum of (r + 20) over the
    # row lengths r, while Hadamard's bound has 2 + sum log2 r bits.  t
    # moduli, each above 2^255, are needed only when 510 (t - 1) bits
    # fall short of that bound, and each elimination gets a t-th of the
    # budget: the table must reach the largest t both allow.
    ratio = max(math.log2(r) / (r + 20) for r in range(1, 1000))
    budget = pfmatch.exactlinalg.DEFAULT_PFAFFIAN_UPDATE_GUARD
    need = max(t for t in range(1, 1000) if 510 * (t - 1) < 2 + ratio * (budget // t))
    assert len(pfmatch.exactlinalg._SKEW_MODULI) == need


def test_char_poly_k2():
    assert char_poly_tree(path_graph(2)) == [-1, 0, 1]  # x^2 - 1


def test_char_poly_p3():
    assert char_poly_tree(path_graph(3)) == [0, -2, 0, 1]  # x^3 - 2x


def test_char_poly_star():
    assert char_poly_tree(star(3)) == [0, 0, -3, 0, 1]  # x^4 - 3x^2
    assert char_poly_by_interpolation(adjacency_matrix(star(3))) == [0, 0, -3, 0, 1]


def caterpillar(legs: list[int], reverse: bool = False) -> Graph:
    """A spine path with legs[i] leaves on spine vertex i; reverse relabels v -> n-1-v.

    Vertex 0 is the root char_poly_tree folds towards: a spine end, or
    with reverse the last leaf, so a hub folds in its leaves near the
    root in one labelling and deep in the other.
    """
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    n = len(legs)
    for i, count in enumerate(legs):
        edges += [(i, n + j) for j in range(count)]
        n += count
    if reverse:
        edges = [(n - 1 - u, n - 1 - v) for u, v in edges]
    return Graph.from_edges(n, edges)


def test_char_poly_of_path_is_the_binomial_sum():
    # phi(P_n) = sum_k (-1)^k C(n-k, k) x^(n-2k); every n <= 100 and five
    # longer paths (all n <= 300 take about 2.5 s)
    for n in [*range(1, 101), 150, 200, 250, 299, 300]:
        expected = [0] * (n + 1)
        for k in range(n // 2 + 1):
            expected[n - 2 * k] = (-1) ** k * math.comb(n - k, k)
        assert char_poly_tree(path_graph(n)) == expected, n


def test_char_poly_of_high_degree_trees():
    # stars, double stars and caterpillars, where a vertex folds in many
    # children: against interpolation while its cofactor determinants stay
    # cheap, then against the signed matching counts up to degree 50
    for legs in ([1], [5], [12], [3, 4], [6, 6], [2, 0, 5], [4, 1, 0, 3], [0, 9, 0]):
        for reverse in (False, True):
            t = caterpillar(legs, reverse)
            assert char_poly_tree(t) == char_poly_by_interpolation(adjacency_matrix(t)), legs
    for legs in ([50], [49, 1], [25, 25], [1, 48, 0, 2], [10, 0, 48, 3], [3, 0, 0, 0, 49]):
        for reverse in (False, True):
            t = caterpillar(legs, reverse)
            expected = [0] * (t.n + 1)
            for i, count in enumerate(matchings_by_size(t)):
                expected[t.n - 2 * i] = (-1) ** i * count
            assert char_poly_tree(t) == expected, legs


def test_char_poly_rejects_non_tree():
    with pytest.raises(NotATreeError):
        char_poly_tree(cycle_graph(5))


def test_char_poly_matches_interpolation_oracle():
    for seed in range(15):
        t = random_tree(1 + seed % 9, seed)
        assert char_poly_tree(t) == char_poly_by_interpolation(adjacency_matrix(t))


def test_char_poly_coefficients_count_matchings():
    # coefficient of x^(n-2i) is (-1)^i * (number of i-edge matchings);
    # odd-power coefficients vanish
    for seed in range(20):
        t = random_tree(1 + seed % 10, seed * 3 + 1)
        coeffs = char_poly_tree(t)
        by_size = matchings_by_size(t)
        n = t.n
        for power, c in enumerate(coeffs):
            k = n - power
            if k % 2 == 1:
                assert c == 0
            else:
                i = k // 2
                expected = by_size[i] if i < len(by_size) else 0
                assert c == (-1) ** i * expected


def test_skew_char_poly_k2():
    assert skew_char_poly(orient_lexicographic(path_graph(2))) == [1, 0, 1]  # x^2 + 1


def test_skew_char_poly_p3():
    assert skew_char_poly(orient_lexicographic(path_graph(3))) == [0, 2, 0, 1]  # x^3 + 2x


def test_skew_char_poly_matches_interpolation_oracle():
    for seed in range(10):
        d = random_orientation(random_tree(2 + seed % 7, seed), seed + 5)
        assert skew_char_poly(d) == char_poly_by_interpolation(skew_adjacency(d))


def test_skew_char_poly_rejects_non_tree():
    with pytest.raises(NotATreeError):
        skew_char_poly(orient_lexicographic(cycle_graph(4)))


def test_skew_coefficients_are_absolute_tree_coefficients():
    # same magnitudes as the tree characteristic polynomial, signs all +
    for seed in range(50):
        t = random_tree(1 + seed % 12, seed * 7 + 3)
        plain = char_poly_tree(t)
        for orientation_seed in range(3):
            d = random_orientation(t, seed * 10 + orientation_seed)
            assert skew_char_poly(d) == [abs(c) for c in plain]


def test_skew_char_poly_orientation_independent():
    for seed in range(10):
        t = random_tree(2 + seed % 10, seed + 1000)
        polys = {tuple(skew_char_poly(random_orientation(t, s))) for s in range(5)}
        assert len(polys) == 1


def test_eval_matrix_poly_k2():
    a = adjacency_matrix(path_graph(2))
    assert eval_matrix_poly(a, [2, 0, 1]) == [[3, 0], [0, 3]]  # 2I + A^2 = 3I


def test_eval_matrix_poly_constant():
    a = adjacency_matrix(random_tree(4, 0))
    assert eval_matrix_poly(a, [1]) == identity_matrix(4)


def test_eval_matrix_poly_p3():
    a = adjacency_matrix(path_graph(3))
    assert eval_matrix_poly(a, [2, 0, 1]) == [[3, 0, 1], [0, 4, 0], [1, 0, 3]]


def test_eval_matrix_poly_empty_coeffs():
    a = adjacency_matrix(path_graph(2))
    assert eval_matrix_poly(a, []) == [[0, 0], [0, 0]]


def test_symmetric_and_skew_formula_routes_agree():
    # det(2I + A(T)^2) = det(2I - A(T^e)^2): same spectrum magnitudes
    for seed in range(10):
        t = random_tree(1 + seed % 8, seed + 21)
        sym = det_bareiss(eval_matrix_poly(adjacency_matrix(t), [2, 0, 1]))
        d = random_orientation(t, seed)
        skew = det_bareiss(eval_matrix_poly(skew_adjacency(d), [2, 0, -1]))
        assert sym == skew


def test_matched_tree_determinant_is_square():
    # det(2I + A^2) is a perfect square whenever the tree has a perfect matching
    for seed in range(40):
        t = random_tree(2 * (1 + seed % 5), seed)
        if not count_by_backtracking(t):
            continue
        det = det_bareiss(eval_matrix_poly(adjacency_matrix(t), [2, 0, 1]))
        root = math.isqrt(det)
        assert root * root == det


def _sylvester_matrix(q: list[int], p: list[int]) -> list[list[int]]:
    """The (deg q + deg p)-square Sylvester matrix of q and p, whose
    determinant is Res(q, p); p needs a nonzero leading coefficient."""
    dq, dp = len(q) - 1, len(p) - 1
    size = dq + dp
    rows = [[0] * i + q[::-1] + [0] * (size - dq - 1 - i) for i in range(dp)]
    rows += [[0] * i + p[::-1] + [0] * (size - dp - 1 - i) for i in range(dq)]
    return rows


def _sylvester_resultant(q: list[int], p: list[int]) -> int:
    """Res(q, p) from the full Sylvester matrix, by cofactors."""
    return det_cofactor(_sylvester_matrix(q, p))


def test_root_product_small_cases():
    assert root_product([2, 1], [5, -3, 1]) == 5 + 6 + 4  # p(-2)
    assert root_product([1], [7, 7, 7]) == 1  # no roots: empty product
    assert root_product([1], []) == 1  # even for p = 0
    assert root_product([0, 0, 1], [3, 1]) == 9  # double root 0
    assert root_product([-1, 0, 1], [0, 1]) == -1  # roots +-1
    assert root_product([1, 3, 1], [4, 2]) == 2 * 2 - 3 * 2 * 4 + 4 * 4  # a^2 - 3ab + b^2
    assert root_product([1, 3, 1], []) == 0
    assert root_product([1, 3, 1], [0, 0, 0, 0]) == 0
    assert root_product([2, 3, 1], [0, 1, 1]) == 0  # common root -1


def _coefficient(bits, bound: int) -> int:
    """An integer in [-bound, bound], from 320 random bits."""
    x = 0
    for _ in range(5):
        x = x << 64 | next(bits)
    return x % (2 * bound + 1) - bound


def _times_root(p: list[int], a: int) -> list[int]:
    """p * (y - a)."""
    out = [0] + p
    for i, c in enumerate(p):
        out[i] -= a * c
    return out


def test_root_product_is_the_resultant_on_random_polynomials():
    # deg q 0-14 and deg p 0 to 2 deg q, coefficients up to 2^256; q with
    # a repeated integer root, and p sharing it, turn up every third and
    # sixth case.  Oracles: fraction-free elimination of the
    # multiplication matrix and of the Sylvester matrix, and cofactor
    # expansion of the Sylvester matrix when it is small
    bits = bit_stream(3030)
    kinds = dict.fromkeys(("wide", "repeated", "shared", "zero", "small-sylvester"), 0)
    for case in range(300):
        dq = case % 15
        dp = next(bits) % (2 * dq + 1)
        bound = (4, 1 << 20, 1 << 256)[next(bits) % 3]
        q = [_coefficient(bits, bound) for _ in range(dq)] + [1]
        p = [_coefficient(bits, bound) for _ in range(dp)] + [_coefficient(bits, bound) or 1]
        if case % 3 == 1 and dq >= 2:  # q = (y - a)^k * (a random monic cofactor)
            a, k = next(bits) % 7 - 3, 2 + next(bits) % (dq - 1)
            q = [_coefficient(bits, bound) for _ in range(dq - k)] + [1]
            for _ in range(k):
                q = _times_root(q, a)
            kinds["repeated"] += 1
            if case % 6 == 1 and dp:
                p = _times_root(p[1:], a)  # degree dp, with the root a
                kinds["shared"] += 1
        expected = norm_by_multiplication_matrix(q, p)
        assert root_product(q, p) == expected, (q, p)
        assert det_bareiss(_sylvester_matrix(q, p)) == expected, (q, p)
        if dq + dp <= 6:
            assert _sylvester_resultant(q, p) == expected, (q, p)
            kinds["small-sylvester"] += 1
        kinds["wide"] += bound > 1 << 64
        kinds["zero"] += expected == 0
    assert min(kinds.values()) >= 20, kinds


def test_root_product_of_the_zero_polynomial():
    for dq in range(15):
        q = list(range(1, dq + 1)) + [1]
        for p in ([], [0], [0] * (2 * dq + 1)):
            assert root_product(q, p) == (0 if dq else 1), (q, p)


def test_root_product_matches_full_sylvester_resultant():
    bits = bit_stream(909)
    for _ in range(200):
        dq = next(bits) % 4
        dp = next(bits) % 5
        q = [next(bits) % 11 - 5 for _ in range(dq)] + [1]
        p = [next(bits) % 11 - 5 for _ in range(dp)] + [1 + next(bits) % 4]
        assert root_product(q, p) == _sylvester_resultant(q, p), (q, p)


def test_root_product_rejects_non_monic():
    with pytest.raises(ValueError):
        root_product([1, 2], [1])
    with pytest.raises(ValueError):
        root_product([], [1])


def test_char_poly_accepts_plain_graph_that_is_a_tree():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert char_poly_tree(g) == char_poly_tree(validate_tree(g))


def test_fold_is_the_remainder_of_the_whole_char_poly():
    # psi_T, phi_T(x) = x^e psi_T(x^2), modulo any monic q of degree 0-6
    # with odd coefficients; each tree also gets a degree-1 q, the ring Z,
    # with q[0] running over -5..5
    bits = bit_stream(4242)
    for seed in range(150):
        t = random_tree(1 + seed % 30, seed + 77)
        psi = char_poly_tree(t)[t.n % 2::2]
        moduli = [[seed % 11 - 5, 1]]
        for _ in range(3):
            dq = next(bits) % 7
            moduli.append([next(bits) % 9 - 4 for _ in range(dq)] + [1])
        for q in moduli:
            assert psi_tree_mod(t, q) == poly_remainder(psi, q), (sorted(t.edges), q)


def test_fold_in_the_integers_agrees_with_the_fold_in_pairs():
    # (y + c)(y + c') is a degree-2 modulus, folded on integer pairs;
    # reduced modulo y + c, its remainder is the degree-1 fold in Z
    trees = trees_up_to(7) + [random_tree(1 + seed * 29 % 400, seed) for seed in range(16)]
    assert max(t.n for t in trees) > 350
    for t in trees:
        for c in range(-3, 4):
            low = psi_tree_mod(t, [c, 1])
            assert type(low) is list and type(low[0]) is int
            for c2 in range(-3, 4):
                pair = psi_tree_mod(t, [c * c2, c + c2, 1])
                assert poly_remainder(pair, [c, 1]) == low, (t.parent, c, c2)


def test_pair_kernel_is_the_remainder_of_the_whole_char_poly():
    # degree-2 moduli fold on integer pairs: q_4 and q_5, read off P_4 and
    # P_5, and random monic quadratics, on every tree shape up to 8
    # vertices and on random trees of up to 2,000 vertices
    bits = bit_stream(1618)
    quadratics = [[1, 3, 1], [3, 4, 1]]
    quadratics += [[next(bits) % 101 - 50, next(bits) % 21 - 10, 1] for _ in range(6)]
    trees = trees_up_to(8) + [random_tree(n, seed) for seed, n in enumerate((97, 640, 2000))]
    for t in trees:
        psi = char_poly_tree(t)[t.n % 2::2]
        for q in quadratics:
            assert psi_tree_mod(t, q) == poly_remainder(psi, q), (t.parent, q)


def test_fold_does_not_depend_on_the_labels():
    # psi_T is a function of the tree's shape: relabelling it by a random
    # permutation moves the root and the breadth-first order, not the fold
    bits = bit_stream(31)
    moduli = [[1], [1, 1], [2, 1], [1, 3, 1], [3, 4, 1], [4, 10, 6, 1], [-2, 0, 5, 0, 1]]
    for seed in range(40):
        t = random_tree(1 + seed * 13 % 300, seed)
        perm = list(range(t.n))
        for i in range(t.n - 1, 0, -1):
            j = next(bits) % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        moved = Graph.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        for q in moduli:
            assert psi_tree_mod(moved, q) == psi_tree_mod(t, q), (t.parent, perm, q)


def test_fold_rejects_non_monic_modulus_and_non_tree():
    for q in ([1, 2], [2], [], [1, 0, 3]):
        with pytest.raises(ValueError):
            psi_tree_mod(path_graph(3), q)
    with pytest.raises(NotATreeError):
        psi_tree_mod(cycle_graph(5), [2, 0, 1])
    with pytest.raises(NotATreeError):
        psi_tree_mod(cycle_graph(5), [2, 1])


def test_fold_equals_whole_char_poly_route():
    # P_s x T for s = 2..8 by the fold modulo q_s, against
    # root_product over the whole characteristic polynomials with q_s
    # read off P_s: 200 random trees up to 400 vertices, then stars,
    # double stars and caterpillars with the hub at the root and deep,
    # where one vertex folds in 50 or more children
    q = {}
    for s in range(2, 9):
        psi_s = char_poly_tree(path_graph(s))[s % 2::2]
        d = len(psi_s) - 1
        q[s] = [(-1) ** (j + d) * c for j, c in enumerate(psi_s)]
    bits = bit_stream(2718)
    trees = [random_tree(1 + next(bits) % 400, seed) for seed in range(200)]
    for legs in ([50], [60], [49, 1], [25, 50], [1, 48, 0, 2], [10, 0, 55, 3], [3, 0, 0, 0, 52]):
        trees += [caterpillar(legs, reverse) for reverse in (False, True)]
    for t in trees:
        psi_t = char_poly_tree(t)[t.n % 2::2]
        for s in range(2, 9):
            assert _path_product(s, t) == abs(root_product(q[s], psi_t)), (t.n, s)


def test_exactlinalg_has_no_float_arithmetic():
    # no integer may come from rounding a float: the exact core has no
    # float literal, no true division and no call that makes or rounds one
    banned_calls = {"float", "round"}
    banned_math = {"sqrt", "log", "exp"}
    with open(pfmatch.exactlinalg.__file__, encoding="utf-8") as handle:
        module = ast.parse(handle.read())
    for node in ast.walk(module):
        where = getattr(node, "lineno", None)
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), where
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.Div), where
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            assert not {alias.name for alias in node.names} & banned_math, where
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                assert func.id not in banned_calls, where
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                assert not (func.value.id == "math" and func.attr in banned_math), where
