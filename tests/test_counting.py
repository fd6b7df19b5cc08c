"""Counting engines: brute oracle, Pfaffian route, closed forms, identities."""

import math

import pytest

import pfmatch.counting
import pfmatch.exactlinalg
from pfmatch import (
    CountResult,
    DEFAULT_GRID_GUARD,
    DEFAULT_PFAFFIAN_UPDATE_GUARD,
    Graph,
    InvalidSizeError,
    NotPfaffianError,
    NotSquarishError,
    NumericalConsistencyError,
    OrientedGraph,
    PreconditionError,
    SizeLimitError,
    cartesian_product,
    count_graph,
    count_grid,
    count_perfect_matchings,
    count_product,
    cycle_graph,
    orient_c4_tree,
    orient_layered,
    orient_lexicographic,
    parse_oriented_edge_list,
    path_graph,
    random_tree,
    squarish_decompose,
    validate_tree,
    verify_identities,
)

from util import (
    adjacency_matrix,
    bit_stream,
    count_by_backtracking,
    det_bareiss,
    eval_matrix_poly,
    grid_tilings,
    lattice_log_product,
    matching_count_by_edge_subsets,
    p3_form_by_matchings,
    random_orientation,
    tree_shapes,
    trees_up_to,
)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(i, leaves) for i in range(leaves)])


def grid(m: int, n: int) -> Graph:
    return cartesian_product(path_graph(m), path_graph(n))


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_c4():
    assert count_graph(cycle_graph(4), "brute").count == 2


def test_brute_odd_order_is_zero():
    assert count_graph(path_graph(3), "brute").count == 0


def test_brute_cube_is_nine():
    cube = cartesian_product(cycle_graph(4), path_graph(2))
    result = count_graph(cube, "brute")
    assert result.count == 9
    assert result.method == "brute"
    # independent oracle: enumerate 4-edge subsets of the cube's 12 edges
    assert matching_count_by_edge_subsets(cube) == 9


def test_brute_agrees_with_edge_subset_oracle():
    cases = [
        cycle_graph(4),
        cycle_graph(6),
        grid(2, 3),
        grid(2, 4),
        grid(3, 4),
        star(3),
        path_graph(6),
    ]
    for g in cases:
        assert count_graph(g, "brute").count == matching_count_by_edge_subsets(g)


def test_brute_guard():
    big = cartesian_product(path_graph(7), path_graph(6))
    with pytest.raises(SizeLimitError):
        count_graph(big, "brute")
    assert count_graph(big, "brute", max_vertices=42).count == grid_tilings(7, 6)


# ---------------------------------------------------------------------------
# Pfaffian route
# ---------------------------------------------------------------------------

def test_pfaffian_k2():
    k2 = path_graph(2)
    result = count_graph(k2, "pfaffian", orient_lexicographic(k2))
    assert result.count == 1


def test_pfaffian_cube():
    d = orient_c4_tree(orient_lexicographic(path_graph(2)))
    result = count_graph(d.base, "pfaffian", d)
    assert result.count == 9


def test_pfaffian_all_forward_c4_gives_wrong_count():
    # |Pf| collapses to 0, exposing the bad orientation only by
    # disagreeing with the brute count of 2
    c4 = cycle_graph(4)
    bad = OrientedGraph(n=4, arcs=frozenset([(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert count_graph(bad.base, "pfaffian", bad).count == 0
    assert count_graph(c4, "brute").count == 2


def test_pfaffian_count_refuses_a_non_square_reconstruction(monkeypatch):
    # every residue off by one: the determinants of the lexicographic K4
    # and K6, both 1, come back as 2, which is no skew determinant
    det_mod = pfmatch.exactlinalg._det_mod
    monkeypatch.setattr(pfmatch.exactlinalg, "_det_mod", lambda *args: det_mod(*args) + 1)
    for n in (4, 6):
        k = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        with pytest.raises(NotPfaffianError, match="not a perfect square"):
            count_graph(k, "pfaffian", orient_lexicographic(k))


def test_pfaffian_odd_graph_counts_zero():
    p3 = path_graph(3)
    assert count_graph(p3, "pfaffian", orient_lexicographic(p3)).count == 0


def test_pfaffian_rejects_mismatched_orientation():
    with pytest.raises(PreconditionError, match="orientation is not over the given graph"):
        count_graph(cycle_graph(4), "pfaffian", orient_lexicographic(path_graph(4)))


def test_pfaffian_size_guard():
    # the work budget admits the lexicographic path up to 19,138 vertices
    # and P_2 x T on random_tree(n, 3) up to n = 7,452; it covers the
    # elimination only, so an odd graph still counts 0
    big = path_graph(26002)
    with pytest.raises(SizeLimitError, match="guard"):
        count_graph(big, "pfaffian", orient_lexicographic(big))
    odd = path_graph(26001)
    assert count_graph(odd, "pfaffian", orient_lexicographic(odd)).count == 0
    with pytest.raises(SizeLimitError, match="guard"):
        count_product("pm", 2, random_tree(9000, 3), "pfaffian")
    # C4 x T on 20,000 vertices would need more moduli than the table
    # holds: refused before any elimination
    with pytest.raises(SizeLimitError, match="more than 30 moduli"):
        count_product("c4", 4, random_tree(5000, 1), "pfaffian")


def test_pfaffian_update_guard_refuses_fill_heavy_graphs():
    # K_300 is far below the vertex guard, but each of its 5 moduli
    # would need about n^3 / 3 = 9 million updates
    n = 300
    k = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    assert 5 * n ** 3 // 3 > DEFAULT_PFAFFIAN_UPDATE_GUARD
    with pytest.raises(SizeLimitError, match="guard"):
        count_graph(k, "pfaffian", random_orientation(k, 2))


def test_pfaffian_all_forward_c6_undercounts():
    # det of a skew adjacency matrix is always the squared (signed) matching
    # sum, so bad orientations surface as undercounts, not as exceptions
    c6 = cycle_graph(6)
    bad = OrientedGraph(n=6, arcs=frozenset((i, (i + 1) % 6) for i in range(6)))
    assert count_graph(bad.base, "pfaffian", bad).count < count_graph(c6, "brute").count == 2


def test_pfaffian_sampled_orientations_never_overcount():
    # |Pf| <= Pm with equality exactly for Pfaffian orientations
    for seed in range(20):
        g = cartesian_product(path_graph(2), random_tree(4, seed))
        d = random_orientation(g, seed + 3)
        brute = count_graph(g, "brute").count
        assert count_graph(d.base, "pfaffian", d).count <= brute


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_c4_tree_single_vertex():
    result = count_product("c4", 4, path_graph(1), "formula")
    assert result.count == 2 and result.method == "formula-c4t"


def test_c4_tree_p3():
    assert count_product("c4", 4, path_graph(3), "formula").count == 32
    assert count_graph(cartesian_product(cycle_graph(4), path_graph(3)), "brute").count == 32


def test_c4_tree_star():
    assert count_product("c4", 4, star(3), "formula").count == 100
    assert count_graph(cartesian_product(cycle_graph(4), star(3)), "brute").count == 100


def test_c4_tree_at_ten_thousand_vertices():
    # squarish, with factor 2^e and root the P3 form, here summed over
    # the tree's matchings without any polynomial
    for n in (10000, 10001):
        t = random_tree(n, 7)
        dec = squarish_decompose(count_product("c4", 4, t, "formula").count)
        assert (dec.factor, dec.root) == (2 ** (n % 2), p3_form_by_matchings(t)), n


def test_p4_tree_spots():
    assert count_product("pm", 4, path_graph(1), "formula").count == 1
    assert count_product("pm", 4, path_graph(2), "formula").count == 5
    assert count_product("pm", 4, path_graph(4), "formula").count == 36
    assert grid_tilings(4, 4) == 36


def test_p3_tree_spots():
    assert count_product("pm", 3, path_graph(2), "formula").count == 3
    assert count_product("pm", 3, path_graph(4), "formula").count == 11
    assert grid_tilings(3, 4) == 11


def test_p3_tree_rejects_unmatched_tree():
    with pytest.raises(PreconditionError):
        count_product("pm", 3, path_graph(1), "formula")
    with pytest.raises(PreconditionError):
        count_product("pm", 3, star(3), "formula")


def test_formulas_agree_with_brute_on_random_trees():
    for seed in range(12):
        t = random_tree(1 + seed % 6, seed * 11 + 2)
        assert count_product("c4", 4, t, "formula").count == count_graph(
            cartesian_product(cycle_graph(4), t), "brute", max_vertices=24
        ).count
        assert count_product("pm", 4, t, "formula").count == count_graph(
            cartesian_product(path_graph(4), t), "brute", max_vertices=24
        ).count
        if count_by_backtracking(t) > 0:
            assert count_product("pm", 3, t, "formula").count == count_graph(
                cartesian_product(path_graph(3), t), "brute", max_vertices=24
            ).count


def test_formulas_match_dense_matrix_polynomial_determinants():
    # the dense route det(p(A)), the square of the count for P3 and P4,
    # is the oracle for the characteristic-polynomial route
    bits = bit_stream(2024)
    for _ in range(16):
        t = random_tree(1 + next(bits) % 60, next(bits))
        a = adjacency_matrix(t)
        c4_det = det_bareiss(eval_matrix_poly(a, [2, 0, 1]))
        p4_det = det_bareiss(eval_matrix_poly(a, [1, 0, 3, 0, 1]))
        c4, p4 = count_product("c4", 4, t, "formula"), count_product("pm", 4, t, "formula")
        assert c4.count == c4_det
        assert p4.count ** 2 == p4_det
    matched = 0
    while matched < 8:
        t = random_tree(2 * (1 + next(bits) % 30), next(bits))
        if not count_by_backtracking(t):
            continue
        matched += 1
        det = det_bareiss(eval_matrix_poly(adjacency_matrix(t), [2, 0, 1]))
        p3 = count_product("pm", 3, t, "formula")
        assert p3.count ** 2 == det


def test_formula_and_pfaffian_routes_coincide():
    for seed in range(8):
        t = random_tree(1 + seed % 5, seed + 31)
        d = orient_c4_tree(random_orientation(t, seed))
        formula = count_product("c4", 4, t, "formula").count
        assert count_graph(d.base, "pfaffian", d).count == formula


def corona(t: Graph) -> Graph:
    """t with a pendant leaf on every vertex: a tree with a perfect matching."""
    return validate_tree(Graph.from_edges(2 * t.n, list(t.edges) + [(v, t.n + v) for v in range(t.n)]))


def test_pfaffian_route_agrees_with_closed_forms_at_hundreds_of_vertices():
    # the sparse determinant reaches the formula's scale: C4, P4 and P3 on
    # matched trees of 150 to 500 vertices
    cases = [("c4", 4, random_tree(150, 11)), ("c4", 4, random_tree(500, 12)),
             ("pm", 4, random_tree(300, 13)),
             ("pm", 3, corona(random_tree(75, 14))), ("pm", 3, corona(random_tree(250, 15)))]
    for kind, m, tree in cases:
        formula = count_product(kind, m, tree, "formula")
        pfaffian = count_product(kind, m, tree, "pfaffian")
        assert pfaffian.method == "pfaffian" and pfaffian.dimension == m * tree.n
        assert pfaffian.count == formula.count > 1


# ---------------------------------------------------------------------------
# trigonometric products
# ---------------------------------------------------------------------------

# The 2 x 2 x n lattice is C_4 x P_n, counted by count_product; the
# Narumi-Hosoya product prod_k [2 + 4 cos^2(k pi/(n+1))] is its oracle.

def c4_path(n: int) -> int:
    return count_product("c4", 4, path_graph(n)).count


def test_c4_path_spots():
    assert (c4_path(1), c4_path(2), c4_path(3)) == (2, 9, 32)


def test_c4_path_matches_brute_for_small_n():
    for n in (1, 2, 3):
        product = cartesian_product(cycle_graph(4), path_graph(n))
        assert c4_path(n) == count_graph(product, "brute").count


def test_c4_path_tracks_exact_to_30():
    for n in range(1, 31):
        count = c4_path(n)
        assert abs(lattice_log_product(n) - math.log(count)) <= 1e-9
        assert abs(math.exp(lattice_log_product(n)) - count) <= 1e-9 * count


def test_c4_path_beyond_float_range():
    # the product overflows a float near n = 500; the check stays in log space
    assert abs(lattice_log_product(700) - math.log(c4_path(700))) <= 1e-9
    with pytest.raises(OverflowError):
        math.exp(lattice_log_product(700))
    assert math.isfinite(math.exp(lattice_log_product(400)))


def test_c4_path_rejects_zero():
    with pytest.raises(InvalidSizeError):
        count_product("c4", 4, path_graph(0))


def test_grid_dimer_spots():
    assert count_grid(2, 2).count == 2
    assert count_grid(2, 4).count == 5
    assert count_grid(3, 4).count == 11
    assert count_grid(4, 4).count == 36
    assert count_grid(6, 6).count == 6728


def test_grid_dimer_odd_area_zero():
    result = count_grid(3, 3)
    assert result.count == 0 and "odd" in result.note


def test_grid_dimer_matches_dp_oracle():
    # every grid up to 14 x 14, odd areas included: norms of degree up to 7
    for m in range(1, 15):
        for n in range(1, 15):
            assert count_grid(m, n).count == grid_tilings(m, n), (m, n)


def test_grid_dimer_symmetric():
    assert count_grid(2, 6).count == count_grid(6, 2).count


def test_grid_dimer_exact_beyond_two_to_the_53():
    # a rounded float got these wrong: ...820 and ...959456
    assert count_grid(10, 12).count == 65743732590821
    assert count_grid(12, 12).count == 53060477521960000
    assert count_grid(12, 10).count == 65743732590821


def test_grid_dimer_beyond_float_range():
    result = count_grid(60, 60)
    assert len(str(result.count)) == 449
    assert result.float_estimate is None
    assert str(result.count).startswith("130919334199094226")


def test_grid_dimer_long_strip_is_fibonacci():
    a, b = 0, 1
    for _ in range(1001):
        a, b = b, a + b
    assert count_grid(2, 1000).count == a
    assert count_grid(1000, 2).count == a


def test_grid_dimer_longest_strip_is_fibonacci():
    # 2 x L has F_(L+1) tilings; L = 88674 is the longest strip the guard admits
    with pytest.raises(SizeLimitError):
        count_grid(2, 88675)
    a, b = 0, 1
    for _ in range(88675):
        a, b = b, a + b
    assert count_grid(2, 88674).count == a


def test_grid_dimer_three_wide_follows_its_recurrence():
    # 3 x 2k: a_k = 4 a_(k-1) - a_(k-2), a_0 = 1, a_1 = 3; every k <= 60,
    # then a sample up to 2k = 2000
    seq = [1, 3]
    while len(seq) <= 1000:
        seq.append(4 * seq[-1] - seq[-2])
    for k in [*range(1, 61), *range(97, 1000, 53), 1000]:
        assert count_grid(3, 2 * k).count == seq[k], k


def test_grid_dimer_odd_short_side():
    for m, n in ((3, 8), (8, 3), (5, 6), (1, 10), (10, 1), (7, 4)):
        assert count_grid(m, n).count == grid_tilings(m, n), (m, n)


def test_trigonometric_cross_checks_refuse_a_wrong_exact_count(monkeypatch):
    # exact counts come from _path_product: doubling it moves the log of
    # the count by log 2 or log 4, far outside either tolerance
    grid, c4 = count_grid(8, 8).count, c4_path(30)
    path_product = pfmatch.counting._path_product
    monkeypatch.setattr(pfmatch.counting, "_path_product", lambda s, t: 2 * path_product(s, t))
    with pytest.raises(NumericalConsistencyError,
                       match=rf"^grid log product \S+ is not within 1e-6 of the log "
                             rf"of the exact count {2 * grid}$"):
        count_grid(8, 8)
    assert c4_path(30) == 4 * c4
    assert abs(lattice_log_product(30) - math.log(4 * c4)) > 1e-9


def test_trigonometric_cross_checks_pass_inside_their_tolerance(monkeypatch):
    # one more on _path_product moves log(count) by about 8e-8 on the
    # 8 x 8 grid (tolerance 1e-6), and, as the root of the C4 x P40
    # count, by about 1e-11 there (tolerance 1e-9)
    grid, root = count_grid(8, 8), math.isqrt(c4_path(40))
    path_product = pfmatch.counting._path_product
    monkeypatch.setattr(pfmatch.counting, "_path_product", lambda s, t: path_product(s, t) + 1)
    assert count_grid(8, 8) == CountResult(grid.count + 1, grid.method,
                                           float_estimate=grid.float_estimate)
    assert c4_path(40) == (root + 1) ** 2
    assert abs(lattice_log_product(40) - math.log(c4_path(40))) <= 1e-9


def test_grid_dimer_rejects_bad_sides():
    with pytest.raises(InvalidSizeError):
        count_grid(0, 4)


def test_grid_dimer_equals_layered_product_route():
    # the grid is P_s x T with T = P_L; for L < s the grid takes q from
    # P_L instead, and the Pfaffian route shares no polynomial code
    for s in (3, 4):
        for n in range(1, 41):
            if (s * n) % 2 == 0:
                grid_count = count_grid(s, n).count
                assert grid_count == count_product("pm", s, path_graph(n)).count, (s, n)
                if n <= 12:
                    pfaffian = count_product("pm", s, path_graph(n), method="pfaffian")
                    assert grid_count == pfaffian.count, (s, n)


def test_grid_dimer_size_guard():
    # s * L * (s + L/5000) for sides s <= L; odd areas still count 0 at once
    for m, n in ((200, 200), (2, 100000), (100000, 2), (152, 152), (2, 88676)):
        s, L = sorted((m, n))
        assert s * L * (5000 * s + L) > 5000 * DEFAULT_GRID_GUARD
        with pytest.raises(SizeLimitError):
            count_grid(m, n)
    assert count_grid(201, 201).count == 0


# ---------------------------------------------------------------------------
# squarish decomposition and the identity suite
# ---------------------------------------------------------------------------

def test_squarish_values():
    assert (squarish_decompose(121).factor, squarish_decompose(121).root) == (1, 11)
    assert (squarish_decompose(32).factor, squarish_decompose(32).root) == (2, 4)
    assert (squarish_decompose(1).factor, squarish_decompose(1).root) == (1, 1)
    assert (squarish_decompose(2).factor, squarish_decompose(2).root) == (2, 1)


def test_squarish_reconstructs():
    dec = squarish_decompose(32)
    assert dec.value == 32


def test_squarish_rejects():
    with pytest.raises(NotSquarishError):
        squarish_decompose(12)
    with pytest.raises(PreconditionError):
        squarish_decompose(0)


def test_verify_identities_k2():
    report = verify_identities(path_graph(2), max_vertices=24)
    assert report.passed
    assert report.c4_count == 9 and report.factor == 1 and report.root == 3
    assert report.p3_count == 3
    assert {"squarish", "square-root", "brute-c4", "brute-p3", "brute-p4"} <= set(report.checks)


def test_verify_identities_p3():
    report = verify_identities(path_graph(3), max_vertices=24)
    assert report.passed
    assert report.factor == 2 and report.root == 4
    assert report.p3_count is None  # no perfect matching: square-root clause skipped
    assert "square-root" not in report.checks


def test_verify_identities_p4():
    report = verify_identities(path_graph(4), max_vertices=24)
    assert report.passed
    assert report.c4_count == 121 and report.factor == 1 and report.root == 11
    assert report.p3_count == 11


def test_verify_identities_reports_a_zero_c4_count(monkeypatch):
    # a broken fold may give 0, which squarish_decompose refuses: the
    # report records the clause instead of raising.  The C4 formula
    # squares the P3 form, so breaking the P3 fold breaks the C4 count
    path_product = pfmatch.counting._path_product
    monkeypatch.setattr(pfmatch.counting, "_path_product",
                        lambda s, tree: 0 if s == 3 else path_product(s, tree))
    report = verify_identities(path_graph(4), max_vertices=24)
    assert "squarish" in report.failures
    assert (report.factor, report.root) == (0, 0)


def test_verify_identities_checks_the_brute_route_of_count_product(monkeypatch):
    # every brute-* clause counts through count_product, so a brute route
    # that is off by one fails all three
    brute = pfmatch.counting._brute
    monkeypatch.setattr(pfmatch.counting, "_brute",
                        lambda g, k: CountResult(brute(g, k).count + 1, "brute", g.n))
    report = verify_identities(path_graph(4), max_vertices=24)
    assert report.failures == ("brute-c4", "brute-p4", "brute-p3")


def test_verify_identities_random_sample():
    for seed in range(10):
        report = verify_identities(random_tree(1 + seed % 6, seed * 13 + 5), max_vertices=24)
        assert report.passed, report


def test_squarish_factor_follows_the_parity_of_the_tree():
    # C4 x T = 2^(n mod 2) * (P3 x T form)^2: the factor is 1 for every
    # even tree, matched or not (the star K_{1,3} gives 100 = 10^2), and 2
    # for every odd one; every brute-force clause runs, up to 40 vertices
    for n in range(1, 11):
        for tree in tree_shapes(n):
            report = verify_identities(tree)
            assert report.passed and report.factor == 1 + tree.n % 2, (tree.edges, report)
            assert "brute-c4" in report.checks and "brute-p4" in report.checks
    assert not count_by_backtracking(star(3)) and verify_identities(star(3)).factor == 1


def test_count_result_never_negative():
    with pytest.raises(ValueError):
        CountResult(count=-1, method="brute")


PRODUCT_KINDS = [("c4", 4)] + [("pm", m) for m in range(1, 6)]


def _expected_routes(kind: str, m: int, tree: Graph) -> tuple[bool, bool]:
    """(closed form applies, proven orientation applies), from the paper's
    statements, with the backtracking matching test as the P_3 condition."""
    p3_ok = m != 3 or count_by_backtracking(tree) > 0
    return kind == "c4" or m in (2, 4) or (m == 3 and p3_ok), m <= 4 and p3_ok


def test_count_product_every_method_matches_brute_force():
    for tree in trees_up_to(6):
        for kind, m in PRODUCT_KINDS:
            factor = cycle_graph(4) if kind == "c4" else path_graph(m)
            expected = count_graph(cartesian_product(factor, tree), "brute").count
            formula_ok, pfaffian_ok = _expected_routes(kind, m, tree)
            auto = count_product(kind, m, tree)
            assert auto.count == expected, (kind, m, tree.edges)
            if formula_ok:
                assert auto.method.startswith("formula-")
            else:
                assert auto.method == ("pfaffian" if pfaffian_ok else "brute")
            for method, applies in (("formula", formula_ok), ("pfaffian", pfaffian_ok),
                                    ("brute", True)):
                if applies:
                    result = count_product(kind, m, tree, method)
                    assert result.count == expected, (kind, m, method, tree.edges)
                else:
                    with pytest.raises(PreconditionError, match="try --method brute"):
                        count_product(kind, m, tree, method)


def test_pfaffian_constructions_count_from_any_base_orientation():
    # two orientations of a tree differ by switching vertex signs, so the
    # proven constructions count the product from every base
    for seed, tree in enumerate(trees_up_to(5)):
        base = random_orientation(Graph(n=tree.n, edges=tree.edges), seed)
        for kind, m in PRODUCT_KINDS:
            if _expected_routes(kind, m, tree)[1]:
                d = orient_c4_tree(base) if kind == "c4" else orient_layered(base, m)
                factor = cycle_graph(4) if kind == "c4" else path_graph(m)
                expected = count_graph(cartesian_product(factor, tree), "brute").count
                assert count_graph(d.base, "pfaffian", d).count == expected, (kind, m, tree.edges)


def test_p2_formula_is_the_prism_count_and_the_layered_pfaffian():
    # |psi_T(-1)| against the mask sweep on every tree up to 8 vertices,
    # and against |Pf| of the layered orientation (commuting blocks) at
    # 200 and 2,000 vertices
    for tree in trees_up_to(8):
        result = count_product("pm", 2, tree)
        assert result.method == "formula-p2t" and result.dimension == tree.n
        expected = count_perfect_matchings(cartesian_product(path_graph(2), tree))
        assert result.count == expected, tree.parent
    for n in (100, 1000):
        tree = random_tree(n, n + 5)
        d = orient_layered(orient_lexicographic(tree), 2)
        expected = count_graph(d.base, "pfaffian", d).count
        assert expected > 1 and count_product("pm", 2, tree, "formula").count == expected


def test_count_product_refuses_brute_force_before_building_the_product(monkeypatch):
    def no_product(*graphs):
        raise AssertionError("the product was built")

    monkeypatch.setattr(pfmatch.counting, "cartesian_product", no_product)
    # the star has no perfect matching: P_3 x star has no formula and no proven orientation
    for kind, m, tree, method, vertices in (("pm", 5, path_graph(9), "auto", 45),
                                            ("pm", 3, star(119), "auto", 360),
                                            ("c4", 4, path_graph(11), "brute", 44)):
        with pytest.raises(SizeLimitError, match=f"^brute-force guard: {vertices} vertices > limit 40$"):
            count_product(kind, m, tree, method, max_vertices=40)


def test_count_grid_refuses_brute_force_before_building_the_grid(monkeypatch):
    def no_product(*graphs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(pfmatch.counting, "cartesian_product", no_product)
    for m, n in ((2, 100000), (200, 200)):
        with pytest.raises(SizeLimitError, match=f"^brute-force guard: {m * n} vertices > limit 40$"):
            count_grid(m, n, "brute")
    with pytest.raises(InvalidSizeError):
        count_grid(0, 5, "brute")


def test_count_product_rejects_bad_requests():
    tree = path_graph(4)
    with pytest.raises(PreconditionError):
        count_product("c5", 5, tree)
    with pytest.raises(PreconditionError):
        count_product("pm", 2, tree, "fastest")
    with pytest.raises(InvalidSizeError):
        count_product("c4", 3, tree)
    with pytest.raises(InvalidSizeError):
        count_product("pm", 0, tree)
    with pytest.raises(SizeLimitError):
        count_product("pm", 5, path_graph(9), max_vertices=40)


def test_count_grid_routes():
    assert count_grid(6, 6).method == "kasteleyn-grid"
    assert count_grid(6, 6, "formula").count == count_grid(6, 6, "brute").count == 6728
    assert count_grid(5, 8, "brute").count == grid_tilings(5, 8)
    with pytest.raises(SizeLimitError):
        count_grid(7, 6, "brute")
    assert count_grid(7, 6, "brute", max_vertices=42).count == grid_tilings(7, 6)
    with pytest.raises(PreconditionError, match="--grid supports auto, formula, or brute"):
        count_grid(2, 2, "pfaffian")
    for m in range(1, 41):
        for n in range(1, 40 // m + 1):
            assert count_grid(m, n, "brute").count == grid_tilings(m, n), (m, n)


def test_count_graph_routes():
    c4 = cycle_graph(4)
    d = parse_oriented_edge_list("4 4\n0 -> 1\n1 -> 2\n2 -> 3\n0 -> 3\n")
    assert count_graph(c4).method == count_graph(c4, "brute", d).method == "brute"
    assert count_graph(c4, "pfaffian", d).method == "pfaffian"
    assert {count_graph(c4, m, d).count for m in ("auto", "brute", "pfaffian")} == {2}
    with pytest.raises(PreconditionError, match="needs --orient-file"):
        count_graph(c4, "pfaffian")
    with pytest.raises(PreconditionError, match="no closed form applies to a plain graph"):
        count_graph(c4, "formula")
    with pytest.raises(PreconditionError):
        count_graph(c4, "fastest")
    with pytest.raises(SizeLimitError):
        count_graph(path_graph(41))


def test_count_pfaffian_accepts_orientation_file_of_a_path():
    # a Tree and the plain Graph parsed from a file are the same graph
    d = parse_oriented_edge_list("4 3\n0 -> 1\n1 -> 2\n2 -> 3\n")
    assert count_graph(path_graph(4), "pfaffian", d).count == 1
