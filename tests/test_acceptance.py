"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Counts are compared as exact integers everywhere;
the two trigonometric cross-checks carry 1e-9 (lattice) and 1e-6 (grid)
relative slack on the floating value.
"""

from __future__ import annotations

import math

import pytest

from pfmatch import (
    cartesian_product,
    check_pfaffian,
    count_graph,
    count_grid,
    count_product,
    cycle_graph,
    orient_c4_tree,
    orient_double,
    orient_layered,
    orient_lexicographic,
    path_graph,
    random_tree,
    squarish_decompose,
)

from util import (
    bit_stream,
    char_poly_tree,
    count_by_backtracking,
    det_bareiss,
    doubling_matching,
    enumerate_cycles,
    grid_tilings,
    lattice_log_product,
    matchings_by_size,
    random_orientation,
    skew_adjacency,
    skew_char_poly,
    trees_up_to,
)


def _conclude(name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {verdict} {name}" + (f" ({len(failures)} failures)" if failures else ""))
    assert not failures, failures[:5]


def _random_trees(count: int, max_n: int, seed: int, min_n: int = 1):
    bits = bit_stream(seed)
    for _ in range(count):
        n = min_n + next(bits) % (max_n - min_n + 1)
        yield random_tree(n, next(bits))


def _random_matched_trees(count: int, max_n: int, seed: int):
    bits = bit_stream(seed)
    produced = 0
    while produced < count:
        n = 2 * (1 + next(bits) % (max_n // 2))
        t = random_tree(n, next(bits))
        if count_by_backtracking(t) > 0:
            produced += 1
            yield t


def test_criterion_1_c4_product_formula_matches_brute():
    # every isomorphism class up to 5 vertices, plus 50 random trees up to 6
    failures = []
    for t in trees_up_to(5):
        expected = count_graph(cartesian_product(cycle_graph(4), t), "brute", max_vertices=24).count
        if count_product("c4", 4, t, "formula").count != expected:
            failures.append(("iso", t.edges))
    for t in _random_trees(50, 6, seed=101):
        expected = count_graph(cartesian_product(cycle_graph(4), t), "brute", max_vertices=24).count
        if count_product("c4", 4, t, "formula").count != expected:
            failures.append(("random", t.edges))
    _conclude("criterion 1: C4 x T closed form == brute force", failures)


def test_criterion_2_lattice_product_formula():
    failures = []
    spots = {1: 2, 2: 9, 3: 32}
    for n in range(1, 31):
        exact = count_product("c4", 4, path_graph(n)).count
        log_product = lattice_log_product(n)
        if abs(log_product - math.log(exact)) > 1e-9:
            failures.append(("log", n))
        if abs(math.exp(log_product) - exact) > 1e-9 * exact:
            failures.append(("float", n))
        if n in spots:
            if exact != spots[n]:
                failures.append(("spot", n))
            brute = count_graph(cartesian_product(cycle_graph(4), path_graph(n)), "brute").count
            if exact != brute:
                failures.append(("brute", n))
    _conclude("criterion 2: 2x2xn lattice product formula, n = 1..30", failures)


def test_criterion_3_p4_product_formula_matches_brute():
    failures = []
    for t in trees_up_to(6):
        expected = count_graph(cartesian_product(path_graph(4), t), "brute", max_vertices=24).count
        if count_product("pm", 4, t, "formula").count != expected:
            failures.append(t.edges)
    if count_product("pm", 4, path_graph(2), "formula").count != 5:
        failures.append("spot K2")
    if count_product("pm", 4, path_graph(4), "formula").count != 36:
        failures.append("spot P4")
    _conclude("criterion 3: P4 x T closed form == brute force", failures)


def test_criterion_4_p3_square_identity_and_brute():
    failures = []
    for t in _random_matched_trees(50, 8, seed=404):
        p3 = count_product("pm", 3, t, "formula").count
        if p3 * p3 != count_product("c4", 4, t, "formula").count:
            failures.append(("square", t.edges))
        if 3 * t.n <= 24:
            brute = count_graph(cartesian_product(path_graph(3), t), "brute", max_vertices=24).count
            if p3 != brute:
                failures.append(("brute", t.edges))
    if count_product("pm", 3, path_graph(4), "formula").count != 11:
        failures.append("spot P4")
    _conclude("criterion 4: P3 x T count squares to C4 x T count", failures)


def test_criterion_5_squarish_decomposition():
    failures = []
    for t in _random_trees(200, 12, seed=505):
        c4 = count_product("c4", 4, t, "formula").count
        try:
            dec = squarish_decompose(c4)
        except Exception:
            failures.append(("squarish", t.edges))
            continue
        corank = t.n - 2 * max(k for k, ways in enumerate(matchings_by_size(t)) if ways)
        if (dec.factor == 1) != (corank % 2 == 0):
            failures.append(("factor", t.edges, dec.factor, corank))
    c4_p3 = count_product("c4", 4, path_graph(3), "formula").count
    if squarish_decompose(c4_p3) != squarish_decompose(32):
        failures.append("spot P3")
    p3_dec = squarish_decompose(c4_p3)
    if (p3_dec.factor, p3_dec.root) != (2, 4):
        failures.append("spot P3 values")
    p4_dec = squarish_decompose(count_product("c4", 4, path_graph(4), "formula").count)
    if (p4_dec.factor, p4_dec.root) != (1, 11):
        failures.append("spot P4 values")
    _conclude("criterion 5: C4 x T count is a square or double a square", failures)


def test_criterion_6_coefficient_identities():
    failures = []
    bits = bit_stream(606)
    for t in _random_trees(50, 12, seed=607):
        plain = char_poly_tree(t)
        sizes = matchings_by_size(t)
        n = t.n
        for power, coeff in enumerate(plain):
            k = n - power
            if k % 2 == 1:
                if coeff != 0:
                    failures.append(("odd-power", t.edges))
            else:
                i = k // 2
                want = sizes[i] if i < len(sizes) else 0
                if coeff != (-1) ** i * want:
                    failures.append(("matching-count", t.edges, i))
        expected_skew = [abs(c) for c in plain]
        for _ in range(5):
            d = random_orientation(t, next(bits))
            if skew_char_poly(d) != expected_skew:
                failures.append(("skew", t.edges))
    _conclude("criterion 6: skew char poly == |tree char poly|, a_i == i-matchings", failures)


def _verified_orientations():
    """The orientation families whose Pfaffian-ness the suite asserts."""
    for t in trees_up_to(6):
        yield "double", orient_double(orient_lexicographic(t))
    for t in trees_up_to(6):
        yield "c4", orient_c4_tree(orient_lexicographic(t))
    for t in trees_up_to(5):
        yield "layered-4", orient_layered(orient_lexicographic(t), 4)
    for t in trees_up_to(6):
        if count_by_backtracking(t) > 0:
            yield "layered-3", orient_layered(orient_lexicographic(t), 3)


def _wide_orientations():
    """C4 x T and P4 x T beyond criterion 8's brute-force range: every
    tree shape up to 7 vertices (28 vertices), and one 15-vertex tree
    (60 vertices)."""
    for t, limit in [*((t, 28) for t in trees_up_to(7)), (random_tree(15, 7), 60)]:
        d = orient_lexicographic(t)
        yield "c4", orient_c4_tree(d), limit
        yield "layered-4", orient_layered(d, 4), limit


def test_criterion_7_pfaffian_checks():
    failures = []
    for tag, oriented in _verified_orientations():
        report = check_pfaffian(oriented, max_vertices=24)
        if not report.passed:
            failures.append((tag, oriented.n, report.violations[:2]))
    for tag, oriented, limit in _wide_orientations():
        report = check_pfaffian(oriented, max_vertices=limit)
        if not report.passed:
            failures.append((tag, oriented.n, report.violations[:2]))
    # doubling structure: every cycle crosses the rung matching twice and is nice
    for t in trees_up_to(6):
        product = cartesian_product(path_graph(2), t)
        rungs = doubling_matching(t).edges
        for c in enumerate_cycles(product, max_vertices=24):
            k = len(c)
            crossings = sum(
                1 for i in range(k) if tuple(sorted((c[i], c[(i + 1) % k]))) in rungs
            )
            if crossings != 2 or not count_by_backtracking(product, excluding=c):
                failures.append(("rungs", t.edges, c))
    _conclude("criterion 7: constructed orientations pass the Pfaffian check", failures)


def test_criterion_8_pfaffian_counting_engine():
    failures = []
    for tag, oriented in _verified_orientations():
        det = det_bareiss(skew_adjacency(oriented))
        brute = count_graph(oriented.base, "brute", max_vertices=24).count
        if det != brute ** 2:
            failures.append((tag, oriented.n, det, brute))
        if count_graph(oriented.base, "pfaffian", oriented).count != brute:
            failures.append((tag, oriented.n, "pfaffian"))
    _conclude("criterion 8: Pfaffian counting == brute force on verified orientations", failures)


def test_criterion_9_grid_dimer_formula():
    failures = []
    spots = {(2, 2): 2, (2, 4): 5, (3, 4): 11, (4, 4): 36, (6, 6): 6728,
             (10, 12): 65743732590821, (12, 12): 53060477521960000}
    for m in range(1, 25):
        for n in range(1, 25):
            if (m * n) % 2 or m * n > 144:
                continue
            result = count_grid(m, n)
            if result.count != grid_tilings(m, n):
                failures.append(("oracle", m, n))
            if abs(result.float_estimate - result.count) > 1e-6 * max(result.count, 1):
                failures.append(("slack", m, n))
            if (m, n) in spots and result.count != spots[(m, n)]:
                failures.append(("spot", m, n))
    _conclude("criterion 9: grid dimer formula == independent DP oracle, areas up to 144", failures)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
