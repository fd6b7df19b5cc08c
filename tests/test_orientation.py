"""Orientation constructors, skew adjacency, the Pfaffian check."""

import time

import pytest

from pfmatch import (
    EdgeListParseError,
    Graph,
    NotATreeError,
    OrientedGraph,
    SizeLimitError,
    cartesian_product,
    check_pfaffian,
    count_perfect_matchings,
    cycle_graph,
    format_oriented_edge_list,
    orient_c4_tree,
    orient_double,
    orient_layered,
    orient_lexicographic,
    parse_oriented_edge_list,
    path_graph,
    random_tree,
    validate_tree,
)
from pfmatch.orientation import _LISTING_BUDGET, _alternating_cycles, _perfect_matching_mates

from util import (
    Matching,
    bit_stream,
    count_by_backtracking,
    cycles_by_subsets,
    det_cofactor,
    doubling_matching,
    enumerate_cycles,
    identity_matrix,
    matching_count_by_edge_subsets,
    pfaffian_scan,
    pfaffian_violations_by_subsets,
    random_orientation,
    skew_adjacency,
    trees_up_to,
)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(i, leaves) for i in range(leaves)])


def all_forward_c4() -> OrientedGraph:
    return OrientedGraph(n=4, arcs=frozenset([(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_orient_lexicographic():
    assert orient_lexicographic(path_graph(3)).arcs == frozenset({(0, 1), (1, 2)})
    assert orient_lexicographic(path_graph(2)).arcs == frozenset({(0, 1)})
    assert orient_lexicographic(star(3)).arcs == frozenset({(0, 3), (1, 3), (2, 3)})


def test_orientation_rejects_incomplete_or_double_arcs():
    # arcs that miss an edge orient a smaller graph, which orients() tells apart
    partial = OrientedGraph(n=3, arcs=frozenset({(0, 1)}))
    assert partial.base == Graph(n=3, edges=frozenset({(0, 1)}))
    assert not partial.orients(path_graph(3))
    with pytest.raises(ValueError, match="not both ways"):
        OrientedGraph(n=2, arcs=frozenset({(0, 1), (1, 0)}))


def test_orient_double_k2():
    d = orient_double(orient_lexicographic(path_graph(2)))
    # left copy keeps 0->1, right copy (vertices 2,3) is reversed, rungs go right
    assert d.arcs == frozenset({(0, 1), (3, 2), (0, 2), (1, 3)})


def test_orient_double_single_vertex():
    d = orient_double(orient_lexicographic(path_graph(1)))
    assert d.n == 2 and d.arcs == frozenset({(0, 1)})


def test_orient_double_arc_count():
    for seed in range(5):
        t = random_tree(3 + seed, seed)
        d = orient_double(random_orientation(t, seed))
        assert len(d.arcs) == 2 * t.m + t.n


def test_orient_double_self_converse_under_half_swap():
    # exchanging the halves realizes the converse of the whole doubling;
    # equivalently, the doublings of d and of its converse agree on both
    # copies and differ exactly by reversing every rung arc
    for seed in range(5):
        t = random_tree(5, seed)
        d = random_orientation(t, seed + 50)
        n = t.n
        swap = {v: (v + n) % (2 * n) for v in range(2 * n)}
        doubled = orient_double(d)
        swapped = frozenset((swap[u], swap[v]) for u, v in doubled.arcs)
        assert swapped == frozenset((v, u) for u, v in doubled.arcs)
        rungs_reversed = frozenset(
            (v, u) if abs(u - v) == n else (u, v) for u, v in swapped
        )
        reversed_d = OrientedGraph(n=d.n, arcs=frozenset((v, u) for u, v in d.arcs))
        assert rungs_reversed == orient_double(reversed_d).arcs


def test_orient_layered_m1_and_m2():
    d = random_orientation(random_tree(5, 3), 3)
    assert orient_layered(d, 1) == d
    assert orient_layered(d, 2) == orient_double(d)


def test_orient_layered_k2_four_layers():
    d = orient_layered(orient_lexicographic(path_graph(2)), 4)
    assert d.n == 8
    layer_arcs = {a for a in d.arcs if abs(a[0] - a[1]) == 1 and a[0] // 2 == a[1] // 2}
    assert layer_arcs == {(0, 1), (3, 2), (4, 5), (7, 6)}  # alternating with the converse
    rungs = d.arcs - layer_arcs
    assert rungs == {(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)}  # all forward


def test_stacked_orientations_keep_the_product_graph():
    # the stacked constructors build P_m x T themselves; the product
    # builder is the oracle for the graph they orient
    for t in trees_up_to(6):
        for seed in range(2):
            d = random_orientation(Graph(n=t.n, edges=t.edges), seed)
            for m in range(1, 6):
                assert orient_layered(d, m).base == cartesian_product(path_graph(m), d.base)
            assert orient_c4_tree(d).base == cartesian_product(
                path_graph(2), cartesian_product(path_graph(2), d.base))


def test_lexicographic_orientation_keeps_the_tree_as_its_base():
    # the stacked constructors then get a Tree and do not check it again;
    # base is no field of equality or repr, so both are those of the
    # orientation derived from the arcs
    t = random_tree(30, 4)
    d = orient_lexicographic(t)
    assert d.base is t
    derived = OrientedGraph(n=t.n, arcs=frozenset(t.edges))
    assert d == derived and repr(d) == repr(derived) and hash(d) == hash(derived)
    assert orient_layered(d, 1).base is t
    assert orient_c4_tree(d).base == cartesian_product(path_graph(2), cartesian_product(path_graph(2), t))


def test_orient_layered_rejects_non_tree():
    with pytest.raises(NotATreeError):
        orient_layered(orient_lexicographic(cycle_graph(4)), 3)


def test_orient_c4_tree_smallest():
    d = orient_c4_tree(orient_lexicographic(path_graph(1)))
    assert d.n == 4 and len(d.arcs) == 4
    assert check_pfaffian(d).passed


def test_orient_c4_tree_cube():
    d = orient_c4_tree(orient_lexicographic(path_graph(2)))
    assert d.n == 8 and len(d.arcs) == 12
    assert check_pfaffian(d).passed


def test_orient_c4_tree_arc_count():
    for seed in range(4):
        t = random_tree(2 + seed, seed)
        d = orient_c4_tree(random_orientation(t, seed))
        assert len(d.arcs) == 4 * t.m + 4 * t.n


def test_orient_c4_tree_is_the_doubled_doubling():
    # the one-pass builder against its definition, under random base
    # orientations: every tree of up to 7 vertices, then seeded trees
    trees = [(t, k) for k, t in enumerate(trees_up_to(7))]
    trees += [(random_tree(n, seed), seed) for n, seed in ((20, 1), (64, 2), (133, 3), (250, 4))]
    for t, seed in trees:
        d = random_orientation(t, seed)
        one_pass, doubled = orient_c4_tree(d), orient_double(orient_double(d))
        assert one_pass.n == doubled.n
        assert one_pass.base.edges == doubled.base.edges
        assert one_pass.arcs == doubled.arcs


def _blocks(parts: list[list[list[list[int]]]]) -> list[list[int]]:
    out = []
    for block_row in parts:
        rows = len(block_row[0])
        for i in range(rows):
            out.append(sum((list(b[i]) for b in block_row), []))
    return out


def _neg(mat: list[list[int]]) -> list[list[int]]:
    return [[-x for x in row] for row in mat]


@pytest.mark.parametrize("seed", range(4))
def test_c4_tree_block_structure(seed):
    # four layers in index order carry d, conv, conv, d; with the rung
    # directions of the double doubling the skew matrix is exactly:
    t = random_tree(2 + seed * 2, seed)
    d = random_orientation(t, seed + 9)
    a = skew_adjacency(d)
    n = t.n
    eye = identity_matrix(n)
    zero = [[0] * n for _ in range(n)]
    expected = _blocks([
        [a, eye, eye, zero],
        [_neg(eye), _neg(a), zero, eye],
        [_neg(eye), zero, _neg(a), _neg(eye)],
        [zero, _neg(eye), eye, a],
    ])
    assert skew_adjacency(orient_c4_tree(d)) == expected


@pytest.mark.parametrize("seed", range(4))
def test_p4_block_structure(seed):
    # every layer count: diagonal blocks A, -A, A, ..., +I above the
    # diagonal and -I below it
    t = random_tree(2 + seed * 2, seed)
    d = random_orientation(t, seed + 17)
    a = skew_adjacency(d)
    n = t.n
    eye = identity_matrix(n)
    zero = [[0] * n for _ in range(n)]

    def block(i: int, j: int) -> list[list[int]]:
        if i == j:
            return _neg(a) if i % 2 else a
        return eye if j == i + 1 else _neg(eye) if i == j + 1 else zero

    for m in range(2, 7):
        expected = _blocks([[block(i, j) for j in range(m)] for i in range(m)])
        assert skew_adjacency(orient_layered(d, m)) == expected, m


@pytest.mark.parametrize("g", [
    cycle_graph(3),
    cycle_graph(6),
    Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (4, 5)]),
    Graph.from_edges(5, [(0, 1), (3, 4)]),
    Graph(n=4, edges=frozenset()),
    Graph(n=0, edges=frozenset()),
], ids=["triangle", "hexagon", "triangle-tail-and-edge", "two-edges-and-a-vertex",
        "empty-4", "empty-0"])
def test_orient_double_block_structure_on_any_graph(g):
    # [[A, I], [-I, -A]] off trees too: odd cycles, several components, no edges
    d = random_orientation(g, g.n + len(g.edges))
    a = skew_adjacency(d)
    eye = identity_matrix(g.n)
    assert skew_adjacency(orient_double(d)) == _blocks([[a, eye], [_neg(eye), _neg(a)]])


def test_skew_adjacency_examples():
    d = OrientedGraph(n=2, arcs=frozenset({(0, 1)}))
    assert skew_adjacency(d) == [[0, 1], [-1, 0]]
    empty = OrientedGraph(n=3, arcs=frozenset())
    assert skew_adjacency(empty) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_skew_adjacency_antisymmetric():
    for seed in range(6):
        d = random_orientation(random_tree(7, seed), seed)
        a = skew_adjacency(d)
        n = len(a)
        assert all(a[i][j] == -a[j][i] for i in range(n) for j in range(n))


def test_check_pfaffian_all_forward_c4_fails():
    report = check_pfaffian(all_forward_c4())
    assert not report.passed
    assert report.violations == ((0, 1, 2, 3),)


def test_check_pfaffian_report_counts_nice_even_cycles():
    cube = orient_c4_tree(orient_lexicographic(path_graph(2)))
    report = check_pfaffian(cube)
    assert report.passed and report.violations == ()
    # a pass compares the two counts and walks no cycle
    assert report.route == "matching-signs"
    assert report.matchings == report.pfaffian == 9 and report.nice_even_cycles == 0
    # the first matching M is the four tree edges; the M-alternating
    # cycles are the four squares through two of them and the two
    # Hamiltonian cycles alternating with them, all oddly oriented
    mate = next(_perfect_matching_mates(cube.base, [_LISTING_BUDGET]))
    assert mate == (1, 0, 3, 2, 5, 4, 7, 6)
    walked = list(_alternating_cycles(cube, mate, [_LISTING_BUDGET]))
    assert len(walked) == len({c for c, _ in walked}) == 6
    assert all(odd for _, odd in walked)
    # one flipped arc fails the check, and the failure runs the full scan:
    # all 28 cycles of the cube are even; the 24 nice ones: every 4-cycle
    # and 8-cycle, and 12 of the 16 hexagons (a hexagon's 2-vertex
    # remainder must be one of the 12 edges)
    flipped = OrientedGraph(n=cube.n, arcs=cube.arcs - {(0, 1)} | {(1, 0)})
    broken = check_pfaffian(flipped)
    assert not broken.passed and broken.route == "nice-cycles"
    assert broken.nice_even_cycles == 24
    assert broken.matchings == 9 and broken.pfaffian ** 2 == det_cofactor(skew_adjacency(flipped))
    assert broken.pfaffian < 9


def test_check_pfaffian_long_path_walks_no_cycle():
    # a pass costs one signed sweep whose frontier stays small on a path,
    # where the alternating-cycle walk from every start was quadratic
    start = time.perf_counter()
    report = check_pfaffian(orient_lexicographic(path_graph(4000)))
    elapsed = time.perf_counter() - start
    assert report.passed and report.matchings == report.pfaffian == 1
    assert elapsed < 1.0, elapsed


def test_check_pfaffian_unbalanced_bipartite_pass_runs_only_the_sweep():
    # K_9,11 has no perfect matching: the sweep decides the vacuous pass in
    # milliseconds, where a depth-first search for a first matching took
    # about 14 s to exhaust the graph
    g = Graph.from_edges(20, [(u, v) for u in range(9) for v in range(9, 20)])
    start = time.perf_counter()
    report = check_pfaffian(orient_lexicographic(g))
    elapsed = time.perf_counter() - start
    assert report.passed and report.route == "matching-signs"
    assert report.matchings == report.pfaffian == 0
    assert elapsed < 1.0, elapsed


def test_check_pfaffian_vertex_guard_bounds_only_the_failure_listing():
    # C4 x T on 40 vertices passes: a pass is the sweep alone, bounded by
    # the state guard
    d = orient_c4_tree(orient_lexicographic(random_tree(10, 1)))
    report = check_pfaffian(d)
    assert report.passed and report.matchings == report.pfaffian == count_perfect_matchings(d.base)
    # a failure lists at any size, and this one runs out of the listing's
    # budget: about 3 s on a shared two-core host
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=r"^Pfaffian check guard: not Pfaffian "
                       r"\(\|Pf\| 182528 < 246016 perfect matchings\), and listing the "
                       r"violations takes more than 8,000,000 units of work$"):
        check_pfaffian(_lowest_arc_flipped(d))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed


def test_perfect_matching_mates_is_not_bounded_by_recursion():
    # the failure listing's search holds one stack entry per matched pair
    mate = next(_perfect_matching_mates(path_graph(4000), [_LISTING_BUDGET]))
    assert mate == tuple(v ^ 1 for v in range(4000))


def _lowest_arc_flipped(d: OrientedGraph) -> OrientedGraph:
    u, v = min(d.arcs)
    return OrientedGraph(n=d.n, arcs=d.arcs - {(u, v)} | {(v, u)})


_K55 = Graph.from_edges(10, [(u, v) for u in range(5) for v in range(5, 10)])


def _grid_3x4_last_arc_flipped() -> OrientedGraph:
    """Kasteleyn's orientation of the 3 x 4 grid (rows left to right, columns
    alternately down and up) with the arc 10 -> 11 reversed: the first
    matching's fourth alternating cycle is the first violation."""
    rows = [(i * 4 + j, i * 4 + j + 1) for i in range(3) for j in range(3)]
    columns = [(i * 4 + j, (i + 1) * 4 + j) if j % 2 == 0 else ((i + 1) * 4 + j, i * 4 + j)
               for i in range(2) for j in range(4)]
    arcs = frozenset(rows + columns) - {(10, 11)} | {(11, 10)}
    return OrientedGraph(n=12, arcs=arcs)


@pytest.mark.parametrize("oriented, violations, nice", [
    pytest.param(_lowest_arc_flipped(orient_c4_tree(orient_lexicographic(random_tree(4, 1)))),
                 420, 940, id="c4-tree-4"),
    pytest.param(_lowest_arc_flipped(orient_c4_tree(orient_lexicographic(random_tree(5, 1)))),
                 1_616, 3_993, id="c4-tree-5"),
    pytest.param(random_orientation(_K55, 139), 1_980, 3_940, id="k5,5"),
    pytest.param(_grid_3x4_last_arc_flipped(), 12, 25, id="grid-3x4"),
])
def test_check_pfaffian_failure_lists_match_the_cycle_scan(oriented, violations, nice):
    # the alternating cycles of every perfect matching are exactly the
    # nice even cycles: the listing equals the exhaustive scan, order included
    report = check_pfaffian(oriented)
    assert report.route == "nice-cycles"
    assert (len(report.violations), report.nice_even_cycles) == (violations, nice)
    assert (report.nice_even_cycles, list(report.violations)) == pfaffian_scan(oriented)


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("oriented, violations, nice", [
    pytest.param(_lowest_arc_flipped(orient_c4_tree(orient_lexicographic(random_tree(6, 1)))),
                 11_134, 21_372, id="c4-tree-6"),
    pytest.param(orient_lexicographic(_complete(10)), 154_376, 308_070, id="k10"),
])
def test_check_pfaffian_step_guard_admits_the_largest_desk_listings(oriented, violations, nice):
    # 1.88 M and 5.60 M units of work, inside the listing's budget of 8 M
    report = check_pfaffian(oriented)
    assert (len(report.violations), report.nice_even_cycles) == (violations, nice)


def test_check_pfaffian_step_guard_bounds_the_failure_listing_on_dense_graphs():
    # listing all the violations of the lexicographic K12 takes minutes;
    # the listing's budget stops it after about 2-3 s on a shared two-core host
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=r"\(\|Pf\| 1 < 10395 perfect matchings\), "
                       r"and listing the violations takes more than 8,000,000 units of work"):
        check_pfaffian(orient_lexicographic(_complete(12)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed


@pytest.mark.parametrize("tree_vertices", [7, 15])
def test_check_pfaffian_budget_bounds_the_failure_listing_on_flipped_products(tree_vertices):
    # the lowest-arc-flipped C4 x T on 28 and 60 vertices (40 is above):
    # sparse, so the budget goes on the walks, refused after about 3 s
    d = _lowest_arc_flipped(orient_c4_tree(orient_lexicographic(random_tree(tree_vertices, 1))))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="more than 8,000,000 units of work"):
        check_pfaffian(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed


def test_check_pfaffian_lists_a_long_forward_cycle():
    # the evenly oriented C_2400 is its own one nice cycle: a failure lists
    # at any size, and this one spends 0.73 M units of the budget
    d = OrientedGraph(n=2400, arcs=frozenset((i, (i + 1) % 2400) for i in range(2400)))
    report = check_pfaffian(d)
    assert (report.matchings, report.pfaffian) == (2, 0)
    assert report.nice_even_cycles == 1 and report.violations == (tuple(range(2400)),)


def _search_tries(g: Graph, free: frozenset) -> int:
    """Edges the lowest-free-vertex search tries below the free set, dead
    ends included: an independent recursion over the same search tree."""
    if not free:
        return 0
    v = min(free)
    return sum(1 + _search_tries(g, free - {v, w}) for w in g.adjacency[v] if w in free)


def _walk_cost(g: Graph, mate) -> int:
    """2m + n, plus one for every non-matching neighbour scanned from the
    end of every alternating path the walk grows: an independent recursion."""
    cost = 2 * len(g.edges) + g.n

    def grow(s: int, end: int, onpath: frozenset) -> None:
        nonlocal cost
        for w in g.adjacency[end]:
            if w == mate[end]:
                continue
            cost += 1
            if w > s and mate[w] > s and w not in onpath:
                grow(s, mate[w], onpath | {w, mate[w]})

    for s, t in enumerate(mate):
        if t > s:
            grow(s, t, frozenset((s, t)))
    return cost


_K24 = Graph.from_edges(6, [(u, v) for u in range(2) for v in range(2, 6)])


@pytest.mark.parametrize("g", [
    pytest.param(_K24, id="k2,4"),  # no perfect matching: every try is a dead end
    pytest.param(cartesian_product(path_graph(2), star(3)), id="p2xstar3"),
    pytest.param(orient_c4_tree(orient_lexicographic(path_graph(2))).base, id="cube"),
    pytest.param(_complete(6), id="k6"),
    pytest.param(_grid_3x4_last_arc_flipped().base, id="grid-3x4"),
])
def test_listing_budget_charges_every_try_and_every_scanned_neighbour(g):
    # the budget is a bound in time only if the search pays for its dead
    # ends and the walk for the neighbours it rejects
    budget = [_LISTING_BUDGET]
    mates = list(_perfect_matching_mates(g, budget))
    assert _LISTING_BUDGET - budget[0] == _search_tries(g, frozenset(range(g.n)))
    assert len(mates) == count_perfect_matchings(g)
    d = orient_lexicographic(g)
    for mate in mates:
        budget = [_LISTING_BUDGET]
        walked = list(_alternating_cycles(d, mate, budget))
        assert _LISTING_BUDGET - budget[0] == _walk_cost(g, mate), mate
        assert len(walked) == len({c for c, _ in walked})
    # one unit short of the whole search or walk refuses
    with pytest.raises(SizeLimitError):
        list(_perfect_matching_mates(g, [_search_tries(g, frozenset(range(g.n))) - 1]))
    if mates:
        with pytest.raises(SizeLimitError):
            list(_alternating_cycles(d, mates[0], [_walk_cost(g, mates[0]) - 1]))


def _connected(g: Graph) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _alternates(c: tuple[int, ...], matching) -> bool:
    k = len(c)
    used = [tuple(sorted((c[i], c[(i + 1) % k]))) in matching for i in range(k)]
    return k % 2 == 0 and all(used[i] != used[(i + 1) % k] for i in range(k))


def test_check_pfaffian_agrees_with_determinant_and_subset_oracles():
    # an orientation is Pfaffian iff all perfect matchings carry one sign,
    # i.e. iff det(skew adjacency) == (number of perfect matchings)^2;
    # random graphs on 1..8 vertices under random orientations
    bits = bit_stream(404)
    seen = {"non-pfaffian": 0, "odd": 0, "disconnected": 0, "unmatchable": 0}
    for _ in range(600):
        n = 1 + next(bits) % 8
        density = next(bits) % 101
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if next(bits) % 100 < density])
        d = random_orientation(g, next(bits))
        count = matching_count_by_edge_subsets(g)
        report = check_pfaffian(d)
        assert report.passed == (det_cofactor(skew_adjacency(d)) == count ** 2), sorted(d.arcs)
        # the verdict's evidence pair: Pm by edge subsets, Pf^2 = det A by cofactors
        assert report.matchings == count
        assert report.pfaffian ** 2 == det_cofactor(skew_adjacency(d))

        # every perfect matching once, as a mate array, in lexicographic
        # order of the sorted edge lists; the first is M
        mates = list(_perfect_matching_mates(g, [_LISTING_BUDGET]))
        assert len(mates) == count_perfect_matchings(g) == count
        matchings = [tuple((v, w) for v, w in enumerate(mate) if v < w) for mate in mates]
        assert matchings == sorted(set(matchings))
        for mate, found in zip(mates, matchings):
            assert all(mate[w] == v for v, w in enumerate(mate))
            assert set(found) <= g.edges and sorted(v for e in found for v in e) == list(range(n))
        first = matchings[0] if matchings else ()

        # the walk examines every M-alternating cycle exactly once, with its
        # parity, and every one is oddly oriented iff the counts agree
        walked = list(_alternating_cycles(d, mates[0], [_LISTING_BUDGET])) if mates else []
        assert len(walked) == len({c for c, _ in walked}) == sum(
            1 for c in cycles_by_subsets(g) if _alternates(c, first))
        for c, odd in walked:
            assert odd == (sum((u, v) in d.arcs for u, v in zip(c, c[1:] + c[:1])) % 2 == 1)
        assert report.passed == all(odd for _, odd in walked)
        if report.passed:
            assert (report.nice_even_cycles, report.violations) == (0, ())
        else:
            assert list(report.violations) == pfaffian_violations_by_subsets(d)
            assert (report.nice_even_cycles, list(report.violations)) == pfaffian_scan(d)
        seen["non-pfaffian"] += not report.passed
        seen["odd"] += n % 2
        seen["disconnected"] += not _connected(g)
        seen["unmatchable"] += count == 0
    assert seen["non-pfaffian"] >= 50 and min(seen.values()) > 0, seen


def test_doubling_cycles_use_two_rungs_and_are_nice():
    # structure of the doubling: each cycle crosses the rung matching exactly twice
    for t in trees_up_to(5):
        product = cartesian_product(path_graph(2), t)
        rungs = doubling_matching(t)
        assert rungs.is_perfect
        for c in enumerate_cycles(product):
            k = len(c)
            crossing = sum(
                1 for i in range(k)
                if tuple(sorted((c[i], c[(i + 1) % k]))) in rungs.edges
            )
            assert crossing == 2
            assert count_by_backtracking(product, excluding=c) > 0


def test_every_even_cycle_of_doubling_oddly_oriented():
    # stronger than the Pfaffian property: holds for every even cycle,
    # nice or not: exhaustively over ALL orientations of all tree shapes
    # up to 5 vertices, then sampled at 6
    import itertools

    doublings = []
    for t in trees_up_to(5):
        edges = sorted(t.edges)
        for flips in itertools.product((False, True), repeat=len(edges)):
            arcs = frozenset(
                (v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)
            )
            doublings.append(orient_double(OrientedGraph(n=t.n, arcs=arcs)))
    for seed in range(8):
        doublings.append(orient_double(random_orientation(random_tree(6, seed), seed + 77)))
    for doubled in doublings:
        for c in enumerate_cycles(doubled.base):
            k = len(c)
            forward = sum((c[i], c[(i + 1) % k]) in doubled.arcs for i in range(k))
            assert k % 2 == 0 and forward % 2 == 1


def test_matching_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        Matching(host=g, edges=frozenset({(0, 2)}))  # not an edge
    with pytest.raises(ValueError):
        Matching(host=g, edges=frozenset({(0, 1), (1, 2)}))  # shared vertex
    perfect = Matching(host=g, edges=frozenset({(0, 1), (2, 3)}))
    assert perfect.is_perfect
    assert not Matching(host=g, edges=frozenset({(1, 2)})).is_perfect


def test_oriented_edge_list_roundtrip():
    d = orient_c4_tree(orient_lexicographic(path_graph(2)))
    text = format_oriented_edge_list(d, comments=["doubled doubling of an edge"])
    assert parse_oriented_edge_list(text) == d


def test_oriented_edge_list_rejects_conflicting_arcs():
    with pytest.raises(ValueError):
        parse_oriented_edge_list("2 2\n0 -> 1\n1 -> 0\n")
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_oriented_edge_list("2 2\n0 -> 1\n0 -> 1\n")  # repeated arc
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_oriented_edge_list("2 1\n0 1\n")  # an edge line where an arc belongs


def test_validate_tree_witness_survives_orientation_constructors():
    t = validate_tree(Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)]))
    d = orient_lexicographic(t)
    assert orient_layered(d, 3).n == 18
    assert orient_c4_tree(d).n == 24
