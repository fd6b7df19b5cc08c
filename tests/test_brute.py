"""The brute-force counter: one sweep over windows in reverse Cuthill-McKee order."""

import itertools
import math
import time

import pytest

import pfmatch.brute
import pfmatch.exactlinalg
from pfmatch import (
    DEFAULT_BRUTE_STATE_GUARD,
    Graph,
    OrientedGraph,
    PfaffianReport,
    SizeLimitError,
    abs_pfaffian,
    cartesian_product,
    check_pfaffian,
    count_perfect_matchings,
    count_product,
    cycle_graph,
    orient_c4_tree,
    orient_lexicographic,
    path_graph,
    random_tree,
    validate_tree,
)
from pfmatch.brute import _sweep_order, count_signed_matchings

from util import (
    bit_stream,
    count_by_backtracking,
    cuthill_mckee_order,
    induced_subgraph,
    matching_count_by_edge_subsets,
    pfaffian_by_expansion,
    random_orientation,
    signed_mask_sweep,
    skew_adjacency,
    trees_up_to,
)


def _random_graph(bits, n: int) -> Graph:
    """n vertices; each pair is an edge with a per-graph probability in
    {0, 1/8, ..., 5/8}, or every pair for a small complete graph."""
    density = next(bits) % 6 if n > 10 or next(bits) % 8 else 8
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if next(bits) % 8 < density])


def _relabelled(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _shuffled(bits, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = next(bits) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _connected(g: Graph) -> bool:
    reached = {0} if g.n else set()
    frontier = list(reached)
    while frontier:
        fresh = {w for v in frontier for w in g.adjacency[v]} - reached
        reached |= fresh
        frontier = list(fresh)
    return len(reached) == g.n


def test_sweep_equals_backtracking_and_edge_subsets_on_random_graphs():
    bits = bit_stream(2027)
    kinds = {"odd": 0, "disconnected": 0, "edgeless": 0, "excluding": 0, "edge-subsets": 0}
    for case in range(600):
        n = case % 17
        g = _random_graph(bits, n)
        excluding = [v for v in range(n) if next(bits) % 5 == 0] if case % 3 == 0 else []
        expected = count_by_backtracking(g, excluding)
        kept = [v for v in range(n) if v not in excluding]
        rest = induced_subgraph(g, kept)
        assert count_perfect_matchings(rest) == expected, (case, g.edges, excluding)
        perm = _shuffled(bits, n)  # rest again, numbered in the order perm gives it
        shuffled = induced_subgraph(_relabelled(g, perm), sorted(perm[v] for v in kept))
        assert count_perfect_matchings(shuffled) == expected, (case, perm)
        if math.comb(rest.m, rest.n // 2) <= 20_000:
            assert matching_count_by_edge_subsets(rest) == expected, (case, g.edges, excluding)
            kinds["edge-subsets"] += 1
        kinds["odd"] += rest.n % 2
        kinds["edgeless"] += not g.m
        kinds["excluding"] += bool(excluding)
        kinds["disconnected"] += not _connected(rest)
    assert min(kinds.values()) >= 20, kinds


def test_sweep_equals_backtracking_on_products_with_small_trees():
    for tree in trees_up_to(6):
        for factor in (cycle_graph(4), path_graph(4), path_graph(5)):
            g = cartesian_product(factor, tree)
            assert count_perfect_matchings(g) == count_by_backtracking(g), (factor.n, tree.edges)


def test_cuthill_mckee_order_is_deterministic_and_narrow():
    # a path under any labelling is walked from one end: consecutive positions are adjacent
    bits = bit_stream(5)
    for n in (1, 2, 9, 30):
        perm = _shuffled(bits, n)
        g = _relabelled(path_graph(n), perm)
        order = cuthill_mckee_order(g)
        assert sorted(order) == list(range(n))
        assert all((min(u, v), max(u, v)) in g.edges for u, v in zip(order, order[1:]))
        assert order[0] == min(v for v in range(n) if len(g.adjacency[v]) <= 1)
    # neighbours are queued by ascending degree, not label: the leaf 4 before 2
    assert cuthill_mckee_order(Graph.from_edges(5, [(0, 1), (1, 4), (1, 2), (2, 3)])) == [0, 1, 4, 2, 3]
    assert cuthill_mckee_order(Graph.from_edges(5, [])) == [0, 1, 2, 3, 4]


def _assert_sweep_order_is_reverse_cuthill_mckee(g: Graph) -> None:
    position, ahead, _ = _sweep_order(g)
    order = cuthill_mckee_order(g)[::-1]
    assert position == [order.index(v) for v in range(g.n)], sorted(g.edges)
    # bit j of ahead[i]: position i + j is a neighbour of position i
    assert ahead == [sum(1 << (order.index(w) - i) for w in g.adjacency[v] if order.index(w) > i)
                     for i, v in enumerate(order)], sorted(g.edges)


def test_sweep_order_is_the_reverse_cuthill_mckee_oracle():
    # the bucket pass against the oracle's sorted search, on random graphs
    # with isolated vertices and several components, and on the products
    # the identity checks sweep
    bits = bit_stream(2031)
    kinds = {"isolated": 0, "components": 0, "ties": 0}
    for case in range(1200):
        n = case % 31
        if case % 4:
            g = _random_graph(bits, n)
        else:  # two copies side by side, and one isolated vertex when n is odd
            h = _random_graph(bits, n // 2)
            g = Graph.from_edges(n, [*h.edges, *((u + h.n, v + h.n) for u, v in h.edges)])
        _assert_sweep_order_is_reverse_cuthill_mckee(g)
        degrees = [len(a) for a in g.adjacency]
        kinds["isolated"] += 0 in degrees and g.m > 0
        kinds["components"] += not _connected(g) and g.m > 0
        kinds["ties"] += len(set(degrees)) < g.n
    assert min(kinds.values()) >= 100, kinds
    for tree in trees_up_to(6):
        for factor in (cycle_graph(4), path_graph(4)):
            _assert_sweep_order_is_reverse_cuthill_mckee(cartesian_product(factor, tree))


def test_forty_vertex_product_is_fast():
    tree = random_tree(10, 3)
    g = cartesian_product(cycle_graph(4), tree)
    started = time.perf_counter()
    count = count_perfect_matchings(g)
    assert time.perf_counter() - started < 0.1
    assert count == count_product("c4", 4, tree, "formula").count


def _assert_sweep_is_the_mask_sweep(d: OrientedGraph, monkeypatch) -> None:
    # a window at v is the free mask whose lowest free position is v, so
    # the sweep gives the mask sweep's numbers from exactly its states
    g = d.base
    count, signed, created = signed_mask_sweep(d)
    assert count_signed_matchings(d) == (count, signed), sorted(d.arcs)
    assert count_perfect_matchings(g) == count, sorted(d.arcs)
    if g.n % 2 or 2 * g.m < g.n or not g.n or not _sweep_order(g)[2]:
        return  # answered before the sweep creates a state
    monkeypatch.setattr(pfmatch.brute, "DEFAULT_BRUTE_STATE_GUARD", created)
    assert count_signed_matchings(d) == (count, signed), sorted(d.arcs)
    if created > 1:  # the guard is read when a state after the first is created
        monkeypatch.setattr(pfmatch.brute, "DEFAULT_BRUTE_STATE_GUARD", created - 1)
        with pytest.raises(SizeLimitError, match=(
                f"^brute-force state guard: more than {created - 1} matching states "
                f"created on {g.n} vertices$")):
            count_signed_matchings(d)
    monkeypatch.undo()


def test_sweep_is_the_mask_sweep_on_every_labelled_graph_up_to_6_vertices(monkeypatch):
    bits = bit_stream(2039)
    guarded = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            _assert_sweep_is_the_mask_sweep(random_orientation(g, next(bits)), monkeypatch)
            guarded += n % 2 == 0 and 2 * g.m >= n > 0 and _sweep_order(g)[2]
    assert guarded >= 25_000, guarded


def test_signed_sweep_is_the_pfaffian_in_the_sweep_order(monkeypatch):
    # the sweep relabels by its order, so its signed sum is exactly the
    # Pfaffian of the skew matrix with rows and columns in that order;
    # the Pfaffian check reads only |Pf|, but the sign pins every factor
    bits = bit_stream(2029)
    kinds = {"odd": 0, "zero": 0, "cancelled": 0, "negative": 0}
    for case in range(300):
        n = case % 11
        g = _random_graph(bits, n)
        d = random_orientation(g, next(bits))
        count, signed = count_signed_matchings(d)
        position = _sweep_order(g)[0]
        order = sorted(range(n), key=position.__getitem__)
        a = skew_adjacency(d)
        assert count == count_perfect_matchings(g), (case, sorted(d.arcs))
        assert signed == pfaffian_by_expansion([[a[u][v] for v in order] for u in order]), (
            case, sorted(d.arcs))
        _assert_sweep_is_the_mask_sweep(d, monkeypatch)
        kinds["odd"] += n % 2
        kinds["zero"] += n % 2 == 0 and count == 0
        kinds["cancelled"] += abs(signed) < count
        kinds["negative"] += signed < 0
    assert min(kinds.values()) >= 10, kinds


def test_parity_rules_out_matchings_before_the_sweep():
    # K19,21 has sides of 19 and 21 vertices: both sweeps give 0 before
    # creating a state (its sweep would pass the state guard);
    # two triangles are components of odd order; K4's breadth-first
    # sides have 1 and 3 vertices, but an odd cycle joins them
    k = Graph.from_edges(40, [(u, v) for u in range(19) for v in range(19, 40)])
    start = time.perf_counter()
    assert count_perfect_matchings(k) == 0
    assert count_signed_matchings(OrientedGraph(n=40, arcs=k.edges)) == (0, 0)
    assert time.perf_counter() - start < 0.1
    triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not _sweep_order(triangles)[2] and count_perfect_matchings(triangles) == 0
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert _sweep_order(k4)[2] and count_perfect_matchings(k4) == 3
    # a bipartite component with equal sides beside one without
    both = Graph.from_edges(8, [(0, 1), (2, 3), (3, 4), (3, 5), (6, 7)])
    assert not _sweep_order(both)[2] and count_perfect_matchings(both) == 0


def test_too_few_edges_give_zero_before_any_work_per_vertex(monkeypatch):
    # 2m < n leaves some vertex uncovered, so every count is 0 before the
    # sweep's order or the sides are built.  At 5,000,000 declared
    # vertices and one edge, building them took seconds (the sides) or
    # exhausted memory (the order's n-bit masks); 2m = n still sweeps
    pair = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert count_perfect_matchings(pair) == 1 == abs_pfaffian(orient_lexicographic(pair))
    assert count_signed_matchings(orient_lexicographic(pair)) in ((1, 1), (1, -1))

    def per_vertex_work(g):
        raise AssertionError(f"work per vertex on {g.n} vertices and {g.m} edges")

    monkeypatch.setattr(pfmatch.brute, "_sweep_order", per_vertex_work)
    monkeypatch.setattr(pfmatch.exactlinalg, "_sides", per_vertex_work)
    n = 5_000_000
    d = OrientedGraph(n=n, arcs=frozenset({(1, 0)}))
    start = time.perf_counter()
    assert count_perfect_matchings(d.base) == 0
    assert count_signed_matchings(d) == (0, 0)
    assert abs_pfaffian(d) == 0
    assert check_pfaffian(d) == PfaffianReport(nice_even_cycles=0, violations=(), matchings=0,
                                               pfaffian=0)
    assert time.perf_counter() - start < 1.0


def test_signed_sweep_shares_the_state_guard():
    # K40 passes the count's 40-vertex guard but not its state guard; the
    # signed sweep refuses it the same way (about 0.75 s alone)
    k40 = Graph.from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40)])
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match=f"more than {DEFAULT_BRUTE_STATE_GUARD} matching states"):
        count_signed_matchings(OrientedGraph(n=40, arcs=k40.edges))
    assert time.perf_counter() - start < 3.0


def test_long_narrow_products_cost_time_linear_in_their_order():
    # windows are as wide as the order's bandwidth, so C_4 x P_N costs
    # O(N) where n-bit masks cost O(N^2): the mask sweep took about 1 s
    # for this check at N = 5,000, and grew quadratically in time and memory
    d = orient_c4_tree(orient_lexicographic(path_graph(5000)))
    start = time.perf_counter()
    report = check_pfaffian(d)
    assert time.perf_counter() - start < 0.5
    assert report.passed and report.matchings == report.pfaffian > 0
    # C_4 x P_N creates 12N - 12 states: the guard admits N = 16,667
    for n, refused in ((16_667, False), (16_668, True)):
        g = cartesian_product(cycle_graph(4), path_graph(n))
        start = time.perf_counter()
        if refused:
            with pytest.raises(SizeLimitError, match=(
                    "^brute-force state guard: more than 200000 matching states created "
                    "on 66672 vertices$")):
                count_perfect_matchings(g)
        else:
            count = count_perfect_matchings(g)
        assert time.perf_counter() - start < 3.0, n
    assert count == count_product("c4", 4, validate_tree(path_graph(16_667)), "formula").count
