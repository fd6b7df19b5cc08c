"""Graph construction, products, trees, the cycle-scan oracle, edge-list I/O."""

import hashlib
import itertools
import time

import pytest

from pfmatch import (
    EdgeListParseError,
    Graph,
    InvalidSizeError,
    NotATreeError,
    SizeLimitError,
    Tree,
    cartesian_product,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    psi_tree_mod,
    random_tree,
    tree_has_perfect_matching,
    validate_tree,
)
from util import (
    _ahu_canonical,
    _bfs_forest,
    bit_stream,
    char_poly_tree,
    count_by_backtracking,
    cycle_census_by_subsets,
    cycles_by_subsets,
    enumerate_cycles,
    nonisomorphic_trees,
    poly_remainder,
    tree_shapes,
    trees_up_to,
)


def test_path_graph_degenerate():
    p1 = path_graph(1)
    assert p1.n == 1 and p1.m == 0


def test_path_graph_k2():
    p2 = path_graph(2)
    assert p2.edges == frozenset({(0, 1)})


def test_path_graph_examples():
    p4 = path_graph(4)
    assert p4.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    with pytest.raises(InvalidSizeError):
        path_graph(0)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_cycle_graph_sizes(m):
    c = cycle_graph(m)
    assert c.n == m and c.m == m
    assert all(len(c.adjacency[v]) == 2 for v in range(m))


def test_cycle_graph_too_small():
    with pytest.raises(InvalidSizeError):
        cycle_graph(2)


def test_product_p2_p2_is_c4():
    prod = cartesian_product(path_graph(2), path_graph(2))
    assert prod.n == 4 and prod.m == 4
    assert sorted(len(prod.adjacency[v]) for v in range(4)) == [2, 2, 2, 2]
    assert len(enumerate_cycles(prod)) == 1  # a single 4-cycle, like C4


def test_product_counts():
    cube = cartesian_product(cycle_graph(4), path_graph(2))
    assert (cube.n, cube.m) == (8, 12)
    grid = cartesian_product(path_graph(3), path_graph(4))
    assert (grid.n, grid.m) == (12, 17)


def test_product_count_identity_random():
    # |V| = |g||h| and |E| = |g||E(h)| + |h||E(g)| on sampled tree pairs
    for seed in range(10):
        g = random_tree(2 + seed % 5, seed)
        h = random_tree(2 + (seed * 7) % 6, seed + 100)
        prod = cartesian_product(g, h)
        assert prod.n == g.n * h.n
        assert prod.m == g.n * h.m + h.n * g.m


def test_product_layer_major_numbering():
    # vertex (i, j) of g x h is i*|h| + j: copies of h are contiguous
    g, h = path_graph(2), path_graph(3)
    prod = cartesian_product(g, h)
    assert {(0, 1), (1, 2)} <= prod.edges                   # layer 0 copy of h
    assert {(3, 4), (4, 5)} <= prod.edges                   # layer 1 copy of h
    assert all((j, 3 + j) in prod.edges for j in range(3))  # rungs


def test_product_rejects_empty_factor():
    with pytest.raises(InvalidSizeError):
        cartesian_product(Graph(n=0, edges=frozenset()), path_graph(2))


def test_from_edges_keeps_sorted_tuples_and_reads_lists():
    # an orientation's base shares the tuples of its forward arcs
    forward, backward = (0, 1), (2, 1)
    g = Graph.from_edges(3, [forward, backward])
    assert g.edges == {(0, 1), (1, 2)} and forward in g.edges
    assert any(e is forward for e in g.edges)
    assert Graph.from_edges(3, [[1, 0], [1, 2]]) == g


def test_validate_tree_accepts_path():
    t = validate_tree(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    assert t.n == 5 and t.root == 0


def test_validate_tree_rejects_cycle_with_witness():
    with pytest.raises(NotATreeError, match="cycle"):
        validate_tree(cycle_graph(4))


def test_validate_tree_rejects_disconnected():
    with pytest.raises(NotATreeError, match="disconnected"):
        validate_tree(Graph.from_edges(4, [(0, 1), (2, 3)]))


def _distances_from_0(g: Graph) -> dict[int, int]:
    """Edge distance from vertex 0 of every vertex reachable from it, by
    relaxing every edge until nothing shortens."""
    dist = {0: 0}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in dist and dist[a] + 1 < dist.get(b, g.n):
                    dist[b] = dist[a] + 1
                    changed = True
    return dist


def _direct_tree(g: Graph):
    """The parent array of Tree(n, edges) built without validate_tree, or
    the message of its NotATreeError."""
    try:
        return Tree(n=g.n, edges=g.edges).parent
    except NotATreeError as exc:
        return str(exc)


def _root_path(parent: list, v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _refusal_by_forest(g: Graph) -> str:
    """The tree check's refusal by the rule of a search of every
    component (util._bfs_forest): the cycle closed by the first non-tree
    edge met in the sorted search from 0, through the two vertices'
    lowest common ancestor, or else the count of vertices outside 0's
    component."""
    order, parent, _ = _bfs_forest(g)
    reached = next((i for i in range(1, g.n) if parent[order[i]] is None), g.n)
    for v in order[:reached]:
        for w in g.adjacency[v]:
            if w != parent[v] and parent[w] != v:
                up_v, up_w = _root_path(parent, v), _root_path(parent, w)
                meet = next(x for x in up_v if x in up_w)
                cycle = up_v[:up_v.index(meet) + 1] + up_w[:up_w.index(meet)][::-1]
                return "not a tree: contains cycle " + "-".join(map(str, cycle))
    return f"not a tree: disconnected ({g.n - reached} of {g.n} vertices unreachable)"


def test_validate_tree_on_every_labelled_graph_up_to_6_vertices():
    # a tree comes back with a BFS tree from 0; a cycle in the component
    # of 0 is named by a simple cycle of g; failing both, the error
    # counts the vertices outside the component of 0.  A Tree built
    # directly from g's fields must pass or fail the same way, and the
    # refusal is exactly the one the search of every component names.
    empty = Graph(n=0, edges=frozenset())
    with pytest.raises(NotATreeError, match="^the empty graph is not a tree$"):
        validate_tree(empty)
    assert _direct_tree(empty) == "the empty graph is not a tree"
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            dist = _distances_from_0(g)
            inside = sum(u in dist for u, _ in g.edges)
            direct = _direct_tree(g)
            try:
                t = validate_tree(g)
            except NotATreeError as exc:
                message = str(exc)
                assert direct == message == _refusal_by_forest(g), g.edges
            else:
                assert direct == t.parent, g.edges
                assert len(dist) == n and g.m == n - 1 and t.root == 0 and t.edges == g.edges
                assert t.parent[0] is None
                assert all(dist[t.parent[v]] == dist[v] - 1 for v in range(1, n)), g.edges
                continue
            if inside >= len(dist):
                prefix = "not a tree: contains cycle "
                assert message.startswith(prefix), (g.edges, message)
                cycle = [int(x) for x in message[len(prefix):].split("-")]
                assert len(cycle) == len(set(cycle)) >= 3, (g.edges, message)
                assert all((min(a, b), max(a, b)) in g.edges
                           for a, b in zip(cycle, cycle[1:] + cycle[:1])), (g.edges, message)
            else:
                assert message == (f"not a tree: disconnected ({n - len(dist)} of {n} "
                                   "vertices unreachable)"), g.edges


def test_tree_refusal_is_the_sorted_search_witness_on_random_graphs():
    # seeded graphs of 7-12 vertices; every third is a tree holding 0
    # beside a component whose cycles are all outside 0's component,
    # which only adds to the unreached count
    bits = bit_stream(35)
    kinds = dict.fromkeys(("tree", "cycle", "disconnected", "cycle outside"), 0)
    for case in range(3000):
        n = 7 + case % 6
        if case % 3:
            density = next(bits) % 40
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if next(bits) % 100 < density])
        else:
            others = sorted(range(1, n), key=lambda _: next(bits))
            k = 1 + next(bits) % (n - 3)  # 0's component; at least 3 vertices remain
            inside, outside = [0] + others[:k - 1], others[k - 1:]
            pairs = [(inside[i], inside[next(bits) % i]) for i in range(1, k)]
            pairs += [(outside[i - 1], outside[i]) for i in range(len(outside))]
            pairs += [(u, v) for u in outside for v in outside if u < v and next(bits) % 4 == 0]
            g = Graph.from_edges(n, set(map(tuple, map(sorted, pairs))))
        outcome = _direct_tree(g)
        if isinstance(outcome, tuple):
            assert list(outcome) == _bfs_forest(g)[1], sorted(g.edges)
            kinds["tree"] += 1
            continue
        assert outcome == _refusal_by_forest(g), sorted(g.edges)
        if case % 3 == 0:
            assert outcome == f"not a tree: disconnected ({n - k} of {n} vertices unreachable)"
            kinds["cycle outside"] += 1
        else:
            kinds["cycle" if "cycle" in outcome else "disconnected"] += 1
    trees = kinds.pop("tree")
    assert trees >= 10 and min(kinds.values()) >= 500, (trees, kinds)


@pytest.mark.parametrize("edges, message", [
    ((), "disconnected (4999999 of 5000000 vertices unreachable)"),
    (((0, 1), (1, 2), (0, 2)), "contains cycle 1-0-2"),
    (((1, 2), (2, 3), (1, 3)), "disconnected (4999999 of 5000000 vertices unreachable)"),
], ids=["no edges", "cycle at 0", "cycle outside 0's component"])
def test_tree_refusal_costs_nothing_per_declared_vertex(edges, message):
    # a failing check searches 0's component alone, so a vertex count
    # taken from a header costs no work per vertex: searching every
    # component took seconds and about 400 MiB at this size
    start = time.perf_counter()
    with pytest.raises(NotATreeError) as caught:
        Tree(n=5_000_000, edges=frozenset(edges))
    assert time.perf_counter() - start < 1.0
    assert str(caught.value) == "not a tree: " + message


def test_validate_tree_accepts_all_random_trees():
    for seed in range(25):
        t = random_tree(1 + seed % 9, seed)
        again = validate_tree(Graph(n=t.n, edges=t.edges))
        assert again.edges == t.edges


def test_random_tree_small_cases():
    assert random_tree(1, 7).n == 1
    assert random_tree(2, 7).edges == frozenset({(0, 1)})


def test_random_tree_deterministic():
    assert random_tree(8, 42).edges == random_tree(8, 42).edges
    assert random_tree(8, 42).edges != random_tree(8, 43).edges


def test_seeded_trees_are_pinned():
    # the benchmark and the tests name trees by (n, seed): these edges and
    # BFS parent arrays must not move
    pinned = {
        (1, 0): ([], (None,)),
        (8, 42): ([(0, 5), (1, 3), (2, 3), (2, 4), (2, 6), (4, 5), (6, 7)],
                  (None, 3, 4, 2, 5, 0, 2, 6)),
        (40, 11): ([(0, 10), (0, 13), (0, 30), (1, 11), (1, 16), (2, 16), (2, 23), (2, 35),
                    (3, 13), (4, 5), (4, 32), (5, 30), (6, 22), (6, 29), (7, 18), (7, 23),
                    (7, 37), (8, 25), (9, 29), (11, 27), (11, 28), (12, 28), (13, 14),
                    (13, 24), (14, 21), (14, 22), (15, 22), (16, 38), (17, 36), (18, 19),
                    (18, 39), (20, 30), (21, 36), (22, 38), (24, 26), (25, 26), (29, 33),
                    (31, 38), (34, 38)],
                   (None, 16, 16, 13, 5, 30, 22, 23, 25, 29, 0, 1, 28, 0, 13, 22, 38, 36, 7,
                    18, 30, 14, 14, 2, 13, 26, 24, 11, 11, 6, 0, 38, 4, 29, 38, 2, 21, 7, 22,
                    18)),
    }
    for (n, seed), (edges, parent) in pinned.items():
        t = random_tree(n, seed)
        assert (sorted(t.edges), t.parent) == (edges, parent), (n, seed)
    assert path_graph(6).parent == (None, 0, 1, 2, 3, 4)


def test_seeded_trees_are_pinned_up_to_200_vertices():
    # every tree random_tree(n, seed) for n <= 200, edges and parents, as
    # one digest per seed: the sampler and the Prüfer decoder may be
    # rewritten, but no (n, seed) may name a different tree
    pinned = {
        0: "10df48d2b2054b6420a7501c818165fe",
        1: "6b2f92f3da5acd710f285e60f5e508e5",
        7: "6e0ac7f60cef27b9fa9855a4fe2ce1c7",
        42: "b76b1d1c1e11a0e4ef487e131de831bc",
        12345: "f23dc119b0fcec16549daa02b842befc",
        2**64 + 5: "fcde1f86741331d508a7a0dd6cb67989",
    }
    for seed, digest in pinned.items():
        h = hashlib.sha256()
        for n in range(1, 201):
            t = random_tree(n, seed)
            h.update(repr((n, sorted(t.edges), t.parent)).encode())
        assert h.hexdigest()[:32] == digest, seed


def test_random_tree_hits_every_labeled_tree_on_3_vertices():
    centers = {next(v for v in range(3) if len(random_tree(3, s).adjacency[v]) == 2) for s in range(64)}
    assert centers == {0, 1, 2}


def test_enumerate_cycles_c4():
    cycles = enumerate_cycles(cycle_graph(4))
    assert cycles == [(0, 1, 2, 3)]


def test_enumerate_cycles_cube_census():
    # frozen from the subset oracle: 6 squares, 16 hexagons, 6 octagons
    cube = cartesian_product(cycle_graph(4), path_graph(2))
    by_len: dict[int, int] = {}
    for c in enumerate_cycles(cube):
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == {4: 6, 6: 16, 8: 6}
    assert cycle_census_by_subsets(cube) == by_len


def test_enumerate_cycles_matches_subset_oracle_on_random_graphs():
    # small random graphs, not just products
    for seed in range(8):
        bits = bit_stream(seed + 500)
        n = 5 + seed % 3
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if next(bits) % 3 == 0]
        g = Graph.from_edges(n, edges)
        assert sorted(enumerate_cycles(g)) == sorted(cycles_by_subsets(g))


def test_enumerate_cycles_tree_empty():
    for seed in range(5):
        assert enumerate_cycles(random_tree(2 + seed, seed)) == []


def test_enumerate_cycles_guard():
    big = cartesian_product(path_graph(5), path_graph(5))
    with pytest.raises(SizeLimitError):
        enumerate_cycles(big, max_vertices=24)
    assert enumerate_cycles(big, max_vertices=25)  # explicit override works


def test_edge_list_roundtrip():
    g = cartesian_product(cycle_graph(4), path_graph(2))
    text = format_edge_list(g, comments=["cube"])
    assert text.startswith("# cube\n8 12\n")
    assert parse_edge_list(text) == g


def test_edge_list_parse_errors():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 2\n0 1\n")  # promised 2 edges, gave 1
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 1\n0 5\n")  # endpoint out of range
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 1\n1 1\n")  # self-loop
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list("3 2\n0 1\n1 0\n")  # repeated pair, reversed
    with pytest.raises(EdgeListParseError, match="line 4"):
        parse_edge_list("# dup\n3 2\n1 2\n1 2\n")  # repeated pair, same way
    with pytest.raises(EdgeListParseError):
        parse_edge_list("-1 0\n")  # negative vertex count


def test_edge_list_ignores_comments_and_blanks():
    g = parse_edge_list("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})


def _corona(t: Graph, pendant_at: list[int]) -> Graph:
    """t plus one pendant vertex on each vertex in pendant_at.

    Block-labelled: t keeps vertices 0..n-1 and the pendants follow as
    one block n, n+1, ..., so each pendant's label is far from its
    neighbor's.
    """
    edges = list(t.edges) + [(v, t.n + i) for i, v in enumerate(pendant_at)]
    return Graph.from_edges(t.n + len(pendant_at), edges)


def test_tree_shapes_are_the_tree_classes():
    # unlabelled trees on n vertices: 1, 1, 1, 2, 3, 6, 11, 23, 47, 106 (OEIS A000055)
    assert [len(tree_shapes(n)) for n in range(1, 11)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n in range(1, 11):
        assert len({_ahu_canonical(t) for t in tree_shapes(n)}) == len(tree_shapes(n))
    for n in range(1, 8):
        assert {_ahu_canonical(t) for t in tree_shapes(n)} \
            == {_ahu_canonical(t) for t in nonisomorphic_trees(n)}


def test_tree_matching_agrees_with_backtracking_on_small_trees():
    # every tree shape up to 7 vertices, and every 8-vertex shape as one
    # of them plus a leaf (enumerating trees_up_to(8) directly takes ~20 s)
    for t in trees_up_to(7):
        grown = [_corona(t, [v]) for v in range(t.n)] if t.n == 7 else []
        for g in [t] + grown:
            assert tree_has_perfect_matching(g) == (count_by_backtracking(g) > 0), g.edges


def test_tree_matching_agrees_with_backtracking_on_coronas():
    bits = bit_stream(77)
    for seed in range(40):
        t = random_tree(1 + seed % 9, seed)
        full = _corona(t, list(range(t.n)))
        assert tree_has_perfect_matching(full) and count_by_backtracking(full) > 0
        partial = _corona(t, [v for v in range(t.n) if next(bits) % 3])
        assert tree_has_perfect_matching(partial) == (count_by_backtracking(partial) > 0), partial.edges


def test_tree_matching_linear_on_large_trees():
    assert not tree_has_perfect_matching(random_tree(200, 7))
    assert tree_has_perfect_matching(path_graph(10_000))
    assert not tree_has_perfect_matching(path_graph(9_999))
    assert tree_has_perfect_matching(_corona(random_tree(3_000, 5), list(range(3_000))))


def test_tree_matching_rejects_non_tree():
    with pytest.raises(NotATreeError):
        tree_has_perfect_matching(cycle_graph(4))


def _depth(t, v):
    """v's distance from the root, read off t.parent alone."""
    d = 0
    while t.parent[v] is not None:
        v, d = t.parent[v], d + 1
    return d


def test_tree_traversal_is_computed_once_and_shared_by_the_tree_routes():
    # order is a tuple built once per tree by its check, which
    # validate_tree does not rerun; tree_has_perfect_matching and
    # psi_tree_mod both walk it.  Only its breadth-first shape is pinned,
    # not which breadth-first order it is
    big = random_tree(2000, 3)
    moduli = ([1], [0, 1], [2, 1], [-3, 1], [5, 2, 1], [1, 0, -3, 0, 1])
    for t in trees_up_to(7) + [big]:
        phi = char_poly_tree(t)
        # the constant term of a tree's char poly is +-(its perfect matchings)
        assert tree_has_perfect_matching(t) == (phi[0] != 0), t.parent
        for q in moduli:
            assert psi_tree_mod(t, q) == poly_remainder(phi[t.n % 2::2], q), (t.parent, q)
        assert type(t.order) is tuple and sorted(t.order) == list(range(t.n))
        assert t.order[0] == t.root and t.parent[t.root] is None
        position = {v: i for i, v in enumerate(t.order)}
        assert all(position[t.parent[v]] < position[v] for v in t.order[1:]), t.parent
        depth = [_depth(t, v) for v in t.order]
        assert depth == sorted(depth), t.parent
        # the check walks unsorted neighbour lists; in a tree the parents
        # are those of the sorted search whatever the neighbour order
        assert t.parent == tuple(_bfs_forest(t)[1])
    assert validate_tree(big) is big
