"""CLI surface: dispatch, formats, exit codes, determinism."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import pfmatch.brute
import pfmatch.counting
import pfmatch.exactlinalg
from pfmatch.cli import (
    COMMANDS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SIZE_LIMIT,
    EXIT_VIOLATION,
    OPTIONS,
    ROUTES,
    _flag,
    _plain_args,
    build_parser,
    main,
    parse_graph_spec,
)
from pfmatch import (
    DEFAULT_BRUTE_STATE_GUARD,
    OrientedGraph,
    count_grid,
    count_product,
    format_edge_list,
    format_oriented_edge_list,
    orient_c4_tree,
    orient_lexicographic,
    parse_edge_list,
    parse_oriented_edge_list,
    path_graph,
    random_tree,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_exit_codes_distinct():
    codes = {EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_SIZE_LIMIT, EXIT_VIOLATION, EXIT_NUMERIC}
    assert len(codes) == 6


def test_parse_graph_spec_generators():
    assert parse_graph_spec("path:4").n == 4
    assert parse_graph_spec("cycle:5").m == 5
    assert parse_graph_spec("tree-random:6:9").n == 6


def test_count_formula_c4(capsys):
    code, out, _ = run(capsys, "count", "--product", "c4", "--tree", "path:3")
    assert code == EXIT_OK
    assert "method: formula-c4t" in out and "count: 32" in out


def test_count_brute_cycle(capsys):
    code, out, _ = run(capsys, "count", "--graph", "cycle:4", "--method", "brute")
    assert code == EXIT_OK and "count: 2" in out


def test_count_p3_unmatched_tree_falls_back_to_brute(capsys):
    code, payload, _ = run_json(capsys, "count", "--product", "p3", "--tree", "path:3")
    assert code == EXIT_OK
    assert payload["method"] == "brute" and payload["count"] == "0"


def test_count_p2_uses_the_formula_and_pfaffian_on_request(capsys):
    code, payload, _ = run_json(capsys, "count", "--product", "p2", "--tree", "path:3")
    assert code == EXIT_OK
    assert payload["method"] == "formula-p2t" and payload["count"] == "3"
    code, payload, _ = run_json(capsys, "count", "--product", "p2", "--method", "pfaffian",
                                "--tree", "path:3")
    assert code == EXIT_OK
    assert payload["method"] == "pfaffian" and payload["count"] == "3"


def test_count_p4_formula(capsys):
    code, payload, _ = run_json(capsys, "count", "--product", "p4", "--tree", "path:4")
    assert code == EXIT_OK
    assert payload["method"] == "formula-p4t" and payload["count"] == "36"


def test_count_pm5_routes_to_brute(capsys):
    code, payload, _ = run_json(capsys, "count", "--product", "pm:5", "--tree", "path:2")
    assert code == EXIT_OK
    assert payload["method"] == "brute" and payload["count"] == "8"


def test_count_grid(capsys):
    code, payload, _ = run_json(capsys, "count", "--grid", "6", "6")
    assert code == EXIT_OK
    assert payload["method"] == "kasteleyn-grid" and payload["count"] == "6728"


def test_count_grid_brute(capsys):
    code, payload, _ = run_json(capsys, "count", "--grid", "2", "4", "--method", "brute")
    assert code == EXIT_OK
    assert payload["method"] == "brute" and payload["count"] == "5"


def test_count_method_formula_structure_error(capsys):
    code, _, err = run(capsys, "count", "--product", "pm:5", "--tree", "path:2",
                       "--method", "formula")
    assert code == EXIT_PRECONDITION and "brute" in err


def test_count_json_roundtrips_exact_integer(capsys):
    code, payload, _ = run_json(capsys, "count", "--product", "c4", "--tree", "path:12")
    assert code == EXIT_OK
    from pfmatch import path_graph
    assert int(payload["count"]) == count_product("c4", 4, path_graph(12), "formula").count


def test_json_deterministic_modulo_timing(capsys):
    _, first, _ = run_json(capsys, "count", "--product", "c4", "--tree", "tree-random:7:5")
    _, second, _ = run_json(capsys, "count", "--product", "c4", "--tree", "tree-random:7:5")
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert json.dumps(first) == json.dumps(second)


def test_orient_c4_arc_count(capsys):
    code, out, _ = run(capsys, "orient", "--c4", "--tree", "path:2")
    assert code == EXIT_OK
    oriented = parse_oriented_edge_list(out.rsplit("elapsed:", 1)[0])
    assert oriented.n == 8 and len(oriented.arcs) == 12


def test_orient_layers_of_single_vertex_is_path(capsys):
    code, out, _ = run(capsys, "orient", "--layers", "4", "--tree", "path:1")
    assert code == EXIT_OK
    oriented = parse_oriented_edge_list(out.rsplit("elapsed:", 1)[0])
    assert oriented.n == 4 and sorted(oriented.arcs) == [(0, 1), (1, 2), (2, 3)]


def test_orient_double_of_cycle(capsys):
    code, out, _ = run(capsys, "orient", "--double", "--graph", "cycle:4")
    assert code == EXIT_OK
    oriented = parse_oriented_edge_list(out.rsplit("elapsed:", 1)[0])
    assert oriented.n == 8 and len(oriented.arcs) == 12


def test_orient_rejects_non_tree(capsys):
    code, _, err = run(capsys, "orient", "--c4", "--tree", "cycle:4")
    assert code == EXIT_PRECONDITION and "tree" in err


#: One argv per row of ROUTES, in its order, with every selecting option.
_ROUTE_ARGVS = [
    ["count", "--graph", "path:4"],
    ["count", "--product", "c4", "--tree", "path:2"],
    ["count", "--grid", "2", "2"],
    ["orient", "--double", "--graph", "cycle:4"],
    ["orient", "--double", "--tree", "path:2"],
    ["orient", "--c4", "--tree", "path:2"],
    ["orient", "--layers", "3", "--tree", "path:2"],
    ["verify", "--identities", "--tree", "path:4"],
    ["verify", "--pfaffian", "--graph", "cycle:4", "--orient-file", "arcs.txt"],
    ["verify", "--pfaffian", "--double", "--graph", "cycle:4"],
    ["verify", "--pfaffian", "--double", "--tree", "path:2"],
    ["verify", "--pfaffian", "--c4", "--tree", "path:2"],
    ["verify", "--pfaffian", "--layers", "3", "--tree", "path:2"],
    ["product", "path:2", "path:2"],
]


@pytest.mark.parametrize("command", _ROUTE_ARGVS)
def test_max_vertices_is_refused_where_nothing_reads_it(capsys, command):
    # every vertex guard is a fixed constant: no command's parser takes the
    # flag, whatever its value
    assert len(_ROUTE_ARGVS) == len(ROUTES)
    for value in ("5", "0", "-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--max-vertices", value])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_PARSE and err.startswith(f"usage: pfmatch {command[0]} ")
        assert f"unrecognized arguments: --max-vertices {value}" in err


@pytest.mark.parametrize("command", [["count", "--graph", "path:4"],
                                     ["verify", "--identities", "--tree", "path:4"]])
def test_negative_max_vertices_is_a_parse_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--max-vertices", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_PARSE and err.startswith(f"usage: pfmatch {command[0]} ")
    assert "unrecognized arguments: --max-vertices -1" in err
    # without the flag the fixed guard admits four vertices: brute force runs
    code, out, err = run(capsys, *command)
    assert code == EXIT_OK and err == ""
    if command[0] == "verify":
        assert "checks run: squarish, squarish-factor, square-root, brute-c4, brute-p4, brute-p3\n" in out
    else:
        assert "method: brute\ncount: 1\n" in out


def test_orient_output_file(tmp_path, capsys):
    target = tmp_path / "oriented.txt"
    code, out, _ = run(capsys, "orient", "--c4", "--tree", "path:2", "--output", str(target))
    assert code == EXIT_OK and str(target) in out
    assert parse_oriented_edge_list(target.read_text()).n == 8


@pytest.mark.parametrize("argv, listed", [(["orient", "--c4", "--tree", "tree-random:6:2"], "arcs"),
                                          (["product", "cycle:4", "tree-random:6:2"], "edges")])
def test_emitted_text_file_and_json_list_agree(tmp_path, capsys, argv, listed):
    # the text is built only when printed or written, the list only for --json
    code, out, _ = run(capsys, *argv)
    text = out.rsplit("elapsed:", 1)[0]
    target = tmp_path / "out.txt"
    json_code, payload, _ = run_json(capsys, *argv, "--output", str(target))
    assert code == json_code == EXIT_OK and target.read_text() == text
    assert payload[listed] == [line for line in text.splitlines() if line[0] != "#"][1:]
    code, out, _ = run(capsys, *argv, "--output", str(target))
    assert code == EXIT_OK and out.startswith(f"wrote {target}\n")
    code, bare, _ = run_json(capsys, *argv)
    assert code == EXIT_OK and bare[listed] == payload[listed]

def test_product_cube_header(capsys):
    code, out, _ = run(capsys, "product", "cycle:4", "path:2")
    assert code == EXIT_OK
    assert "8 12" in out


def test_product_grid_header(capsys):
    code, out, _ = run(capsys, "product", "path:3", "path:4")
    assert code == EXIT_OK and "12 17" in out


def test_product_trivial(capsys):
    code, out, _ = run(capsys, "product", "path:1", "path:1")
    assert code == EXIT_OK and "1 0" in out


def test_product_roundtrips_through_parser(capsys, tmp_path):
    target = tmp_path / "grid.txt"
    run(capsys, "product", "path:3", "path:4", "--output", str(target))
    g = parse_edge_list(target.read_text())
    assert g.n == 12 and g.m == 17
    code, payload, _ = run_json(capsys, "count", "--graph", str(target), "--method", "brute")
    assert code == EXIT_OK and payload["count"] == "11"


def test_verify_pfaffian_random_tree(capsys):
    code, out, _ = run(capsys, "verify", "--pfaffian", "--c4", "--tree", "tree-random:5:42")
    assert code == EXIT_OK and "verdict: pass" in out


def test_verify_pfaffian_names_route_and_cycles_checked(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--pfaffian", "--c4", "--tree", "path:2")
    assert code == EXIT_OK
    assert "route: matching-signs" in out and "perfect matchings: 9, |Pf|: 9" in out
    assert "cycles checked" not in out
    bad = tmp_path / "allforward.txt"
    bad.write_text("4 4\n0 -> 1\n1 -> 2\n2 -> 3\n3 -> 0\n")
    code, out, _ = run(capsys, "verify", "--pfaffian", "--graph", "cycle:4", "--orient-file", str(bad))
    assert code == EXIT_VIOLATION
    assert "route: nice-cycles" in out and "cycles checked: 1 nice even" in out
    assert "perfect matchings: 2, |Pf|: 0" in out


def test_header_inflated_inputs_cost_no_work_per_declared_vertex(tmp_path, capsys, monkeypatch):
    # a two-byte header field declares 5,000,000 vertices: a failing tree
    # check searches 0's component alone, and one edge cannot cover the
    # vertices, so both answer as before in milliseconds.  Searching
    # every component took seconds; the sweep's n-bit masks exhausted memory
    n = 5_000_000
    tree, graph, arcs = (tmp_path / name for name in ("tree.txt", "graph.txt", "arcs.txt"))
    tree.write_text(f"{n} 0\n")
    graph.write_text(f"{n} 1\n0 1\n")
    arcs.write_text(f"{n} 1\n0 -> 1\n")

    def per_vertex_work(g):
        raise AssertionError(f"work per vertex on {g.n} vertices and {g.m} edges")

    monkeypatch.setattr(pfmatch.brute, "_sweep_order", per_vertex_work)
    monkeypatch.setattr(pfmatch.exactlinalg, "_sides", per_vertex_work)
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--product", "c4", "--tree", str(tree))
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == f"error: not a tree: disconnected ({n - 1} of {n} vertices unreachable)\n"
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--graph", str(graph), "--method", "pfaffian",
                       "--orient-file", str(arcs))
    assert code == EXIT_OK and "count: 0" in out.splitlines()
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "verify", "--pfaffian", "--graph", str(graph),
                                "--orient-file", str(arcs))
    assert code == EXIT_OK and payload["route"] == "matching-signs"
    assert payload["matchings"] == "0" == payload["pfaffian"]
    assert time.perf_counter() - start < 1.0


def test_count_pfaffian_size_guard(capsys):
    # a 15,000-vertex product needs 29 moduli and about 6.3 million units
    # of work, above DEFAULT_PFAFFIAN_UPDATE_GUARD: refused within the
    # first elimination
    start = time.perf_counter()
    code, _, err = run(capsys, "count", "--product", "c4", "--method", "pfaffian",
                       "--tree", "tree-random:3750:1")
    assert code == EXIT_SIZE_LIMIT and "guard" in err
    assert time.perf_counter() - start < 1.0


def test_count_pfaffian_counts_five_thousand_vertex_product(capsys):
    # 5,004 vertices: within the work budget, and equal to the closed form
    code, payload, _ = run_json(capsys, "count", "--product", "c4", "--method", "pfaffian",
                                "--tree", "tree-random:1251:1")
    assert code == EXIT_OK and payload["method"] == "pfaffian"
    assert payload["count"] == str(count_product("c4", 4, random_tree(1251, 1), "formula").count)


def test_count_grid_size_guard(capsys):
    # both would compute for far longer than a second: the guard refuses them first
    for sides in (("200", "200"), ("2", "100000")):
        start = time.perf_counter()
        code, _, err = run(capsys, "count", "--grid", *sides)
        assert code == EXIT_SIZE_LIMIT and "guard" in err
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("edges", [
    [(u, v) for u in range(40) for v in range(u + 1, 40)],
    [(u, v) for u in range(20) for v in range(20, 40)],
    # the band |i - j| <= 17 never holds many states at once, but creates
    # 573,439 over the sweep (about 4 s to count)
    [(u, v) for u in range(40) for v in range(u + 1, min(u + 18, 40))],
], ids=["K40", "K20,20", "band17"])
def test_count_brute_dense_graph_hits_state_guard(tmp_path, capsys, edges):
    # within the 40-vertex guard, but with far too many matchings to
    # enumerate: the sweep stops at its counted work, the state guard.
    # Each refusal takes 0.4-0.9 s alone (1.3 s on a loaded 2-core
    # host); the wall-clock bound only catches a guard that stopped
    # bounding the time
    path = tmp_path / "dense.txt"
    path.write_text(f"40 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    start = time.perf_counter()
    code, _, err = run(capsys, "count", "--graph", str(path), "--method", "brute")
    assert code == EXIT_SIZE_LIMIT
    assert f"state guard: more than {DEFAULT_BRUTE_STATE_GUARD} matching states" in err
    assert time.perf_counter() - start < 3.0


def test_count_product_on_ten_thousand_vertices(capsys):
    # the closed forms fold the tree in O(n) ring operations; a route
    # through the whole characteristic polynomial takes minutes here
    for product in ("p4", "c4"):
        start = time.perf_counter()
        code, _, _ = run(capsys, "count", "--product", product, "--tree", "tree-random:10000:7")
        assert code == EXIT_OK
        assert time.perf_counter() - start < 2.0


def test_every_error_class_owns_an_exit_code():
    import pfmatch
    classes = [getattr(pfmatch, name) for name in pfmatch.__all__]
    errors = [c for c in classes if isinstance(c, type) and issubclass(c, pfmatch.PfmatchError)]
    codes = {c.exit_code for c in errors}
    assert codes == {2, 3, 4, 5, 6}
    assert codes == {EXIT_PARSE, EXIT_PRECONDITION, EXIT_SIZE_LIMIT, EXIT_VIOLATION, EXIT_NUMERIC}


def test_verify_pfaffian_json_carries_route_and_counts(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "verify", "--pfaffian", "--c4", "--tree", "path:2")
    assert code == EXIT_OK
    assert (payload["route"], payload["matchings"], payload["pfaffian"]) == ("matching-signs", "9", "9")
    bad = tmp_path / "allforward.txt"
    bad.write_text("4 4\n0 -> 1\n1 -> 2\n2 -> 3\n3 -> 0\n")
    code, payload, _ = run_json(capsys, "verify", "--pfaffian", "--graph", "cycle:4",
                                "--orient-file", str(bad))
    assert code == EXIT_VIOLATION
    assert (payload["route"], payload["matchings"], payload["pfaffian"]) == ("nice-cycles", "2", "0")


def test_verify_identities_path4(capsys):
    code, out, _ = run(capsys, "verify", "--identities", "--tree", "path:4")
    assert code == EXIT_OK
    assert "121 = 1 * 11^2" in out and "verdict: pass" in out


@pytest.mark.parametrize("kind, m, skew, clauses", [
    ("pm", 3, lambda count: count + 1, ("square-root", "brute-p3")),
    ("c4", 4, lambda count: 2 * count, ("squarish-factor", "square-root", "brute-c4")),
], ids=["p3-plus-one", "c4-doubled"])
def test_verify_identities_names_the_clauses_that_hold_by_construction(
        capsys, monkeypatch, kind, m, skew, clauses):
    # the C4 x T form squares the P3 x T form, so squarish-factor and
    # square-root cannot fail; a formula row that breaks that relation on
    # the matched path P4 shows that both are checked and reported
    formula = pfmatch.counting._product_formula

    def skewed(row_kind, row_m, tree):
        result = formula(row_kind, row_m, tree)
        return (dataclasses.replace(result, count=skew(result.count))
                if (row_kind, row_m) == (kind, m) else result)

    monkeypatch.setattr(pfmatch.counting, "ROUTES", tuple(
        (family, method, skewed if (family, method) == ("product", "formula") else run)
        for family, method, run in pfmatch.counting.ROUTES))
    assert pfmatch.counting.verify_identities(path_graph(4)).failures == clauses
    code, payload, err = run_json(capsys, "verify", "--identities", "--tree", "path:4")
    assert code == EXIT_VIOLATION and err == "" and payload["violations"] == list(clauses)


def test_verify_pfaffian_file_failure(tmp_path, capsys):
    bad = tmp_path / "allforward.txt"
    bad.write_text("4 4\n0 -> 1\n1 -> 2\n2 -> 3\n3 -> 0\n")
    code, payload, _ = run_json(capsys, "verify", "--pfaffian", "--graph", "cycle:4",
                                "--orient-file", str(bad))
    assert code == EXIT_VIOLATION
    assert payload["violations"] == [[0, 1, 2, 3]]


def test_verify_pfaffian_long_path_is_not_bounded_by_recursion(tmp_path, capsys):
    # a pass on 2000 vertices: one signed sweep, no recursion
    arcs = tmp_path / "path.txt"
    arcs.write_text("2000 1999\n" + "".join(f"{i} -> {i + 1}\n" for i in range(1999)))
    code, out, err = run(capsys, "verify", "--pfaffian", "--graph", "path:2000",
                         "--orient-file", str(arcs))
    assert code == EXIT_OK and "verdict: pass" in out and err == ""


def test_verify_pfaffian_unbalanced_bipartite_file_passes(tmp_path, capsys):
    # K_9,11: the vacuous pass is the one signed sweep, with no search for
    # a first perfect matching
    edges = [(u, v) for u in range(9) for v in range(9, 20)]
    graph, arcs = tmp_path / "k9_11.txt", tmp_path / "k9_11_arcs.txt"
    graph.write_text(f"20 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    arcs.write_text(f"20 {len(edges)}\n" + "".join(f"{u} -> {v}\n" for u, v in edges))
    start = time.perf_counter()
    code, payload, err = run_json(capsys, "verify", "--pfaffian", "--graph", str(graph),
                                  "--orient-file", str(arcs))
    assert code == EXIT_OK and err == "" and payload["violations"] == []
    assert time.perf_counter() - start < 3.0


def test_verify_pfaffian_long_cycle_lists_its_one_violation(tmp_path, capsys):
    # 1200 forward arcs: the cycle is nice and evenly oriented, and the
    # failure scan walks it deeper than Python's recursion limit
    arcs = tmp_path / "cycle.txt"
    arcs.write_text("1200 1200\n" + "".join(f"{i} -> {(i + 1) % 1200}\n" for i in range(1200)))
    code, payload, err = run_json(capsys, "verify", "--pfaffian", "--graph", "cycle:1200",
                                  "--orient-file", str(arcs))
    assert code == EXIT_VIOLATION and err == ""
    assert payload["violations"] == [list(range(1200))]


def test_verify_pfaffian_vertex_guard_bounds_only_the_failure_listing(tmp_path, capsys):
    # C4 x T on 40 vertices: the pass is one sweep
    code, payload, err = run_json(capsys, "verify", "--pfaffian", "--c4", "--tree",
                                  "tree-random:10:1")
    assert code == EXIT_OK and err == "" and payload["violations"] == []
    # an evenly oriented 26-cycle fails and lists its violation with no flag
    arcs = tmp_path / "cycle.txt"
    arcs.write_text("26 26\n" + "".join(f"{i} -> {(i + 1) % 26}\n" for i in range(26)))
    code, payload, _ = run_json(capsys, "verify", "--pfaffian", "--graph", "cycle:26",
                                "--orient-file", str(arcs))
    assert code == EXIT_VIOLATION and payload["violations"] == [list(range(26))]
    # the same C4 x T with its lowest arc flipped fails, and listing its
    # violations runs out of the listing's budget: exit 4 in about 3 s
    d = orient_c4_tree(orient_lexicographic(random_tree(10, 1)))
    u, v = min(d.arcs)
    graph, flipped = tmp_path / "c4t.txt", tmp_path / "c4t-flipped.txt"
    graph.write_text(format_edge_list(d.base))
    flipped.write_text(format_oriented_edge_list(
        OrientedGraph(n=d.n, arcs=d.arcs - {(u, v)} | {(v, u)})))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--pfaffian", "--graph", str(graph),
                         "--orient-file", str(flipped))
    assert time.perf_counter() - start < 10.0
    assert code == EXIT_SIZE_LIMIT and not out
    assert err == ("error: Pfaffian check guard: not Pfaffian (|Pf| 182528 < 246016 perfect "
                   "matchings), and listing the violations takes more than 8,000,000 units "
                   "of work\n")


def test_verify_layers_3_matched_tree(capsys):
    code, out, _ = run(capsys, "verify", "--pfaffian", "--layers", "3", "--tree", "path:4")
    assert code == EXIT_OK and "verdict: pass" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--graph", "path:x")
    assert code == EXIT_PARSE and "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "count", "--graph", "/nonexistent/file.txt")
    assert code == EXIT_PARSE and "cannot read" in err


def test_unknown_product_kind_is_a_parse_error(capsys):
    code, out, err = run(capsys, "count", "--product", "p5", "--tree", "path:3")
    assert code == EXIT_PARSE and not out
    assert err == "error: unknown product kind 'p5': want c4, p2, p3, p4, or pm:M\n"


def test_non_integer_max_vertices_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--graph", "path:4", "--max-vertices", "abc"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --max-vertices abc" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("2 x\n0 1\n", "line 1: non-integer header '2 x'"),
    ("# one edge\n2 1\n0 y\n", "line 3: non-integer endpoint in '0 y'"),
], ids=["header", "endpoint"])
def test_non_integer_edge_list_field_names_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code, out, err = run(capsys, "count", "--graph", str(path))
    assert code == EXIT_PARSE and not out and err == f"error: {message}\n"


def test_orient_zero_layers_is_a_precondition_error(capsys):
    code, out, err = run(capsys, "orient", "--layers", "0", "--tree", "path:3")
    assert code == EXIT_PRECONDITION and not out
    assert err == "error: need at least 1 layer, got 0\n"


@pytest.mark.parametrize("argv", [
    ["count", "--graph"],
    ["count", "--product", "c4", "--tree"],
    ["verify", "--pfaffian", "--graph", "path:4", "--orient-file"],
], ids=["--graph", "--tree", "--orient-file"])
def test_non_utf8_file_is_refused_like_an_unreadable_one(capsys, tmp_path, argv):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe2 1\n0 1\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_PARSE and not out
    assert err.startswith(f"error: cannot read {str(path)!r}: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, text", [
    (["count", "--graph"], "2 1\n0 1\n"),
    (["count", "--product", "c4", "--tree"], "2 1\n0 1\n"),
    (["verify", "--pfaffian", "--graph", "path:2", "--orient-file"], "2 1\n0 -> 1\n"),
], ids=["--graph", "--tree", "--orient-file"])
def test_utf8_file_with_a_byte_order_mark_reads_like_one_without(capsys, tmp_path, argv, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    results = []
    for path in (plain, marked):
        code, payload, err = run_json(capsys, *argv, str(path))
        del payload["request"], payload["elapsed_ms"]
        results.append((code, payload, err))
    assert results[0][0] == EXIT_OK and results[1] == results[0]


def test_precondition_exit_code(capsys):
    code, _, _ = run(capsys, "count", "--graph", "path:0")
    assert code == EXIT_PRECONDITION


def test_not_a_tree_exit_code(capsys):
    code, _, _ = run(capsys, "count", "--product", "c4", "--tree", "cycle:4")
    assert code == EXIT_PRECONDITION


def test_size_limit_exit_code_and_flag_override(capsys):
    code, _, err = run(capsys, "count", "--graph", "path:50", "--method", "brute")
    assert code == EXIT_SIZE_LIMIT and err == "error: brute-force guard: 50 vertices > limit 40\n"
    # no flag overrides the guard
    with pytest.raises(SystemExit) as exc:
        main(["count", "--graph", "path:50", "--max-vertices", "60"])
    assert exc.value.code == EXIT_PARSE and "--max-vertices" in capsys.readouterr().err


def test_a_bipartite_graph_with_unequal_sides_counts_0(tmp_path, capsys):
    # K19,21 fits the 40-vertex guard; parity gives 0 before the sweep,
    # whose states would pass the state guard (exit 4)
    edges = [(u, v) for u in range(19) for v in range(19, 40)]
    path = tmp_path / "k19-21.txt"
    path.write_text(f"40 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run(capsys, "count", "--graph", str(path))
    assert code == EXIT_OK and "method: brute\ncount: 0\n" in out and not err


def test_pfaffian_method_with_orient_file(tmp_path, capsys):
    good = tmp_path / "c4.txt"
    good.write_text("4 4\n0 -> 1\n1 -> 2\n2 -> 3\n0 -> 3\n")
    code, payload, _ = run_json(capsys, "count", "--graph", "cycle:4", "--method", "pfaffian",
                                "--orient-file", str(good))
    assert code == EXIT_OK and payload["count"] == "2"


def test_pfaffian_method_exits_5_on_a_failed_reconstruction(tmp_path, capsys, monkeypatch):
    # every residue off by one: the lexicographic K4's determinant, 1,
    # comes back as 2, which no skew integer matrix has
    det_mod = pfmatch.exactlinalg._det_mod
    monkeypatch.setattr(pfmatch.exactlinalg, "_det_mod", lambda *args: det_mod(*args) + 1)
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    k4, arcs = tmp_path / "k4.txt", tmp_path / "k4-arcs.txt"
    k4.write_text("4 6\n" + "".join(f"{u} {v}\n" for u, v in edges))
    arcs.write_text("4 6\n" + "".join(f"{u} -> {v}\n" for u, v in edges))
    code, out, err = run(capsys, "count", "--graph", str(k4), "--method", "pfaffian",
                         "--orient-file", str(arcs))
    assert code == EXIT_VIOLATION and out == ""
    assert "not a perfect square" in err and "Traceback" not in err


def test_failed_trigonometric_cross_check_exits_6(capsys, monkeypatch):
    path_product = pfmatch.counting._path_product
    monkeypatch.setattr(pfmatch.counting, "_path_product", lambda s, t: 2 * path_product(s, t))
    code, out, err = run(capsys, "count", "--grid", "8", "8")
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("error: grid log product ") and "Traceback" not in err
    assert err.endswith(" is not within 1e-6 of the log of the exact count 25977632\n")


def test_pfaffian_method_requires_orient_file_for_plain_graph(capsys):
    code, _, err = run(capsys, "count", "--graph", "cycle:4", "--method", "pfaffian")
    assert code == EXIT_PRECONDITION and "orient-file" in err


def test_pfaffian_method_refuses_unmatched_p3_tree(capsys):
    # the 3-layer orientation is only proven Pfaffian for matched trees
    code, _, err = run(capsys, "count", "--product", "p3", "--tree", "path:3",
                       "--method", "pfaffian")
    assert code == EXIT_PRECONDITION and "brute" in err


@pytest.mark.parametrize("argv, message", [
    (["--product", "p3", "--method", "formula", "--tree", "path:3"],
     "no closed form applies to this product/tree combination; try --method brute"),
    (["--product", "pm:5", "--method", "pfaffian", "--tree", "path:2"],
     "no verified Pfaffian orientation constructor applies here; try --method brute"),
    (["--grid", "2", "2", "--method", "pfaffian"],
     "--grid supports auto, formula, or brute; for the Pfaffian route use "
     "--product p2/p3/p4 with --tree path:N"),
    (["--graph", "path:4", "--method", "formula"],
     "no closed form applies to a plain graph; try --method brute"),
    (["--graph", "path:4", "--method", "pfaffian"],
     "--method pfaffian on a plain graph needs --orient-file "
     "(Pfaffian-ness is the caller's responsibility)"),
], ids=["p3-formula", "pm5-pfaffian", "grid-pfaffian", "graph-formula", "graph-pfaffian"])
def test_every_route_refusal_reaches_the_cli(capsys, argv, message):
    code, out, err = run(capsys, "count", *argv)
    assert (code, out, err) == (EXIT_PRECONDITION, "", f"error: {message}\n")


def test_every_cli_method_has_one_route_per_family():
    # a method the CLI offers can never fall through to "unknown method"
    methods = [m for m in OPTIONS["method"][1]["choices"] if m != "auto"]
    rows = [(family, method) for family, method, _ in pfmatch.counting.ROUTES]
    for family in ("product", "grid", "graph"):
        assert sorted(m for f, m in rows if f == family) == sorted(methods), family


def test_orient_file_mismatch_rejected(tmp_path, capsys):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("2 1\n0 -> 1\n")
    code, _, err = run(capsys, "count", "--graph", "cycle:4", "--method", "pfaffian",
                       "--orient-file", str(wrong))
    assert code == EXIT_PRECONDITION and "orient" in err


@pytest.mark.parametrize("text", ["2 1\n5 -> 7\n", "2 1\n0 -> 0\n", "2 2\n0 -> 1\n1 -> 0\n"],
                         ids=["arc-out-of-range", "self-loop-arc", "edge-both-ways"])
def test_an_orientation_file_that_is_no_orientation_exits_2(tmp_path, capsys, text):
    # the three arc sets OrientedGraph refuses are refused while the file
    # is parsed, with the line that breaks it
    arcs = tmp_path / "arcs.txt"
    arcs.write_text(text)
    code, out, err = run(capsys, "verify", "--pfaffian", "--graph", "path:2",
                         "--orient-file", str(arcs))
    assert code == EXIT_PARSE and not out
    assert err.startswith("error: line ") and "Traceback" not in err


def test_count_product_refuses_an_orientation_file(tmp_path, capsys):
    # every base orientation of the tree gives the same product count
    arcs = tmp_path / "path2.txt"
    arcs.write_text("2 1\n1 -> 0\n")
    code, _, err = run(capsys, "count", "--product", "c4", "--tree", "path:2",
                       "--orient-file", str(arcs))
    assert code == EXIT_PARSE
    assert "--orient-file is not read by count --product" in err


@pytest.mark.parametrize("argv, named", [
    (["count", "--grid", "4", "4", "--orient-file", "/nonexistent"], "--orient-file"),
    (["count", "--grid", "4", "4", "--product", "c4", "--tree", "path:3"], "--product and --grid"),
    (["count", "--product", "c4", "--tree", "path:3", "--graph", "cycle:4"],
     "--graph and --product"),
    (["count", "--graph", "cycle:4", "--tree", "path:3"], "--tree"),
    (["verify", "--pfaffian", "--c4", "--tree", "path:3", "--graph", "cycle:4"], "--graph"),
    (["verify", "--pfaffian", "--graph", "cycle:4", "--orient-file", "/nonexistent",
      "--tree", "path:3"], "--tree"),
    (["verify", "--pfaffian", "--double", "--graph", "cycle:4", "--tree", "path:3"], "--tree"),
    (["verify", "--identities", "--tree", "path:3", "--c4"], "--c4"),
    (["verify", "--identities", "--tree", "path:3", "--layers", "0"], "--layers"),
    (["verify", "--identities", "--tree", "path:3", "--orient-file", "/nonexistent"],
     "--orient-file"),
    (["orient", "--double", "--graph", "cycle:4", "--tree", "path:3"], "--tree"),
    (["orient", "--layers", "3", "--tree", "path:3", "--graph", "cycle:4"], "--graph"),
    (["count", "--product", "c4"], "--tree"),
    (["count", "--grid", "2", "2", "--tree", "path:3"], "--tree"),
    (["orient", "--c4", "--layers", "2", "--tree", "path:2"], "--layers"),
    (["orient", "--double"], "--double"),
    (["orient", "--c4"], "--tree"),
    (["verify", "--tree", "path:2"], "--identities"),
    (["verify", "--pfaffian", "--identities", "--tree", "path:2"], "--pfaffian"),
    (["verify", "--pfaffian", "--graph", "cycle:4"], "--orient-file"),
    (["verify", "--identities"], "--tree"),
])
def test_an_input_flag_the_route_does_not_read_is_refused(capsys, argv, named):
    # without the refusal each would answer for one of its inputs and
    # ignore the other; no file named here is opened
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARSE and not out
    assert named in err and "cannot read" not in err


@pytest.mark.parametrize("argv", [["count", "--grid", "2", "2"],
                                  ["orient", "--c4", "--tree", "path:2"],
                                  ["verify", "--identities", "--tree", "path:2"],
                                  ["product", "path:2", "path:2"]])
def test_request_echoes_every_option_of_its_command(capsys, argv):
    unechoed = {"help", "json", "output"}
    options = [a.dest for a in build_parser()[1][argv[0]]._actions if a.dest not in unechoed]
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_OK and list(payload["request"]) == ["command", *options]


def test_each_parser_takes_exactly_the_options_its_routes_use():
    # one source: a command's options follow from OPTIONS, COMMANDS and ROUTES
    _, commands = build_parser()
    taken = set()
    for name, (_, writes) in COMMANDS.items():
        dests = [a.dest for a in commands[name]._actions if a.dest != "help"]
        used = {dest for command, _, select, reads, _ in ROUTES if command == name
                for dest in select + reads}
        assert set(dests) == used | {"json"} | ({"output"} if writes else set()), name
        assert dests == [dest for dest in OPTIONS if dest in dests], name
        taken |= set(dests)
    assert taken == set(OPTIONS)


def test_readme_route_table_lists_the_rows_of_routes():
    def cell(dests):
        return ", ".join(f"`{_flag(dest)}`" for dest in dests) or "none"

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = [line.strip() for line in readme.read_text(encoding="utf-8").splitlines()]
    start = lines.index("| command | route | selecting flags | other flags read |") + 2
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    rows = [f"| `{command}` | `{label}` | {cell(select)} | {cell(reads)} |"
            for command, label, select, reads, _ in ROUTES]
    assert lines[start:end] == rows


def test_count_requires_an_input(capsys):
    code, _, _ = run(capsys, "count")
    assert code == EXIT_PARSE


def test_count_unmatched_large_p3_tree_hits_size_guard(capsys):
    # no closed form and no proven orientation: brute force, refused by its guard
    code, _, err = run(capsys, "count", "--product", "p3", "--tree", "tree-random:200:7")
    assert code == EXIT_SIZE_LIMIT and "guard" in err


def test_count_longer_than_int_digit_limit(capsys):
    # 80 x 80 has 801 digits; the interpreter's int-to-str limit is lowered
    # below that to show main() prints the count in full and then restores it
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = get_limit()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "count", "--grid", "80", "80")
        assert get_limit() == 640
        code_json, payload, _ = run_json(capsys, "count", "--grid", "80", "80")
        assert get_limit() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == EXIT_OK and code_json == EXIT_OK and not err
    expected = str(count_grid(80, 80).count)
    assert len(expected) == 801
    assert f"count: {expected}\n" in out
    assert payload["count"] == expected


def test_orient_file_for_a_path_spec_is_accepted(tmp_path, capsys):
    # path: and tree-random: specs give a Tree; the file gives a plain Graph
    arc = tmp_path / "arc.txt"
    arc.write_text("2 1\n0 -> 1\n")
    code, out, _ = run(capsys, "verify", "--pfaffian", "--graph", "path:2",
                       "--orient-file", str(arc))
    assert code == EXIT_OK and "verdict: pass" in out
    path4 = tmp_path / "path4.txt"
    path4.write_text("4 3\n0 -> 1\n2 -> 1\n2 -> 3\n")
    code, payload, _ = run_json(capsys, "count", "--graph", "path:4", "--method", "pfaffian",
                                "--orient-file", str(path4))
    assert code == EXIT_OK and payload["count"] == "1"
    code, payload, _ = run_json(capsys, "orient", "--double", "--graph", "path:4",
                                "--orient-file", str(path4))
    assert code == EXIT_OK and len(payload["arcs"]) == 10


def test_repeated_edge_line_is_a_parse_error(tmp_path, capsys):
    dup = tmp_path / "dup.txt"
    dup.write_text("3 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "product", str(dup), "path:1")
    assert code == EXIT_PARSE and "line 3" in err and not out


def test_unwritable_output_is_an_error_not_a_traceback(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.txt"
    for argv in (["orient", "--c4", "--tree", "path:2"], ["product", "path:2", "path:2"]):
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == EXIT_PRECONDITION and "cannot write" in err and not out


def test_repeated_calls_do_not_carry_flags_over(tmp_path, capsys):
    # one parser serves every call of a process; each call parses afresh
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("4 4\n0 -> 1\n1 -> 2\n2 -> 3\n0 -> 3\n")
    code, first, _ = run_json(capsys, "count", "--graph", "cycle:4", "--method", "pfaffian",
                              "--orient-file", str(arcs))
    assert code == EXIT_OK and first["request"]["orient_file"] == str(arcs)
    assert first["method"] == "pfaffian"
    code, second, _ = run_json(capsys, "count", "--graph", "cycle:4")
    assert code == EXIT_OK and second["method"] == "brute"
    assert second["request"]["method"] == "auto" and second["request"]["orient_file"] is None
    code, first, _ = run_json(capsys, "verify", "--pfaffian", "--layers", "3", "--tree", "path:4")
    assert code == EXIT_OK and first["request"]["layers"] == 3
    code, second, _ = run_json(capsys, "verify", "--pfaffian", "--c4", "--tree", "path:4")
    assert code == EXIT_OK
    assert second["request"]["layers"] is None and second["method"] == "pfaffian-check:c4-tree"
    # plain calls (read in one pass) and other spellings (read by argparse)
    # alternate; none sees another's --grid list or misses a default
    calls = [(["--grid", "2", "4"], True, [2, 4], "auto", "5"),
             (["--gri", "3", "2", "--method=brute"], False, [3, 2], "brute", "3"),
             (["--graph", "path:4"], True, None, "auto", "1"),
             (["--grid", "2", "2", "--method", "brute", "--method", "auto"], False, [2, 2], "auto",
              "2"),
             (["--grid", "4", "2", "--method", "brute"], True, [4, 2], "brute", "5"),
             (["--graph", "path:2", "--method=brute"], False, None, "brute", "1")]
    for argv, plain, grid, method, count in calls:
        assert (_plain_args("count", argv) is not None) == plain
        code, payload, _ = run_json(capsys, "count", *argv)
        assert code == EXIT_OK and payload["count"] == count
        assert payload["request"]["grid"] == grid and payload["request"]["method"] == method
        assert payload["request"]["graph"] == (None if grid else argv[1])
    first = _plain_args("count", ["--grid", "2", "4"])
    first.grid.append(6)
    assert _plain_args("count", ["--grid", "2", "4"]).grid == [2, 4]
    assert _plain_args("count", ["--graph", "path:4"]).grid is None


def test_call_after_parse_error_and_help_matches_a_first_call(capsys):
    argv = ["count", "--product", "p4", "--tree", "tree-random:9:4", "--json"]
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "pfmatch.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert fresh.returncode == EXIT_OK, fresh.stderr
    for bad, exit_code in ((["count", "--grid", "2"], EXIT_PARSE), (["--help"], EXIT_OK)):
        with pytest.raises(SystemExit) as stop:
            main(bad)
        assert stop.value.code == exit_code
    capsys.readouterr()
    code, payload, _ = run_json(capsys, *argv[:-1])
    expected = json.loads(fresh.stdout)
    payload.pop("elapsed_ms")
    expected.pop("elapsed_ms")
    assert code == EXIT_OK and json.dumps(payload) == json.dumps(expected)


def test_each_command_parses_its_own_arguments_with_the_parents_help(capsys):
    parser, commands = build_parser()
    for name in commands:
        with pytest.raises(SystemExit) as stop:
            main([name, "-h"])
        direct = capsys.readouterr().out
        assert stop.value.code == EXIT_OK
        with pytest.raises(SystemExit):
            parser.parse_args([name, "-h"])
        assert direct == capsys.readouterr().out and direct.startswith(f"usage: pfmatch {name} ")


@pytest.mark.parametrize("command, usage", [
    ("orient", "usage: pfmatch orient [-h] [--double] [--c4] [--layers M] [--graph GRAPH] "
               "[--tree TREE] [--orient-file ORIENT_FILE] [--output OUTPUT] [--json]"),
    ("verify", "usage: pfmatch verify [-h] [--pfaffian] [--identities] [--double] [--c4] "
               "[--layers M] [--graph GRAPH] [--tree TREE] [--orient-file ORIENT_FILE] [--json]"),
])
def test_usage_lines_name_the_layer_count_m(command, usage):
    # the help text says "M stacked alternating layers"; the wrapping of
    # the usage line follows the terminal width, so compare it unwrapped
    assert " ".join(build_parser()[1][command].format_usage().split()) == usage


@pytest.mark.parametrize("argv, exit_code", [([], EXIT_PARSE), (["bogus"], EXIT_PARSE),
                                             (["--help"], EXIT_OK)])
def test_anything_but_a_command_goes_to_the_top_level_parser(capsys, argv, exit_code):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == exit_code
    assert (captured.out + captured.err).startswith("usage: pfmatch [-h] {count,orient,verify,product}")


def test_parse_error_inside_a_command_prints_that_commands_usage(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["count", "--bogus"])
    err = capsys.readouterr().err
    assert stop.value.code == EXIT_PARSE
    assert err.startswith("usage: pfmatch count ") and "unrecognized arguments: --bogus" in err


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pfmatch", "count", "--grid", "2", "4", "--json"])
    code = main()
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and payload["count"] == "5" and payload["request"]["grid"] == [2, 4]


def _call(capsys, argv):
    """(stdout less its timing, stderr, exit code) of one call, argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    out, err = capsys.readouterr()
    if out.startswith("{"):
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        return json.dumps(payload), err, code
    lines = [line for line in out.splitlines(True) if not line.startswith("elapsed: ")]
    return "".join(lines), err, code


_C4_PATH4 = ["count", "--product", "c4", "--tree", "path:4"]


@pytest.mark.parametrize("argv, same_as", [
    (["count", "--product=c4", "--tree=path:4"], _C4_PATH4),
    (["count", "--prod", "c4", "--tr", "path:4"], _C4_PATH4),
    ([*_C4_PATH4, "--method", "brute", "--method", "auto"], [*_C4_PATH4, "--method", "auto"]),
    (["verify", "--pfaffian", "--layers", "-1", "--tree", "path:2"],
     ("", "error: need at least 1 layer, got -1\n", EXIT_PRECONDITION)),
    (["product", "--", "path:2", "path:2"], ["product", "path:2", "path:2"]),
    (["count", "--grid", "2", "2", "--json", "--json"], ["count", "--grid", "2", "2", "--json"]),
])
def test_other_spellings_go_to_argparse_and_read_like_the_plain_form(capsys, argv, same_as):
    # argparse reads these; the plain spelling is read in one pass, to the same report
    assert _plain_args(argv[0], argv[1:]) is None
    if isinstance(same_as, tuple):
        assert _call(capsys, argv) == same_as
        return
    assert _plain_args(same_as[0], same_as[1:]) is not None
    assert _call(capsys, argv) == _call(capsys, same_as)
    # --json goes first, as after -- it would be a factor
    assert (_call(capsys, [argv[0], "--json", *argv[1:]])
            == _call(capsys, [same_as[0], "--json", *same_as[1:]]))


@pytest.mark.parametrize("workload", ["tree-formulas", "pfaffian-verify", "oracle-crosscheck"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_benchmark_request_is_read_in_one_pass(monkeypatch, tmp_path, workload, seed):
    # the requests and probes perfbench sends, spelled as its worker spells them
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    _, commands = build_parser()
    for request in workloads.build(workload, seed) + workloads.probes(workload):
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in request.argv]
        argv.append("--json")
        plain = _plain_args(argv[0], argv[1:])
        assert plain is not None, request.argv
        expected = commands[argv[0]].parse_args(argv[1:])
        assert list(vars(plain).items()) == list(vars(expected).items()), request.argv
