"""CLI fuzzing: every call ends in a documented exit code, never a traceback.

Inputs are generator specs, edge-list and oriented edge-list text
(malformed and repeated lines included) written to files, and flag
combinations of count, orient, verify and product, with output files
that can and cannot be written.  Besides these, verify --pfaffian draws
one of its routes with the flags that route reads and an orientation
file that orients the drawn graph, so those calls reach a verdict.
Sizes stay small (trees and files up to 6 vertices, grids up to 6 x 6,
so Pfaffian checks on at most 24 vertices) so the whole run takes a few
seconds.

A second property holds the one-pass parser to argparse: on every argv
drawn here, and on spelling variants of them (abbreviations,
--flag=value, repeats, -h, --, odd values, moved factors), cli._plain_args
returns either None or exactly what the command's parser returns.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from pfmatch import random_tree  # noqa: E402
from pfmatch.cli import _plain_args, build_parser, main  # noqa: E402

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6}


# hypothesis leans towards the first option of a choice: valid inputs come first

def _spec():
    n = st.integers(1, 6).map(str)
    return st.one_of(
        st.builds("tree-random:{}:{}".format, n, st.integers(0, 9)),
        st.builds("path:{}".format, n),
        st.sampled_from(["@graph", "@arcs"]),
        st.builds("cycle:{}".format, n),
        st.sampled_from(["path:0", "cycle:2", "tree-random:-1:0", "path:x", "tree-random:3",
                         "tree-random:a:1", "@missing"]),
    )


@st.composite
def _edge_text(draw, arrows: bool) -> str:
    n = draw(st.one_of(st.integers(1, 6), st.integers(-1, 0)))
    end = st.integers(0, max(n, 0))  # n itself is out of range
    shape = "{} -> {}" if arrows else "{} {}"
    lines = [shape.format(u, v) for u, v in draw(st.lists(st.tuples(end, end), max_size=6))]
    if lines and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines)))  # a repeated line
    junk = st.sampled_from(["# comment", "", "0 -> 1", "1 0", "0", "0 ->", "a b", "1 - 2",
                            "0 1 2"])
    lines += draw(st.lists(junk, max_size=1))
    m = draw(st.one_of(st.just(len(lines)), st.integers(-1, 7)))
    header = draw(st.sampled_from(["{} {}", "{}", "{} {} x"])).format(n, m)
    return "\n".join([header] + draw(st.permutations(lines))) + "\n"


def _maybe(flag: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _flags(head: list, *parts):
    return st.tuples(*parts).map(lambda drawn: head + sum(drawn, []))


_TREE = _spec().map(lambda t: ["--tree", t])
_GRAPH = _spec().map(lambda g: ["--graph", g])
_ORIENT = _maybe("--orient-file", st.sampled_from(["@arcs", "@graph", "@missing"]))
_OUTPUT = _maybe("--output", st.sampled_from(["@out", "@missing/out"]))
_KIND = st.sampled_from(["c4", "p3", "p2", "p4", "pm:1", "pm:5", "pm:0", "pm:x", "c5"])
_CONSTRUCTION = st.sampled_from([["--double"], ["--c4"], ["--layers", "1"], ["--layers", "3"],
                                 ["--layers", "4"], [], ["--layers", "0"], ["--double", "--c4"]])

_COUNT = _flags(
    ["count"],
    st.one_of(
        _flags(["--product"], _KIND.map(lambda k: [k]), _TREE),
        st.tuples(st.integers(1, 6), st.integers(-1, 6)).map(lambda mn: ["--grid", *map(str, mn)]),
        _GRAPH,
        st.just(["--product", "c4"]),
    ),
    _maybe("--method", st.sampled_from(["auto", "brute", "pfaffian", "formula"])),
    _ORIENT,
)
_ORIENT_CMD = _flags(["orient"], _CONSTRUCTION, st.one_of(_TREE, _GRAPH), _ORIENT, _OUTPUT)
_VERIFY = _flags(
    ["verify"],
    st.sampled_from([["--pfaffian"], ["--identities"], ["--pfaffian", "--identities"]]),
    _CONSTRUCTION,
    st.one_of(_TREE, _GRAPH),
    _ORIENT,
)
_PRODUCT_CMD = _flags(["product"], _spec().map(lambda a: [a]), _spec().map(lambda b: [b]), _OUTPUT)

# One valid graph per example, shared by the verify --pfaffian draw and an
# orientation of it in @arcs: (family, n, seed, arc flips).
_DRAWN_GRAPH = st.shared(st.tuples(st.sampled_from(["path", "tree-random", "cycle"]),
                                   st.integers(1, 6), st.integers(0, 9), st.integers(0, 63)),
                         key="drawn-graph")


def _drawn_graph(drawn) -> tuple[str, int, list]:
    """(spec, vertex count, edges) of a drawn graph; cycles have 3 to 6 vertices."""
    family, n, seed, _ = drawn
    if family == "tree-random":
        return f"tree-random:{n}:{seed}", n, sorted(random_tree(n, seed).edges)
    if family == "cycle":
        n = 3 + n % 4
        return f"cycle:{n}", n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return f"path:{n}", n, [(i, i + 1) for i in range(n - 1)]


def _drawn_arcs(drawn) -> str:
    """An orientation of the drawn graph, each edge reversed by its flip bit."""
    _, n, edges = _drawn_graph(drawn)
    lines = [f"{v} -> {u}" if drawn[3] >> i & 1 else f"{u} -> {v}" for i, (u, v) in enumerate(edges)]
    return "\n".join([f"{n} {len(edges)}"] + lines) + "\n"


@st.composite
def _verify_pfaffian(draw) -> list:
    """One of the five verify --pfaffian routes of cli.ROUTES on the drawn
    graph, with --orient-file @arcs only where the route reads it."""
    drawn = draw(_DRAWN_GRAPH)
    spec = _drawn_graph(drawn)[0]
    routes = [["--graph", spec, "--orient-file", "@arcs"], ["--double", "--graph", spec]]
    if drawn[0] != "cycle":
        routes += [["--double", "--tree", spec], ["--c4", "--tree", spec],
                   ["--layers", draw(st.sampled_from(["1", "2", "3", "4"])), "--tree", spec]]
    route = draw(st.sampled_from(routes))
    if "--orient-file" not in route and draw(st.booleans()):
        route += ["--orient-file", "@arcs"]
    # the drawn graph's own orientation, whatever text @arcs holds
    return ["verify", "--pfaffian", *["@drawn-arcs" if a == "@arcs" else a for a in route]]


#: The drawn graph of an explicit example that reads no @drawn-arcs.
_NO_DRAW = ("path", 1, 0, 0)

_ARGV = st.one_of(
    _COUNT, _ORIENT_CMD, _VERIFY, _verify_pfaffian(), _PRODUCT_CMD,
    st.lists(st.sampled_from(["count", "orient", "--json", "--grid", "2", "-x"]), max_size=3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@example(argv=["orient", "--c4", "--tree", "path:2", "--output", "@missing/out"],
         graph_text="", arcs_text="", drawn=_NO_DRAW, as_json=False)
@example(argv=["count", "--graph", "@graph", "--method", "brute"],
         graph_text="-1 0\n", arcs_text="", drawn=_NO_DRAW, as_json=True)
@example(argv=["product", "@graph", "path:1"],
         graph_text="3 2\n0 1\n1 0\n", arcs_text="", drawn=_NO_DRAW, as_json=False)
@example(argv=["count", "--product", "p4", "--tree", "path:2", "--method", "pfaffian",
               "--orient-file", "@arcs"],
         graph_text="", arcs_text="2 1\n1 -> 0\n", drawn=_NO_DRAW, as_json=True)
@given(argv=_ARGV, graph_text=_edge_text(arrows=False),
       arcs_text=st.one_of(_DRAWN_GRAPH.map(_drawn_arcs), _edge_text(arrows=True)),
       drawn=_DRAWN_GRAPH, as_json=st.booleans())
def test_cli_exits_with_a_documented_code(tmp_path, argv, graph_text, arcs_text, drawn, as_json):
    (tmp_path / "graph").write_text(graph_text)
    (tmp_path / "arcs").write_text(arcs_text)
    (tmp_path / "drawn-arcs").write_text(_drawn_arcs(drawn))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    if as_json:
        argv.append("--json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in DOCUMENTED_EXIT_CODES, argv


def _abbreviate(argv: list, i: int, keep: int) -> list:
    """argv with its i-th token cut to its first keep characters (at least
    "--x"), so prefixes that several flags share come up too."""
    return argv[:i] + [argv[i][:max(3, min(keep, len(argv[i]) - 1))]] + argv[i + 1:]


def _join_value(argv: list, i: int) -> list:
    return argv[:i] + ["=".join(argv[i:i + 2])] + argv[i + 2:]


@st.composite
def _spelling_variant(draw) -> list:
    """An argv of _ARGV for a known command, respelled once or twice."""
    argv = draw(_ARGV.filter(lambda a: a[:1] and a[0] in build_parser()[1]))
    for _ in range(draw(st.integers(1, 2))):
        head, rest = argv[:1], argv[1:]
        flags = [i for i, a in enumerate(rest) if a.startswith("--")] or [0]
        i = draw(st.sampled_from(flags))
        j = draw(st.integers(0, len(rest)))
        variant = draw(st.sampled_from(["abbreviate", "join", "repeat", "insert", "value", "move"]))
        if variant == "abbreviate" and rest:
            rest = _abbreviate(rest, i, draw(st.integers(3, 12)))
        elif variant == "join" and rest:
            rest = _join_value(rest, i)
        elif variant == "repeat":
            rest = rest + rest[i:i + draw(st.integers(1, 3))]
        elif variant == "insert":
            rest = rest[:j] + [draw(st.sampled_from(["-h", "--help", "--", "--json"]))] + rest[j:]
        elif variant == "value" and rest:
            rest = rest[:j] + [draw(st.sampled_from(["-1", "x", ""]))] + rest[j + 1:]
        elif rest:  # move one token, such as a product factor past an option
            token = rest.pop(min(j, len(rest) - 1))
            k = draw(st.integers(0, len(rest)))
            rest = rest[:k] + [token] + rest[k:]
        argv = head + rest
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(argv=["count", "--product=c4", "--tree=path:4"])
@example(argv=["count", "--prod", "c4", "--tr", "path:4"])
@example(argv=["count", "--grid", "2", "2", "--method", "brute", "--method", "auto"])
@example(argv=["verify", "--pfaffian", "--layers", "-1", "--tree", "path:2"])
@example(argv=["product", "--", "path:2", "path:2"])
@example(argv=["product", "path:2", "--json", "path:2"])
@example(argv=["count", "--grid", "2", "x"])
@example(argv=["count", "--method", ""])
@given(argv=st.one_of(_ARGV, _spelling_variant()))
def test_plain_args_is_none_or_what_argparse_returns(argv):
    commands = build_parser()[1]
    if not argv or argv[0] not in commands:
        return  # main gives these to the top-level parser
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = list(vars(commands[argv[0]].parse_args(argv[1:])).items())
        except SystemExit:
            expected = None
    plain = _plain_args(argv[0], argv[1:])
    assert plain is None or list(vars(plain).items()) == expected, argv
