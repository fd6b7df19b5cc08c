"""Command-line front end: count, orient, verify, product.

OPTIONS declares every option once, COMMANDS every command and ROUTES
each command's routes; a command's parser takes the options they use.
Arguments in the plain form (full long flags, each once, each followed
by its values) are read in one pass from a table of that parser's own
actions; every other spelling, and every usage line, help text and parse
error, is argparse's.
Inputs are either generator specs ("path:N", "cycle:N",
"tree-random:N:SEED") or paths to edge-list files ('#' comments,
"n m" header, then "u v" or "u -> v" lines).  Reports are human text or
JSON ({"request", "method", "count", "violations", "elapsed_ms"}; verify
--pfaffian adds "route", "matchings" and "pfaffian"), with counts
serialized as decimal strings so consumers never truncate them.

Exit codes: 0 ok, 2 parse error, 3 precondition/structure error,
4 size-limit guard, 5 verification violation (or a Pfaffian count whose
modular reconstruction failed), 6 numerical-consistency error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, Optional

from .counting import CountResult, count_graph, count_grid, count_product, verify_identities
from .errors import (
    EdgeListParseError,
    NotPfaffianError,
    NumericalConsistencyError,
    PfmatchError,
    PreconditionError,
    SizeLimitError,
)
from .graphs import (
    Graph,
    OrientedGraph,
    cartesian_product,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    random_tree,
    validate_tree,
)
from .orientation import (
    check_pfaffian,
    format_oriented_edge_list,
    orient_c4_tree,
    orient_double,
    orient_layered,
    orient_lexicographic,
    parse_oriented_edge_list,
)

EXIT_OK = 0
EXIT_PARSE = EdgeListParseError.exit_code
EXIT_PRECONDITION = PfmatchError.exit_code
EXIT_SIZE_LIMIT = SizeLimitError.exit_code
EXIT_VIOLATION = NotPfaffianError.exit_code
EXIT_NUMERIC = NumericalConsistencyError.exit_code

def parse_graph_spec(spec: str) -> Graph:
    """Generator spec or edge-list file path -> Graph."""
    if spec.startswith("path:"):
        return path_graph(_spec_int(spec, spec[5:]))
    if spec.startswith("cycle:"):
        return cycle_graph(_spec_int(spec, spec[6:]))
    if spec.startswith("tree-random:"):
        fields = spec.split(":")
        if len(fields) != 3:
            raise EdgeListParseError(f"bad generator spec {spec!r}: want tree-random:N:SEED")
        return random_tree(_spec_int(spec, fields[1]), _spec_int(spec, fields[2]))
    return parse_edge_list(_read_text(spec))


def _spec_int(spec: str, field: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise EdgeListParseError(f"bad generator spec {spec!r}: {field!r} is not an integer")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise EdgeListParseError(f"cannot read {path!r}: {exc}") from exc


def _normalize_product_kind(kind: str) -> tuple[str, int]:
    """'c4' -> ('c4', 4); 'p2'/'p3'/'p4'/'pm:M' -> ('pm', M)."""
    if kind == "c4":
        return ("c4", 4)
    if kind in ("p2", "p3", "p4"):
        return ("pm", int(kind[1]))
    if kind.startswith("pm:"):
        return ("pm", _spec_int(kind, kind[3:]))
    raise EdgeListParseError(f"unknown product kind {kind!r}: want c4, p2, p3, p4, or pm:M")


def _orient_file(args: argparse.Namespace, g: Graph) -> Optional[OrientedGraph]:
    """The orientation in --orient-file, checked against g; None without the flag."""
    if not args.orient_file:
        return None
    d = parse_oriented_edge_list(_read_text(args.orient_file))
    if not d.orients(g):
        raise PreconditionError("--orient-file does not orient the given graph")
    return d


def _orientation(args: argparse.Namespace) -> tuple[OrientedGraph, str]:
    """(orientation, tag) of an orient or verify --pfaffian route: the
    --orient-file itself, or a constructor over it (default: lexicographic)."""
    g = (parse_graph_spec(args.graph) if args.graph is not None
         else validate_tree(parse_graph_spec(args.tree)))
    d = _orient_file(args, g)
    if args.double:
        return orient_double(d or orient_lexicographic(g)), "double"
    if args.c4:
        return orient_c4_tree(d or orient_lexicographic(g)), "c4-tree"
    if args.layers is not None:
        return orient_layered(d or orient_lexicographic(g), args.layers), f"layered:{args.layers}"
    return d, "file"


# Route handlers: each calls the library and renders (fields, lines, exit code).

def _counted(result: CountResult) -> tuple[dict, list[str], int]:
    return ({"method": result.method, "count": str(result.count), "violations": []},
            [f"method: {result.method}", f"count: {result.count}"], EXIT_OK)


def _count_graph(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    g = parse_graph_spec(args.graph)
    # the orientation file is checked on every route, used by one
    return _counted(count_graph(g, args.method, _orient_file(args, g)))


def _count_product(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    kind, m = _normalize_product_kind(args.product)
    tree = validate_tree(parse_graph_spec(args.tree))
    return _counted(count_product(kind, m, tree, args.method))


def _count_grid(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    return _counted(count_grid(*args.grid, method=args.method))


def _orient(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    oriented, tag = _orientation(args)
    report = {"method": tag, "count": None, "violations": []}
    if args.json:
        report["arcs"] = [f"{u} -> {v}" for u, v in sorted(oriented.arcs)]
    comments = [f"orientation: {tag}",
                "vertex numbering is layer-major: copy index * copy size + vertex"]
    return report, _emit(args, lambda: format_oriented_edge_list(oriented, comments)), EXIT_OK


def _verify_identities(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    ident = verify_identities(parse_graph_spec(args.tree))
    report = {"method": "identities", "count": str(ident.c4_count),
              "violations": list(ident.failures)}
    lines = [f"tree vertices: {ident.tree_vertices}",
             f"count C4xT: {ident.c4_count} = {ident.factor} * {ident.root}^2"]
    if ident.p3_count is not None:
        lines.append(f"count P3xT: {ident.p3_count} (squared: {ident.p3_count ** 2})")
    if ident.p4_count is not None:
        lines.append(f"count P4xT: {ident.p4_count}")
    lines.append(f"checks run: {', '.join(ident.checks)}")
    lines.append(f"verdict: {'pass' if ident.passed else 'FAIL ' + ', '.join(ident.failures)}")
    return report, lines, EXIT_OK if ident.passed else EXIT_VIOLATION


def _verify_pfaffian(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    oriented, tag = _orientation(args)
    result = check_pfaffian(oriented)
    report = {"method": f"pfaffian-check:{tag}", "count": None,
              "violations": [list(c) for c in result.violations], "route": result.route,
              "matchings": str(result.matchings), "pfaffian": str(result.pfaffian)}
    lines = [f"orientation: {tag}", f"route: {result.route}",
             f"perfect matchings: {result.matchings}, |Pf|: {result.pfaffian}"]
    if not result.passed:
        lines.append(f"cycles checked: {result.nice_even_cycles} nice even")
    lines.append(f"verdict: {'pass' if result.passed else 'FAIL'}")
    for c in result.violations:
        lines.append("violation: " + "-".join(str(v) for v in c))
    return report, lines, EXIT_OK if result.passed else EXIT_VIOLATION


def _product(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    first, second = args.factors
    g, h = parse_graph_spec(first), parse_graph_spec(second)
    product = cartesian_product(g, h)
    report = {"method": "cartesian-product", "count": None, "violations": []}
    if args.json:
        report["edges"] = [f"{u} {v}" for u, v in sorted(product.edges)]
        report["vertices"] = product.n
    comments = [f"cartesian product of {first} and {second}",
                f"vertex (i, j) of ({first}) x ({second}) is i*{h.n} + j (layer-major)"]
    return report, _emit(args, lambda: format_edge_list(product, comments)), EXIT_OK


#: (command, label, options that select the route, other options it reads,
#: handler).  A call runs the one route whose selecting options are all given
#: and which reads every given option but --json and --output; else exit 2.
ROUTES = [
    ("count", "--graph", ("graph",), ("method", "orient_file"), _count_graph),
    ("count", "--product", ("product", "tree"), ("method",), _count_product),
    ("count", "--grid", ("grid",), ("method",), _count_grid),
    ("orient", "--double --graph", ("double", "graph"), ("orient_file",), _orient),
    ("orient", "--double --tree", ("double", "tree"), ("orient_file",), _orient),
    ("orient", "--c4 --tree", ("c4", "tree"), ("orient_file",), _orient),
    ("orient", "--layers --tree", ("layers", "tree"), ("orient_file",), _orient),
    ("verify", "--identities", ("identities", "tree"), (), _verify_identities),
    ("verify", "--pfaffian --graph --orient-file", ("pfaffian", "graph", "orient_file"), (),
     _verify_pfaffian),
    ("verify", "--pfaffian --double --graph", ("pfaffian", "double", "graph"), ("orient_file",),
     _verify_pfaffian),
    ("verify", "--pfaffian --double --tree", ("pfaffian", "double", "tree"), ("orient_file",),
     _verify_pfaffian),
    ("verify", "--pfaffian --c4 --tree", ("pfaffian", "c4", "tree"), ("orient_file",),
     _verify_pfaffian),
    ("verify", "--pfaffian --layers --tree", ("pfaffian", "layers", "tree"), ("orient_file",),
     _verify_pfaffian),
    ("product", "FACTOR FACTOR", ("factors",), (), _product),
]

#: command -> (help, whether it writes a file and so takes --output).
COMMANDS = {
    "count": ("count perfect matchings", False),
    "orient": ("emit a constructed orientation", True),
    "verify": ("run the verification suites", False),
    "product": ("emit a Cartesian product edge list", True),
}

#: ROUTES by command as (label, selecting, accepted, handler), built once.
_ROUTES = {name: tuple((label, frozenset(select), frozenset(select + reads), handler)
                       for command, label, select, reads, handler in ROUTES if command == name)
           for name in COMMANDS}


#: Every option of every command, each once: dest -> (flag, argparse
#: keywords).  A command's parser, and so its usage line and the request
#: echo, lists the options it takes in this order.
OPTIONS = {
    "pfaffian": ("--pfaffian", dict(
        action="store_true", help="Pfaffian check: |Pf| against the number of perfect matchings")),
    "identities": ("--identities", dict(action="store_true", help="count identity cross-checks")),
    "double": ("--double", dict(action="store_true", help="two reversed copies plus rungs")),
    "c4": ("--c4", dict(action="store_true", help="the four-layer cyclic construction")),
    "layers": ("--layers", dict(type=int, metavar="M", help="M stacked alternating layers")),
    "graph": ("--graph", dict(help="graph spec or edge-list file")),
    "product": ("--product", dict(help="product kind: c4, p2, p3, p4, or pm:M")),
    "tree": ("--tree", dict(help="tree spec or edge-list file")),
    "grid": ("--grid", dict(nargs=2, type=int, metavar=("M", "N"), help="m x n grid")),
    "method": ("--method", dict(
        choices=["auto", "brute", "pfaffian", "formula"], default="auto",
        help="auto prefers formula, then a proven orientation, then brute")),
    "orient_file": ("--orient-file", dict(
        help="oriented edge-list file: the orientation to use, or the base of a construction "
             "(default: lexicographic)")),
    "factors": ("factors", dict(nargs=2, metavar="FACTOR", help="graph spec or file")),
    "output": ("--output", dict(help="write the emitted edge list here")),
    "json": ("--json", dict(action="store_true", help="emit a JSON report")),
}


def _flag(dest: str) -> str:
    return OPTIONS[dest][0]


def _route(command: str, options: dict) -> Callable:
    """The handler of the one route the given options name, else EdgeListParseError."""
    given = {dest for dest, value in options.items() if value is not None and value is not False}
    for _, select, accepted, handler in _ROUTES[command]:
        if select <= given <= accepted:
            return handler
    selected = [row for row in _ROUTES[command] if row[1] <= given]
    if len(selected) > 1:
        raise EdgeListParseError(f"{command} takes one route, got "
                                 + " and ".join(label for label, *_ in selected))
    if selected:
        label, _, accepted, _ = selected[0]
        unread = next(dest for dest in options if dest in given and dest not in accepted)
        raise EdgeListParseError(f"{_flag(unread)} is not read by {command} {label}")
    routes = (" ".join(map(_flag, row[2])) for row in ROUTES if row[0] == command)
    raise EdgeListParseError(f"{command} needs one of: " + "; ".join(routes))


def _emit(args: argparse.Namespace, render: Callable[[], str]) -> list[str]:
    """Human lines for an emitted file: the text itself, or where it was
    written.  render() builds the text only when it is printed or written."""
    output = args.output
    if not output:
        return [] if args.json else [render().rstrip("\n")]
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(render())
    except OSError as exc:
        raise PreconditionError(f"cannot write {output!r}: {exc}") from exc
    return [f"wrote {output}"]


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """(the pfmatch argument parser, each command's own parser by name),
    built on the first call and shared after.  A command takes the OPTIONS
    its ROUTES rows use, --json, and --output where it writes a file.

    Sharing is safe because every default is immutable and each
    parse_args call returns a fresh Namespace.
    """
    parser = argparse.ArgumentParser(prog="pfmatch", description="Exact perfect-matching "
                                     "counts for path/cycle-by-tree products")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (text, writes) in COMMANDS.items():
        takes = {"json", "output"} if writes else {"json"}
        commands[name] = sub.add_parser(name, help=text)
        for dest, (flag, keywords) in OPTIONS.items():
            if dest in takes or any(dest in accepted for _, _, accepted, _ in _ROUTES[name]):
                commands[name].add_argument(flag, **keywords)
    return parser, commands


@functools.cache
def _plain_table(command: str) -> tuple[dict, dict, Optional[tuple]]:
    """(each dest's default in the order of the command's parser, each long
    flag's action as (dest, nargs, type, choices, const), the positional's
    action or None), read once from that parser's own store and store_true
    actions."""
    defaults, flags, positional = {}, {}, None
    for action in build_parser()[1][command]._actions:
        if action.default is argparse.SUPPRESS:  # -h
            continue
        defaults[action.dest] = action.default
        spec = (action.dest, action.nargs, action.type, action.choices, action.const)
        if action.option_strings:
            flags[action.option_strings[0]] = spec
        else:
            positional = spec
    return defaults, flags, positional


def _plain_store(values: dict, spec: tuple, argv: list[str], at: int) -> Optional[int]:
    """Store in values what argparse would for the action whose tokens start
    at argv[at], and return where the next token starts; or None where
    argparse should read them: too few, one starting with '-', or one that
    the action's type or choices refuse."""
    dest, nargs, convert, choices, const = spec
    if nargs == 0:
        values[dest] = const
        return at
    end = at + (nargs or 1)
    if end > len(argv):
        return None
    stored = []
    for token in argv[at:end]:
        if token[:1] == "-":
            return None
        if convert is not None:
            try:
                token = convert(token)
            except (TypeError, ValueError):
                return None
        if choices is not None and token not in choices:
            return None
        stored.append(token)
    values[dest] = stored if nargs else stored[0]
    return end


def _plain_args(command: str, argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace the command's parser returns for argv, read in one pass
    when argv has the plain form: the positional's values first, then full
    long flags, each at most once and each followed by exactly its values.
    Anything else (abbreviations, --flag=value, repeats, -h, --, values
    starting with '-' or that argparse refuses) returns None, and argparse
    parses it and writes every message."""
    defaults, flags, positional = _plain_table(command)
    values = dict(defaults)
    at = 0 if positional is None else _plain_store(values, positional, argv, 0)
    unseen = dict(flags)
    while at is not None and at < len(argv):
        spec = unseen.pop(argv[at], None)
        at = None if spec is None else _plain_store(values, spec, argv, at + 1)
    return None if at is None else argparse.Namespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    # a known command's plain-form arguments are read in one pass, any other
    # spelling by its own parser; anything but a command goes to the top
    command = commands.get(argv[0]) if argv else None
    args = _plain_args(argv[0], argv[1:]) if command else None
    if args is None:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    # Counts are printed in full however long they are: lift Python's
    # int-to-str digit limit (where the interpreter has one) for this call.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        # the top-level parser sets the command; each command's own parser does not
        return _run(vars(args).pop("command", argv[0]), args)
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def _run(command: str, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # what the route reads and the request echoes
    options = {dest: value for dest, value in vars(args).items() if dest not in ("json", "output")}
    try:
        fields, lines, code = _route(command, options)(args)
    except PfmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {"request": {"command": command, **options}, **fields, "elapsed_ms": elapsed_ms}
    if args.json:
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed_ms:.1f} ms")
    return code


if __name__ == "__main__":
    sys.exit(main())
