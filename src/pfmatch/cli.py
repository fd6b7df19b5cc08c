"""Command-line front end: count, orient, verify, product.

Inputs are either generator specs ("path:N", "cycle:N",
"tree-random:N:SEED") or paths to edge-list files ('#' comments,
"n m" header, then "u v" or "u -> v" lines).  Reports are human text or
JSON ({"request", "method", "count", "violations", "elapsed_ms"}), with
counts serialized as decimal strings so consumers never truncate them.

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

from .counting import count_graph, count_grid, count_product, verify_identities
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
    cartesian_product,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    random_tree,
    validate_tree,
)
from .orientation import (
    OrientedGraph,
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
        with open(path, "r", encoding="utf-8") as handle:
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
    raise EdgeListParseError(
        f"unknown product kind {kind!r}: want c4, p2, p3, p4, or pm:M"
    )


def _orient_file(args: argparse.Namespace, g: Graph) -> Optional[OrientedGraph]:
    """The orientation in --orient-file, checked against g; None without the flag."""
    if not args.orient_file:
        return None
    d = parse_oriented_edge_list(_read_text(args.orient_file))
    if not d.orients(g):
        raise PreconditionError("--orient-file does not orient the given graph")
    return d


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    request = {
        "command": "count",
        "method": args.method,
        "graph": args.graph,
        "product": args.product,
        "tree": args.tree,
        "grid": args.grid,
        "max_vertices": args.max_vertices,
    }
    # without --max-vertices the library's default guard applies
    guard = {} if args.max_vertices is None else {"max_vertices": args.max_vertices}
    given = [args.graph is not None, args.product is not None, args.grid is not None]
    if sum(given) != 1:
        named = " and ".join(f for f, g in zip(("--graph", "--product", "--grid"), given) if g)
        raise EdgeListParseError("count needs exactly one of --graph, --product, or --grid"
                                 + (f", got {named}" if named else ""))
    if args.tree is not None and args.product is None:
        raise EdgeListParseError("--tree goes only with --product")
    if args.orient_file and args.graph is None:  # a product counts the same under any base
        raise EdgeListParseError("--orient-file is for count --graph, orient and verify --pfaffian")
    if args.grid is not None:
        result = count_grid(*args.grid, method=args.method, **guard)
    elif args.product is not None:
        if args.tree is None:
            raise EdgeListParseError("--product needs --tree SPEC")
        kind, m = _normalize_product_kind(args.product)
        tree = validate_tree(parse_graph_spec(args.tree))
        result = count_product(kind, m, tree, args.method, **guard)
    else:
        g = parse_graph_spec(args.graph)
        # the orientation file is checked on every route, used by one
        result = count_graph(g, args.method, _orient_file(args, g), **guard)

    report = {"request": request, "method": result.method, "count": str(result.count),
              "violations": []}
    lines = [f"method: {result.method}", f"count: {result.count}"]
    return report, lines, EXIT_OK


# ---------------------------------------------------------------------------
# orient
# ---------------------------------------------------------------------------

def _build_orientation(args: argparse.Namespace) -> tuple[OrientedGraph, str]:
    """(orientation, constructor tag) from --double/--c4/--layers flags."""
    chosen = [bool(args.double), bool(args.c4), args.layers is not None]
    if sum(chosen) != 1:
        raise EdgeListParseError("choose exactly one of --double, --c4, --layers M")
    if args.double:
        if args.graph is not None:
            if args.tree is not None:
                raise EdgeListParseError("--tree and --graph are two base graphs: "
                                         "--double takes one")
            g = parse_graph_spec(args.graph)
        elif args.tree is not None:
            g = validate_tree(parse_graph_spec(args.tree))
        else:
            raise EdgeListParseError("--double needs --graph or --tree")
        return orient_double(_orient_file(args, g) or orient_lexicographic(g)), "double"
    if args.graph is not None:
        raise EdgeListParseError("--graph is not read by --c4 or --layers, which take --tree")
    if args.tree is None:
        raise EdgeListParseError("--c4/--layers need --tree SPEC")
    tree = validate_tree(parse_graph_spec(args.tree))
    base = _orient_file(args, tree) or orient_lexicographic(tree)
    if args.c4:
        return orient_c4_tree(base), "c4-tree"
    return orient_layered(base, args.layers), f"layered:{args.layers}"


def cmd_orient(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    request = {
        "command": "orient",
        "double": args.double,
        "c4": args.c4,
        "layers": args.layers,
        "graph": args.graph,
        "tree": args.tree,
        "orient_file": args.orient_file,
    }
    oriented, tag = _build_orientation(args)
    report = {"request": request, "method": tag, "count": None, "violations": []}
    if args.json:
        report["arcs"] = [f"{u} -> {v}" for u, v in sorted(oriented.arcs)]
    comments = [f"orientation: {tag}",
                "vertex numbering is layer-major: copy index * copy size + vertex"]
    return report, _emit(args, lambda: format_oriented_edge_list(oriented, comments)), EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    request = {
        "command": "verify",
        "pfaffian": args.pfaffian,
        "identities": args.identities,
        "double": args.double,
        "c4": args.c4,
        "layers": args.layers,
        "graph": args.graph,
        "tree": args.tree,
        "orient_file": args.orient_file,
        "max_vertices": args.max_vertices,
    }
    guard = {} if args.max_vertices is None else {"max_vertices": args.max_vertices}
    if args.pfaffian == args.identities:
        raise EdgeListParseError("choose exactly one of --pfaffian, --identities")

    if args.identities:
        unread = {"--double": args.double, "--c4": args.c4, "--layers": args.layers,
                  "--graph": args.graph, "--orient-file": args.orient_file}
        for flag, value in unread.items():
            if value is not None and value is not False:
                raise EdgeListParseError(f"{flag} is not read by verify --identities")
        if args.tree is None:
            raise EdgeListParseError("--identities needs --tree SPEC")
        ident = verify_identities(parse_graph_spec(args.tree), **guard)
        report = {"request": request, "method": "identities", "count": str(ident.c4_count),
                  "violations": list(ident.failures)}
        lines = [
            f"tree vertices: {ident.tree_vertices}",
            f"count C4xT: {ident.c4_count} = {ident.factor} * {ident.root}^2",
        ]
        if ident.p3_count is not None:
            lines.append(f"count P3xT: {ident.p3_count} (squared: {ident.p3_count ** 2})")
        if ident.p4_count is not None:
            lines.append(f"count P4xT: {ident.p4_count}")
        lines.append(f"checks run: {', '.join(ident.checks)}")
        lines.append(f"verdict: {'pass' if ident.passed else 'FAIL ' + ', '.join(ident.failures)}")
        return report, lines, EXIT_OK if ident.passed else EXIT_VIOLATION

    if args.graph is not None and not (args.double or args.c4 or args.layers is not None):
        # explicit graph + orientation file, no constructor
        if not args.orient_file:
            raise EdgeListParseError("verify --pfaffian --graph needs --orient-file")
        if args.tree is not None:
            raise EdgeListParseError("--tree goes only with --double, --c4 or --layers")
        oriented, tag = _orient_file(args, parse_graph_spec(args.graph)), "file"
    else:
        oriented, tag = _build_orientation(args)
    result = check_pfaffian(oriented, **guard)
    report = {"request": request, "method": f"pfaffian-check:{tag}", "count": None,
              "violations": [list(c) for c in result.violations]}
    lines = [
        f"orientation: {tag}",
        f"route: {result.route}",
        f"perfect matchings: {result.matchings}, |Pf|: {result.pfaffian}",
    ]
    if not result.passed:
        lines.append(f"cycles checked: {result.nice_even_cycles} nice even")
    lines.append(f"verdict: {'pass' if result.passed else 'FAIL'}")
    for c in result.violations:
        lines.append("violation: " + "-".join(str(v) for v in c))
    return report, lines, EXIT_OK if result.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------

def cmd_product(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    request = {"command": "product", "factors": [args.factor1, args.factor2]}
    g = parse_graph_spec(args.factor1)
    h = parse_graph_spec(args.factor2)
    product = cartesian_product(g, h)
    report = {"request": request, "method": "cartesian-product", "count": None, "violations": []}
    if args.json:
        report["edges"] = [f"{u} {v}" for u, v in sorted(product.edges)]
        report["vertices"] = product.n
    comments = [f"cartesian product of {args.factor1} and {args.factor2}",
                f"vertex (i, j) of ({args.factor1}) x ({args.factor2}) is i*{h.n} + j (layer-major)"]
    return report, _emit(args, lambda: format_edge_list(product, comments)), EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

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
    built on the first call and shared after.

    Sharing is safe because every default is immutable and each
    parse_args call returns a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="pfmatch",
        description="Exact perfect-matching counts for path/cycle-by-tree products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def vertex_limit(text: str) -> int:
        try:
            limit = int(text)
        except ValueError:  # argparse's own words for a type=int option
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if limit < 0:
            raise argparse.ArgumentTypeError(f"need 0 or more, got {limit}")
        return limit

    def add_guard(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-vertices",
            type=vertex_limit,
            default=None,
            help="guard for exponential steps (default: the library's)",
        )

    count = sub.add_parser("count", help="count perfect matchings")
    count.add_argument("--graph", help="graph spec or edge-list file")
    count.add_argument("--product", help="product kind: c4, p2, p3, p4, or pm:M")
    count.add_argument("--tree", help="tree spec for --product")
    count.add_argument("--grid", nargs=2, type=int, metavar=("M", "N"), help="m x n grid")
    count.add_argument(
        "--method",
        choices=["auto", "brute", "pfaffian", "formula"],
        default="auto",
        help="auto prefers formula, then a proven orientation, then brute",
    )
    count.add_argument("--orient-file", help="oriented edge-list file (pfaffian method, --graph)")
    add_common(count)
    add_guard(count)
    count.set_defaults(func=cmd_count)

    orient = sub.add_parser("orient", help="emit a constructed orientation")
    orient.add_argument("--double", action="store_true", help="two reversed copies plus rungs")
    orient.add_argument("--c4", action="store_true", help="the four-layer cyclic construction")
    orient.add_argument("--layers", type=int, help="M stacked alternating layers")
    orient.add_argument("--graph", help="base graph (for --double)")
    orient.add_argument("--tree", help="base tree spec")
    orient.add_argument("--orient-file", help="base orientation (default: lexicographic)")
    orient.add_argument("--output", help="write the oriented edge list here")
    add_common(orient)
    orient.set_defaults(func=cmd_orient)

    verify = sub.add_parser("verify", help="run the verification suites")
    verify.add_argument("--pfaffian", action="store_true",
                        help="Pfaffian check: |Pf| against the number of perfect matchings")
    verify.add_argument("--identities", action="store_true", help="count identity cross-checks")
    verify.add_argument("--double", action="store_true")
    verify.add_argument("--c4", action="store_true")
    verify.add_argument("--layers", type=int)
    verify.add_argument("--graph", help="graph spec (with --orient-file)")
    verify.add_argument("--tree", help="tree spec")
    verify.add_argument("--orient-file", help="orientation to verify")
    add_common(verify)
    add_guard(verify)
    verify.set_defaults(func=cmd_verify)

    product = sub.add_parser("product", help="emit a Cartesian product edge list")
    product.add_argument("factor1", help="graph spec or file")
    product.add_argument("factor2", help="graph spec or file")
    product.add_argument("--output", help="write the edge list here")
    add_common(product)
    product.set_defaults(func=cmd_product)

    return parser, {"count": count, "orient": orient, "verify": verify, "product": product}


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    # a known command goes straight to its own parser, so it is parsed
    # once; anything else (nothing, --help, an unknown name) to the top
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    # Counts are printed in full however long they are: lift Python's
    # int-to-str digit limit (where the interpreter has one) for this call.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        report, lines, code = args.func(args)
    except PfmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report["elapsed_ms"] = elapsed_ms
    if args.json:
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed_ms:.1f} ms")
    return code


if __name__ == "__main__":
    sys.exit(main())
