"""The public surface: every exported name and every top-level def has a
caller outside the tests, every public failure is a PfmatchError, no
module reads the environment, no exported function takes a guard, and
exactlinalg sits below orientation."""

import ast
import inspect
import pathlib

import pytest

import pfmatch

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pfmatch"


def _uses() -> list[tuple[str, set[str]]]:
    """(owner, identifiers read) per top-level statement of the demos and
    of the package modules other than __init__.py.

    The owner is the name a top-level def or class binds, and "" for any
    other statement.  A name counts where it is loaded or read as an
    attribute (pf.name); its own def, class or assignment, its import
    and docstrings do not.
    """
    files = sorted((ROOT / "demos").glob("*.py"))
    files += [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    uses = []
    for path in files:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", "")
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            uses.append((owner, names - {owner}))
    return uses


def _unread(names: set[str]) -> set[str]:
    """The names in names that nothing in src/ or demos/ reads.

    A name read only inside the body of an unread name is unread too, so
    such bodies are dropped until nothing changes.
    """
    uses = _uses()
    unused: set[str] = set()
    while True:
        read = set().union(*(found for owner, found in uses if owner not in unused))
        if names - read == unused:
            return unused
        unused = names - read


def test_every_exported_name_has_a_caller():
    unused = _unread(set(pfmatch.__all__))
    assert not unused, f"exported without a caller: {sorted(unused)}"


def test_every_def_has_a_reader_outside_the_tests():
    # private helpers included: one that only its test keeps alive is dead code
    defs = {stmt.name
            for path in PACKAGE.glob("*.py")
            for stmt in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    unused = _unread(defs)
    assert not unused, f"defined without a reader in src/ or demos/: {sorted(unused)}"


@pytest.mark.parametrize("call", [
    lambda: pfmatch.Graph(n=-1, edges=frozenset()),
    lambda: pfmatch.Graph(n=3, edges=frozenset({(1, 0)})),
    lambda: pfmatch.Graph(n=2, edges=frozenset({(0, 2)})),
    lambda: pfmatch.OrientedGraph(n=2, arcs=frozenset({(5, 7)})),
    lambda: pfmatch.OrientedGraph(n=2, arcs=frozenset({(1, 1)})),
    lambda: pfmatch.OrientedGraph(n=2, arcs=frozenset({(0, 1), (1, 0)})),
    lambda: pfmatch.CountResult(count=-1, method="brute"),
    lambda: pfmatch.SquarishDecomposition(factor=3, root=1),
    lambda: pfmatch.SquarishDecomposition(factor=1, root=-1),
    lambda: pfmatch.psi_tree_mod(pfmatch.path_graph(2), [1, 2]),
    lambda: pfmatch.root_product([1, 2], [1]),
], ids=["negative-n", "unsorted-edge", "edge-out-of-range", "arc-out-of-range",
        "self-loop-arc", "edge-both-ways", "negative-count", "squarish-factor", "squarish-root",
        "psi-non-monic", "root-product-non-monic"])
def test_public_failures_are_pfmatch_errors(call):
    # exit code 3 through the CLI, and still the ValueError they used to be;
    # SquarishDecomposition's check must survive python -O, so no assert
    with pytest.raises(pfmatch.PfmatchError) as info:
        call()
    assert isinstance(info.value, ValueError) and info.value.exit_code == 3


def test_no_module_reads_the_environment():
    # every guard is a fixed constant: neither a parameter (see below)
    # nor an environment variable sets one
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            readers += [(path.name, name) for name in names if name in ("environ", "getenv")]
    assert not readers


def test_no_exported_function_takes_a_guard():
    guards = [getattr(pfmatch, name) for name in pfmatch.__all__ if name.startswith("DEFAULT_")]
    assert len(guards) == 4
    functions = [name for name in pfmatch.__all__ if inspect.isfunction(getattr(pfmatch, name))]
    assert "count_product" in functions
    for name in functions:
        for param in inspect.signature(getattr(pfmatch, name)).parameters.values():
            named = any(word in param.name for word in ("vertices", "guard", "budget"))
            assert not named and param.default not in guards, (name, param.name)


def test_exactlinalg_imports_only_errors_and_graphs():
    # orientation may call abs_pfaffian without an import cycle
    tree = ast.parse((PACKAGE / "exactlinalg.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"errors", "graphs"}
