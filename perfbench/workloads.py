"""The benchmark's request lists, generated from a seed.

`build(workload, seed)` returns the requests of one pass: pfmatch CLI
argument lists plus a description of the expected answer that
`oracle.py` turns into an exact count, cycle list or arc list.  Trees
come from `pfmatch.random_tree` with sub-seeds drawn from the seed, or
are fixed small shapes; they reach the CLI either as edge-list files
written at set-up or as `tree-random:N:S` specs.

Requests marked pinned ignore the seed.  Their cost depends steeply on
the exact tree (an exponential backtracking search), so a seeded tree
would make the run-to-run spread depend on the luck of the draw.

`probes(workload)` lists the known seed defects: requests whose answers
pfmatch gets wrong, or never returns, when this benchmark was written.
They run once per run, after the timed loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pfmatch

WORKLOADS = ("tree-formulas", "pfaffian-verify", "oracle-crosscheck")


@dataclass
class Request:
    """One CLI call; "@name" in argv stands for the input file `name`."""

    name: str
    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)


def _edge_list(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def _arc_list(n: int, arcs) -> str:
    lines = [f"{n} {len(arcs)}"] + [f"{u} -> {v}" for u, v in sorted(arcs)]
    return "\n".join(lines) + "\n"


def _sorted_edges(edges) -> list[list[int]]:
    return sorted([min(u, v), max(u, v)] for u, v in edges)


def random_tree_edges(n: int, seed: int) -> list[list[int]]:
    return _sorted_edges(pfmatch.random_tree(n, seed).edges)


def corona(base_edges, k: int, block: bool) -> list[list[int]]:
    """Every vertex of a k-vertex tree gets a pendant leaf.

    Interleaved labels put tree vertex v at 2v and its leaf at 2v + 1;
    block labels keep v and number its leaf k + v.  The two label the
    same tree, but a search that always extends the lowest free vertex
    finds a matching at once in the first and backtracks in the second.
    """
    if block:
        edges = [(u, v) for u, v in base_edges] + [(v, k + v) for v in range(k)]
    else:
        edges = [(2 * u, 2 * v) for u, v in base_edges] + [(2 * v, 2 * v + 1) for v in range(k)]
    return _sorted_edges(edges)


def pinned_labelling(shape: str, edges, n: int, k: int) -> list[list[int]]:
    """The shape with its vertices permuted by a fixed, seed-independent draw."""
    perm = list(range(n))
    random.Random(f"{shape}/{k}").shuffle(perm)
    return _sorted_edges((perm[u], perm[v]) for u, v in edges)


SHAPES_4 = {
    "path": [(0, 1), (1, 2), (2, 3)],
    "star": [(0, 1), (0, 2), (0, 3)],
}

SHAPES_5 = {
    "path": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "star": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "fork": [(0, 1), (1, 2), (2, 3), (1, 4)],
}

SHAPES_6 = {
    "path": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    "star": [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
    "fork": [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)],
    "cross": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    "broom": [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)],
    "dumbbell": [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
}


class _Builder:
    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}/{seed}")
        self.requests: list[Request] = []

    def subseed(self) -> int:
        return self.rng.getrandbits(32)

    def add(self, name: str, argv: list[str], expect: dict, files: dict | None = None) -> None:
        self.requests.append(Request(name, argv, expect, files or {}))

    def add_tree(self, name: str, argv_head: list[str], n: int, edges, expect: dict,
                 flag: str | None = "--tree") -> None:
        """A request on a tree written as an edge-list file at set-up."""
        fname = f"{name}.txt"
        token = [flag, f"@{fname}"] if flag else [f"@{fname}"]
        self.add(name, argv_head + token, dict(expect, tree=["edges", n, edges]),
                 {fname: _edge_list(n, edges)})


def _product(factor: str, method: str = "auto") -> dict:
    return {"kind": "product", "factor": factor, "method": method}


# Each pass is laid out in cost tiers so that the pooled p50 and p90 fall
# inside a run of requests whose costs rise in small steps: not in a gap
# between two unlike requests, where timing noise that swaps their order
# moves the quantile far, and not on a block of identical requests, where
# a host that is slow for part of a run flips the quantile between the
# block's fast and slow values instead of moving it in proportion.

def _tree_formulas(b: _Builder) -> None:
    # cheapest 16: small closed forms on seeded trees
    for k in (8, 10, 12, 14, 16, 18, 20, 22):
        b.add_tree(f"p3-corona-{2 * k}", ["count", "--product", "p3"], 2 * k,
                   corona(random_tree_edges(k, b.subseed()), k, block=False), _product("p3"))
    for k in (8, 10, 12, 14):
        b.add_tree(f"identities-corona-{2 * k}", ["verify", "--identities"], 2 * k,
                   corona(random_tree_edges(k, b.subseed()), k, block=False),
                   {"kind": "identities"})
    # closed forms on seeded random trees; C4 on 50-68 and P4 on 42-57
    # vertices are the p50 region
    for i, n in enumerate((30, 40, 50, 53, 56, 59, 62, 65, 68, 76, 84)):
        s = b.subseed()
        b.add(f"c4-random-{n}-{i}", ["count", "--product", "c4", "--tree", f"tree-random:{n}:{s}"],
              dict(_product("c4"), tree=["spec", n, s]))
    for i, n in enumerate((30, 36, 42, 45, 48, 51, 54, 57, 66, 74)):
        b.add_tree(f"p4-random-{n}-{i}", ["count", "--product", "p4"], n,
                   random_tree_edges(n, b.subseed()), _product("p4"))
    # pinned, from here up: block labels make the P3 matching search
    # backtrack; unmatched trees search twice before the size guard.  All
    # but the first two are the p90 region.
    for k, s in ((22, 5), (23, 4), (24, 1), (24, 3), (24, 2)):
        b.add_tree(f"p3-corona-block-{2 * k}-{s}-pinned", ["count", "--product", "p3"], 2 * k,
                   corona(random_tree_edges(k, s), k, block=True), _product("p3"))
    for n, s in ((90, 12), (120, 12), (100, 4), (100, 2), (90, 9)):
        b.add(f"p3-unmatched-{n}-{s}-pinned", ["count", "--product", "p3", "--tree", f"tree-random:{n}:{s}"],
              dict(_product("p3"), tree=["spec", n, s]))


def _pfaffian_verify(b: _Builder) -> None:
    # seeded and cheap: doublings of random trees, and two orientations of
    # the 3 x 4 grid that are not Pfaffian: arcs drawn from the seed, then
    # the nice 4-cycle 0-1-5-4 forced to an even forward count
    for i, n in enumerate((10, 11, 11, 12)):
        s = b.subseed()
        b.add(f"double-random-{n}-{i}", ["verify", "--pfaffian", "--double", "--tree", f"tree-random:{n}:{s}"],
              {"kind": "pfaffian-pass"})
    grid = _sorted_edges([(i * 4 + j, i * 4 + j + 1) for i in range(3) for j in range(3)]
                         + [(i * 4 + j, (i + 1) * 4 + j) for i in range(2) for j in range(4)])
    for i in range(2):
        arcs = [(u, v) if b.rng.random() < 0.5 else (v, u) for u, v in grid]
        if sum(1 for a in arcs if a in ((0, 1), (1, 5), (5, 4), (4, 0))) % 2:
            arcs = [(v, u) if {u, v} == {0, 1} else (u, v) for u, v in arcs]
        b.add(f"grid-3x4-orientation-{i}",
              ["verify", "--pfaffian", "--graph", "@grid.txt", "--orient-file", f"@grid-arcs-{i}.txt"],
              {"kind": "pfaffian-violations", "n": 12, "arcs": [list(a) for a in arcs]},
              {"grid.txt": _edge_list(12, grid), f"grid-arcs-{i}.txt": _arc_list(12, arcs)})
    # pinned, from here up, cheapest first: the cycle enumeration and the
    # matching searches follow the labels, so every tree is a fixed
    # labelled tree
    pinned = [("layers3", "corona", 6, corona(SHAPES_4["path"][:2], 3, block=False))] * 2
    pinned += [("layers4", "star", 5, SHAPES_5["star"])] * 2
    # the p50 region: P4 x T on paths and forks under fixed labellings
    pinned += [("layers4", shape, 5, pinned_labelling(shape, SHAPES_5[shape], 5, k))
               for shape in ("fork", "path") for k in range(4)]
    pinned += [("layers3", "corona-star", 8, corona(SHAPES_4["star"], 4, block=False)),
               ("layers3", "corona-path", 8, corona(SHAPES_4["path"], 4, block=False))]
    pinned += [("layers4", shape, 6, SHAPES_6[shape])
               for shape in ("star", "broom", "dumbbell", "fork", "cross", "path")]
    pinned += [("c4", "star", 5, SHAPES_5["star"])]
    # the p90 region: C4 x T on forks and paths under fixed labellings
    pinned += [("c4", shape, 5, pinned_labelling(shape, SHAPES_5[shape], 5, k))
               for shape, k in (("fork", 3), ("fork", 2), ("path", 0), ("path", 4), ("path", 3))]
    for i, (construction, shape, n, edges) in enumerate(pinned):
        flags = ["--c4"] if construction == "c4" else ["--layers", construction[-1]]
        b.add_tree(f"{construction}-{shape}-{n}-{i}-pinned", ["verify", "--pfaffian", *flags], n,
                   _sorted_edges(edges), {"kind": "pfaffian-pass"})


def _oracle_crosscheck(b: _Builder) -> None:
    # cheapest 16: formula grids, products, orientations, small Pfaffian
    # determinants and small brute-force counts
    for m, n in ((8, 8), (2, 30), (4, 12), (6, 10), (3, 20), (5, 8)):
        b.add(f"grid-{m}x{n}", ["count", "--grid", str(m), str(n)], {"kind": "grid", "m": m, "n": n})
    for n in (20, 30):
        s = b.subseed()
        b.add(f"product-c4-{n}", ["product", "cycle:4", f"tree-random:{n}:{s}"],
              {"kind": "product-edges", "factor": "cycle", "m": 4, "tree": ["spec", n, s]})
    b.add_tree("product-p3-30", ["product", "path:3"], 30, random_tree_edges(30, b.subseed()),
               {"kind": "product-edges", "factor": "path", "m": 3}, flag=None)
    for n in (20, 30):
        s = b.subseed()
        b.add(f"orient-c4-{n}", ["orient", "--c4", "--tree", f"tree-random:{n}:{s}"],
              {"kind": "orient-c4", "tree": ["spec", n, s]})
    for i in range(2):
        b.add_tree(f"p5-35-{i}", ["count", "--product", "pm:5"], 7,
                   random_tree_edges(7, b.subseed()), _product("pm:5"))
    b.add_tree("identities-6", ["verify", "--identities"], 6, random_tree_edges(6, b.subseed()),
               {"kind": "identities"})
    # above them: Pfaffian determinants and P2 products on seeded trees,
    # and brute-force grids; from the 32-vertex grid to the 90-vertex P2
    # product they are the p50 region, in steps of about a tenth
    for i, n in enumerate((10, 18, 22, 30)):
        s = b.subseed()
        b.add(f"c4-pfaffian-{4 * n}-{i}", ["count", "--product", "c4", "--method", "pfaffian",
                                             "--tree", f"tree-random:{n}:{s}"],
              dict(_product("c4", "pfaffian"), tree=["spec", n, s]))
    for i, n in enumerate((20, 36, 40, 45, 60)):
        b.add_tree(f"p2-{2 * n}-{i}", ["count", "--product", "p2"], n,
                   random_tree_edges(n, b.subseed()), _product("p2"))
    for m, n in ((4, 8), (3, 12), (6, 6), (5, 8), (4, 10)):
        b.add(f"grid-brute-{m}x{n}", ["count", "--grid", str(m), str(n), "--method", "brute"],
              {"kind": "grid", "m": m, "n": n})
    # pinned, from here up: brute-force counts, whose search order follows
    # the labels; the 32-vertex C4 and 40-vertex P4 counts are the p90
    # region
    identities = (["verify", "--identities"], {"kind": "identities"})
    p5 = (["count", "--product", "pm:5"], _product("pm:5"))
    c4_brute = (["count", "--product", "c4", "--method", "brute"], _product("c4", "brute"))
    p4_brute = (["count", "--product", "p4", "--method", "brute"], _product("p4", "brute"))
    for name, (head, expect), n, s in (
        ("identities", identities, 7, 1), ("identities", identities, 7, 3),
        ("p5", p5, 8, 3), ("p5", p5, 8, 5),
        ("c4-brute", c4_brute, 8, 3), ("c4-brute", c4_brute, 8, 5), ("c4-brute", c4_brute, 8, 1),
        ("p4-brute", p4_brute, 10, 4), ("p4-brute", p4_brute, 10, 5), ("p4-brute", p4_brute, 10, 6),
        ("c4-brute", c4_brute, 9, 3),
    ):
        b.add(f"{name}-{n}-{s}-pinned", head + ["--tree", f"tree-random:{n}:{s}"],
              dict(expect, tree=["spec", n, s]))
    s = b.subseed()
    b.add("c4-pfaffian-160", ["count", "--product", "c4", "--method", "pfaffian",
                              "--tree", f"tree-random:40:{s}"],
          dict(_product("c4", "pfaffian"), tree=["spec", 40, s]))


_BUILDERS = {
    "tree-formulas": _tree_formulas,
    "pfaffian-verify": _pfaffian_verify,
    "oracle-crosscheck": _oracle_crosscheck,
}


def build(workload: str, seed: int) -> list[Request]:
    """The requests of one pass, in the order the closed loop sends them."""
    b = _Builder(workload, seed)
    _BUILDERS[workload](b)
    # one fixed order for every seed: the order shapes the heap, and with
    # it peak_rss_mib, so it must not change from seed to seed
    random.Random(workload).shuffle(b.requests)
    names = [r.name for r in b.requests]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate request names in {workload}")
    return b.requests


def probes(workload: str) -> list[Request]:
    """Known seed defects; none of them depends on the seed."""
    if workload == "tree-formulas":
        return [Request("probe-p3-tree-random-200-7",
                        ["count", "--product", "p3", "--tree", "tree-random:200:7"],
                        dict(_product("p3"), tree=["spec", 200, 7]))]
    if workload == "oracle-crosscheck":
        return [Request(f"probe-grid-{m}x{n}", ["count", "--grid", str(m), str(n)],
                        {"kind": "grid", "m": m, "n": n})
                for m, n in ((10, 12), (12, 12), (14, 14), (8, 40), (60, 60))]
    return []
