#!/usr/bin/env python3
"""Building orientations and verifying the Pfaffian property exhaustively.

An orientation is Pfaffian when every perfect matching carries the same
sign in the Pfaffian of the skew adjacency matrix, that is, when |Pf|
equals the number Pm of perfect matchings; then |Pf| counts the
perfect matchings by linear algebra alone.  The check reads both
numbers off one signed sweep over the perfect matchings.  Equivalently,
every nice even cycle (one whose removal leaves a perfectly matchable
remainder) carries an odd number of arcs along each traversal
direction, so a failing orientation goes on through the cycles that
alternate with every perfect matching, which are all the nice even
cycles, and lists the violations among them.

The constructions demonstrated:
  - doubling:   two mirrored copies of an oriented graph, rungs all
                pointing from the left copy to the right one
  - layering:   m stacked copies of an oriented tree, alternating with
                the converse, rungs pointing up the stack
  - c4-tree:    the doubling applied twice; the base is isomorphic to
                C4 x T and the orientation is always Pfaffian
"""

import pfmatch as pf


def evidence(report):
    if report.passed:
        return f"|Pf| = Pm = {report.pfaffian}"
    return f"|Pf| = {report.pfaffian} < Pm = {report.matchings}"


def show(tag, oriented):
    report = pf.check_pfaffian(oriented)
    verdict = "Pfaffian" if report.passed else f"NOT Pfaffian ({len(report.violations)} bad cycles)"
    print(f"  {tag:30} vertices={oriented.n:>3}  {evidence(report):22}  {verdict}")
    return report


def main():
    t = pf.random_tree(5, seed=7)
    d = pf.orient_lexicographic(t)
    print("base tree edges:", sorted(t.edges))
    print()
    print("constructed orientations, checked by |Pf| against the matching count Pm:")
    show("double (P2 x T)", pf.orient_double(d))
    show("layered, 4 copies (P4 x T)", pf.orient_layered(d, 4))
    show("c4-tree (C4 x T)", pf.orient_c4_tree(d))

    # the 3-layer construction is only guaranteed for trees with a
    # perfect matching, so give it one
    spider = pf.validate_tree(
        pf.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    )
    assert pf.tree_has_perfect_matching(spider)
    print()
    print("matched tree for the 3-layer construction:", sorted(spider.edges))
    show("layered, 3 copies (P3 x T)", pf.orient_layered(pf.orient_lexicographic(spider), 3))

    print()
    print("counting through a verified orientation (|Pf| by exact elimination):")
    oriented = pf.orient_c4_tree(d)
    result = pf.count_graph(oriented.base, "pfaffian", oriented)
    brute = pf.count_graph(oriented.base, "brute")
    print(f"  |Pf(skew adjacency)| = {result.count}")
    print(f"  brute-force count    = {brute.count}")
    assert result.count == brute.count

    print()
    print("a broken orientation for contrast (C4 oriented all the way around):")
    c4 = pf.cycle_graph(4)
    bad = pf.OrientedGraph(n=4, arcs=frozenset([(0, 1), (1, 2), (2, 3), (3, 0)]))
    report = show("all-forward C4", bad)
    print("  violating cycle:", "-".join(map(str, report.violations[0])))
    wrong = pf.count_graph(c4, "pfaffian", bad)
    print(f"  its |Pf| gives {wrong.count}, but the true count is "
          f"{pf.count_graph(c4, 'brute').count}: signed matchings cancelled.")

    print()
    print("probing beyond the proven range (5 and 6 layers, small trees):")
    for m in (5, 6):
        for n in (2, 3, 4):
            probe = pf.orient_layered(pf.orient_lexicographic(pf.random_tree(n, seed=n)), m)
            report = pf.check_pfaffian(probe)
            print(f"  {m} layers on a {n}-vertex tree: "
                  f"{'passes' if report.passed else 'FAILS'} "
                  f"({evidence(report)})")
    print("  (no theorem backs these; the check is empirical evidence only)")


if __name__ == "__main__":
    main()
