#!/usr/bin/env python3
"""Pm(C4 x T) is always a square or double a square ("squarish").

Which of the two happens is governed by the tree's corank s, the
multiplicity of the eigenvalue 0, which for a tree is n - 2r (vertex
count minus twice the maximum matching size); the demo reads it off the
characteristic polynomial phi(x) = x^e * psi(x^2), e = n mod 2, as e
plus twice the index of the lowest nonzero coefficient of psi.  The
count is 2^(s mod 2) times a square, and s has the parity of n, so
every tree of even order gives a square, whether or not it has a
perfect matching (the star with 3 leaves gives 100 = 10^2).  When T has
a perfect matching (s = 0) the square root is the P3 x T count.
"""

import pfmatch as pf


def corank(t):
    """Multiplicity of 0 as an eigenvalue of the tree's adjacency matrix.

    psi has degree n // 2, so psi modulo y^(n//2 + 1) is psi itself.
    """
    psi = pf.psi_tree_mod(t, [0] * (t.n // 2 + 1) + [1])
    return t.n % 2 + 2 * next(k for k, c in enumerate(psi) if c)


def main():
    print(f"{'tree (edges)':44} {'Pm(C4xT)':>10}  decomposition   corank")
    print("-" * 78)
    for seed in range(14):
        t = pf.random_tree(2 + seed % 8, seed * 37 + 11)
        count = pf.count_product("c4", 4, t, "formula").count
        dec = pf.squarish_decompose(count)
        s = corank(t)
        shape = f"{dec.factor} * {dec.root}^2"
        edges = ",".join(f"{u}{v}" for u, v in sorted(t.edges)) or "-"
        print(f"{edges:44} {count:>10}  {shape:14} {s:>5}")
        assert dec.value == count
        assert (dec.factor == 1) == (s % 2 == 0)

    print()
    print("when T has a perfect matching the square root is itself a count:")
    for seed in (3, 8, 21):
        t = pf.random_tree(6, seed)
        if not pf.tree_has_perfect_matching(t):
            continue
        c4 = pf.count_product("c4", 4, t, "formula").count
        p3 = pf.count_product("pm", 3, t, "formula").count
        print(f"  tree {sorted(t.edges)}:")
        print(f"    Pm(C4 x T) = {c4} = {p3}^2 = Pm(P3 x T)^2")
        assert p3 * p3 == c4


if __name__ == "__main__":
    main()
