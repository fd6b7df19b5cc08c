#!/usr/bin/env python3
"""The dimer problem: counting domino tilings of grids and the 2x2xn lattice.

Both counts are exact integers computed from the characteristic
polynomials of the paths.  Two trigonometric product formulas are
floating cross-checks of them: count_grid evaluates the grid's in log
space, and this demo evaluates the lattice's at n = 30 itself:

  m x n grid :  2^(mn/2) * prod_k prod_l (cos^2(pi k/(m+1)) + cos^2(pi l/(n+1)))^(1/4)
  2 x 2 x n  :  prod_k [2 + 4 cos^2(k pi/(n+1))]   (= Pm(C4 x P_n))
"""

import math

import pfmatch as pf


def main():
    print("domino tilings of the m x n grid (exact, checked vs brute force):")
    print()
    print("  m\\n |" + "".join(f"{n:>9}" for n in range(1, 9)))
    print("  ----+" + "-" * 72)
    for m in range(1, 9):
        row = [f"{m:>4} |"]
        for n in range(1, 9):
            count = pf.count_grid(m, n).count
            row.append(f"{count:>9}")
            if m * n <= 30 and (m * n) % 2 == 0:
                g = pf.cartesian_product(pf.path_graph(m), pf.path_graph(n))
                assert pf.count_graph(g, "brute").count == count
        print("".join(row))
    print()
    print("entries with mn <= 30 were re-counted by brute-force enumeration.")

    print()
    print("floating accuracy of the trigonometric grid product (distance to the exact count):")
    for m, n in ((4, 4), (6, 6), (8, 8), (10, 10)):
        r = pf.count_grid(m, n)
        print(f"  {m:>2} x {n:<2}  count={r.count:>15}  |estimate - count| = "
              f"{abs(r.float_estimate - r.count):.3e}")

    print()
    print("the 2 x 2 x n lattice (C4 x P_n): exact integers with a trig cross-check")
    print()
    print("   n  count")
    for n in range(1, 13):
        print(f"  {n:>2}  {pf.count_product('c4', 4, pf.path_graph(n)).count}")
    print()
    count = pf.count_product("c4", 4, pf.path_graph(30)).count
    product = math.prod(2.0 + 4.0 * math.cos(k * math.pi / 31) ** 2 for k in range(1, 31))
    print(f"  at n=30 the count is {count} (~{count:.3e});")
    print(f"  the floating product agrees to {abs(product - count) / count:.2e} relative,")
    print("  while the returned value is exact: 2^e * psi(-2)^2 from the path's")
    print("  characteristic polynomial phi(x) = x^e * psi(x^2).")


if __name__ == "__main__":
    main()
