#!/usr/bin/env python3
"""Homomorphism counting for subshifts of finite type.

Over the cyclic approximation Z/n, a zero-budget homomorphism count of a
nearest-neighbor subshift is exactly the number of allowed n-cycles, i.e.
trace(T^n).  The golden-mean shift (no adjacent 1s) gives Lucas numbers,
whose normalized logs drop below log 2: a strict entropy gap separating
every proper subshift from the full shift.  Positive budgets relax the
count sitewise (the microstate version) and interpolate back toward k^n.
A wider window is a nearest-neighbor shift on blocks (its higher-block
presentation), so its counts come from the same kind of transfer walk.
Every count here is read off one entropy table per shift.
"""

import itertools
import math

from sofic import SubshiftSFT, full_shift, golden_mean, subshift_entropy_table


def main():
    gm = golden_mean()
    print("golden-mean shift: alphabet {0,1}, forbidden word 11")
    print(f"{'n':>4} {'count':>12} {'h_n':>12}  vs log 2 = {math.log(2):.6f}")
    for row in subshift_entropy_table(gm, range(2, 31, 4)).rows:
        print(f"{row.n:>4} {row.count:>12} {row.h_n:>12.6f}  gap {math.log(2) - row.h_n:.6f}")
    golden = math.log((1 + math.sqrt(5)) / 2)
    print(f"limit: log((1 + sqrt 5)/2) = {golden:.6f}")

    print()
    print("budget relaxation at n = 12 (allowing bad sites):")
    table = subshift_entropy_table(gm, [12], budgets=[0, 1, 2, 4, 8, 12])
    print(f"{'budget':>8} {'count':>8} {'h':>10}")
    for row in table.rows:
        print(f"{row.budget:>8} {row.count:>8} {row.h_n:>10.6f}")
    print(f"budget 12 admits every labeling: 2^12 = {2**12}")

    print()
    print("full shift on 3 symbols: every count is exactly 3^n")
    for row in subshift_entropy_table(full_shift(3), [5, 10, 15]).rows:
        print(f"  n = {row.n:>2}: count = {row.count} = 3^{row.n}, h = {row.h_n:.12f}")

    print()
    print("a subshift with no odd cycles (alternating 0101...):")
    alt = SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 1), (1, 0)}))
    for row in subshift_entropy_table(alt, [3, 4, 5, 6]).rows:
        print(f"  n = {row.n}: count = {row.count}")
    print("zero counts report h = -inf; the library never hides them.")

    print()
    print("window {0,1,2} forbidding 000 and 111: a walk on the 2-blocks")
    window3 = SubshiftSFT(
        alphabet=(0, 1),
        window=(0, 1, 2),
        allowed=frozenset(p for p in itertools.product((0, 1), repeat=3) if len(set(p)) == 2),
    )
    table = subshift_entropy_table(window3, [1, 2, 3, 6, 12, 24], budgets=[0, 1])
    print(f"{'n':>4} {'budget':>6} {'count':>10} {'h':>10}  method")
    for row in table.rows:
        print(f"{row.n:>4} {row.budget:>6} {row.count:>10} {row.h_n:>10.6f}  {row.method}")
    print(f"n = 24 has 2^24 = {2**24} labelings; the walk never lists them")


if __name__ == "__main__":
    main()
