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
"""

import itertools
import math

from sofic import (
    full_shift,
    golden_mean,
    subshift_entropy_table,
    transfer_matrix_count,
)


def main():
    gm = golden_mean()
    print("golden-mean shift: alphabet {0,1}, forbidden word 11")
    print(f"{'n':>4} {'count':>12} {'h_n':>12}  vs log 2 = {math.log(2):.6f}")
    for n in range(2, 31, 4):
        count = transfer_matrix_count(gm, n, 0)
        h = math.log(count) / n
        print(f"{n:>4} {count:>12} {h:>12.6f}  gap {math.log(2) - h:.6f}")
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
    shift3 = full_shift(3)
    for n in (5, 10, 15):
        count = transfer_matrix_count(shift3, n, 0)
        print(f"  n = {n:>2}: count = {count} = 3^{n}, h = {math.log(count)/n:.12f}")

    print()
    print("a subshift with no odd cycles (alternating 0101...):")
    from sofic import SubshiftSFT

    alt = SubshiftSFT(alphabet=(0, 1), window=(0, 1), allowed=frozenset({(0, 1), (1, 0)}))
    for n in (3, 4, 5, 6):
        print(f"  n = {n}: count = {transfer_matrix_count(alt, n, 0)}")
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
