#!/usr/bin/env python3
"""The squares do NOT exhibit the skip phenomenon: a witness construction.

For s_n = n^2 one can always choose alpha so that all of 1, 2, 4, ..., 2^m
appear in {floor(alpha * n^2)}.  The magic scaling is alpha = 1/(4*(2^m+1)).
Its inverse is an integer, so finding each n_i reduces to integer
square-root window checks, no real arithmetic involved.
"""

from floorfull import Squares, s_alpha, squares_witness_alpha, verify_squares_witness

for m in (0, 2, 5):
    alpha = squares_witness_alpha(m)
    inv_alpha = alpha.denominator
    report = verify_squares_witness(m)  # the record holds only the n_i it found
    print(f"m = {m}: alpha = {alpha} (inverse {inv_alpha})")
    for i, n_i in enumerate(report.lines):
        target = 2 ** i
        lower, upper = inv_alpha * target, inv_alpha * (target + 1)
        print(
            f"   target 2^{i} = {target:4d}: n = {n_i:4d},"
            f"  n^2 = {n_i ** 2} lies in [{lower}, {upper})"
        )
    print()

print("image of the squares under alpha = 1/20 (m = 2 witness):")
print("  ", s_alpha(Squares(), squares_witness_alpha(2), 12))
print("   -> contains 1, 2, 4 as promised")
print()

report = verify_squares_witness(12)
print(f"m = 12: all {len(report.lines)} targets found, alpha = {squares_witness_alpha(12)}")
print(f"   largest witness square: n = {report.lines[-1]}")
