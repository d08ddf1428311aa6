#!/usr/bin/env python3
"""No alpha in (0, 1) puts both 8 and 16 into the scaled power-floor sequence.

Take s_n = floor((3/2)^n) and scale: S_alpha = {floor(alpha * s_n)}.  If 8
shows up at index k, alpha is trapped in [8/s_k, 9/s_k), and over that
window the next two terms can only reach values that skip straight past
16.  The whole argument runs in exact rational arithmetic: intervals in,
integer extrema out.
"""

from fractions import Fraction

from floorfull import (
    FloorPower,
    counterexample_scan,
    gamma_exception_search,
    generate_terms,
    s_alpha,
    symbolic_condition_check,
    verify_skip_all_alpha,
)

POW32 = FloorPower(Fraction(3, 2))

print("the sequence:", generate_terms(POW32, 12), "...")
print()
print("a taste of scaling, alpha = 1/2:", s_alpha(POW32, Fraction(1, 2), 12))
print()

report = verify_skip_all_alpha(Fraction(3, 2), 3, 300)
print(f"skip verification for target 8 -> forbidden 16, k up to {report.k_max}:")
print(f"  indices with an empty alpha-window (s_k <= 8): {report.skipped}")
print("  first rows (max at k+1 must stay <= 15, min at k+2 must reach >= 17):")
for row in report.rows[:6]:
    print(
        f"    k={row.k:3d}  alpha in {str(row.interval):18s}"
        f"  max_next={row.max_floor_next:3d}  min_next2={row.min_floor_next2:3d}"
    )
print(f"  every row passed: {report.overall}")
print()

hits = counterexample_scan(POW32, 8, 16, 300)
print(f"brute-force cross-check, preimage intersections for (8, 16): {len(hits)} hits")
print()

check = symbolic_condition_check(Fraction(3, 2), 3)
print("k-free sufficient conditions at gamma = 3/2, j = 3:")
print(f"  (2^3 + 2) * gamma = {check.growth_lhs}  <= 2^4 = {check.growth_rhs}: {check.growth_ok}")
print(f"  2^3 * (gamma^2 - 2) = {check.gap_lhs}  >= 2: {check.gap_ok}")
print()

print("the same story for other growth rates gamma in [3/2, 2):")
for text in ("3/2", "8/5", "17/10", "9/5", "19/10"):
    gamma = Fraction(text)
    j = gamma_exception_search(gamma)
    confirmed = verify_skip_all_alpha(gamma, j, 200).overall
    print(f"  gamma = {text:5s} -> skip pair (2^{j}, 2^{j+1}), scan to k=200 confirms: {confirmed}")
