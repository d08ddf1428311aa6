#!/usr/bin/env python3
"""Shifted powers that never become r-full.

For any base ell >= 2 there is a shift k such that ell^m + k always has
some prime dividing it exactly once, no matter how large m grows.  This
script builds the certificate for a handful of bases, shows which of the
three construction cases fired, and verifies a range of exponents with
pure modular arithmetic.
"""

from floorfull import construct_certificate, validate_certificate, verify_non_rfull

print("base ell | case | shift k | witness data")
print("-" * 60)
for ell in (2, 3, 4, 6, 12, 15, 21, 30, 49):
    cert = construct_certificate(2, ell)
    validate_certificate(cert)  # raises VerificationFailure unless valid
    print(f"{ell:8d} | {cert.case:4s} | {cert.k:7d} | {cert.witness_dict()}")

print()
print("Verifying ell = 6 up to m = 15 (witness prime divides exactly once):")
cert = construct_certificate(2, 6)
report = verify_non_rfull(cert, max_m=15)
for line in report.lines:
    value = 6 ** line.m + cert.k
    marker = "also factor-checked" if line.cross_checked else "modular only"
    print(f"  m={line.m:2d}  6^m + {cert.k} = {value:<14d} witness {line.witness}  ({marker})")

print()
print("Why it works for case III (ell = 6, k = 60):")
print("  6^m + 60 = 6 * (6^(m-1) + 10); at m = 1 this is 6 * 11 with 11 = 6*2 - 1")
print("  prime, and for m >= 2 the odd factor 3 divides it exactly once.")
