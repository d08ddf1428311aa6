"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer or rational arithmetic); there are no
numerical tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from floorfull.certificates import (
    construct_certificate,
    validate_certificate,
    verify_non_rfull,
)
from floorfull.classify import is_r_full, r_full_up_to, squarefull_via_a2b3
from floorfull.floorseq import FloorPower, generate_terms, preimage_interval
from floorfull.pset import compute_pset, squares_witness_alpha, verify_squares_witness
from floorfull.rationals import RatInterval
from floorfull.skipverify import (
    counterexample_scan,
    gamma_exception_search,
    interval_extrema_of_floor,
    symbolic_condition_check,
    verify_skip_all_alpha,
)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    verdict = "PASS" if ok else "FAIL (over runtime budget)"
    print(f"[criterion {number}] {name}: {verdict} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded budget {budget_seconds:g}s"


def test_criterion_1_certificate_grid():
    with criterion(1, "certificate grid r in 2..5, ell in 2..50, m up to 60", 60.0):
        for r in range(2, 6):
            for ell in range(2, 51):
                cert = construct_certificate(r, ell)
                validate_certificate(cert)
                report = verify_non_rfull(cert, max_m=60)
                assert report.all_passed, (r, ell)
                assert len(report.lines) == 60


def test_criterion_2_skip_verification():
    with criterion(2, "8 in image forces 16 out, every alpha in (0,1)", 5.0):
        report = verify_skip_all_alpha(Fraction(3, 2), 3, 300)
        assert report.overall
        row7 = {row["k"]: row for row in report.rows}[7]
        assert row7["max_floor_next"] <= 14
        assert row7["min_floor_next2"] >= 17

        hits = counterexample_scan(FloorPower(Fraction(3, 2)), 8, 16, 300)
        assert hits == []

        check = symbolic_condition_check(Fraction(3, 2), 3)
        assert check.ok
        assert (check.growth_lhs, check.growth_rhs) == (Fraction(15), 16)
        assert (check.gap_lhs, check.gap_rhs) == (Fraction(2), 2)


def test_criterion_3_gamma_generalization():
    with criterion(3, "generalized exponent search over gamma grid", 10.0):
        assert gamma_exception_search(Fraction(3, 2)) == 3
        gammas = (
            Fraction(3, 2),
            Fraction(8, 5),
            Fraction(17, 10),
            Fraction(9, 5),
            Fraction(19, 10),
        )
        for gamma in gammas:
            j = gamma_exception_search(gamma)
            report = verify_skip_all_alpha(gamma, j, 200)
            assert report.overall, (gamma, j)


def test_criterion_4_squares_witness():
    with criterion(4, "squares witness alpha = 1/(4*(2^m+1)) for m up to 12", 2.0):
        for m in range(13):
            alpha = squares_witness_alpha(m)
            assert alpha == Fraction(1, 4 * (2 ** m + 1))
            report = verify_squares_witness(m)
            assert report.m == m and len(report.lines) == m + 1
            payload = report.to_json_dict()
            assert payload["alpha"] == str(alpha) and payload["all_passed"] is True
            inv_alpha = alpha.denominator
            for i, (n_i, line) in enumerate(zip(report.lines, payload["lines"])):
                assert math.floor(alpha * n_i ** 2) == 2 ** i
                printed = [int(line[key]) for key in ("target", "n_i", "lower", "upper")]
                assert printed == [2 ** i, n_i, inv_alpha * 2 ** i, inv_alpha * (2 ** i + 1)]


def _enumerate_subset_sums(terms):
    sums = [0]
    for a in terms:
        sums = sums + [s + a for s in sums]
    return set(sums)


def test_criterion_5_oracle_equivalences():
    with criterion(5, "bitset DP, sieve, and a2b3 against independent oracles", 60.0):
        rng = random.Random(20260811)
        for _ in range(200):
            size = rng.randint(0, 18)
            terms = [rng.randint(0, 40) for _ in range(size)]
            bound = rng.randint(1, 250)
            expected = {s for s in _enumerate_subset_sums(terms) if s <= bound}
            assert set(compute_pset(terms, bound).members()) == expected

        per_element = {r: [] for r in (2, 3, 4)}
        for n in range(1, 10 ** 5 + 1):
            for r in (2, 3, 4):
                if is_r_full(n, r):
                    per_element[r].append(n)
        for r in (2, 3, 4):
            assert r_full_up_to(10 ** 5, r) == per_element[r]

        assert squarefull_via_a2b3(10 ** 6) == r_full_up_to(10 ** 6, 2)


def test_criterion_6_interval_machinery():
    with criterion(6, "preimage membership and attained floor extrema, 10^4 draws", 5.0):
        rng = random.Random(41)
        terms = generate_terms(FloorPower(Fraction(3, 2)), 40)
        for _ in range(10 ** 4):
            alpha = Fraction(rng.randint(1, 2000), rng.randint(1, 2000))
            s = terms[rng.randrange(len(terms))]
            t = math.floor(alpha * s)
            window = preimage_interval(t, s)
            assert alpha in window

            lo = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            width = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            probe = RatInterval(lo, lo + width)
            s2 = rng.randint(1, 10 ** 4)
            minimum, maximum = interval_extrema_of_floor(probe, s2)
            assert math.floor(probe.lo * s2) == minimum
            attaining = max(probe.lo, Fraction(maximum, s2))
            assert attaining in probe
            assert math.floor(attaining * s2) == maximum
