import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from floorfull import skipverify
from floorfull.cli import to_json
from floorfull.errors import VerificationFailure
from floorfull.floorseq import Explicit, FloorPower, Squares, generate_terms, s_alpha
from floorfull.rationals import RatInterval, interval
from floorfull.skipverify import (
    SkipReport,
    SkipRow,
    counterexample_scan,
    gamma_exception_search,
    interval_extrema_of_floor,
    symbolic_condition_check,
    verify_skip_all_alpha,
)

POW32 = FloorPower(Fraction(3, 2))


# --- interval extrema -------------------------------------------------------

def test_extrema_examples():
    # 200/17 ~ 11.76 and 225/17 ~ 13.23
    assert interval_extrema_of_floor(interval("8/17", "9/17"), 25) == (11, 13)
    # 304/17 ~ 17.88 and 342/17 ~ 20.12
    assert interval_extrema_of_floor(interval("8/17", "9/17"), 38) == (17, 20)
    # hi * s = 5 lands on an integer, which the half-open window excludes
    assert interval_extrema_of_floor(interval(0, 1), 5) == (0, 4)


def test_extrema_rejects_empty_window_and_bad_s():
    with pytest.raises(ValueError):  # the interval type itself rejects an empty window
        interval(1, 1)
    with pytest.raises(ValueError):
        interval_extrema_of_floor(interval(0, 1), 0)


@given(
    lo=st.fractions(min_value=0, max_value=3),
    width=st.fractions(min_value=Fraction(1, 1000), max_value=2),
    s=st.integers(1, 400),
)
def test_extrema_attained_by_explicit_rationals(lo, width, s):
    window = RatInterval(lo, lo + width)
    minimum, maximum = interval_extrema_of_floor(window, s)
    assert minimum <= maximum
    # the minimum happens at the left endpoint
    assert math.floor(window.lo * s) == minimum
    # the maximum happens at max(lo, t/s) for the top floor value t
    attaining = max(window.lo, Fraction(maximum, s))
    assert attaining in window
    assert math.floor(attaining * s) == maximum


@given(
    lo=st.fractions(min_value=0, max_value=3),
    width=st.fractions(min_value=Fraction(1, 1000), max_value=2),
    s=st.integers(1, 60),
)
def test_extrema_bound_every_sample(lo, width, s):
    window = RatInterval(lo, lo + width)
    minimum, maximum = interval_extrema_of_floor(window, s)
    for i in range(8):
        sample = window.lo + (window.hi - window.lo) * Fraction(i, 8)
        assert minimum <= math.floor(sample * s) <= maximum


@given(
    lo=st.fractions(min_value=-3, max_value=3, max_denominator=10**6),
    width=st.fractions(min_value=Fraction(1, 10**6), max_value=2, max_denominator=10**6),
    s=st.one_of(st.integers(1, 400), st.integers(1, 10**40)),
    integral_hi=st.booleans(),
)
@example(lo=Fraction(8, 17), width=Fraction(1, 17), s=17, integral_hi=False)
@example(lo=Fraction(-1, 3), width=Fraction(1, 3), s=6, integral_hi=False)
@settings(max_examples=300)
def test_extrema_match_floor_and_ceil(lo, width, s, integral_hi):
    hi = lo + width
    if integral_hi:  # move hi onto a multiple of 1/s: hi*s is the excluded supremum
        hi = Fraction(math.floor(lo * s) + 1 + math.floor(width * s), s)
    minimum, maximum = interval_extrema_of_floor(RatInterval(lo, hi), s)
    assert (minimum, maximum) == (math.floor(lo * s), math.ceil(hi * s) - 1)


# --- the skip verifier ------------------------------------------------------

def test_skip_verify_baseline_passes():
    report = verify_skip_all_alpha(Fraction(3, 2), 3, 300)
    assert report.overall
    assert len(report.rows) + len(report.skipped) == 300
    assert all(row.passed for row in report.rows)


def test_skip_verify_row_seven_matches_known_bounds():
    report = verify_skip_all_alpha(Fraction(3, 2), 3, 300)
    row = {r.k: r for r in report.rows}[7]
    assert row.interval == interval("8/17", "9/17")
    assert row.max_floor_next == 13 <= 14
    assert row.min_floor_next2 == 17 >= 17


def test_skip_verify_row_six():
    report = verify_skip_all_alpha(Fraction(3, 2), 3, 300)
    row = {r.k: r for r in report.rows}[6]
    assert row.interval == interval("8/11", "9/11")
    assert (row.max_floor_next, row.min_floor_next2) == (13, 18)


def test_skip_verify_skips_small_indices():
    report = verify_skip_all_alpha(Fraction(3, 2), 3, 50)
    assert report.skipped == (1, 2, 3, 4, 5)  # floor((3/2)^k) <= 8 up to k = 5


def test_skip_verify_j1_violates():
    with pytest.raises(VerificationFailure) as exc:
        verify_skip_all_alpha(Fraction(3, 2), 1, 50)
    assert str(exc.value).startswith("skip argument fails at k=3:")
    assert exc.value.report is not None
    assert not exc.value.report.overall


def _clipped_skip_loop(gamma, j, k_max):
    """The verifier's loop before clipping was dropped: (report, None or (message, k)).

    Each I_k = [2^j/s_k, (2^j+1)/s_k) is clipped to [0, 1) and skipped when
    the clip is empty; the floor extrema come straight from the endpoints.
    """
    terms = generate_terms(FloorPower(gamma), k_max + 2)
    target, ceiling, floor_min = 2 ** j, 2 ** (j + 1) - 1, 2 ** (j + 1) + 1
    rows, skipped, first_failure = [], [], None
    for k in range(1, k_max + 1):
        lo = max(Fraction(target, terms[k - 1]), Fraction(0))
        hi = min(Fraction(target + 1, terms[k - 1]), Fraction(1))
        if hi <= lo:
            skipped.append(k)
            continue
        max_next = math.ceil(hi * terms[k]) - 1
        min_next2 = math.floor(lo * terms[k + 1])
        passed = max_next <= ceiling and min_next2 >= floor_min
        rows.append(SkipRow(k, RatInterval(lo, hi), max_next, min_next2, passed))
        if not passed and first_failure is None:
            first_failure = (
                f"skip argument fails at k={k}: max_next={max_next} (allowed <= {ceiling}), "
                f"min_next2={min_next2} (required >= {floor_min})",
                k,
            )
    report = SkipReport(gamma, j, k_max, tuple(rows), tuple(skipped), first_failure is None)
    return report, first_failure


def _check_against_clipped_loop(gamma, j, k_max):
    expected, failure = _clipped_skip_loop(gamma, j, k_max)
    if failure is None:
        assert verify_skip_all_alpha(gamma, j, k_max) == expected
        return
    with pytest.raises(VerificationFailure) as exc:
        verify_skip_all_alpha(gamma, j, k_max)
    assert str(exc.value) == failure[0]
    assert exc.value.report == expected


def test_skip_verify_j1_violation_matches_clipped_loop():
    _, failure = _clipped_skip_loop(Fraction(3, 2), 1, 50)
    assert failure is not None and failure[1] == 3
    _check_against_clipped_loop(Fraction(3, 2), 1, 50)


@given(
    gamma=st.fractions(min_value=Fraction(3, 2), max_value=2, max_denominator=12).filter(
        lambda gamma: gamma < 2
    ),
    j=st.integers(1, 9),
    k_max=st.integers(3, 80),
)
@settings(max_examples=150, deadline=None)
@example(gamma=Fraction(3, 2), j=3, k_max=60)  # passes every row
@example(gamma=Fraction(8, 5), j=2, k_max=40)  # fails on growth
def test_skip_verify_matches_clipped_loop(gamma, j, k_max):
    _strictly_increasing_power(gamma, k_max + 2)
    _check_against_clipped_loop(gamma, j, k_max)


@pytest.mark.parametrize("gamma", ["11/10", "2", "5/2", "4"])
def test_skip_verify_rejects_gamma_outside_its_domain(gamma):
    with pytest.raises(ValueError, match=r"^gamma must lie in \[3/2, 2\), got " + gamma + "$"):
        verify_skip_all_alpha(Fraction(gamma), 3, 5)


def test_gamma_past_4300_digits_raises_value_error_naming_it():
    # the domain check comes before any term is built, and its message
    # prints all 4,301 digits of 10^4300 under a lifted, then restored, limit
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as info:
        verify_skip_all_alpha(Fraction(10**4300), 3, 3)
    assert sys.get_int_max_str_digits() == limit
    assert str(info.value) == "gamma must lie in [3/2, 2), got 1" + "0" * 4300


def test_skip_verify_validates_args():
    with pytest.raises(ValueError):
        verify_skip_all_alpha(Fraction(3, 2), 0, 50)
    with pytest.raises(ValueError):
        verify_skip_all_alpha(Fraction(3, 2), 3, 2)


def test_skip_report_json_rows():
    payload = to_json(verify_skip_all_alpha(Fraction(3, 2), 3, 20))
    assert payload["gamma"] == "3/2"
    assert payload["overall"] is True
    assert payload["rows"][0]["k"] == 6
    assert payload["rows"][0]["interval"]["closed_open"] is True


@given(
    j=st.integers(0, 12),
    s_extra=st.integers(1, 10**30),
    x=st.integers(1, 10**40),
    x2=st.integers(1, 10**40),
)
@example(j=3, s_extra=9, x=25, x2=38)  # row k = 7 of gamma = 3/2: s_7 = 17
@example(j=3, s_extra=1, x=18, x2=27)  # s = 9 = t + 1: hi = 9/9 reduces to 1/1
@example(j=3, s_extra=64, x=100, x2=150)  # s = 72: lo = 8/72 = 1/9 and hi = 9/72 = 1/8
def test_integer_row_check_equals_the_windows_extrema(j, s_extra, x, x2):
    t = 2 ** j
    s = t + s_extra
    window = skipverify.preimage_interval(t, s)
    max_next, min_next2, passed = skipverify._check_row([s, x, x2], t, 1)
    assert max_next == interval_extrema_of_floor(window, x)[1]
    assert min_next2 == interval_extrema_of_floor(window, x2)[0]
    assert passed == (max_next <= 2 * t - 1 and min_next2 >= 2 * t + 1)
    assert skipverify._window_json(t, s) == to_json(window)


def test_rows_are_checked_without_building_a_window(monkeypatch):
    def no_window(*args):
        raise AssertionError("a row built a rational window while the rows were checked")

    monkeypatch.setattr(skipverify, "preimage_interval", no_window)
    monkeypatch.setattr(skipverify, "interval_extrema_of_floor", no_window)
    report = verify_skip_all_alpha(Fraction(3, 2), 3, 300)
    assert len(report.rows) == 295
    assert to_json(report)["rows"][0]["interval"] == {"lo": "8/11", "hi": "9/11", "closed_open": True}
    with pytest.raises(AssertionError):
        report.rows[0]  # a SkipRow holds its window as a RatInterval


def test_rows_view_reads_as_the_tuple_of_its_rows():
    # the view's protocol is tests/test_view.py's; here, the rows it reads
    report = verify_skip_all_alpha(Fraction(3, 2), 3, 40)
    expected, _ = _clipped_skip_loop(Fraction(3, 2), 3, 40)
    assert len(report.rows) == len(expected.rows) == 35  # k = 6..40
    assert list(report.rows) == list(expected.rows)
    assert report == expected and hash(report) == hash(expected) and repr(report) == repr(expected)


def test_rows_view_is_empty_when_every_index_is_skipped():
    report = verify_skip_all_alpha(Fraction(3, 2), 20, 10)  # s_10 = 57 < 2^20
    assert report.skipped == tuple(range(1, 11))
    assert list(report.rows) == []
    assert to_json(report)["rows"] == []


# --- symbolic conditions ----------------------------------------------------

def test_symbolic_baseline_values():
    check = symbolic_condition_check(Fraction(3, 2), 3)
    assert check.ok
    assert check.growth_lhs == 15 and check.growth_rhs == 16
    assert check.gap_lhs == 2 and check.gap_rhs == 2


def test_symbolic_j2_fails_gap():
    check = symbolic_condition_check(Fraction(3, 2), 2)
    assert not check.ok
    assert check.gap_lhs == 1  # 4 * (9/4 - 2)


def test_symbolic_eight_fifths():
    check = symbolic_condition_check(Fraction(8, 5), 3)
    assert check.ok
    assert check.growth_lhs == 16 and check.gap_lhs == Fraction(112, 25)


def test_symbolic_domain():
    with pytest.raises(ValueError):
        symbolic_condition_check(Fraction(7, 5), 3)
    with pytest.raises(ValueError):
        symbolic_condition_check(Fraction(2), 3)
    with pytest.raises(ValueError):
        symbolic_condition_check(Fraction(3, 2), 0)


GAMMA_GRID = [
    Fraction(3, 2),
    Fraction(8, 5),
    Fraction(5, 3),
    Fraction(7, 4),
    Fraction(9, 5),
    Fraction(15, 8),
    Fraction(19, 10),
]


def test_symbolic_monotone_in_j():
    for gamma in GAMMA_GRID:
        j = gamma_exception_search(gamma)
        for extra in range(1, 5):
            assert symbolic_condition_check(gamma, j + extra).ok, (gamma, j + extra)


def test_symbolic_implies_bounded_scan():
    for gamma in GAMMA_GRID:
        j = gamma_exception_search(gamma)
        report = verify_skip_all_alpha(gamma, j, 60)
        assert report.overall, (gamma, j)


# --- gamma exception search -------------------------------------------------

def test_gamma_search_values():
    # each frozen value re-derived here: smallest j passing both conditions
    expected = {
        Fraction(3, 2): 3,
        Fraction(8, 5): 3,
        Fraction(17, 10): 4,
        Fraction(9, 5): 5,
        Fraction(19, 10): 6,
        Fraction(1999999999, 1000000000): 32,  # no j <= 20 passes
    }
    for gamma, j in expected.items():
        assert gamma_exception_search(gamma) == j
        assert symbolic_condition_check(gamma, j).ok
        if j > 1:
            assert not symbolic_condition_check(gamma, j - 1).ok


def test_gamma_search_eight_fifths_rejects_j2_on_growth():
    check = symbolic_condition_check(Fraction(8, 5), 2)
    assert not check.growth_ok  # (4 + 2) * 8/5 = 48/5 > 8


def test_gamma_search_raises_when_the_exponent_below_passes(monkeypatch):
    # a fault injected at j - 1 = 2 only: the closed form's self-check must see it
    check = skipverify.symbolic_condition_check

    def passes_at_2(gamma, j):
        return check(gamma, j)._replace(growth_ok=True, gap_ok=True) if j == 2 else check(gamma, j)

    monkeypatch.setattr(skipverify, "symbolic_condition_check", passes_at_2)
    with pytest.raises(ArithmeticError, match="closed-form j=3 is not the smallest passing j"):
        gamma_exception_search(Fraction(3, 2))


def _smallest_passing_j(gamma):
    """The search as a loop, the oracle: the first j in 1..64 passing both conditions."""
    return next(j for j in range(1, 65) if symbolic_condition_check(gamma, j).ok)


@given(
    gamma=st.integers(2, 10**12).flatmap(  # p/q in [3/2, 2): p from ceil(3q/2) to 2q - 1
        lambda q: st.builds(Fraction, st.integers(-(-3 * q // 2), 2 * q - 1), st.just(q))
    )
)
@settings(max_examples=300, deadline=None)
@example(gamma=Fraction(3, 2))
@example(gamma=Fraction(2 * 10**12 - 1, 10**12))
@example(gamma=Fraction(3 * 10**12 + 1, 2 * 10**12))  # 2/(gamma^2 - 2) is the larger bound
def test_gamma_search_closed_form_matches_loop(gamma):
    assert gamma_exception_search(gamma) == _smallest_passing_j(gamma)


# --- counterexample scan ----------------------------------------------------

def test_scan_eight_sixteen_empty():
    assert counterexample_scan(POW32, 8, 16, 100) == []


def test_scan_squares_positive_control():
    hits = counterexample_scan(Squares(), 1, 2, 50)
    assert hits
    target = Fraction(1, 20)
    assert any(target in window for window in hits)
    assert math.floor(Fraction(25, 20)) == 1 and math.floor(Fraction(49, 20)) == 2


def test_scan_hits_confirmed_by_direct_evaluation():
    hits = counterexample_scan(POW32, 8, 11, 100)
    for window in hits:
        for alpha in (window.lo, (window.lo + window.hi) / 2):
            image = set(s_alpha(POW32, alpha, 100))
            assert {8, 11} <= image, (window, alpha)


def test_scan_agrees_with_dense_alpha_grid():
    # independent route: sample every alpha = i/200 and evaluate directly
    n_max = 60
    hits = counterexample_scan(POW32, 8, 11, n_max)
    for i in range(1, 200):
        alpha = Fraction(i, 200)
        image = set(s_alpha(POW32, alpha, n_max))
        covered = any(alpha in window for window in hits)
        assert covered == ({8, 11} <= image), alpha


def test_scan_rejects_equal_targets():
    with pytest.raises(ValueError):
        counterexample_scan(POW32, 8, 8, 50)


def _all_pairs_scan(spec, t1, t2, n_max):
    """Reference: intersect every pair of preimage intervals, O(n^2).

    Built from the terms and Fraction comparisons alone, so it shares no
    code with the sweep: each preimage is clipped to [0, 1) by hand.
    """
    terms = generate_terms(spec, n_max)

    def preimages(t):
        clipped = [
            (max(Fraction(t, s), Fraction(0)), min(Fraction(t + 1, s), Fraction(1))) for s in terms
        ]
        return [(lo, hi) for lo, hi in clipped if lo < hi]

    hits = []
    for a_lo, a_hi in preimages(t1):
        for b_lo, b_hi in preimages(t2):
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo < hi:
                hits.append(RatInterval(lo, hi))
    return hits


def _strictly_increasing_power(gamma, n_max):
    spec = FloorPower(gamma)
    try:
        generate_terms(spec, n_max)
    except ValueError:  # floor(gamma^n) repeats a value for gamma close to 1
        assume(False)
    return spec


scan_specs = st.one_of(
    st.fractions(min_value=Fraction(11, 10), max_value=4, max_denominator=12)
    .map(lambda g: ("power", g)),
    st.just(("squares", None)),
    st.lists(st.integers(1, 400), min_size=1, max_size=80, unique=True)
    .map(lambda xs: ("explicit", tuple(sorted(xs)))),
)


@given(kind=scan_specs, t1=st.integers(1, 40), t2=st.integers(1, 40), n_max=st.integers(1, 90))
@settings(max_examples=200, deadline=None)
def test_scan_matches_all_pairs_in_order(kind, t1, t2, n_max):
    assume(t1 != t2)
    name, value = kind
    if name == "power":
        spec = _strictly_increasing_power(value, n_max)
    elif name == "squares":
        spec = Squares()
    else:
        spec = Explicit(value)
        n_max = min(n_max, len(value))
    assert counterexample_scan(spec, t1, t2, n_max) == _all_pairs_scan(spec, t1, t2, n_max)
    assert counterexample_scan(spec, t2, t1, n_max) == _all_pairs_scan(spec, t2, t1, n_max)


def test_scan_matches_all_pairs_with_several_hits_per_interval():
    hits = counterexample_scan(Squares(), 1, 2, 20)
    assert len(hits) == 79
    assert hits == _all_pairs_scan(Squares(), 1, 2, 20)


def test_scan_intersect_calls_are_linear(monkeypatch):
    calls = 0
    intersect = RatInterval.intersect

    def counted(self, other):
        nonlocal calls
        calls += 1
        return intersect(self, other)

    monkeypatch.setattr(RatInterval, "intersect", counted)
    # one call per hit and no clipping; comparing every pair would make
    # 2000 * 2000 calls
    assert counterexample_scan(POW32, 8, 16, 2000) == []
    assert calls == 0
    hits = counterexample_scan(Squares(), 1, 2, 20)
    assert calls == len(hits) == 79
