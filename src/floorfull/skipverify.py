"""Verification that floor-scaled power sequences skip a power of two.

For s_n = floor(gamma^n) with gamma in [3/2, 2) and a suitable exponent j,
no single alpha in (0, 1) puts both 2^j and 2^(j+1) into the image
{floor(alpha * s_n)}.  Two independent routes certify this:

* Interval decomposition (verify_skip_all_alpha).  If 2^j is hit at index
  k, then alpha lies in I_k = [2^j/s_k, (2^j+1)/s_k), which meets (0, 1)
  only when s_k > 2^j and then lies inside it whole.  Over that half-open
  interval the exact extrema of floor(alpha*s_{k+1}) and floor(alpha*s_{k+2})
  are computable from the endpoints alone, by one integer division each on
  the terms of floorseq's integer recurrence: with t = 2^j and s = s_k
  they are ceil((t+1)*s_{k+1}/s) - 1 and floor(t*s_{k+2}/s), so no
  rational is built while the rows are checked.  Showing
  max <= 2^(j+1)-1 at k+1 and min >= 2^(j+1)+1 at k+2 pins 2^(j+1)
  between two achieved values it can never equal, because the image is
  nondecreasing in n.
  This covers every real alpha whose witness index is <= the scanned
  bound - no sampling, no tolerance.  A report holds no row: its rows
  are a `View` over k that runs `_row` when row k is read.

* A k-free symbolic condition (symbolic_condition_check).  Bounding
  floor(gamma^n) between gamma^n - 1 and gamma^n and using alpha < 1
  collapses the per-k inequalities into two exact rational conditions,
  (2^j + 2) * gamma <= 2^(j+1)  and  2^j * (gamma^2 - 2) >= 2,
  which are slightly conservative but independent of k: when they hold,
  the skip happens at every witness index simultaneously.  Both are
  monotone in j, and the second holds for every j >= 3 on [3/2, 2), so the
  smallest passing j is a closed form (gamma_exception_search):
  (c - 1).bit_length() with c = ceil(2*gamma/(2 - gamma)) >= 6.

counterexample_scan is an oracle independent of both: a sorted sweep that
intersects the two targets' preimage intervals directly, in O(n + hits).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .defaults import DEFAULT_K_MAX
from .errors import VerificationFailure
from .floorseq import (
    FloorPower,
    SeqSpec,
    generate_terms,
    member_alpha_set,
    preimage_interval,
)
from .rationals import RatInterval, rat_str, unlimited_int_digits
from .view import View

GAMMA_LOW = Fraction(3, 2)
GAMMA_HIGH = Fraction(2)
# Largest j a report accepts: its cost grows with j, while j(gamma) stays
# below 2^15 for every gamma that parse_rational accepts (2 - gamma >= 1/q
# and q < 10^8600: 4,300 digits on each side of the point, exponent 4,300).
J_CAP = 2 ** 16


def _require_gamma(gamma: Fraction) -> None:
    if not (GAMMA_LOW <= gamma < GAMMA_HIGH):
        with unlimited_int_digits():  # gamma may exceed 4300 digits
            raise ValueError(f"gamma must lie in [3/2, 2), got {gamma}")


def _require_j(j: int) -> None:
    if not 1 <= j <= J_CAP:
        raise ValueError(f"j must lie in 1..J_CAP = {J_CAP}, got {j}")


def interval_extrema_of_floor(window: RatInterval, s: int) -> tuple[int, int]:
    """Exact (min, max) of floor(alpha * s) over alpha in [lo, hi).

    floor(alpha * s) is a nondecreasing step function of alpha, so the
    minimum sits at lo and the maximum just below hi; when hi * s is an
    integer the supremum itself is excluded.  Both extremes are attained
    by explicit rationals in the window.  On integers, with lo = a/b and
    hi = c/d: min = floor(a*s/b) = a*s // b and
    max = ceil(c*s/d) - 1 = -(-c*s // d) - 1.

    >>> interval_extrema_of_floor(RatInterval(Fraction(8, 17), Fraction(9, 17)), 25)
    (11, 13)
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    lo, hi = window.lo, window.hi
    return lo.numerator * s // lo.denominator, -(-hi.numerator * s // hi.denominator) - 1


class SkipRow(NamedTuple):
    """One witness index k and the floor extrema over its alpha-interval."""

    k: int
    interval: RatInterval
    max_floor_next: int    # max of floor(alpha * s_{k+1}) over the interval
    min_floor_next2: int   # min of floor(alpha * s_{k+2}) over the interval
    passed: bool


def _check_row(terms: list[int], t: int, k: int) -> tuple[int, int, bool]:
    """Row k's (max_floor_next, min_floor_next2, passed), with t = 2^j < s = s_k.

    These are interval_extrema_of_floor(preimage_interval(t, s), x) at
    x = s_{k+1} and x = s_{k+2}, in integers alone: floor(a*x/b) and
    ceil(a*x/b) depend only on the value a/b, so the reduced endpoints
    t/s and (t+1)/s give floor(t*x/s) = t*x // s and
    ceil((t+1)*x/s) - 1 = -(-(t+1)*x // s) - 1, as their unreduced forms
    do.  The row passes when max <= 2t - 1 and min >= 2t + 1.
    """
    s = terms[k - 1]
    max_next = -(-(t + 1) * terms[k] // s) - 1
    min_next2 = t * terms[k + 1] // s
    return max_next, min_next2, max_next < 2 * t < min_next2


def _window_json(t: int, s: int) -> dict:
    """preimage_interval(t, s).to_json_dict(), from integers reduced by gcd.

    The text is rat_str's of the two Fractions.  Converting s to decimal
    is most of a row's cost, so the denominator is converted once when
    both ends share it: when gcd(t, s) = gcd(t + 1, s) = 1, that is unless
    s is even or shares a factor with t + 1.
    """
    g, h = math.gcd(t, s), math.gcd(t + 1, s)
    lo_den = str(s // g)
    hi_den = lo_den if h == g else str(s // h)
    return {"lo": f"{t // g}/{lo_den}", "hi": f"{(t + 1) // h}/{hi_den}", "closed_open": True}


def _row(terms: list[int], t: int, k: int, as_json: bool = False):
    """Row k of a report, with t = 2^j < s_k: a SkipRow, or `as_json` its JSON
    form, whose window `_window_json` builds from integers."""
    s = terms[k - 1]
    max_next, min_next2, passed = _check_row(terms, t, k)
    if not as_json:
        return SkipRow(k, preimage_interval(t, s), max_next, min_next2, passed)
    return {"k": k, "interval": _window_json(t, s), "max_floor_next": max_next,
            "min_floor_next2": min_next2, "passed": passed}


class SkipReport(NamedTuple):
    gamma: Fraction
    j: int
    k_max: int
    rows: View                 # of SkipRow: each row is built when it is read
    skipped: tuple[int, ...]   # k with s_k <= 2^j: no alpha in (0, 1) hits 2^j there
    overall: bool

    def to_json_dict(self) -> dict:
        """The report's JSON form; its rows are a view over the same k, built when read."""
        rows = View(self.rows.indices, partial(self.rows.item, as_json=True))
        return {"gamma": rat_str(self.gamma), "j": self.j, "k_max": self.k_max,
                "rows": rows, "skipped": self.skipped, "overall": self.overall}


def verify_skip_all_alpha(gamma: Fraction, j: int, k_max: int = DEFAULT_K_MAX) -> SkipReport:
    """Certify 2^(j+1) misses the image whenever 2^j is hit at index <= k_max.

    Each k with s_k <= 2^j is skipped: I_k = [2^j/s_k, (2^j+1)/s_k) then
    starts at or above 1.  The terms increase, so these k are a prefix
    1..k0 - 1.  Every other I_k ends at or below 1 and is the row's window
    as it stands; the row passes when the exact floor extrema satisfy
    max at k+1 <= 2^(j+1) - 1 and min at k+2 >= 2^(j+1) + 1.  Each row is
    checked in integers by `_check_row`, and the report's rows are a
    `View` over the same k that builds a row only when it is read.  Raises
    VerificationFailure (carrying the full report) at the first row that
    fails; gamma < 2 keeps every number in it below 2^SEQ_CAP, which str()
    allows.
    """
    _require_gamma(gamma)
    _require_j(j)
    if k_max < 3:
        raise ValueError(f"k_max must be >= 3, got {k_max}")
    terms = generate_terms(FloorPower(gamma), k_max + 2)
    target = 2 ** j
    k0 = bisect_right(terms, target, 0, k_max) + 1
    ks = range(k0, k_max + 1)
    rows = View(ks, partial(_row, terms, target))
    report = SkipReport(gamma, j, k_max, rows, tuple(range(1, k0)), True)
    for k in ks:
        max_next, min_next2, passed = _check_row(terms, target, k)
        if not passed:
            raise VerificationFailure(
                f"skip argument fails at k={k}: max_next={max_next} (allowed <= {2 * target - 1}), "
                f"min_next2={min_next2} (required >= {2 * target + 1})",
                report=report._replace(overall=False),
            )
    return report


class SymbolicCheck(NamedTuple):
    """The two k-free inequalities with their exact evaluated sides."""

    gamma: Fraction
    j: int
    growth_lhs: Fraction   # (2^j + 2) * gamma
    growth_rhs: int        # 2^(j+1)
    gap_lhs: Fraction      # 2^j * (gamma^2 - 2)
    gap_rhs: int           # 2
    growth_ok: bool
    gap_ok: bool

    @property
    def ok(self) -> bool:
        return self.growth_ok and self.gap_ok

    def to_json_dict(self) -> dict:
        return {
            "gamma": rat_str(self.gamma),
            "j": self.j,
            "growth": {
                "lhs": rat_str(self.growth_lhs),
                "rhs": str(self.growth_rhs),
                "ok": self.growth_ok,
            },
            "gap": {
                "lhs": rat_str(self.gap_lhs),
                "rhs": str(self.gap_rhs),
                "ok": self.gap_ok,
            },
            "ok": self.ok,
        }


def symbolic_condition_check(gamma: Fraction, j: int) -> SymbolicCheck:
    """Evaluate the k-free sufficient conditions exactly.

    True means the skip argument holds for EVERY witness index at once:
    (2^j + 2) * gamma <= 2^(j+1) and 2^j * (gamma^2 - 2) >= 2.

    >>> bool(symbolic_condition_check(Fraction(3, 2), 3))
    True
    """
    _require_gamma(gamma)
    _require_j(j)
    growth_lhs = (2 ** j + 2) * gamma
    growth_rhs = 2 ** (j + 1)
    gap_lhs = 2 ** j * (gamma * gamma - 2)
    gap_rhs = 2
    return SymbolicCheck(
        gamma=gamma,
        j=j,
        growth_lhs=growth_lhs,
        growth_rhs=growth_rhs,
        gap_lhs=gap_lhs,
        gap_rhs=gap_rhs,
        growth_ok=growth_lhs <= growth_rhs,
        gap_ok=gap_lhs >= gap_rhs,
    )


def gamma_exception_search(gamma: Fraction) -> int:
    """Smallest j passing both symbolic conditions, in closed form.

    For gamma = p/q in [3/2, 2), 2 - gamma > 0, so the growth condition
    (2^j + 2) * gamma <= 2^(j+1) holds iff the integer 2^j is at least
    c = ceil(2p/(2q - p)), i.e. iff 2^j > c - 1: the smallest such j is
    (c - 1).bit_length(), and c >= 6 (at gamma = 3/2) gives j >= 3.  The
    gap condition never binds: gamma^2 - 2 >= 1/4 makes its bound
    ceil(2q^2/(p^2 - 2q^2)) at most 8, which every j >= 3 meets.  No search
    bound is needed; j is returned once symbolic_condition_check passes at
    j and fails at j - 1.

    >>> gamma_exception_search(Fraction(1999999999, 1000000000))
    32
    """
    _require_gamma(gamma)
    p, q = gamma.numerator, gamma.denominator
    c = -(-2 * p // (2 * q - p))
    j = (c - 1).bit_length()
    if not symbolic_condition_check(gamma, j).ok or symbolic_condition_check(gamma, j - 1).ok:
        raise ArithmeticError(f"closed-form j={j} is not the smallest passing j for gamma={gamma}")
    return j


def counterexample_scan(
    spec: SeqSpec, t1: int, t2: int, n_max: int = DEFAULT_K_MAX
) -> list[RatInterval]:
    """Alpha-intervals in (0, 1) hitting both t1 and t2, by a sorted sweep.

    Returns every nonempty intersection of a preimage interval of t1 with
    one of t2 (witness indices <= n_max), a-major as a nested loop would;
    an empty list means no alpha in (0, 1) puts both targets into the
    image within the bound.  member_alpha_set keeps n order and s_n
    strictly increases, so down each list lo and hi strictly decrease.  The
    b meeting a (b.lo < a.hi and b.hi > a.lo) are then a suffix cut by a
    prefix, one contiguous block, and both its ends only move forward as
    a does: `start` passes each b once and every inner step is a hit.
    """
    if t1 == t2:
        raise ValueError("targets must differ")
    first = member_alpha_set(spec, t1, n_max)
    second = member_alpha_set(spec, t2, n_max)
    hits, start = [], 0
    for a in first:
        while start < len(second) and second[start].lo >= a.hi:
            start += 1
        i = start
        while i < len(second) and second[i].hi > a.lo:
            hits.append(a.intersect(second[i]))
            i += 1
    return hits
