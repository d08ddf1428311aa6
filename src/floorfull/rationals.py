"""Exact rational arithmetic and nonempty half-open rational intervals.

Rationals are `fractions.Fraction` values: arbitrary precision, always
reduced, denominator always positive.  Intervals are uniformly half-open
and nonempty, [lo, hi) with lo < hi, because every floor preimage
{alpha : floor(alpha*s) = t} has that shape; a single convention avoids
endpoint-comparison bugs.  No floating point is used anywhere; decimal
rendering is display-only and labeled approximate.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from typing import NamedTuple


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer, or a decimal string as an exact rational.

    Decimal inputs are exact decimal fractions ("0.3" -> 3/10), never
    binary floats.  A decimal exponent may be at most 4,300 in magnitude,
    the digit limit Python applies to int(str); it is checked before the
    power of ten is built, so "1e-100000000" costs nothing.

    >>> parse_rational("3/2")
    Fraction(3, 2)
    >>> parse_rational("0.3")
    Fraction(3, 10)
    """
    limit = sys.int_info.default_max_str_digits
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text)
    if exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
        raise ValueError(f"decimal exponent in {text!r} exceeds {limit} in magnitude")
    from fractions import Fraction  # only runs that build a Fraction load it
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" rendering, denominator always present."""
    return f"{q.numerator}/{q.denominator}"


@contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit for the block.

    Exact results may exceed 4300 digits; input parsing keeps the limit."""
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digit_limit)


class RatInterval(NamedTuple("RatInterval", [("lo", "Fraction"), ("hi", "Fraction")])):
    """Nonempty half-open rational interval [lo, hi); lo < hi is enforced."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if lo >= hi:
            raise ValueError(f"interval needs lo < hi, got lo={lo}, hi={hi}")
        return super().__new__(cls, lo, hi)

    def __contains__(self, q: Fraction) -> bool:
        return self.lo <= q < self.hi

    def intersect(self, other: RatInterval) -> RatInterval:
        """[max(lo), min(hi)); ValueError unless the two overlap."""
        return RatInterval(max(self.lo, other.lo), min(self.hi, other.hi))

    def to_json_dict(self) -> dict:
        return {"lo": rat_str(self.lo), "hi": rat_str(self.hi), "closed_open": True}


def interval(lo, hi) -> RatInterval:
    """RatInterval from anything Fraction accepts (ints, "a/b" strings)."""
    from fractions import Fraction
    return RatInterval(Fraction(lo), Fraction(hi))
