"""Exact rational arithmetic and half-open rational intervals.

Rationals are `fractions.Fraction` values: arbitrary precision, always
reduced, denominator always positive.  Intervals are uniformly half-open
[lo, hi) because every floor preimage {alpha : floor(alpha*s) = t} has that
shape; a single convention avoids endpoint-comparison bugs.  No floating
point is used anywhere; decimal rendering is display-only and labeled
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer, or a decimal string as an exact rational.

    Decimal inputs are exact decimal fractions ("0.3" -> 3/10), never
    binary floats.

    >>> parse_rational("3/2")
    Fraction(3, 2)
    >>> parse_rational("0.3")
    Fraction(3, 10)
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" rendering, denominator always present."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RatInterval:
    """Half-open rational interval [lo, hi); empty iff lo == hi.

    Empty intervals compare equal to each other regardless of where their
    (coincident) endpoints sit, so interval algebra behaves like set
    algebra.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, q: Fraction) -> bool:
        return self.lo <= q < self.hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatInterval):
            return NotImplemented
        if self.is_empty and other.is_empty:
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        if self.is_empty:
            return hash(("RatInterval", "empty"))
        return hash(("RatInterval", self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def intersect(self, other: RatInterval) -> RatInterval:
        """[max(lo), min(hi)), clamped to the empty interval when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            return RatInterval(lo, lo)
        return RatInterval(lo, hi)

    def to_json_dict(self) -> dict:
        return {"lo": rat_str(self.lo), "hi": rat_str(self.hi), "closed_open": True}

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi})"


def interval(lo, hi) -> RatInterval:
    """RatInterval from anything Fraction accepts (ints, "a/b" strings)."""
    return RatInterval(Fraction(lo), Fraction(hi))


UNIT = RatInterval(Fraction(0), Fraction(1))
