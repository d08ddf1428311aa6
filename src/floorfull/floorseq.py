"""Strictly increasing integer sequences and their floor-scaled images.

A sequence spec describes s_1 < s_2 < ... (floors of powers of a rational
gamma > 1, the squares, or an explicit list).  The floor-scaled image under
alpha > 0 is the sequence floor(alpha * s_n); because each s_n is a
positive integer and the s_n increase, the image is nondecreasing in n, a
fact the skip-argument verifier relies on.

The alpha values sending s to a target t form exactly the half-open
interval [t/s, (t+1)/s), which for t >= 1 lies inside [0, 1) when s > t and
outside it otherwise; all scanning over "every real alpha" in [0, 1)
reduces to exact endpoint arithmetic on those preimage intervals, with no
clipping.  Terms and floor-scaled images use integer arithmetic alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .defaults import SEQ_CAP
from .rationals import RatInterval, unlimited_int_digits

# Bit caps of floor(gamma^n), gamma = p/q: each term, whose int-to-str conversion
# is quadratic in its size (gamma < 2 keeps it below 2^SEQ_CAP), and the q^n
# carried, which p multiplies at every step (any q <= 64 passes SEQ_CAP steps).
TERM_BITS_CAP = 2 ** 14
CARRY_BITS_CAP = 2 ** 16


class FloorPower(NamedTuple("FloorPower", [("gamma", Fraction)])):
    """Terms floor(gamma^n) for n = 1, 2, 3, ... with rational gamma > 1."""

    __slots__ = ()

    def __new__(cls, gamma: Fraction):
        if gamma <= 1:
            with unlimited_int_digits():  # gamma may exceed 4300 digits
                raise ValueError(f"gamma must exceed 1, got {gamma}")
        return super().__new__(cls, gamma)


class Squares(NamedTuple):
    """Terms n^2 for n = 1, 2, 3, ..."""


class Explicit(NamedTuple("Explicit", [("terms", tuple[int, ...])])):
    """A finite, strictly increasing list of positive integers."""

    __slots__ = ()

    def __new__(cls, terms: tuple[int, ...]):
        previous = 0
        for n, t in enumerate(terms, start=1):
            if t <= previous:  # name the term, not the list, which may be long
                raise ValueError(
                    f"explicit terms must be strictly increasing positive, got term {n} = {t}"
                )
            previous = t
        return super().__new__(cls, terms)


SeqSpec = Union[FloorPower, Squares, Explicit]


def generate_terms(spec: SeqSpec, n_max: int) -> list[int]:
    """First n_max terms [s_1, ..., s_n_max]; strict increase is enforced.

    For FloorPower(p/q) the loop keeps p^n = s_n*q^n + r_n, 0 <= r_n < q^n
    (so s_n = floor(gamma^n)), from s_0 = 1, r_0 = 0.  With (a, b) =
    divmod(p*s_n, q), p^(n+1) = p*s_n*q^n + p*r_n = a*q^(n+1) + (b*q^n +
    p*r_n), so (c, r_(n+1)) = divmod(b*q^n + p*r_n, q^(n+1)) restores it
    with s_(n+1) = a + c.  As b < q and r_n < q^n the dividend is below
    (p + q)*q^n, so c < (p + q)/q: each step is linear in the size of the
    term, where floor(p^n/q^n) by long division has an n-digit quotient.
    A term above TERM_BITS_CAP bits or a carried q^n above CARRY_BITS_CAP
    bits raises ValueError before the next step.

    >>> generate_terms(FloorPower(Fraction(3, 2)), 10)
    [1, 2, 3, 5, 7, 11, 17, 25, 38, 57]
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > SEQ_CAP:
        raise ValueError(f"n_max {n_max} exceeds the sequence cap SEQ_CAP = {SEQ_CAP}")
    if isinstance(spec, FloorPower):
        p, q = spec.gamma.numerator, spec.gamma.denominator
        s, r, q_n, terms = 1, 0, 1, []
        for n in range(1, n_max + 1):
            a, b = divmod(p * s, q)
            dividend, q_n = b * q_n + p * r, q_n * q
            c, r = divmod(dividend, q_n)
            s = a + c
            if s.bit_length() > TERM_BITS_CAP:
                raise ValueError(f"term {n} exceeds the term bit cap TERM_BITS_CAP = {TERM_BITS_CAP}")
            if q_n.bit_length() > CARRY_BITS_CAP:
                raise ValueError(f"q^{n} exceeds the carry bit cap CARRY_BITS_CAP = {CARRY_BITS_CAP}")
            terms.append(s)
    elif isinstance(spec, Squares):
        terms = [n * n for n in range(1, n_max + 1)]
    elif isinstance(spec, Explicit):
        if n_max > len(spec.terms):
            raise ValueError(
                f"explicit spec has {len(spec.terms)} terms, {n_max} requested"
            )
        terms = list(spec.terms[:n_max])
    else:
        raise TypeError(f"unknown sequence spec {spec!r}")
    for a, b in zip(terms, terms[1:]):
        if b <= a:
            raise ValueError(f"sequence is not strictly increasing at {a} -> {b}")
    if terms[0] < 1:
        raise ValueError(f"terms must be positive, first is {terms[0]}")
    return terms


def s_alpha(spec: SeqSpec, alpha: Fraction, n_max: int) -> list[int]:
    """The floor-scaled image [floor(alpha*s_1), ..., floor(alpha*s_n_max)].

    >>> s_alpha(FloorPower(Fraction(3, 2)), Fraction(1, 2), 7)
    [0, 1, 1, 2, 3, 5, 8]
    """
    if alpha <= 0:
        with unlimited_int_digits():  # alpha may exceed 4300 digits
            raise ValueError(f"alpha must be positive, got {alpha}")
    return [alpha.numerator * s // alpha.denominator for s in generate_terms(spec, n_max)]


def preimage_interval(t: int, s: int) -> RatInterval:
    """All alpha with floor(alpha*s) = t: the interval [t/s, (t+1)/s).

    >>> preimage_interval(8, 17)
    RatInterval(lo=Fraction(8, 17), hi=Fraction(9, 17))
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return RatInterval(Fraction(t, s), Fraction(t + 1, s))


def member_alpha_set(spec: SeqSpec, t: int, n_max: int) -> list[RatInterval]:
    """Intervals of alpha in [0, 1) with t in the floor-scaled image.

    One preimage interval [t/s, (t+1)/s) per term s > t among the first
    n_max, in n order; together they are exactly the alpha in [0, 1) for
    which some index <= n_max witnesses t.  No clipping to [0, 1) is
    needed: for t >= 1 a term s <= t has its preimage start at t/s >= 1,
    entirely outside, and a term s > t has its preimage end at
    (t+1)/s <= 1, entirely inside.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return [preimage_interval(t, s) for s in generate_terms(spec, n_max) if s > t]


class RatioReport(NamedTuple):
    """Where the growth condition s_n < s_{n+1} <= 2*s_n fails."""

    n_checked: int
    violations: tuple[int, ...]   # indices n (1-based) where the condition fails
    holds_from: int               # all checked n >= holds_from satisfy it


def ratio_condition_check(spec: SeqSpec, n_max: int) -> RatioReport:
    """Check s_n < s_{n+1} <= 2*s_n for n = 1, ..., n_max - 1."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    terms = generate_terms(spec, n_max)
    violations = tuple(
        n
        for n, (a, b) in enumerate(zip(terms, terms[1:]), start=1)
        if not (a < b <= 2 * a)
    )
    holds_from = violations[-1] + 1 if violations else 1
    return RatioReport(n_checked=n_max - 1, violations=violations, holds_from=holds_from)
