"""Subset-sum representation sets, completeness checks, and the squares witness.

The representation set of a multiset A of nonnegative integers is every
value obtainable as a sum of distinct term occurrences (each occurrence
usable at most once; equal values in A count separately), with 0 always a
member (the empty sum).  Membership up to a bound N is computed by a
shifted-OR bitset DP: one arbitrary-precision integer serves as the
bitmap, and each occurrence a contributes `bits |= bits << a`.  A bitmap's
runs are a streamed `View` that scans the bitmap again on each pass, so
printing a report holds one run at a time.

The squares witness shows that for the squares sequence the power targets
2^0..2^m are all simultaneously reachable: with alpha = 1/(4*(2^m + 1)),
each i <= m has an integer n_i with floor(alpha * n_i^2) = 2^i.  All the
square-root inequalities involved are verified by cross-multiplied integer
comparisons, keeping the check float-free, and every n_i comes from one of
two integer square roots.  The report stores only the n_i; its
`to_json_dict` holds every other number as an exact Decimal closed form,
whose digits print in time linear in their count, unlike an int's, and its
lines as a streamed `View` that builds each line only when it is read.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from typing import NamedTuple

from .defaults import BITMAP_CAP
from .errors import VerificationFailure
from .view import View

# Largest m a squares witness accepts: line i holds numbers of about m + i
# bits, so the report grows like m^2 (13 MB of JSON at m = 3,000); printing
# it is linear in its bytes.
WITNESS_M_CAP = 2 ** 12
# Most terms a pset run reads from its file, checked before the next is
# kept: the bitmap is shifted once per term, and lists in use hold a few
# thousand.
TERMS_CAP = 2 ** 16


class PSetBitmap(NamedTuple("PSetBitmap", [("bound", int), ("bits", int)])):
    """Characteristic bitmap of a representation set over [0, bound]."""

    __slots__ = ()

    def __new__(cls, bound: int, bits: int):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if bits & 1 == 0:
            raise ValueError("0 must always be representable (empty sum)")
        if bits >> (bound + 1):
            raise ValueError(f"bits set beyond bound {bound}")
        return super().__new__(cls, bound, bits)

    def __contains__(self, value: int) -> bool:
        return 0 <= value <= self.bound and (self.bits >> value) & 1 == 1

    def members(self) -> list[int]:
        return [i for start, length in self.runs() for i in range(start, start + length)]

    def count(self) -> int:
        return self.bits.bit_count()

    def runs(self) -> View:
        """Maximal runs of consecutive members as [start, length] lists,
        ascending, in a streamed `View` that scans the bitmap on each pass."""
        # a run starts at each member m with m - 1 not one
        count = (self.bits & ~(self.bits << 1)).bit_count()
        return View(range(count), in_order=lambda: _spans(self.bits))

    def to_json_dict(self) -> dict:
        """The bound, and the runs as the `View` that `runs()` returns."""
        return {"bound": self.bound, "runs": self.runs()}

    def to_bit_bytes(self) -> bytes:
        """Raw export: 8-byte little-endian bit count, then the bitmap bits."""
        n_bits = self.bound + 1
        body = self.bits.to_bytes((n_bits + 7) // 8, "little")
        return n_bits.to_bytes(8, "little") + body


def _spans(bits: int):
    """[start, length] of each maximal run of set bits, ascending: one pass
    over bin(bits) reversed, whose index i holds bit i."""
    return ([run.start(), run.end() - run.start()] for run in re.finditer("1+", bin(bits)[:1:-1]))


def compute_pset(terms: Iterable[int], bound: int) -> PSetBitmap:
    """Exact membership bitmap of the representation set on [0, bound].

    Multiset semantics: each occurrence in `terms` is usable at most once,
    and repeated values are distinct occurrences.  Terms above `bound`
    cannot take part in a sum <= bound, so they are skipped, which also
    keeps one huge term from allocating a huge shifted bitmap.

    >>> compute_pset([2, 3], 10).members()
    [0, 2, 3, 5]
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound >= BITMAP_CAP:  # the bitmap holds bound + 1 bits
        raise ValueError(f"bound {bound} must be below the bitmap cap BITMAP_CAP = {BITMAP_CAP}")
    mask = (1 << (bound + 1)) - 1
    bits = 1
    for a in terms:
        if a < 0:
            raise ValueError(f"terms must be nonnegative, got {a}")
        if a <= bound:
            bits = (bits | (bits << a)) & mask
    return PSetBitmap(bound=bound, bits=bits)


def complete_up_to(terms: Iterable[int], bound: int) -> int | None:
    """Smallest T with [T, bound] fully representable, or None.

    None means `bound` itself is missing, so no tail of [0, bound] is
    covered.  A bounded-scale heuristic only: it cannot prove that all
    sufficiently large integers are representable.
    """
    bitmap = compute_pset(terms, bound)
    if bound not in bitmap:
        return None
    missing = ~bitmap.bits & ((1 << (bound + 1)) - 1)
    if missing == 0:
        return 0
    return missing.bit_length()  # one past the highest missing value


def brown_criterion(terms: list[int]) -> bool:
    """Sufficient completeness test: a_1 = 1, a_{n+1} <= 1 + sum of prefix.

    Requires `terms` sorted ascending (duplicates allowed).  When true for
    a finite list, every integer in [0, sum(terms)] is representable.

    >>> brown_criterion([1, 2, 4, 8])
    True
    >>> brown_criterion([1, 3])
    False
    """
    if not terms:
        return False
    if any(a > b for a, b in zip(terms, terms[1:])):
        raise ValueError("terms must be sorted ascending")
    if terms[0] < 1:
        raise ValueError("terms must be positive")
    if terms[0] != 1:
        return False
    prefix = 0
    for a in terms:
        if a > prefix + 1:
            return False
        prefix += a
    return True


def squares_witness_alpha(m: int) -> Fraction:
    """The scaling alpha = 1/(4*(2^m + 1)) used by the squares witness.

    >>> squares_witness_alpha(2)
    Fraction(1, 20)
    """
    from fractions import Fraction
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return Fraction(1, 4 * (2 ** m + 1))


class SquaresWitnessReport(NamedTuple):
    """The n_i found for the targets 2^0..2^m; `_witness_lines` builds every other number."""

    m: int
    lines: tuple[int, ...]  # n_i for i = 0..m

    def to_json_dict(self) -> dict:
        """The report's JSON form; its numbers but m, i and n_i are exact Decimals."""
        inv_alpha, lines = _witness_lines(self.lines)
        return {"m": self.m, "alpha": f"1/{inv_alpha}", "inv_alpha": inv_alpha,
                "lines": lines, "all_passed": True}


def _witness_lines(n: tuple[int, ...]):
    """inv_alpha, and a `View` of the lines whose n_i are `n`: line i's dict is built when read.

    Python converts an int to decimal in time quadratic in its digits,
    which would make printing the report cubic in m.  So every number but
    n_i is an exact Decimal built from its closed form 2^a + 2^b:
    inv_alpha = 2^(m+2) + 2^2, and on line i target = 2^i,
    lower = 2^(m+i+2) + 2^(i+2), upper = lower + inv_alpha and
    gap_rhs = 2^(i+2) + 2 (see `verify_squares_witness`).  The view is
    streamed and holds no table of powers: its one reader doubles 2^i and
    2^(m+i+2) from one line to the next.  The context traps Inexact and
    Rounded, so a Decimal step that would round raises, and str() of an
    exact Decimal prints the digits of the int in time linear in their
    count.  gap_ok is always True: the gap inequality holds for every i <= m.
    """
    import decimal

    context = decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact, decimal.Rounded])
    add, power, m = context.add, context.power, len(n) - 1
    inv_alpha = add(power(2, m + 2), 4)

    def in_order():
        target, high = power(2, 0), power(2, m + 2)  # 2^i and 2^(m+i+2)
        for i in range(m + 1):
            quad = context.multiply(target, 4)  # 2^(i+2)
            lower = add(high, quad)
            yield {"i": i, "target": target, "n_i": n[i], "lower": lower,
                   "upper": add(lower, inv_alpha), "gap_rhs": add(quad, 2), "gap_ok": True}
            target, high = add(target, target), add(high, high)

    return inv_alpha, View(range(m + 1), in_order=in_order)


def verify_squares_witness(m: int) -> SquaresWitnessReport:
    """Check {2^i : 0 <= i <= m} all land in the scaled squares image.

    With inv_alpha = 4*(2^m + 1) (an integer, so every comparison below is
    integer-exact): floor(alpha * n^2) = 2^i iff
    lower = inv_alpha * 2^i <= n^2 < inv_alpha * (2^i + 1) = upper, so n_i
    is the smallest integer at least sqrt(lower): isqrt(lower), plus 1
    unless its square is lower.  The window is guaranteed wider than 1 by
    the gap inequality inv_alpha >= 2^(i+1) + 2 + isqrt(4 * 2^i * (2^i + 1)).
    Its root has a closed form: with t = 2^i,
    4t^2 <= 4t^2 + 4t < (2t + 1)^2, so isqrt(4t(t + 1)) = 2t and the
    right-hand side is 2^(i+2) + 2, so it holds for every i <= m:
    2^(i+2) + 2 <= 2^(m+2) + 2 < 2^(m+2) + 4 = inv_alpha.

    Two square roots serve every line.  With u = 2^m + 1, lower = u * 2^(i+2)
    = u * 2^(2s + (i & 1)) for s = (i+2) // 2.  Let h = (m+2) // 2, the
    largest s, and R_0 = isqrt(u * 2^(2h)), R_1 = isqrt(u * 2^(2h+1)).  As
    u * 2^(2h + (i & 1)) = lower * 4^(h-s), R_(i&1) = floor(2^(h-s) * sqrt(lower)),
    and floor(floor(x) / 2^k) = floor(x / 2^k) gives
    isqrt(lower) = R_(i&1) >> (h - s).  Each line then takes one
    multiplication, its root's square.

    No target is ever missed, for any m.  Let L = inv_alpha and
    N = 2^i * L.  As 4 * 2^m = L - 4, 4N <= 4 * 2^m * L = L^2 - 4L < (L - 1)^2,
    so 2 * sqrt(N) < L - 1, and n_i = ceil(sqrt(N)) < sqrt(N) + 1 gives
    n_i^2 < N + 2 * sqrt(N) + 1 < N + L.  So N <= n_i^2 < N + L, and
    alpha = 1/L puts every 2^i into the image.  The checks below only
    display this; they raise VerificationFailure if a target were missed,
    and ValueError for m above WITNESS_M_CAP, before any root is taken.
    """
    if not 0 <= m <= WITNESS_M_CAP:
        raise ValueError(f"m must lie in 0..WITNESS_M_CAP = {WITNESS_M_CAP}, got {m}")
    u, h = 2 ** m + 1, (m + 2) // 2
    inv_alpha = 4 * u
    roots = (math.isqrt(u << 2 * h), math.isqrt(u << (2 * h + 1)))
    lines = []
    for i in range(m + 1):
        lower = inv_alpha << i
        upper = lower + inv_alpha
        n_i = roots[i & 1] >> (h - (i + 2) // 2)  # isqrt(lower)
        square = n_i * n_i
        if square != lower:  # (n_i + 1)^2 from n_i^2, with no second multiplication
            n_i, square = n_i + 1, square + 2 * n_i + 1
        if not lower <= square < upper:
            raise VerificationFailure(
                f"no integer square in [{lower}, {upper}) for target 2^{i}"
            )
        lines.append(n_i)
    return SquaresWitnessReport(m=m, lines=tuple(lines))
