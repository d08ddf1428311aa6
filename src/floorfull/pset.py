"""Subset-sum representation sets, completeness checks, and the squares witness.

The representation set of a multiset A of nonnegative integers is every
value obtainable as a sum of distinct term occurrences (each occurrence
usable at most once; equal values in A count separately), with 0 always a
member (the empty sum).  Membership up to a bound N is computed by a
shifted-OR bitset DP: one arbitrary-precision integer serves as the
bitmap, and each occurrence a contributes `bits |= bits << a`.

The squares witness shows that for the squares sequence the power targets
2^0..2^m are all simultaneously reachable: with alpha = 1/(4*(2^m + 1)),
each i <= m has an integer n_i with floor(alpha * n_i^2) = 2^i.  All the
square-root inequalities involved are verified by cross-multiplied integer
comparisons, keeping the check float-free.  The report stores only the n_i;
its `to_json_dict` holds every other number as an exact Decimal closed form,
whose digits print in time linear in their count, unlike an int's, and its
lines as a view that builds each line only when it is read.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .defaults import BITMAP_CAP
from .errors import VerificationFailure

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

    def runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive members as (start, length) pairs.

        One pass over bin(bits), whose "1" block ending at string index e
        starts at bit len(text) - e; blocks come highest first.
        """
        text = bin(self.bits)
        return [(len(text) - m.end(), m.end() - m.start()) for m in re.finditer("1+", text)][::-1]

    def to_json_dict(self) -> dict:
        return {"bound": self.bound, "runs": [[s, n] for s, n in self.runs()]}

    def to_bit_bytes(self) -> bytes:
        """Raw export: 8-byte little-endian bit count, then the bitmap bits."""
        n_bits = self.bound + 1
        body = self.bits.to_bytes((n_bits + 7) // 8, "little")
        return n_bits.to_bytes(8, "little") + body


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
    """The n_i found for the targets 2^0..2^m; `_WitnessLines` builds every other number."""

    m: int
    lines: tuple[int, ...]  # n_i for i = 0..m

    def to_json_dict(self) -> dict:
        """The report's JSON form; its numbers but m, i and n_i are exact Decimals."""
        lines = _WitnessLines(self.lines)
        return {"m": self.m, "alpha": f"1/{lines.inv_alpha}", "inv_alpha": lines.inv_alpha,
                "lines": lines, "all_passed": True}


class _WitnessLines(Sequence):
    """A lazy view of a witness report's lines: line i's dict is built when it is read.

    Python converts an int to decimal in time quadratic in its digits,
    which would make printing the report cubic in m.  So every number but
    n_i is built from its closed form 2^a + 2^b with exact decimal powers
    2^0..2^(2m+2): inv_alpha = 2^(m+2) + 2^2, and on line i target = 2^i,
    lower = 2^(m+i+2) + 2^(i+2), upper = lower + inv_alpha and
    gap_rhs = 2^(i+2) + 2 (see `verify_squares_witness`).  Each power and
    sum is linear in its digits, a Decimal step that would round raises,
    and str() of an exact Decimal prints the digits of the int.  gap_ok is
    always True, because a failed check raises instead.  A slice of the
    view is the tuple of its lines' dicts.
    """

    def __init__(self, n: tuple[int, ...]) -> None:
        import decimal

        self._add = decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact, decimal.Rounded]).add
        self._n, self._pow2, m = n, [decimal.Decimal(1)], len(n) - 1
        for _ in range(2 * m + 2):
            self._pow2.append(self._add(self._pow2[-1], self._pow2[-1]))
        self.inv_alpha = self._add(self._pow2[m + 2], self._pow2[2])

    def __len__(self) -> int:
        return len(self._n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self._n))[i]))
        i = range(len(self._n))[i]  # IndexError past either end, as a list's
        add, pow2, m = self._add, self._pow2, len(self._n) - 1
        lower = add(pow2[m + i + 2], pow2[i + 2])
        return {"i": i, "target": pow2[i], "n_i": self._n[i], "lower": lower,
                "upper": add(lower, self.inv_alpha), "gap_rhs": add(pow2[i + 2], 2), "gap_ok": True}

    def __eq__(self, other) -> bool:  # a view equals the list it reads as
        return isinstance(other, Sequence) and list(self) == list(other)


def verify_squares_witness(m: int) -> SquaresWitnessReport:
    """Check {2^i : 0 <= i <= m} all land in the scaled squares image.

    With inv_alpha = 4*(2^m + 1) (an integer, so every comparison below is
    integer-exact): floor(alpha * n^2) = 2^i iff
    inv_alpha * 2^i <= n^2 < inv_alpha * (2^i + 1), so n_i is the smallest
    integer at least sqrt(inv_alpha * 2^i), found with math.isqrt.  The
    window is guaranteed wider than 1 by the gap inequality
    inv_alpha >= 2^(i+1) + 2 + isqrt(4 * 2^i * (2^i + 1)), also checked.
    Its root has a closed form: with t = 2^i, 4t^2 <= 4t^2 + 4t < (2t + 1)^2,
    so isqrt(4t(t + 1)) = 2t and the right-hand side is 2^(i+2) + 2.

    No target is ever missed, for any m.  Let L = inv_alpha and
    N = 2^i * L.  As 4 * 2^m = L - 4, 4N <= 4 * 2^m * L = L^2 - 4L < (L - 1)^2,
    so 2 * sqrt(N) < L - 1, and n_i = ceil(sqrt(N)) < sqrt(N) + 1 gives
    n_i^2 < N + 2 * sqrt(N) + 1 < N + L.  So N <= n_i^2 < N + L, and
    alpha = 1/L puts every 2^i into the image.  The checks below only
    display this; they raise VerificationFailure if a target were missed,
    and ValueError for m above WITNESS_M_CAP, before any line is built.
    """
    if not 0 <= m <= WITNESS_M_CAP:
        raise ValueError(f"m must lie in 0..WITNESS_M_CAP = {WITNESS_M_CAP}, got {m}")
    inv_alpha = 4 * (2 ** m + 1)
    lines = []
    for i in range(m + 1):
        lower = inv_alpha << i
        upper = lower + inv_alpha
        n_i = math.isqrt(lower - 1) + 1   # ceil(sqrt(lower)), as lower >= 1
        if n_i * n_i >= upper:
            raise VerificationFailure(
                f"no integer square in [{lower}, {upper}) for target 2^{i}"
            )
        gap_rhs = (1 << (i + 2)) + 2
        if inv_alpha < gap_rhs:
            raise VerificationFailure(
                f"gap inequality fails at i={i}: {inv_alpha} < {gap_rhs}"
            )
        lines.append(n_i)
    return SquaresWitnessReport(m=m, lines=tuple(lines))
