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
comparisons, keeping the check float-free.  The report grows like m^2, and
its JSON text is written in time and memory linear in its bytes
(`SquaresWitnessReport.to_json_chunks`).
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple

from .defaults import BITMAP_CAP
from .errors import VerificationFailure

# Largest m a squares witness accepts: line i holds numbers of about m + i
# bits, so the report grows like m^2 (13 MB of JSON at m = 3,000); printing
# it is linear in its bytes.
WITNESS_M_CAP = 2 ** 12


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


class SquaresWitnessLine(NamedTuple):
    """One target 2^i: the found n_i and the integer inequalities checked."""

    i: int
    target: int            # 2^i
    n_i: int
    lower: int             # inv_alpha * 2^i       (need n_i^2 >= lower)
    upper: int             # inv_alpha * (2^i + 1) (need n_i^2 <  upper)
    gap_rhs: int           # 2^(i+2) + 2 = 2^(i+1) + 2 + isqrt(4 * 2^i * (2^i + 1))
    gap_ok: bool           # inv_alpha >= gap_rhs (window wider than 1)


class SquaresWitnessReport(NamedTuple):
    m: int
    alpha: Fraction
    inv_alpha: int
    lines: tuple[SquaresWitnessLine, ...]
    all_passed: bool

    def to_json_chunks(self) -> Iterator[str]:
        """The compact, key-sorted JSON text of `cli.to_json(self)`, in chunks.

        The head up to `"lines":[`, then one chunk per line, then the tail.
        Python converts an int to decimal in time quadratic in its digits,
        which would make printing the report cubic in m.  So every number
        but n_i is written from its closed form 2^a + 2^b, with the digits of
        exact decimal powers 2^0..2^(2m+2): inv_alpha = 2^(m+2) + 2^2,
        target = 2^i, lower = 2^(m+i+2) + 2^(i+2), upper = lower + inv_alpha
        and gap_rhs = 2^(i+2) + 2.  Each power and sum is linear in its
        digits, and a Decimal step that would round raises.  A record whose
        fields differ from those forms raises ValueError.
        """
        import decimal  # loaded already by fractions, which built alpha

        exact = decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact, decimal.Rounded])
        m, inv_alpha = self.m, self.inv_alpha
        if inv_alpha != 4 * (2 ** m + 1) or len(self.lines) != m + 1:
            raise ValueError(f"not the squares witness report of m = {m}")
        pow2 = [decimal.Decimal(1)]
        for _ in range(2 * m + 2):
            pow2.append(exact.add(pow2[-1], pow2[-1]))
        inv_digits = exact.add(pow2[m + 2], pow2[2])
        yield (f'{{"all_passed":{str(self.all_passed).lower()},"alpha":"1/{inv_digits}",'
               f'"inv_alpha":{inv_digits},"lines":[')
        for i, line in enumerate(self.lines):
            lower = inv_alpha << i
            if (line.i, line.target, line.lower, line.upper, line.gap_rhs) != (
                i, 1 << i, lower, lower + inv_alpha, (1 << (i + 2)) + 2
            ):
                raise ValueError(f"line {i} is not the squares witness line of m = {m}")
            lower_digits = exact.add(pow2[m + i + 2], pow2[i + 2])
            yield (f'{"," if i else ""}{{"gap_ok":{str(line.gap_ok).lower()},'
                   f'"gap_rhs":{exact.add(pow2[i + 2], 2)},"i":{i},"lower":{lower_digits},'
                   f'"n_i":{line.n_i},"target":{pow2[i]},'
                   f'"upper":{exact.add(lower_digits, inv_digits)}}}')
        yield f'],"m":{m}}}'


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
    Raises VerificationFailure if any target is missed (none ever is), and
    ValueError for m above WITNESS_M_CAP, before any line is built.
    """
    if not 0 <= m <= WITNESS_M_CAP:
        raise ValueError(f"m must lie in 0..WITNESS_M_CAP = {WITNESS_M_CAP}, got {m}")
    alpha = squares_witness_alpha(m)
    inv_alpha = 4 * (2 ** m + 1)
    lines = []
    for i in range(m + 1):
        target = 1 << i
        lower = inv_alpha << i
        upper = lower + inv_alpha
        n_i = math.isqrt(lower - 1) + 1   # ceil(sqrt(lower)), as lower >= 1
        if n_i * n_i >= upper:
            raise VerificationFailure(
                f"no integer square in [{lower}, {upper}) for target 2^{i}"
            )
        gap_rhs = (1 << (i + 2)) + 2
        gap_ok = inv_alpha >= gap_rhs
        if not gap_ok:
            raise VerificationFailure(
                f"gap inequality fails at i={i}: {inv_alpha} < {gap_rhs}"
            )
        lines.append(
            SquaresWitnessLine(
                i=i,
                target=target,
                n_i=n_i,
                lower=lower,
                upper=upper,
                gap_rhs=gap_rhs,
                gap_ok=gap_ok,
            )
        )
    return SquaresWitnessReport(
        m=m, alpha=alpha, inv_alpha=inv_alpha, lines=tuple(lines), all_passed=True
    )
