"""Enumeration of r-full and r-free integers, and series digits.

Enumeration factorizes nothing: r_full_up_to searches products of prime
powers, in time proportional to its output, on which r_full_integers runs.
Only `sieve` and `series` runs load this module.  `classify` resolves
each of its public names, and `_r_full_search`, on first access, so
`classify.r_full_up_to` and `from floorfull.classify import ...` resolve
to the objects here.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

from . import classify
from .classify import _require_classify_args, primes_up_to
from .defaults import SIEVE_CAP


def r_full_up_to(limit: int, r: int) -> list[int]:
    """All r-full integers in [1, limit], ascending; a limit above SIEVE_CAP is an error.

    >>> r_full_up_to(100, 3)
    [1, 8, 16, 27, 32, 64, 81]
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > SIEVE_CAP:
        raise ValueError(f"limit {limit} exceeds the sieve cap SIEVE_CAP = {SIEVE_CAP}")
    return _r_full_search(limit, r)


def _r_full_search(limit: int, r: int) -> list[int]:
    """All r-full integers in [1, limit], ascending, with no cap on limit.

    Depth-first search: from a product m it multiplies in p^e, e >= r, for
    each prime p above the primes of m, while the product stays <= limit.
    The primes come from a sieve to isqrt(limit), and the search breaks at
    the first whose r-th power overshoots; when 2^r > limit, 1 is all.  By
    unique factorization each r-full n > 1 is p1^e1 * ... * pk^ek with
    p1 < ... < pk and all ei >= r, and the search, taking primes in
    increasing order, reaches it along exactly one path: each r-full
    n <= limit appears once, nothing else appears, and the search grows with
    the ~c*limit^(1/r) values (Ivic-Shiu, Illinois J. Math. 26).
    """
    _require_classify_args(limit, r)
    if r >= limit.bit_length():  # then 2^r > limit
        return [1]
    primes = primes_up_to(math.isqrt(limit))
    out = [1]
    stack = [(1, 0)]  # (product, index of the next prime it may take)
    while stack:
        m, i = stack.pop()
        for j in range(i, len(primes)):
            q = m * primes[j] ** r
            if q > limit:
                break  # so is every product with a later prime
            while q <= limit:
                out.append(q)
                stack.append((q, j + 1))
                q *= primes[j]
    out.sort()
    return out


def squarefull_via_a2b3(limit: int) -> list[int]:
    """Square-full integers in [1, limit] via the a^2*b^3 characterization.

    Every square-full n is a^2*b^3 with b square-free, so enumerating those
    products is an independent route to the same set as r_full_up_to(limit, 2).
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > SIEVE_CAP:
        raise ValueError(f"limit {limit} exceeds the sieve cap SIEVE_CAP = {SIEVE_CAP}")
    found: set[int] = set()
    b = 1
    while b ** 3 <= limit:
        if all(b % (p * p) != 0 for p in range(2, math.isqrt(b) + 1)):
            cube = b ** 3
            a = 1
            while a * a * cube <= limit:
                found.add(a * a * cube)
                a += 1
        b += 1
    return sorted(found)


def r_free_integers(r: int) -> Iterator[int]:
    """The r-free integers 1, 2, 3, ... in increasing order.

    Each test calls `classify.is_r_free` through the module, so a wrapper
    bound there, as perfbench's tracer binds one, sees every call.
    """
    return (n for n in itertools.count(1) if classify.is_r_free(n, r))


def r_full_integers(r: int) -> Iterator[int]:
    """The r-full integers 1, 4, 8, ... (for r = 2) in increasing order.

    _r_full_search on the limits 1024, 2048, ..., uncapped (the consumer
    bounds the sequence), yielding the values above the previous limit.
    """
    previous, limit = 0, 1024
    while True:
        yield from (n for n in _r_full_search(limit, r) if n > previous)
        previous, limit = limit, 2 * limit


SERIES_BITS_CAP = 2 ** 20  # 300 square-full terms in base 2 need ~25,000 bits


def series_digits(
    terms: Iterable[int], base: int, n_terms: int, n_digits: int
) -> tuple[str, Fraction]:
    """Base-`base` digits of sum(a * base**-a) over the first n_terms of `terms`.

    Returns the first n_digits digits after the radix point of the exact
    partial sum, plus the partial sum itself as a rational.  Digits are
    extracted by repeated multiply-by-base on the exact fractional part,
    held as an integer over base**top, so there are no rounding decisions
    and no gcd per digit; bases above 10 render as comma-separated decimal
    digit values.

    The consumed prefix must be strictly increasing positive integers, and
    base**a must fit in SERIES_BITS_CAP bits for every term a: the exact
    bound a * base.bit_length() is checked before any power is built.  The
    digit loop's time and memory grow linearly with n_digits, which obeys
    the same cap, n_digits * base.bit_length() <= SERIES_BITS_CAP, checked
    before any term is read.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n_terms < 1 or n_digits < 1:
        raise ValueError("n_terms and n_digits must be positive")
    if n_digits * base.bit_length() > SERIES_BITS_CAP:
        raise ValueError(
            f"{n_digits} base-{base} digits may exceed the series bound of {SERIES_BITS_CAP} bits"
        )
    taken = []
    for a in itertools.islice(terms, n_terms):
        if a * base.bit_length() > SERIES_BITS_CAP:
            raise ValueError(f"{base} ** {a} may exceed the series bound of {SERIES_BITS_CAP} bits")
        taken.append(a)
    if len(taken) < n_terms:
        raise ValueError(f"sequence yielded only {len(taken)} of {n_terms} terms")
    numerator = previous = 0
    for n, a in enumerate(taken, start=1):
        if a <= previous:
            raise ValueError(f"terms must be strictly increasing positive, got term {n} = {a}")
        # Horner: ends as sum(a * base**(top - a)) over the terms, top the last
        numerator = numerator * base ** (a - previous) + a
        previous = a
    denominator = base ** previous
    remainder = numerator % denominator
    digits = []
    for _ in range(n_digits):
        d, remainder = divmod(remainder * base, denominator)
        digits.append(d)
    from fractions import Fraction
    sep = "" if base <= 10 else ","
    return sep.join(str(d) for d in digits), Fraction(numerator, denominator)
