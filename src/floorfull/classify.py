"""Primality, factorization, and r-free / r-full classification.

An integer n is r-free when no prime p has p^r | n, and r-full when every
prime dividing n divides it with exponent >= r (2-free = square-free,
2-full = square-full).  n = 1 is declared both r-free and r-full: both
definitions hold vacuously, and fixing the convention keeps enumeration
counts unambiguous.

Factorization strategy: trial division by the primes below 1000; a larger
cofactor goes to Miller-Rabin, a proof below 3,317,044,064,679,887,385,961,981
(comfortably above 2^64), or to Baillie-PSW from there up, and, if
composite, to a few hundred rounds of Hart's one-line method, which splits
strong pseudoprimes such as A014233(12) at once, then to Brent rho on a
fixed-seed RNG, so runs are reproducible, within a budget of RHO_BUDGET
work units per split.  One lazy generator, _prime_powers, does this for
factorize and for the r-free / r-full predicates, which stop at the first
prime that decides them; the primes it yields are proved, and factorize
does not test them again.

Enumeration factorizes nothing: r_full_up_to searches products of prime
powers, in time proportional to its output, on which r_full_integers runs.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .defaults import DEFAULT_RHO_SEED, SIEVE_CAP
from .errors import NotFoundWithinBound

# Miller-Rabin on the first k of these primes is a proof for n below A014233(k), the least
# odd strong pseudoprime to all k (OEIS; Jaeschke, Math. Comp. 61, 1993, for k <= 11; Sorenson
# & Webster, Math. Comp. 86, 2017, for k = 12, 13).  From A014233(13) ~ 3.317e24 > 2^64 up,
# Baillie-PSW gives a probable-prime verdict, which no known composite passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_THRESHOLDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
                  3825123056546413051, 318665857834031151167461,
                  3317044064679887385961981)  # A014233(1..13)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


_TRIAL_PRIMES = tuple(primes_up_to(1000))
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)  # sieved: membership proves primality


def is_prime(n: int) -> bool:
    """Primality test, deterministic for every n below A014233(13) ~ 3.317e24.

    Miller-Rabin runs the first k bases, k the fewest with n < A014233(k);
    from A014233(13) up, Baillie-PSW runs base 2 alone, then `_strong_lucas`.

    >>> is_prime(2)
    True
    >>> is_prime(1)
    False
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2,) if n >= _MR_THRESHOLDS[-1] else _MR_BASES[: bisect_right(_MR_THRESHOLDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_THRESHOLDS[-1] or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) of an integer a and an odd n > 0.

    >>> [_jacobi(a, 7) for a in range(-1, 7)]
    [-1, 0, 1, 1, -1, 1, -1, -1]
    """
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):  # (2/n) = -1
                sign = -sign
        a, n = n, a  # quadratic reciprocity
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1, with Selfridge's method A.

    A square is composite.  Otherwise D is the first of 5, -7, 9, -11, ...
    with Jacobi (D/n) = -1, and a D sharing a proper factor with n proves
    n composite on the way.  With P = 1, Q = (1 - D)/4 and
    n + 1 = d * 2^s, d odd, n passes when the Lucas sequences have
    U_d = 0 or V_(d*2^r) = 0 (mod n) for some 0 <= r < s, as every prime
    does.  U and V are read off d's bits by U_2k = U_k*V_k,
    V_2k = V_k^2 - 2Q^k, U_(k+1) = (P*U_k + V_k)/2 and
    V_(k+1) = (D*U_k + P*V_k)/2, a halving mod n, which is odd.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        if 1 < math.gcd(D, n) < n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, P, Q % n  # k = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class Factorization(
    NamedTuple("Factorization", [("n", int), ("factors", tuple[tuple[int, int], ...])])
):
    """Sorted prime-exponent decomposition of a positive integer."""

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...]):
        for p, _ in factors:
            if not (p in _TRIAL_PRIME_SET if p < 1000 else is_prime(p)):
                raise ValueError(f"{p} is not prime")
        return cls._of_proved_primes(n, factors)

    @classmethod
    def _of_proved_primes(cls, n: int, factors: tuple[tuple[int, int], ...]):
        """All checks but primality, for primes the caller has already proved."""
        product = 1
        last_prime = 1
        for p, e in factors:
            if p <= last_prime:
                raise ValueError(f"primes not strictly increasing in {factors}")
            if e < 1:
                raise ValueError(f"exponent {e} < 1 for prime {p}")
            last_prime = p
            product *= p ** e
        if product != n:
            raise ValueError(f"factors {factors} do not multiply to {n}")
        return super().__new__(cls, n, factors)


_HART_ROUNDS = 256  # a miss costs ~0.3 ms; A014233(12) and (13) split in round 8


def _hart(n: int) -> int | None:
    """A proper divisor of n > 10^6 by Hart's one-line method, or None after _HART_ROUNDS rounds.

    Round i takes s = ceil(sqrt(i*n)), so s^2 mod n = s^2 - i*n (Hart,
    J. Aust. Math. Soc. 92, 2012).  When that is a square t^2,
    i*n = (s - t)(s + t) with 0 < s - t <= s + t < n, so gcd(s - t, n) is a
    proper divisor.  It splits p*q with q/p close to a/b in round a*b, so at
    once for strong pseudoprimes p*(k*(p - 1) + 1), and rarely when a*b
    must be large.
    """
    for i in range(1, _HART_ROUNDS + 1):
        s = math.isqrt(n * i - 1) + 1
        m = s * s % n
        t = math.isqrt(m)
        if t * t == m:
            return math.gcd(s - t, n)
    return None


RHO_BUDGET = 2 ** 22  # work units per _brent_rho call, sized in its docstring


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of odd composite n with no prime factor below 1000.

    Rho needs about sqrt(p) squarings for the smallest prime factor p of n
    (Brent, BIT 20, 1980), each quadratic in the digits of n, so a call
    charges ceil(n.bit_length() / 96)^2 units a squaring (1 up to 96 bits),
    spends at most RHO_BUDGET = 2^22 units, counted across retries, and
    raises NotFoundWithinBound before a round that could pass it.
    1000000000039 * 1618033988819, whose ratio is near the golden mean, so
    that Hart misses it, takes 399,998 squarings at the default seed
    (524,286 in whole rounds): 8-10x headroom.  A product of two such
    primes near 10^15 gives up in seconds.
    """
    unit = ((n.bit_length() + 95) // 96) ** 2  # the charge for one squaring
    spent = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            if spent + 2 * r * unit > RHO_BUDGET:
                message = (f"no factor of {n} within {RHO_BUDGET} units of Brent rho work"
                           f" (one squaring costs {unit})")
                raise NotFoundWithinBound(message)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += (r + min(k, r)) * unit
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p ascending.

    Lazy, so a consumer stops the work where it stops reading: trial
    division by the primes below 1000 ends at the first p with p*p above
    the cofactor m, where m > 1 is prime (no prime factor below p and
    m < p^2).  A cofactor that outlasts every trial prime has no prime
    factor below 1000 and is split by _split_cofactor only when read.
    """
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            if m > 1:
                yield m, 1
            return
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e
    if m > 1:
        yield from _split_cofactor(m)


@lru_cache(maxsize=1024)
def _split_cofactor(m: int) -> tuple[tuple[int, int], ...]:
    """Sorted (p, e) of m > 1 with no prime factor below 1000.

    Miller-Rabin, then Hart and Brent rho, cached so that factorize and the
    two predicates on the same n split it once between them.
    """
    rng = random.Random(DEFAULT_RHO_SEED)
    counts: dict[int, int] = {}
    stack = [m]
    while stack:
        c = stack.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        d = _hart(c) or _brent_rho(c, rng)
        stack.append(d)
        stack.append(c // d)
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=8192)
def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 1 (n = 1 gives an empty factor list).

    Results are immutable and cached; identical calls are free.

    >>> factorize(72).factors
    ((2, 3), (3, 2))
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    return Factorization._of_proved_primes(n, tuple(_prime_powers(n)))


def is_r_free(n: int, r: int) -> bool:
    """True iff no prime p has p^r | n (vacuously true for n = 1).

    Stops at the first prime, in ascending order, with exponent >= r.

    >>> is_r_free(12, 2)
    False
    """
    _require_classify_args(n, r)
    return all(e < r for _, e in _prime_powers(n))


def is_r_full(n: int, r: int) -> bool:
    """True iff every prime dividing n does so with exponent >= r.

    Stops at the first prime, in ascending order, with exponent < r.

    >>> is_r_full(72, 2)
    True
    >>> is_r_full(12, 2)
    False
    """
    _require_classify_args(n, r)
    return all(e >= r for _, e in _prime_powers(n))


def _require_classify_args(n: int, r: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")


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
    """The r-free integers 1, 2, 3, ... in increasing order."""
    return (n for n in itertools.count(1) if is_r_free(n, r))


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
