"""Independent reference computations for checking floorfull's answers.

Nothing here imports floorfull. Each routine takes a different route from
the code it checks wherever the problem allows one: Miller-Rabin with
base 41 added, a depth-first r-full enumeration instead of a sieve table,
integer-only floor extrema, a sorted sweep instead of an all-pairs scan,
and a byte-array knapsack on a slice instead of one big-integer bitmap.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction

# 2..41 is deterministic below A014233(13) = 3317044064679887385961981.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BELOW = 3317044064679887385961981

# A014233(12): a strong pseudoprime to every prime base up to 37.
A014233_12 = 318665857834031151167461
A014233_12_FACTORS = (399165290221, 798330580441)

CROSSCHECK_BOUND = 10 ** 12


def is_prime(n: int) -> bool:
    """Miller-Rabin over MR_BASES; a proof for every n the benchmark makes."""
    if n >= MR_DETERMINISTIC_BELOW:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def primes_up_to(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"[: limit + 1]
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; only for small n."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def integer_root(n: int, r: int) -> int:
    x = int(round(n ** (1.0 / r)))
    while x ** r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def r_full_up_to(limit: int, r: int) -> list[int]:
    """All r-full n <= limit, by depth-first search over prime powers p^e, e >= r."""
    primes = primes_up_to(integer_root(limit, r))
    out = []

    def extend(value: int, start: int) -> None:
        out.append(value)
        for i in range(start, len(primes)):
            power = value * primes[i] ** r
            if power > limit:
                break
            while power <= limit:
                extend(power, i + 1)
                power *= primes[i]

    extend(1, 0)
    return sorted(out)


def r_full_prefix(r: int, count: int) -> list[int]:
    limit = 64
    while True:
        values = r_full_up_to(limit, r)
        if len(values) >= count:
            return values[:count]
        limit *= 4


def r_free_prefix(r: int, count: int) -> list[int]:
    out, n = [], 0
    while len(out) < count:
        n += 1
        if all(e < r for _, e in trial_factor(n)):
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# shift certificates


def certificate(r: int, ell: int, factors: list[tuple[int, int]]) -> dict:
    """The certificate JSON floorfull's construct must print for (r, ell)."""
    if ell == 2:
        return {"r": r, "ell": 2, "case": "I", "k": 10, "witness": {}}
    squared = [p for p, e in factors if e >= 2]
    if squared:
        p = min(squared)
        return {"r": r, "ell": ell, "case": "II", "k": p, "witness": {"p": p}}
    q = min(p for p, _ in factors if p % 2 == 1)
    s = 2
    while not is_prime(ell * s - 1):
        s += 1
    q_star = ell * s - 1
    return {
        "r": r,
        "ell": ell,
        "case": "III",
        "k": ell * (q_star - 1),
        "witness": {"q": q, "s": s, "q_star": q_star},
    }


def witness_holds(ell: int, k: int, m: int, w: int) -> bool:
    """w is prime and divides ell^m + k exactly once."""
    residue = (pow(ell, m, w * w) + k) % (w * w)
    return residue % w == 0 and residue != 0 and is_prime(w)


# ---------------------------------------------------------------------------
# floor-scaled sequences and the skip argument


def floor_powers(gamma: Fraction, count: int) -> list[int]:
    """floor(gamma^n) for n = 1..count, by integer division of a^n by b^n."""
    a, b = gamma.numerator, gamma.denominator
    num, den, out = 1, 1, []
    for _ in range(count):
        num *= a
        den *= b
        out.append(num // den)
    return out


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def symbolic(gamma: Fraction, j: int) -> dict:
    growth_lhs = (2 ** j + 2) * gamma
    gap_lhs = 2 ** j * (gamma * gamma - 2)
    growth_ok = growth_lhs <= 2 ** (j + 1)
    gap_ok = gap_lhs >= 2
    return {
        "gamma": rat(gamma),
        "j": j,
        "growth": {"lhs": rat(growth_lhs), "rhs": str(2 ** (j + 1)), "ok": growth_ok},
        "gap": {"lhs": rat(gap_lhs), "rhs": "2", "ok": gap_ok},
        "ok": growth_ok and gap_ok,
    }


def smallest_symbolic_j(gamma: Fraction) -> int:
    j = 1
    while not symbolic(gamma, j)["ok"]:
        j += 1
    return j


def skip_report(gamma: Fraction, j: int, k_max: int) -> dict:
    """The thm2 verify report, from integer floor extrema only.

    The window [2^j/s_k, (2^j+1)/s_k) meets (0, 1) iff s_k > 2^j, and then
    its top end is below or at 1, so the extrema are plain integer
    divisions: max floor(alpha*s_{k+1}) = ((2^j+1)*s_{k+1} - 1) // s_k and
    min floor(alpha*s_{k+2}) = 2^j*s_{k+2} // s_k.
    """
    s = floor_powers(gamma, k_max + 2)
    t = 2 ** j
    rows, skipped = [], []
    for k in range(1, k_max + 1):
        sk, s1, s2 = s[k - 1], s[k], s[k + 1]
        if sk <= t:
            skipped.append(k)
            continue
        max_next = ((t + 1) * s1 - 1) // sk
        min_next2 = t * s2 // sk
        rows.append(
            {
                "k": k,
                "interval": {
                    "lo": rat(Fraction(t, sk)),
                    "hi": rat(Fraction(t + 1, sk)),
                    "closed_open": True,
                },
                "max_floor_next": max_next,
                "min_floor_next2": min_next2,
                "passed": max_next <= 2 * t - 1 and min_next2 >= 2 * t + 1,
            }
        )
    return {
        "gamma": rat(gamma),
        "j": j,
        "k_max": k_max,
        "rows": rows,
        "skipped": skipped,
        "overall": all(row["passed"] for row in rows),
    }


def _member_windows(terms: list[int], t: int) -> list[tuple[Fraction, Fraction]]:
    """Preimages [t/s, (t+1)/s) clipped to [0, 1), nonempty, in ascending order."""
    out = []
    for s in reversed(terms):
        if s > t:
            out.append((Fraction(t, s), min(Fraction(t + 1, s), Fraction(1))))
    return out


def scan_hits(terms: list[int], t1: int, t2: int) -> list[tuple[Fraction, Fraction]]:
    """Every nonempty intersection of the two targets' windows, by a sorted sweep.

    Both window lists rise in lo and hi together, so the windows of t2
    meeting one window of t1 are a contiguous slice found by bisection.
    """
    first = _member_windows(terms, t1)
    second = _member_windows(terms, t2)
    los = [lo for lo, _ in second]
    his = [hi for _, hi in second]
    hits = []
    for lo, hi in first:
        start = bisect_right(his, lo)   # second windows ending after lo
        stop = bisect_left(los, hi)     # second windows starting before hi
        for b in range(start, stop):
            hits.append((max(lo, los[b]), min(hi, his[b])))
    return sorted(hits)


# ---------------------------------------------------------------------------
# representation sets


def subset_sums_below(terms: list[int], limit: int) -> bytearray:
    """Byte flags for v < limit: is v a sum of distinct term occurrences."""
    reach = bytearray(limit)
    reach[0] = 1
    for a in terms:
        if 0 < a < limit:
            shifted = bytes(a) + reach[: limit - a]
            reach = bytearray(map(operator.or_, reach, shifted))
    return reach


def _covered_from(reach: bytearray) -> int:
    """Smallest t with every flag in [t, len) set; requires the last flag set."""
    if not reach[-1]:
        raise ValueError("the top of the exact range is not representable")
    t = len(reach) - 1
    while t > 0 and reach[t - 1]:
        t -= 1
    return t


def complete_threshold(terms: list[int], bound: int, exact_limit: int) -> int:
    """Smallest T with [T, bound] representable, for floorfull's pset complete.

    The knapsack over all terms is exact on [0, exact_limit), which fixes
    T. To show [exact_limit, bound] is covered too, a knapsack over every
    other term (in sorted order) covers some [t, exact_limit - 1]; each
    remaining term a, in ascending order, then extends a covered interval
    [t, top] to [t, top + a] as long as a <= top - t + 1. Raises ValueError
    when this argument does not reach `bound`.
    """
    threshold = _covered_from(subset_sums_below(terms, exact_limit))
    ordered = sorted(terms)
    t = _covered_from(subset_sums_below(ordered[::2], exact_limit))
    top = exact_limit - 1
    for a in ordered[1::2]:
        if a > top - t + 1:
            break
        top += a
    if top < bound:
        raise ValueError(f"coverage shown only up to {top}, not {bound}")
    return threshold


def brown(terms: list[int]) -> bool:
    """Brown's completeness criterion for an ascending list."""
    prefix = 0
    for a in terms:
        if a > prefix + 1:
            return False
        prefix += a
    return bool(terms)


def runs_to_int(runs: list[list[int]]) -> int:
    """Decode RLE runs into the bitmap integer, in linear time."""
    pieces, position = [], 0
    for start, length in runs:
        pieces.append("0" * (start - position))
        pieces.append("1" * length)
        position = start + length
    text = "".join(pieces)
    return int(text[::-1], 2) if text else 0


# ---------------------------------------------------------------------------
# series digits


def series_digits(terms: list[int], base: int, n_digits: int) -> tuple[str, str]:
    """Digits after the point of sum(a * base^-a), and the reduced partial sum."""
    top = terms[-1]
    numerator = sum(a * base ** (top - a) for a in terms)
    denominator = base ** top
    fractional = numerator % denominator
    scaled = fractional * base ** n_digits // denominator
    digits = []
    for _ in range(n_digits):
        scaled, d = divmod(scaled, base)
        digits.append(d)
    digits.reverse()
    g = math.gcd(numerator, denominator)
    sep = "" if base <= 10 else ","
    return sep.join(map(str, digits)), f"{numerator // g}/{denominator // g}"
