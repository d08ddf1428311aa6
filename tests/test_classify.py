import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from floorfull import classify
from floorfull.classify import (
    Factorization,
    factorize,
    is_prime,
    is_r_free,
    is_r_full,
    primes_up_to,
    r_free_integers,
    r_full_integers,
    r_full_up_to,
    series_digits,
    squarefull_via_a2b3,
)
from floorfull.cli import main
from floorfull.defaults import SIEVE_CAP
from floorfull.errors import NotFoundWithinBound


def oracle_is_prime(n: int) -> bool:
    """Definitive for any n this suite feeds it: full trial division."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def oracle_has_rth_power_divisor(n: int, r: int) -> bool:
    p = 2
    while p ** r <= n:
        if n % p ** r == 0:
            return True
        p += 1
    return False


def test_is_prime_small_values():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(5)
    assert not is_prime(0)


def test_is_prime_matches_trial_division_up_to_2000():
    for n in range(2000):
        assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_medium_values_cross_checked():
    for n in (10**6 + 3, 10**6 + 33, 2**31 - 1, 2**31 + 11, 999_983):
        assert is_prime(n) == oracle_is_prime(n), n


def test_is_prime_rejects_a014233_12():
    # A014233(12) is a strong pseudoprime to every prime base 2..37;
    # base 41 exposes it (Sorenson & Webster, Math. Comp. 86, 2017)
    n = 318665857834031151167461
    assert 399165290221 * 798330580441 == n
    assert not is_prime(n)
    assert factorize(n).factors == ((399165290221, 1), (798330580441, 1))


# OEIS A014233(1..13): the least odd number that is a strong pseudoprime to
# each of the first k prime bases
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
MR_BASES_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, bases) -> bool:
    """Odd n > max(bases) passes Miller-Rabin to every base in bases."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** i, n) != n - 1 for i in range(s)):
            return False
    return True


def reference_is_prime(n: int) -> bool:
    """Fixed 13-base Miller-Rabin at every n, however small."""
    if n < 2 or n in MR_BASES_13:
        return n in MR_BASES_13
    return all(n % p for p in MR_BASES_13) and strong_probable_prime(n, MR_BASES_13)


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_rejects_a014233_k(k):
    # A014233(k) passes the first k bases, so only the bases run beyond k expose
    # it: a threshold compared with <= instead of < would call it prime.
    # A014233(13) passes all 13, which is where the deterministic range ends.
    n = A014233[k - 1]
    assert strong_probable_prime(n, MR_BASES_13[:k])
    assert not reference_is_prime(n)
    assert not is_prime(n)


def test_is_prime_matches_13_bases_around_each_threshold():
    for threshold in sorted(set(A014233)):
        for n in range(threshold - 64, threshold + 65, 2):  # thresholds are odd
            assert is_prime(n) == reference_is_prime(n), n


@given(n=st.integers(1, 82).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2 ** bits)))
@settings(max_examples=500)
def test_is_prime_matches_13_bases_below_a014233_13(n):
    n = min(n, A014233[12] - 1)
    assert is_prime(n) == reference_is_prime(n), n
    assert is_prime(n | 1) == reference_is_prime(n | 1), n | 1


@pytest.fixture
def bases_run(monkeypatch):
    """The Miller-Rabin bases is_prime runs, read from the pow calls it makes."""
    bases = []

    def counting_pow(base, exp, mod):
        bases.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(classify, "pow", counting_pow, raising=False)
    return bases


def test_is_prime_runs_all_13_bases_above_a014233_13(bases_run):
    assert is_prime(2 ** 89 - 1)  # a Mersenne prime above A014233(13)
    assert bases_run == list(MR_BASES_13)


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_runs_the_fewest_bases_around_a014233_k(bases_run, k):
    # the largest prime below A014233(k) and the smallest above it each run the
    # first j bases, j the fewest with n < A014233(j): one base below 2047
    below = next(n for n in range(A014233[k - 1] - 2, 0, -2) if reference_is_prime(n))
    above = next(n for n in range(A014233[k - 1] + 2, 2 * A014233[k - 1], 2)
                 if reference_is_prime(n))
    for n in (below, above):
        bases_run.clear()
        assert is_prime(n)
        assert bases_run == list(MR_BASES_13[:next(j for j in range(1, 14) if n < A014233[j - 1])])


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(72).factors == ((2, 3), (3, 2))


def test_factorize_rejects_zero_and_negatives():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


@given(n=st.integers(1, 10**6))
@settings(max_examples=300)
def test_factorize_reconstructs_and_is_sorted(n):
    fact = factorize(n)
    product = 1
    last = 1
    for p, e in fact.factors:
        assert p > last
        assert e >= 1
        assert oracle_is_prime(p)
        product *= p ** e
        last = p
    assert product == n


def test_factorize_large_semiprime_uses_rho_path():
    # both factors lie above the trial primes (below 1000), forcing the splitter
    p = next(n for n in range(10**6 + 1, 10**6 + 100) if oracle_is_prime(n))
    q = next(n for n in range(p + 1, p + 100) if oracle_is_prime(n))
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def _prime_at_or_after(n: int) -> int:
    while not oracle_is_prime(n):
        n += 1
    return n


@given(
    powers=st.lists(
        st.tuples(st.integers(997, 999_983).map(_prime_at_or_after), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
    small=st.sampled_from([(), ((2, 1),), ((2, 2), (3, 1)), ((991, 1),), ((2, 5), (997, 1))]),
)
@settings(max_examples=200, deadline=None)
def test_factorize_products_of_primes_past_trial_division(powers, small):
    # primes in [997, 10^6] are split by Miller-Rabin and Brent rho, not by
    # trial division; the oracle is the construction, its primes checked by
    # full trial division
    expected: dict[int, int] = {}
    n = 1
    for p, e in [*small, *powers]:
        assert oracle_is_prime(p)
        expected[p] = expected.get(p, 0) + e
        n *= p**e
    assert factorize(n).factors == tuple(sorted(expected.items()))


@pytest.mark.parametrize(
    "factors",
    [
        ((991, 1), (997, 1)),
        ((997, 2),),
        ((997, 1), (1009, 1)),
        ((1009, 2),),
        ((1009, 3),),
        ((1013, 3),),
        ((1009, 1), (1013, 1)),
        ((1009, 2), (1013, 1)),
        ((2, 3), (1019, 1), (1021, 1)),
        ((999_979, 1), (999_983, 1)),
    ],
)
def test_factorize_at_the_trial_division_boundary(factors):
    assert all(oracle_is_prime(p) for p, _ in factors)
    assert factorize(math.prod(p**e for p, e in factors)).factors == factors


def test_brent_rho_budget_raises_not_found(monkeypatch):
    p, q = 1_000_000_007, 1_000_000_009
    assert oracle_is_prime(p) and oracle_is_prime(q)
    monkeypatch.setattr(classify, "RHO_BUDGET", 1000)
    with pytest.raises(NotFoundWithinBound, match=f"{p * q} within 1000 "):
        factorize(p * q)
    monkeypatch.undo()
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_classify_exits_2_when_rho_budget_runs_out(monkeypatch, capsys):
    # a product of primes near 10^15 and 10^16: rho needs ~10^7.5 squarings
    monkeypatch.setattr(classify, "RHO_BUDGET", 1000)
    assert main(["classify", "--n", "10000000000000431000000000002257"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "10000000000000431000000000002257 within 1000 " in captured.err


def test_validate_exits_2_on_a_case_iii_ell_with_two_60_digit_primes(tmp_path, capsys):
    # the square-free check factors ell: each squaring mod a 399-bit ell is
    # charged ceil(399 / 96)^2 = 25 units, so rho gives up 25 times sooner
    p, q = 4 * 10**59 + 151, 6 * 10**59 + 367
    assert is_prime(p) and is_prime(q)
    ell, s = p * q, 2
    cert = {"r": 2, "ell": ell, "case": "III", "k": ell * (ell * s - 2),
            "witness": {"q": p, "s": s, "q_star": ell * s - 1}}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["theorem1", "validate", "--cert", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"no factor of {ell} within {classify.RHO_BUDGET} units" in captured.err
    assert "(one squaring costs 25)" in captured.err


def test_factorization_type_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # unsorted
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))  # wrong product
    with pytest.raises(ValueError):
        Factorization(12, ((4, 1), (3, 1)))  # 4 not prime
    # composites on both sides of 1000, where the check moves from the
    # sieved trial primes to Miller-Rabin
    for composite in (961, 989, 1003, 1007, 997 * 1009):
        with pytest.raises(ValueError, match="not prime"):
            Factorization(composite, ((composite, 1),))
    assert Factorization(997 * 1009, ((997, 1), (1009, 1))).n == 997 * 1009


def test_r_free_examples():
    assert not is_r_free(12, 2)
    assert is_r_free(1, 2)
    assert is_r_free(12, 3)


def test_r_full_examples():
    assert not is_r_full(12, 2)
    assert is_r_full(1, 2)
    assert is_r_full(72, 2)


# 1, primes above 1000 on both sides of 997^2 (the first is proved prime by
# trial division, the second goes to Miller-Rabin), prime powers and a
# product past trial division, and A014233(12), which only rho splits
_COFACTORS = (1, 1009, 1_000_003, 1009**2, 1009**3, 1009 * 1013, 399165290221 * 798330580441)


@pytest.mark.parametrize("c", _COFACTORS)
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_predicates_match_the_factorization_on_the_cofactor_branch(r, c):
    # small prime powers in front of the cofactor, with exponents below and
    # above r, so the predicates stop in trial division or read on into c
    prefixes = (
        1,
        2 ** (r - 1),
        2 ** r * 3 ** (r + 1),
        2 ** (r + 1) * 5 ** (r - 1),
        3 ** (r - 1) * 7 ** r,
        997 ** r,
    )
    for a in prefixes:
        n = a * c
        exponents = [e for _, e in factorize(n).factors]
        assert is_r_full(n, r) == all(e >= r for e in exponents), n
        assert is_r_free(n, r) == all(e < r for e in exponents), n
    assert is_r_full(1, r) and is_r_free(1, r)


def test_classify_runs_rho_no_more_than_factorize_alone(monkeypatch, capsys):
    # classify calls factorize, is_r_free and is_r_full on the same n; the
    # predicates must not split A014233(12) again
    n = 318665857834031151167461
    real_rho = classify._brent_rho
    calls = []

    def counting_rho(m, rng):
        calls.append(m)
        return real_rho(m, rng)

    def clear_caches():
        for value in vars(classify).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    monkeypatch.setattr(classify, "_brent_rho", counting_rho)
    clear_caches()
    factorize(n)
    alone = len(calls)
    calls.clear()
    clear_caches()
    assert main(["classify", "--n", str(n)]) == 0
    capsys.readouterr()
    assert alone >= 1
    assert len(calls) == alone


def test_classify_rejects_bad_args():
    with pytest.raises(ValueError):
        is_r_full(0, 2)
    with pytest.raises(ValueError):
        is_r_free(10, 1)


def test_r_free_xor_rth_power_divisor():
    for n in range(1, 10**4 + 1):
        for r in (2, 3, 4):
            assert is_r_free(n, r) != oracle_has_rth_power_divisor(n, r)


def test_both_2free_and_2full_only_at_one():
    both = [n for n in range(1, 10**4 + 1) if is_r_free(n, 2) and is_r_full(n, 2)]
    assert both == [1]


def test_r_full_closure_under_multiplication():
    pool = r_full_up_to(2000, 2)
    import random

    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        assert is_r_full(a * b, 2)


def test_r_full_up_to_examples_with_brute_oracle():
    brute = [n for n in range(1, 31) if is_r_full(n, 2)]
    assert brute == [1, 4, 8, 9, 16, 25, 27]
    assert r_full_up_to(30, 2) == brute
    assert r_full_up_to(7, 3) == [1]
    assert r_full_up_to(1, 2) == [1]


def test_r_full_up_to_matches_per_element_classification():
    for r in (2, 3, 4):
        sieved = r_full_up_to(3000, r)
        assert sieved == [n for n in range(1, 3001) if is_r_full(n, r)]


def test_r_full_up_to_memory_guard():
    with pytest.raises(ValueError, match=f"exceeds the sieve cap SIEVE_CAP = {SIEVE_CAP}"):
        r_full_up_to(SIEVE_CAP + 1, 2)


def test_r_full_up_to_prime_bound_just_below_and_at_prime_powers():
    # the search must reach p^r at limit = p^r and stop just short of it
    for r in range(2, 9):
        for p in primes_up_to(30 if r <= 4 else 13):
            limit = p**r
            at = classify._r_full_search(limit, r)  # 13^8 is above SIEVE_CAP
            assert at[-1] == limit
            assert classify._r_full_search(limit - 1, r) == at[:-1]


_PER_ELEMENT_TOP = 70_000  # above the 500th square-full number, 66248


@functools.cache
def _per_element_r_full() -> dict[int, list[int]]:
    """The r-full n <= _PER_ELEMENT_TOP for r in 2..8, by is_r_full one n at a time."""
    found = {r: [] for r in range(2, 9)}
    for n in range(1, _PER_ELEMENT_TOP + 1):
        for r in found:
            if is_r_full(n, r):
                found[r].append(n)
    return found


@given(limit=st.integers(1, 5 * 10**4), r=st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_r_full_up_to_matches_per_element_filter(limit, r):
    # r = 7 and 8 leave at most the primes {2, 3} below the root; r = 8
    # below 3^8 = 6561 only {2}, and below 2^8 = 256 none at all
    expected = [n for n in _per_element_r_full()[r] if n <= limit]
    assert r_full_up_to(limit, r) == expected


@given(limit=st.integers(1, 10**8))
@example(limit=10**8)
@settings(max_examples=25, deadline=None)
def test_r_full_up_to_matches_a2b3_route(limit):
    assert r_full_up_to(limit, 2) == squarefull_via_a2b3(limit)


def _r_full_as_golomb_products(limit: int, r: int) -> list[int]:
    """r-full n <= limit as a_0^r * a_1^(r+1) * ... * a_(r-1)^(2r-1).

    Every exponent e >= r is a sum of terms from r..2r-1 (e = qr, or
    e = (q-1)r + (r+s) for 0 < s < r), and no such sum lies in 1..r-1, so
    these products are exactly the r-full integers (Golomb, Amer. Math.
    Monthly 77, 1970, for r = 2).
    """
    products = {1}
    for e in range(r, 2 * r):
        grown = set()
        for m in products:
            a = 1
            while m * a**e <= limit:
                grown.add(m * a**e)
                a += 1
        products = grown
    return sorted(products)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_r_full_integers_first_500_terms(r):
    # 500 terms cross the doubling limits 1024, 2048, ... up to 2^17 for
    # r = 2 and 2^32 for r = 5
    terms = list(itertools.islice(r_full_integers(r), 500))
    assert all(is_r_full(n, r) for n in terms)
    assert terms == _r_full_as_golomb_products(terms[-1], r)
    below = [n for n in terms if n <= _PER_ELEMENT_TOP]
    assert below == [n for n in _per_element_r_full()[r] if n <= terms[-1]]
    if r == 2:
        assert below == terms


def test_sieve_at_the_advertised_cap(capsys):
    assert main(["sieve", "--limit", "100000000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["sieve_cap"] == 10**8
    assert len(payload["result"]["values"]) == 21_044
    tracemalloc.start()
    try:
        r_full_up_to(10**8, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # memory grows with the output, not the limit


def test_squarefull_via_a2b3():
    assert squarefull_via_a2b3(30) == [1, 4, 8, 9, 16, 25, 27]
    assert squarefull_via_a2b3(1) == [1]
    assert squarefull_via_a2b3(100) == r_full_up_to(100, 2)


def test_classifier_generators():
    import itertools

    assert list(itertools.islice(r_free_integers(2), 10)) == [1, 2, 3, 5, 6, 7, 10, 11, 13, 14]
    assert list(itertools.islice(r_full_integers(2), 7)) == [1, 4, 8, 9, 16, 25, 27]


def test_series_digits_single_term():
    digits, total = series_digits([1], 2, 1, 3)
    assert digits == "100"
    assert total == Fraction(1, 2)


def test_series_digits_integer_sum_has_zero_fraction():
    digits, total = series_digits([1, 2], 2, 2, 4)
    assert total == 1  # 1/2 + 2/4 exactly
    assert digits == "0000"


def _digits_by_scaled_division(total: Fraction, base: int, n_digits: int) -> str:
    # independent route: one big scaled floor, then render base-`base`
    frac = total - math.floor(total)
    scaled = math.floor(frac * base ** n_digits)
    out = []
    for _ in range(n_digits):
        scaled, d = divmod(scaled, base)
        out.append(str(d))
    return "".join(reversed(out))


def test_series_digits_squarefree_self_consistency():
    import itertools

    terms = list(itertools.islice(r_free_integers(2), 10))
    assert terms == [1, 2, 3, 5, 6, 7, 10, 11, 13, 14]
    digits, total = series_digits(iter(terms), 2, 10, 48)
    assert digits == _digits_by_scaled_division(total, 2, 48)


def test_series_digits_brackets_partial_sum():
    digits, total = series_digits(r_full_integers(2), 3, 8, 30)
    frac = total - math.floor(total)
    value = sum(int(d) * Fraction(1, 3**i) for i, d in enumerate(digits, start=1))
    assert value <= frac < value + Fraction(1, 3**30)


def test_series_digits_base_above_ten_uses_commas():
    digits, _ = series_digits([1, 2, 3], 16, 3, 4)
    assert digits.count(",") == 3


def test_series_digits_validation():
    with pytest.raises(ValueError, match="increasing positive, got term 2 = 2$"):
        series_digits([2, 2, 3], 2, 3, 4)  # not strictly increasing
    with pytest.raises(ValueError):
        series_digits([1, 2], 2, 5, 4)  # too few terms
    with pytest.raises(ValueError):
        series_digits([1, 2], 1, 2, 4)  # bad base
    with pytest.raises(ValueError):
        series_digits([0, 1], 2, 2, 4)  # nonpositive term


def test_series_digits_bit_bound_is_exact_at_the_edge():
    for base in (2, 3, 10, 16):
        edge = classify.SERIES_BITS_CAP // base.bit_length()
        series_digits([edge], base, 1, 2)  # base**edge fits the bound
        with pytest.raises(ValueError, match=str(classify.SERIES_BITS_CAP)):
            series_digits([edge + 1], base, 1, 2)
        series_digits([1], base, 1, edge)  # edge digits fit the bound too
        with pytest.raises(ValueError, match=str(classify.SERIES_BITS_CAP)):
            series_digits(iter(()), base, 1, edge + 1)  # rejected before any term is read
    with pytest.raises(ValueError, match="bits"):
        series_digits(itertools.count(1), 2, 10**12, 2)  # stops at the bound, not at 10^12 terms


def _power_per_term_sum(terms, base):
    """series_digits' partial sum as it was: one power base**(top - a) per term."""
    top = terms[-1]
    return Fraction(sum(a * base ** (top - a) for a in terms), base**top)


def _leading_digits(x, base, n):
    """The first n base-`base` digits after the point of x, by one integer division."""
    scaled = math.floor((x - math.floor(x)) * base**n)
    digits = []
    for _ in range(n):
        scaled, d = divmod(scaled, base)
        digits.append(d)
    return ("" if base <= 10 else ",").join(str(d) for d in reversed(digits))


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from([2, 3, 10, 16]),
    gaps=st.lists(st.integers(1, 300), min_size=1, max_size=40),
    n_digits=st.integers(1, 40),
)
def test_series_digits_horner_matches_power_per_term_sum(base, gaps, n_digits):
    terms = list(itertools.accumulate(gaps))  # strictly increasing, positive
    digits, total = series_digits(terms, base, len(terms), n_digits)
    assert total == _power_per_term_sum(terms, base)
    assert digits == _leading_digits(total, base, n_digits)


def _fraction_digit_loop(partial_sum, base, n_digits):
    """series_digits' digits as they were: multiply-by-base on the Fraction's fractional part."""
    frac = partial_sum - math.floor(partial_sum)
    digits = []
    for _ in range(n_digits):
        frac *= base
        d = math.floor(frac)
        digits.append(d)
        frac -= d
    return ("" if base <= 10 else ",").join(str(d) for d in digits)


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from([2, 3, 10, 16]),
    # small gaps from 1 on give base-2 sums of 1 and more, with an integer part
    gaps=st.lists(st.one_of(st.integers(1, 3), st.integers(1, 60)), min_size=1, max_size=30),
    n_digits=st.integers(1, 200),
)
@example(base=2, gaps=[1, 1, 1], n_digits=8)  # 1/2 + 2/4 + 3/8 = 11/8
def test_series_digits_integer_remainder_matches_fraction_loop(base, gaps, n_digits):
    terms = list(itertools.accumulate(gaps))  # strictly increasing, positive
    digits, total = series_digits(terms, base, len(terms), n_digits)
    assert digits == _fraction_digit_loop(total, base, n_digits)


def test_series_digits_horner_at_the_bit_bound():
    for base in (2, 3, 10, 16):
        edge = classify.SERIES_BITS_CAP // base.bit_length()
        terms = [1, edge - 1, edge]  # one gap of edge - 2, then a gap of 1
        digits, total = series_digits(terms, base, len(terms), 8)
        assert total == _power_per_term_sum(terms, base)
        assert digits == _leading_digits(total, base, 8)


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--kind", "rfull", "--r", "5", "--terms", "500"],  # top term 3,125,000,000
        ["series", "--kind", "squares", "--terms", "100000"],  # top term 10^10
        ["series", "--terms", "10", "--digits", "524289"],  # one digit past 2^20 / 2
        # the second term 2^r, refused before any search for it
        ["series", "--kind", "rfull", "--r", "12345678901234567890", "--terms", "2"],
    ],
    ids=["rfull_r5", "squares", "digits", "rfull_huge_r"],
)
def test_series_past_the_bit_bound_exits_2(argv, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(classify.SERIES_BITS_CAP) in captured.err
    assert peak < 8 * 2**20  # ~390 MB and ~1.25 GB integers without the bound
