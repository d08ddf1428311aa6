"""Certificates that ell^m + k is never r-full, for all exponents m >= 1.

For any r, ell >= 2 there is an explicit shift k making ell^m + k not
r-full for every m, and the witness data splits into three cases:

  Case I    ell = 2.  Take k = 10: 2^1 + 10 = 12 = 2^2 * 3 fails via the
            prime 3, and for m >= 2 the value is 2 mod 4, so 2 divides it
            exactly once.
  Case II   some prime p has p^2 | ell.  Take k = p: ell^m + p is p mod
            p^2, so p divides it exactly once.
  Case III  ell is square-free with an odd prime factor q.  Pick s >= 2
            with q_star = ell*s - 1 prime (a bounded search; primes in the
            progression -1 mod ell are infinite).  Take k = ell*(q_star - 1),
            so ell^m + k = ell*(ell^(m-1) + q_star - 1): at m = 1 the value
            is ell*q_star and q_star divides it exactly once; for m >= 2,
            q divides it exactly once (q^2 | ell^m + k would force
            q | ell*s - 2, i.e. q | 2, impossible for odd q).

A certificate stores (r, ell, case, k, witnesses); validity is a pure
structural check.  Verification proves every m >= 1 from three residues of
the case-prescribed witness primes, one for m = 1 and one for all m >= 2,
never from a factorization of ell^m + k itself.  Failure of 2-fullness is
what the witness exhibits (a prime of exponent exactly 1), and that implies
failure of r-fullness for every r >= 2.

Checking is split from reporting: check_non_rfull checks the residues and
small values, all that `theorem1 grid` needs; verify_non_rfull calls it,
then builds the per-m WitnessLine report that `theorem1 verify` prints.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .classify import factorize, is_prime, is_r_free, is_r_full
from .defaults import DEFAULT_MAX_M, S_MAX
from .errors import NotFoundWithinBound, VerificationFailure

FACTOR_CROSSCHECK_BOUND = 10 ** 12
# Largest max_m a check accepts: `theorem1 verify` prints one line per m,
# so its report grows linearly in m (92 MB of JSON at m = 10^6).
MAX_M_CAP = 2 ** 16

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"


class Certificate(NamedTuple):
    """Witness data making "ell^m + k is never r-full" machine-checkable."""

    r: int
    ell: int
    case: str
    k: int
    p: Optional[int] = None       # Case II: prime with p^2 | ell
    q: Optional[int] = None       # Case III: odd prime factor of ell
    s: Optional[int] = None       # Case III: multiplier, s >= 2
    q_star: Optional[int] = None  # Case III: the prime ell*s - 1

    def witness_dict(self) -> dict:
        if self.case == CASE_II:
            return {"p": self.p}
        if self.case == CASE_III:
            return {"q": self.q, "s": self.s, "q_star": self.q_star}
        return {}

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "ell": self.ell,
            "case": self.case,
            "k": self.k,
            "witness": self.witness_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload) -> "Certificate":
        """Parse untrusted JSON; a malformed payload raises ValueError."""
        if not isinstance(payload, dict):
            raise ValueError("certificate must be a JSON object")
        witness = {} if payload.get("witness") is None else payload["witness"]
        if not isinstance(witness, dict):
            raise ValueError("certificate witness must be a JSON object")
        for key in ("r", "ell", "k"):
            if type(payload.get(key)) is not int:
                raise ValueError(f"certificate field {key!r} must be an integer")
        if not isinstance(payload.get("case"), str):
            raise ValueError("certificate field 'case' must be a string")
        fields = {key: witness.get(key) for key in ("p", "q", "s", "q_star")}
        for key, value in fields.items():
            if value is not None and type(value) is not int:
                raise ValueError(f"certificate witness {key!r} must be an integer or null")
        return cls(
            r=payload["r"], ell=payload["ell"], case=payload["case"], k=payload["k"], **fields
        )


class WitnessLine(NamedTuple):
    """One verified exponent: w | ell^m + k but w^2 does not divide it."""

    m: int
    witness: int
    divides: bool
    square_free_at_witness: bool   # w^2 does not divide ell^m + k
    # trial division, or factorization where it cannot decide, confirmed not 2-full
    cross_checked: bool


class NonRFullReport(NamedTuple):
    certificate: Certificate
    max_m: int
    lines: tuple[WitnessLine, ...]
    all_passed: bool


def dirichlet_search(ell: int) -> tuple[int, int]:
    """Smallest s in [2, S_MAX] with ell*s - 1 prime, plus that prime.

    Such s always exists for a large enough bound: gcd(-1, ell) = 1, so the
    progression ell*s - 1 contains infinitely many primes.  S_MAX is only a
    work budget, read at each call: any s found gives a valid certificate.

    >>> dirichlet_search(3)
    (2, 5)
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    for s in range(2, S_MAX + 1):
        candidate = ell * s - 1
        if is_prime(candidate):
            return s, candidate
    raise NotFoundWithinBound(
        f"no s <= S_MAX = {S_MAX} with {ell}*s - 1 prime",
    )


def construct_certificate(r: int, ell: int) -> Certificate:
    """Deterministic certificate for (r, ell): same inputs, same output.

    Case selection: ell = 2 first (square-free but with no odd prime
    factor), then non-square-free ell, else square-free ell >= 3, which
    necessarily has an odd prime factor.
    """
    if r < 2 or ell < 2:
        raise ValueError(f"r and ell must both be >= 2, got r={r}, ell={ell}")
    if ell == 2:
        return Certificate(r=r, ell=ell, case=CASE_I, k=10)
    factors = factorize(ell).factors  # primes in increasing order
    p = next((prime for prime, e in factors if e >= 2), None)
    if p is not None:
        return Certificate(r=r, ell=ell, case=CASE_II, k=p, p=p)
    q = min(prime for prime, _ in factors if prime % 2 == 1)
    s, q_star = dirichlet_search(ell)
    return Certificate(
        r=r, ell=ell, case=CASE_III, k=ell * (q_star - 1), q=q, s=s, q_star=q_star
    )


def validate_certificate(cert: Certificate) -> None:
    """Structural validity check; raises at the first failed invariant.

    The VerificationFailure reads "certificate invalid: <reason>", with a
    machine-readable reason code.  A valid structure is exactly what makes
    ell^m + k never r-full, so no numerical sweep is needed for the
    conclusion (check_non_rfull checks the residues the proof rests on
    anyway).
    """
    def invalid(reason: str) -> VerificationFailure:
        return VerificationFailure(f"certificate invalid: {reason}")

    if cert.r < 2:
        raise invalid("r_below_2")
    if cert.ell < 2:
        raise invalid("ell_below_2")
    if cert.k < 1:
        raise invalid("k_not_positive")
    if cert.case == CASE_I:
        if cert.ell != 2:
            raise invalid("case1_requires_ell_2")
        if cert.k != 10:
            raise invalid("case1_requires_k_10")
    elif cert.case == CASE_II:
        if cert.p is None:
            raise invalid("missing_p")
        if not is_prime(cert.p):
            raise invalid("p_not_prime")
        if cert.ell % (cert.p * cert.p) != 0:
            raise invalid("p_squared_does_not_divide_ell")
        if cert.k != cert.p:
            raise invalid("k_must_equal_p")
    elif cert.case == CASE_III:
        if cert.q is None or cert.s is None or cert.q_star is None:
            raise invalid("missing_case3_witness")
        if cert.q % 2 == 0:
            raise invalid("q_must_be_odd")
        if not is_prime(cert.q):
            raise invalid("q_not_prime")
        if cert.ell % cert.q != 0:
            raise invalid("q_does_not_divide_ell")
        if not is_r_free(cert.ell, 2):
            raise invalid("ell_not_squarefree")
        if cert.s < 2:
            raise invalid("s_below_2")
        if cert.q_star != cert.ell * cert.s - 1:
            raise invalid("q_star_mismatch")
        if not is_prime(cert.q_star):
            raise invalid("q_star_not_prime")
        if cert.k != cert.ell * (cert.q_star - 1):
            raise invalid("k_formula_mismatch")
        # q odd, q | ell: q_star - 1 = ell*s - 2 is -2 mod q, never 0
    else:
        raise invalid("unknown_case")


def _witnesses(cert: Certificate) -> tuple[int, int]:
    """The witness prime for m = 1 and the one for every m >= 2."""
    if cert.case == CASE_I:
        return 3, 2
    if cert.case == CASE_II:
        return cert.p, cert.p
    return cert.q_star, cert.q


def check_non_rfull(cert: Certificate, max_m: int = DEFAULT_MAX_M) -> int:
    """Prove ell^m + k is not r-full for every m >= 1; cross-check m <= max_m.

    Raises ValueError for max_m outside 1..MAX_M_CAP, then
    validate_certificate's VerificationFailure, before anything is checked.
    validate_certificate proved both witnesses (first, rest) of _witnesses
    prime, and three residues settle every m: first divides ell + k
    exactly once (m = 1); rest divides ell, so for m >= 2 rest^2 | ell^m
    and ell^m + k = k (mod rest^2); and rest divides k exactly once.  A
    prime of exponent 1 makes a value not 2-full, hence not r-full for any
    r >= 2.  Then one loop cross-checks ell^m + k <= 10^12 by
    is_r_full(value, 2), which for r >= 2 equals "r-full or 2-full";
    ell^m + k increases with m, so it runs over a prefix [1, c] of
    [1, max_m] and returns c (0 if none).  A failed residue or cross-check
    raises VerificationFailure; a valid certificate has none.
    """
    if not 1 <= max_m <= MAX_M_CAP:
        raise ValueError(f"max_m must be >= 1 and <= MAX_M_CAP = {MAX_M_CAP}, got {max_m}")
    validate_certificate(cert)
    ell, k = cert.ell, cert.k
    first, rest = _witnesses(cert)
    if (ell + k) % first or not (ell + k) % (first * first):
        raise VerificationFailure(f"witness {first} does not divide ell^1 + k exactly once")
    if ell % rest:
        raise VerificationFailure(f"witness {rest} does not divide ell")
    if k % rest or not k % (rest * rest):
        raise VerificationFailure(f"witness {rest} does not divide k exactly once")
    power, cross_checked_to = ell, 0  # power = ell^(cross_checked_to + 1)
    while cross_checked_to < max_m and power + k <= FACTOR_CROSSCHECK_BOUND:
        if is_r_full(power + k, 2):
            raise VerificationFailure(
                f"factorization says {power + k} is r-full, contradicting witness"
            )
        cross_checked_to += 1
        power *= ell
    return cross_checked_to


def verify_non_rfull(cert: Certificate, max_m: int = DEFAULT_MAX_M) -> NonRFullReport:
    """check_non_rfull, then one WitnessLine per m for `theorem1 verify` to print."""
    cross_checked_to = check_non_rfull(cert, max_m)
    first, rest = _witnesses(cert)
    lines = tuple(
        WitnessLine(m, rest if m > 1 else first, True, True, m <= cross_checked_to)
        for m in range(1, max_m + 1)
    )
    return NonRFullReport(certificate=cert, max_m=max_m, lines=lines, all_passed=True)
