"""The three seeded workloads: which floorfull commands a batch runs, and the
check each command's exit code and output must pass.

Every workload is a fixed mix of commands whose sizes are pinned by slot and
whose values (numbers, rationals, term lists, certificate files) are drawn
from the seed. Pinning sizes keeps a batch's cost nearly the same for every
seed, so runs with different seeds can be compared. The expected answer of
every command is known in advance from the mathematics, computed by
`oracles`, which never calls floorfull.

certify   Shift certificates (`theorem1`) and `classify`. Chosen because
          the grids spend their time in certificates.verify_non_rfull (big
          powers, witness lines) and in classify.factorize (cross-checks of
          ell^m + k <= 10^12), the construct/validate/verify chains on large
          square-free ell exercise Case III and the Dirichlet search, and the
          many short classify queries make process set-up visible in the
          median. Loads cli, classify, certificates; no skipverify or pset.
skip      Floor-scaled skips (`thm2`, `seq`). Chosen because the thm2 verify
          reports (K up to 3000, megabytes of JSON, some as table or csv) load
          skipverify, floorseq, rationals and cli rendering, and the scans
          load the all-pairs interval intersection. Loads no classify and no
          pset, so it is the control for fixes aimed at those.
enumerate Bulk sets (`pset`, `sieve`, `series`). Chosen because pset compute
          spends its time in PSetBitmap.runs (quadratic in the bound), pset
          complete runs the same DP without runs(), one squares list runs far
          past its bound, the sieves use the pure-Python smallest-prime-factor
          table, and the squares witness writes ~13 MB. Loads pset and
          classify; no certificates or skipverify.

Every command runs with one client and `--jobs 1`. `--jobs > 1` is not
measured on purpose: the machines this runs on have two shared CPUs, and
the process pool may be deleted.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles as O


class CheckFailed(Exception):
    """An invocation's exit code or output disagrees with the expected answer."""


def want(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


Check = Callable[[int, bytes, bytes], None]


@dataclass
class Invocation:
    argv: list[str]
    check: Check
    # Known defect at the seed commit: its cause, and how to recognise it.
    defect: Optional[str] = None
    defect_seen: Optional[Check] = None

    @property
    def label(self) -> str:
        words = []
        for word in self.argv:
            if word.startswith("--"):
                break
            words.append(word)
        return " ".join(words)


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    probe: Invocation


# ---------------------------------------------------------------------------
# check builders


def _json_payload(out: bytes, subcommand: str) -> dict:
    lines = out.decode().splitlines()
    want(len(lines) == 1, f"expected one JSON line, got {len(lines)} lines")
    payload = json.loads(lines[0])
    want(payload["config"]["subcommand"] == subcommand, "wrong subcommand in config")
    return payload["result"]


def _rc(code: int, expected: int, err: bytes) -> None:
    want(code == expected, f"exit code {code}, expected {expected}: {err[-200:]!r}")


def json_result(subcommand: str, judge: Callable[[dict], None]) -> Check:
    def check(code, out, err):
        _rc(code, 0, err)
        judge(_json_payload(out, subcommand))

    return check


def json_equals(subcommand: str, expected) -> Check:
    def judge(result):
        want(result == expected, f"{subcommand} result differs from the expected answer")

    return json_result(subcommand, judge)


def _header_and_body(out: bytes, subcommand: str) -> list[str]:
    lines = out.decode().splitlines()
    want(bool(lines) and lines[0].startswith("# "), "missing config header")
    want(f"subcommand={subcommand} " in lines[0] + " ", "wrong subcommand in header")
    return lines[1:]


def _table_lines(value: dict, indent: str = ""):
    """The lines floorfull's table format prints for a dict of scalars, lists and dicts."""
    for key, inner in value.items():
        if isinstance(inner, dict):
            yield f"{indent}{key}:"
            yield from _table_lines(inner, indent + "  ")
        elif isinstance(inner, list):
            yield f"{indent}{key}:"
            yield from (f"{indent}  {item}" for item in inner)
        else:
            yield f"{indent}{key}: {inner}"


def table_equals(subcommand: str, expected: dict) -> Check:
    lines = list(_table_lines(expected))

    def check(code, out, err):
        _rc(code, 0, err)
        want(_header_and_body(out, subcommand) == lines, "table lines differ")

    return check


def csv_values(subcommand: str, expected: list[int]) -> Check:
    def check(code, out, err):
        _rc(code, 0, err)
        body = _header_and_body(out, subcommand)
        want([int(v) for v in body] == expected, "csv values differ")

    return check


def flatten(value, prefix="") -> dict[str, str]:
    """The `path -> cell` pairs that floorfull's csv format prints for a result."""
    out = {}
    if isinstance(value, dict):
        for key, inner in value.items():
            out.update(flatten(inner, f"{prefix}.{key}" if prefix else key))
    elif isinstance(value, list):
        for idx, inner in enumerate(value):
            out.update(flatten(inner, f"{prefix}[{idx}]"))
    else:
        out[prefix] = "" if value is None else str(value)
    return out


def csv_flat(subcommand: str, expected: dict) -> Check:
    want_cells = flatten(expected)

    def check(code, out, err):
        _rc(code, 0, err)
        body = _header_and_body(out, subcommand)
        cells = {row[0]: row[1] for row in csv.reader(body)}
        want(cells == want_cells, "csv cells differ")

    return check


# ---------------------------------------------------------------------------
# certify


def _classify_expected(n: int, r: int, factors: list[tuple[int, int]]) -> dict:
    factors = sorted(factors)
    exps = [e for _, e in factors]
    return {
        "n": n,
        "r": r,
        "factorization": [[p, e] for p, e in factors],
        "is_r_free": max(exps, default=0) < r,
        "is_r_full": min(exps, default=r) >= r,
    }


def _check_factorization(expected: dict) -> Callable[[dict], None]:
    n = expected["n"]

    def judge(result):
        product = 1
        for p, e in result["factorization"]:
            want(O.is_prime(p), f"factor {p} of {n} is composite (reported as prime)")
            product *= p ** e
        want(product == n, f"factors of {n} multiply to {product}")
        want(result == expected, f"classify {n} differs from the expected answer")

    return judge


def _classify(n: int, factors, r: int = 2, fmt: str = "json") -> Invocation:
    expected = _classify_expected(n, r, factors)
    argv = ["classify", "--n", str(n), "--r", str(r), "--format", fmt]
    if fmt == "json":
        return Invocation(argv, json_result("classify", _check_factorization(expected)))
    return Invocation(argv, table_equals("classify", expected))


def _defect_a014233() -> Invocation:
    n = O.A014233_12
    inv = _classify(n, [(p, 1) for p in O.A014233_12_FACTORS])
    inv.defect = (
        "classify reports A014233(12) = 399165290221 * 798330580441 as prime: "
        "is_prime uses bases 2..37 only, and this number is a strong pseudoprime to all of them"
    )

    def seen(code, out, err):
        try:
            return _json_payload(out, "classify")["factorization"] == [[n, 1]]
        except (ValueError, KeyError, CheckFailed):
            return False

    inv.defect_seen = seen
    return inv


def _grid(rng, r_min, r_max, ell_from, ell_to, width, max_m) -> Invocation:
    lo = rng.randint(ell_from, ell_to)
    hi = lo + width - 1
    rows = []
    for r in range(r_min, r_max + 1):
        for ell in range(lo, hi + 1):
            cert = O.certificate(r, ell, O.trial_factor(ell))
            rows.append(
                {
                    "r": r,
                    "ell": ell,
                    "case": cert["case"],
                    "k": cert["k"],
                    "valid": True,
                    "verified_to": max_m,
                }
            )
    argv = [
        "theorem1", "grid", "--r-min", str(r_min), "--r-max", str(r_max),
        "--ell-min", str(lo), "--ell-max", str(hi), "--max-m", str(max_m), "--jobs", "1",
    ]
    return Invocation(argv, json_equals("theorem1 grid", {"rows": rows, "all_passed": True}))


def _verify_check(cert: dict, max_m: int) -> Check:
    ell, k = cert["ell"], cert["k"]
    cross = [ell ** m + k <= O.CROSSCHECK_BOUND for m in range(1, max_m + 1)]
    def judge(result):
        want(result["certificate"] == cert, "verify echoes a different certificate")
        want(result["max_m"] == max_m and result["all_passed"] is True, "verify summary wrong")
        lines = result["lines"]
        want(len(lines) == max_m, f"{len(lines)} witness lines for max_m {max_m}")
        for m, line in enumerate(lines, 1):
            want(line["m"] == m and line["divides"] and line["square_free_at_witness"], f"line {m}")
            want(O.witness_holds(ell, k, m, line["witness"]), f"witness {line['witness']} fails at m={m}")
            want(line["cross_checked"] == cross[m - 1], f"cross_checked wrong at m={m}")

    return json_result("theorem1 verify", judge)


def _chain(tmp: Path, tag: str, r: int, ell: int, factors, max_m: int) -> list[Invocation]:
    cert = O.certificate(r, ell, factors)
    path = tmp / f"cert-{tag}.json"
    path.write_text(json.dumps(cert))
    return [
        Invocation(
            ["theorem1", "construct", "--r", str(r), "--ell", str(ell)],
            json_equals("theorem1 construct", cert),
        ),
        Invocation(
            ["theorem1", "validate", "--cert", str(path)],
            json_equals("theorem1 validate", {"ok": True, "reason": None}),
        ),
        Invocation(
            ["theorem1", "verify", "--cert", str(path), "--max-m", str(max_m)],
            _verify_check(cert, max_m),
        ),
    ]


def _distinct_primes(rng, count: int, lo_bits: int, hi_bits: int) -> list[int]:
    primes: set[int] = set()
    while len(primes) < count:
        primes.add(O.random_prime(rng, rng.randint(lo_bits, hi_bits)))
    return sorted(primes)


def certify(rng: random.Random, tmp: Path) -> list[Invocation]:
    # Five grids of about equal cost: op_tail_s sits among the four costliest
    # invocations of the batch, and an even plateau keeps it from jumping.
    invs = [
        # small ell (from 2, Case I): many ell^m + k <= 10^12, so
        # factorize cross-checks weigh most
        _grid(rng, 2, 3, 2, 2, 420, 60),
        _grid(rng, 2, 3, 190, 210, 260, 120),
        _grid(rng, 2, 3, 590, 610, 280, 100),
        # up to ell ~ 1750: few cross-checks, big powers up to m = 200
        _grid(rng, 2, 2, 1400, 1450, 300, 200),
        _grid(rng, 2, 2, 3, 6, 290, 200),
    ]

    # construct -> validate -> verify chains: Case III on large and on even
    # square-free ell, Case II; the first grid holds Case I (ell = 2)
    big = _distinct_primes(rng, 3, 14, 19)           # square-free, Case III
    mid = _distinct_primes(rng, 2, 10, 15)           # 2 * p * q, Case III
    p, q = rng.choice([3, 5, 7, 11, 13]), _distinct_primes(rng, 1, 17, 19)[0]
    cases = [
        ("big", 2, math.prod(big), [(x, 1) for x in big], rng.randint(190, 200)),
        ("mid", 3, 2 * math.prod(mid), [(2, 1)] + [(x, 1) for x in mid], rng.randint(150, 160)),
        ("sq", 2, p * p * q, [(p, 2), (q, 1)], rng.randint(100, 110)),
    ]
    for tag, r, ell, factors, max_m in cases:
        invs += _chain(tmp, tag, r, ell, factors, max_m)

    # a structurally broken certificate must be rejected with exit 1
    bad = O.certificate(2, math.prod(big), [(x, 1) for x in big])
    bad["k"] += 1
    bad_path = tmp / "cert-bad.json"
    bad_path.write_text(json.dumps(bad))

    def rejected(code, out, err):
        _rc(code, 1, err)
        want(out.decode() == "verification failed: certificate invalid: k_formula_mismatch\n", "wrong rejection")

    invs.append(Invocation(["theorem1", "validate", "--cert", str(bad_path)], rejected))

    # short classify queries on 40-80 bit numbers
    for bits in (40, 56, 64, 80):
        n = O.random_prime(rng, bits)
        invs.append(_classify(n, [(n, 1)], fmt="table" if bits == 56 else "json"))
    for _ in range(2):   # semiprimes beyond trial division: Brent rho splits them
        a, b = _distinct_primes(rng, 2, 21, 24)
        invs.append(_classify(a * b, [(a, 1), (b, 1)]))
    # small prime powers times a large prime
    (a, b), big_p = _distinct_primes(rng, 2, 3, 8), O.random_prime(rng, rng.randint(36, 48))
    e1, e2 = rng.randint(2, 4), rng.randint(1, 3)
    invs.append(_classify(a ** e1 * b ** e2 * big_p, [(a, e1), (b, e2), (big_p, 1)]))
    # 3-full: a^3 * b^4 with primes below the trial-division bound
    a, b = _distinct_primes(rng, 2, 8, 11)
    invs.append(_classify(a ** 3 * b ** 4, [(a, 3), (b, 4)], r=3))
    invs.append(_defect_a014233())
    return invs


# ---------------------------------------------------------------------------
# skip


def _gamma(rng, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi) with a denominator between 8 and 24."""
    while True:
        q = rng.randint(8, 24)
        first = -((-lo.numerator * q) // lo.denominator)   # ceil(lo * q)
        last = -((-hi.numerator * q) // hi.denominator) - 1  # below hi * q
        if first <= last:
            return Fraction(rng.randint(first, last), q)


def _verify_invocation(gamma: Fraction, j: int, k_max: int, fmt: str) -> Invocation:
    report = O.skip_report(gamma, j, k_max)
    if not report["overall"]:
        raise AssertionError(f"symbolic conditions hold for {gamma}, j={j}, yet a row fails")
    argv = ["thm2", "verify", "--gamma", O.rat(gamma), "--j", str(j), "--K", str(k_max), "--format", fmt]
    if fmt == "json":
        return Invocation(argv, json_equals("thm2 verify", report))
    if fmt == "csv":
        return Invocation(argv, csv_flat("thm2 verify", report))
    rows = [
        [str(r["k"]), f"[{r['interval']['lo']}, {r['interval']['hi']})",
         str(r["max_floor_next"]), str(r["min_floor_next2"]), str(r["passed"])]
        for r in report["rows"]
    ]

    top = {k: v for k, v in report.items() if k != "rows"}

    def check(code, out, err):
        _rc(code, 0, err)
        body = _header_and_body(out, "thm2 verify")
        start = body.index("rows:")
        got = [re.split(r" {2,}", line.strip()) for line in body[start + 2 : start + 2 + len(rows)]]
        want(got == rows, "table rows differ")
        want(body[:start] + body[start + 2 + len(rows) :] == list(_table_lines(top)), "table lines differ")

    return Invocation(argv, check)


def _violation(k_max: int) -> Invocation:
    gamma, j = Fraction(3, 2), 1
    report = O.skip_report(gamma, j, k_max)
    first_bad = next(row["k"] for row in report["rows"] if not row["passed"])

    def check(code, out, err):
        _rc(code, 1, err)
        lines = out.decode().splitlines()
        want(len(lines) == 2, "expected the report and one failure line")
        want(json.loads(lines[0])["result"] == report, "violation report differs")
        want(lines[1].startswith(f"verification failed: skip argument fails at k={first_bad}:"), "wrong failure line")

    return Invocation(["thm2", "verify", "--gamma", "3/2", "--j", "1", "--K", str(k_max)], check)


def _scan(gamma: Fraction, t1: int, t2: int, n: int) -> Invocation:
    hits = O.scan_hits(O.floor_powers(gamma, n), t1, t2)

    def judge(result):
        want((result["t1"], result["t2"], result["n_max"]) == (t1, t2, n), "scan echo wrong")
        got = sorted((Fraction(i["lo"]), Fraction(i["hi"])) for i in result["intervals"])
        want(got == hits, f"scan found {len(got)} intervals, expected {len(hits)}")
        want(result["empty"] == (not hits), "scan empty flag wrong")

    argv = ["thm2", "scan", "--gamma", O.rat(gamma), "--t1", str(t1), "--t2", str(t2), "--n", str(n)]
    return Invocation(argv, json_result("thm2 scan", judge)), hits


def skip(rng: random.Random, tmp: Path) -> list[Invocation]:
    invs = []
    # the gamma grid: one stratum of [3/2, 2) per slot, K and format pinned per
    # slot; the three K = 3000 slots cost about the same, so that op_tail_s,
    # which sits among the five costliest invocations, does not jump
    slots = [(1000, "table", 150), (1500, "csv", 160), (3000, "json", 170), (3000, "json", 175), (3000, "json", 180)]
    for k_max, fmt, low in slots:
        gamma = _gamma(rng, Fraction(low, 100), Fraction(low + 5, 100))
        j = O.smallest_symbolic_j(gamma) + rng.randint(0, 1)
        invs.append(_verify_invocation(gamma, j, k_max + rng.randint(-20, 20), fmt))
    invs.append(_violation(rng.randint(1000, 1200)))

    # scan cost grows with the digits of s_n, so each scan's gamma has a narrow
    # stratum. One scan on targets 2^j, 2^(j+1) the symbolic conditions keep apart ...
    gamma = _gamma(rng, Fraction(180, 100), Fraction(185, 100))
    j = O.smallest_symbolic_j(gamma)
    inv, hits = _scan(gamma, 2 ** j, 2 ** (j + 1), rng.randint(440, 460))
    if hits:
        raise AssertionError(f"symbolic conditions hold for {gamma}, j={j}, yet the sweep found hits")
    invs.append(inv)
    # ... and one on targets that do meet
    hits = []
    while not hits:
        gamma = _gamma(rng, Fraction(160, 100), Fraction(165, 100))
        t1 = rng.randint(3, 20)
        inv, hits = _scan(gamma, t1, t1 + rng.randint(1, 20), rng.randint(300, 310))
    invs.append(inv)

    # short queries: symbolic, gamma-search, salpha, ratio
    for i in range(5):
        gamma = _gamma(rng, Fraction(3, 2), Fraction(2))
        j = rng.randint(1, 8)
        expected = O.symbolic(gamma, j)
        argv = ["thm2", "symbolic", "--gamma", O.rat(gamma), "--j", str(j)]
        if i == 0:
            invs.append(Invocation(argv + ["--format", "table"], table_equals("thm2 symbolic", expected)))
        else:
            invs.append(Invocation(argv, json_equals("thm2 symbolic", expected)))
    for _ in range(3):
        gamma = _gamma(rng, Fraction(3, 2), Fraction(2))
        expected = {
            "gamma": O.rat(gamma),
            "j": O.smallest_symbolic_j(gamma),
            "rule": "smallest j passing derived sufficient conditions",
        }
        invs.append(Invocation(["thm2", "gamma-search", "--gamma", O.rat(gamma)], json_equals("thm2 gamma-search", expected)))
    for fmt in ("json", "csv", "json"):
        gamma = _gamma(rng, Fraction(3, 2), Fraction(2))
        alpha = Fraction(rng.randint(1, 99), 100)
        n = rng.randint(40, 80)
        values = [alpha.numerator * s // alpha.denominator for s in O.floor_powers(gamma, n)]
        argv = ["seq", "salpha", "--gamma", O.rat(gamma), "--alpha", O.rat(alpha), "--n", str(n), "--format", fmt]
        if fmt == "json":
            expected = {"alpha": O.rat(alpha), "n": n, "values": values}
            invs.append(Invocation(argv, json_equals("seq salpha", expected)))
        else:
            invs.append(Invocation(argv, csv_values("seq salpha", values)))
    for kind in ("pow32", "squares"):
        n = rng.randint(50, 90)
        if kind == "pow32":
            gamma = _gamma(rng, Fraction(3, 2), Fraction(2))
            terms = O.floor_powers(gamma, n)
            argv = ["seq", "ratio", "--gamma", O.rat(gamma), "--n", str(n)]
        else:
            terms = [i * i for i in range(1, n + 1)]
            argv = ["seq", "ratio", "--kind", "squares", "--n", str(n)]
        bad = [i for i, (a, b) in enumerate(zip(terms, terms[1:]), 1) if not a < b <= 2 * a]
        expected = {"n_checked": n - 1, "violations": bad, "holds_from": bad[-1] + 1 if bad else 1}
        invs.append(Invocation(argv, json_equals("seq ratio", expected)))
    return invs


# ---------------------------------------------------------------------------
# enumerate

SLICE = 1024          # width of the independently enumerated slice
EXACT_LIMIT = 6000    # the knapsack oracle is exact below this


def _write_terms(tmp: Path, tag: str, terms: list[int]) -> Path:
    path = tmp / f"terms-{tag}.txt"
    path.write_text("".join(f"{t}\n" for t in terms))
    return path


def _compute_check(terms: list[int], bound: int, x: int, bit_out: Optional[Path], exact_runs=None, tail_from=None) -> Check:
    """RLE must decode, agree with the knapsack on [x, x + SLICE), and with what the maths fixes."""
    reach = O.subset_sums_below(terms, x + SLICE)[x:]
    total = sum(terms)

    def judge(result):
        want(result["bound"] == bound, "bound echo wrong")
        runs = result["runs"]
        end = -1
        for start, length in runs:
            want(start > end and length >= 1, "runs overlap, touch or are empty")
            end = start + length
        want(end <= bound + 1 and runs[0][0] == 0, "runs leave [0, bound] or miss 0")
        bits = O.runs_to_int(runs)
        got = [(bits >> v) & 1 for v in range(x, x + SLICE)]
        want(got == list(reach), f"membership differs from the knapsack on [{x}, {x + SLICE})")
        if exact_runs is not None:
            want(runs == exact_runs, "runs differ from the known set")
        if tail_from is not None:
            want(runs[-1] == [tail_from, bound - tail_from + 1], "the covered tail differs")
        if total <= bound:   # v and total - v are representable together
            want(bits.bit_length() == total + 1, "largest member is not the sum of all terms")
            text = bin(bits)[2:]
            want(text == text[::-1], "representation set is not symmetric about sum/2")
        if bit_out is not None:
            blob = bit_out.read_bytes()
            want(int.from_bytes(blob[:8], "little") == bound + 1, "bitmap header wrong")
            want(int.from_bytes(blob[8:], "little") == bits, "bitmap body differs from the RLE")

    return json_result("pset compute", judge)


def _compute(tmp, tag, terms, path, bound, rng, bit_out=False, **known) -> Invocation:
    x = rng.randint(0, EXACT_LIMIT - SLICE)
    argv = ["pset", "compute", "--terms", str(path), "--bound", str(bound)]
    out_path = None
    if bit_out:
        out_path = tmp / f"bits-{tag}.bin"
        argv += ["--bit-out", str(out_path)]
    return Invocation(argv, _compute_check(terms, bound, x, out_path, **known))


def _complete(path, bound, threshold, fmt="json") -> Invocation:
    expected = {"bound": bound, "threshold": threshold, "covered": threshold is not None}
    argv = ["pset", "complete", "--terms", str(path), "--bound", str(bound), "--format", fmt]
    if fmt == "json":
        return Invocation(argv, json_equals("pset complete", expected))
    return Invocation(argv, table_equals("pset complete", expected))


def _series(kind: str, terms: list[int], ell: int, digits: int, extra=()) -> Invocation:
    expected_digits, partial = O.series_digits(terms, ell, digits)
    expected = {"base": ell, "digits": expected_digits, "partial_sum": partial}
    argv = ["series", "--kind", kind, *extra, "--ell", str(ell), "--terms", str(len(terms)), "--digits", str(digits)]
    return Invocation(argv, json_equals("series", expected))


def _defect_series() -> Invocation:
    inv = _series("squarefull", O.r_full_prefix(2, 300), 2, 500)
    inv.defect = (
        "series fails with exit 2 when the exact partial sum has more than 4300 digits: "
        "rendering it hits Python's int-to-str conversion limit"
    )
    inv.defect_seen = lambda code, out, err: code == 2 and b"4300 digits" in err
    return inv


def _runs_with_gaps(missing: list[int], bound: int) -> list[list[int]]:
    runs, start = [], 0
    for v in missing:
        if v > start:
            runs.append([start, v - start])
        start = v + 1
    runs.append([start, bound - start + 1])
    return runs


def enumerate_(rng: random.Random, tmp: Path) -> list[Invocation]:
    invs = []
    b1, b2, b3 = (rng.randint(b - 500, b + 500) for b in (130_000, 100_000, 160_000))
    # sparse: 17 terms growing ~1.9x, scaled to sum to ~0.9 of their bound, so
    # the set has tens of thousands of runs
    raw = [1.9 ** i * rng.uniform(0.85, 1.15) for i in range(17)]
    sparse = [round(x * 0.9 * b1 / sum(raw)) + 1 for x in raw]
    rng.shuffle(sparse)
    # dense: 400 terms below 2500, far more than enough to cover the bounds
    dense = [rng.randint(1, 2500) for _ in range(400)]
    squares = [i * i for i in range(1, 501)]
    rng.shuffle(squares)
    paths = {tag: _write_terms(tmp, tag, terms) for tag, terms in
             (("sparse", sparse), ("dense", dense), ("squares", squares))}
    dense_threshold = O.complete_threshold(dense, 200_000, EXACT_LIMIT)
    squares_threshold = O.complete_threshold(squares, 240_000, EXACT_LIMIT)
    reach = O.subset_sums_below(squares, squares_threshold)
    square_runs = _runs_with_gaps([v for v, flag in enumerate(reach) if not flag], b3)
    invs += [
        _compute(tmp, "sparse", sparse, paths["sparse"], b1, rng),
        _compute(tmp, "dense", dense, paths["dense"], b2, rng, bit_out=True, tail_from=dense_threshold),
        _compute(tmp, "squares", squares, paths["squares"], b3, rng, exact_runs=square_runs),
        _complete(paths["sparse"], rng.randint(290_000, 300_000), None),   # sum(sparse) < bound
        _complete(paths["dense"], rng.randint(190_000, 200_000), dense_threshold),
        _complete(paths["squares"], rng.randint(230_000, 240_000), squares_threshold, fmt="table"),
    ]
    # Brown's criterion on ascending lists: one grown to pass it, two that fail
    grown = [1]
    for _ in range(59):
        grown.append(rng.randint(1, sum(grown) + 1))
    for tag, terms in (("grown", sorted(grown)), ("dense-up", sorted(dense)), ("squares-up", sorted(squares))):
        expected = {"terms": len(terms), "brown": O.brown(terms)}
        path = _write_terms(tmp, tag, terms)
        invs.append(Invocation(["pset", "brown", "--terms", str(path)], json_equals("pset brown", expected)))
    # squares up to 3000^2 at bound 2*10^4: nearly every shift runs far past the bound
    big_squares = [i * i for i in range(1, 3001)]
    rng.shuffle(big_squares)
    over = _write_terms(tmp, "over", big_squares)
    invs.append(_complete(over, rng.randint(19_000, 20_000), O.complete_threshold(big_squares, 20_000, 2000)))

    # r-full sieves via the smallest-prime-factor table, and the a^2 b^3 route
    for r, top in ((2, 1_000_000), (3, 400_000), (4, 200_000)):
        limit = rng.randint(top - 5000, top)
        values = O.r_full_up_to(limit, r)
        expected = {"limit": limit, "r": r, "method": "spf", "values": values}
        invs.append(Invocation(["sieve", "--limit", str(limit), "--r", str(r)], json_equals("sieve", expected)))
        if r == 2:
            expected = dict(expected, method="a2b3")
            invs.append(Invocation(["sieve", "--limit", str(limit), "--r", "2", "--method", "a2b3"], json_equals("sieve", expected)))
    limit = rng.randint(20_000, 50_000)
    invs.append(Invocation(["sieve", "--limit", str(limit), "--r", "2", "--format", "csv"], csv_values("sieve", O.r_full_up_to(limit, 2))))

    # the squares witness: ~13 MB of JSON at m = 3000
    for m in (rng.randint(2990, 3000), rng.randint(50, 200)):
        invs.append(Invocation(["pset", "witness", "--m", str(m)], json_equals("pset witness", _witness(m))))

    # series digits: exact rationals; the 300-term one exceeds 4300 digits
    invs.append(_series("squarefree", O.r_free_prefix(2, rng.randint(50, 70)), 2, rng.randint(60, 90)))
    invs.append(_series("rfull", O.r_full_prefix(3, rng.randint(20, 30)), 2, rng.randint(40, 60), ("--r", "3")))
    invs.append(_series("squares", [i * i for i in range(1, rng.randint(15, 25))], 10, rng.randint(40, 60)))
    invs.append(_defect_series())
    return invs


def _witness(m: int) -> dict:
    inv_alpha = 4 * (2 ** m + 1)
    lines = []
    for i in range(m + 1):
        t = 2 ** i
        lower, upper = inv_alpha * t, inv_alpha * (t + 1)
        n_i = math.isqrt(lower - 1) + 1           # ceil(sqrt(lower))
        gap_rhs = 2 ** (i + 1) + 2 + math.isqrt(4 * t * (t + 1))
        if not (n_i * n_i < upper and inv_alpha >= gap_rhs):
            raise AssertionError(f"squares witness fails at i={i}")
        lines.append({"i": i, "target": t, "n_i": n_i, "lower": lower, "upper": upper,
                      "gap_rhs": gap_rhs, "gap_ok": True})
    return {"m": m, "alpha": f"1/{inv_alpha}", "inv_alpha": inv_alpha, "lines": lines, "all_passed": True}


# ---------------------------------------------------------------------------

BUILDERS = {"certify": certify, "skip": skip, "enumerate": enumerate_}


def setup_probe(rng: random.Random) -> Invocation:
    """A trivial command that still builds floorfull's lazy 10^6 prime table."""
    primes = _distinct_primes(rng, 3, 5, 8)
    return _classify(math.prod(primes), [(p, 1) for p in primes])


def build(name: str, seed: int, tmp: Path) -> Workload:
    """The workload's invocations for `seed`, with its input files written to tmp."""
    # exact partial sums and witness lines run past 4300 decimal digits
    sys.set_int_max_str_digits(0)
    rng = random.Random(f"{name}:{seed}")
    invocations = BUILDERS[name](rng, tmp)
    return Workload(name, invocations, setup_probe(rng))
