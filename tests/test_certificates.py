import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from floorfull import certificates
from floorfull.certificates import (
    CASE_I,
    CASE_II,
    CASE_III,
    FACTOR_CROSSCHECK_BOUND,
    Certificate,
    NonRFullReport,
    WitnessLine,
    _witnesses,
    check_non_rfull,
    construct_certificate,
    dirichlet_search,
    validate_certificate,
    verify_non_rfull,
)
from floorfull.classify import factorize, is_r_full
from floorfull.cli import main, to_json
from floorfull.errors import NotFoundWithinBound, VerificationFailure


def oracle_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# --- dirichlet search -------------------------------------------------------

@pytest.mark.parametrize(
    "ell,expected_s,expected_q",
    [(3, 2, 5), (6, 2, 11), (15, 2, 29), (25, 6, 149)],
)
def test_dirichlet_search_finds_smallest(ell, expected_s, expected_q):
    s, q_star = dirichlet_search(ell)
    assert (s, q_star) == (expected_s, expected_q)
    assert oracle_is_prime(q_star)
    assert q_star == ell * s - 1
    for smaller in range(2, s):
        assert not oracle_is_prime(ell * smaller - 1)


def test_dirichlet_search_bound_exhaustion(monkeypatch, capsys):
    # for square-free ell = 23 the first hit is s = 6, so a budget of 5 must fail loudly
    monkeypatch.setattr(certificates, "S_MAX", 5)
    with pytest.raises(NotFoundWithinBound) as exc:
        dirichlet_search(23)
    assert str(exc.value) == "no s <= S_MAX = 5 with 23*s - 1 prime"
    assert main(["theorem1", "construct", "--r", "2", "--ell", "23"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bounded search exhausted: no s <= S_MAX = 5 with 23*s - 1 prime\n"


def test_dirichlet_search_rejects_bad_args(monkeypatch):
    with pytest.raises(ValueError):
        dirichlet_search(1)
    with pytest.raises(TypeError):  # the budget is the constant S_MAX, not an argument
        dirichlet_search(3, 100)
    monkeypatch.setattr(certificates, "S_MAX", 1)  # no s to try
    with pytest.raises(NotFoundWithinBound, match="S_MAX = 1 "):
        dirichlet_search(3)


# --- construction -----------------------------------------------------------

def test_construct_case_i():
    cert = construct_certificate(2, 2)
    assert (cert.case, cert.k) == (CASE_I, 10)
    validate_certificate(cert)


def test_construct_case_ii():
    cert = construct_certificate(2, 4)
    assert (cert.case, cert.p, cert.k) == (CASE_II, 2, 2)
    validate_certificate(cert)


def test_construct_case_iii():
    cert = construct_certificate(2, 3)
    assert (cert.case, cert.q, cert.s, cert.q_star, cert.k) == (CASE_III, 3, 2, 5, 12)
    validate_certificate(cert)


def test_construct_case_selection_partition():
    # ell = 2 -> I; squared prime divisor -> II; square-free >= 3 -> III
    for ell in range(2, 80):
        cert = construct_certificate(3, ell)
        if ell == 2:
            assert cert.case == CASE_I
        elif any(ell % (p * p) == 0 for p in range(2, ell)):
            assert cert.case == CASE_II
        else:
            assert cert.case == CASE_III
        validate_certificate(cert)


def test_construct_is_deterministic_and_r_independent():
    certs = [construct_certificate(r, 21) for r in (2, 3, 4, 5)]
    assert len({(c.case, c.k, c.q, c.s, c.q_star) for c in certs}) == 1
    assert construct_certificate(2, 21) == construct_certificate(2, 21)


def test_construct_rejects_bad_args():
    with pytest.raises(ValueError):
        construct_certificate(1, 3)
    with pytest.raises(ValueError):
        construct_certificate(2, 1)


# --- validation -------------------------------------------------------------

def _invalid(code, witness=None, test_id=None, **fields):
    """A row: construct_certificate(2, 3)'s JSON with fields replaced, and the
    one line `theorem1 validate` prints for it."""
    payload = {"r": 2, "ell": 3, "case": CASE_III, "k": 12, "witness": {"q": 3, "s": 2, "q_star": 5}}
    payload.update(fields)
    if witness is not None:
        payload["witness"] = witness
    expected = (1, f"verification failed: certificate invalid: {code}\n", "")
    return pytest.param(payload, expected, id=test_id or code)


# one crafted certificate per reason code, in validate_certificate's checking order
@pytest.mark.parametrize("payload, expected", [
    _invalid("r_below_2", r=1),
    _invalid("ell_below_2", ell=1),
    _invalid("k_not_positive", k=0),
    _invalid("case1_requires_ell_2", case=CASE_I, k=10, witness={}),
    _invalid("case1_requires_k_10", case=CASE_I, ell=2, k=11, witness={}),
    _invalid("missing_p", case=CASE_II, ell=4, k=2, witness={}),
    _invalid("p_not_prime", case=CASE_II, ell=16, k=4, witness={"p": 4}),
    _invalid("p_squared_does_not_divide_ell", case=CASE_II, ell=6, k=3, witness={"p": 3}),
    _invalid("k_must_equal_p", case=CASE_II, ell=4, k=3, witness={"p": 2}),
    _invalid("missing_case3_witness", witness={"q": 3, "s": 2}),
    _invalid("q_must_be_odd", witness={"q": 2, "s": 2, "q_star": 5}),
    _invalid("q_not_prime", ell=15, k=15 * 28, witness={"q": 15, "s": 2, "q_star": 29}),
    _invalid("q_does_not_divide_ell", witness={"q": 5, "s": 2, "q_star": 5}),
    _invalid("ell_not_squarefree", ell=12, k=12 * 22, witness={"q": 3, "s": 2, "q_star": 23}),
    _invalid("s_below_2", k=3, witness={"q": 3, "s": 1, "q_star": 2}),
    _invalid("q_star_mismatch", k=18, witness={"q": 3, "s": 2, "q_star": 7}),
    _invalid("q_star_not_prime", k=21, witness={"q": 3, "s": 3, "q_star": 8}),
    _invalid("k_formula_mismatch", k=13),
    _invalid("k_formula_mismatch", k=1, test_id="k_1_is_positive"),  # k >= 1 is allowed
    _invalid("unknown_case", case="IV", k=10),
    pytest.param({"r": 2, "ell": 3, "case": 3, "k": 12},
                 (2, "", "error: certificate field 'case' must be a string\n"),
                 id="case_not_a_string"),
])
def test_validate_names_the_first_failed_invariant(tmp_path, capsys, payload, expected):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code = main(["theorem1", "validate", "--cert", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


def test_certificate_json_round_trip():
    for ell in (2, 4, 15):
        cert = construct_certificate(3, ell)
        blob = json.dumps(to_json(cert))
        assert Certificate.from_json_dict(json.loads(blob)) == cert


# --- verification -----------------------------------------------------------

def test_verify_case_i_witnesses():
    report = verify_non_rfull(construct_certificate(2, 2), max_m=40)
    assert report.all_passed
    by_m = {line.m: line for line in report.lines}
    assert by_m[1].witness == 3  # 12 = 2^2 * 3 fails through the odd prime
    assert by_m[3].witness == 2  # 18 = 2 * 9: single factor of 2
    assert (2**3 + 10) % 2 == 0 and (2**3 + 10) % 4 != 0


def test_verify_case_iii_first_exponent():
    report = verify_non_rfull(construct_certificate(2, 3), max_m=1)
    line = report.lines[0]
    assert line.witness == 5
    assert 3 + 12 == 15 == 3 * 5


def test_verify_case_ii_witness():
    report = verify_non_rfull(construct_certificate(2, 4), max_m=5)
    line = {l.m: l for l in report.lines}[2]
    assert line.witness == 2
    assert (16 + 2) % 2 == 0 and (16 + 2) % 4 != 0


def test_verify_witness_skeleton_directly():
    # recompute the divisibility pattern on the full integers, independent of
    # the residue proof inside check_non_rfull
    for ell in (2, 3, 4, 6, 15, 18):
        cert = construct_certificate(2, ell)
        report = verify_non_rfull(cert, max_m=12)
        for line in report.lines:
            value = ell ** line.m + cert.k
            assert value % line.witness == 0
            assert value % line.witness**2 != 0


def test_verify_crosschecks_small_values():
    report = verify_non_rfull(construct_certificate(2, 3), max_m=40)
    assert any(line.cross_checked for line in report.lines)
    assert not all(line.cross_checked for line in report.lines)  # 3^40 is huge


def _per_m_report(cert: Certificate, max_m: int) -> NonRFullReport:
    """The verifier as it was: ell**m + k built in full at every m."""
    lines = []
    first, rest = _witnesses(cert)
    for m in range(1, max_m + 1):
        w = rest if m > 1 else first
        value = cert.ell ** m + cert.k
        assert value % w == 0 and value % (w * w) != 0
        cross_checked = value <= FACTOR_CROSSCHECK_BOUND
        if cross_checked:
            assert not is_r_full(value, cert.r) and not is_r_full(value, 2)
        lines.append(WitnessLine(m, w, True, True, cross_checked))
    return NonRFullReport(cert, max_m, tuple(lines), True)


@pytest.mark.parametrize("ell", [2, 6, 12, 30])
# the cross-checks stop after m = 39, 15, 11 and 8 for ell = 2, 6, 12 and 30
@pytest.mark.parametrize("max_m", [1, 2, 8, 9, 12, 16, 39, 40, 41, 120])
def test_verify_matches_per_m_oracle(ell, max_m):
    for r in (2, 3):
        cert = construct_certificate(r, ell)
        assert verify_non_rfull(cert, max_m) == _per_m_report(cert, max_m)


def _squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(2, 5),
    max_m=st.integers(1, 250),
    ell=st.one_of(
        st.just(2),  # Case I
        st.builds(lambda p, c: p * p * c, st.sampled_from([2, 3, 5, 7, 11, 31]),
                  st.integers(1, 1000)),  # Case II
        st.integers(3, 10**6).filter(_squarefree),  # Case III
    ),
)
def test_check_and_verify_match_per_m_oracle(r, max_m, ell):
    cert = construct_certificate(r, ell)
    oracle = _per_m_report(cert, max_m)
    assert verify_non_rfull(cert, max_m) == oracle
    flags = [line.cross_checked for line in oracle.lines]
    assert check_non_rfull(cert, max_m) == sum(flags)
    assert flags == sorted(flags, reverse=True)  # the cross-checked m are a prefix


@settings(max_examples=200, deadline=None)
@given(rest=st.sampled_from([2, 3, 5, 7, 11, 101, 65537]),
       a=st.integers(1, 10**6), c=st.integers(1, 10**6))
def test_three_residues_settle_every_exponent(rest, a, c):
    """check_non_rfull's proof on plain integers, with no Certificate: if
    first divides ell + k exactly once, rest divides ell and rest divides k
    exactly once, then first settles m = 1 and rest every m >= 2."""
    assume(c % rest)
    ell, k = rest * a, rest * c
    n = ell + k
    first = next((f for f in range(2, 1000)
                  if oracle_is_prime(f) and n % f == 0 and n % (f * f)), None)
    assume(first is not None)
    for m in range(1, 61):
        w = rest if m > 1 else first
        value = ell**m + k
        assert value % w == 0 and value % (w * w) != 0, (ell, k, m, w)


def _old_grid_cell(r, ell, max_m):
    """`theorem1 grid`'s cell as it was: construct, validate, full report."""
    cert = construct_certificate(r, ell)
    validate_certificate(cert)  # raises unless valid
    report = verify_non_rfull(cert, max_m=max_m)
    return {"r": r, "ell": ell, "case": cert.case, "k": cert.k, "valid": True, "verified_to": report.max_m}


def test_grid_rows_match_per_cell_reports(capsys):
    argv = ["theorem1", "grid", "--r-min", "2", "--r-max", "4", "--ell-min", "2",
            "--ell-max", "40", "--max-m", "45"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    expected = [_old_grid_cell(r, ell, 45) for r in (2, 3, 4) for ell in range(2, 41)]
    assert {row["case"] for row in expected} == {CASE_I, CASE_II, CASE_III}
    assert result == {"rows": expected, "all_passed": True}


def test_grid_constructs_and_checks_each_ell_once(monkeypatch, capsys):
    # one certificate proves an ell's row for every r, so 39 ells cost 39
    # constructions and checks, not one per cell (117)
    constructed, checked = [], []

    def construct(r, ell):
        constructed.append((r, ell))
        return construct_certificate(r, ell)

    def check(cert, max_m):
        checked.append(cert.ell)
        return check_non_rfull(cert, max_m)

    monkeypatch.setattr(certificates, "construct_certificate", construct)
    monkeypatch.setattr(certificates, "check_non_rfull", check)
    argv = ["theorem1", "grid", "--r-min", "2", "--r-max", "4", "--ell-min", "2",
            "--ell-max", "40"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["rows"]) == 117
    assert constructed == [(2, ell) for ell in range(2, 41)]
    assert checked == list(range(2, 41))


@pytest.fixture
def built_lines(monkeypatch):
    built = []

    def counting_line(*args, **kwargs):
        built.append(WitnessLine(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(certificates, "WitnessLine", counting_line)
    return built


def test_grid_builds_no_witness_lines(built_lines, capsys):
    argv = ["theorem1", "grid", "--r-min", "2", "--r-max", "3", "--ell-min", "2",
            "--ell-max", "13", "--max-m", "30"]  # 24 cells
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["rows"]) == 24
    assert built_lines == []


@pytest.mark.parametrize("ell", [2, 12, 15])
def test_verify_builds_one_line_per_exponent(built_lines, ell):
    report = verify_non_rfull(construct_certificate(3, ell), max_m=57)
    assert len(built_lines) == 57 and list(report.lines) == built_lines


def _patch_witnesses(monkeypatch, first=None, rest=None):
    def witnesses(cert, real=_witnesses):
        real_first, real_rest = real(cert)
        return first or real_first, rest or real_rest

    monkeypatch.setattr(certificates, "_witnesses", witnesses)


def test_wrong_witness_at_first_exponent_fails_there(monkeypatch):
    _patch_witnesses(monkeypatch, first=7)  # 3 + 12 = 15 = 3 * 5
    with pytest.raises(VerificationFailure, match="witness 7") as exc:
        check_non_rfull(construct_certificate(2, 3), 10)
    assert str(exc.value) == "witness 7 does not divide ell^1 + k exactly once"
    _patch_witnesses(monkeypatch, first=2)  # 2 + 10 = 12 = 2^2 * 3
    with pytest.raises(VerificationFailure) as exc:
        check_non_rfull(construct_certificate(2, 2), 10)
    assert str(exc.value) == "witness 2 does not divide ell^1 + k exactly once"
    _patch_witnesses(monkeypatch, first=3)  # 16 + 2 = 18 = 2 * 3^2, but 9 does not divide 16 - 2
    with pytest.raises(VerificationFailure) as exc:
        check_non_rfull(construct_certificate(2, 16), 10)
    assert str(exc.value) == "witness 3 does not divide ell^1 + k exactly once"


@pytest.mark.parametrize("ell,wrong", [(2, 5), (4, 5), (15, 7)])
def test_wrong_later_witness_that_misses_ell_fails(monkeypatch, ell, wrong):
    _patch_witnesses(monkeypatch, rest=wrong)
    with pytest.raises(VerificationFailure, match=f"witness {wrong}") as exc:
        verify_non_rfull(construct_certificate(2, ell), 1)  # the proof covers every m
    assert str(exc.value) == f"witness {wrong} does not divide ell"


@pytest.mark.parametrize("ell,wrong", [(6, 2), (12, 3)])
def test_later_witness_dividing_k_twice_or_not_at_all_fails(monkeypatch, ell, wrong):
    # ell = 6: k = 6 * (11 - 1) = 60 = 2^2 * 15, which is why Case III takes q odd;
    # ell = 12: k = p = 2, which 3 does not divide
    _patch_witnesses(monkeypatch, rest=wrong)
    with pytest.raises(VerificationFailure, match=f"witness {wrong}") as exc:
        check_non_rfull(construct_certificate(2, ell), 10)
    assert str(exc.value) == f"witness {wrong} does not divide k exactly once"


def test_cross_check_failure_names_first_exponent(monkeypatch):
    # says r-full only when asked with r = 2, the r every r >= 2 reduces to
    monkeypatch.setattr(certificates, "is_r_full", lambda n, r: r == 2)
    with pytest.raises(VerificationFailure, match="factorization says 12 is r-full") as exc:
        check_non_rfull(construct_certificate(2, 2), 10)
    assert str(exc.value) == "factorization says 12 is r-full, contradicting witness"  # 2^1 + 10


def test_check_is_exported_lazily():
    import floorfull

    assert floorfull.check_non_rfull is check_non_rfull
    assert "check_non_rfull" in dir(floorfull)


def test_check_rejects_invalid_certificate_like_verify():
    broken = Certificate(r=2, ell=6, case=CASE_II, k=3, p=3)
    with pytest.raises(VerificationFailure) as exc:
        check_non_rfull(broken, 5)
    assert str(exc.value) == "certificate invalid: p_squared_does_not_divide_ell"
    with pytest.raises(ValueError, match="max_m must be >= 1"):
        check_non_rfull(construct_certificate(2, 2), 0)
    with pytest.raises(ValueError, match="max_m must be >= 1"):  # checked before validity
        check_non_rfull(broken, 0)


def test_checks_call_validate_through_its_module_binding(monkeypatch, tmp_path, capsys):
    # the benchmark's tracer times validation by replacing this binding
    calls = []

    def counted(cert):
        calls.append(cert)
        return validate_certificate(cert)

    monkeypatch.setattr(certificates, "validate_certificate", counted)
    cert = construct_certificate(2, 15)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(to_json(cert)))
    assert main(["theorem1", "validate", "--cert", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"ok": True, "reason": None}
    check_non_rfull(cert, 3)
    assert calls == [cert, cert]


@pytest.mark.parametrize("bound, expected", [(2 ** 5 + 10, 5), (2 ** 5 + 9, 4)])
def test_cross_check_bound_is_inclusive(monkeypatch, bound, expected):
    # ell = 2, k = 10: ell^m + k reaches the bound at m = 5 and is checked there
    monkeypatch.setattr(certificates, "FACTOR_CROSSCHECK_BOUND", bound)
    assert check_non_rfull(construct_certificate(2, 2), 60) == expected


def test_case_iii_shift_never_squarefull_by_factorization():
    for m in range(1, 41):
        assert not is_r_full(3 ** m + 12, 2)


def test_grid_cross_checks_factorize_nothing_but_the_ells():
    # the cross-check settles ell^m + k by trial division where it can;
    # only construct_certificate and validate_certificate factorize, and
    # only ell, which the cache serves to the second r
    ells = range(2, 61)
    factorize.cache_clear()
    for r in (2, 3):
        for ell in ells:
            check_non_rfull(construct_certificate(r, ell), 40)
    assert factorize.cache_info().misses <= len(ells)


def test_verify_rejects_invalid_certificate():
    broken = Certificate(r=2, ell=6, case=CASE_II, k=3, p=3)
    with pytest.raises(VerificationFailure) as exc:
        verify_non_rfull(broken)
    assert str(exc.value) == "certificate invalid: p_squared_does_not_divide_ell"
    with pytest.raises(ValueError):
        verify_non_rfull(construct_certificate(2, 2), max_m=0)


def test_small_grid_constructs_validates_verifies():
    for r in (2, 3):
        for ell in range(2, 13):
            cert = construct_certificate(r, ell)
            validate_certificate(cert)
            assert verify_non_rfull(cert, max_m=20).all_passed


def test_report_json_shape():
    payload = to_json(verify_non_rfull(construct_certificate(2, 2), max_m=3))
    assert payload["certificate"]["case"] == "I"
    assert payload["max_m"] == 3
    assert [line["m"] for line in payload["lines"]] == [1, 2, 3]
    assert payload["all_passed"] is True
