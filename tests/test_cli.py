"""The CLI, run in-process through `main(argv)`.

Only the entry-point smoke test and the broken-pipe and unwritable-stdout
tests start a `python -m floorfull` process.
"""

import argparse
import ast
import importlib
import io
import json
import math
import pathlib
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import NamedTuple

import pytest

import floorfull
from floorfull import _cmd_certificates, certificates, classify, cli, pset
from floorfull.cli import build_parser, dispatch, main
from floorfull.defaults import BITMAP_CAP, SEQ_CAP, SIEVE_CAP, unlimited_int_digits

from test_argv_corpus import PARSER_CORPUS  # pytest puts tests/ on sys.path

CLI = [sys.executable, "-m", "floorfull"]
INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
TERMS = str(INPUTS / "terms.txt")


class Run(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return Run(code, out.getvalue().encode(), err.getvalue().encode())


def run_json(*args, **kwargs):
    proc = run_cli(*args, **kwargs)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_theorem1_construct_case_i():
    payload = run_json("theorem1", "construct", "--r", "2", "--ell", "2")
    assert payload["result"] == {"r": 2, "ell": 2, "case": "I", "k": 10, "witness": {}}


def test_config_header_reports_defaults():
    # construct searches up to S_MAX and factors ell; it names no K, M or cap
    payload = run_json("theorem1", "construct", "--r", "2", "--ell", "2")
    assert payload["config"] == {
        "subcommand": "theorem1 construct", "format": "json", "s_max": 10_000, "seed": 0,
    }


def test_thm2_verify_passes_and_fails_by_exit_code():
    proc = run_cli("thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", "50")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["overall"] is True

    proc = run_cli("thm2", "verify", "--gamma", "3/2", "--j", "1", "--K", "50")
    assert proc.returncode == 1
    assert b"verification failed" in proc.stdout
    # the failing report still comes out, rows included
    first_line = proc.stdout.decode().splitlines()[0]
    report = json.loads(first_line)
    assert report["result"]["overall"] is False
    assert any(not row["passed"] for row in report["result"]["rows"])


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_a_failing_report_prints_every_row(fmt):
    # the check stops at the first failing row, k = 3; the report still holds k = 3..50
    proc = run_cli("thm2", "verify", "--gamma", "3/2", "--j", "1", "--K", "50", "--format", fmt)
    assert proc.returncode == 1
    *report, verdict = proc.stdout.decode().splitlines()
    assert verdict == ("verification failed: skip argument fails at k=3: max_next=4 "
                       "(allowed <= 3), min_next2=4 (required >= 5)")
    if fmt == "json":
        ks = [row["k"] for row in json.loads(report[0])["result"]["rows"]]
    elif fmt == "csv":
        ks = [int(line.split(",")[1]) for line in report if re.match(r"rows\[\d+\]\.k,", line)]
    else:
        ks = [int(line.split()[0]) for line in report if re.match(r"  \d+ +\[", line)]
    assert ks == list(range(3, 51))


def test_gamma_search_near_two_exits_0():
    payload = run_json("thm2", "gamma-search", "--gamma", "1999999999/1000000000")
    assert payload["result"]["j"] == 32


# every thm2 subcommand that holds gamma to [3/2, 2), not gamma-search alone
@pytest.mark.parametrize(
    "argv, gamma",
    [
        (["thm2", "verify", "--j", "3", "--K", "5"], "5/2"),
        (["thm2", "verify", "--j", "3"], "1e300"),
        (["thm2", "symbolic", "--j", "3"], "1e4300"),
        (["thm2", "gamma-search"], "2"),
        (["thm2", "gamma-search"], "7/5"),
        (["thm2", "gamma-search"], "1e4300"),
    ],
    ids=["verify", "verify_huge", "symbolic_huge", "2", "7/5", "gamma_search_huge"],
)
def test_gamma_search_out_of_range_exits_2_with_one_line(argv, gamma):
    proc = run_cli(*argv, "--gamma", gamma)
    assert (proc.returncode, proc.stdout) == (2, b"")
    with unlimited_int_digits():
        expected = f"error: gamma must lie in [3/2, 2), got {Fraction(gamma)}\n"
    assert proc.stderr == expected.encode()


@pytest.mark.parametrize(
    "argv", [["thm2", "symbolic"], ["thm2", "verify", "--K", "3"]], ids=["symbolic", "verify"]
)
def test_thm2_j_past_the_cap_exits_2_with_one_line(argv):
    assert run_cli(*argv, "--gamma", "3/2", "--j", "65536").returncode == 0
    proc = run_cli(*argv, "--gamma", "3/2", "--j", "65537")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: j must lie in 1..J_CAP = 65536, got 65537\n"


def test_usage_error_exits_2():
    proc = run_cli("thm2", "verify", "--j", "3")  # missing --gamma
    assert proc.returncode == 2

    proc = run_cli("no-such-command")
    assert proc.returncode == 2

    proc = run_cli("classify", "--n", "10", "--seed", "0")  # no such flag
    assert proc.returncode == 2


def test_config_error_names_cap():
    # each check runs before its sieve, bitmap or term list is allocated
    past_the_caps = [
        (["sieve", "--limit", str(SIEVE_CAP + 1)],
         f"limit {SIEVE_CAP + 1} exceeds the sieve cap SIEVE_CAP = {SIEVE_CAP}"),
        (["sieve", "--limit", str(SIEVE_CAP + 1), "--method", "a2b3"],
         f"limit {SIEVE_CAP + 1} exceeds the sieve cap SIEVE_CAP = {SIEVE_CAP}"),
        (["pset", "complete", "--terms", TERMS, "--bound", str(BITMAP_CAP)],
         f"bound {BITMAP_CAP} must be below the bitmap cap BITMAP_CAP = {BITMAP_CAP}"),
        (["seq", "gen", "--n", str(SEQ_CAP + 1)],
         f"n_max {SEQ_CAP + 1} exceeds the sequence cap SEQ_CAP = {SEQ_CAP}"),
    ]
    for argv, message in past_the_caps:
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"error: {message}\n".encode()


CAP_RUNS = (
    ["sieve", "--limit", "10"],
    ["pset", "complete", "--terms", TERMS, "--bound", "10"],
    ["seq", "gen", "--n", "3"],
)


@pytest.mark.parametrize("value", ["abc", "1"])
@pytest.mark.parametrize(
    "var", ["FLOORFULL_SIEVE_CAP", "FLOORFULL_BITMAP_CAP", "FLOORFULL_SEQ_CAP"]
)
def test_former_env_caps_have_no_effect(monkeypatch, var, value):
    clean = [run_cli(*argv) for argv in CAP_RUNS]
    assert [proc.returncode for proc in clean] == [0, 0, 0]
    monkeypatch.setenv(var, value)
    for argv, expected in zip(CAP_RUNS, clean):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (expected.returncode, expected.stdout)


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # a run's settings are its flags and the constants of `defaults`; a
    # knob read from the environment would be a setting no header names
    reads = []
    for path in sorted(pathlib.Path(floorfull.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant)  # getattr(os, "environ")
                else None
            )
            if name in ENVIRONMENT_NAMES:
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert reads == []


@pytest.mark.parametrize("gamma", ["0", "0/5"])
@pytest.mark.parametrize(
    "argv",
    [["seq", "gen", "--n", "5"], ["thm2", "scan", "--t1", "8", "--t2", "16", "--n", "10"]],
    ids=["seq_gen", "thm2_scan"],
)
def test_gamma_zero_exits_2(argv, gamma):
    proc = run_cli(*argv, "--gamma", gamma)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: gamma must exceed 1, got 0\n"


@pytest.mark.parametrize(
    "argv, flag, kind",
    [
        (["seq", "gen", "--kind", "squares", "--gamma", "5", "--n", "4"], "--gamma", "squares"),
        (["series", "--kind", "squarefree", "--r", "3", "--terms", "4", "--digits", "5"],
         "--r", "squarefree"),
        (["seq", "gen", "--kind", "pow32", "--file", "/nonexistent", "--n", "3"], "--file", "pow32"),
    ],
    ids=["seq_gamma_with_squares", "series_r_with_squarefree", "seq_file_with_pow32"],
)
def test_flag_the_kind_does_not_read_exits_2(argv, flag, kind):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: {flag} is not read with --kind {kind}\n".encode()


def test_kind_defaults_apply_where_the_kind_reads_them():
    assert run_json("seq", "gen", "--n", "5")["result"]["values"] == [1, 2, 3, 5, 7]
    series = ("--terms", "6", "--digits", "12")
    assert (run_json("series", "--kind", "rfree", *series)["result"]
            == run_json("series", "--kind", "squarefree", *series)["result"])
    assert (run_json("series", "--kind", "rfull", *series)["result"]
            == run_json("series", "--kind", "squarefull", *series)["result"])


def test_classify_factorizes_once():
    classify.factorize.cache_clear()
    payload = run_json("classify", "--n", "1234567")
    assert payload["result"]["factorization"] == [[127, 1], [9721, 1]]
    assert classify.factorize.cache_info().misses == 1


def test_gamma_domain_error_exits_2():
    proc = run_cli("thm2", "symbolic", "--gamma", "7/5", "--j", "3")
    assert proc.returncode == 2


def test_byte_identical_reruns():
    for k_max in ("40", "3000"):
        for fmt in ("json", "table", "csv"):  # each reads the rows view, built row by row
            args = ("thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", k_max, "--format", fmt)
            assert run_cli(*args).stdout == run_cli(*args).stdout


def test_grid_jobs_1_is_the_serial_default():
    base = ("theorem1", "grid", "--r-max", "3", "--ell-max", "8", "--max-m", "10")
    serial = run_cli(*base, "--jobs", "1")
    assert serial.returncode == 0
    assert serial == run_cli(*base)


@pytest.mark.parametrize("jobs", ["0", "-3", "2"])
def test_grid_jobs_below_one_exits_2_with_one_line(jobs):
    # 1 is the only value: the grid runs serially
    proc = run_cli("theorem1", "grid", "--r-max", "2", "--ell-max", "3", "--jobs", jobs)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: --jobs must be 1, the grid runs serially; got {jobs}\n".encode()


@pytest.mark.parametrize("action", ["construct --r 2 --ell 15", "grid"])
def test_s_max_is_not_a_flag(action):
    # the Case III search budget is the constant S_MAX
    proc = run_cli("theorem1", *action.split(), "--s-max", "5")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"unrecognized arguments: --s-max 5" in proc.stderr


def run_traced(*args):
    """run_cli, and the peak of the memory its run allocated."""
    tracemalloc.start()
    try:
        proc = run_cli(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return proc, peak


@pytest.mark.parametrize(
    "argv",
    [["theorem1", "verify", "--cert", str(INPUTS / "cert_ell15.json")],
     ["theorem1", "grid", "--r-max", "2", "--ell-max", "6"]],
    ids=["verify", "grid"],
)
def test_max_m_past_the_cap_exits_2_with_one_line(argv):
    cap = certificates.MAX_M_CAP
    assert cap >= 200  # the benchmark's certify workload runs --max-m up to 200
    proc, peak = run_traced(*argv, "--max-m", str(cap + 1))
    assert proc.returncode == 2
    assert proc.stdout == b""
    message = f"max_m must be >= 1 and <= MAX_M_CAP = {cap}, got {cap + 1}"
    assert proc.stderr == f"error: {message}\n".encode()
    assert peak < 1 << 20  # one line per m would take megabytes


def test_max_m_at_the_cap_exits_0():
    # a grid builds no line per m, so the cap itself stays cheap there
    payload = run_json("theorem1", "grid", "--r-max", "2", "--ell-max", "2",
                       "--max-m", str(certificates.MAX_M_CAP))
    assert payload["result"]["rows"][0]["verified_to"] == certificates.MAX_M_CAP


class CellRun(Exception):
    pass


def test_grid_past_the_cell_cap_exits_2_before_any_cell(monkeypatch):
    cap = _cmd_certificates.GRID_CELL_CAP
    assert cap >= 840  # the benchmark's certify workload runs grids of up to 840 cells
    proc, peak = run_traced("theorem1", "grid", "--r-max", "2", "--ell-max", str(cap + 2))
    assert proc.returncode == 2
    assert proc.stdout == b""
    message = f"the grid has {cap + 1} cells, above GRID_CELL_CAP = {cap}"
    assert proc.stderr == f"error: {message}\n".encode()
    assert peak < 1 << 20
    # empty ranges are no verdict, whatever the product of their signed lengths
    empty = run_cli("theorem1", "grid", "--r-min", "300", "--ell-min", "300")
    assert empty.returncode == 2
    assert empty.stdout == b""
    assert empty.stderr == b"error: the grid is empty: r in [300, 5], ell in [300, 50]\n"

    def no_cell(r, ell):
        raise CellRun(r, ell)

    monkeypatch.setattr(certificates, "construct_certificate", no_cell)
    with pytest.raises(CellRun):  # the cap itself passes the check
        run_cli("theorem1", "grid", "--r-max", "2", "--ell-max", str(cap + 1))


@pytest.mark.parametrize(
    "bounds, cell",
    [(("--r-min", "1", "--r-max", "3", "--ell-max", "5"), "r=1, ell=2"),
     (("--r-min", "2", "--r-max", "3", "--ell-min", "1", "--ell-max", "5"), "r=2, ell=1")],
)
def test_grid_names_its_first_bad_cell(bounds, cell):
    proc = run_cli("theorem1", "grid", *bounds)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: r and ell must both be >= 2, got {cell}\n".encode()


def test_grid_exhausted_case_iii_search_names_the_first_ell(monkeypatch):
    # with s <= 2, ell = 5 is the first Case III ell with no prime 5*s - 1
    monkeypatch.setattr(certificates, "S_MAX", 2)
    proc = run_cli("theorem1", "grid", "--r-max", "3", "--ell-max", "30")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"bounded search exhausted: no s <= S_MAX = 2 with 5*s - 1 prime\n"


def test_seq_gen_csv_one_integer_per_row():
    proc = run_cli("seq", "gen", "--kind", "pow32", "--n", "10", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1:] == ["1", "2", "3", "5", "7", "11", "17", "25", "38", "57"]


def test_seq_salpha_decimal_alpha_is_exact():
    a = run_cli("seq", "salpha", "--alpha", "0.3", "--n", "8")
    b = run_cli("seq", "salpha", "--alpha", "3/10", "--n", "8")
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["result"]["alpha"] == "3/10"


def test_seq_preimage_interval_json():
    payload = run_json("seq", "preimage", "--t", "8", "--s", "17")
    assert payload["result"] == {"lo": "8/17", "hi": "9/17", "closed_open": True}


def test_seq_ratio():
    payload = run_json("seq", "ratio", "--kind", "squares", "--n", "50")
    assert payload["result"]["violations"] == [1, 2]


def test_classify_subcommand():
    payload = run_json("classify", "--n", "72", "--r", "2")
    assert payload["result"]["factorization"] == [[2, 3], [3, 2]]
    assert payload["result"]["is_r_full"] is True
    assert payload["result"]["is_r_free"] is False


@pytest.mark.parametrize("method", ["spf", "a2b3"])
def test_sieve_names_the_limit_it_rejects(method):
    proc = run_cli("sieve", "--limit", "0", "--method", method)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: limit must be >= 1, got 0\n"


def test_sieve_methods_agree():
    spf = run_json("sieve", "--limit", "500", "--r", "2")
    a2b3 = run_json("sieve", "--limit", "500", "--r", "2", "--method", "a2b3")
    assert spf["result"]["values"] == a2b3["result"]["values"]
    proc = run_cli("sieve", "--limit", "500", "--r", "3", "--method", "a2b3")
    assert proc.returncode == 2  # a2b3 route only enumerates square-full


def test_series_payload_shape():
    payload = run_json(
        "series", "--kind", "squarefree", "--ell", "2", "--terms", "5", "--digits", "12"
    )
    assert set(payload["result"]) == {"base", "digits", "partial_sum"}
    assert payload["result"]["base"] == 2
    assert len(payload["result"]["digits"]) == 12


def test_theorem1_certificate_file_pipeline(tmp_path):
    payload = run_json("theorem1", "construct", "--r", "2", "--ell", "15")
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(payload["result"]))

    ok = run_json("theorem1", "validate", "--cert", str(cert_file))
    assert ok["result"]["ok"] is True

    verified = run_json("theorem1", "verify", "--cert", str(cert_file), "--max-m", "25")
    assert verified["result"]["all_passed"] is True
    assert len(verified["result"]["lines"]) == 25

    # tamper with the shift and the validator must reject with exit 1
    broken = dict(payload["result"])
    broken["k"] = broken["k"] + 1
    cert_file.write_text(json.dumps(broken))
    proc = run_cli("theorem1", "validate", "--cert", str(cert_file))
    assert proc.returncode == 1
    assert b"k_formula_mismatch" in proc.stdout


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_every_theorem1_command_exits_1_on_an_invalid_certificate(fmt):
    cert = str(INPUTS / "cert_broken_k.json")
    expected = Run(1, b"verification failed: certificate invalid: k_formula_mismatch\n", b"")
    assert run_cli("theorem1", "validate", "--cert", cert, "--format", fmt) == expected
    assert run_cli("theorem1", "verify", "--cert", cert, "--format", fmt) == expected
    # a usage error is checked first, and still exits 2
    proc = run_cli("theorem1", "verify", "--cert", cert, "--max-m", "0", "--format", fmt)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: max_m must be >= 1 and <= MAX_M_CAP = 65536, got 0\n"


def test_thm2_gamma_search():
    payload = run_json("thm2", "gamma-search", "--gamma", "8/5")
    assert payload["result"]["j"] == 3


def test_thm2_scan_empty_for_baseline_pair():
    payload = run_json("thm2", "scan", "--t1", "8", "--t2", "16", "--n", "80")
    assert payload["result"]["empty"] is True
    assert payload["result"]["intervals"] == []


def test_pset_cli_round_trip(tmp_path):
    terms = tmp_path / "terms.txt"
    terms.write_text("2\n3\n")
    payload = run_json("pset", "compute", "--terms", str(terms), "--bound", "10")
    assert payload["result"] == {"bound": 10, "runs": [[0, 1], [2, 2], [5, 1]]}

    bit_out = tmp_path / "bitmap.bin"
    run_json(
        "pset", "compute", "--terms", str(terms), "--bound", "10",
        "--bit-out", str(bit_out),
    )
    blob = bit_out.read_bytes()
    assert int.from_bytes(blob[:8], "little") == 11

    payload = run_json("pset", "complete", "--terms", str(terms), "--bound", "10")
    assert payload["result"]["covered"] is False

    payload = run_json("pset", "brown", "--terms", str(terms))
    assert payload["result"]["brown"] is False


def test_pset_witness():
    payload = run_json("pset", "witness", "--m", "2")
    assert payload["result"]["alpha"] == "1/20"
    assert [line["n_i"] for line in payload["result"]["lines"]] == [5, 7, 9]


def main_traced(path, argv):
    """main(argv) with stdout written to `path`: its exit code and the peak it allocated."""
    with open(path, "w", encoding="utf-8") as handle, redirect_stdout(handle):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return code, peak


def test_witness_json_is_written_in_less_memory_than_its_bytes(tmp_path):
    # 13 MB of JSON at m = 3000; json.dumps of the whole report peaked at 36 MB
    path = tmp_path / "witness.json"
    code, peak = main_traced(path, ["pset", "witness", "--m", "3000"])
    assert code == 0
    size = path.stat().st_size
    assert size > 13_000_000
    assert peak < size
    with unlimited_int_digits():
        assert json.loads(path.read_bytes())["result"]["lines"][-1]["target"] == 2 ** 3000


def test_witness_table_is_written_in_less_memory_than_its_bytes(tmp_path):
    # 19 MB of table at m = 3000; holding every cell string to size the columns peaked at 22 MB
    path = tmp_path / "witness.table"
    code, peak = main_traced(path, ["pset", "witness", "--m", "3000", "--format", "table"])
    assert code == 0
    size = path.stat().st_size
    assert size > 19_000_000
    assert peak < size
    with open(path, encoding="utf-8") as handle:
        assert next(handle).startswith("# format=table")
        assert len(handle.readlines()) == 3001 + 6  # one row per i, a header row and 5 fields


@pytest.mark.parametrize(
    "argv, least",
    [(["thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", "9998"], 18_000_000),
     (["seq", "gen", "--gamma", "195/64", "--n", "3000"], 2_000_000)],
    ids=["thm2_verify", "seq_gen"],
)
def test_large_json_report_is_written_in_less_memory_than_its_bytes(tmp_path, argv, least):
    # json.dumps of the whole report peaked at 3.8 (thm2 verify) and 2.7 (seq gen) times its bytes
    path = tmp_path / "report.json"
    code, peak = main_traced(path, argv)
    assert code == 0
    size = path.stat().st_size
    assert size > least
    assert peak < size


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_thm2_verify_holds_none_of_its_rows(tmp_path, fmt):
    # 18.8 (JSON) to 35.8 MB (table) out; holding every row and, for table
    # and CSV, its to_json form peaked at 15.9, 33.3 and 33.3 MiB
    path = tmp_path / "report"
    code, peak = main_traced(path, ["thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", "9998",
                                    "--format", fmt])
    assert code == 0
    assert path.stat().st_size > 18_000_000
    assert peak < 8 * 2**20


def test_theorem1_verify_converts_its_lines_a_slice_at_a_time(tmp_path):
    # 1.9 MB of JSON; a slice at a time peaked at 2.6 MiB, converting the
    # whole result before writing it at 6.2 MiB
    path = tmp_path / "verify.json"
    code, peak = main_traced(path, ["theorem1", "verify", "--cert", str(INPUTS / "cert_ell15.json"),
                                    "--max-m", "20000"])
    assert code == 0
    assert path.stat().st_size > 1_800_000
    assert peak < 4 * 2**20


def test_sieve_peak_stays_small(tmp_path):
    # 13 kB of JSON; the sieve and its values peaked at 0.9-1.6 MiB
    code, peak = main_traced(tmp_path / "sieve.json", ["sieve", "--limit", "1000000", "--r", "2"])
    assert code == 0
    assert peak < 4 * 2**20


# the benchmark's enumerate workload's sparse list for seed 1: 24,745 runs at bound 130,000
SPARSE = [3, 5, 9, 14, 24, 49, 86, 177, 385, 649, 1427, 2458, 4732, 7914, 16782, 32568, 49865]


def test_pset_compute_peak_stays_small(tmp_path):
    # 0.25 MB of JSON; holding the runs and their JSON form peaked at 4.4-5.0
    # MiB, reading them from a view 0.9 MiB
    terms = tmp_path / "sparse.txt"
    terms.write_text("".join(f"{t}\n" for t in SPARSE))
    path = tmp_path / "pset.json"
    code, peak = main_traced(path, ["pset", "compute", "--terms", str(terms), "--bound", "130000"])
    assert code == 0
    assert path.stat().st_size > 240_000
    assert peak < 2 * 2**20


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_witness_peak_stays_small(tmp_path, fmt):
    # 13 (JSON) and 19 MB (table) out; a table of the decimal powers
    # 2^0..2^(2m+2) peaked at 4.0-4.1 MiB, the n_i alone take ~1 MiB
    code, peak = main_traced(tmp_path / "witness", ["pset", "witness", "--m", "2997", "--format", fmt])
    assert code == 0
    assert peak < 2 * 2**20


class LineBuilt(Exception):
    pass


def test_witness_m_past_the_cap_exits_2_before_any_line(monkeypatch):
    def isqrt(n):  # a witness takes its two roots before it builds any line
        raise LineBuilt(n)

    monkeypatch.setattr(pset, "math", types.SimpleNamespace(isqrt=isqrt))
    cap = pset.WITNESS_M_CAP
    assert cap >= 3_000  # the benchmark's enumerate workload runs m up to 3,000
    with pytest.raises(LineBuilt):
        pset.verify_squares_witness(cap)  # the cap itself passes the check
    proc = run_cli("pset", "witness", "--m", str(cap + 1))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == f"error: m must lie in 0..WITNESS_M_CAP = {cap}, got {cap + 1}\n".encode()


def test_table_format_has_header_and_rows():
    proc = run_cli(
        "thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", "12",
        "--format", "table",
    )
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert text.startswith("# ")
    assert "K=300" not in text  # header reflects the effective K
    assert "K=12" in text
    assert "max_floor_next" in text


def test_missing_terms_file_is_config_error():
    proc = run_cli("pset", "compute", "--terms", "/nonexistent", "--bound", "10")
    assert proc.returncode == 2


def test_entry_point_smoke():
    proc = subprocess.run(CLI + ["classify", "--n", "72"], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == run_cli("classify", "--n", "72").stdout


def test_closed_pipe_does_not_traceback():
    command = " ".join(CLI) + " thm2 verify --gamma 3/2 --j 3 --K 300 --format table | head -3"
    proc = subprocess.run(
        ["sh", "-c", command], capture_output=True, timeout=120
    )
    assert proc.returncode == 0  # head's status
    assert b"Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == 3


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["classify", "--n", "72"],
    ["thm2", "verify", "--gamma", "3/2", "--j", "1", "--K", "10"],  # a failed verification
])
def test_unwritable_stdout_exits_2_with_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(CLI + argv, stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: cannot write the report: [Errno 28] ")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


# --- in-process: results past 4300 digits, malformed certificates ------------

def is_squarefull(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p:
                return False
            while n % p == 0:
                n //= p
        p += 1
    return n == 1  # a leftover factor > 1 is a prime dividing n once


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_series_partial_sum_past_4300_digits(fmt):
    squarefull = []
    n = 0
    while len(squarefull) < 300:
        n += 1
        if is_squarefull(n):
            squarefull.append(n)
    partial = sum(Fraction(a, 2**a) for a in squarefull)
    digits = format(math.floor(partial * 2**500) % 2**500, "0500b")
    args = build_parser().parse_args(
        ["series", "--kind", "squarefull", "--terms", "300", "--digits", "500", "--format", fmt]
    )
    limit = sys.get_int_max_str_digits()
    out = io.StringIO()
    assert dispatch(args, out) == 0
    assert sys.get_int_max_str_digits() == limit  # lifted while rendering only
    with unlimited_int_digits():
        assert len(str(partial.denominator)) > 5000
        partial_sum = f"{partial.numerator}/{partial.denominator}"
    lines = out.getvalue().splitlines()
    if fmt == "json":
        assert json.loads(lines[0])["result"] == {
            "base": 2, "digits": digits, "partial_sum": partial_sum,
        }
    else:
        sep = ": " if fmt == "table" else ","
        assert lines[1:] == [f"base{sep}2", f"digits{sep}{digits}", f"partial_sum{sep}{partial_sum}"]


@pytest.mark.parametrize(
    "payload",
    [
        '{"r": 2, "ell": 6, "case": "III", "witness": {}}',
        "[1, 2]",
        '{"r": 2, "ell": 4, "case": "II", "k": 2, "witness": {"p": "2"}}',
        "[" * 100_000 + "]" * 100_000,  # json.load raises RecursionError
        # valid Case I certificates but for a falsy non-object witness
        *(f'{{"r": 2, "ell": 2, "case": "I", "k": 10, "witness": {w}}}'
          for w in ("0", "false", '""', "[]")),
    ],
    ids=["missing_k", "not_an_object", "string_witness", "nested_100000_deep",
         "witness_0", "witness_false", "witness_empty_string", "witness_empty_list"],
)
def test_malformed_certificate_exits_2_with_one_line(tmp_path, capsys, payload):
    cert = tmp_path / "cert.json"
    cert.write_text(payload)
    assert main(["theorem1", "validate", "--cert", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: certificate")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["1e-100000000", "1e100000000", "1e-4301"])
def test_huge_decimal_exponent_exits_2_without_building_the_power(alpha):
    # 10^100000000 alone would need ~40 MiB; the exponent is rejected first
    tracemalloc.start()
    try:
        proc = run_cli("seq", "salpha", "--alpha", alpha, "--n", "5")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proc.returncode == 2
    assert b"--alpha" in proc.stderr
    assert peak < 8 * 2**20


def test_largest_allowed_decimal_exponent_is_exact():
    payload = run_json("seq", "salpha", "--alpha", "1e-4300", "--n", "3")
    with unlimited_int_digits():
        assert payload["result"]["alpha"] == f"1/{10 ** 4300}"
    assert payload["result"]["values"] == [0, 0, 0]


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_gamma_past_4300_digits_exits_2_with_one_line(fmt):
    # the domain check runs before any term is built; its message prints
    # all 4,301 digits of 10^4300 under a lifted, then restored, limit
    limit = sys.get_int_max_str_digits()
    proc = run_cli("thm2", "verify", "--gamma", "1e4300", "--j", "3", "--K", "3", "--format", fmt)
    assert sys.get_int_max_str_digits() == limit
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: gamma must lie in [3/2, 2), got 1" + b"0" * 4300 + b"\n"


TINY = "1/1" + "0" * 4300  # 1e-4300, whose denominator has 4,301 digits


@pytest.mark.parametrize("argv, message", [
    (["seq", "gen", "--gamma", "1e-4300", "--n", "3"], f"gamma must exceed 1, got {TINY}"),
    (["seq", "ratio", "--gamma", "1e-4300", "--n", "3"], f"gamma must exceed 1, got {TINY}"),
    (["thm2", "scan", "--gamma", "1e-4300", "--t1", "1", "--t2", "2"],
     f"gamma must exceed 1, got {TINY}"),
    (["seq", "salpha", "--alpha=-1e-4300", "--n", "3"], f"alpha must be positive, got -{TINY}"),
], ids=["seq_gen", "seq_ratio", "thm2_scan", "seq_salpha"])
def test_a_rational_past_4300_digits_is_named_in_its_message(argv, message):
    limit = sys.get_int_max_str_digits()
    assert run_cli(*argv) == Run(2, b"", f"error: {message}\n".encode())
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ["seq", "gen", "--kind", "file", "--n", "10000"],
    ["thm2", "scan", "--kind", "file", "--t1", "1", "--t2", "2", "--n", "10000"],
], ids=["seq_gen", "thm2_scan"])
def test_a_misordered_term_file_is_named_by_its_first_bad_term(tmp_path, argv):
    path = tmp_path / "terms.txt"  # its last line, the only bad one, is the last the run reads
    path.write_text("".join(f"{7 * n}\n" for n in range(1, 10_000)) + "5\n")
    proc = run_cli(*argv, "--file", str(path))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (b"error: explicit terms must be strictly increasing positive, "
                           b"got term 10000 = 5\n")
    assert len(proc.stderr) < 200


def test_a_seq_run_reads_no_line_past_those_it_uses(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("1\n# a comment\n\n2\n3\nnot a number\n")
    argv = ("seq", "gen", "--kind", "file", "--file", str(path), "--n")
    assert run_json(*argv, "3")["result"]["values"] == [1, 2, 3]
    assert run_cli(*argv, "4") == Run(
        2, b"", b"error: invalid literal for int() with base 10: 'not a number'\n")


@pytest.mark.parametrize("action", ["compute --bound 10", "complete --bound 10", "brown"])
def test_a_pset_term_file_past_terms_cap_exits_2_naming_it(tmp_path, action):
    cap = pset.TERMS_CAP
    path = tmp_path / "terms.txt"
    path.write_text("".join(f"{n}\n" for n in range(1, cap + 1)))
    argv = ("pset", *action.split(), "--terms", str(path))
    assert run_cli(*argv).returncode == 0
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"# a comment\n\n{cap + 1}\nnot a number\n")  # the last line is never read
    assert run_cli(*argv) == Run(
        2, b"", f"error: the term file holds more than TERMS_CAP = {cap} terms\n".encode())


TOO_LONG = (f"error: the term file has a line longer than TERM_LINE_CAP = "
            f"{cli.TERM_LINE_CAP} characters\n").encode()


def test_a_term_file_line_may_hold_term_line_cap_characters(tmp_path):
    cap = cli.TERM_LINE_CAP
    path = tmp_path / "terms.txt"
    widest = "_".join("9" * 4300)  # the widest term int() accepts
    path.write_text(f"{' ' * (cap - 1)}1\n{widest}\n")  # the first line is cap characters
    argv = ("seq", "gen", "--kind", "file", "--file", str(path), "--n", "2")
    assert len(widest) < cap
    assert run_json(*argv)["result"]["values"] == [1, 10 ** 4300 - 1]
    for text in (f"{' ' * cap}1\n", f"{' ' * cap}1", f"1\n{' ' * cap}1\n2\n"):
        path.write_text(text)
        assert run_cli(*argv) == Run(2, b"", TOO_LONG)


@pytest.mark.parametrize("argv", [["seq", "gen", "--kind", "file", "--n", "3", "--file"],
                                  ["pset", "brown", "--terms"]], ids=["seq_gen", "pset_brown"])
def test_a_long_term_file_line_is_rejected_before_it_is_held(tmp_path, capsys, argv):
    # one 20,000,000-digit line: read whole, it peaked at 53 MiB of max-RSS
    path = tmp_path / "terms.txt"
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(20):
            handle.write("9" * 10 ** 6)
    code, peak = main_traced(tmp_path / "out", [*argv, str(path)])
    assert (code, capsys.readouterr().err.encode()) == (2, TOO_LONG)
    assert peak < 4 * 2**20


def test_render_table_reads_a_view_twice():
    # once to size the columns and once to write them, and the first row once more
    from floorfull import render
    from floorfull.view import View

    built = []

    def row(i):  # counts how often a row is built
        built.append(i)
        return {"i": i, "square": i * i}

    out = io.StringIO()
    render.render_table({"rows": View(300, lambda: map(row, range(300)))}, out)
    assert len(built) == 2 * 300 + 1
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["rows:", "  i    square", "  0    0     "]
    assert lines[-1] == "  299  89401 "


def run_parser(parser, argv):
    """run_cli with `parser` in place of the one `main` builds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dispatch(parser.parse_args(argv), out)
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue().encode(), err.getvalue().encode())


# main reads a well-formed argv from the COMMANDS table and leaves the rest,
# help among it, to argparse; either way it acts as the full argparse tree
@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_pruned_parser_matches_the_full_tree(argv):
    run = run_cli(*argv)
    assert run == run_parser(build_parser(), argv)
    assert run.returncode in (0, 2)
    if "--help" in argv:
        assert run.returncode == 0 and run.stdout.startswith(b"usage: floorfull"), argv


def _subparsers(parser) -> dict:
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def test_build_parser_builds_every_leaf():
    groups = _subparsers(build_parser())
    assert list(groups) == list(cli._GROUPS)
    for path, _, _, flags in cli.COMMANDS:
        group, _, action = path.partition(" ")
        leaf = _subparsers(groups[group])[action] if action else groups[group]
        assert {name for name, *_ in (*flags, *cli._COMMON)} <= leaf._option_string_actions.keys()


def test_every_row_names_a_handler_and_every_handler_a_row():
    # a row names its handler by string, so a typo would otherwise surface only when it runs
    named = set()
    for path, _, handler, _ in cli.COMMANDS:
        commands = importlib.import_module(f"floorfull._cmd_{cli._GROUPS[path.partition(' ')[0]][0]}")
        assert callable(getattr(commands, handler, None)), f"{path}: no {commands.__name__}.{handler}"
        named.add((commands.__name__, handler))
    defined = set()
    for info in pkgutil.iter_modules(floorfull.__path__, "floorfull."):
        if info.name.startswith("floorfull._cmd_"):
            module = importlib.import_module(info.name)
            defined |= {(info.name, name) for name in vars(module) if name.startswith("_run_")}
    assert defined == named
