"""Malformed and extreme argv for every COMMANDS row, run in-process through `main`.

Each argv names one subcommand, gives its required flags always and each
optional flag half the time, and offers `bogus` among the choices of a
choice flag.  Every other value comes from one fixed alphabet of
malformed numbers, paths and files.  Whatever the argv asks for, the run
exits 0, 1 or 2 and never raises.  An exit 2 that `main` returns, not
argparse, writes exactly one stderr line, and exits 0 and 1 write none.

argparse is the oracle of `cli.parse_args`: wherever the table parse
accepts an argv, with its flag pairs in any order and some given twice,
its namespace is argparse's.  And every argv the benchmark's workloads
run is one the table parse accepts.
"""

import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from floorfull import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_INPUTS = ROOT / "tests" / "golden" / "inputs"
GOLDEN_CERTS = {path.name: path.read_bytes() for path in sorted(GOLDEN_INPUTS.glob("cert_*.json"))}

# Files the alphabet names by relative path.  Each example writes them
# afresh into its own working directory, so a `pset compute --bit-out` that
# overwrites one touches neither the repository nor a later example.
FILES = {
    "empty": b"",
    "binary": bytes(range(256)),
    "negative_terms.txt": b"3\n-5\n7\n",
    "list.json": b"[1, 2, 3]",
    "nested.json": b"[" * 100_000,
    "bool_witness.json": json.dumps(
        {"r": 2, "ell": 12, "case": "II", "k": 2, "witness": {"p": True}}
    ).encode(),
    **GOLDEN_CERTS,
}
# Written only into the directory of an example that names it, and not
# drawn: 2,000,000 increasing terms (15 MB), which `seq gen --n 3` and
# `pset brown` once read whole (1.2 s and 107 MiB each); and one line of
# 20,000,000 digits (20 MB), which both once read whole (53 MiB) before
# int() refused it.
LONG_FILE = "long_terms.txt"
LONG_LINE = "long_line.txt"
ALPHABET = (
    "", "-1", "0", "1", "3", "abc", "1/0", "nan", "1e999999", "3/2", "7/5", "5/2",
    "12345678901234567890", *FILES, "dir",
    os.path.join("no_such_dir", "missing"),  # stays missing: --bit-out cannot make it
)


def _flag_values(name, kind, default, *_):
    choices = (*kind, "bogus") if isinstance(kind, tuple) else ALPHABET
    pair = st.sampled_from(choices).map(lambda value: [name, value])
    return pair if default is ... else st.one_of(st.just([]), pair)


@st.composite
def argvs(draw, shuffled=False):
    """A row's path words and its flag pairs; `shuffled`, in any order and
    with up to two more pairs, which may repeat a flag."""
    path, _, _, flags = draw(st.sampled_from(cli.COMMANDS))
    flags = (*flags, *cli._COMMON)
    pairs = [draw(_flag_values(*flag)) for flag in flags]
    if shuffled:
        more = st.sampled_from(flags).flatmap(lambda flag: _flag_values(*flag))
        pairs = draw(st.permutations(pairs + draw(st.lists(more, max_size=2))))
    return path.split() + [word for pair in pairs for word in pair]


def run_main(argv):
    """(exit code, whether argparse exited, stderr) of main(argv), run in a
    fresh directory that holds the FILES and an empty directory `dir`."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        for name, content in FILES.items():
            pathlib.Path(cwd, name).write_bytes(content)
        pathlib.Path(cwd, "dir").mkdir()
        if LONG_FILE in argv:
            with open(pathlib.Path(cwd, LONG_FILE), "w", encoding="utf-8") as handle:
                handle.writelines(f"{n}\n" for n in range(1, 2_000_001))
        if LONG_LINE in argv:
            with open(pathlib.Path(cwd, LONG_LINE), "w", encoding="utf-8") as handle:
                handle.writelines("9" * 10**6 for _ in range(20))
        os.chdir(cwd)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code, by_argparse = cli.main(argv), False
                except SystemExit as exc:
                    code, by_argparse = exc.code, True
        finally:
            os.chdir(previous)
    return code, by_argparse, err.getvalue()


def golden_certs_now():
    return {name: (GOLDEN_INPUTS / name).read_bytes() for name in GOLDEN_CERTS}


@given(argv=argvs())
@settings(max_examples=600, deadline=None)
# each once ran without bound: the first built 2**(r - 1) square by square,
# the second searched ever larger limits for a second r-full integer
@example(argv=["sieve", "--limit", "3", "--r", "12345678901234567890"])
@example(argv=["series", "--kind", "rfull", "--r", "12345678901234567890", "--terms", "3"])
# each once ran in time that grew without bound in n: the first printed ever
# larger terms, the second carried ever larger powers q^n of a 4,300-digit q
@example(argv=["seq", "gen", "--gamma", "1000000", "--n", "2000"])
@example(argv=["thm2", "verify", "--gamma", f"{15 * 10**4298 + 1}/{10**4299}", "--j", "3"])
# argparse reads a value that begins with "-", and main rejects it in one line
@example(argv=["classify", "--n", "-5"])
# each read only as far as it uses: the first n lines, at most TERMS_CAP + 1 terms
@example(argv=["seq", "gen", "--kind", "file", "--file", LONG_FILE, "--n", "3"])
@example(argv=["pset", "brown", "--terms", LONG_FILE])
# each holds at most TERM_LINE_CAP characters and one block of a line
@example(argv=["seq", "gen", "--kind", "file", "--file", LONG_LINE, "--n", "3"])
@example(argv=["pset", "brown", "--terms", LONG_LINE])
# writes its bitmap over the working copy of a golden certificate's name
@example(argv=["pset", "compute", "--terms", "empty", "--bound", "3",
               "--bit-out", "cert_ell12.json"])
def test_every_argv_exits_0_1_or_2_with_at_most_one_error_line(argv):
    code, by_argparse, stderr = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr, argv
    if code == 2 and not by_argparse:
        assert stderr.endswith("\n") and stderr.count("\n") == 1, (argv, stderr)
    if code in (0, 1):
        assert stderr == "", (argv, stderr)
    assert golden_certs_now() == GOLDEN_CERTS, argv


# argvs that argparse reads: help, usage errors and the spellings only it
# accepts, and a few well-formed ones
PARSER_CORPUS = [
    [],
    ["--help"],
    ["-h", "thm2"],
    *([group, "--help"] for group in cli._GROUPS),
    *([*path.split(), "--help"] for path, *_ in cli.COMMANDS if " " in path),
    ["bogus"],
    ["thm2", "bogus"],
    ["classify", "--r", "3"],
    ["thm2", "verify", "--gamma", "3/2"],
    ["classify", "--n", "4", "--bogus", "1"],
    ["--", "thm2", "symbolic", "--gamma", "3/2", "--j", "3"],
    ["--format", "json", "classify", "--n", "4"],
    ["classify", "--n", "12", "--format", "table"],
    ["seq", "gen", "--n", "5"],
    ["classify", "--n=72"],
    ["sieve", "--lim", "1000"],  # an abbreviated flag
    ["classify", "--n", "-5"],
    ["classify", "--n", "8", "--r", "2", "--r", "3"],  # the last value wins
    ["classify", "--n", "4", "-h"],
]


def with_corpus(test):
    for argv in PARSER_CORPUS:
        test = example(argv=argv)(test)
    return test


@with_corpus
@given(argv=argvs(shuffled=True))
@settings(max_examples=1000, deadline=None)
def test_table_parse_matches_argparse(argv):
    args = cli.parse_args(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv)), argv


def test_every_benchmark_argv_takes_the_table_parse(tmp_path, monkeypatch):
    # perfbench/workloads.py, loaded read-only from its file: it imports its
    # sibling `oracles` through sys.path, and its dataclasses look their
    # module up in sys.modules; the monkeypatch undoes both
    spec = importlib.util.spec_from_file_location("workloads_under_test", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    digits = sys.get_int_max_str_digits()  # `build` lifts the limit
    try:
        spec.loader.exec_module(workloads)
        for name in workloads.BUILDERS:
            (tmp_path / name).mkdir()
            workload = workloads.build(name, 1, tmp_path / name)
            for invocation in [*workload.invocations, workload.probe]:
                assert cli.parse_args(invocation.argv) is not None, (name, invocation.argv)
    finally:
        sys.set_int_max_str_digits(digits)
        sys.modules.pop("oracles", None)
