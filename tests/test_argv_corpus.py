"""Malformed and extreme argv for every COMMANDS row, run in-process through `main`.

Each argv names one subcommand, gives its required flags always and each
optional flag half the time, and offers `bogus` among the choices of a
choice flag.  Every other value comes from one fixed alphabet of
malformed numbers, paths and files.  Whatever the argv asks for, the run
exits 0, 1 or 2 and never raises.  An exit 2 that `main` returns, not
argparse, writes exactly one stderr line, and exits 0 and 1 write none.
"""

import io
import json
import os
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings, strategies as st

from floorfull import cli

GOLDEN_INPUTS = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
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
def argvs(draw):
    path, _, _, flags = draw(st.sampled_from(cli.COMMANDS))
    argv = path.split()
    for flag in (*flags, *cli._COMMON):
        argv += draw(_flag_values(*flag))
    return argv


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
