"""Golden outputs: the CLI's stdout bytes and exit code for every subcommand.

Each case runs in-process through `build_parser().parse_args` and
`dispatch(args, out)` in all three formats, and must reproduce the bytes
and exit code recorded under tests/golden/ exactly.  Refactors of the
rendering or of the library must leave these files unchanged.

To record the goldens afresh (only for a deliberate output change):

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import io
import json
import pathlib
from collections import defaultdict

import pytest

from floorfull import certificates, classify, cli, floorseq, pset, skipverify
from floorfull.cli import build_parser, dispatch

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN_DIR / "inputs"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
FORMATS = ("json", "table", "csv")

CASES = {
    "classify": ["classify", "--n", "72"],
    "classify_r3": ["classify", "--n", "1000", "--r", "3"],
    "sieve": ["sieve", "--limit", "200"],
    "sieve_a2b3": ["sieve", "--limit", "200", "--method", "a2b3"],
    "series": ["series", "--kind", "squarefree", "--terms", "8", "--digits", "20"],
    "series_base12": ["series", "--kind", "squares", "--ell", "12", "--terms", "4", "--digits", "8"],
    "theorem1_construct": ["theorem1", "construct", "--r", "2", "--ell", "15"],
    "theorem1_construct_case_i": ["theorem1", "construct", "--r", "3", "--ell", "2"],
    "theorem1_validate": ["theorem1", "validate", "--cert", str(INPUTS / "cert_ell15.json")],
    "theorem1_validate_broken": [
        "theorem1", "validate", "--cert", str(INPUTS / "cert_broken_k.json"),
    ],
    "theorem1_verify": [
        "theorem1", "verify", "--cert", str(INPUTS / "cert_ell15.json"), "--max-m", "8",
    ],
    "theorem1_verify_case_ii": [
        "theorem1", "verify", "--cert", str(INPUTS / "cert_ell12.json"), "--max-m", "4",
    ],
    "theorem1_grid": [
        "theorem1", "grid", "--r-min", "2", "--r-max", "3",
        "--ell-min", "2", "--ell-max", "6", "--max-m", "5",
    ],
    "seq_gen": ["seq", "gen", "--n", "12"],
    "seq_salpha": ["seq", "salpha", "--alpha", "3/10", "--n", "10"],
    "seq_preimage": ["seq", "preimage", "--t", "8", "--s", "17"],
    "seq_ratio": ["seq", "ratio", "--kind", "squares", "--n", "20"],
    "thm2_verify": ["thm2", "verify", "--gamma", "3/2", "--j", "3", "--K", "12"],
    "thm2_verify_fails": ["thm2", "verify", "--gamma", "3/2", "--j", "1", "--K", "12"],
    "thm2_verify_large_denominators": ["thm2", "verify", "--gamma", "19/10", "--j", "6", "--K", "200"],
    "thm2_symbolic": ["thm2", "symbolic", "--gamma", "3/2", "--j", "3"],
    "thm2_symbolic_gamma_out_of_range": ["thm2", "symbolic", "--gamma", "7/5", "--j", "3"],
    "thm2_gamma_search": ["thm2", "gamma-search", "--gamma", "8/5"],
    "thm2_scan": ["thm2", "scan", "--t1", "8", "--t2", "16", "--n", "30"],
    "thm2_scan_hits": ["thm2", "scan", "--t1", "3", "--t2", "5", "--n", "12"],
    "thm2_scan_squares": ["thm2", "scan", "--kind", "squares", "--t1", "1", "--t2", "2", "--n", "20"],
    "pset_compute": ["pset", "compute", "--terms", str(INPUTS / "terms.txt"), "--bound", "20"],
    "pset_complete": ["pset", "complete", "--terms", str(INPUTS / "terms_brown.txt"), "--bound", "16"],
    "pset_brown": ["pset", "brown", "--terms", str(INPUTS / "terms_brown.txt")],
    "pset_witness": ["pset", "witness", "--m", "3"],
}


def run_case(argv: list[str], fmt: str) -> tuple[int, bytes]:
    args = build_parser().parse_args([*argv, "--format", fmt])
    out = io.StringIO()
    code = dispatch(args, out)
    return code, out.getvalue().encode("utf-8")


def golden_path(name: str, fmt: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.{fmt}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, fmt):
    expected_code = json.loads(EXIT_CODES.read_text())[f"{name}.{fmt}"]
    code, stdout = run_case(CASES[name], fmt)
    assert code == expected_code
    assert stdout == golden_path(name, fmt).read_bytes()


def test_every_subcommand_has_a_golden():
    parser = build_parser()
    covered = {parser.parse_args(argv).subcommand_path for argv in CASES.values()}
    assert covered == {
        "classify", "sieve", "series",
        "theorem1 construct", "theorem1 validate", "theorem1 verify", "theorem1 grid",
        "seq gen", "seq salpha", "seq preimage", "seq ratio",
        "thm2 verify", "thm2 symbolic", "thm2 gamma-search", "thm2 scan",
        "pset compute", "pset complete", "pset brown", "pset witness",
    }


# flags that no golden case reads: they matter only for another --kind
TERMS = str(INPUTS / "terms.txt")
OTHER_KINDS = [
    ["seq", "gen", "--kind", "file", "--file", TERMS, "--n", "3"],
    ["seq", "salpha", "--kind", "file", "--file", TERMS, "--alpha", "1/2", "--n", "3"],
    ["seq", "ratio", "--kind", "file", "--file", TERMS, "--n", "3"],
    ["seq", "ratio", "--n", "5"],
    ["thm2", "scan", "--kind", "file", "--file", TERMS, "--t1", "1", "--t2", "2", "--n", "3"],
    ["series", "--kind", "rfree", "--r", "3", "--terms", "4", "--digits", "8"],
    ["series", "--kind", "squarefull", "--terms", "4", "--digits", "8"],
]


class ReadLog(argparse.Namespace):
    """A parsed namespace that records each attribute read while `recording` is set."""

    recording = False

    @classmethod
    def recording_from(cls, argv):
        """The namespace a real run reads for argv, the table parse's, recording."""
        parsed = cli.parse_args(argv)
        assert parsed is not None, argv
        args = cls(**vars(parsed))
        args.reads, args.recording = set(), True
        return args

    def __getattribute__(self, name):
        get = super().__getattribute__
        if get("recording"):
            get("reads").add(name)
        return get(name)


def test_every_flag_is_read_beyond_the_header(monkeypatch):
    # a flag that only the report header echoes changes nothing a run does
    header = cli._header

    def unrecorded_header(args):
        args.recording = False
        try:
            return header(args)
        finally:
            args.recording = True

    monkeypatch.setattr(cli, "_header", unrecorded_header)
    reads = defaultdict(set)
    for argv in [*CASES.values(), *OTHER_KINDS]:
        args = ReadLog.recording_from(argv)
        dispatch(args, io.StringIO())
        args.recording = False
        reads[args.subcommand_path] |= args.reads
    unread = {}
    for path, _, _, flags in cli.COMMANDS:
        dests = {name[2:].replace("-", "_") for name, *_ in (*flags, *cli._COMMON)}
        if dests - reads[path]:
            unread[path] = sorted(dests - reads[path])
    assert unread == {}


# each constant a header can name, and the functions that read it; a
# module that imported a reader by name has its own binding to patch
CONSTANT_READERS = {
    "seed": [(classify, "_prime_powers")],
    "sieve_cap": [(classify, "r_full_up_to"), (classify, "squarefull_via_a2b3")],
    "seq_cap": [(floorseq, "generate_terms"), (skipverify, "generate_terms")],
    "bitmap_cap": [(pset, "compute_pset")],
    "s_max": [(certificates, "dirichlet_search")],
}


def test_every_header_setting_is_read_by_the_run(monkeypatch):
    # the reverse: each flag a header names is one its run reads, and each
    # constant (seed=0 and the caps) stands exactly on the subcommands whose
    # runs reach a function that reads it
    header = cli._header
    named, reads, reached, reaching = defaultdict(set), defaultdict(set), defaultdict(set), set()

    def unrecorded_header(args):
        args.recording = False
        try:
            config = header(args)
        finally:
            args.recording = True
        named[args.subcommand_path] |= config.keys()
        return config

    def recording(constant, function):
        def recorded(*args, **kwargs):
            reaching.add(constant)
            return function(*args, **kwargs)
        return recorded

    monkeypatch.setattr(cli, "_header", unrecorded_header)
    for constant, readers in CONSTANT_READERS.items():
        for module, name in readers:
            monkeypatch.setattr(module, name, recording(constant, getattr(module, name)))
    for argv in [*CASES.values(), *OTHER_KINDS]:
        args = ReadLog.recording_from(argv)
        classify.factorize.cache_clear()  # a cached factorization skips _prime_powers
        reaching.clear()
        dispatch(args, io.StringIO())
        args.recording = False
        reads[args.subcommand_path] |= args.reads
        reached[args.subcommand_path] |= reaching
    assert named.keys() == {path for path, *_ in cli.COMMANDS}
    attribute = {"M": "max_m"}
    unread = {}
    for path, keys in named.items():
        settings = {attribute.get(key, key) for key in keys} - {"subcommand", *CONSTANT_READERS}
        if settings - reads[path]:
            unread[path] = sorted(settings - reads[path])
    assert unread == {}
    assert {path: keys & CONSTANT_READERS.keys() for path, keys in named.items()} == {
        path: reached[path] for path in named
    }


def test_goldens_cover_every_exit_code():
    assert set(json.loads(EXIT_CODES.read_text()).values()) == {0, 1, 2}


def _record() -> None:
    codes = {}
    for name in sorted(CASES):
        for fmt in FORMATS:
            code, stdout = run_case(CASES[name], fmt)
            codes[f"{name}.{fmt}"] = code
            golden_path(name, fmt).write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
