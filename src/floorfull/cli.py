"""Command-line entry point.

Every subcommand prints a self-describing report, and identical
invocations produce byte-identical machine-readable output.  A run's
settings are its parsed flags and the constants of `defaults`, which no
run can change.  Each COMMANDS row lists the settings its run reads: the
bound flags it declares, the caps it checks (SIEVE_CAP, BITMAP_CAP,
SEQ_CAP), s_max=S_MAX, the budget of the Case III search, where the run
constructs certificates, and seed=0, the fixed Brent-rho seed
DEFAULT_RHO_SEED, where the run can factor.  `_header` names the
subcommand, the format and those settings.

Exit codes: 0 success / verification passed; 1 verification failure
(a skip violation, certificate verification failure, witness failure, or
failed validation); 2 usage or configuration error (bad flags, resource
cap exceeded, bounded search exhausted, a report stdout cannot take).

A cold run builds, imports and compiles only what its subcommand runs.
`parse_args` reads a well-formed argv from the COMMANDS rows; argparse,
gettext and locale load only for help, usage errors and the spellings
only argparse accepts.  Each group names the library module its handlers
use, and the handlers live apart, in one command module per library
module, `_cmd_<module>`, where each COMMANDS row names its handler.
`dispatch` imports the row's library module and command module and hands
the first to the handler, so a run compiles no other group's handlers.
`rationals` loads only with a run that parses or prints a rational, the
sieve and series code of `enumeration` only with `sieve` and `series`,
`fractions` only with code that builds a Fraction, and the table and CSV
renderers of `render` only for those formats.  `to_json` alone
decides a result's JSON form, and `write_json` streams it, so no run
holds its whole text: it hands lists and the lazy `view.View`s of pset
and skipverify reports, such as a `thm2 verify` report's rows, to json's
C encoder a slice at a time, so no row or cell costs a Python call.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import os
import sys
import types

from .defaults import (
    BITMAP_CAP,
    DEFAULT_K_MAX,
    DEFAULT_MAX_M,
    DEFAULT_RHO_SEED,
    S_MAX,
    SEQ_CAP,
    SIEVE_CAP,
    unlimited_int_digits,
)
from .errors import NotFoundWithinBound, VerificationFailure

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

_CONSTANTS = {  # the settings a header names that no flag sets
    "seed": DEFAULT_RHO_SEED,
    "sieve_cap": SIEVE_CAP,
    "bitmap_cap": BITMAP_CAP,
    "seq_cap": SEQ_CAP,
    "s_max": S_MAX,
}


def _header(args) -> dict:
    """The subcommand, the format and the settings its COMMANDS row lists."""
    header = {"subcommand": args.subcommand_path, "format": args.format}
    for name in args.settings:
        value = _CONSTANTS[name] if name in _CONSTANTS else getattr(args, name)
        header["M" if name == "max_m" else name] = value
    return header


# ---------------------------------------------------------------------------
# rendering

_JSON_SCALARS = (str, int, type(None))  # bool is an int


def to_json(value):
    """The JSON form of a result; the only place that decides it.

    Scalars pass through, lists and plain tuples become lists and dicts
    stay dicts, converted item by item, and a Fraction becomes "num/den".
    A record is a NamedTuple, a tuple subclass, so it skips the tuple
    branch and becomes the form of its `_members`, in their order (the
    table and CSV formats print keys in that order).  A lazy `view.View`,
    whose items are in JSON form, and an exact Decimal, whose str() is the
    digits of the int it equals, pass through; `write_json` writes the
    squares witness report, which holds both, without building this form
    whole.  Anything else is a TypeError.  Scalar list items skip the
    recursive call, because bitmap runs and sieve values can number in the
    hundreds of thousands.
    """
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, list) or type(value) is tuple:
        return [item if isinstance(item, _JSON_SCALARS) else to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(inner) for key, inner in value.items()}
    fractions = sys.modules.get("fractions")  # no Fraction exists until it loads
    if fractions is not None and isinstance(value, fractions.Fraction):
        from .rationals import rat_str
        return rat_str(value)
    if hasattr(value, "_fields"):
        return to_json(_members(value))
    if _in_json_form(value):
        return value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _members(record) -> dict:
    """A record's members by name: its `to_json_dict()` if it has one, else its `_asdict()`."""
    return record.to_json_dict() if hasattr(record, "to_json_dict") else record._asdict()


def _in_json_form(value) -> bool:
    """Whether `value` is a lazy view or an exact Decimal; neither exists until its module loads."""
    view, decimal = sys.modules.get(f"{__package__}.view"), sys.modules.get("decimal")
    return bool(view and isinstance(value, view.View) or decimal and type(value) is decimal.Decimal)


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Items of a list or lazy view that `write_json` reads and encodes at once.
# One encode per item doubled a large sieve's time.  A slice's rows are
# held with their text, so `thm2 verify --K 9998` peaked 0.85 MiB higher in
# max-RSS with 64 rows a slice than with 32, which encode as fast.
_SLICE = 32


def _text(value) -> str | None:
    """The JSON text of what `write_json` does not walk, else None; an int, a bool, None
    and an exact Decimal, which the encoder refuses, skip it, as its set-up costs more."""
    decimal = sys.modules.get("decimal")  # no Decimal exists until it loads
    if type(value) is int or decimal and type(value) is decimal.Decimal:
        return str(value)
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (dict, list, tuple)) or _in_json_form(value):  # a record or a view
        return None
    return _ENCODE(to_json(value))


def write_json(value, write) -> None:
    """Write json.dumps(to_json(value), sort_keys=True, separators=(",", ":")) through `write`.

    The one JSON writer; it walks `value`, never holding the whole form or
    text, and `to_json` decides that form.  A dict, or a record's
    `_members`, goes in sorted key order, in one write up to each member it
    walks, so a dict of scalars is one write.  A list, tuple or lazy view,
    such as a `thm2 verify` report's rows, is read `_SLICE` items at a
    time, and json's C encoder writes each slice, a view's as it is read and
    a list's or tuple's through `to_json`.  The encoder refuses an exact
    Decimal and a nested view: from the first slice it refuses, such as the
    squares witness's first, the items are walked one by one.
    """
    text = _text(value)
    if text is not None:
        write(text)
    elif isinstance(value, dict) or hasattr(value, "_fields"):
        members = value if isinstance(value, dict) else _members(value)
        held = "{"
        for i, key in enumerate(sorted(members)):
            text = _text(members[key])
            held += ("," if i else "") + _ENCODE(key) + ":" + (text or "")
            if text is None:  # write what is held, then walk the member
                write(held)
                write_json(members[key], write)
                held = ""
        write(held + "}")
    else:
        items, comma = iter(value), ""
        write("[")
        while chunk := list(itertools.islice(items, _SLICE)):
            try:
                text = _ENCODE(to_json(chunk) if isinstance(value, (list, tuple)) else chunk)[1:-1]
            except TypeError:  # an exact Decimal or a nested view
                for item in itertools.chain(chunk, items):
                    write(comma)
                    write_json(item, write)
                    comma = ","
                break
            write(comma)
            write(text)  # comma + text would copy the slice's text once more
            comma = ","
        write("]")


def _emit(args, result, out) -> None:
    """Render `result` in the format of `args`, with no digit limit."""
    with unlimited_int_digits():
        if args.format == "json":
            write_json({"config": _header(args), "result": result}, out.write)
            out.write("\n")
            return
        config = to_json(_header(args))
        result = to_json(result)
        out.write("# " + " ".join(f"{key}={config[key]}" for key in sorted(config)) + "\n")
        from . import render  # only --format table or csv loads it
        if args.format == "csv":
            render.emit_csv(result, out)
        else:
            render.render_table(result, out)


# ---------------------------------------------------------------------------
# helpers the handlers of more than one group share

def _unread_flag(kind: str, flag: str, value) -> None:
    if value is not None:
        raise ValueError(f"{flag} is not read with --kind {kind}")


# Most characters of a term-file line, its newline not counted.  A term
# int() accepts has at most 4,300 digits: 8,600 characters with a "_"
# between each two.
TERM_LINE_CAP = 2 ** 16


def _term_lines(handle):
    """A term file's lines, read in blocks: a line of more than TERM_LINE_CAP
    characters raises before it is held whole, and a line costs no Python
    call to read, as it would through `readline`."""
    tail = ""
    while block := handle.read(io.DEFAULT_BUFFER_SIZE):
        lines = (tail + block).split("\n")
        tail = lines.pop()  # only lines[0] and tail can span blocks
        if len(tail) > TERM_LINE_CAP or lines and len(lines[0]) > TERM_LINE_CAP:
            raise ValueError(f"the term file has a line longer than "
                             f"TERM_LINE_CAP = {TERM_LINE_CAP} characters")
        yield from lines
    yield tail


def _read_int_file(path: str, most: int, cap: str = "") -> list[int]:
    """The integers of a term file's first `most` lines that are not blank or `#`.

    The file is read no further.  With `cap`, the name of the constant
    that `most` is, one more such line is an error instead.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = (line.strip() for line in _term_lines(handle))
        numbers = (int(line) for line in lines if line and not line.startswith("#"))
        values = list(itertools.islice(numbers, most + 1 if cap else most))
    if len(values) > most:
        raise ValueError(f"the term file holds more than {cap} = {most} terms")
    return values


# ---------------------------------------------------------------------------
# parser: one row per subcommand, (path, settings, handler, flags).  The
# settings are what the report header names: the bound flags the run reads,
# the caps it checks, and "seed" where it can factor.  The handler is the
# name of a function in the group's command module, `_cmd_<module>`, which
# takes the library module and the parsed flags and returns a result for
# `to_json` or raises.  A flag is (name, type or tuple of choices,
# default[, help]); type None keeps the string, and a default of ... marks
# the flag required.  Every subcommand also takes the _COMMON flags.

def parse_rational(text: str):
    """`rationals.parse_rational`, imported on the first call, so that only a run
    given a rational loads `rationals`; a usage error names this type."""
    from . import rationals
    return rationals.parse_rational(text)



_COMMON = (("--format", ("table", "json", "csv"), "json"),)
_SEQ_SPEC = (
    ("--kind", ("pow32", "squares", "file"), "pow32"),
    ("--gamma", parse_rational, None),   # 3/2 when --kind pow32 reads it
    ("--file", None, None),
)
_GROUPS = {  # first word of a path: (library module its handlers use, help)
    "classify": ("classify", "factor n and classify r-free / r-full"),
    "sieve": ("classify", "enumerate r-full integers up to a limit"),
    "series": ("classify", "base-ell digits of sum(a * ell^-a)"),
    "theorem1": ("certificates", "shifted-power non-r-full certificates"),
    "seq": ("floorseq", "sequence generation and floor scaling"),
    "thm2": ("skipverify", "skip-argument verification and scans"),
    "pset": ("pset", "subset-sum representation sets"),
}
COMMANDS = (
    ("classify", ("seed",), "_run_classify", (("--n", int, ...), ("--r", int, 2))),
    ("sieve", ("sieve_cap",), "_run_sieve", (
        ("--limit", int, ...), ("--r", int, 2), ("--method", ("spf", "a2b3"), "spf"),
    )),
    ("series", ("seed",), "_run_series", (
        ("--kind", ("squarefree", "squarefull", "rfree", "rfull", "squares"), "squarefree"),
        ("--r", int, None), ("--ell", int, 2), ("--terms", int, 10), ("--digits", int, 40),
    )),
    ("theorem1 construct", ("s_max", "seed"), "_run_theorem1_construct", (
        ("--r", int, ...), ("--ell", int, ...),
    )),
    ("theorem1 validate", ("seed",), "_run_theorem1_validate", (("--cert", None, ...),)),
    ("theorem1 verify", ("max_m", "seed"), "_run_theorem1_verify", (
        ("--cert", None, ...), ("--max-m", int, DEFAULT_MAX_M),
    )),
    ("theorem1 grid", ("max_m", "s_max", "seed"), "_run_theorem1_grid", (
        ("--r-min", int, 2), ("--r-max", int, 5), ("--ell-min", int, 2), ("--ell-max", int, 50),
        ("--max-m", int, DEFAULT_MAX_M), ("--jobs", int, 1),
    )),
    ("seq gen", ("seq_cap",), "_run_seq_gen", (*_SEQ_SPEC, ("--n", int, ...))),
    ("seq salpha", ("seq_cap",), "_run_seq_salpha", (
        *_SEQ_SPEC, ("--alpha", parse_rational, ...), ("--n", int, ...),
    )),
    ("seq preimage", (), "_run_seq_preimage", (("--t", int, ...), ("--s", int, ...))),
    ("seq ratio", ("seq_cap",), "_run_seq_ratio", (*_SEQ_SPEC, ("--n", int, ...))),
    ("thm2 verify", ("K", "seq_cap"), "_run_thm2_verify", (
        ("--gamma", parse_rational, ...), ("--j", int, ...), ("--K", int, DEFAULT_K_MAX),
    )),
    ("thm2 symbolic", (), "_run_thm2_symbolic", (
        ("--gamma", parse_rational, ...), ("--j", int, ...),
    )),
    ("thm2 gamma-search", (), "_run_thm2_gamma_search", (
        ("--gamma", parse_rational, ...),
    )),
    ("thm2 scan", ("seq_cap",), "_run_thm2_scan", (
        *_SEQ_SPEC, ("--t1", int, ...), ("--t2", int, ...), ("--n", int, DEFAULT_K_MAX),
    )),
    ("pset compute", ("bitmap_cap",), "_run_pset_compute", (
        ("--terms", None, ..., "file with one integer per line"),
        ("--bound", int, ...),
        ("--bit-out", None, None, "also write the raw bitmap here"),
    )),
    ("pset complete", ("bitmap_cap",), "_run_pset_complete", (
        ("--terms", None, ...), ("--bound", int, ...),
    )),
    ("pset brown", (), "_run_pset_brown", (("--terms", None, ...),)),
    ("pset witness", (), "_run_pset_witness", (("--m", int, ...),)),
)


def parse_args(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace of `build_parser().parse_args(argv)`, read from the
    COMMANDS row that argv's path words name, for exact `--flag value` pairs
    in any order (a repeated flag's last value wins) whose values convert or
    are among the choices and that give every required flag.  Else None,
    for argparse: help, usage errors, `--flag=value`, abbreviated flags, a
    value that begins with "-", "--"."""
    row = next((row for row in COMMANDS if argv[:row[0].count(" ") + 1] == row[0].split()), None)
    if row is None or (len(argv) - row[0].count(" ") - 1) % 2:
        return None
    path, settings, handler, flags = row
    words = argv[path.count(" ") + 1:]
    kinds, given = {name: kind for name, kind, *_ in (*flags, *_COMMON)}, {}
    for name, value in zip(words[::2], words[1::2]):
        kind = kinds.get(name, ())  # an unknown flag takes no value
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        try:
            given[name] = kind(value) if callable(kind) else value
        except (TypeError, ValueError):
            return None
    group, _, action = path.partition(" ")
    args = types.SimpleNamespace(command=group, **({"action": action} if action else {}),
                                 handler=handler, module=_GROUPS[group][0],
                                 subcommand_path=path, settings=settings)
    for name, _, default, *_ in (*flags, *_COMMON):
        if default is ... and name not in given:
            return None
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return args


def build_parser():
    """The COMMANDS parser tree, for help, usage errors and the argv
    spellings that `parse_args` leaves to argparse."""
    import argparse  # a well-formed run never loads it, nor gettext and locale

    parser = argparse.ArgumentParser(
        prog="floorfull",
        description="Exact verification toolkit: shifted-power certificates, "
        "floor-scaled sequences, subset-sum representation sets.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    groups = {group: top.add_parser(group, help=text) for group, (_, text) in _GROUPS.items()}
    actions = {}
    for path, settings, handler, flags in COMMANDS:
        group, _, action = path.partition(" ")
        module = _GROUPS[group][0]
        sub = groups[group]
        if action:
            if group not in actions:
                actions[group] = sub.add_subparsers(dest="action", required=True)
            sub = actions[group].add_parser(action)
        for name, kind, default, *help_ in (*flags, *_COMMON):
            options = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            if default is ...:
                options["required"] = True
            else:
                options["default"] = default
            sub.add_argument(name, help=help_[0] if help_ else None, **options)
        sub.set_defaults(handler=handler, module=module, subcommand_path=path, settings=settings)
    return parser


def dispatch(args, out) -> int:
    module = importlib.import_module(f"{__package__}.{args.module}")
    handler = getattr(importlib.import_module(f"{__package__}._cmd_{args.module}"), args.handler)
    try:
        result = handler(module, args)
    except VerificationFailure as exc:
        if exc.report is not None:
            _emit(args, exc.report, out)
        out.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION_FAILED
    except NotFoundWithinBound as exc:
        sys.stderr.write(f"bounded search exhausted: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    _emit(args, result, out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv) or build_parser().parse_args(argv)
    try:
        code = dispatch(args, sys.stdout)
        sys.stdout.flush()  # a failed write surfaces here, not at interpreter exit
        return code
    except OSError as exc:
        # stdout cannot take the report; point it at devnull so the flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # downstream closed early (e.g. piped into head); mimic SIGPIPE exit
        sys.stderr.write(f"error: cannot write the report: {exc}\n")
        return EXIT_USAGE
