"""Command-line entry point.

Every subcommand prints a self-describing report: the effective resource
caps and defaults (K, M, s_max, j_max, seed, caps) appear in every header,
and identical invocations produce byte-identical machine-readable output.

Exit codes: 0 success / verification passed; 1 verification failure
(a skip violation, certificate verification failure, witness failure, or
failed validation); 2 usage or configuration error (bad flags, resource
cap exceeded, bounded search exhausted).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import classify as _classify
from . import certificates as _cert
from . import floorseq as _seq
from . import pset as _pset
from . import skipverify as _skip
from .errors import (
    NotFoundWithinBound,
    SkipViolation,
    VerificationFailure,
    WitnessFailure,
)
from .rationals import parse_rational, rat_str

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

ENV_SIEVE_CAP = "FLOORFULL_SIEVE_CAP"
ENV_BITMAP_CAP = "FLOORFULL_BITMAP_CAP"
ENV_SEQ_CAP = "FLOORFULL_SEQ_CAP"


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    format: str
    seed: int
    sieve_cap: int
    bitmap_cap: int
    seq_cap: int
    K: int
    M: int
    s_max: int
    j_max: int


def _env_cap(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _build_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand_path,
        format=args.format,
        seed=args.seed,
        sieve_cap=_env_cap(ENV_SIEVE_CAP, _classify.SIEVE_CAP_DEFAULT),
        bitmap_cap=_env_cap(ENV_BITMAP_CAP, _pset.BITMAP_CAP_DEFAULT),
        seq_cap=_env_cap(ENV_SEQ_CAP, _seq.DEFAULT_SEQ_CAP),
        K=getattr(args, "K", _skip.DEFAULT_K_MAX),
        M=getattr(args, "max_m", _cert.DEFAULT_MAX_M),
        s_max=getattr(args, "s_max", _cert.DEFAULT_S_MAX),
        j_max=getattr(args, "j_max", _skip.DEFAULT_J_MAX),
    )


# ---------------------------------------------------------------------------
# rendering

_JSON_SCALARS = (str, int, type(None))  # bool is an int


def to_json(value):
    """The JSON form of a result; the only place that decides it.

    Scalars pass through, tuples become lists, dicts and lists are
    converted item by item, and a Fraction becomes "num/den".  A
    `to_json_dict` method wins; otherwise a dataclass becomes a dict of its
    fields in declaration order (the table and CSV formats print keys in
    that order); anything else is a TypeError.  Scalar list items skip the
    recursive call, because bitmap runs and sieve values can number in the
    hundreds of thousands.
    """
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [item if isinstance(item, _JSON_SCALARS) else to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: to_json(inner) for key, inner in value.items()}
    if isinstance(value, Fraction):
        return rat_str(value)
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}


def _emit_json(config: dict, result, out) -> None:
    payload = {"config": config, "result": result}
    out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _config_header(config: dict) -> str:
    return "# " + " ".join(f"{key}={config[key]}" for key in sorted(config))


def _emit_table(config: dict, result, out) -> None:
    out.write(_config_header(config) + "\n")
    _render_table(result, out, indent="")


def _render_table(value, out, indent: str) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)):
                out.write(f"{indent}{key}:\n")
                _render_table(inner, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {inner}\n")
    elif isinstance(value, list):
        if value and all(isinstance(item, dict) for item in value):
            keys = list(value[0].keys())
            widths = {
                k: max(len(str(k)), *(len(_cell(item.get(k))) for item in value))
                for k in keys
            }
            out.write(indent + "  ".join(str(k).ljust(widths[k]) for k in keys) + "\n")
            for item in value:
                out.write(
                    indent
                    + "  ".join(_cell(item.get(k)).ljust(widths[k]) for k in keys)
                    + "\n"
                )
        else:
            for item in value:
                out.write(f"{indent}{item}\n")
    else:
        out.write(f"{indent}{value}\n")


def _cell(value) -> str:
    if isinstance(value, dict) and value.get("closed_open"):
        return f"[{value['lo']}, {value['hi']})"
    return str(value)


def _emit_csv(config: dict, result, out) -> None:
    out.write(_config_header(config) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(result, dict) and "values" in result and isinstance(result["values"], list):
        for item in result["values"]:
            writer.writerow([item])
    elif isinstance(result, list) and result and all(isinstance(i, dict) for i in result):
        keys = list(result[0].keys())
        writer.writerow(keys)
        for item in result:
            writer.writerow([_cell(item.get(k)) for k in keys])
    elif isinstance(result, list):
        for item in result:
            writer.writerow([item])
    else:
        _flat_csv(result, writer, prefix="")


def _flat_csv(value, writer, prefix: str) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(inner, (dict, list)):
                _flat_csv(inner, writer, path)
            else:
                writer.writerow([path, inner])
    elif isinstance(value, list):
        for idx, inner in enumerate(value):
            _flat_csv(inner, writer, f"{prefix}[{idx}]")
    else:
        writer.writerow([prefix, value])


def _emit(config: RunConfig, result, out) -> None:
    """Render `result` in the configured format.

    Exact results may have more than the default 4300 decimal digits, so
    the int-to-str limit is lifted while rendering only; input parsing
    keeps it.  Interpreters older than 3.10.7 have no limit to lift.
    """
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        config_json, result_json = to_json(config), to_json(result)
        if config.format == "json":
            _emit_json(config_json, result_json, out)
        elif config.format == "csv":
            _emit_csv(config_json, result_json, out)
        else:
            _emit_table(config_json, result_json, out)
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


# ---------------------------------------------------------------------------
# helpers

def _spec_from_args(args: argparse.Namespace) -> _seq.SeqSpec:
    kind = args.kind
    if kind == "pow32":
        return _seq.FloorPower(getattr(args, "gamma", None) or Fraction(3, 2))
    if kind == "squares":
        return _seq.Squares()
    if kind == "file":
        if not getattr(args, "file", None):
            raise ValueError("--file is required with --kind file")
        return _seq.Explicit(tuple(_read_int_file(args.file)))
    raise ValueError(f"unknown sequence kind {kind!r}")


def _read_int_file(path: str) -> list[int]:
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                values.append(int(line))
    return values


def _series_terms(args: argparse.Namespace):
    kind = args.kind
    if kind == "squarefree":
        return _classify.r_free_integers(2)
    if kind == "squarefull":
        return _classify.r_full_integers(2)
    if kind == "rfree":
        return _classify.r_free_integers(args.r)
    if kind == "rfull":
        return _classify.r_full_integers(args.r)
    if kind == "squares":
        return (n * n for n in range(1, args.terms + 1))
    raise ValueError(f"unknown series kind {kind!r}")


# ---------------------------------------------------------------------------
# handlers (each returns a result for `to_json` or raises)

def _run_classify(args, config: RunConfig):
    fact = _classify.factorize(args.n, rho_seed=config.seed)
    return {
        "n": args.n,
        "r": args.r,
        "factorization": fact.factors,
        "is_r_free": _classify.is_r_free(args.n, args.r),
        "is_r_full": _classify.is_r_full(args.n, args.r),
    }


def _run_sieve(args, config: RunConfig):
    if args.method == "a2b3":
        if args.r != 2:
            raise ValueError("--method a2b3 only enumerates 2-full integers")
        values = _classify.squarefull_via_a2b3(args.limit, cap=config.sieve_cap)
    else:
        values = _classify.r_full_up_to(args.limit, args.r, cap=config.sieve_cap)
    return {"limit": args.limit, "r": args.r, "method": args.method, "values": values}


def _run_series(args, config: RunConfig):
    terms = _series_terms(args)
    digits, partial = _classify.series_digits(terms, args.ell, args.terms, args.digits)
    return {"base": args.ell, "digits": digits, "partial_sum": partial}


def _run_theorem1_construct(args, config: RunConfig):
    return _cert.construct_certificate(args.r, args.ell, s_max=config.s_max)


def _load_certificate(path: str) -> _cert.Certificate:
    with open(path, "r", encoding="utf-8") as handle:
        return _cert.Certificate.from_json_dict(json.load(handle))


def _run_theorem1_validate(args, config: RunConfig):
    result = _cert.validate_certificate(_load_certificate(args.cert))
    if not result.ok:
        raise VerificationFailure(f"certificate invalid: {result.reason}", m=0)
    return result


def _run_theorem1_verify(args, config: RunConfig):
    return _cert.verify_non_rfull(_load_certificate(args.cert), max_m=config.M)


def _grid_cell(cell: tuple[int, int, int, int]) -> dict:
    r, ell, s_max, max_m = cell
    cert = _cert.construct_certificate(r, ell, s_max=s_max)
    ok = bool(_cert.validate_certificate(cert))
    report = _cert.verify_non_rfull(cert, max_m=max_m)
    return {
        "r": r,
        "ell": ell,
        "case": cert.case,
        "k": cert.k,
        "valid": ok,
        "verified_to": report.max_m,
    }


def _run_theorem1_grid(args, config: RunConfig):
    cells = [
        (r, ell, config.s_max, config.M)
        for r in range(args.r_min, args.r_max + 1)
        for ell in range(args.ell_min, args.ell_max + 1)
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 pays for it
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_grid_cell, cells, chunksize=8))
    else:
        rows = [_grid_cell(cell) for cell in cells]
    return {"rows": rows, "all_passed": all(row["valid"] for row in rows)}


def _run_seq_gen(args, config: RunConfig):
    spec = _spec_from_args(args)
    values = _seq.generate_terms(spec, args.n, cap=config.seq_cap)
    return {"n": args.n, "values": values}


def _run_seq_salpha(args, config: RunConfig):
    spec = _spec_from_args(args)
    values = _seq.s_alpha(spec, args.alpha, args.n, cap=config.seq_cap)
    return {"alpha": args.alpha, "n": args.n, "values": values}


def _run_seq_preimage(args, config: RunConfig):
    return _seq.preimage_interval(args.t, args.s)


def _run_seq_ratio(args, config: RunConfig):
    spec = _spec_from_args(args)
    return _seq.ratio_condition_check(spec, args.n, cap=config.seq_cap)


def _run_thm2_verify(args, config: RunConfig):
    return _skip.verify_skip_all_alpha(args.gamma, args.j, config.K, cap=config.seq_cap)


def _run_thm2_symbolic(args, config: RunConfig):
    return _skip.symbolic_condition_check(args.gamma, args.j)


def _run_thm2_gamma_search(args, config: RunConfig):
    j = _skip.gamma_exception_search(args.gamma, config.j_max)
    return {
        "gamma": args.gamma,
        "j": j,
        "rule": "smallest j passing derived sufficient conditions",
    }


def _run_thm2_scan(args, config: RunConfig):
    spec = _spec_from_args(args)
    hits = _skip.counterexample_scan(spec, args.t1, args.t2, args.n, cap=config.seq_cap)
    return {
        "t1": args.t1,
        "t2": args.t2,
        "n_max": args.n,
        "intervals": hits,
        "empty": not hits,
    }


def _run_pset_compute(args, config: RunConfig):
    terms = _read_int_file(args.terms)
    bitmap = _pset.compute_pset(terms, args.bound, cap=config.bitmap_cap)
    if args.bit_out:
        with open(args.bit_out, "wb") as handle:
            handle.write(bitmap.to_bit_bytes())
    return bitmap.to_rle_json_dict()


def _run_pset_complete(args, config: RunConfig):
    terms = _read_int_file(args.terms)
    threshold = _pset.complete_up_to(terms, args.bound, cap=config.bitmap_cap)
    return {"bound": args.bound, "threshold": threshold, "covered": threshold is not None}


def _run_pset_brown(args, config: RunConfig):
    terms = _read_int_file(args.terms)
    return {"terms": len(terms), "brown": _pset.brown_criterion(terms)}


def _run_pset_witness(args, config: RunConfig):
    return _pset.verify_squares_witness(args.m)


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=_classify.DEFAULT_RHO_SEED)


def _add_seq_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=("pow32", "squares", "file"), default="pow32")
    parser.add_argument("--gamma", type=parse_rational, default=None)
    parser.add_argument("--file", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorfull",
        description="Exact verification toolkit: shifted-power certificates, "
        "floor-scaled sequences, subset-sum representation sets.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p = top.add_parser("classify", help="factor n and classify r-free / r-full")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    _add_common(p)
    p.set_defaults(handler=_run_classify, subcommand_path="classify")

    p = top.add_parser("sieve", help="enumerate r-full integers up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--method", choices=("spf", "a2b3"), default="spf")
    _add_common(p)
    p.set_defaults(handler=_run_sieve, subcommand_path="sieve")

    p = top.add_parser("series", help="base-ell digits of sum(a * ell^-a)")
    p.add_argument(
        "--kind",
        choices=("squarefree", "squarefull", "rfree", "rfull", "squares"),
        default="squarefree",
    )
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--digits", type=int, default=40)
    _add_common(p)
    p.set_defaults(handler=_run_series, subcommand_path="series")

    t1 = top.add_parser("theorem1", help="shifted-power non-r-full certificates")
    t1sub = t1.add_subparsers(dest="action", required=True)

    p = t1sub.add_parser("construct")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s-max", dest="s_max", type=int, default=_cert.DEFAULT_S_MAX)
    _add_common(p)
    p.set_defaults(handler=_run_theorem1_construct, subcommand_path="theorem1 construct")

    p = t1sub.add_parser("validate")
    p.add_argument("--cert", required=True)
    _add_common(p)
    p.set_defaults(handler=_run_theorem1_validate, subcommand_path="theorem1 validate")

    p = t1sub.add_parser("verify")
    p.add_argument("--cert", required=True)
    p.add_argument("--max-m", dest="max_m", type=int, default=_cert.DEFAULT_MAX_M)
    _add_common(p)
    p.set_defaults(handler=_run_theorem1_verify, subcommand_path="theorem1 verify")

    p = t1sub.add_parser("grid")
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, default=5)
    p.add_argument("--ell-min", type=int, default=2)
    p.add_argument("--ell-max", type=int, default=50)
    p.add_argument("--max-m", dest="max_m", type=int, default=_cert.DEFAULT_MAX_M)
    p.add_argument("--s-max", dest="s_max", type=int, default=_cert.DEFAULT_S_MAX)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=_run_theorem1_grid, subcommand_path="theorem1 grid")

    sq = top.add_parser("seq", help="sequence generation and floor scaling")
    sqsub = sq.add_subparsers(dest="action", required=True)

    p = sqsub.add_parser("gen")
    _add_seq_spec_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_seq_gen, subcommand_path="seq gen")

    p = sqsub.add_parser("salpha")
    _add_seq_spec_flags(p)
    p.add_argument("--alpha", type=parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_seq_salpha, subcommand_path="seq salpha")

    p = sqsub.add_parser("preimage")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_seq_preimage, subcommand_path="seq preimage")

    p = sqsub.add_parser("ratio")
    _add_seq_spec_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_seq_ratio, subcommand_path="seq ratio")

    t2 = top.add_parser("thm2", help="skip-argument verification and scans")
    t2sub = t2.add_subparsers(dest="action", required=True)

    p = t2sub.add_parser("verify")
    p.add_argument("--gamma", type=parse_rational, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--K", dest="K", type=int, default=_skip.DEFAULT_K_MAX)
    _add_common(p)
    p.set_defaults(handler=_run_thm2_verify, subcommand_path="thm2 verify")

    p = t2sub.add_parser("symbolic")
    p.add_argument("--gamma", type=parse_rational, required=True)
    p.add_argument("--j", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_thm2_symbolic, subcommand_path="thm2 symbolic")

    p = t2sub.add_parser("gamma-search")
    p.add_argument("--gamma", type=parse_rational, required=True)
    p.add_argument("--j-max", dest="j_max", type=int, default=_skip.DEFAULT_J_MAX)
    _add_common(p)
    p.set_defaults(handler=_run_thm2_gamma_search, subcommand_path="thm2 gamma-search")

    p = t2sub.add_parser("scan")
    _add_seq_spec_flags(p)
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--n", type=int, default=_skip.DEFAULT_K_MAX)
    _add_common(p)
    p.set_defaults(handler=_run_thm2_scan, subcommand_path="thm2 scan")

    ps = top.add_parser("pset", help="subset-sum representation sets")
    pssub = ps.add_subparsers(dest="action", required=True)

    p = pssub.add_parser("compute")
    p.add_argument("--terms", required=True, help="file with one integer per line")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--bit-out", default=None, help="also write the raw bitmap here")
    _add_common(p)
    p.set_defaults(handler=_run_pset_compute, subcommand_path="pset compute")

    p = pssub.add_parser("complete")
    p.add_argument("--terms", required=True)
    p.add_argument("--bound", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_pset_complete, subcommand_path="pset complete")

    p = pssub.add_parser("brown")
    p.add_argument("--terms", required=True)
    _add_common(p)
    p.set_defaults(handler=_run_pset_brown, subcommand_path="pset brown")

    p = pssub.add_parser("witness")
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_run_pset_witness, subcommand_path="pset witness")

    return parser


def dispatch(args: argparse.Namespace, out) -> int:
    config = _build_config(args)
    try:
        result = args.handler(args, config)
    except (SkipViolation,) as exc:
        if exc.report is not None:
            _emit(config, exc.report, out)
        out.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION_FAILED
    except (VerificationFailure, WitnessFailure) as exc:
        out.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION_FAILED
    except NotFoundWithinBound as exc:
        sys.stderr.write(f"bounded search exhausted: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    _emit(config, result, out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args, sys.stdout)
    except BrokenPipeError:
        # downstream closed early (e.g. piped into head); mimic SIGPIPE exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
