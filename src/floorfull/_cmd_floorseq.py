"""The `seq` handlers, and the sequence spec that `seq` and `thm2 scan` read from flags."""

from fractions import Fraction

from . import floorseq
from .cli import _read_int_file, _unread_flag
from .defaults import SEQ_CAP


def _spec_from_args(args):
    kind = args.kind
    if kind != "pow32":
        _unread_flag(kind, "--gamma", args.gamma)
    if kind != "file":
        _unread_flag(kind, "--file", args.file)
    if kind == "pow32":
        return floorseq.FloorPower(Fraction(3, 2) if args.gamma is None else args.gamma)
    if kind == "squares":
        return floorseq.Squares()
    if not args.file:
        raise ValueError("--file is required with --kind file")
    # each run that takes a spec uses its first --n terms, and an --n past SEQ_CAP raises
    return floorseq.Explicit(tuple(_read_int_file(args.file, max(0, min(args.n, SEQ_CAP)))))


def _run_seq_gen(seq, args):
    values = seq.generate_terms(_spec_from_args(args), args.n)
    return {"n": args.n, "values": values}


def _run_seq_salpha(seq, args):
    values = seq.s_alpha(_spec_from_args(args), args.alpha, args.n)
    return {"alpha": args.alpha, "n": args.n, "values": values}


def _run_seq_preimage(seq, args):
    return seq.preimage_interval(args.t, args.s)


def _run_seq_ratio(seq, args):
    return seq.ratio_condition_check(_spec_from_args(args), args.n)
