"""The `pset` handlers, named by their `cli.COMMANDS` rows."""

from .cli import _read_int_file


def _run_pset_compute(pset, args):
    terms = _read_int_file(args.terms, pset.TERMS_CAP, "TERMS_CAP")
    bitmap = pset.compute_pset(terms, args.bound)
    if args.bit_out:
        with open(args.bit_out, "wb") as handle:
            handle.write(bitmap.to_bit_bytes())
    return bitmap


def _run_pset_complete(pset, args):
    terms = _read_int_file(args.terms, pset.TERMS_CAP, "TERMS_CAP")
    threshold = pset.complete_up_to(terms, args.bound)
    return {"bound": args.bound, "threshold": threshold, "covered": threshold is not None}


def _run_pset_brown(pset, args):
    terms = _read_int_file(args.terms, pset.TERMS_CAP, "TERMS_CAP")
    return {"terms": len(terms), "brown": pset.brown_criterion(terms)}


def _run_pset_witness(pset, args):
    return pset.verify_squares_witness(args.m)
