"""The `classify`, `sieve` and `series` handlers, named by their `cli.COMMANDS` rows.

They call the sieve and series functions as `classify.<name>`, on the
module they are handed, so a wrapper bound there sees each call.
"""

from .cli import _unread_flag


def _series_terms(classify, args):
    kind = args.kind
    r = 2 if args.r is None else args.r
    if kind not in ("rfree", "rfull"):
        _unread_flag(kind, "--r", args.r)
    if kind in ("squarefree", "rfree"):
        return classify.r_free_integers(r)
    if kind in ("squarefull", "rfull"):
        if args.terms > 1 and r >= classify.SERIES_BITS_CAP.bit_length():  # 2nd term is 2^r
            raise ValueError(f"{args.ell} ** 2^{r} may exceed {classify.SERIES_BITS_CAP} bits")
        return classify.r_full_integers(r)
    return (n * n for n in range(1, args.terms + 1))


def _run_classify(classify, args):
    fact = classify.factorize(args.n)
    return {
        "n": args.n,
        "r": args.r,
        "factorization": fact.factors,
        "is_r_free": classify.is_r_free(args.n, args.r),
        "is_r_full": classify.is_r_full(args.n, args.r),
    }


def _run_sieve(classify, args):
    if args.method == "a2b3":
        if args.r != 2:
            raise ValueError("--method a2b3 only enumerates 2-full integers")
        values = classify.squarefull_via_a2b3(args.limit)
    else:
        values = classify.r_full_up_to(args.limit, args.r)
    return {"limit": args.limit, "r": args.r, "method": args.method, "values": values}


def _run_series(classify, args):
    terms = _series_terms(classify, args)
    digits, partial = classify.series_digits(terms, args.ell, args.terms, args.digits)
    return {"base": args.ell, "digits": digits, "partial_sum": partial}
