"""The `thm2` handlers, named by their `cli.COMMANDS` rows."""


def _run_thm2_verify(skip, args):
    return skip.verify_skip_all_alpha(args.gamma, args.j, args.K)


def _run_thm2_symbolic(skip, args):
    return skip.symbolic_condition_check(args.gamma, args.j)


def _run_thm2_gamma_search(skip, args):
    j = skip.gamma_exception_search(args.gamma)
    return {
        "gamma": args.gamma,
        "j": j,
        "rule": "smallest j passing derived sufficient conditions",
    }


def _run_thm2_scan(skip, args):
    from ._cmd_floorseq import _spec_from_args  # only a scan reads a sequence spec

    spec = _spec_from_args(args)
    hits = skip.counterexample_scan(spec, args.t1, args.t2, args.n)
    return {
        "t1": args.t1,
        "t2": args.t2,
        "n_max": args.n,
        "intervals": hits,
        "empty": not hits,
    }
