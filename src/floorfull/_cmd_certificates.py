"""The `theorem1` handlers, named by their `cli.COMMANDS` rows."""

import json

# Largest number of (r, ell) cells `theorem1 grid` runs; the cell list is
# built before the first cell runs.
GRID_CELL_CAP = 2 ** 16


def _load_certificate(cert, path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return cert.Certificate.from_json_dict(json.load(handle))
        except RecursionError:  # json.load on a deeply nested array or object
            raise ValueError("certificate JSON is nested too deeply") from None


def _run_theorem1_construct(cert, args):
    return cert.construct_certificate(args.r, args.ell)


def _run_theorem1_validate(cert, args):
    cert.validate_certificate(_load_certificate(cert, args.cert))  # raises unless valid
    return {"ok": True, "reason": None}


def _run_theorem1_verify(cert, args):
    return cert.verify_non_rfull(_load_certificate(cert, args.cert), max_m=args.max_m)


def _run_theorem1_grid(cert, args):
    if args.jobs != 1:
        raise ValueError(f"--jobs must be 1, the grid runs serially; got {args.jobs}")
    if args.r_min > args.r_max or args.ell_min > args.ell_max:
        raise ValueError(f"the grid is empty: r in [{args.r_min}, {args.r_max}], "
                         f"ell in [{args.ell_min}, {args.ell_max}]")
    n_cells = (args.r_max - args.r_min + 1) * (args.ell_max - args.ell_min + 1)
    if n_cells > GRID_CELL_CAP:
        raise ValueError(f"the grid has {n_cells} cells, above GRID_CELL_CAP = {GRID_CELL_CAP}")
    # A certificate proves "not 2-full" (a prime of exponent 1), so "not r-full" for every r >= 2;
    # check_non_rfull never reads r and validate_certificate asks r >= 2: r_min proves every row.
    proved = []
    for ell in range(args.ell_min, args.ell_max + 1):
        proved.append(cert.construct_certificate(args.r_min, ell))
        cert.check_non_rfull(proved[-1], args.max_m)  # raises unless valid and verified
    rows = [{"r": r, "ell": c.ell, "case": c.case, "k": c.k, "valid": True, "verified_to": args.max_m}
            for r in range(args.r_min, args.r_max + 1) for c in proved]
    return {"rows": rows, "all_passed": True}
