"""Run one floorfull command with spans recorded around its public functions.

    python perfbench/tracewrap.py SPAN_FILE INVOCATION_ID ARG...

floorfull is traced from the outside: this script imports `floorfull.cli`,
replaces each public function and method named in SPANNED (every module
binding of it, so calls through `from .classify import factorize` are seen
too) with a wrapper that records a span, and then calls
`floorfull.cli.main(ARG...)`. Spans (name, start, end, parent) and counts
stay in memory and are written to SPAN_FILE, with INVOCATION_ID, as one JSON
object when the command ends. The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) bindings; "Class.method" patches a method.
SPANNED = {
    "cli.build_parser": [("cli", "build_parser")],
    "cli.dispatch": [("cli", "dispatch")],
    "classify.factorize": [("classify", "factorize"), ("certificates", "factorize")],
    "classify.is_prime": [("classify", "is_prime"), ("certificates", "is_prime")],
    "classify.is_r_full": [("classify", "is_r_full"), ("certificates", "is_r_full")],
    "classify.is_r_free": [("classify", "is_r_free")],
    "classify.r_full_up_to": [("classify", "r_full_up_to")],
    "classify.squarefull_via_a2b3": [("classify", "squarefull_via_a2b3")],
    "classify.series_digits": [("classify", "series_digits")],
    "certificates.construct": [("certificates", "construct_certificate")],
    "certificates.dirichlet_search": [("certificates", "dirichlet_search")],
    "certificates.validate": [("certificates", "validate_certificate")],
    "certificates.verify": [("certificates", "verify_non_rfull")],
    "floorseq.generate_terms": [("floorseq", "generate_terms"), ("skipverify", "generate_terms")],
    "floorseq.member_alpha_set": [("floorseq", "member_alpha_set"), ("skipverify", "member_alpha_set")],
    "floorseq.s_alpha": [("floorseq", "s_alpha")],
    "floorseq.ratio_condition_check": [("floorseq", "ratio_condition_check")],
    "skipverify.verify": [("skipverify", "verify_skip_all_alpha")],
    "skipverify.symbolic": [("skipverify", "symbolic_condition_check")],
    "skipverify.gamma_search": [("skipverify", "gamma_exception_search")],
    "skipverify.scan": [("skipverify", "counterexample_scan")],
    "pset.compute": [("pset", "compute_pset")],
    "pset.complete": [("pset", "complete_up_to")],
    "pset.runs": [("pset", "PSetBitmap.runs")],
    "pset.to_bit_bytes": [("pset", "PSetBitmap.to_bit_bytes")],
    "pset.witness": [("pset", "verify_squares_witness")],
}

# Hot leaf calls: counted, keyed by the innermost open span, but no span.
COUNTED = {
    "skipverify.extrema": [("skipverify", "interval_extrema_of_floor")],
    "rationals.intersect": [("rationals", "RatInterval.intersect")],
}


def _report_of(result, exc):
    return exc.report if exc is not None else result


# span name -> f(args, result, exception) -> {counter suffix: amount}
WORK = {
    "classify.r_full_up_to": lambda a, r, e: {"values": len(r)},
    "certificates.verify": lambda a, r, e: {
        "lines": len(r.lines),
        "cross_checked": sum(line.cross_checked for line in r.lines),
    },
    "floorseq.generate_terms": lambda a, r, e: {"terms": len(r)},
    "floorseq.member_alpha_set": lambda a, r, e: {"intervals": len(r)},
    "skipverify.verify": lambda a, r, e: {
        "rows": len(_report_of(r, e).rows),
        "skipped": len(_report_of(r, e).skipped),
    },
    "skipverify.scan": lambda a, r, e: {"hits": len(r)},
    "pset.compute": lambda a, r, e: {
        "terms": len(a[0]),
        "terms_over_bound": sum(1 for t in a[0] if t > a[1]),
    },
    "pset.runs": lambda a, r, e: {"count": len(r)},
    "pset.to_bit_bytes": lambda a, r, e: {"bytes": len(r)},
    "pset.witness": lambda a, r, e: {"lines": len(r.lines)},
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.open = []         # indices of spans not yet ended
        self.counts = Counter()

    def span(self, name, fn, work=None):
        spans, open_ = self.spans, self.open

        def traced(*args, **kwargs):
            record = [name, perf_counter(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as caught:
                exc = caught
                raise
            finally:
                record[2] = perf_counter()
                open_.pop()
                if work is not None and (exc is None or getattr(exc, "report", None)):
                    for key, amount in work(args, result, exc).items():
                        self.counts[f"{name}.{key}"] += amount

        return traced

    def count(self, name, fn):
        spans, open_, counts = self.spans, self.open, self.counts

        def counted(*args, **kwargs):
            counts[(name, spans[open_[-1]][0] if open_ else "")] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path, invocation, extra):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "invocation": invocation,
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "counts": {k if isinstance(k, str) else "@".join(k): v for k, v in self.counts.items()},
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _patch(package, bindings, wrap):
    originals = {}
    for module_name, attr in bindings:
        owner = getattr(package, module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        # one wrapper per original, shared by every binding of it
        if id(original) not in originals:
            originals[id(original)] = wrap(original)
        setattr(owner, attr, originals[id(original)])


def main(argv: list[str]) -> int:
    span_file, invocation, command = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = perf_counter()
    import floorfull.cli  # the import itself is the cli.import span
    tracer.spans.append(["cli.import", start, perf_counter(), -1])
    import floorfull

    factorize = floorfull.classify.factorize
    for name, bindings in SPANNED.items():
        _patch(floorfull, bindings, lambda fn, n=name: tracer.span(n, fn, WORK.get(n)))
    for name, bindings in COUNTED.items():
        _patch(floorfull, bindings, lambda fn, n=name: tracer.count(n, fn))
    main_span = tracer.span("cli.main", floorfull.cli.main)
    code = 1
    try:
        code = main_span(command)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        info = factorize.cache_info()
        tracer.dump(span_file, invocation, {"factorize_cache_hits": info.hits})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
