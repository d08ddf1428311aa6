"""Benchmark for floorfull: seeded batches of cold `python -m floorfull ...` runs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run from a checkout of the repository; the benchmark needs only the Python
standard library and `src/`. Each run builds the workload's invocations
from the seed (see workloads.py), then repeats the whole batch until
--seconds have passed. Invocations run one at a time, each in a fresh
interpreter: a closed loop with one client. Every invocation's exit code
and output are checked against answers computed by oracles.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s       median wall time of a cold `classify` on a small number, which
                pays interpreter start, the floorfull import and the lazy
                10^6 prime table; 4 probes before the first batch, 2 after each
  wall_s        wall time of the whole batch, run back to back: for each of
                its invocations the median over batches, summed
  op_p50_s      median invocation wall time, all batches pooled
  op_tail_s     invocation wall time at percentile 100*(1 - 10/(3N)) for a
                batch of N invocations, all batches pooled: a run makes at
                least 3 batches, so at least ten invocations lie beyond it.
                The percentile is fixed per workload, whatever the number of
                batches, and is printed with the value.
                Both percentiles are Harrell-Davis estimates.
  peak_rss_mib  median over batches of the largest child max-RSS (os.wait4)
--trace 1 alternates plain and traced batches and reports the per-layer
metrics, taken from spans that tracewrap.py records around floorfull's
public functions, plus trace.overhead_frac (traced / plain wall_s - 1).

Times are scaled against a yardstick. The machines this runs on are shared,
and the speed of a fresh Python process there drifts by tens of percent
over minutes. Before every third floorfull run the benchmark runs
calibrate.py, a fixed floorfull-independent mix of interpreter start,
rational and big-integer arithmetic, fresh memory and JSON; every time
above is multiplied by REFERENCE_S / (median wall time of the
REFERENCE_NEAREST calibrate.py runs around it). A change to floorfull moves the
scaled times as it moves the raw ones; drift of the machine mostly
cancels. The report prints the calibrate.py times and the raw batch time.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. `failed` counts every invocation whose exit code or output fails
its check, known defects included (failed_frac = failed / attempted, also
printed above it); `correct` is false only when a failure is not one of the
known defects listed in workloads.py.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES_FIRST = 4
SETUP_PROBES_AFTER = 2    # after each batch
MIN_BATCHES = 3
TAIL_BEYOND = 10
REFERENCE_EVERY = 3     # one calibrate.py run before every third floorfull run
REFERENCE_NEAREST = 4   # a time is scaled by the median of this many references around it
REFERENCE_S = 0.18      # scaled times are seconds on a machine where calibrate.py takes this


@dataclass
class Outcome:
    label: str
    wall_s: float
    rss_kib: int
    stdout_bytes: int
    seq: int                        # spawn number, to find the nearby references
    scale: float = 1.0              # REFERENCE_S / nearby calibrate.py wall time
    failure: Optional[str] = None   # why the check failed
    defect: Optional[str] = None    # the known defect the failure matches
    trace: Optional[dict] = None


class Runner:
    """Runs one floorfull process at a time (through spawner.py) and checks it."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        env = {k: v for k, v in os.environ.items() if not k.startswith("FLOORFULL_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.spawned = 0
        self.runs = 0
        self.references: list[tuple[int, float]] = []   # (spawn number, wall_s) of calibrate.py

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def _spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, dict]:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        self.spawned += 1
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        answer = json.loads(self.spawner.stdout.readline())
        code = os.waitstatus_to_exitcode(answer["status"])
        return code, out_path.read_bytes(), err_path.read_bytes(), answer

    def scale(self, seq: int) -> float:
        """REFERENCE_S over the median wall time of the references nearest to spawn `seq`."""
        at = bisect.bisect(self.references, (seq, 0.0))
        lo = max(0, min(at - REFERENCE_NEAREST // 2, len(self.references) - REFERENCE_NEAREST))
        nearby = self.references[lo : lo + REFERENCE_NEAREST]
        return REFERENCE_S / statistics.median(wall for _, wall in nearby)

    def run(self, inv: workloads.Invocation, traced: bool = False) -> Outcome:
        if self.runs % REFERENCE_EVERY == 0:
            code, _, err, answer = self._spawn([sys.executable, str(HERE / "calibrate.py")])
            if code != 0:
                raise RuntimeError(f"calibrate.py failed: {err[-300:]!r}")
            self.references.append((self.spawned, answer["wall_s"]))
        self.runs += 1
        span_path = self.tmp / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracewrap.py"), str(span_path), str(self.spawned + 1), *inv.argv]
        else:
            argv = [sys.executable, "-m", "floorfull", *inv.argv]
        code, out, err, answer = self._spawn(argv)
        outcome = Outcome(inv.label, answer["wall_s"], answer["maxrss_kib"], len(out), self.spawned)
        try:
            inv.check(code, out, err)
        except Exception as exc:   # any exception while judging counts as a failed invocation
            outcome.failure = f"{type(exc).__name__}: {exc}"[:300]
            if inv.defect_seen is not None and inv.defect_seen(code, out, err):
                outcome.defect = inv.defect
        if traced:
            outcome.trace = json.loads(span_path.read_text())
            span_path.unlink()
        return outcome


@dataclass
class Measurement:
    setup: list[Outcome] = field(default_factory=list)
    plain: list[list[Outcome]] = field(default_factory=list)
    traced: list[list[Outcome]] = field(default_factory=list)
    references: list[float] = field(default_factory=list)   # calibrate.py wall times

    def outcomes(self):
        yield from self.setup
        for batch in self.plain + self.traced:
            yield from batch


def measure(workload: workloads.Workload, runner: Runner, seconds: float, trace: bool,
            min_batches: int = MIN_BATCHES) -> Measurement:
    """Repeat the batch until `seconds` pass and `min_batches` plain batches ran.

    When tracing, plain and traced batches alternate and at least one of
    each runs.
    """
    got = Measurement()
    for _ in range(SETUP_PROBES_FIRST):
        got.setup.append(runner.run(workload.probe))
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(got.traced) < len(got.plain)
        batch = [runner.run(inv, traced) for inv in workload.invocations]
        (got.traced if traced else got.plain).append(batch)
        for _ in range(SETUP_PROBES_AFTER):
            got.setup.append(runner.run(workload.probe))
        enough = len(got.plain) >= min_batches and (not trace or got.traced)
        if perf_counter() >= deadline and enough:
            for outcome in got.outcomes():
                outcome.scale = runner.scale(outcome.seq)
            first = min(o.seq for o in got.outcomes())
            got.references = [wall for seq, wall in runner.references if seq >= first]
            return got


# ---------------------------------------------------------------------------
# metrics


def _spread(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass
class Stat:
    value: float
    unit: str
    n: int
    q1: Optional[float] = None
    q3: Optional[float] = None
    note: str = ""


def _timing(values: list[float], unit: str) -> Stat:
    return Stat(statistics.median(values), unit, len(values), *_spread(values))


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics, steadier from run to run than any single one of them."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n
    weights = [0.0] * n
    for k in range(steps):   # midpoint rule for the beta(a, b) mass of each ((i-1)/n, i/n]
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _batch_wall(batch: list[Outcome]) -> float:
    return sum(o.wall_s * o.scale for o in batch)


def end_to_end(got: Measurement, batch_size: int) -> dict[str, Stat]:
    pooled = [o.wall_s * o.scale for batch in got.plain for o in batch]
    share = 1 - TAIL_BEYOND / (MIN_BATCHES * batch_size)
    slots = zip(*got.plain)   # the same invocation in every batch
    wall = sum(statistics.median(o.wall_s * o.scale for o in slot) for slot in slots)
    walls = [_batch_wall(batch) for batch in got.plain]
    rss = [max(o.rss_kib for o in batch) / 1024 for batch in got.plain]
    return {
        "setup_s": _timing([o.wall_s * o.scale for o in got.setup], "s"),
        "wall_s": Stat(wall, "s", len(walls), *_spread(walls)),
        "op_p50_s": Stat(harrell_davis(pooled, 0.5), "s", len(pooled), *_spread(pooled)),
        "op_tail_s": Stat(harrell_davis(pooled, share), "s", len(pooled), note=f"p{100 * share:.1f}"),
        "peak_rss_mib": _timing(rss, "MiB"),
    }


def invocation_layers(trace: dict, stdout_bytes: int, scale: float) -> Counter:
    """Per-layer self times (scaled like wall times) and counts of one traced invocation."""
    names, spans = trace["names"], trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = Counter()
    first_factorize = True
    for i, (name, start, end, parent) in enumerate(spans):
        name = names[name]
        own = (end - start - covered[i]) * scale
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        if name == "classify.factorize" and first_factorize:
            totals["classify.first_call_s"] += own   # builds the 10^6 prime table
            first_factorize = False
    for key, amount in trace["counts"].items():
        if "@" in key:   # a counted leaf call, keyed by its innermost span
            name, parent = key.split("@")
            totals[f"{name}.calls"] += amount
            totals[f"{name}.calls_in.{parent}"] += amount
        else:
            totals[key] += amount
    totals["classify.factorize.cache_hits"] += trace["factorize_cache_hits"]
    totals["cli.stdout_bytes"] += stdout_bytes
    return totals


def per_layer(got: Measurement, names: list[str]) -> dict[str, float]:
    rows = []
    for batch in got.traced:
        totals = Counter()
        for outcome in batch:
            totals.update(invocation_layers(outcome.trace, outcome.stdout_bytes, outcome.scale))
        totals["cli.import_s"] = totals["cli.import.self_s"]
        totals["cli.parse_s"] = totals["cli.build_parser.self_s"] + totals["cli.main.self_s"]
        totals["cli.render_s"] = totals["cli.dispatch.self_s"]
        in_scan = totals["rationals.intersect.calls_in.skipverify.scan"]
        totals["skipverify.scan.hit_ratio"] = totals["skipverify.scan.hits"] / in_scan if in_scan else 0.0
        rows.append(totals)
    plain = statistics.median(_batch_wall(b) for b in got.plain)
    traced = statistics.median(_batch_wall(b) for b in got.traced)
    out = {name: statistics.median(row[name] for row in rows) for name in names if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = traced / plain - 1
    return out


# ---------------------------------------------------------------------------
# reporting


def _failures(got: Measurement) -> tuple[int, int, int, Counter]:
    attempted = failed = unexpected = 0
    causes = Counter()
    for outcome in got.outcomes():
        attempted += 1
        if outcome.failure is not None:
            failed += 1
            unexpected += outcome.defect is None
            cause = f"known defect: {outcome.defect}" if outcome.defect else outcome.failure
            causes[(outcome.label, cause)] += 1
    return attempted, failed, unexpected, causes


def summarize(workload: workloads.Workload, got: Measurement, spec: dict) -> tuple[dict, dict]:
    """Print the readable report; return the plain and traced result objects."""
    attempted, failed, unexpected, causes = _failures(got)
    n = len(workload.invocations)
    print(f"workload {workload.name}: {len(got.plain)} plain and {len(got.traced)} traced batches "
          f"of {n} invocations, {len(got.setup)} setup probes")
    e2e = end_to_end(got, n)
    for name, stat in e2e.items():
        spread = f"  q1 {stat.q1:.4f}  q3 {stat.q3:.4f}" if stat.q1 is not None else ""
        note = f"  ({stat.note})" if stat.note else ""
        print(f"  {name:<14} {stat.value:10.4f} {stat.unit:<5} n={stat.n}{spread}{note}")
    print(f"  {'failed_frac':<14} {failed / attempted:10.4f} ratio n={attempted}")
    ref = _timing(got.references, "s")
    raw = statistics.median(sum(o.wall_s for o in batch) for batch in got.plain)
    print(f"  calibrate.py {ref.value:.4f} s n={ref.n} q1 {ref.q1:.4f} q3 {ref.q3:.4f}; "
          f"times above scaled to {REFERENCE_S} s; unscaled wall_s {raw:.4f} s")
    for (label, cause), count in sorted(causes.items()):
        print(f"  FAILED x{count} {label}: {cause}")
    head = {"correct": unexpected == 0, "attempted": attempted, "failed": failed}
    plain = {m["name"]: {"value": e2e[m["name"]].value, "unit": m["unit"]} for m in spec["end_to_end"]}
    traced = {}
    if got.traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in per_layer(got, list(units)).items():
            print(f"  {name:<40} {value:14.6g} {units[name]} n={len(got.traced)}")
            traced[name] = {"value": value, "unit": units[name]}
    return dict(head, metrics=plain), dict(head, metrics=traced)


def main(argv: Optional[list[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one plain and one traced batch of every workload (about a minute)")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if not (ROOT / "src" / "floorfull" / "cli.py").is_file():
        print(f"error: no floorfull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    runner = Runner(tmp)
    try:
        if not args.quick:
            workload = workloads.build(args.workload, args.seed, tmp)
            got = measure(workload, runner, args.seconds, bool(args.trace))
            plain, traced = summarize(workload, got, spec)
            print(json.dumps(traced if args.trace else plain))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            workload = workloads.build(name, args.seed, tmp)
            plain, traced = summarize(workload, measure(workload, runner, 0, True, 1), spec)
            summary["correct"] &= plain["correct"]
            summary["attempted"] += plain["attempted"]
            summary["failed"] += plain["failed"]
            for metric, value in {**plain["metrics"], **traced["metrics"]}.items():
                summary["metrics"][f"{name}.{metric}"] = value
        print(json.dumps(summary))
        return 0
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
