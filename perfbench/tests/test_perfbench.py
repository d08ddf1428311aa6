"""Self-checks of the benchmark: python3 -m pytest perfbench/tests -q (about 1.5 minutes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAP = {"certify": "classify", "skip": "thm2 symbolic", "enumerate": "sieve"}


@pytest.fixture(scope="module")
def quick():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return done, time.perf_counter() - start


def test_quick_mode_emits_every_metric_with_its_unit(quick):
    done, _ = quick
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            got = summary["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    report = "\n".join(lines[:-1])
    for name in ["failed_frac"] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]:
        assert f"  {name} " in report


def test_quick_mode_takes_about_a_minute(quick):
    _, elapsed = quick
    assert elapsed < 120


@pytest.fixture
def runner(tmp_path):
    runner = run.Runner(tmp_path)
    yield runner
    runner.close()


def _cheap(name: str, tmp: Path) -> workloads.Invocation:
    built = workloads.build(name, 7, tmp)
    return next(inv for inv in built.invocations if inv.label == CHEAP[name] and inv.defect is None)


def _counted(outcome: run.Outcome) -> tuple[int, int, int]:
    attempted, failed, unexpected, _ = run._failures(run.Measurement(setup=[outcome]))
    return attempted, failed, unexpected


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_a_correct_invocation_passes(name, runner, tmp_path):
    outcome = runner.run(_cheap(name, tmp_path))
    assert outcome.failure is None
    assert _counted(outcome) == (1, 0, 0)


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_corrupted_stdout_counts_as_failed(name, runner, tmp_path):
    inv = _cheap(name, tmp_path)

    def corrupted(code, out, err):
        digit = next(i for i in range(len(out) - 1, -1, -1) if out[i : i + 1].isdigit())
        flipped = b"1" if out[digit : digit + 1] != b"1" else b"2"
        inv.check(code, out[:digit] + flipped + out[digit + 1 :], err)

    outcome = runner.run(workloads.Invocation(inv.argv, corrupted))
    assert outcome.failure is not None
    assert _counted(outcome) == (1, 1, 1)


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_wrong_exit_code_counts_as_failed(name, runner, tmp_path):
    inv = _cheap(name, tmp_path)
    outcome = runner.run(workloads.Invocation(inv.argv, lambda code, out, err: inv.check(code + 1, out, err)))
    assert outcome.failure is not None
    assert _counted(outcome) == (1, 1, 1)


def test_known_defect_is_failed_but_recognised(runner, tmp_path):
    inv = next(i for i in workloads.build("certify", 7, tmp_path).invocations if i.defect)
    outcome = runner.run(inv)
    if outcome.failure is None:   # the defect has been fixed
        assert _counted(outcome) == (1, 0, 0)
    else:
        assert outcome.defect == inv.defect
        assert _counted(outcome) == (1, 1, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "skip", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_same_seed_same_inputs(tmp_path):
    for name in CHEAP:
        seen = []
        for copy in ("a", "b"):
            tmp = tmp_path / name / copy
            tmp.mkdir(parents=True)
            built = workloads.build(name, 3, tmp)
            argvs = [[arg.replace(str(tmp), "") for arg in inv.argv] for inv in built.invocations]
            files = sorted((path.name, path.read_bytes()) for path in tmp.iterdir())
            seen.append((argvs, built.probe.argv, files))
        assert seen[0] == seen[1]


# --- the oracles against brute force on small inputs


def test_miller_rabin_catches_the_twelve_base_pseudoprime():
    assert not oracles.is_prime(oracles.A014233_12)
    a, b = oracles.A014233_12_FACTORS
    assert a * b == oracles.A014233_12 and oracles.is_prime(a) and oracles.is_prime(b)
    assert [n for n in range(200) if oracles.is_prime(n)] == oracles.primes_up_to(199)


def test_r_full_enumeration_matches_factorization():
    for r in (2, 3, 4):
        brute = [n for n in range(1, 5000) if all(e >= r for _, e in oracles.trial_factor(n))]
        assert oracles.r_full_up_to(4999, r) == brute


def test_scan_sweep_matches_all_pairs():
    terms = oracles.floor_powers(Fraction(17, 10), 60)
    for t1, t2 in ((3, 7), (8, 16), (5, 40)):
        windows = [
            [(Fraction(t, s), min(Fraction(t + 1, s), Fraction(1))) for s in terms if s > t]
            for t in (t1, t2)
        ]
        brute = sorted(
            (max(a[0], b[0]), min(a[1], b[1]))
            for a in windows[0] for b in windows[1]
            if max(a[0], b[0]) < min(a[1], b[1])
        )
        assert oracles.scan_hits(terms, t1, t2) == brute


def test_complete_threshold_of_squares_is_129():
    assert oracles.complete_threshold([i * i for i in range(1, 301)], 20_000, 2000) == 129
