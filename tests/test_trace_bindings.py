"""Every name the benchmark's tracer patches still exists in floorfull.

`perfbench/tracewrap.py` records spans and counts by replacing public
functions and methods of floorfull from the outside.  A binding that no
longer resolves breaks traced benchmark runs, so each (module, attribute)
pair it names is resolved here against the current package, without
running the tracer.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from floorfull.pset import compute_pset

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACEWRAP = ROOT / "perfbench" / "tracewrap.py"


def _load_tracewrap():
    spec = importlib.util.spec_from_file_location("tracewrap_under_test", TRACEWRAP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tables; main() runs only as a script
    return module


def _bindings():
    tracewrap = _load_tracewrap()
    for table in (tracewrap.SPANNED, tracewrap.COUNTED):
        for name, bindings in table.items():
            for module_name, attr in bindings:
                yield pytest.param(module_name, attr, id=f"{name}:{module_name}.{attr}")


@pytest.mark.parametrize("module_name, attr", list(_bindings()))
def test_traced_binding_resolves(module_name, attr):
    owner = importlib.import_module(f"floorfull.{module_name}")
    for part in attr.split("."):  # "Class.method" patches a method
        assert hasattr(owner, part), f"floorfull.{module_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_tables_are_not_empty():
    tracewrap = _load_tracewrap()
    assert tracewrap.SPANNED and tracewrap.COUNTED


def test_factorize_cache_info_exists():
    # the tracer reads the factorize cache's hit count when a command ends
    classify = importlib.import_module("floorfull.classify")
    assert classify.factorize.cache_info().hits >= 0


def test_traced_pset_compute_counts_its_runs(tmp_path):
    cubes = [k ** 3 for k in range(1, 41)]
    terms, span_file = tmp_path / "cubes.txt", tmp_path / "spans.json"
    terms.write_text("".join(f"{c}\n" for c in cubes))
    argv = [sys.executable, str(TRACEWRAP), str(span_file), "1",
            "pset", "compute", "--terms", str(terms), "--bound", "200000"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(span_file.read_text())["counts"]
    assert counts["pset.runs.count"] == len(compute_pset(cubes, 200000).runs()) == 832
