"""Every name the benchmark's tracer patches still exists in floorfull.

`perfbench/tracewrap.py` records spans and counts by replacing public
functions and methods of floorfull from the outside.  A binding that no
longer resolves breaks traced benchmark runs, so each (module, attribute)
pair it names is resolved here against the current package, without
running the tracer.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACEWRAP = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracewrap.py"


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
