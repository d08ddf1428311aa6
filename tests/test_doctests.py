"""The examples in the floorfull docstrings run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import floorfull

MODULES = ["floorfull"] + [
    f"floorfull.{info.name}"
    for info in pkgutil.iter_modules(floorfull.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
