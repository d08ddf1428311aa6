"""Every source file parses as Python 3.10, the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def test_sources_are_found():
    assert "src/floorfull/classify.py" in SOURCES
    assert "tests/test_syntax.py" in SOURCES
    assert any(name.startswith("demos/") for name in SOURCES)


@pytest.mark.parametrize("name", SOURCES)
def test_parses_as_python_3_10(name):
    # feature_version rejects most grammar newer than 3.10, such as except*,
    # which would otherwise fail only on CI's 3.10 leg; it does not check
    # the standard library names a file uses
    ast.parse((ROOT / name).read_text(encoding="utf-8"), filename=name, feature_version=(3, 10))


def test_feature_version_rejects_3_11_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
