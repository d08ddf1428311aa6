import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
# text a demo must print, by file name
PRINTS = {"02_skip_argument.py": "alpha in [8/11, 9/11)"}


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert PRINTS.get(script.name, "").encode() in proc.stdout
