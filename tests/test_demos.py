"""The narrative scripts under demos/: each one runs to the end and prints
the text committed under tests/golden/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
