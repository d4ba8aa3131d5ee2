"""The narrative scripts under demos/: each one runs to the end and prints
the text committed under tests/golden/. The README's Python examples run
too, so they keep up with the public signatures."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = [textwrap.dedent(code) for code in
                 re.findall(r"^ *```python\n(.*?)^ *```$", (ROOT / "README.md").read_text(), re.M | re.S)]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(code):
    exec(code, {})
