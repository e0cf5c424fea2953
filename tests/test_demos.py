"""Every demo runs to completion: each is run as a script and must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=600, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr[-2000:]
