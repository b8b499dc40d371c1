"""Each demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                         text=True, env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert res.returncode == 0, res.stderr
