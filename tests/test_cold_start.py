"""binpose runs on numpy alone: no command loads scipy, ICP included.

Each test starts a fresh interpreter, as this process may already hold
scipy (the tests that compare with ``cKDTree`` load it); conftest.py
puts src/ on its PYTHONPATH. The child runs
``binpose.cli`` the way ``python -m binpose.cli`` does and then prints
the scipy modules in its ``sys.modules``.
"""

import json
import shutil
import subprocess
import sys

import pytest

from binpose.fileio import load_config
from binpose.pipeline import run_pipeline

CONFIG = {
    "object": {"builtin": {"kind": "box", "extents": [40, 120, 160], "pitch": 10},
               "symmetry": {"dz_deg": 180.0}},
    "synth": {"instance_range": [3, 4], "bin_extents": [700, 700, 500]},
    "oracle": {"sigma_t_mm": 4.0, "sigma_r_deg": 8.0, "outlier_fraction": 0.1},
}

# the last line a child prints: the scipy modules it loaded, as JSON
_SCIPY_MODULES = ("print(json.dumps(sorted(m for m in sys.modules "
                  "if m.partition('.')[0] == 'scipy')))")

_RUN_CLI = f"""\
import json, runpy, sys
try:
    runpy.run_module("binpose.cli", run_name="__main__", alter_sys=True)
finally:
    {_SCIPY_MODULES}
"""


def _scipy_modules(code, *argv):
    res = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def _cli(*argv):
    """Scipy modules loaded by ``binpose <argv>`` in a fresh interpreter."""
    return _scipy_modules(_RUN_CLI, *argv)


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_import_loads_no_scipy():
    assert _scipy_modules(f"import json, sys\nimport binpose\n{_SCIPY_MODULES}") == []


def test_commands_without_icp_load_no_scipy(tmp_path, config):
    out = str(tmp_path / "run")
    common = ("--config", config, "--seed", "1", "--out-dir", out)
    for command in ("synth", "oracle", "cluster", "eval"):
        assert _cli(command, *common) == [], command
    assert _cli("gradcheck", "--config", config, "--trials", "2") == []
    assert _cli("pipeline", "--config", config, "--seed", "1",
                "--out-dir", str(tmp_path / "pipe")) == []


def test_icp_loads_no_scipy_and_writes_the_in_process_bytes(tmp_path, config):
    ref = tmp_path / "ref"
    run_pipeline(load_config(config), seed=1, out_dir=str(ref), use_icp=True)
    chain, pipe = tmp_path / "chain", tmp_path / "pipe"
    chain.mkdir()
    for name in ("scene.ply", "scene.json", "predictions.csv"):
        shutil.copy(ref / name, chain / name)
    assert _cli("cluster", "--config", config, "--out-dir", str(chain), "--icp") == []
    assert _cli("pipeline", "--config", config, "--seed", "1",
                "--out-dir", str(pipe), "--icp") == []
    for name in ("poses.json", "labels.txt"):
        assert (chain / name).read_bytes() == (ref / name).read_bytes(), name
        assert (pipe / name).read_bytes() == (ref / name).read_bytes(), name
