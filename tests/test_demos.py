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


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of the README after ``heading``."""
    return README.split(heading, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_block("## Quick start (library)", "python"), "README.md", "exec"), {})
    f1, recall = map(float, capsys.readouterr().out.split())
    assert f1 == 1.0 and recall > 0.9


def test_readme_config_loads(tmp_path):
    from binpose.fileio import load_config

    path = tmp_path / "config.json"
    path.write_text(readme_block("A minimal config", "json"))
    cfg = load_config(path)
    assert cfg.model.name == "box" and len(cfg.model.group) == 2
    assert cfg.synth.bin_extents == (700.0, 700.0, 500.0)
