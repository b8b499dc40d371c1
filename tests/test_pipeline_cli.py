import json
import subprocess
import sys

import numpy as np
import pytest

from binpose.cli import main as cli_main
from binpose.fileio import load_config, load_labels
from binpose.pipeline import run_pipeline, run_scene

PERFECT_CONFIG = {
    "object": {"builtin": {"kind": "box", "extents": [40, 60, 90], "pitch": 10},
               "symmetry": {"dz_deg": 180.0}},
    "cluster": {},
    "eval": {},
    "synth": {"instance_range": [2, 4], "bin_extents": [500, 500, 400]},
    "oracle": {"sigma_t_mm": 0.0, "sigma_r_deg": 0.0,
               "symmetric_ambiguity": False, "outlier_fraction": 0.0},
}

NOISY_CONFIG = {
    "object": {"builtin": {"kind": "box", "extents": [40, 120, 160], "pitch": 10},
               "symmetry": {"dz_deg": 180.0}},
    "cluster": {},
    "eval": {},
    "synth": {"instance_range": [3, 5], "bin_extents": [700, 700, 500]},
    "oracle": {"sigma_t_mm": 1.0, "sigma_r_deg": 2.0,
               "symmetric_ambiguity": True, "outlier_fraction": 0.0},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_perfect_oracle_scores_perfectly(tmp_path):
    cfg = load_config(write_config(tmp_path, PERFECT_CONFIG))
    payload = run_pipeline(cfg, seed=0)
    assert payload["f1_inst"] == 1.0
    assert payload["recall"] == 1.0


def test_single_stage_flag_reduces_recall(tmp_path):
    cfg = load_config(write_config(tmp_path, NOISY_CONFIG))
    full = run_pipeline(cfg, seed=1)
    ablated = run_pipeline(cfg, seed=1, single_stage=True)
    assert full["recall"] > ablated["recall"]


def test_pipeline_reports_are_bit_identical(tmp_path):
    cfg_path = write_config(tmp_path, NOISY_CONFIG)
    cfg = load_config(cfg_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(cfg, seed=5, out_dir=str(out_a))
    run_pipeline(load_config(cfg_path), seed=5, out_dir=str(out_b))
    for name in ("report.json", "labels.txt", "poses.json", "scene.ply",
                 "scene.json", "predictions.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_pipeline_multi_scene_aggregation(tmp_path):
    cfg = load_config(write_config(tmp_path, PERFECT_CONFIG))
    payload = run_pipeline(cfg, seed=2, out_dir=str(tmp_path / "multi"), scenes=3)
    assert payload["scenes"] == 3
    assert len(payload["per_scene"]) == 3
    assert payload["n_gt"] == sum(s["n_gt"] for s in payload["per_scene"])
    assert payload["f1_inst"] == 1.0
    for i in range(3):
        assert (tmp_path / "multi" / f"scene_{i:03d}" / "report.json").exists()
    assert (tmp_path / "multi" / "report.json").exists()


def test_pipeline_icp_flag_keeps_scores(tmp_path):
    cfg = load_config(write_config(tmp_path, NOISY_CONFIG))
    refined = run_pipeline(cfg, seed=3, use_icp=True)
    assert refined["f1_inst"] >= 0.8


def test_units_sentinel_round_trip(tmp_path):
    # everything at the file boundary stays in millimeters: a known gt
    # translation survives synth -> pipeline -> report unchanged
    cfg = load_config(write_config(tmp_path, PERFECT_CONFIG))
    run = run_scene(cfg, seed=4)
    out = tmp_path / "sentinel"
    from binpose.pipeline import write_scene_artifacts
    write_scene_artifacts(str(out), run)
    scene_payload = json.loads((out / "scene.json").read_text())
    poses_payload = json.loads((out / "poses.json").read_text())
    gt_ts = np.array([[p["tx"], p["ty"], p["tz"]] for p in scene_payload["poses"]])
    pred_ts = np.array([[p["tx"], p["ty"], p["tz"]] for p in poses_payload["poses"]])
    for t in pred_ts:
        assert np.linalg.norm(gt_ts - t, axis=1).min() < 1e-6


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_stage_chain(tmp_path):
    cfg_path = write_config(tmp_path, PERFECT_CONFIG)
    out = str(tmp_path / "run")
    assert run_cli("synth", "--config", str(cfg_path), "--seed", "0", "--out-dir", out) == 0
    assert run_cli("oracle", "--config", str(cfg_path), "--seed", "0", "--out-dir", out) == 0
    assert run_cli("cluster", "--config", str(cfg_path), "--out-dir", out) == 0
    assert run_cli("eval", "--config", str(cfg_path), "--out-dir", out, "--csv") == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["f1_inst"] == 1.0
    assert report["recall"] == 1.0
    assert (tmp_path / "run" / "report.csv").exists()
    labels = load_labels(tmp_path / "run" / "labels.txt")
    assert labels.min() >= 0


def test_cli_cluster_icp_flag(tmp_path):
    cfg_path = write_config(tmp_path, NOISY_CONFIG)
    out = str(tmp_path / "icp_run")
    assert run_cli("synth", "--config", str(cfg_path), "--seed", "4", "--out-dir", out) == 0
    assert run_cli("oracle", "--config", str(cfg_path), "--seed", "4", "--out-dir", out) == 0
    assert run_cli("cluster", "--config", str(cfg_path), "--out-dir", out, "--icp") == 0
    assert run_cli("eval", "--config", str(cfg_path), "--out-dir", out) == 0
    report = json.loads((tmp_path / "icp_run" / "report.json").read_text())
    assert report["recall"] >= 0.9


@pytest.mark.parametrize("icp", [False, True])
def test_cli_chain_matches_pipeline_bytes(tmp_path, icp):
    # each subcommand runs the same stage function as run_pipeline
    noisy = dict(NOISY_CONFIG, oracle={"sigma_t_mm": 4.0, "sigma_r_deg": 8.0,
                                       "outlier_fraction": 0.1})
    cfg_path = write_config(tmp_path, noisy)
    pipe, chain = tmp_path / "pipe", tmp_path / "chain"
    run_pipeline(load_config(cfg_path), seed=1, out_dir=str(pipe), use_icp=icp)
    common = ("--config", str(cfg_path), "--seed", "1", "--out-dir", str(chain))
    assert run_cli("synth", *common) == 0
    assert run_cli("oracle", *common) == 0
    assert run_cli("cluster", *common, *(["--icp"] if icp else [])) == 0
    assert run_cli("eval", *common) == 0
    for name in ("scene.ply", "scene.json", "predictions.csv", "poses.json",
                 "labels.txt", "report.json"):
        assert (pipe / name).read_bytes() == (chain / name).read_bytes(), name


def test_cli_pipeline_determinism_subprocess(tmp_path):
    # the full binary path: two independent processes, identical bytes
    cfg_path = write_config(tmp_path, NOISY_CONFIG)
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "binpose.cli", "pipeline",
             "--config", str(cfg_path), "--seed", "9", "--out-dir", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    for name in ("report.json", "labels.txt", "poses.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_gradcheck_prints_records(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {
        "object": {"builtin": {"kind": "box", "extents": [20, 30, 40], "pitch": 10},
                   "symmetry": {"dz_deg": 180.0}},
        "cluster": {}, "eval": {}, "synth": {}, "oracle": {},
    })
    assert run_cli("gradcheck", "--config", str(cfg_path), "--seed", "0",
                   "--trials", "3") == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert {r["loss"] for r in lines} == {"translation", "rotation"}
    for r in lines:
        assert r["max_rel_err"] < 1e-4
        assert r["trials"] == 3
        assert r["epsilon"] == 1e-5


def test_cli_single_stage_flag(tmp_path):
    cfg_path = write_config(tmp_path, NOISY_CONFIG)
    out_full = str(tmp_path / "full")
    out_ss = str(tmp_path / "ss")
    assert run_cli("pipeline", "--config", str(cfg_path), "--seed", "1",
                   "--out-dir", out_full) == 0
    assert run_cli("pipeline", "--config", str(cfg_path), "--seed", "1",
                   "--out-dir", out_ss, "--single-stage") == 0
    full = json.loads((tmp_path / "full" / "report.json").read_text())
    ss = json.loads((tmp_path / "ss" / "report.json").read_text())
    assert full["recall"] > ss["recall"]


def test_cli_error_is_stage_tagged(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {
        "object": {"builtin": {"kind": "box", "extents": [100, 100, 100], "pitch": 25},
                   "symmetry": {}},
        "cluster": {}, "eval": {},
        "synth": {"instance_range": [1, 1], "bin_extents": [300, 300, 10],
                  "max_attempts": 4},
        "oracle": {},
    })
    code = run_cli("pipeline", "--config", str(cfg_path), "--seed", "0",
                   "--out-dir", str(tmp_path / "x"))
    assert code != 0
    assert "[synth]" in capsys.readouterr().err
