import gc
import json
import subprocess
import sys
import weakref

import numpy as np
import pytest

from binpose import pipeline, synth
from binpose.cli import main as cli_main
from binpose.cluster import PerPointPrediction
from binpose.fileio import (load_config, load_labels, load_ply, load_poses_json,
                            load_predictions_csv, save_predictions_csv)
from binpose.icp import IcpResult
from binpose.losses import GRADCHECK_STEP
from binpose.pipeline import (StageWarning, estimate_poses, read_scene, run_pipeline,
                              run_scene, write_scene)
from binpose.so3 import Pose
from binpose.synth import Scene, make_crossing_rods_scene

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


@pytest.mark.parametrize("single_stage", [False, True])
def test_poses_json_member_counts_are_label_counts(tmp_path, single_stage):
    cfg = load_config(write_config(tmp_path, NOISY_CONFIG))
    run_pipeline(cfg, seed=1, out_dir=str(tmp_path / "out"), single_stage=single_stage)
    _, counts = load_poses_json(tmp_path / "out" / "poses.json")
    labels = load_labels(tmp_path / "out" / "labels.txt")
    assert counts == np.bincount(labels[labels >= 0], minlength=len(counts)).tolist()
    assert counts and labels.min() >= -1 and labels.max() < len(counts)


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


def test_run_pipeline_keeps_only_each_scene_report(tmp_path, monkeypatch):
    # scene i - 1's points, predictions and clusters are freed before
    # scene i runs; only its report outlives it
    cfg = load_config(write_config(tmp_path, PERFECT_CONFIG))
    run_scene, runs = pipeline.run_scene, []

    def tracked(*args, **kwargs):
        gc.collect()
        assert [ref() for ref in runs] == [None] * len(runs)
        run = run_scene(*args, **kwargs)
        runs.extend(weakref.ref(x) for x in (run, run.scene.points, run.prediction.quats,
                                             run.clusters.labels))
        return run

    monkeypatch.setattr(pipeline, "run_scene", tracked)
    payload = run_pipeline(cfg, seed=2, scenes=3)
    assert len(runs) == 12 and payload["f1_inst"] == 1.0


def test_pipeline_icp_flag_keeps_scores(tmp_path):
    cfg = load_config(write_config(tmp_path, NOISY_CONFIG))
    refined = run_pipeline(cfg, seed=3, use_icp=True)
    assert refined["f1_inst"] >= 0.8


def test_cluster_instances_hold_the_run_poses(tmp_path):
    # one copy of the poses: in scene mm and after ICP, where eval and
    # poses.json read them
    cfg = load_config(write_config(tmp_path, NOISY_CONFIG))
    run = run_scene(cfg, seed=0, use_icp=True)
    assert len(run.poses) == len(run.clusters.instances) > 0
    for inst, pose in zip(run.clusters.instances, run.poses):
        assert np.array_equal(inst.pose.quat, pose.quat)
        assert np.array_equal(inst.pose.t, pose.t)


def test_a_cube24_report_holds_no_arrays(tmp_path):
    # a report is scalars and rows of scalars, so keeping many costs little
    from test_golden import CONFIGS

    report = run_scene(load_config(write_config(tmp_path, CONFIGS["cube24"])), seed=0).report
    assert report.matches
    values = [(f"report.{k}", v) for k, v in vars(report).items() if k != "matches"]
    values += [(f"row.{k}", v) for row in report.matches for k, v in vars(row).items()]
    assert [name for name, v in values if not isinstance(v, (bool, int, float))] == []


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


def test_cli_synth_says_when_the_bin_is_full(tmp_path, capsys):
    from test_synth import ROD_PILE

    cfg_path = write_config(tmp_path, ROD_PILE)
    assert run_cli("synth", "--config", str(cfg_path), "--out-dir", str(tmp_path / "rod")) == 0
    out, err = capsys.readouterr()
    placed = len(json.loads((tmp_path / "rod" / "scene.json").read_text())["poses"])
    assert out.startswith(f"wrote scene with {placed} instances")
    assert err == f"warning: the bin is full: placed {placed} of 12 instances\n"
    assert pipeline.StageWarning is synth.StageWarning


def test_cli_oracle_reads_the_scene_synth_wrote(tmp_path):
    cfg_path = write_config(tmp_path, NOISY_CONFIG)
    out = tmp_path / "run"
    assert run_cli("synth", "--config", str(cfg_path), "--seed", "3", "--out-dir", str(out)) == 0
    assert run_cli("oracle", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(out)) == 0
    points, _ = load_ply(out / "scene.ply")
    pred = load_predictions_csv(out / "predictions.csv")
    assert np.array_equal(pred.positions, points)


def test_cli_oracle_without_scene_is_stage_tagged(tmp_path, capsys):
    cfg_path = write_config(tmp_path, NOISY_CONFIG)
    (tmp_path / "empty").mkdir()
    assert run_cli("oracle", "--config", str(cfg_path), "--out-dir",
                   str(tmp_path / "empty")) == 2
    assert "[oracle]" in capsys.readouterr().err


def test_read_scene_inverts_write_scene(tmp_path):
    scene = make_crossing_rods_scene(10.0, 90.0)
    # a third instance buried under the others keeps its pose, with no points
    scene.poses.append(Pose([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -50.0]))
    scene.seed = 11
    write_scene(str(tmp_path), scene)
    back = read_scene(str(tmp_path))
    assert np.array_equal(back.points, scene.points)
    assert np.array_equal(back.labels, scene.labels)
    assert back.seed == 11
    assert back.visible_counts() == scene.visible_counts()
    for a, b in zip(scene.instances, back.instances):
        assert np.array_equal(a.point_indices, b.point_indices)
        assert np.array_equal(a.pose.quat, b.pose.quat) and np.array_equal(a.pose.t, b.pose.t)


def test_read_scene_counts_only_ids_with_a_pose(tmp_path):
    # id 2 has no pose in scene.json: its points belong to no instance
    poses = [Pose([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 5.0]),
             Pose([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 9.0])]
    scene = Scene(points=np.arange(15.0).reshape(5, 3), labels=np.array([0, 2, 1, 2, 0]),
                  poses=poses, seed=3)
    write_scene(str(tmp_path), scene)
    back = read_scene(str(tmp_path))
    assert np.array_equal(back.labels, scene.labels)
    assert back.visible_counts() == [2, 1]
    assert [inst.point_indices.tolist() for inst in back.instances] == [[0, 4], [2]]


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
        assert r["epsilon"] == GRADCHECK_STEP


@pytest.mark.parametrize("args", [("--epsilon", "nan"), ("--epsilon", "0"),
                                  ("--trials", "0"), ("--trials", "-3"), ("--loss", ",")])
def test_cli_gradcheck_rejects_bad_arguments(tmp_path, capsys, args):
    cfg_path = write_config(tmp_path, PERFECT_CONFIG)
    assert run_cli("gradcheck", "--config", str(cfg_path), "--trials", "1", *args) == 2
    streams = capsys.readouterr()
    assert "[gradcheck]" in streams.err
    assert streams.out == ""


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


@pytest.mark.parametrize("shape", [{"kind": "box", "pitch": 0.001},
                                   {"kind": "cylinder", "pitch": 0.001},
                                   {"kind": "sphere", "n_points": 10 ** 12}],
                         ids=lambda shape: shape["kind"])
def test_cli_rejects_a_model_too_fine_to_build(tmp_path, capsys, shape):
    # the box would be a (40001, 60001, 80001) grid: 1.36 PiB
    cfg_path = write_config(tmp_path, {"object": {"builtin": shape}})
    code = run_cli("synth", "--config", str(cfg_path), "--seed", "0",
                   "--out-dir", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [synth] ") and "MAX_CLOUD_POINTS" in err


def _cli_chain(tmp_path, config, *stages, seed="0"):
    cfg_path = write_config(tmp_path, config)
    out = tmp_path / "run"
    common = ("--config", str(cfg_path), "--seed", seed, "--out-dir", str(out))
    for stage in stages:
        assert run_cli(stage, *common) == 0
    return common, out


@pytest.mark.parametrize("field,value", [("qw", float("nan")), ("tx", float("inf"))])
def test_cli_eval_rejects_non_finite_poses(tmp_path, capsys, field, value):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle", "cluster")
    payload = json.loads((out / "poses.json").read_text())
    payload["poses"][0][field] = value
    (out / "poses.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", *common) == 2
    assert "[eval]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _double_quat(path):
    payload = json.loads(path.read_text())
    for key in ("qw", "qx", "qy", "qz"):
        payload["poses"][0][key] *= 2.0
    path.write_text(json.dumps(payload))


def test_cli_eval_rejects_non_unit_quaternion(tmp_path, capsys):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle", "cluster")
    _double_quat(out / "poses.json")
    capsys.readouterr()
    assert run_cli("eval", *common) == 2
    assert "[eval]" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_oracle_rejects_non_unit_quaternion(tmp_path, capsys):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth")
    _double_quat(out / "scene.json")
    capsys.readouterr()
    assert run_cli("oracle", *common) == 2
    assert "[oracle]" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("column", [0, 4, 7])
def test_cli_cluster_rejects_nan_predictions(tmp_path, capsys, column):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle")
    lines = (out / "predictions.csv").read_text().splitlines()
    row = lines[5].split(",")
    row[column] = "nan"
    lines[5] = ",".join(row)
    (out / "predictions.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("cluster", *common) == 2
    assert "[cluster]" in capsys.readouterr().err
    assert not (out / "poses.json").exists()


def test_cli_cluster_warns_when_mean_shift_stops_at_max_iters(tmp_path, capsys):
    noisy = dict(NOISY_CONFIG, cluster={"max_iters": 1},
                 oracle={"sigma_t_mm": 4.0, "sigma_r_deg": 8.0, "outlier_fraction": 0.1})
    common, out = _cli_chain(tmp_path, noisy, "synth", "oracle", "cluster", seed="1")
    assert "mean shift stopped at max_iters=1" in capsys.readouterr().err
    # the warning goes to stderr only: the artifacts are run_pipeline's
    pipe = tmp_path / "pipe"
    with pytest.warns(StageWarning, match="max_iters=1"):
        payload = run_pipeline(load_config(common[1]), seed=1, out_dir=str(pipe))
    for name in ("predictions.csv", "poses.json", "labels.txt"):
        assert (pipe / name).read_bytes() == (out / name).read_bytes(), name
    # binpose pipeline prints the same warning and the same payload
    capsys.readouterr()
    assert run_cli("pipeline", common[0], common[1], "--seed", "1",
                   "--out-dir", str(tmp_path / "cli_pipe")) == 0
    streams = capsys.readouterr()
    assert "warning: mean shift stopped at max_iters=1 before converging" in streams.err
    printed = json.loads(streams.out)
    assert printed == {k: payload[k] for k in ("n_gt", "n_pred", "tp", "f1_inst", "recall")}
    # the default budget converges and says nothing
    converging = write_config(tmp_path, dict(noisy, cluster={}), name="converging.json")
    assert run_cli("cluster", "--config", str(converging), *common[2:]) == 0
    assert "max_iters" not in capsys.readouterr().err


def test_failed_icp_warns_and_keeps_the_voted_pose(tmp_path, capsys):
    # 80 collinear points voting for one instance: the ICP fit is rank deficient
    cfg_path = write_config(tmp_path, PERFECT_CONFIG)
    out = tmp_path / "run"
    out.mkdir()
    line = np.zeros((80, 3))
    line[:, 0] = np.linspace(-40.0, 40.0, 80)
    pred = PerPointPrediction(positions=line + [0.0, 5.0, 0.0], centroids=np.zeros((80, 3)),
                              quats=np.tile([1.0, 0.0, 0.0, 0.0], (80, 1)))
    save_predictions_csv(out / "predictions.csv", pred)
    common = ("--config", str(cfg_path), "--out-dir", str(out))
    assert run_cli("cluster", *common) == 0
    voted = (out / "poses.json").read_bytes()
    assert "ICP" not in capsys.readouterr().err
    assert run_cli("cluster", *common, "--icp") == 0
    err = capsys.readouterr().err
    assert "warning: ICP failed on instance 0 (degenerate correspondences); kept its voted pose" in err
    assert (out / "poses.json").read_bytes() == voted
    with pytest.warns(StageWarning, match="ICP failed on instance 0"):
        poses = estimate_poses(load_config(cfg_path), pred, use_icp=True).poses
    assert len(poses) == 1


def test_icp_stop_at_max_iters_warns_once_per_instance(tmp_path, capsys, monkeypatch):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle")
    refined = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]))

    def stub(converged):
        def icp_refine(scene_points, model, init, **kwargs):
            return IcpResult(pose=refined, errors=[1.0, 0.5], converged=converged)
        return icp_refine

    monkeypatch.setattr(pipeline, "icp_refine", stub(True))
    capsys.readouterr()
    assert run_cli("cluster", *common, "--icp") == 0
    assert "ICP" not in capsys.readouterr().err
    converged = {name: (out / name).read_bytes() for name in ("poses.json", "labels.txt")}
    n_instances = len(json.loads(converged["poses.json"])["poses"])
    assert n_instances >= 2

    monkeypatch.setattr(pipeline, "icp_refine", stub(False))
    assert run_cli("cluster", *common, "--icp") == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if "ICP" in l]
    assert lines == [f"warning: ICP stopped at max_iters on instance {i} before converging; "
                     "kept its last pose" for i in range(n_instances)]
    # the warning reaches stderr only; the artifacts keep the ICP poses
    for name, data in converged.items():
        assert (out / name).read_bytes() == data, name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_icp_input_fails_tagged_icp(tmp_path, capsys, monkeypatch, bad):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle")
    normalize, denormalize = pipeline.normalize_scene, pipeline.denormalize_pose

    def poison_points(positions, transform):
        # clustering reads the normalized copy; ICP reads these points
        result = normalize(positions, transform)
        positions[:] = bad
        return result

    def poison_pose(pose, transform):
        pose = denormalize(pose, transform)
        object.__setattr__(pose, "t", np.array([bad, 0.0, 0.0]))
        return pose

    capsys.readouterr()
    for name, attr, poison in (("scene_points", "normalize_scene", poison_points),
                               ("init", "denormalize_pose", poison_pose)):
        with monkeypatch.context() as m:
            m.setattr(pipeline, attr, poison)
            assert run_cli("cluster", *common, "--icp") == 2
        err = capsys.readouterr().err
        assert f"error: [icp] ICP {name} holds a non-finite value" in err.splitlines()


def test_pipeline_warnings_name_their_scene(tmp_path, capsys):
    noisy = dict(NOISY_CONFIG, cluster={"max_iters": 1},
                 oracle={"sigma_t_mm": 4.0, "sigma_r_deg": 8.0, "outlier_fraction": 0.1})
    cfg_path = write_config(tmp_path, noisy)
    assert run_cli("pipeline", "--config", str(cfg_path), "--seed", "1", "--scenes", "3",
                   "--out-dir", str(tmp_path / "multi")) == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if "max_iters=1" in l]
    assert lines == [f"warning: scene_{i:03d} (seed {1 + i}): mean shift stopped at "
                     "max_iters=1 before converging" for i in range(3)]


@pytest.mark.parametrize("payload, message", [
    ({"poses": [{"qw": 1.0}]}, "poses[0] is missing key 'qx'"),
    ({"schema_version": 1}, "missing key 'poses'"),
    ([1, 2], "expected a JSON object"),
])
def test_cli_eval_rejects_a_malformed_poses_file(tmp_path, capsys, payload, message):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle", "cluster")
    (out / "poses.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", *common) == 2
    err = capsys.readouterr().err
    assert "[eval]" in err and "poses.json" in err and message in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["oracle", "eval"])
def test_cli_rejects_a_scene_json_without_a_seed(tmp_path, capsys, command):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle", "cluster")
    payload = json.loads((out / "scene.json").read_text())
    del payload["seed"]
    (out / "scene.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(command, *common) == 2
    err = capsys.readouterr().err
    assert f"[{command}]" in err and "scene.json: missing key 'seed'" in err


def test_cli_accepts_a_null_seed_in_scene_json(tmp_path):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth")
    payload = json.loads((out / "scene.json").read_text())
    payload["seed"] = None
    (out / "scene.json").write_text(json.dumps(payload))
    for stage in ("oracle", "cluster", "eval"):
        assert run_cli(stage, *common) == 0
    assert json.loads((out / "report.json").read_text())["seed"] is None


def test_cli_warns_when_no_stage1_cluster_survives(tmp_path, capsys):
    starved = dict(PERFECT_CONFIG, cluster={"min_points_1": 5000, "min_points_2": 5000})
    common, out = _cli_chain(tmp_path, starved, "synth", "oracle")
    capsys.readouterr()
    assert run_cli("cluster", *common) == 0
    assert "warning: no stage-1 clusters survived" in capsys.readouterr().err
    assert load_poses_json(out / "poses.json")[0] == []
    assert run_cli("pipeline", *common) == 0
    assert "warning: no stage-1 clusters survived" in capsys.readouterr().err.splitlines()
    assert run_cli("pipeline", *common, "--scenes", "2") == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if "stage-1" in l]
    assert lines == [f"warning: scene_{i:03d} (seed {i}): no stage-1 clusters survived"
                     for i in range(2)]


@pytest.mark.parametrize("change", [-1, 1])
def test_cli_eval_rejects_visible_counts_not_one_per_pose(tmp_path, capsys, change):
    common, out = _cli_chain(tmp_path, PERFECT_CONFIG, "synth", "oracle", "cluster")
    payload = json.loads((out / "scene.json").read_text())
    n = len(payload["poses"])
    payload["n_visible"] = (payload["n_visible"] + [100])[:n + change]
    (out / "scene.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", *common) == 2
    assert f"{n + change} visible counts for {n} ground-truth poses" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("count", [True, -5, 0.5, "7", None])
def test_cli_eval_rejects_a_visible_count_that_is_not_a_count(tmp_path, capsys, count):
    common, out = _cli_chain(tmp_path, NOISY_CONFIG, "synth", "oracle", "cluster")
    payload = json.loads((out / "scene.json").read_text())
    payload["n_visible"][0] = count
    (out / "scene.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("eval", *common) == 2
    err = capsys.readouterr().err
    assert "[eval]" in err and "scene.json" in err and "n_visible[0]" in err
    assert not (out / "report.json").exists()
