import json

import numpy as np
import pytest

from binpose.cluster import PerPointPrediction
from binpose.fileio import (PlyParseError, load_config, load_labels,
                            load_ply, load_poses_json, load_predictions_csv,
                            load_scene_json, save_labels, save_ply,
                            save_poses_json, save_predictions_csv,
                            save_scene_json)
from binpose.so3 import Pose, random_quat
from binpose.workspace import NormalizationTransform


def test_ply_three_points_in_order(tmp_path):
    p = tmp_path / "cloud.ply"
    pts = np.array([[1.0, 2.0, 3.0], [4.5, 5.5, 6.5], [-1.0, 0.0, 2.25]])
    save_ply(p, pts)
    loaded, ids = load_ply(p)
    assert ids is None
    assert np.array_equal(loaded, pts)


def test_ply_round_trip_exact_and_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    pts = rng.uniform(-1000, 1000, size=(200, 3))
    ids = rng.integers(-1, 8, size=200)
    save_ply(p1, pts, ids)
    loaded, lids = load_ply(p1)
    assert np.array_equal(loaded, pts)
    assert np.array_equal(lids, ids)
    save_ply(p2, loaded, lids)
    assert p1.read_bytes() == p2.read_bytes()


def test_ply_truncated_reports_line(tmp_path):
    p = tmp_path / "bad.ply"
    save_ply(p, np.ones((5, 3)))
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(PlyParseError) as exc:
        load_ply(p)
    assert "line" in str(exc.value)


def test_ply_rejects_binary_format(tmp_path):
    p = tmp_path / "bin.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(PlyParseError):
        load_ply(p)


def test_predictions_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pred = PerPointPrediction(
        rng.uniform(-100, 100, (50, 3)),
        rng.uniform(-100, 100, (50, 3)),
        np.stack([random_quat(rng) for _ in range(50)]),
    )
    p = tmp_path / "pred.csv"
    save_predictions_csv(p, pred)
    loaded = load_predictions_csv(p)
    assert np.array_equal(loaded.positions, pred.positions)
    assert np.array_equal(loaded.centroids, pred.centroids)
    assert np.array_equal(loaded.quats, pred.quats)
    # header contract
    assert p.read_text().splitlines()[0] == "x,y,z,cx,cy,cz,qw,qx,qy,qz"


def test_poses_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    poses = [Pose(random_quat(rng), rng.uniform(-100, 100, 3)) for _ in range(5)]
    p = tmp_path / "poses.json"
    save_poses_json(p, poses, member_counts=[10, 20, 30, 40, 50])
    loaded, counts = load_poses_json(p)
    assert counts == [10, 20, 30, 40, 50]
    for a, b in zip(poses, loaded):
        assert np.array_equal(a.quat, b.quat)
        assert np.array_equal(a.t, b.t)
    payload = json.loads(p.read_text())
    assert payload["schema_version"] == 1
    assert set(payload["poses"][0]) == {"qw", "qx", "qy", "qz", "tx", "ty", "tz",
                                        "member_count"}


def test_labels_round_trip(tmp_path):
    p = tmp_path / "labels.txt"
    labels = np.array([0, 1, 1, -1, 2, 0])
    save_labels(p, labels)
    assert np.array_equal(load_labels(p), labels)
    assert p.read_text() == "0\n1\n1\n-1\n2\n0\n"


def test_scene_json_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    poses = [Pose(random_quat(rng), rng.uniform(-100, 100, 3)) for _ in range(3)]
    t = NormalizationTransform(0.25, np.array([1.0, 2.0, 3.0]))
    p = tmp_path / "scene.json"
    save_scene_json(p, poses, [100, 90, 40], seed=7, normalization=t)
    data = load_scene_json(p)
    assert data["seed"] == 7
    assert data["n_visible"] == [100, 90, 40]
    assert data["normalization"].scale == 0.25
    for a, b in zip(poses, data["poses"]):
        assert np.array_equal(a.quat, b.quat)


def make_config(tmp_path, **overrides):
    cfg = {
        "object": {"builtin": {"kind": "box", "extents": [40, 60, 80], "pitch": 10},
                   "symmetry": {"dz_deg": 180.0}},
        "cluster": {}, "eval": {}, "synth": {}, "oracle": {},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_loads_builtin_model(tmp_path):
    cfg = load_config(make_config(tmp_path))
    assert len(cfg.model.group) == 2
    assert cfg.cluster.bandwidth_1 == 5.0
    assert cfg.eval.tolerance_mm == 5.0
    assert cfg.oracle.symmetric_ambiguity is True


def test_config_symmetry_defaults_are_zero(tmp_path):
    path = make_config(tmp_path, object={"builtin": {"kind": "box"}, "symmetry": {}})
    cfg = load_config(path)
    assert cfg.model.symmetry.dx_deg == 0.0
    assert cfg.model.symmetry.ts_deg == 15.0
    assert len(cfg.model.group) == 1


def test_config_model_file_round_trip(tmp_path):
    pts = np.array([[0.0, 0.0, -10.0], [0.0, 0.0, 10.0], [5.0, -5.0, 0.0],
                    [-5.0, 5.0, 0.0]])
    save_ply(tmp_path / "model.ply", pts)
    path = make_config(tmp_path, object={"model_path": "model.ply",
                                         "symmetry": {"dz_deg": 180.0}})
    cfg = load_config(path)
    assert cfg.model.points.shape == (4, 3)


def test_config_missing_model_file(tmp_path):
    path = make_config(tmp_path, object={"model_path": "nope.ply", "symmetry": {}})
    with pytest.raises(FileNotFoundError):
        load_config(path)


def test_config_rejects_invalid_symmetry_step(tmp_path):
    path = make_config(tmp_path, object={"builtin": {"kind": "box"},
                                         "symmetry": {"dz_deg": 7.0}})
    with pytest.raises(ValueError):
        load_config(path)


def test_config_rejects_bad_cluster_params(tmp_path):
    path = make_config(tmp_path, cluster={"bandwidth_1": 1.0, "bandwidth_2": 2.0})
    with pytest.raises(ValueError):
        load_config(path)


BOX = {"builtin": {"kind": "box", "extents": [40, 60, 80], "pitch": 10}, "symmetry": {}}


@pytest.mark.parametrize("overrides, name", [
    ({"cluster": {"bandwith_1": 99}}, "cluster.bandwith_1"),
    ({"eval": {"tolerance": 2.0}}, "eval.tolerance"),
    ({"synth": {"instance_count": [1, 2]}}, "synth.instance_count"),
    ({"oracle": {"sigma_t": 1.0}}, "oracle.sigma_t"),
    ({"object": dict(BOX, symetry={})}, "object.symetry"),
    ({"object": dict(BOX, symmetry={"dz": 180})}, "object.symmetry.dz"),
    ({"object": {"builtin": {"kind": "box", "pitchh": 10}}}, "object.builtin.pitchh"),
    ({"object": {"builtin": {"kind": "sphere", "pitch": 10}}}, "object.builtin.pitch"),
    ({"clustr": {}}, "clustr"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, overrides, name):
    from binpose.cli import main

    path = make_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=f"unknown config key.*{name}"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_value_of_wrong_type_names_its_key(tmp_path):
    path = make_config(tmp_path, cluster={"bandwidth_1": None})
    with pytest.raises(ValueError, match="cluster.bandwidth_1"):
        load_config(path)
