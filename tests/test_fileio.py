import dataclasses
import json

import numpy as np
import pytest

from binpose.cluster import ClusterParams, PerPointPrediction
from binpose.fileio import (WRITE_BLOCK, PlyParseError, load_config, load_labels,
                            load_ply, load_poses_json, load_predictions_csv,
                            load_scene_json, save_labels, save_ply,
                            save_poses_json, save_predictions_csv,
                            save_scene_json)
from binpose.losses import LossWeights
from binpose.metrics import EvalConfig
from binpose.so3 import Pose, SymmetryDescriptor, random_quat
from binpose.synth import OracleParams, SceneGenParams


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
    p = tmp_path / "scene.json"
    save_scene_json(p, poses, [100, 90, 40], seed=7)
    data = load_scene_json(p)
    assert data["seed"] == 7
    assert data["n_visible"] == [100, 90, 40]
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


@pytest.mark.parametrize("mp1, mp2", [(0, 0), (-3, -1), (0, 50)])
def test_config_rejects_min_points_1_below_one(tmp_path, capsys, mp1, mp2):
    from binpose.cli import main

    path = make_config(tmp_path, cluster={"min_points_1": mp1, "min_points_2": mp2})
    with pytest.raises(ValueError, match="min_points_1"):
        load_config(path)
    assert main(["cluster", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "min_points_1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    ({"object": {"builtin": {"kind": "box", "name": "widget"}}}, "object.builtin.name"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, overrides, name):
    from binpose.cli import main

    path = make_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=f"unknown config key.*{name}"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_rejects_two_model_sources(tmp_path, capsys):
    from binpose.cli import main

    save_ply(tmp_path / "model.ply", np.array([[0.0, 0.0, -10.0], [0.0, 0.0, 10.0]]))
    path = make_config(tmp_path, object={"model_path": "model.ply",
                                         "builtin": {"kind": "box"}})
    with pytest.raises(ValueError, match="exactly one of 'model_path' or 'builtin'"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "[synth]" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_a_non_finite_model(tmp_path, capsys, bad):
    from binpose.cli import main

    save_ply(tmp_path / "model.ply", np.array([[0.0, 0.0, -10.0], [0.0, bad, 10.0]]))
    path = make_config(tmp_path, object={"model_path": "model.ply"})
    with pytest.raises(ValueError, match="object model 'model.ply' has non-finite points"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "[synth] object model 'model.ply' has non-finite points" in capsys.readouterr().err


def test_config_object_name_names_every_model(tmp_path):
    save_ply(tmp_path / "model.ply", np.array([[0.0, 0.0, -10.0], [0.0, 0.0, 10.0]]))
    for obj, name in [({"builtin": {"kind": "cylinder"}}, "cylinder"),
                      ({"name": "widget", "builtin": {"kind": "box"}}, "widget"),
                      ({"model_path": "model.ply"}, "model.ply"),
                      ({"name": "widget", "model_path": "model.ply"}, "widget")]:
        assert load_config(make_config(tmp_path, object=obj)).model.name == name


def test_config_value_of_wrong_type_names_its_key(tmp_path):
    path = make_config(tmp_path, cluster={"bandwidth_1": None})
    with pytest.raises(ValueError, match="cluster.bandwidth_1"):
        load_config(path)


@pytest.mark.parametrize("obj, key", [
    ({"model_path": 5}, "object.model_path"),
    ({"builtin": {"kind": [1]}}, "object.builtin.kind"),
    ({"name": 5, "builtin": {"kind": "box"}}, "object.name"),
], ids=["model_path", "kind", "name"])
def test_config_string_of_wrong_type_names_its_key(tmp_path, capsys, obj, key):
    from binpose.cli import main

    path = make_config(tmp_path, object=obj)
    with pytest.raises(ValueError, match=f"config key {key}: expected a string"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key, expected", [
    ({"object": dict(BOX, symmetry={"dz_deg": True})}, "object.symmetry.dz_deg", "a number"),
    ({"oracle": {"symmetric_ambiguity": "false"}}, "oracle.symmetric_ambiguity", "a boolean"),
    ({"oracle": {"symmetric_ambiguity": 1}}, "oracle.symmetric_ambiguity", "a boolean"),
    ({"cluster": {"min_points_1": 20.7}}, "cluster.min_points_1", "an integer"),
    ({"object": {"builtin": {"kind": "sphere", "n_points": 100.9}}},
     "object.builtin.n_points", "an integer"),
    ({"synth": {"instance_range": "35"}}, "synth.instance_range", "a list of 2 values"),
    ({"synth": {"instance_range": [3, 4.5]}}, "synth.instance_range", "an integer"),
    ({"synth": {"bin_extents": [700, 700]}}, "synth.bin_extents", "a list of 3 values"),
    ({"cluster": {"bandwidth_1": True}}, "cluster.bandwidth_1", "a number"),
    ({"cluster": {"bandwidth_1": "5.0"}}, "cluster.bandwidth_1", "a number"),
    ({"cluster": {"bandwidth_1": 10 ** 400}}, "cluster.bandwidth_1", "too large"),
], ids=["bool-as-float", "string-as-bool", "int-as-bool", "fraction-as-int",
        "fraction-as-builtin-int", "string-as-tuple", "tuple-element", "tuple-length",
        "bool-as-bandwidth", "string-as-float", "int-overflows-float"])
def test_config_value_of_wrong_json_type_names_its_key(tmp_path, capsys, overrides, key,
                                                       expected):
    from binpose.cli import main

    path = make_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=f"config key {key}: .*{expected}"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_integral_numbers_load_as_their_keys_type(tmp_path):
    cfg = load_config(make_config(tmp_path, synth={"instance_range": [3, 5.0],
                                                   "bin_extents": [700, 700, 500]},
                                  cluster={"min_points_1": 20.0}))
    assert cfg.synth.instance_range == (3, 5) and cfg.cluster.min_points_1 == 20
    assert all(type(v) is float for v in cfg.synth.bin_extents)
    assert type(cfg.model.symmetry.dz_deg) is float
    assert all(type(v) is int for v in (*cfg.synth.instance_range, cfg.cluster.min_points_1))


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
              "property float y\nproperty float z\nproperty int instance_id\nend_header\n")


@pytest.mark.parametrize("rows, line", [
    (["1 2 3 0", "4 5 6", "7 8 9 1"], 10),        # short row
    (["1 2 3 0", "", "4 5 6 1"], 10),             # blank row
    (["1 2 3 0", "4 5 6 1", "7 8 9 1.5"], 11),    # non-integer id
    (["1 2 3 0", "4 x 6 1", "7 8 9 1"], 10),      # bad float
], ids=["short", "blank", "float-id", "bad-float"])
def test_ply_bad_row_names_its_line(tmp_path, rows, line):
    p = tmp_path / "bad.ply"
    p.write_text(PLY_HEADER + "\n".join(rows) + "\n")
    with pytest.raises(PlyParseError) as exc:
        load_ply(p)
    assert exc.value.line == line


def test_ply_and_csv_rows_keep_the_float_grammar(tmp_path):
    # rows the one-call parse rejects but float() accepts still load
    p = tmp_path / "a.ply"
    p.write_text(PLY_HEADER + "1_0 2 3 0\n4 5 6 1 9\n7 8 9 -1\n")
    pts, ids = load_ply(p)
    assert pts.tolist() == [[10.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    assert ids.tolist() == [0, 1, -1]
    c = tmp_path / "a.csv"
    c.write_text("x,y,z,cx,cy,cz,qw,qx,qy,qz\n1_0,2,3,4,5,6,1,0,0,0\n\n")
    assert load_predictions_csv(c).positions.tolist() == [[10.0, 2.0, 3.0]]


def test_writers_format_every_value_with_repr(tmp_path):
    n = 2 * WRITE_BLOCK + 1     # two full blocks of rows and a one-row block
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1000, 1000, size=(n, 3))
    pts[0] = [-0.0, 1e-300, np.pi]
    ids = rng.integers(-1, 8, size=n)
    save_ply(tmp_path / "a.ply", pts, ids)
    body = (tmp_path / "a.ply").read_text().split("end_header\n")[1]
    assert body == "".join(f"{repr(float(x))} {repr(float(y))} {repr(float(z))} {int(i)}\n"
                           for (x, y, z), i in zip(pts, ids))
    pred = PerPointPrediction(pts, pts[::-1], np.stack([random_quat(rng) for _ in range(n)]))
    save_predictions_csv(tmp_path / "a.csv", pred)
    rows = (tmp_path / "a.csv").read_text().splitlines()[1:]
    assert rows == [",".join(repr(float(v)) for v in list(p) + list(c) + list(q))
                    for p, c, q in zip(pred.positions, pred.centroids, pred.quats)]


@pytest.mark.parametrize("overrides, key", [
    ({"eval": {"tolerance_mm": float("nan")}}, "eval.tolerance_mm"),
    ({"eval": {"tolerance_mm": float("inf")}}, "eval.tolerance_mm"),
    ({"cluster": {"convergence_tol": float("nan")}}, "cluster.convergence_tol"),
    ({"cluster": {"max_iters": float("inf")}}, "cluster.max_iters"),
    ({"synth": {"occlusion_cell": float("nan")}}, "synth.occlusion_cell"),
    ({"synth": {"instance_range": [3, float("inf")]}}, "synth.instance_range"),
    ({"oracle": {"sigma_t_mm": -float("inf")}}, "oracle.sigma_t_mm"),
    ({"object": dict(BOX, symmetry={"ts_deg": float("nan")})}, "object.symmetry.ts_deg"),
    ({"object": {"builtin": {"kind": "box", "pitch": float("nan")}}}, "object.builtin.pitch"),
], ids=["tol-nan", "tol-inf", "conv-nan", "iters-inf", "cell-nan", "range-inf",
        "sigma-neg-inf", "ts-nan", "pitch-nan"])
def test_config_rejects_non_finite_numbers(tmp_path, capsys, overrides, key):
    # json.load reads the NaN, Infinity and -Infinity literals json.dumps writes here
    from binpose.cli import main

    path = make_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=f"config key {key}: .* is not finite"):
        load_config(path)
    assert main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _numeric_field_cases():
    """One case per number of every parameter dataclass (per element of a
    tuple field): the class and a builder of its keyword arguments."""
    cases = []
    for cls in (ClusterParams, EvalConfig, SceneGenParams, OracleParams, LossWeights,
                SymmetryDescriptor):
        for f in dataclasses.fields(cls):
            if isinstance(f.default, tuple):
                cases += [pytest.param(cls, lambda v, f=f, i=i: {
                    f.name: f.default[:i] + (v,) + f.default[i + 1:]},
                    id=f"{cls.__name__}.{f.name}[{i}]") for i in range(len(f.default))]
            elif type(f.default) in (int, float):
                cases.append(pytest.param(cls, lambda v, f=f: {f.name: v},
                                          id=f"{cls.__name__}.{f.name}"))
    return cases


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, kwargs", _numeric_field_cases())
def test_parameter_dataclasses_reject_non_finite_numbers(cls, kwargs, bad):
    # load_config rejects these before a dataclass sees them; the Python API does not
    with pytest.raises(ValueError):
        cls(**kwargs(bad))


@pytest.mark.parametrize("overrides, section", [
    ({"object": 5}, "object"),
    ({"cluster": [1, 2]}, "cluster"),
    ({"eval": None}, "eval"),
    ({"object": dict(BOX, symmetry=180)}, "object.symmetry"),
    ({"object": {"builtin": "box"}}, "object.builtin"),
], ids=["object", "cluster", "eval", "symmetry", "builtin"])
def test_config_rejects_a_section_that_is_not_an_object(tmp_path, capsys, overrides, section):
    from binpose.cli import main

    path = make_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=f"config section {section} must be a JSON object"):
        load_config(path)
    assert main(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert section in capsys.readouterr().err


def test_config_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="top level"):
        load_config(path)


@pytest.mark.parametrize("element", ["element vertex", "element", "element vertex 2.5",
                                     "element vertex three", "element vertex -1"],
                         ids=["no-count", "bare", "float", "word", "negative"])
def test_ply_bad_element_count_names_its_line(tmp_path, capsys, element):
    from binpose.cli import main

    p = tmp_path / "model.ply"
    p.write_text(PLY_HEADER.replace("element vertex 3", element) + "1 2 3 0\n")
    with pytest.raises(PlyParseError) as exc:
        load_ply(p)
    assert exc.value.line == 3
    path = make_config(tmp_path, object={"model_path": "model.ply", "symmetry": {}})
    assert main(["cluster", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "line 3" in capsys.readouterr().err


CSV_ROW = "1,2,3,4,5,6,1,0,0,0"


@pytest.mark.parametrize("rows, line", [
    ([CSV_ROW, "1,2,3,4,5,6,1,0,0"], 3),          # short row
    ([CSV_ROW, CSV_ROW + ",7"], 3),                # long row
    ([CSV_ROW, "", "1,2,x,4,5,6,1,0,0,0"], 4),     # bad float after a blank line
    (["1_0,2,3,4,5,6,1,0,0,0", "1,2,3"], 3),       # the slow scan finds the short row
], ids=["short", "long", "bad-float", "short-after-underscore"])
def test_predictions_csv_bad_row_names_its_line(tmp_path, capsys, rows, line):
    from binpose.cli import main

    p = tmp_path / "predictions.csv"
    p.write_text("x,y,z,cx,cy,cz,qw,qx,qy,qz\n" + "\n".join(rows) + "\n")
    with pytest.raises(PlyParseError) as exc:
        load_predictions_csv(p)
    assert exc.value.line == line
    assert main(["cluster", "--config", str(make_config(tmp_path)),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


POSE = {"qw": 1.0, "qx": 0.0, "qy": 0.0, "qz": 0.0, "tx": 0.0, "ty": 0.0, "tz": 0.0}


@pytest.mark.parametrize("payload, message", [
    ({"poses": [{"qw": 1.0}]}, "poses[0] is missing key 'qx'"),
    ({"schema_version": 1}, "missing key 'poses'"),
    ([1, 2], "expected a JSON object"),
    ({"poses": {"qw": 1.0}}, "key 'poses' must be a list"),
    ({"poses": [POSE, 3]}, "poses[1]"),
    ({"poses": [dict(POSE, tz="far")]}, "poses[0]"),
])
def test_bad_poses_json_names_the_file_and_key(tmp_path, payload, message):
    p = tmp_path / "poses.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as e:
        load_poses_json(p)
    assert message in str(e.value) and str(p) in str(e.value)


@pytest.mark.parametrize("payload, message", [
    ({"seed": 0, "poses": [POSE]}, "missing key 'n_visible'"),
    ({"seed": 0, "n_visible": [10]}, "missing key 'poses'"),
    ({"seed": 0, "poses": [POSE], "n_visible": 10}, "key 'n_visible' must be a list"),
    ({"seed": 0, "poses": [{"qw": 1.0}], "n_visible": [10]}, "poses[0] is missing key 'qx'"),
    ("scene", "expected a JSON object"),
] + [({"seed": 0, "poses": [POSE, POSE], "n_visible": [count, 10]},
      "n_visible[0] must be an integer >= 0") for count in (True, -5, 0.5, "7", None, 537.0)
] + [({"poses": [POSE], "n_visible": [10]}, "missing key 'seed'")
] + [({"seed": seed, "poses": [POSE], "n_visible": [10]},
      "key 'seed' must be an integer or null") for seed in (True, 2.0, "3", [1])])
def test_bad_scene_json_names_the_file_and_key(tmp_path, payload, message):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as e:
        load_scene_json(p)
    assert message in str(e.value) and str(p) in str(e.value)

