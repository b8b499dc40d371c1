import copy
import json
import re
import warnings

import numpy as np
import pytest
from test_golden import CONFIGS

from binpose.cluster import ClusterParams, PerPointPrediction, two_stage_pipeline
from binpose.fileio import load_config
from binpose.so3 import Pose, SymmetryDescriptor, quat_to_matrix
from binpose.synth import (ObjectModel, OracleParams, Scene, SceneGenParams,
                           SceneGenerationError, StageWarning, apply_occlusion, box_cloud,
                           cylinder_cloud, generate_scene,
                           make_crossing_rods_scene, oracle_predict, rod_model,
                           sphere_cloud)
from binpose.workspace import fit_normalization, normalize_scene

TWOFOLD = SymmetryDescriptor(0, 0, 180, 15)

# the rod (|G| = 8) in the golden 700 x 700 x 500 bin: its 400 mm bounding
# sphere leaves room for 3-4 instances, whatever the range asks for
ROD_PILE = copy.deepcopy(CONFIGS["dense_box"])
ROD_PILE["object"] = {"builtin": {"kind": "rod", "pitch": 4.0},
                      "symmetry": {"dx_deg": 180, "dz_deg": 90}}
ROD_PILE["synth"]["instance_range"] = [10, 12]


def test_object_model_recenters_and_derives_symmetry():
    pts = box_cloud((20, 40, 60), 10) + np.array([5.0, -3.0, 11.0])
    model = ObjectModel("m", pts, TWOFOLD)
    assert np.abs(model.points.mean(axis=0)).max() < 1e-9
    assert len(model.group) == 2
    assert np.array_equal(model.mask, [1.0, 1.0, 1.0])
    assert np.allclose(model.bbox, [20, 40, 60], atol=1e-9)


def test_model_cloud_builders():
    box = box_cloud((10, 20, 30), 5)
    assert box.shape[0] > 0
    # every box point is on the surface
    on_face = np.zeros(box.shape[0], dtype=bool)
    for a, e in enumerate((10, 20, 30)):
        on_face |= np.isclose(np.abs(box[:, a]), e / 2)
    assert on_face.all()
    cyl = cylinder_cloud(20, 50, 5)
    r = np.linalg.norm(cyl[:, :2], axis=1)
    assert (r <= 20 + 1e-9).all()
    sph = sphere_cloud(10, 200)
    assert np.allclose(np.linalg.norm(sph, axis=1), 10.0, atol=1e-9)
    rod = rod_model()
    assert np.allclose(rod.bbox, [10, 10, 400], atol=1e-9)


@pytest.mark.parametrize("build, names", [
    (lambda: box_cloud((40, 60, 80), 1e-3), "extents"),
    (lambda: box_cloud((40, 60, 80), 1e-200), "extents"),     # the count overflows to inf
    (lambda: box_cloud((40, 60, 80), 5e-324), "extents"),     # so do the grid sides
    (lambda: cylinder_cloud(30, 80, 1e-3), "radius"),
    (lambda: cylinder_cloud(2000, 1.0, 1.0), "radius"),    # the cap rings alone
    (lambda: cylinder_cloud(30, 80, 1e-200), "radius"),
    (lambda: cylinder_cloud(30, 80, 5e-324), "radius"),
    (lambda: sphere_cloud(40, 10 ** 12), "n_points"),
], ids=["box", "box_overflow", "box_inf", "cylinder", "cylinder_caps", "cylinder_overflow",
        "cylinder_inf", "sphere"])
def test_model_cloud_builders_reject_clouds_too_large_to_build(build, names):
    # each raises before allocating a point
    with pytest.raises(ValueError, match=f"{names}.*MAX_CLOUD_POINTS"):
        build()


def _volume_box_cloud(extents, pitch):
    """The box lattice cut from the full volume grid, as box_cloud built it
    before it built the faces directly."""
    ext = np.asarray(extents, dtype=float).reshape(3)
    sides = [max(2.0, float(np.round(e / pitch)) + 1.0) for e in ext.tolist()]
    axes = [np.linspace(-e / 2.0, e / 2.0, int(n)) for e, n in zip(ext, sides)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    on_face = np.zeros(pts.shape[0], dtype=bool)
    for a in range(3):
        on_face |= np.isclose(np.abs(pts[:, a]), ext[a] / 2.0)
    return pts[on_face]


@pytest.mark.parametrize("pitch", [0.7, 1.0, 3.0, 8.0, 9.9, 50.0])
def test_box_cloud_is_the_volume_grid_faces_bit_for_bit(pitch):
    # sides of 2 (extents below the pitch), pitches that do not divide the
    # extents, and long thin boxes, whose lines next to the ends are close
    # enough to the half extent to count as faces
    for ext in [(0.3, 1.0, 4.0), (4.0, 7.5, 40.0), (40.0, 120.0, 160.0), (80.0, 80.0, 80.0),
                (123.4, 0.5, 33.3), (2e5 * pitch, pitch, 2.0 * pitch)]:
        want, got = _volume_box_cloud(ext, pitch), box_cloud(ext, pitch)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), ext


def test_box_cloud_counts_the_points_it_builds(monkeypatch):
    from binpose import synth

    # 161^3 = 4.17M grid points, under the limit before, give 154k on the faces
    assert box_cloud((160.0, 160.0, 160.0), 1.0).shape == (161 ** 3 - 159 ** 3, 3)
    monkeypatch.setattr(synth, "MAX_CLOUD_POINTS", 161 ** 3 - 159 ** 3)
    assert box_cloud((160.0, 160.0, 160.0), 1.0).shape[0] == synth.MAX_CLOUD_POINTS
    # at 200001 x lines the two next to each end are close enough to the half
    # extent to be faces too: they hold all 5 x 5 (y, z) points, not the ring
    # of 16, so the cloud has 18 points more than its end lines give
    ends_only = 2 * 25 + 199999 * 16
    monkeypatch.setattr(synth, "MAX_CLOUD_POINTS", ends_only + 17)
    with pytest.raises(ValueError, match="would build 3.2e\\+06 points"):
        box_cloud((2e5, 4.0, 4.0), 1.0)


# ---------------------------------------------------------------------------
# scene generation


def test_single_instance_scene():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((1, 1), (300, 300, 300)), seed=0)
    assert len(scene.instances) == 1
    assert scene.points.shape[0] == model.points.shape[0]
    assert scene.instances[0].n_visible == model.points.shape[0]


def test_scene_determinism():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    params = SceneGenParams((3, 6), (500, 500, 400))
    a = generate_scene(model, params, seed=11)
    b = generate_scene(model, params, seed=11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    for ia, ib in zip(a.instances, b.instances):
        assert np.array_equal(ia.pose.quat, ib.pose.quat)
        assert np.array_equal(ia.pose.t, ib.pose.t)


def test_sphere_packing_respects_bounding_radius():
    r = 25.0
    model = ObjectModel("sphere", sphere_cloud(r, 300), SymmetryDescriptor(1, 1, 1, 15))
    params = SceneGenParams((10, 10), (5 * r, 5 * r, 60 * r), max_attempts=200)
    scene = generate_scene(model, params, seed=1)
    centers = [inst.pose.t for inst in scene.instances]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            assert np.linalg.norm(centers[i] - centers[j]) >= 2 * r - 1e-9


def test_scene_labels_partition_points():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((4, 7), (500, 500, 400)), seed=2)
    total = 0
    for i, inst in enumerate(scene.instances):
        assert np.all(scene.labels[inst.point_indices] == i)
        total += inst.n_visible
    assert total == scene.points.shape[0]
    assert sum(scene.visible_counts()) == scene.points.shape[0]


def test_generation_failure_when_bin_too_small():
    model = ObjectModel("m", box_cloud((100, 100, 100), 25), TWOFOLD)
    tiny = SceneGenParams((1, 1), (300, 300, 10), max_attempts=5)
    with pytest.raises(SceneGenerationError):
        generate_scene(model, tiny, seed=0)


def load_config_at(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return load_config(path)


def test_a_full_bin_warns_how_many_instances_it_placed(tmp_path):
    cfg = load_config_at(tmp_path, ROD_PILE)
    for seed in range(3):
        with pytest.warns(StageWarning) as caught:
            scene = generate_scene(cfg.model, cfg.synth, seed)
        placed, requested = map(int, re.fullmatch(
            r"the bin is full: placed (\d+) of (\d+) instances", str(caught[0].message)).groups())
        assert len(caught) == 1 and placed == len(scene.poses) in (3, 4)
        assert 10 <= requested <= 12


def test_the_golden_configs_fill_no_bin(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", StageWarning)
        for name in sorted(CONFIGS):
            cfg = load_config_at(tmp_path, CONFIGS[name])
            for seed in range(30):
                scene = generate_scene(cfg.model, cfg.synth, seed)
                assert 3 <= len(scene.poses) <= 5


@pytest.mark.parametrize("kwargs, field", [
    ({"instance_range": (2.5, 4)}, "instance_range"),
    ({"instance_range": (2, 4.0)}, "instance_range"),
    ({"instance_range": (True, 4)}, "instance_range"),
    ({"max_attempts": 60.5}, "max_attempts"),
    ({"max_attempts": np.float64(60.0)}, "max_attempts"),
    ({"max_attempts": "60"}, "max_attempts"),
])
def test_scene_params_integer_fields_reject_other_values(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SceneGenParams(**kwargs)


def test_scene_params_take_numpy_integers():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    a = generate_scene(model, SceneGenParams((3, 6), (500, 500, 400), max_attempts=60), seed=11)
    b = generate_scene(model, SceneGenParams((np.int64(3), np.int32(6)), (500, 500, 400),
                                             max_attempts=np.int64(60)), seed=11)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# occlusion


def test_occlusion_keeps_single_flat_instance():
    # one plate-like instance with depth tolerance exceeding its thickness
    model = ObjectModel("plate", box_cloud((80, 80, 4), 4), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((1, 1), (300, 300, 300)), seed=3)
    occluded = apply_occlusion(scene, cell=5.0, depth=200.0)
    assert occluded.points.shape[0] == scene.points.shape[0]
    assert occluded.visible_counts() == scene.visible_counts()


def test_occlusion_buries_lower_plate():
    # two plates stacked directly: the lower one loses most points and
    # falls below the visibility threshold
    from binpose.metrics import count_visible_gt
    from binpose.so3 import Pose
    from binpose.synth import Scene
    plate = box_cloud((80, 80, 4), 4)
    lower = plate + np.array([0.0, 0.0, 10.0])
    upper = plate + np.array([0.0, 0.0, 20.0])
    pts = np.concatenate([lower, upper])
    labels = np.concatenate([np.zeros(len(plate), dtype=int),
                             np.ones(len(plate), dtype=int)])
    scene = Scene(points=pts, labels=labels, poses=[
        Pose([1, 0, 0, 0], [0, 0, 10.0]), Pose([1, 0, 0, 0], [0, 0, 20.0])])
    occluded = apply_occlusion(scene, cell=5.0, depth=5.0)
    counts = occluded.visible_counts()
    assert counts[1] == len(plate)               # top plate fully visible
    assert counts[0] == 0                        # bottom plate buried
    n, keep = count_visible_gt(counts, 0.4)
    assert n == 1 and keep == [1]


def test_scene_instances_are_a_read_only_view_of_the_labels():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = apply_occlusion(generate_scene(model, SceneGenParams((4, 6), (500, 500, 400)),
                                           seed=4), 5.0, 10.0)
    with pytest.raises(AttributeError):
        scene.instances.append(scene.instances[0])
    assert len(scene.instances) == len(scene.poses)
    assert all(inst.pose is pose for inst, pose in zip(scene.instances, scene.poses))
    for i, inst in enumerate(scene.instances):
        assert np.array_equal(inst.point_indices, np.flatnonzero(scene.labels == i))


def test_occlusion_infinite_depth_removes_nothing():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((4, 6), (500, 500, 400)), seed=4)
    occluded = apply_occlusion(scene, cell=5.0, depth=1e9)
    assert np.array_equal(occluded.points, scene.points)
    assert occluded.visible_counts() == scene.visible_counts()


def test_occlusion_matches_per_point_reference():
    # per xy cell, keep the points within depth of the cell's highest point
    model = ObjectModel("m", box_cloud((40, 120, 160), 10), TWOFOLD)
    for seed in range(5):
        scene = generate_scene(model, SceneGenParams((3, 5), (700, 700, 500)), seed=seed)
        pts = scene.points
        ij = np.floor((pts[:, :2] - pts[:, :2].min(axis=0)) / 5.0).astype(int)
        keys = [(i, j) for i, j in ij]
        top = {}
        for k, z in zip(keys, pts[:, 2]):
            top[k] = max(top.get(k, -np.inf), z)
        keep = np.array([z >= top[k] - 10.0 for k, z in zip(keys, pts[:, 2])])
        occluded = apply_occlusion(scene, cell=5.0, depth=10.0)
        assert 0 < keep.sum() < keep.shape[0]
        assert np.array_equal(occluded.points, pts[keep])
        assert np.array_equal(occluded.labels, scene.labels[keep])


# ---------------------------------------------------------------------------
# crossing rods


def test_crossing_rods_geometry():
    model = rod_model(pitch=8.0)
    scene = make_crossing_rods_scene(0.0, 90.0, model)
    t0, t1 = scene.instances[0].pose.t, scene.instances[1].pose.t
    assert np.array_equal(t0, t1)                # coincident centroids
    R0, R1 = scene.instances[0].pose.rotation, scene.instances[1].pose.rotation
    a0 = R0 @ np.array([0.0, 0.0, 1.0])          # long axes in the scene
    a1 = R1 @ np.array([0.0, 0.0, 1.0])
    assert abs(np.dot(a0, a1)) < 1e-9            # 90 degrees apart


def test_crossing_rods_separation_and_disjointness():
    model = rod_model(pitch=8.0)
    scene = make_crossing_rods_scene(3.0, 60.0, model)
    t0, t1 = scene.instances[0].pose.t, scene.instances[1].pose.t
    assert np.linalg.norm(t1 - t0) == pytest.approx(3.0, abs=1e-12)
    angle = np.degrees(np.arccos(np.clip(np.dot(
        scene.instances[0].pose.rotation @ [0, 0, 1],
        scene.instances[1].pose.rotation @ [0, 0, 1]), -1, 1)))
    assert angle == pytest.approx(60.0, abs=1e-9)
    # separation beyond the rod length leaves the clouds disjoint
    far = make_crossing_rods_scene(450.0, 60.0, model)
    a = far.points[far.labels == 0]
    b = far.points[far.labels == 1]
    gap = np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))
    assert gap > 0.0


# ---------------------------------------------------------------------------
# oracle


def test_oracle_perfect_predictions():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((2, 3), (400, 400, 400)), seed=5)
    pred = oracle_predict(scene, model, OracleParams(0.0, 0.0, False), seed=5)
    for i, inst in enumerate(scene.instances):
        idx = inst.point_indices
        assert np.abs(pred.centroids[idx] - inst.pose.t).max() < 1e-12
        assert np.abs(pred.quats[idx] - inst.pose.quat).max() < 1e-9


def test_oracle_determinism():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (400, 400, 400)), seed=6)
    p1 = oracle_predict(scene, model, OracleParams(1.0, 2.0, True, 0.1), seed=6)
    p2 = oracle_predict(scene, model, OracleParams(1.0, 2.0, True, 0.1), seed=6)
    assert np.array_equal(p1.centroids, p2.centroids)
    assert np.array_equal(p1.quats, p2.quats)
    assert np.array_equal(p1.positions, p2.positions)


def test_oracle_ambiguity_emits_two_modes():
    model = ObjectModel("m", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((1, 1), (300, 300, 300)), seed=7)
    pred = oracle_predict(scene, model, OracleParams(0.0, 0.0, True), seed=7)
    inst = scene.instances[0]
    R_gt = inst.pose.rotation
    # classify each per-point rotation against the two equivalents
    hits = [0, 0]
    for q in pred.quats:
        R = quat_to_matrix(q)
        d0 = np.abs(R - R_gt).max()
        d1 = np.abs(R - R_gt @ model.group.matrices[1]).max()
        assert min(d0, d1) < 1e-9
        hits[0 if d0 < d1 else 1] += 1
    assert hits[0] > 0 and hits[1] > 0


def test_oracle_centroid_noise_obeys_clt_bound():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (400, 400, 400)), seed=8)
    sigma = 1.0
    pred = oracle_predict(scene, model, OracleParams(sigma, 0.0, False), seed=8)
    for inst in scene.instances:
        idx = inst.point_indices
        m = idx.shape[0]
        mean_err = np.linalg.norm(pred.centroids[idx].mean(axis=0) - inst.pose.t)
        assert mean_err < 3.0 * sigma * np.sqrt(3) / np.sqrt(m)


def test_oracle_outliers_replace_fraction():
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (400, 400, 400)), seed=9)
    pred = oracle_predict(scene, model, OracleParams(0.0, 0.0, False, 0.3), seed=9)
    err = np.linalg.norm(pred.centroids - np.concatenate(
        [np.tile(i.pose.t, (i.n_visible, 1)) for i in scene.instances]), axis=1)
    frac = float((err > 1e-9).mean())
    assert 0.2 < frac < 0.4


def test_oracle_gives_points_without_a_pose_outlier_predictions():
    # ids 2 and -1 have no pose: their points belong to no instance
    poses = [Pose([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 5.0]),
             Pose([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 9.0])]
    scene = Scene(points=np.arange(18.0).reshape(6, 3), labels=np.array([0, 2, 1, 2, 0, -1]),
                  poses=poses)
    model = ObjectModel("m", box_cloud((30, 40, 50), 10), TWOFOLD)
    runs = []
    for garbage in (np.nan, 1e300):
        # freed buffers of the prediction arrays' sizes, which np.empty may reuse
        np.full((6, 3), garbage), np.full((6, 4), garbage)
        runs.append(oracle_predict(scene, model, OracleParams(0.0, 0.0, False), seed=4,
                                   bin_extents=(400.0, 300.0, 200.0)))
    a, b = runs
    assert np.array_equal(a.centroids, b.centroids) and np.array_equal(a.quats, b.quats)
    assert np.array_equal(a.centroids[[0, 2, 4]], [[0.0, 0.0, 5.0], [0.0, 0.0, 9.0],
                                                   [0.0, 0.0, 5.0]])
    outliers = a.centroids[[1, 3, 5]]
    assert (np.abs(outliers) <= [200.0, 150.0, 200.0]).all() and (outliers[:, 2] >= 0.0).all()
    assert np.abs(np.linalg.norm(a.quats, axis=1) - 1.0).max() < 1e-12


def test_oracle_canonicalization_matches_old_canonical_batch():
    from binpose.so3 import quat_multiply_batch, quat_normalize_batch

    def sign(q):
        if q[0] < 0.0:
            return -q + 0.0
        if q[0] == 0.0:
            for c in q[1:]:
                if c != 0.0:
                    return q if c > 0.0 else -q + 0.0
        return q

    def reference(q):
        # quat_canonical_batch, the oracle's own canonicalizer before it
        # went through quat_normalize_batch
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        flip = q[:, 0] < 0.0
        q[flip] = -q[flip]
        for i in np.nonzero(q[:, 0] == 0.0)[0]:
            q[i] = sign(q[i])
        return q

    def oracle(q):
        # what oracle_predict does at both of its call sites
        return quat_normalize_batch(q / np.linalg.norm(q, axis=1, keepdims=True))

    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(2, 50000, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    products = quat_multiply_batch(a, b)             # the oracle's instance rows
    assert np.array_equal(oracle(products).view(np.uint64),
                          reference(products).view(np.uint64))

    raw = rng.normal(size=(50000, 4))                # the oracle's outlier rows
    raw[:2000, 0] = 0.0                              # w == 0
    raw[2000:3000, 0] = -0.0                         # w == -0
    raw[3000:4000, :2] = [0.0, -0.0]                 # w == 0, x == -0
    raw[4000:5000, 2] = -0.0                         # negative zeros
    raw[5000:6000, 3] = 0.0                          # zero components
    got, expected = oracle(raw), reference(raw)
    assert np.array_equal(got, expected)
    # the bits match except where the old flip of a w < 0 row turned a
    # +0.0 component into -0.0; quat_normalize_batch writes +0.0 there
    differs = got.view(np.uint64) != expected.view(np.uint64)
    assert differs.any()
    assert np.array_equal(np.signbit(got), np.signbit(expected) & ~differs)
    assert (expected[differs] == 0.0).all() and np.signbit(expected[differs]).all()
    assert (raw[differs.any(axis=1), 0] < 0.0).all()
    assert (raw[differs] == 0.0).all() and not np.signbit(raw[differs]).any()


def test_stage1_count_matches_symmetry_multiplicity():
    # with per-point symmetric ambiguity the first stage splits every
    # instance into exactly one cluster per symmetry rotation
    model = ObjectModel("m", box_cloud((40, 120, 160), 10), TWOFOLD)
    for seed in range(20):
        scene = generate_scene(model, SceneGenParams((3, 5), (700, 700, 500)), seed=seed)
        pred = oracle_predict(scene, model, OracleParams(0.5, 1.0, True), seed=seed)
        t0 = fit_normalization(model.points)
        pos_n, t = normalize_scene(pred.positions, t0)
        pred_n = PerPointPrediction(pos_n, t.forward_points(pred.centroids), pred.quats)
        res = two_stage_pipeline(pred_n, ClusterParams(), model.group, model.mask,
                                 model.points)
        assert len(res.stage1) == len(scene.instances) * len(model.group)
        assert len(res.instances) == len(scene.instances)
