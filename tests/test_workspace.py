import numpy as np
import pytest

from binpose.cluster import ClusterParams, PerPointPrediction, two_stage_pipeline
from binpose.so3 import Pose, SymmetryDescriptor, random_quat
from binpose.synth import ObjectModel, OracleParams, SceneGenParams, box_cloud, \
    generate_scene, oracle_predict
from binpose.workspace import (NormalizationTransform, denormalize_pose,
                               fit_normalization, normalize_pose,
                               normalize_scene)


def test_scale_from_longest_bbox_edge():
    # slender part: bbox 32 x 92 x 1304
    pts = box_cloud((32.0, 92.0, 1304.0), 16.0)
    t = fit_normalization(pts)
    assert t.scale == pytest.approx(100.0 / 1304.0, abs=0)


def test_scale_one_when_already_100mm():
    pts = box_cloud((60.0, 80.0, 100.0), 10.0)
    assert fit_normalization(pts).scale == pytest.approx(1.0, abs=1e-12)


def test_scale_matches_naive_bbox_oracle():
    # small irregular part, bbox 38 x 41 x 56
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(400, 3)) * np.array([38.0, 41.0, 56.0])
    # pin the extents exactly
    pts[0] = (-19.0, -20.5, -28.0)
    pts[1] = (19.0, 20.5, 28.0)
    t = fit_normalization(pts)
    naive = 100.0 / max(pts[:, a].max() - pts[:, a].min() for a in range(3))
    assert t.scale == naive
    assert t.scale == pytest.approx(100.0 / 56.0)
    scaled = pts * t.scale
    assert max(scaled[:, a].max() - scaled[:, a].min() for a in range(3)) == pytest.approx(100.0)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_normalization(np.empty((0, 3)))
    with pytest.raises(ValueError):
        fit_normalization(np.zeros((5, 3)))


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_transform_rejects_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match="scale"):
        NormalizationTransform(scale, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transform_rejects_a_non_finite_offset(bad):
    offset = np.array([1.0, 2.0, 3.0])
    offset[1] = bad
    with pytest.raises(ValueError, match="scene_offset"):
        NormalizationTransform(0.5, offset)


def test_normalize_single_point_to_origin():
    cloud = np.array([[10.0, 10.0, 10.0]])
    out, t = normalize_scene(cloud, NormalizationTransform(1.0, np.zeros(3)))
    assert np.array_equal(out, np.zeros((1, 3)))
    assert np.array_equal(t.scene_offset, [10.0, 10.0, 10.0])


def test_normalized_cloud_is_centered():
    rng = np.random.default_rng(1)
    cloud = rng.uniform(-200, 500, size=(300, 3))
    out, _ = normalize_scene(cloud, NormalizationTransform(0.31, np.zeros(3)))
    assert np.abs(out.mean(axis=0)).max() < 1e-9


def test_point_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cloud = rng.uniform(-300, 300, size=(50, 3))
        t0 = NormalizationTransform(rng.uniform(0.05, 3.0), np.zeros(3))
        out, t = normalize_scene(cloud, t0)
        back = t.inverse_points(out)
        assert np.abs(back - cloud).max() < 1e-9


def test_denormalize_pose_identity_transform():
    pose = Pose([1, 0, 0, 0], [4, 5, 6])
    t = NormalizationTransform(1.0, np.zeros(3))
    out = denormalize_pose(pose, t)
    assert np.array_equal(out.quat, pose.quat)
    assert np.array_equal(out.t, pose.t)


def test_denormalize_pose_arithmetic():
    t = NormalizationTransform(0.5, np.array([1.0, 2.0, 3.0]))
    out = denormalize_pose(Pose([1, 0, 0, 0], [2.0, 2.0, 2.0]), t)
    assert np.allclose(out.t, [5.0, 6.0, 7.0], atol=0)


def test_pose_round_trip_on_posed_instances():
    rng = np.random.default_rng(3)
    model = box_cloud((30, 50, 80), 10)
    for _ in range(20):
        q = random_quat(rng)
        gt = Pose(q, rng.uniform(-100, 100, 3))
        scene_pts = gt.apply(model)
        t0 = fit_normalization(model)
        _, t = normalize_scene(scene_pts, t0)
        norm = normalize_pose(gt, t)
        back = denormalize_pose(norm, t)
        assert np.abs(back.t - gt.t).max() < 1e-9
        assert np.array_equal(back.quat, gt.quat)  # rotation untouched


def test_partition_invariant_to_normalization():
    # clustering in normalized space matches unnormalized clustering with
    # proportionally scaled bandwidths
    desc = SymmetryDescriptor(0, 0, 180, 15)
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), desc)
    params_norm = ClusterParams(bandwidth_1=5.0, bandwidth_2=2.5,
                                min_points_1=20, min_points_2=50,
                                quat_scale=20.0, convergence_tol=1e-3)
    for seed in range(10):
        scene = generate_scene(model, SceneGenParams((2, 4), (600, 600, 500)), seed=seed)
        pred = oracle_predict(scene, model, OracleParams(1.0, 2.0, True), seed=seed)
        t0 = fit_normalization(model.points)
        pos_n, t = normalize_scene(scene.points, t0)
        pred_n = PerPointPrediction(pos_n, t.forward_points(pred.centroids), pred.quats)
        res_n = two_stage_pipeline(pred_n, params_norm, model.group, model.mask, model.points)

        s = t.scale
        params_raw = ClusterParams(bandwidth_1=5.0 / s, bandwidth_2=2.5 / s,
                                   min_points_1=20, min_points_2=50,
                                   quat_scale=20.0 / s, convergence_tol=1e-3 / s)
        res_raw = two_stage_pipeline(pred, params_raw, model.group, model.mask, model.points)
        assert np.array_equal(res_n.labels, res_raw.labels)
        for a, b in zip(res_n.instances, res_raw.instances):
            raw_from_norm = denormalize_pose(a.pose, t)
            assert np.abs(raw_from_norm.t - b.pose.t).max() < 1e-6
