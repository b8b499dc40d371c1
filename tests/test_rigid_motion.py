"""A rigid motion of a whole scene moves the estimated poses with it and
keeps the scores: the README config with its clean oracle, scene seeds
0-5, four motions per scene drawn up front."""

from pathlib import Path

import numpy as np
import pytest

from binpose.cluster import PerPointPrediction
from binpose.fileio import load_config
from binpose.metrics import evaluate
from binpose.pipeline import estimate_poses, predict, synthesize
from binpose.so3 import (Pose, quat_multiply, quat_multiply_batch, quat_to_matrix,
                         random_quat, symmetric_pose_distance)

SEEDS = range(6)
MOTIONS_PER_SCENE = 4
POSE_TOL_MM = 0.5      # an order below the 5 mm evaluation tolerance

_rng = np.random.default_rng(0)
MOTIONS = [(random_quat(_rng), _rng.uniform(-500.0, 500.0, size=3))
           for _ in range(len(SEEDS) * MOTIONS_PER_SCENE)]


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A minimal config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(block)
    return load_config(path)


@pytest.fixture(scope="module")
def scene_runs():
    return {}


def _estimate_and_score(config, pred, gt, counts):
    model = config.model
    _, poses = estimate_poses(config, pred)
    return poses, evaluate(poses, gt, counts, model.points, model.group, model.mask,
                           config.eval)


def _move(pose: Pose, q, t) -> Pose:
    return Pose(quat_multiply(q, pose.quat), quat_to_matrix(q) @ pose.t + t)


# (seed, motion) -> why the case fails today
KNOWN_FAILURES = {
    (0, 2): "seed 0, motion 2: the moved scene's stage 1 splits a 251-point cluster into "
            "210 + 34 points, as the sign-canonical quaternion feature is discontinuous "
            "(ROADMAP item 1), and one voted pose moves 0.83 mm off its moved original",
}


@pytest.mark.parametrize("seed, motion", [
    pytest.param(s, k, marks=pytest.mark.xfail(reason=KNOWN_FAILURES[s, k]))
    if (s, k) in KNOWN_FAILURES else (s, k)
    for s in SEEDS for k in range(MOTIONS_PER_SCENE)])
def test_rigid_motion_moves_the_poses_and_keeps_the_scores(config, scene_runs, seed, motion):
    if seed not in scene_runs:
        scene = synthesize(config, seed)
        pred = predict(config, scene, seed)
        gt, counts = scene.gt_poses(), scene.visible_counts()
        scene_runs[seed] = pred, gt, counts, _estimate_and_score(config, pred, gt, counts)
    pred, gt, counts, (poses, report) = scene_runs[seed]

    q, t = MOTIONS[seed * MOTIONS_PER_SCENE + motion]
    R = quat_to_matrix(q)
    moved_pred = PerPointPrediction(pred.positions @ R.T + t, pred.centroids @ R.T + t,
                                    quat_multiply_batch(q, pred.quats))
    moved_poses, moved_report = _estimate_and_score(config, moved_pred,
                                                    [_move(p, q, t) for p in gt], counts)

    def scores(r):
        return r.n_gt, r.n_pred, r.tp, r.matched_points
    assert scores(moved_report) == scores(report)
    # instances may come out in another order: each estimate on the moved
    # scene lies within the tolerance of its own moved original
    model = config.model
    d = np.array([[symmetric_pose_distance(model.points, _move(pose, q, t), moved,
                                           model.group, model.mask)[1] for pose in poses]
                  for moved in moved_poses])
    assert sorted(d.argmin(axis=1)) == list(range(len(poses)))
    assert d.min(axis=1).max() <= POSE_TOL_MM
