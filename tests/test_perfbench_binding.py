"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` times layers by replacing module attributes such
as ``binpose.cluster.rotation_distances_to_set``; a refactor that unbinds
one of them makes ``installed`` raise AttributeError here. The test only
imports ``perfbench/``.
"""

from pathlib import Path

import numpy as np

from binpose import cluster, metrics
from binpose.so3 import Pose, SymmetryGroup, quat_normalize_batch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = metrics.symmetric_pose_distance
    with tracing.installed(tracing.Tracer()) as tracer:
        assert metrics.symmetric_pose_distance is not original
        pose = Pose([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        metrics.symmetric_pose_distance(np.eye(3), pose, pose, SymmetryGroup.identity(),
                                        np.ones(3))
        cluster.rotation_distances_to_set(pose.quat, pose.quat[None], np.eye(3),
                                          SymmetryGroup.identity(), np.ones(3))
    assert metrics.symmetric_pose_distance is original
    assert tracer.counts["so3.pose_dist_calls"] == 1
    assert tracer.counts["so3.rot_dist_calls"] == 1


def test_the_vote_computes_its_rows_through_the_traced_name(monkeypatch):
    # pose_vote looks rotation_distances_to_set up on the cluster module at
    # call time, so the tracer times the exact rows of every vote
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(0)
    reps = quat_normalize_batch(rng.normal(size=(3, 4)))
    members = quat_normalize_batch(np.repeat(reps, 5, axis=0) + rng.normal(scale=0.05,
                                                                           size=(15, 4)))
    with tracing.installed(tracing.Tracer()) as tracer:
        cluster.pose_vote(np.ones(3, dtype=int), np.zeros((3, 3)), reps, members,
                          SymmetryGroup.identity(), np.ones(3),
                          rng.uniform(-50.0, 50.0, size=(30, 3)))
    assert 1 <= tracer.counts["so3.rot_dist_calls"] <= 2
