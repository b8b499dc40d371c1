"""Pose voting computes exact rows only for the candidates that can win.

``so3.rotation_distance_bounds`` bounds every candidate's row sum, and
``cluster.pose_vote`` asks ``rotation_distances_to_set`` for the rows of
the candidates whose lower bound does not exceed a known row sum. These
tests hold the vote to the exhaustive medoid (the argmin of every row
sum, ties to the first candidate) and the bounds to the computed sums.
"""

import json

import numpy as np
import pytest

from binpose import cluster
from binpose.fileio import load_config
from binpose.pipeline import run_scene
from binpose.so3 import (Pose, SymmetryDescriptor, build_axis_mask, build_symmetry_group,
                         kernel_model, matrix_to_quat, quat_from_axis_angle, quat_multiply,
                         quat_normalize_batch, quat_to_matrix, random_quat,
                         rotation_distance_bounds, rotation_distances_to_set)
from binpose.synth import cylinder_cloud

# (symmetry, model): |G| = 1, 2 and 24, a continuous z axis whose masked
# points coincide, and a sphere whose masked model is its center point
OBJECTS = {
    "none": (SymmetryDescriptor(), "box"),
    "c2": (SymmetryDescriptor(dz_deg=180), "box"),
    "cube24": (SymmetryDescriptor(90, 90, 90), "box"),
    "cylinder_z": (SymmetryDescriptor(dx_deg=180, dz_deg=1), "cylinder"),
    "sphere": (SymmetryDescriptor(1, 1, 1), "box"),
}


@pytest.fixture(params=[(name, scale) for name in sorted(OBJECTS) for scale in (1e-3, 1.0, 1e3)],
                ids=lambda p: f"{p[0]}-{p[1]:g}")
def voting_object(request):
    name, scale = request.param
    desc, shape = OBJECTS[name]
    rng = np.random.default_rng(30)
    model = (cylinder_cloud(30, 120, 6) if shape == "cylinder"
             else rng.uniform(-60.0, 60.0, size=(203, 3)))
    return build_symmetry_group(desc), build_axis_mask(desc), scale * model


def _row_sums(reps, members, group, mask, model):
    return np.array([row.sum() for row in
                     rotation_distances_to_set(reps, members, model, group, mask)])


def _exhaustive(reps, members, group, mask, model) -> int:
    return int(np.argmin(_row_sums(reps, members, group, mask, model)))


def _voted(reps, members, group, mask, model, monkeypatch, vote=None) -> int:
    """The index of the candidate ``pose_vote`` picks, read off the array
    it builds its pose from."""
    chosen = []

    def pose(quat, t):
        chosen.append(quat)
        return Pose(quat, t)

    n = len(reps)
    with monkeypatch.context() as mp:
        mp.setattr(cluster, "Pose", pose)
        (vote or cluster.pose_vote)(np.ones(n, dtype=int), np.zeros((n, 3)), reps, members,
                                    group, mask, model)
    hits = [i for i in range(n) if np.shares_memory(chosen[0], reps[i])]
    assert len(hits) == 1
    return hits[0]


def _cases(group, mask, model, rng):
    """(candidates, members) sets like stage 1's: members clustered around
    the symmetric equivalents of one rotation, candidates drawn from them,
    so one candidate equals a member (X = 0 for that pair)."""
    A = quat_to_matrix(random_quat(rng))
    equivalents = np.stack([matrix_to_quat(A @ s) for s in group.matrices])
    picks = equivalents[rng.integers(len(equivalents), size=150)]
    members = quat_normalize_batch(picks + rng.normal(scale=0.03, size=picks.shape))
    reps = members[rng.choice(len(members), size=9, replace=False)]
    best = _exhaustive(reps, members, group, mask, model)
    R = quat_to_matrix(reps[best])
    twins = np.stack([matrix_to_quat(R @ s) for s in group.matrices])
    nudged = [quat_multiply(reps[best], quat_from_axis_angle(rng.normal(size=3), a))
              for a in (1e-12, 1e-9)]
    return {
        "spread": (reps, members),
        # the same candidate twice; the first copy must win a tie
        "duplicate": (reps[[3, best, 5, best, 0]], members),
        # symmetric equivalents and near copies: rows equal but for rounding
        "near_ties": (quat_normalize_batch(np.vstack([reps[:3], twins, nudged])), members),
        "one_member": (reps[:4], members[:1]),
    }


def test_the_vote_is_the_exhaustive_medoid(voting_object, monkeypatch):
    group, mask, model = voting_object
    rng = np.random.default_rng(31)
    for _ in range(2):
        for name, (reps, members) in _cases(group, mask, model, rng).items():
            want = _exhaustive(reps, members, group, mask, model)
            assert _voted(reps, members, group, mask, model, monkeypatch) == want, name


def test_the_bounds_hold_the_computed_row_sums(voting_object):
    group, mask, model = voting_object
    rng = np.random.default_rng(32)
    for _ in range(2):
        for name, (reps, members) in _cases(group, mask, model, rng).items():
            lower, upper = rotation_distance_bounds(reps, members, model, group, mask)
            sums = _row_sums(reps, members, group, mask, model)
            assert np.all(lower <= sums) and np.all(sums <= upper), name


def _tube(radius=30.0, height=120.0, k=40):
    """Points on a cylinder's side about z: a turn about z moves every one
    of them equally far, so the Hölder bound is exact, while the chord
    bound, through r_max, is not."""
    a, z = np.meshgrid(2.0 * np.pi * np.arange(k) / k, np.linspace(-height, height, 7) / 2.0)
    return np.stack([radius * np.cos(a), radius * np.sin(a), z], axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("symmetry", ["none", "c2"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_the_bounds_are_tight_where_every_point_is_equally_far(symmetry, scale):
    # members turned about z from one rotation: each member's distance to a
    # candidate is the same at every point, so both bounds meet the sum
    group = build_symmetry_group(OBJECTS[symmetry][0])
    rng = np.random.default_rng(34)
    rep = random_quat(rng)
    members = np.stack([quat_multiply(rep, quat_from_axis_angle([0.0, 0.0, 1.0], a))
                        for a in rng.uniform(-0.5, 0.5, size=60)])
    reps = np.vstack([rep, members[:5]])
    model = scale * _tube()
    lower, upper = rotation_distance_bounds(reps, members, model, group, np.ones(3))
    sums = _row_sums(reps, members, group, np.ones(3), model)
    assert np.all(lower <= sums) and np.all(sums <= upper)
    assert np.all(lower >= (1.0 - 1e-5) * sums) and np.all(upper <= (1.0 + 1e-5) * sums)


def test_the_winner_need_not_have_the_smallest_upper_bound(monkeypatch):
    # turned about z, every tube point moves equally far, so candidate B's
    # upper bound is its sum; turned about an axis 0.1 rad off z, the points
    # move a little unequally, so candidate A's sum is 0.1% below B's while
    # its upper bound is above: B's row comes first, and A is kept by a
    # lower bound within 1.5% of B's sum
    group = build_symmetry_group(OBJECTS["none"][0])
    rng = np.random.default_rng(35)
    rep, model = random_quat(rng), _tube()
    axis, alpha = np.array([np.sin(0.1), 0.0, np.cos(0.1)]), 0.2
    from_axis = np.linalg.norm(model - np.outer(model @ axis, axis), axis=1).mean()
    beta = 2.0 * np.arcsin(np.sin(alpha / 2.0) * from_axis * (1.0 + 1e-3) / 30.0)
    reps = np.stack([quat_multiply(rep, quat_from_axis_angle(axis, alpha)),
                     quat_multiply(rep, quat_from_axis_angle([0.0, 0.0, 1.0], beta))])
    members = np.stack([rep] * 5)
    lower, upper = rotation_distance_bounds(reps, members, model, group, np.ones(3))
    sums = _row_sums(reps, members, group, np.ones(3), model)
    assert upper[1] < upper[0] and sums[0] < sums[1] and lower[0] > 0.985 * sums[1]
    assert _voted(reps, members, group, np.ones(3), model, monkeypatch) == 0


def test_bounds_of_an_empty_batch_are_zero():
    group = build_symmetry_group(OBJECTS["cube24"][0])
    reps = np.stack([random_quat(np.random.default_rng(33)) for _ in range(3)])
    lower, upper = rotation_distance_bounds(reps, np.empty((0, 4)), np.eye(3), group,
                                            np.ones(3))
    assert lower.tolist() == upper.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("mask", [[1.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                         ids=["distinct", "axis", "center"])
def test_m4_is_the_mean_of_the_outer_products_squared(mask):
    # the axis and center masks make masked points coincide, so m4 weighs
    # each distinct point by its count
    model = cylinder_cloud(30, 120, 6)
    km = kernel_model(model, mask)
    assert (km.counts is None) == (mask == [1.0, 1.0, 1.0])
    masked = model * np.asarray(mask)
    want = np.mean([np.kron(np.outer(p, p), np.outer(p, p)) for p in masked], axis=0)
    np.testing.assert_allclose(km.m4, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert kernel_model(model, mask).m4 is km.m4
    with pytest.raises(ValueError, match="read-only"):
        km.m4[0, 0] = 1.0


def _golden_config(tmp_path, name):
    from test_golden import CONFIGS

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    return load_config(path)


@pytest.mark.parametrize("name", ["cube24", "cylinder", "dense_box", "noisy_box"])
def test_every_golden_vote_is_the_exhaustive_medoid(tmp_path, monkeypatch, name):
    config = _golden_config(tmp_path, name)
    real = cluster.pose_vote
    votes = []

    def spy(counts, centroids, reps, members, group, mask, model):
        votes.append((_voted(reps, members, group, mask, model, monkeypatch, real),
                      _exhaustive(reps, members, group, mask, model)))
        return real(counts, centroids, reps, members, group, mask, model)

    monkeypatch.setattr(cluster, "pose_vote", spy)
    for seed in range(10):
        run_scene(config, seed)
    assert len(votes) >= 30
    assert [voted for voted, _ in votes] == [want for _, want in votes]


def test_cube24_votes_compute_fewer_than_half_the_rows(tmp_path, monkeypatch):
    # the golden cube24 config splits each instance into about 20 candidates
    config = _golden_config(tmp_path, "cube24")
    real_vote, real_rows = cluster.pose_vote, cluster.rotation_distances_to_set
    candidates, rows = [], []

    def vote(counts, centroids, reps, *args):
        candidates.append(len(reps))
        return real_vote(counts, centroids, reps, *args)

    def distances(reps, *args):
        rows.append(len(reps))
        return real_rows(reps, *args)

    monkeypatch.setattr(cluster, "pose_vote", vote)
    monkeypatch.setattr(cluster, "rotation_distances_to_set", distances)
    run_scene(config, 0)
    assert min(candidates) > 10
    assert 0 < sum(rows) < sum(candidates) / 2
    # the vote asks for the rows at most twice per instance
    assert len(rows) <= 2 * len(candidates)
