"""Pose voting computes exact rows only for the candidates that can win.

``cluster.pose_vote`` makes one ``rotation_distances_to_set`` call, whose
bound pass (``so3._row_bounds``) bounds every candidate's row sum; the
rows of the candidates whose lower bound, or whose float32 screening
bound (``so3._screen_bound``), exceeds a known row sum come back +inf.
These tests hold the vote to the exhaustive medoid (the argmin of every
row sum, ties to the first candidate), the rows that are computed to the
one-candidate rows, the bounds to the computed sums, and the keep masks
to those of the bound pass the current one replaced (``ref_row_bounds``).
"""

import json

import numpy as np
import pytest

from binpose import cluster, so3
from binpose.fileio import load_config
from binpose.pipeline import run_scene
from binpose.so3 import (Pose, SymmetryDescriptor, build_axis_mask, build_symmetry_group,
                         kernel_model, matrix_to_quat, quat_from_axis_angle, quat_multiply,
                         quat_normalize_batch, quat_to_matrix, quats_to_matrices,
                         random_quat, rotation_distances_to_set)
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


def _min_last(a) -> np.ndarray:
    return np.moveaxis(a, -1, 0).copy().min(axis=0)


def ref_row_bounds(AS, B, km):
    """The bound pass so3._row_bounds replaced, its arithmetic unchanged:
    (keep, lower, upper), ``keep`` the (m, C, n_s) pairs that can be their
    member's minimum. It builds both Frobenius-form tables in full."""
    m, (n_c, n_s) = B.shape[0], AS.shape[:2]
    keep = np.ones((m, n_c, n_s), dtype=bool)
    lower, upper = np.zeros(n_c), np.zeros(n_c)
    if km.r_max == 0.0:
        return keep, lower, upper
    gram_left, gram_right = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
    B9 = -2.0 * B.reshape(m, 9)
    BM2 = -2.0 * (B @ km.m2.reshape(3, 3)).reshape(m, 9)
    slack = so3.BOUND_ABS_SLACK * km.tr_m2
    eps = np.finfo(float).eps
    e_slack = (km.points.shape[0] + 32) * eps
    ASt, Bt = AS.reshape(-1, 9).T.copy(), B.reshape(m, 9).T.copy()
    step = max(1, so3.BOUND_BLOCK // max(m * n_s, 1))
    for lo in range(0, n_c, step):
        ASf = AS[lo:lo + step].reshape(-1, 9).T
        n = ASf.shape[1] // n_s
        t = (BM2 @ ASf).reshape(m, n, n_s)
        t += 2.0 * km.tr_m2
        fro = (B9 @ ASf).reshape(m, n, n_s)
        fro += 6.0
        fro += so3.BOUND_ABS_SLACK
        np.sqrt(np.maximum(fro, 0.0, out=fro), out=fro)
        fro *= km.r_max
        low = _min_last(t)[..., None] + slack
        up = np.sqrt(np.maximum(low, 0.0, out=low), out=low)
        upper[lo:lo + n] = up[..., 0].sum(axis=0)
        cutoff = fro * ((1.0 + so3.BOUND_REL_SLACK) * up)
        t -= slack
        kept = keep[:, lo:lo + n]
        np.logical_not(np.greater(np.maximum(t, 0.0, out=t), cutoff, out=kept), out=kept)
        pairs = np.flatnonzero(kept)
        X = ASt[:, lo * n_s + pairs % (n * n_s)] - Bt[:, pairs // (n * n_s)]
        g = X[gram_left] * X[gram_right]
        for i in (3, 6):
            g += X[gram_left + i] * X[gram_right + i]
        tl, f = t.reshape(-1)[pairs], fro.reshape(-1)[pairs]
        e = np.einsum("in,in->n", km.m4 @ g, g)
        e += e_slack * np.square(np.square(f))
        bound = np.maximum(tl * np.sqrt(tl / e), np.sqrt(2.0) * tl / f)
        t.fill(np.inf)
        t.reshape(-1)[pairs] = bound
        lower[lo:lo + n] = _min_last(t).sum(axis=0)
    margin = m * np.sqrt(72.0 * eps) * km.r_max
    return (keep, (1.0 - so3.BOUND_REL_SLACK) * lower - margin,
            (1.0 + so3.BOUND_REL_SLACK) * upper + margin)


def _keep_mask(kept, m, n_s) -> np.ndarray:
    """The (m, C, n_s) mask of the pairs ``so3._row_bounds`` keeps."""
    keep = np.zeros((len(kept), n_s * m), dtype=bool)
    for c, (idx, _) in enumerate(kept):
        keep[c, idx] = True
    return keep.reshape(-1, n_s, m).transpose(2, 0, 1)


def _one_candidate_rows(reps, members, group, mask, model):
    return np.stack([rotation_distances_to_set(rep, members, model, group, mask)
                     for rep in reps])


def _row_sums(reps, members, group, mask, model):
    return _one_candidate_rows(reps, members, group, mask, model).sum(axis=1)


def _bounds(reps, members, model, group, mask):
    """(lower, upper) of the bound pass, on the inputs converted as
    rotation_distances_to_set converts them."""
    AS, B = so3._candidate_rotations(reps, group), quats_to_matrices(members)
    return so3._row_bounds(AS, B, kernel_model(model, mask))[1:]


def _screen_bounds(reps, members, model, group, mask):
    """Every candidate's float32 screening bound, on the inputs converted
    as rotation_distances_to_set converts them."""
    AS, B, km = so3._candidate_rotations(reps, group), quats_to_matrices(members), \
        kernel_model(model, mask)
    kept = so3._row_bounds(AS, B, km)[0]
    buf = np.empty((2 * B.shape[0], km.points.shape[0]), dtype=np.float32)
    return np.array([so3._screen_bound(*pairs, B.shape[0], len(group), km, buf)
                     for pairs in kept])


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
            # the rows one call computes are the one-candidate rows, and every
            # row it leaves +inf has a sum above the smallest
            one = _one_candidate_rows(reps, members, group, mask, model)
            rows = rotation_distances_to_set(reps, members, model, group, mask)
            pruned = np.isposinf(rows).all(axis=1)
            assert not pruned.all(), name
            assert np.array_equal(rows[~pruned].view(np.uint64),
                                  one[~pruned].view(np.uint64)), name
            sums = one.sum(axis=1)
            assert np.all(sums[pruned] > sums.min()), name


def test_the_bounds_hold_the_computed_row_sums(voting_object):
    group, mask, model = voting_object
    rng = np.random.default_rng(32)
    for _ in range(2):
        for name, (reps, members) in _cases(group, mask, model, rng).items():
            lower, upper = _bounds(reps, members, model, group, mask)
            sums = _row_sums(reps, members, group, mask, model)
            assert np.all(lower <= sums) and np.all(sums <= upper), name


def _screened_cases(group, mask, model, rng):
    """``_cases``, plus a member at X = 0 from every candidate and members
    near 180 degrees from the first, where the float32 products cancel."""
    cases = _cases(group, mask, model, rng)
    reps, members = cases["spread"]
    turned = [quat_multiply(reps[0], quat_from_axis_angle(rng.normal(size=3), np.pi - a))
              for a in (0.0, 1e-6, 1e-3, 0.05)]
    cases["equal_and_half_turns"] = (reps, np.vstack([members, reps, turned]))
    return cases


def test_the_screen_bounds_hold_the_computed_row_sums(voting_object):
    group, mask, model = voting_object
    rng = np.random.default_rng(38)
    for _ in range(2):
        for name, (reps, members) in _screened_cases(group, mask, model, rng).items():
            if kernel_model(model, mask).r_max == 0.0:
                # every distance is 0 and every pair is kept: nothing to screen
                kept = so3._row_bounds(so3._candidate_rotations(reps, group),
                                       quats_to_matrices(members), kernel_model(model, mask))[0]
                assert all(gram is None for _, gram in kept), name
                continue
            sums = _row_sums(reps, members, group, mask, model)
            assert np.all(_screen_bounds(reps, members, model, group, mask) <= sums), name


def test_a_runner_up_inside_the_screens_error_keeps_its_row():
    # a candidate turned a little from the winner sits 0.09% above it, inside
    # the float32 row's error, and gets its exact row; turned twice as far,
    # 0.66% above, its screen rules it out where its lower bound cannot
    group = build_symmetry_group(OBJECTS["cube24"][0])
    rng = np.random.default_rng(37)
    model = rng.uniform(-60.0, 60.0, size=(203, 3))
    best = random_quat(rng)
    members = quat_normalize_batch(best + rng.normal(scale=0.02, size=(120, 4)))
    best = members[_exhaustive(members[:20], members, group, np.ones(3), model)]
    for angle, computed in ((5e-3, True), (1e-2, False)):
        reps = np.stack([best, quat_multiply(best, quat_from_axis_angle([0.3, -0.5, 0.8], angle))])
        sums = _row_sums(reps, members, group, np.ones(3), model)
        lower, upper = _bounds(reps, members, model, group, np.ones(3))
        screen = _screen_bounds(reps, members, model, group, np.ones(3))
        assert upper[0] < upper[1] and sums[0] < sums[1] and lower[1] <= sums[0]
        assert (screen[1] <= sums[0]) == computed
        rows = rotation_distances_to_set(reps, members, model, group, np.ones(3))
        assert np.isfinite(rows[1]).all() == computed


@pytest.mark.parametrize("scale", [1e-20, 1e20])
def test_the_vote_is_the_exhaustive_medoid_at_extreme_scales(scale, monkeypatch):
    # float32 would go subnormal or overflow here, so the screen steps aside
    group, model = build_symmetry_group(OBJECTS["cube24"][0]), \
        scale * np.random.default_rng(30).uniform(-60.0, 60.0, size=(203, 3))
    rng = np.random.default_rng(39)
    for name, (reps, members) in _screened_cases(group, np.ones(3), model, rng).items():
        want = _exhaustive(reps, members, group, np.ones(3), model)
        assert _voted(reps, members, group, np.ones(3), model, monkeypatch) == want, name


def test_the_keep_masks_do_not_depend_on_the_block(voting_object, monkeypatch):
    # a candidate keeps the pairs and Gram vectors it has alone, which is
    # what makes its row that of a one-candidate call; its bounds can move
    # in their last bits where t cancels: a table of fewer rows can round
    # otherwise (a gemv with one symmetry, Nehalem's kernel with a few),
    # by 2e-11 relative at most over these cases on four OpenBLAS kernels
    group, mask, model = voting_object
    rng = np.random.default_rng(40)
    reps, members = _cases(group, mask, model, rng)["spread"]
    AS, B, km = so3._candidate_rotations(reps, group), quats_to_matrices(members), \
        kernel_model(model, mask)
    together = so3._row_bounds(AS, B, km)
    monkeypatch.setattr(so3, "BOUND_BLOCK", 1)
    alone = so3._row_bounds(AS, B, km)
    for c in range(len(reps)):
        for a, b in zip(together[0][c], alone[0][c]):
            assert (a is None and b is None) or np.array_equal(a, b)
    for a, b in zip(together[1:], alone[1:]):
        np.testing.assert_allclose(a, b, rtol=1e-9)


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
    lower, upper = _bounds(reps, members, model, group, np.ones(3))
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
    lower, upper = _bounds(reps, members, model, group, np.ones(3))
    sums = _row_sums(reps, members, group, np.ones(3), model)
    assert upper[1] < upper[0] and sums[0] < sums[1] and lower[0] > 0.985 * sums[1]
    assert _voted(reps, members, group, np.ones(3), model, monkeypatch) == 0


def test_bounds_of_an_empty_batch_are_zero():
    group = build_symmetry_group(OBJECTS["cube24"][0])
    reps = np.stack([random_quat(np.random.default_rng(33)) for _ in range(3)])
    lower, upper = _bounds(reps, np.empty((0, 4)), np.eye(3), group, np.ones(3))
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


@pytest.mark.parametrize("name", ["cube24", "cylinder", "dense_box", "noisy_box"])
def test_every_golden_vote_keeps_the_pairs_of_the_replaced_pass(tmp_path, monkeypatch, name):
    # the norm-free test and the Gram-vector norms keep the pairs the two
    # full Frobenius-form tables kept; the bounds move in their last bits,
    # by 2e-11 relative at most where t cancels (Haswell kernel)
    config = _golden_config(tmp_path, name)
    real = cluster.pose_vote
    votes = []

    def spy(counts, centroids, reps, members, group, mask, model):
        AS, B, km = so3._candidate_rotations(reps, group), quats_to_matrices(members), \
            kernel_model(model, mask)
        kept, lower, upper = so3._row_bounds(AS, B, km)
        keep, ref_lower, ref_upper = ref_row_bounds(AS, B, km)
        assert np.array_equal(_keep_mask(kept, B.shape[0], len(group)), keep)
        np.testing.assert_allclose(lower, ref_lower, rtol=1e-9)
        np.testing.assert_allclose(upper, ref_upper, rtol=1e-9)
        votes.append(len(reps))
        return real(counts, centroids, reps, members, group, mask, model)

    monkeypatch.setattr(cluster, "pose_vote", spy)
    for seed in range(6):
        run_scene(config, seed)
    assert len(votes) >= 18


def test_cube24_votes_compute_fewer_than_half_the_rows(tmp_path, monkeypatch):
    # the golden cube24 config splits each instance into about 20 candidates
    config = _golden_config(tmp_path, "cube24")
    real_vote, real_rows = cluster.pose_vote, cluster.rotation_distances_to_set
    candidates, rows = [], []

    def vote(counts, centroids, reps, *args):
        candidates.append(len(reps))
        return real_vote(counts, centroids, reps, *args)

    def distances(reps, *args):
        out = real_rows(reps, *args)
        rows.append(np.count_nonzero(np.isfinite(out).all(axis=1)))
        return out

    monkeypatch.setattr(cluster, "pose_vote", vote)
    monkeypatch.setattr(cluster, "rotation_distances_to_set", distances)
    run_scene(config, 0)
    assert min(candidates) > 10
    assert 0 < sum(rows) < sum(candidates) / 2
    # the vote asks for the rows once per instance
    assert len(rows) <= len(candidates)


def test_cube24_votes_compute_about_one_row_per_instance(tmp_path, monkeypatch):
    # the float32 screen rules out most candidates the bounds keep: 34 of the
    # 629 rows over the golden cube24 config's scene seeds 0-5 (173 without it)
    config = _golden_config(tmp_path, "cube24")
    real = cluster.rotation_distances_to_set
    candidates, rows = [], []

    def distances(reps, *args):
        out = real(reps, *args)
        candidates.append(len(reps))
        rows.append(np.count_nonzero(np.isfinite(out).all(axis=1)))
        return out

    monkeypatch.setattr(cluster, "rotation_distances_to_set", distances)
    for seed in range(6):
        run_scene(config, seed)
    assert sum(candidates) > 600 and len(rows) <= sum(rows) <= 60


def test_a_nan_member_is_nan_in_every_row():
    # a NaN member makes every bound NaN, and a NaN bound prunes nothing
    group, model = build_symmetry_group(OBJECTS["cube24"][0]), _tube()
    rng = np.random.default_rng(36)
    rep = random_quat(rng)
    members = quat_normalize_batch(rep + rng.normal(scale=0.03, size=(40, 4)))
    members[17] = [np.nan, 0.0, 0.0, 0.0]
    reps = np.vstack([rep, members[:5], quat_normalize_batch(rng.normal(size=(3, 4)))])
    rows = rotation_distances_to_set(reps, members, model, group, np.ones(3))
    assert np.isnan(rows[:, 17]).all()
    assert np.isfinite(np.delete(rows, 17, axis=1)).all()
