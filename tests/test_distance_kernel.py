"""so3.symmetric_distances against the three implementations it replaced.

The references below are the per-caller formulas evaluation, pose voting
and the rotation loss used before they shared one kernel, kept verbatim.
"""

import collections

import numpy as np
import pytest

from dataclasses import replace

from binpose import cluster, so3
from binpose.cluster import pose_vote
from binpose.losses import _rotation_values, random_instances, rotation_loss_grad
from binpose.metrics import EvalConfig, evaluate, match_predictions
from binpose.so3 import (Pose, SymmetryDescriptor, SymmetryGroup, build_axis_mask,
                         build_symmetry_group, kernel_model, matrix_to_quat,
                         quat_from_axis_angle, quat_multiply, quat_normalize, quat_to_matrix,
                         quats_to_matrices, random_quat, rotation_distances_to_set,
                         symmetric_distances, symmetric_pose_distance)
from binpose.synth import cylinder_cloud


def ref_symmetric_pose_distance(model, gt, pred, group, mask):
    masked = model * np.asarray(mask, dtype=float).reshape(3)
    Rg = gt.rotation
    Rp = pred.rotation
    pred_pts = masked @ Rp.T + pred.t                       # (K,3)
    RgS = np.einsum("ij,sjk->sik", Rg, group.matrices)      # (ns,3,3)
    gt_pts = np.einsum("sij,kj->ski", RgS, masked) + gt.t   # (ns,K,3)
    dists = np.linalg.norm(gt_pts - pred_pts[None], axis=2) # (ns,K)
    means = dists.mean(axis=1)
    best = int(np.argmin(means))
    return dists[best], float(means[best]), best


def ref_rotation_distances_to_set(rep_quat, quats, model, group, mask):
    masked = np.asarray(model, dtype=float).reshape(-1, 3) * np.asarray(mask, dtype=float)
    outer = np.einsum("ki,kj->kij", masked, masked).reshape(-1, 9)   # (K,9)
    Rr = quat_to_matrix(quat_normalize(rep_quat))
    Rb = quats_to_matrices(quats)                             # (m,3,3)
    sq = np.empty((Rb.shape[0], outer.shape[0]))
    best = None
    for s in group.matrices:
        diff = (Rr @ s)[None] - Rb                            # (m,3,3)
        gram = np.einsum("mji,mjk->mik", diff, diff).reshape(-1, 9)
        np.matmul(gram, outer.T, out=sq)
        means = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq).mean(axis=1)
        best = means if best is None else np.minimum(best, means)
    return best


def ref_rotation_values(inst):
    masked = inst.model * inst.mask                                    # (K,3)
    RgS = np.einsum("ij,sjk->sik", inst.rotation_gt, inst.group.matrices)
    gt_pts = np.einsum("sij,kj->ski", RgS, masked)                     # (ns,K,3)
    Rp = quats_to_matrices(inst.pred_quats)                            # (m,3,3)
    pred_pts = np.einsum("mij,kj->mki", Rp, masked)                    # (m,K,3)
    diff = gt_pts[:, None] - pred_pts[None]                            # (ns,m,K,3)
    norms = np.linalg.norm(diff, axis=3)                               # (ns,m,K)
    return norms.mean(axis=(1, 2))


SYMMETRIES = {
    "none": SymmetryDescriptor(),
    "c2": SymmetryDescriptor(dz_deg=180),
    "cube24": SymmetryDescriptor(90, 90, 90),
    "continuous_z": SymmetryDescriptor(dx_deg=180, dz_deg=1),
}


@pytest.fixture(params=sorted(SYMMETRIES), ids=str)
def symmetry(request):
    desc = SYMMETRIES[request.param]
    return build_symmetry_group(desc), build_axis_mask(desc)


def test_symmetry_fixture_covers_group_sizes_and_mask():
    sizes = {len(build_symmetry_group(d)) for d in SYMMETRIES.values()}
    assert sizes == {1, 2, 24}
    assert build_axis_mask(SYMMETRIES["continuous_z"]).tolist() == [0.0, 0.0, 1.0]


def _model(rng, k=200):
    return rng.uniform(-60.0, 60.0, size=(k, 3))


class _NumpySpy:
    """numpy as binpose.so3 sees it, counting how rotation_distances_to_set
    reduces each candidate's row: straight from one pair per member
    (``one_pair``) or by np.minimum.reduceat over several (``reduceat``)."""

    def __init__(self):
        self.paths = collections.Counter()
        spy = self

        class _Minimum:
            @staticmethod
            def reduceat(*args):
                spy.paths["reduceat"] += 1
                return np.minimum.reduceat(*args)

            def __getattr__(self, name):
                return getattr(np.minimum, name)

        self.minimum = _Minimum()

    def array_equal(self, a, b):
        same = np.array_equal(a, b)
        self.paths["one_pair"] += same
        return same

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def voting_paths(monkeypatch):
    spy = _NumpySpy()
    monkeypatch.setattr(so3, "np", spy)
    return spy.paths


def _pose_pairs(rng, n=40):
    pairs = []
    for i in range(n):
        gt = Pose(random_quat(rng), rng.uniform(-100.0, 100.0, size=3))
        if i % 2:
            pred = Pose(random_quat(rng), rng.uniform(-100.0, 100.0, size=3))
        else:   # a near miss, where the translation terms dominate
            pred = Pose(gt.quat, gt.t + rng.normal(scale=0.01, size=3))
        pairs.append((gt, pred))
    return pairs


def test_rotation_distances_to_set_is_the_reference_bit_for_bit(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(1)
    model = _model(rng)
    for _ in range(5):
        rep = random_quat(rng)
        quats = rng.normal(size=(50, 4))
        got = rotation_distances_to_set(rep, quats, model, group, mask)
        want = ref_rotation_distances_to_set(rep, quats, model, group, mask)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _ring(k):
    """k model points on a circle about z: for members rep * Rz(theta) the
    s = identity term has every ||X m_k|| equal, the tightest case of the
    pruning bounds (lower = upper / sqrt(2))."""
    a = 2.0 * np.pi * np.arange(k) / k
    return 50.0 * np.stack([np.cos(a), np.sin(a), np.zeros(k)], axis=1)


def _pruning_cases(rng, group):
    """(rep, member quaternions) sets where the pruning bounds are tight,
    degenerate or cancel: X = A s - B_j at or a hair from 0, X = 0, members
    near 180 degrees or turned about z, one member, and 640 clustered
    members (several BLAS row blocks)."""
    rep = random_quat(rng)
    A = quat_to_matrix(rep)
    equivalents = np.stack([matrix_to_quat(A @ s) for s in group.matrices])
    near_180 = np.stack([quat_multiply(rep, quat_from_axis_angle(rng.normal(size=3), np.pi - a))
                         for a in (0.0, 1e-9, 1e-6, 1e-3, 1e-3, 0.05)])
    about_z = np.stack([quat_multiply(rep, quat_from_axis_angle([0.0, 0.0, 1.0], a))
                        for a in (1e-3, 0.3, 1.0, 2.0)])
    picks = equivalents[rng.integers(len(equivalents), size=640)]
    clustered = picks + rng.normal(scale=0.02, size=picks.shape)
    return {
        "equivalents": (rep, equivalents),
        "near_equivalents": (rep, equivalents + rng.normal(scale=1e-12, size=equivalents.shape)),
        "rep_itself": (rep, np.vstack([rep, rng.normal(size=(7, 4))])),
        "near_180": (rep, near_180),
        "about_z": (rep, about_z),
        "one_member": (rep, rng.normal(size=(1, 4))),
        "clustered_640": (rep, clustered),
    }


def _one_candidate_at_a_time(distances):
    # pose_vote passes every candidate at once; the reference takes one
    return lambda reps, *args: np.stack([distances(rep, *args) for rep in reps])


def _vote_winner(candidates, members, group, mask, model, monkeypatch, distances):
    monkeypatch.setattr(cluster, "rotation_distances_to_set", distances)
    n = len(candidates)
    reps = np.stack([quat_normalize(c) for c in candidates])
    return pose_vote(np.ones(n, dtype=int), np.zeros((n, 3)), reps, members, group, mask,
                     model).quat


def _assert_pruning_matches_reference(group, mask, model, rng, monkeypatch):
    # pytest turns a RuntimeWarning (a 0/0 in the bounds) into a failure
    for name, (rep, quats) in _pruning_cases(rng, group).items():
        got = rotation_distances_to_set(rep, quats, model, group, mask)
        want = ref_rotation_distances_to_set(rep, quats, model, group, mask)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), name
        candidates = np.vstack([rep, quats[:3]])
        assert np.array_equal(
            _vote_winner(candidates, quats, group, mask, model, monkeypatch,
                         rotation_distances_to_set),
            _vote_winner(candidates, quats, group, mask, model, monkeypatch,
                         _one_candidate_at_a_time(ref_rotation_distances_to_set))), name


def test_pruned_rotation_distances_match_the_unpruned_reference(symmetry, monkeypatch,
                                                                voting_paths):
    # K = 203 leaves a ragged BLAS column tail
    group, mask = symmetry
    rng = np.random.default_rng(5)
    for model in (_model(rng, k=203), _ring(203)):
        _assert_pruning_matches_reference(group, mask, model, rng, monkeypatch)
    # with one symmetry every member keeps its one pair
    assert voting_paths["one_pair"] > 0
    assert (voting_paths["reduceat"] > 0) == (len(group) > 1)


# (group, mask, rounds): the cancellation noise of the bounds varies with the rotation
DEGENERATE = {
    # the masked model is its center point: r_max = tr(M2) = 0, every distance 0
    "sphere": (SymmetryDescriptor(1, 1, 1), SymmetryDescriptor(1, 1, 1), 1),
    "sphere_cube24": (SymmetryDescriptor(90, 90, 90), SymmetryDescriptor(1, 1, 1), 1),
    # Rz(180) is in the group and fixes the masked z segment: every s ties with another
    "z_axis_ties": (SymmetryDescriptor(180, 180, 1), SymmetryDescriptor(180, 180, 1), 20),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_pruning_on_degenerate_masks(name, monkeypatch, voting_paths):
    group_desc, mask_desc, rounds = DEGENERATE[name]
    group, mask = build_symmetry_group(group_desc), build_axis_mask(mask_desc)
    rng = np.random.default_rng(7)
    model = _model(rng)
    for _ in range(rounds):
        _assert_pruning_matches_reference(group, mask, model, rng, monkeypatch)
    if name == "z_axis_ties":    # tied pairs survive together
        assert voting_paths["reduceat"] > 0


def test_pruned_rows_round_like_the_reference(voting_paths):
    # with K = 200 there is no ragged BLAS column tail, so every row layout of
    # the survivor product rounds like the full kernel's, except a one-row
    # product, which numpy sends to gemv. The last member keeps one pair, so
    # about half the cases end on a one-row chunk that decides its minimum.
    group = build_symmetry_group(SYMMETRIES["cube24"])
    rng = np.random.default_rng(8)
    model = _model(rng)
    for _ in range(60):
        rep = random_quat(rng)
        near = quat_multiply(rep, quat_from_axis_angle(rng.normal(size=3), 0.1))
        quats = np.vstack([rng.normal(size=(1, 4)), near])
        got = rotation_distances_to_set(rep, quats, model, group, np.ones(3))
        want = ref_rotation_distances_to_set(rep, quats, model, group, np.ones(3))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert voting_paths["one_pair"] > 0 and voting_paths["reduceat"] > 0


def test_empty_batches_give_empty_rows():
    group = build_symmetry_group(SYMMETRIES["cube24"])
    rng = np.random.default_rng(20)
    rep, quats, model = random_quat(rng), rng.normal(size=(5, 4)), _model(rng)
    none = np.empty((0, 4))
    assert rotation_distances_to_set(rep, none, model, group, np.ones(3)).shape == (0,)
    assert rotation_distances_to_set(np.stack([rep, rep]), none, model, group,
                                     np.ones(3)).shape == (2, 0)
    assert rotation_distances_to_set(none, quats, model, group, np.ones(3)).shape == (0, 5)


@pytest.mark.parametrize("members", [5, 0])
def test_a_non_finite_candidate_raises(members):
    group = build_symmetry_group(SYMMETRIES["cube24"])
    rng = np.random.default_rng(21)
    quats, model = rng.normal(size=(members, 4)), _model(rng)
    for reps in ([np.nan, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0], [0.5, np.nan, 0.5, 0.5]]):
        with pytest.raises(ValueError, match="deviates from 1"):
            rotation_distances_to_set(reps, quats, model, group, np.ones(3))


def test_a_non_finite_member_stays_nan_through_pruning():
    group = build_symmetry_group(SYMMETRIES["cube24"])
    rng = np.random.default_rng(9)
    rep, model = random_quat(rng), _model(rng)
    quats = np.vstack([[np.nan, 0.0, 0.0, 0.0], rep])
    got = rotation_distances_to_set(rep, quats, model, group, np.ones(3))
    want = ref_rotation_distances_to_set(rep, quats, model, group, np.ones(3))
    assert np.isnan(got[0]) and np.isnan(want[0]) and got[1] == want[1] == 0.0


def test_symmetric_pose_distance_matches_reference(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(2)
    model = _model(rng)
    for gt, pred in _pose_pairs(rng):
        per_point, mean = symmetric_pose_distance(model, gt, pred, group, mask)
        ref_points, ref_mean, ref_best = ref_symmetric_pose_distance(model, gt, pred,
                                                                     group, mask)
        means, _ = symmetric_distances(gt.rotation, pred.rotation[None], model, group, mask,
                                       (gt.t - pred.t)[None])
        assert int(np.argmin(means)) == ref_best
        assert abs(mean - ref_mean) <= 1e-12 * ref_mean
        np.testing.assert_allclose(per_point, ref_points, rtol=0.0,
                                   atol=1e-10 * ref_points.max())


def test_rotation_loss_values_match_reference(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(3)
    model = _model(rng, k=80)
    for inst in random_instances(model, group, mask, rng, n_instances=6, n_points=7):
        got = _rotation_values(inst, inst.pred_quats[None])[0]
        want = ref_rotation_values(inst)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_kernel_results_ignore_quaternion_sign(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(4)
    model = _model(rng, k=80)
    rep, quats = random_quat(rng), rng.normal(size=(20, 4))
    assert np.array_equal(rotation_distances_to_set(rep, quats, model, group, mask),
                          rotation_distances_to_set(-rep, -quats, model, group, mask))
    for gt, pred in _pose_pairs(rng, n=6):
        flipped = Pose(-pred.quat, pred.t)
        a = symmetric_pose_distance(model, gt, pred, group, mask)
        b = symmetric_pose_distance(model, Pose(-gt.quat, gt.t), flipped, group, mask)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    instances = random_instances(model, group, mask, rng, n_instances=3, n_points=5)
    for inst in instances:
        before = _rotation_values(inst, inst.pred_quats[None])[0]
        grad = rotation_loss_grad([inst])[0]
        inst.pred_quats = -inst.pred_quats
        assert np.array_equal(_rotation_values(inst, inst.pred_quats[None])[0], before)
        # the loss is even in q, so its gradient is odd
        np.testing.assert_allclose(rotation_loss_grad([inst])[0], -grad, rtol=0.0,
                                   atol=1e-12 * np.abs(grad).max())


def test_symmetric_distances_returns_the_winner_in_fresh_arrays(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(10)
    model = _model(rng, k=80)
    A, B = quat_to_matrix(random_quat(rng)), quats_to_matrices(rng.normal(size=(6, 4)))
    means, dists = symmetric_distances(A, B, model, group, mask)
    assert means.shape == (len(group),) and dists.shape == (6, 80)
    for i, s in enumerate(group.matrices):
        one = symmetric_distances(A @ s, B, model, SymmetryGroup.identity(), mask)
        assert one[0][0] == means[i]
        if i == int(np.argmin(means)):
            assert np.array_equal(one[1], dists)
    kept = means.copy(), dists.copy()
    symmetric_distances(quat_to_matrix(random_quat(rng)), B, model, group, mask)
    assert np.array_equal(means, kept[0]) and np.array_equal(dists, kept[1])


@pytest.mark.parametrize("with_d", [False, True], ids=["rotation", "pose"])
def test_stacked_symmetric_distances_are_the_one_stack_results(symmetry, with_d):
    # unrelated stacks, so that their winning s differ and the winners' rows
    # are copied as well as swapped
    group, mask = symmetry
    rng = np.random.default_rng(18)
    model = _model(rng, k=80)
    A = quat_to_matrix(random_quat(rng))
    B = quats_to_matrices(rng.normal(size=(2 * 6 * 4, 4))).reshape(2, 6, 4, 3, 3)
    d = rng.normal(scale=5.0, size=(2, 6, 4, 3)) if with_d else None
    means, dists = symmetric_distances(A, B, model, group, mask, d)
    assert means.shape == (2, 6, len(group)) and dists.shape == (2, 6, 4, 80)
    for idx in np.ndindex(2, 6):
        one = symmetric_distances(A, B[idx], model, group, mask, None if d is None else d[idx])
        assert np.array_equal(one[0], means[idx]) and np.array_equal(one[1], dists[idx])
    assert len(group) == 1 or len(np.unique(means.argmin(axis=-1))) > 1


@pytest.mark.parametrize("m", [1, 4])
def test_stacked_A_gives_the_one_A_results(symmetry, m):
    # A's stacks broadcast against B's; m = 1 is evaluation's one-row stack
    group, mask = symmetry
    rng = np.random.default_rng(19)
    model = _model(rng, k=80)
    A = quats_to_matrices(rng.normal(size=(5, 4)))
    B = quats_to_matrices(rng.normal(size=(3 * m, 4))).reshape(3, 1, m, 3, 3)
    d = rng.normal(scale=5.0, size=(3, 5, m, 3))
    means, dists = symmetric_distances(A, B, model, group, mask, d)
    assert means.shape == (3, 5, len(group)) and dists.shape == (3, 5, m, 80)
    for i, j in np.ndindex(3, 5):
        one = symmetric_distances(A[j], B[i, 0], model, group, mask, d[i, j])
        assert np.array_equal(one[0], means[i, j]) and np.array_equal(one[1], dists[i, j])


def _per_pair_matching(preds, gts, model, group, mask):
    """match_predictions' greedy ranking over one symmetric_pose_distance
    per pair: (pred, gt, (K,) per-point distances, mean) for each match."""
    per_pair = {(i, j): symmetric_pose_distance(model, g, p, group, mask)
                for i, p in enumerate(preds) for j, g in enumerate(gts)}
    used_p, used_g, rows = set(), set(), []
    for _, i, j in sorted((mean, i, j) for (i, j), (_, mean) in per_pair.items()):
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
            rows.append((i, j) + per_pair[i, j])
    return rows


def _assert_matching_is_the_per_pair_distance(model, group, mask, rng):
    gts = [Pose(random_quat(rng), rng.uniform(-100.0, 100.0, size=3)) for _ in range(4)]
    preds = [Pose(quat_multiply(g.quat, quat_from_axis_angle(rng.normal(size=3), 0.05)),
                  g.t + rng.normal(scale=2.0, size=3)) for g in gts[:3]]
    preds += [Pose(random_quat(rng), rng.uniform(-100.0, 100.0, size=3)) for _ in range(2)]
    rows, _ = match_predictions(preds, gts, model, group, mask, 5.0)
    want = _per_pair_matching(preds, gts, model, group, mask)
    assert [(r.pred_index, r.gt_index) for r in rows] == [w[:2] for w in want]
    for r, (_, _, points, mean) in zip(rows, want):
        assert np.array_equal(np.float64(r.mean_distance).view(np.uint64),
                              np.float64(mean).view(np.uint64))
        assert r.matched_points == np.count_nonzero(points < 5.0)
    return rows


def test_matching_is_the_per_pair_distance_bit_for_bit(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(22)
    _assert_matching_is_the_per_pair_distance(_model(rng), group, mask, rng)


def test_symmetric_distances_on_exact_ties_keeps_the_first_minimal_s():
    # with the z_axis_ties object, s and s Rz(180) often give the same mean
    # to the last bit while their distances differ in the last bits
    group_desc, mask_desc, _ = DEGENERATE["z_axis_ties"]
    group, mask = build_symmetry_group(group_desc), build_axis_mask(mask_desc)
    rng = np.random.default_rng(11)
    model = _model(rng)
    ties = 0
    for _ in range(40):
        A, B = quat_to_matrix(random_quat(rng)), quats_to_matrices(rng.normal(size=(5, 4)))
        means, dists = symmetric_distances(A, B, model, group, mask)
        tied = np.flatnonzero(means == means.min())
        per_s = [symmetric_distances(A @ group.matrices[i], B, model,
                                     SymmetryGroup.identity(), mask)[1] for i in tied]
        assert np.array_equal(dists, per_s[0])
        ties += tied.size > 1 and not np.array_equal(per_s[0], per_s[-1])
    assert ties > 0


def test_candidate_batch_rows_are_the_one_candidate_results(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(12)
    model = _model(rng)
    reps, quats = rng.normal(size=(6, 4)), rng.normal(size=(30, 4))
    got = rotation_distances_to_set(reps, quats, model, group, mask)
    assert got.shape == (6, 30)
    one = np.stack([rotation_distances_to_set(rep, quats, model, group, mask) for rep in reps])
    # a row left +inf cannot win the vote: its one-candidate sum is above the smallest
    pruned = np.isposinf(got).all(axis=1)
    assert np.array_equal(got[~pruned].view(np.uint64), one[~pruned].view(np.uint64))
    assert np.all(one[pruned].sum(axis=1) > one.sum(axis=1).min())
    assert np.argmin(got.sum(axis=1)) == np.argmin(one.sum(axis=1))


# (model, group, mask) whose masked points coincide, and the distinct count K':
# the cylinder's 779 points fall on 21 heights of its z axis, and an all-zero
# mask puts every point on the origin
COLLAPSING = {
    "cylinder_z": (lambda rng: cylinder_cloud(30, 120, 6),
                   SymmetryDescriptor(dx_deg=180, dz_deg=1), 21),
    "all_zero": (_model, SymmetryDescriptor(1, 1, 1), 1),
}


@pytest.fixture(params=sorted(COLLAPSING), ids=str)
def collapsing(request):
    make, desc, distinct = COLLAPSING[request.param]
    return (make(np.random.default_rng(13)), build_symmetry_group(desc), build_axis_mask(desc),
            distinct)


def test_collapsing_models_run_the_kernel_on_distinct_points(collapsing):
    model, group, mask, distinct = collapsing
    rng = np.random.default_rng(14)
    km = kernel_model(model, mask)
    assert km.points.shape == (distinct, 3) and km.counts.sum() == km.size == len(model)
    assert np.array_equal(km.points[km.inverse], model * mask)
    A, B = quat_to_matrix(random_quat(rng)), quats_to_matrices(rng.normal(size=(5, 4)))
    assert symmetric_distances(A, B, model, group, mask)[1].shape == (5, distinct)


def test_collapsed_distances_match_the_references(collapsing):
    model, group, mask, _ = collapsing
    rng = np.random.default_rng(15)
    for gt, pred in _pose_pairs(rng, n=10):
        per_point, mean = symmetric_pose_distance(model, gt, pred, group, mask)
        ref_points, ref_mean, _ = ref_symmetric_pose_distance(model, gt, pred, group, mask)
        assert per_point.shape == (len(model),)
        assert abs(mean - ref_mean) <= 1e-12 * ref_mean
        np.testing.assert_allclose(per_point, ref_points, rtol=0.0,
                                   atol=1e-10 * ref_points.max())
    for _ in range(3):
        rep, quats = random_quat(rng), rng.normal(size=(40, 4))
        got = rotation_distances_to_set(rep, quats, model, group, mask)
        want = ref_rotation_distances_to_set(rep, quats, model, group, mask)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_collapsed_loss_matches_the_references(collapsing):
    # the pre-masked model under an all-ones mask collapses nothing, so it
    # runs the unweighted K-term kernel on the same masked points
    model, group, mask, _ = collapsing
    rng = np.random.default_rng(16)
    instances = random_instances(model, group, mask, rng, n_instances=4, n_points=6)
    unmasked = [replace(inst, model=inst.model * inst.mask, mask=np.ones(3))
                for inst in instances]
    for inst in instances:
        np.testing.assert_allclose(_rotation_values(inst, inst.pred_quats[None])[0],
                                   ref_rotation_values(inst),
                                   rtol=1e-12, atol=0.0)
    for got, want in zip(rotation_loss_grad(instances), rotation_loss_grad(unmasked)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_collapsed_recall_counts_equal_the_reference(collapsing):
    model, group, mask, _ = collapsing
    rng = np.random.default_rng(17)
    gts = [Pose(random_quat(rng), rng.uniform(-100.0, 100.0, size=3)) for _ in range(4)]
    # predictions a few degrees and millimetres off, so the 5 mm tolerance
    # splits each instance's points
    preds = [Pose(quat_multiply(g.quat, quat_from_axis_angle(rng.normal(size=3), 0.05)),
                  g.t + rng.normal(scale=2.0, size=3)) for g in gts]
    got = evaluate(preds, gts, [1] * 4, model, group, mask, EvalConfig(5.0, 0.4))
    assert sorted((m.pred_index, m.gt_index) for m in got.matches) == [(i, i) for i in range(4)]
    want = [ref_symmetric_pose_distance(model, g, p, group, mask) for g, p in zip(gts, preds)]
    assert got.matched_points == sum(int((points < 5.0).sum()) for points, _, _ in want)
    assert got.tp == sum(mean < 5.0 for _, mean, _ in want)


def test_collapsed_matching_is_the_per_pair_distance_bit_for_bit(collapsing):
    model, group, mask, distinct = collapsing
    rows = _assert_matching_is_the_per_pair_distance(model, group, mask,
                                                     np.random.default_rng(23))
    # the rows count the K model points, not the K' distinct ones the kernel runs on
    assert sum(r.matched_points for r in rows) > len(rows) * distinct


def test_kernel_model_memo_is_read_only_and_keyed_on_content():
    rng = np.random.default_rng(18)
    model, mask = cylinder_cloud(30, 120, 6), np.array([0.0, 0.0, 1.0])
    km = kernel_model(model, mask)
    assert kernel_model(model.copy(), mask.copy()) is km
    for a in (km.points, km.outer, km.counts, km.inverse, km.m2):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    gt, pred = _pose_pairs(rng, n=2)[1]
    model[:40, 2] += 0.5    # moves some points off the shared heights
    assert kernel_model(model, mask) is not km
    per_point, mean = symmetric_pose_distance(model, gt, pred, SymmetryGroup.identity(), mask)
    ref_points, ref_mean, _ = ref_symmetric_pose_distance(model, gt, pred,
                                                          SymmetryGroup.identity(), mask)
    assert abs(mean - ref_mean) <= 1e-12 * ref_mean
    np.testing.assert_allclose(per_point, ref_points, rtol=0.0, atol=1e-10 * ref_points.max())
