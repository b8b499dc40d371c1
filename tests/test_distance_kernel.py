"""so3.symmetric_distances against the three implementations it replaced.

The references below are the per-caller formulas evaluation, pose voting
and the rotation loss used before they shared one kernel, kept verbatim.
"""

import numpy as np
import pytest

from binpose.losses import _rotation_values, random_instances, rotation_loss_grad
from binpose.so3 import (Pose, SymmetryDescriptor, build_axis_mask, build_symmetry_group,
                         quat_normalize, quat_to_matrix, quats_to_matrices, random_quat,
                         rotation_distances_to_set, symmetric_distances,
                         symmetric_pose_distance)


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


def test_symmetric_pose_distance_matches_reference(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(2)
    model = _model(rng)
    for gt, pred in _pose_pairs(rng):
        per_point, mean = symmetric_pose_distance(model, gt, pred, group, mask)
        ref_points, ref_mean, ref_best = ref_symmetric_pose_distance(model, gt, pred,
                                                                     group, mask)
        means = [d.mean() for d in symmetric_distances(
            gt.rotation, pred.rotation[None], model, group, mask, (gt.t - pred.t)[None])]
        assert int(np.argmin(means)) == ref_best
        assert abs(mean - ref_mean) <= 1e-12 * ref_mean
        np.testing.assert_allclose(per_point, ref_points, rtol=0.0,
                                   atol=1e-10 * ref_points.max())


def test_rotation_loss_values_match_reference(symmetry):
    group, mask = symmetry
    rng = np.random.default_rng(3)
    model = _model(rng, k=80)
    for inst in random_instances(model, group, mask, rng, n_instances=6, n_points=7):
        got = _rotation_values(inst)
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
        before = _rotation_values(inst)
        grad = rotation_loss_grad([inst])[0]
        inst.pred_quats = -inst.pred_quats
        assert np.array_equal(_rotation_values(inst), before)
        # the loss is even in q, so its gradient is odd
        np.testing.assert_allclose(rotation_loss_grad([inst])[0], -grad, rtol=0.0,
                                   atol=1e-12 * np.abs(grad).max())
