import numpy as np
import pytest

from binpose.losses import (LossInstance, LossWeights, TieAtMinimumError,
                            center_weights, gradcheck, gradcheck_trials,
                            numeric_gradient_norm, random_instances,
                            rotation_loss, total_loss, translation_loss)
from binpose.so3 import (SymmetryDescriptor, SymmetryGroup, axis_rotation,
                         build_axis_mask, build_symmetry_group, matrix_to_quat,
                         quat_to_matrix, random_quat)
from binpose.synth import box_cloud

TWOFOLD = SymmetryDescriptor(0, 0, 180, 15)


def make_instance(desc=TWOFOLD, n_points=4, seed=0, model=None, perfect=False):
    rng = np.random.default_rng(seed)
    group = build_symmetry_group(desc)
    mask = build_axis_mask(desc)
    if model is None:
        model = box_cloud((20, 30, 40), 10)
    R_gt = quat_to_matrix(random_quat(rng))
    t_gt = rng.uniform(-50, 50, 3)
    pts = t_gt + rng.uniform(-30, 30, (n_points, 3))
    if perfect:
        cents = np.tile(t_gt, (n_points, 1))
        quats = np.tile(matrix_to_quat(R_gt), (n_points, 1))
    else:
        cents = t_gt + rng.uniform(-8, 8, (n_points, 3))
        quats = np.stack([random_quat(rng) for _ in range(n_points)])
    return LossInstance(R_gt, t_gt, model, group, mask, pts, cents, quats)


# ---------------------------------------------------------------------------
# center weights


def test_center_weights_endpoints():
    pts = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    w = center_weights(pts, np.zeros(3))
    assert np.array_equal(w, [0.5, 1.5])


def test_center_weights_degenerate_equal_distances():
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    assert np.array_equal(center_weights(pts, np.zeros(3)), np.ones(4))


def test_center_weights_monotone_in_distance():
    rng = np.random.default_rng(0)
    # rod-shaped: points spread along one axis
    pts = np.zeros((40, 3))
    pts[:, 2] = rng.uniform(-200, 200, 40)
    w = center_weights(pts, np.zeros(3))
    d = np.abs(pts[:, 2])
    order = np.argsort(d)
    assert np.all(np.diff(w[order]) >= -1e-12)
    assert w.min() == 0.5 and w.max() == 1.5


# ---------------------------------------------------------------------------
# rotation loss


def test_rotation_loss_zero_at_gt():
    inst = make_instance(perfect=True)
    assert rotation_loss([inst]) < 1e-9


def test_rotation_loss_zero_for_symmetric_equivalent():
    inst = make_instance(perfect=True, seed=1)
    flip = inst.group.matrices[1]
    flipped = np.tile(matrix_to_quat(inst.rotation_gt @ flip),
                      (inst.pred_quats.shape[0], 1))
    inst2 = LossInstance(inst.rotation_gt, inst.centroid_gt, inst.model, inst.group,
                         inst.mask, inst.points, inst.pred_centroids, flipped)
    assert rotation_loss([inst2]) < 1e-9


def test_rotation_loss_matches_naive_formula():
    # single instance, single point, prediction rotated 90 deg about z,
    # no symmetry: naive independent evaluation of the masked point norm
    cube = box_cloud((1.0, 1.0, 1.0), 0.5)
    desc = SymmetryDescriptor()
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    R_gt = np.eye(3)
    R_pred = axis_rotation(2, 90.0)
    inst = LossInstance(R_gt, np.zeros(3), cube, group, mask,
                        points=np.zeros((1, 3)),
                        pred_centroids=np.zeros((1, 3)),
                        pred_quats=matrix_to_quat(R_pred)[None, :])
    got = rotation_loss([inst])
    naive = np.mean([np.linalg.norm(R_gt @ m - R_pred @ m) for m in cube])
    assert got == pytest.approx(naive, abs=1e-12)


def test_rotation_loss_min_matches_exhaustive_search():
    rng = np.random.default_rng(2)
    desc = SymmetryDescriptor(0, 0, 15, 15)   # 24 rotations about z
    group = build_symmetry_group(desc)
    assert len(group) == 24
    mask = build_axis_mask(desc)
    model = box_cloud((20, 30, 40), 10)
    for seed in range(10):
        inst = make_instance(desc, seed=seed, model=model)
        got = rotation_loss([inst])
        # exhaustive oracle over every symmetry rotation
        vals = []
        for s in group.matrices:
            total = []
            for q in inst.pred_quats:
                Rp = quat_to_matrix(q)
                A = inst.rotation_gt @ s
                total.append(np.mean([np.linalg.norm(A @ (m * mask) - Rp @ (m * mask))
                                      for m in model]))
            vals.append(np.mean(total))
        assert got == pytest.approx(min(vals), abs=1e-12)


def test_rotation_loss_invariant_under_gt_substitution():
    for seed in range(5):
        inst = make_instance(seed=seed)
        base = rotation_loss([inst])
        for s in inst.group.matrices:
            inst2 = LossInstance(inst.rotation_gt @ s, inst.centroid_gt, inst.model,
                                 inst.group, inst.mask, inst.points,
                                 inst.pred_centroids, inst.pred_quats)
            assert abs(rotation_loss([inst2]) - base) < 1e-9


def test_rotation_loss_infinite_axis_spin_invariant():
    desc = SymmetryDescriptor(0, 0, 5, 15)
    rng = np.random.default_rng(3)
    inst = make_instance(desc, seed=4)
    base = rotation_loss([inst])
    for _ in range(20):
        spin = axis_rotation(2, rng.uniform(0, 360))
        spun = np.stack([matrix_to_quat(quat_to_matrix(q) @ spin)
                         for q in inst.pred_quats])
        inst2 = LossInstance(inst.rotation_gt, inst.centroid_gt, inst.model,
                             inst.group, inst.mask, inst.points,
                             inst.pred_centroids, spun)
        assert abs(rotation_loss([inst2]) - base) < 1e-9


def test_rotation_loss_rejects_empty():
    with pytest.raises(ValueError):
        rotation_loss([])


# ---------------------------------------------------------------------------
# translation loss


def test_translation_loss_zero_for_perfect_centroids():
    inst = make_instance(perfect=True, seed=5)
    assert translation_loss([inst]) == 0.0


def test_translation_loss_uniform_error_equal_distances():
    # all points equidistant from the centroid -> unit weights, so a
    # uniform 1 mm error is exactly 1 mm of loss
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    cents = np.tile([0.0, 0.0, 1.0], (4, 1))   # every point predicts 1 mm off
    inst = LossInstance(np.eye(3), np.zeros(3), box_cloud((10, 10, 10), 5),
                        SymmetryGroup.identity(), np.ones(3), pts, cents,
                        np.tile([1.0, 0, 0, 0], (4, 1)))
    assert translation_loss([inst]) == pytest.approx(1.0, abs=1e-12)


def test_translation_loss_tip_weighs_three_times_center():
    # identical error at tip (weight 1.5) and center (weight 0.5)
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 200.0]])
    err = np.array([0.0, 0.0, 2.0])
    base = LossInstance(np.eye(3), np.zeros(3), box_cloud((10, 10, 10), 5),
                        SymmetryGroup.identity(), np.ones(3), pts,
                        np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)))
    center_only = LossInstance(base.rotation_gt, base.centroid_gt, base.model,
                               base.group, base.mask, pts,
                               np.stack([err, np.zeros(3)]), base.pred_quats)
    tip_only = LossInstance(base.rotation_gt, base.centroid_gt, base.model,
                            base.group, base.mask, pts,
                            np.stack([np.zeros(3), err]), base.pred_quats)
    assert translation_loss([tip_only]) == pytest.approx(
        3.0 * translation_loss([center_only]), abs=1e-12)


def test_translation_loss_permutation_invariant():
    inst = make_instance(seed=6, n_points=6)
    base = translation_loss([inst])
    perm = np.random.default_rng(7).permutation(6)
    inst2 = LossInstance(inst.rotation_gt, inst.centroid_gt, inst.model, inst.group,
                         inst.mask, inst.points[perm], inst.pred_centroids[perm],
                         inst.pred_quats[perm])
    assert abs(translation_loss([inst2]) - base) < 1e-9
    # instance order permutation
    other = make_instance(seed=8)
    assert abs(translation_loss([inst, other]) - translation_loss([other, inst])) < 1e-9


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_unit_weights_is_plain_sum():
    insts = [make_instance(seed=9), make_instance(seed=10)]
    assert total_loss(insts, LossWeights(1.0, 1.0)) == pytest.approx(
        rotation_loss(insts) + translation_loss(insts), abs=1e-12)


def test_total_loss_zero_rotation_weight():
    insts = [make_instance(seed=11)]
    assert total_loss(insts, LossWeights(0.0, 2.5)) == pytest.approx(
        2.5 * translation_loss(insts), abs=1e-12)


def test_total_loss_linearity():
    rng = np.random.default_rng(12)
    insts = [make_instance(seed=13)]
    lr, lt = rotation_loss(insts), translation_loss(insts)
    for _ in range(10):
        wr, wt = rng.uniform(0.1, 5.0, 2)
        assert total_loss(insts, LossWeights(wr, wt)) == pytest.approx(
            wr * lr + wt * lt, rel=1e-12)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        LossWeights(-1.0, 1.0)


def test_losses_nonnegative_and_zero_only_at_equivalents():
    for seed in range(5):
        inst = make_instance(seed=seed)
        assert rotation_loss([inst]) > 0.0
        assert translation_loss([inst]) > 0.0


# ---------------------------------------------------------------------------
# gradient checks


def test_gradcheck_translation_small():
    desc = TWOFOLD
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    model = box_cloud((20, 30, 40), 10)
    rng = np.random.default_rng(14)
    for _ in range(10):
        insts = random_instances(model, group, mask, rng)
        assert gradcheck("translation", insts) < 1e-4


def test_gradcheck_rotation_small():
    desc = TWOFOLD
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    model = box_cloud((20, 30, 40), 10)
    err = gradcheck_trials("rotation", model, group, mask, trials=10, seed=15)
    assert err < 1e-4


def test_gradcheck_total_combines_both():
    desc = TWOFOLD
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    model = box_cloud((20, 30, 40), 10)
    err = gradcheck_trials("total", model, group, mask, trials=5, seed=16)
    assert err < 1e-4


def test_numeric_gradient_vanishes_at_global_minimum():
    insts = [make_instance(perfect=True, seed=17)]
    # central differences cancel at the kink; use a small step so the
    # O(eps) residual of the |x|-shaped minimum stays under the bound
    assert numeric_gradient_norm("total", insts, epsilon=1e-7) < 1e-6


def test_gradcheck_detects_symmetry_ties():
    # construct an exact tie: prediction halfway between two equivalents
    desc = SymmetryDescriptor(0, 0, 180, 15)
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    model = box_cloud((20, 30, 40), 10)
    R_gt = np.eye(3)
    R_pred = axis_rotation(2, 90.0)   # exactly between 0 and 180 about z
    inst = LossInstance(R_gt, np.zeros(3), model, group, mask,
                        np.zeros((1, 3)), np.zeros((1, 3)),
                        matrix_to_quat(R_pred)[None, :])
    with pytest.raises(TieAtMinimumError):
        gradcheck("rotation", [inst])


@pytest.mark.parametrize("fn", [gradcheck, numeric_gradient_norm])
@pytest.mark.parametrize("loss", ["rotatoin", "Total", ""])
def test_unknown_loss_selector_is_rejected(fn, loss):
    with pytest.raises(ValueError, match="unknown loss selector"):
        fn(loss, [make_instance(seed=18)])


def _quat_matrix_partials_reference(q):
    # the single-quaternion partials the batched version replaced
    w, x, y, z = q
    dw = 2.0 * np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    dx = 2.0 * np.array([[0.0, y, z], [y, -2.0 * x, -w], [z, w, -2.0 * x]])
    dy = 2.0 * np.array([[-2.0 * y, x, w], [x, 0.0, z], [-w, z, -2.0 * y]])
    dz = 2.0 * np.array([[-2.0 * z, -w, x], [w, -2.0 * z, y], [x, y, 0.0]])
    return np.stack([dw, dx, dy, dz])


def test_batched_quat_partials_match_per_quaternion_reference():
    from binpose.losses import _quat_matrix_partials

    rng = np.random.default_rng(19)
    quats = np.stack([random_quat(rng) for _ in range(7)])
    batched = _quat_matrix_partials(quats)
    assert batched.shape == (7, 4, 3, 3)
    for q, partials in zip(quats, batched):
        assert np.array_equal(partials, _quat_matrix_partials_reference(q))
