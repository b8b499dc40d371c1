from dataclasses import replace

import numpy as np
import pytest

from binpose import losses
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


# the bound the benchmark's train_losses workload gates gradcheck on
GRADCHECK_GATE = 1e-6


@pytest.mark.parametrize("loss", ["rotation", "total"])
def test_default_step_passes_a_configuration_at_the_norm_kink(loss):
    # the box batch of scene seed 140318 puts a model point 0.057 mm from its
    # target; a step of 1e-5 read 2.55e-6 there, all truncation error
    desc = SymmetryDescriptor(dz_deg=180)
    model = box_cloud((40, 120, 160), 12)
    err = gradcheck_trials(loss, model, build_symmetry_group(desc), build_axis_mask(desc),
                           trials=1, seed=140318)
    assert err <= GRADCHECK_GATE


def test_default_step_flags_a_slightly_scaled_rotation_gradient(monkeypatch):
    desc = SymmetryDescriptor(dz_deg=180)
    model = box_cloud((40, 120, 160), 12)
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    original = losses.rotation_loss_grad
    monkeypatch.setattr(losses, "rotation_loss_grad",
                        lambda ins: [g * (1.0 + 1e-5) for g in original(ins)])
    for loss in ("rotation", "total"):
        assert gradcheck_trials(loss, model, group, mask, trials=3, seed=140318) > GRADCHECK_GATE


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


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1e-5])
def test_gradcheck_rejects_a_step_that_is_not_finite_and_positive(epsilon):
    model = box_cloud((20, 30, 40), 10)
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    with pytest.raises(ValueError, match="finite and positive"):
        gradcheck("translation", [make_instance(seed=21)], epsilon=epsilon)
    with pytest.raises(ValueError, match="finite and positive"):
        gradcheck_trials("rotation", model, group, mask, trials=2, epsilon=epsilon)
    with pytest.raises(ValueError, match="finite and positive"):
        numeric_gradient_norm("total", [make_instance(seed=21)], epsilon=epsilon)


@pytest.mark.parametrize("trials", [0, -3])
def test_gradcheck_trials_rejects_fewer_than_one_trial(trials):
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    with pytest.raises(ValueError, match="at least one"):
        gradcheck_trials("total", box_cloud((20, 30, 40), 10), group, mask, trials=trials)


def test_gradcheck_rejects_a_non_finite_error():
    inst = make_instance(seed=22)
    inst.pred_centroids[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gradcheck("translation", [inst])
    # a trial that is not finite is not dropped from the worst error
    model = box_cloud((20, 30, 40), 10)
    model[3, 1] = np.nan
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    with pytest.raises(ValueError, match="non-finite"):
        gradcheck_trials("rotation", model, group, mask, trials=3)


def _all_instance_central_differences(fn, instances, epsilon):
    # the form that re-evaluated every instance for each perturbed component
    work = [replace(i, pred_centroids=i.pred_centroids.copy(), pred_quats=i.pred_quats.copy())
            for i in instances]
    out = []
    for inst in work:
        for arr in (inst.pred_centroids, inst.pred_quats):
            flat = arr.reshape(-1)
            for idx in range(flat.shape[0]):
                orig = flat[idx]
                flat[idx] = orig + epsilon
                hi = fn(work)
                flat[idx] = orig - epsilon
                lo = fn(work)
                flat[idx] = orig
                out.append((hi - lo) / (2.0 * epsilon))
    return np.array(out)


@pytest.mark.parametrize("loss", ["rotation", "translation", "total"])
def test_central_differences_match_the_all_instance_form(loss):
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    rng = np.random.default_rng(23)
    instances = random_instances(box_cloud((20, 30, 40), 10), group, mask, rng,
                                 n_instances=3, n_points=4)
    fn, grads = losses._selector(loss)
    # the forms differ only by rounding, about eps * loss / step in the
    # all-instance form, so a step of 1e-4 keeps it well under the bound
    got = losses._central_differences(fn, instances, 1e-4, tuple(grads))
    want = _all_instance_central_differences(fn, instances, 1e-4)
    # the reference walks centroids (4 x 3) then quaternions (4 x 4) per instance
    walked = np.tile(np.repeat(["pred_centroids", "pred_quats"], [12, 16]), 3)
    walked = np.isin(walked, list(grads))
    assert np.abs(got - want[walked]).max() <= 1e-9 * np.abs(want).max()
    # the entries left out are those of arrays the loss does not read
    assert np.all(want[~walked] == 0.0)


def test_gradcheck_evaluates_only_the_perturbed_instance(monkeypatch):
    calls = []
    original = losses._rotation_values

    def counted(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(losses, "_rotation_values", counted)
    desc = SymmetryDescriptor(dz_deg=180)
    model = box_cloud((40, 120, 160), 12)
    gradcheck_trials("rotation", model, build_symmetry_group(desc), build_axis_mask(desc),
                     trials=1)
    # 2 instances x 3 x 4 quaternion components x 2 evaluations of one
    # instance; the rotation loss reads no centroid, so none is perturbed,
    # and the analytic gradient reads the kernel directly
    assert len(calls) == 2 * (3 * 4) * 2


def _quat_matrix_partials_reference(q):
    # d(rotation matrix)/d(quaternion component), the four components free
    w, x, y, z = q
    dw = 2.0 * np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    dx = 2.0 * np.array([[0.0, y, z], [y, -2.0 * x, -w], [z, w, -2.0 * x]])
    dy = 2.0 * np.array([[-2.0 * y, x, w], [x, 0.0, z], [-w, z, -2.0 * y]])
    dz = 2.0 * np.array([[-2.0 * z, -w, x], [w, -2.0 * z, y], [x, y, 0.0]])
    return np.stack([dw, dx, dy, dz])


def _rotation_loss_grad_reference(instances):
    # rotation_loss_grad as it was with its own second forward pass
    from binpose.losses import TIE_TOL
    from binpose.so3 import quats_to_matrices

    n = len(instances)
    grads = []
    for inst in instances:
        masked = inst.model * inst.mask
        RgS = np.einsum("ij,sjk->sik", inst.rotation_gt, inst.group.matrices)
        Rp = quats_to_matrices(inst.pred_quats)
        pred_pts = np.einsum("mij,kj->mki", Rp, masked)
        vals = np.linalg.norm(np.einsum("sij,kj->ski", RgS, masked)[:, None]
                              - pred_pts[None], axis=3).mean(axis=(1, 2))
        order = np.argsort(vals)
        assert vals.shape[0] == 1 or vals[order[1]] - vals[order[0]] >= TIE_TOL
        gt_pts = masked @ (inst.rotation_gt @ inst.group.matrices[int(order[0])]).T
        q = inst.pred_quats
        q_norm = np.linalg.norm(q, axis=1)
        q_hat = q / q_norm[:, None]
        err = pred_pts - gt_pts[None]
        norms = np.linalg.norm(err, axis=2)
        unit = err / np.where(norms > 1e-12, norms, 1.0)[..., None]
        unit[norms <= 1e-12] = 0.0
        m, K = norms.shape
        dL_dR = np.einsum("mki,kj->mij", unit, masked) / (n * m * K)
        partials = np.stack([_quat_matrix_partials_reference(qh) for qh in q_hat])
        g_hat = np.einsum("mcij,mij->mc", partials, dL_dR)
        radial = np.einsum("mc,mc->m", g_hat, q_hat)
        grads.append((g_hat - radial[:, None] * q_hat) / q_norm[:, None])
    return grads


@pytest.mark.parametrize("desc", [TWOFOLD, SymmetryDescriptor(90, 90, 90, 15),
                                  SymmetryDescriptor(0, 0, 1, 15)])
def test_rotation_loss_grad_matches_two_pass_reference(desc):
    from binpose.losses import rotation_loss_grad

    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    rng = np.random.default_rng(20)
    instances = random_instances(box_cloud((20, 30, 40), 10), group, mask, rng,
                                 n_instances=3, n_points=6)
    for got, expected in zip(rotation_loss_grad(instances),
                             _rotation_loss_grad_reference(instances)):
        # the gt points of the winning rotation are formed in another order
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _noisy_oracle_batch(shape, desc, seed):
    # the near-GT training batch: ground truth plus the noisy oracle's predictions
    from binpose.synth import (ObjectModel, OracleParams, SceneGenParams, apply_occlusion,
                               cylinder_cloud, generate_scene, oracle_predict)

    points = box_cloud((40, 120, 160), 12) if shape == "box" else cylinder_cloud(30, 120, 6)
    model = ObjectModel(shape, points, desc)
    params = SceneGenParams(instance_range=(3, 3), bin_extents=(700, 700, 500))
    scene = apply_occlusion(generate_scene(model, params, seed), 5.0, 10.0)
    pred = oracle_predict(scene, model, OracleParams(4.0, 8.0, True, 0.1), seed=seed,
                          bin_extents=params.bin_extents)
    return [LossInstance(inst.pose.rotation, inst.pose.t, model.points, model.group,
                         model.mask, scene.points[inst.point_indices],
                         pred.centroids[inst.point_indices], pred.quats[inst.point_indices])
            for inst in scene.instances if inst.n_visible > 0]


@pytest.mark.parametrize("shape,desc", [("box", TWOFOLD),
                                        ("cylinder", SymmetryDescriptor(0, 0, 1, 15))])
def test_rotation_loss_grad_matches_reference_on_noisy_oracle_batches(shape, desc):
    from binpose.losses import rotation_loss_grad

    for seed in range(2):
        instances = _noisy_oracle_batch(shape, desc, seed)
        for got, expected in zip(rotation_loss_grad(instances),
                                 _rotation_loss_grad_reference(instances)):
            assert np.abs(got - expected).max() <= 1e-11 * np.abs(expected).max()


def test_rotation_loss_grad_allocates_less_than_four_distance_arrays():
    import tracemalloc

    from binpose.losses import rotation_loss_grad

    inst = _noisy_oracle_batch("box", TWOFOLD, 0)[0]
    rotation_loss_grad([inst])                     # warm up lazily built state
    tracemalloc.start()
    try:
        rotation_loss_grad([inst])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, K = inst.pred_quats.shape[0], inst.model.shape[0]
    assert peak < 4 * m * K * 8
