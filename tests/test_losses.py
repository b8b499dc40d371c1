from dataclasses import replace

import numpy as np
import pytest

from binpose import losses
from binpose import so3
from binpose.losses import (GRADCHECK_STEP, LossInstance, LossWeights, TieAtMinimumError,
                            center_weights, gradcheck, gradcheck_trials,
                            numeric_gradient_norm, random_instances,
                            rotation_loss, total_loss, translation_loss)
from binpose.so3 import (SymmetryDescriptor, SymmetryGroup, axis_rotation,
                         build_axis_mask, build_symmetry_group, kernel_model,
                         matrix_to_quat, quat_to_matrix, random_quat)
from binpose.synth import ObjectModel, box_cloud, cylinder_cloud, sphere_cloud

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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["rotation_gt", "centroid_gt", "points", "pred_centroids",
                                   "pred_quats"])
def test_loss_instance_rejects_a_non_finite_entry(field, value):
    inst = make_instance(seed=26)
    arrays = {f: getattr(inst, f).copy() for f in ("rotation_gt", "centroid_gt", "points",
                                                  "pred_centroids", "pred_quats")}
    arrays[field].flat[1] = value
    with pytest.raises(ValueError, match=f"^{field} has a non-finite entry"):
        replace(inst, **arrays)


@pytest.mark.parametrize("scale", [0.0, 1e-170, 1e170])
def test_loss_instance_rejects_a_quaternion_row_it_cannot_normalize(scale):
    inst = make_instance(seed=27)
    quats = inst.pred_quats.copy()
    quats[2] *= scale              # zero, or a squared norm that under- or overflows
    with pytest.raises(ValueError, match="pred_quats row 2 has squared norm"):
        replace(inst, pred_quats=quats)


def test_loss_instance_accepts_small_and_large_quaternions():
    inst = make_instance(seed=27)
    base = rotation_loss([inst])
    for scale in (1e-150, 1e150):
        scaled = replace(inst, pred_quats=inst.pred_quats * scale)
        assert rotation_loss([scaled]) == pytest.approx(base, rel=1e-12)


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


@pytest.mark.parametrize("loss", ["rotation", "total"])
def test_default_step_passes_the_benchmark_gate_on_its_first_scene_seeds(loss):
    # the train_losses workload's objects and its check: scene seed s runs one
    # trial seeded s, on the box when s is even and on the cylinder when odd
    objects = [ObjectModel("box", box_cloud((40, 120, 160), 12), SymmetryDescriptor(dz_deg=180)),
               ObjectModel("cylinder", cylinder_cloud(30, 120, 6),
                           SymmetryDescriptor(dz_deg=1))]
    worst = 0.0
    # 561962 (box): two symmetry means 9.6e-6 apart, and a step of 1e-6 flips
    # the winner inside the stencil, which read 0.105 before gradcheck
    # resampled such configurations
    for seed in [*range(200), 561962]:
        model = objects[seed % 2]
        worst = max(worst, gradcheck_trials(loss, model.points, model.group, model.mask,
                                            trials=1, seed=seed))
    assert worst <= GRADCHECK_GATE


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
    terms = losses._selector(loss)
    fn = lambda ins: sum(value(ins) for _, value, _ in terms)
    # the forms differ only by rounding, about eps * loss / step in the
    # all-instance form, so a step of 1e-4 keeps it well under the bound
    got = losses._central_differences(terms, instances, 1e-4)
    want = _all_instance_central_differences(fn, instances, 1e-4)
    # the reference walks centroids (4 x 3) then quaternions (4 x 4) per instance
    walked = np.tile(np.repeat(["pred_centroids", "pred_quats"], [12, 16]), 3)
    walked = np.isin(walked, [field for field, _, _ in terms])
    assert np.abs(got - want[walked]).max() <= 1e-9 * np.abs(want).max()
    # the entries left out are those of arrays the loss does not read
    assert np.all(want[~walked] == 0.0)


def _per_component_central_differences(terms, instances, epsilon):
    # the loop the stacked evaluation replaced: one component of one term of
    # one instance per pair of loss calls
    out = []
    for inst in instances:
        inst = replace(inst, **{f: getattr(inst, f).copy() for f, _, _ in terms})
        for f, value, _ in terms:
            flat = getattr(inst, f).reshape(-1)
            for idx in range(flat.shape[0]):
                orig = flat[idx]
                flat[idx] = orig + epsilon
                hi = value([inst])
                flat[idx] = orig - epsilon
                lo = value([inst])
                flat[idx] = orig
                out.append((hi - lo) / (2.0 * epsilon * len(instances)))
    return np.array(out)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("loss, evaluations",
                         [("rotation", {"pred_quats": 2, "pred_centroids": 0}),
                          ("total", {"pred_quats": 2, "pred_centroids": 2})],
                         ids=["rotation", "total"])
def test_gradcheck_evaluates_each_term_of_an_instance_in_one_stacked_call(monkeypatch, loss,
                                                                          evaluations):
    calls = dict.fromkeys(evaluations, 0)
    for field in calls:
        def counted(inst, stack, _original=losses._STACKED[field], _field=field):
            calls[_field] += 1
            return _original(inst, stack)
        monkeypatch.setitem(losses._STACKED, field, counted)
    desc = SymmetryDescriptor(dz_deg=180)
    model = box_cloud((40, 120, 160), 12)
    gradcheck_trials(loss, model, build_symmetry_group(desc), build_axis_mask(desc),
                     trials=1)
    # 2 instances, each term evaluated once per instance on the stack of its
    # array's +/- steps (2 x 3 points x 4 or 3 components) and the array itself
    assert calls == evaluations


# objects for the bit-identity grid: finite groups of 1, 2 and 24 rotations,
# and masks that collapse the model onto an axis (with and without a flip)
# or onto the center
BIT_GRID_OBJECTS = {
    "box": (lambda: box_cloud((40, 120, 160), 12), SymmetryDescriptor(dz_deg=180)),
    "cube24": (lambda: box_cloud((50, 50, 50), 10), SymmetryDescriptor(90, 90, 90)),
    "cylinder": (lambda: cylinder_cloud(30, 120, 6), SymmetryDescriptor(dz_deg=1)),
    "flip_cylinder": (lambda: cylinder_cloud(30, 120, 6),
                      SymmetryDescriptor(dx_deg=180, dz_deg=1)),
    "sphere": (lambda: sphere_cloud(40, 300), SymmetryDescriptor(1, 1, 1)),
    "asymmetric_box": (lambda: box_cloud((20, 30, 40), 10), SymmetryDescriptor()),
}


@pytest.mark.parametrize("obj", sorted(BIT_GRID_OBJECTS))
def test_central_differences_are_the_per_component_loop_bit_for_bit(obj):
    make, desc = BIT_GRID_OBJECTS[obj]
    model, group, mask = make(), build_symmetry_group(desc), build_axis_mask(desc)
    rng = np.random.default_rng(24)
    for m in (1, 3, 5):
        instances = random_instances(model, group, mask, rng, n_instances=2, n_points=m)
        for loss in ("rotation", "translation", "total"):
            terms = losses._selector(loss)
            for epsilon in (1e-6, 1e-4):
                assert _same_bits(losses._central_differences(terms, instances, epsilon),
                                  _per_component_central_differences(terms, instances,
                                                                     epsilon))


def test_gradcheck_on_a_large_instance_keeps_kernel_buffers_within_the_block(monkeypatch):
    model = box_cloud((20, 30, 40), 10)
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    inst = random_instances(model, group, mask, np.random.default_rng(25), n_instances=1,
                            n_points=300)[0]
    # all 2 x 1200 quaternion steps at once would need 2400 x 300 x K' distances
    distances = kernel_model(model, mask).points.shape[0] * 300
    assert 2 * inst.pred_quats.size * distances > 100 * losses.STACK_BLOCK
    sizes, numeric = [], []

    def spy(diff, km, out, d=None, _original=so3._point_distances):
        sizes.append(out.size)
        return _original(diff, km, out, d)

    def kept(*args, _original=losses._central_differences):
        numeric.append(_original(*args))
        return numeric[-1]

    monkeypatch.setattr(so3, "_point_distances", spy)
    monkeypatch.setattr(losses, "_central_differences", kept)
    assert gradcheck("total", [inst]) < 1e-4
    assert len(sizes) > 2 and max(sizes) <= losses.STACK_BLOCK
    assert _same_bits(numeric[0], _per_component_central_differences(
        losses._selector("total"), [inst], GRADCHECK_STEP))


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
    m, K = inst.pred_quats.shape[0], inst.model.shape[0]
    # new content misses the forward's cache: the first call computes the
    # distances, the second reads the forward the first one left
    inst.pred_quats = 2.0 * inst.pred_quats
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            rotation_loss_grad([inst])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 4 * m * K * 8
    assert peaks[1] < m * K * 8


# ---------------------------------------------------------------------------
# the shared rotation forward


def _parent_rotation_loss(instances):
    # rotation_loss as it was: one (1, m) stack per instance
    total = 0.0
    for inst in instances:
        B = so3.quats_to_matrices(inst.pred_quats[None]).reshape(1, -1, 3, 3)
        total += float(so3.symmetric_distances(inst.rotation_gt, B, inst.model, inst.group,
                                               inst.mask)[0].min())
    return total / len(instances)


def _parent_rotation_loss_grad(instances):
    # rotation_loss_grad as it was: its own (m) distance pass and weights
    n = len(instances)
    grads = []
    for inst in instances:
        q = inst.pred_quats
        q_norm = np.linalg.norm(q, axis=1)[:, None]
        Rp = so3.quats_to_matrices(q)
        vals, dists = so3.symmetric_distances(inst.rotation_gt, Rp, inst.model, inst.group,
                                              inst.mask)
        order = np.argsort(vals)
        if vals.shape[0] > 1 and vals[order[1]] - vals[order[0]] < losses.TIE_TOL:
            raise TieAtMinimumError("tie")
        S = inst.rotation_gt @ inst.group.matrices[order[0]]
        km = kernel_model(inst.model, inst.mask)
        weights = np.divide(1.0, dists, out=np.zeros_like(dists), where=dists > 1e-12)
        if km.counts is not None:
            weights *= km.counts
        m = dists.shape[0]
        W = (weights @ km.outer).reshape(m, 3, 3)
        M = Rp.transpose(0, 2, 1) @ (Rp - S) @ W / (n * m * km.size)
        v = np.stack([np.zeros(m), M[:, 2, 1] - M[:, 1, 2], M[:, 0, 2] - M[:, 2, 0],
                      M[:, 1, 0] - M[:, 0, 1]], axis=1)
        grads.append(2.0 * so3.quat_multiply_batch(q / q_norm, v) / q_norm)
    return grads


def _assert_matches_the_parent_formulas(instances):
    try:
        want = _parent_rotation_loss_grad(instances)
    except TieAtMinimumError:
        with pytest.raises(TieAtMinimumError):
            losses.rotation_loss_grad(instances)
        return False
    assert rotation_loss(instances) == _parent_rotation_loss(instances)
    got = losses.rotation_loss_grad(instances)
    assert len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want))
    return True


@pytest.mark.parametrize("obj, n_s, distinct", [("box", 2, 400), ("cylinder", 1, 21),
                                                ("cube24", 24, None)])
def test_loss_and_gradient_are_the_parent_formulas_bit_for_bit(obj, n_s, distinct):
    make, desc = BIT_GRID_OBJECTS[obj]
    model, group, mask = make(), build_symmetry_group(desc), build_axis_mask(desc)
    km = kernel_model(model, mask)
    assert len(group) == n_s
    assert distinct is None or km.points.shape[0] == distinct
    assert (km.counts is not None) == (obj == "cylinder")
    rng = np.random.default_rng(40)
    compared = 0
    for m in (1, 3, 8, 40):
        compared += _assert_matches_the_parent_formulas(
            random_instances(model, group, mask, rng, n_instances=3, n_points=m))
    if obj != "cube24":
        for seed in range(2):
            compared += _assert_matches_the_parent_formulas(
                _noisy_oracle_batch(obj, desc, seed))
    assert compared >= 4


def test_a_training_step_computes_each_instance_forward_once(monkeypatch):
    calls = []
    original = losses.symmetric_distances

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(losses, "symmetric_distances", counted)
    desc = SymmetryDescriptor(dz_deg=180)
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    # content no other test builds, so no forward is cached yet
    batch = random_instances(box_cloud((40, 120, 160), 12), group, mask,
                             np.random.default_rng(41), n_instances=5, n_points=7)
    total_loss(batch, LossWeights())
    losses.rotation_loss_grad(batch)
    assert calls == [(1, 7, 3, 3)] * 5


def test_the_forward_is_keyed_on_content_not_on_the_instance():
    desc = SymmetryDescriptor(dz_deg=180)
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    inst = random_instances(box_cloud((40, 120, 160), 12), group, mask,
                            np.random.default_rng(42), n_instances=1, n_points=6)[0]
    rotation_loss([inst])
    before = losses.rotation_loss_grad([inst])[0]
    # the same object, changed in place between the loss and the gradient
    inst.pred_quats[2] = random_quat(np.random.default_rng(43))
    got = losses.rotation_loss_grad([inst])[0]
    assert not np.array_equal(got, before)
    assert _same_bits(got, _parent_rotation_loss_grad([inst])[0])
    assert rotation_loss([inst]) == _parent_rotation_loss([inst])
