import itertools
import tracemalloc

import numpy as np
import pytest

from binpose.metrics import (EvalConfig, count_visible_gt, evaluate, f1_inst,
                             match_predictions, pointwise_recall)
from binpose.so3 import (DIST_BLOCK, Pose, SymmetryDescriptor, build_axis_mask,
                         build_symmetry_group, matrix_to_quat,
                         quat_from_axis_angle, quat_multiply, quat_normalize,
                         random_quat, symmetric_distances, symmetric_pose_distance)
from binpose.synth import box_cloud

TWOFOLD = SymmetryDescriptor(0, 0, 180, 15)


def symmetry_setup(desc=TWOFOLD, extents=(40, 60, 90), pitch=10):
    return (box_cloud(extents, pitch), build_symmetry_group(desc),
            build_axis_mask(desc))


def brute_force_tp(pred_poses, gt_poses, model, group, mask, tol):
    """Maximum number of sub-threshold matches over all one-to-one
    assignments; exponential, only for tiny scenes."""
    n_p, n_g = len(pred_poses), len(gt_poses)
    dist = np.array([[symmetric_pose_distance(model, g, p, group, mask)[1]
                      for g in gt_poses] for p in pred_poses])
    best = 0
    small, large = (range(n_p), range(n_g)) if n_p <= n_g else (range(n_g), range(n_p))
    for perm in itertools.permutations(large, len(list(small))):
        tp = 0
        for a, b in zip(small, perm):
            d = dist[a, b] if n_p <= n_g else dist[b, a]
            if d < tol:
                tp += 1
        best = max(best, tp)
    return best


def random_benign_scene(rng, model, group, mask, tol):
    """Preds hug distinct gts (well under tol) plus far outliers."""
    n_gt = int(rng.integers(1, 6))
    gts = [Pose(random_quat(rng), rng.uniform(-150, 150, 3)) for _ in range(n_gt)]
    preds = []
    for g in gts:
        if rng.random() < 0.8:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            dq = quat_from_axis_angle(axis, np.radians(rng.uniform(0, 0.3)))
            dt = rng.normal(size=3)
            dt *= rng.uniform(0, 0.3 * tol) / np.linalg.norm(dt)
            preds.append(Pose(quat_normalize(quat_multiply(g.quat, dq)), g.t + dt))
    for _ in range(int(rng.integers(0, 3))):
        preds.append(Pose(random_quat(rng), rng.uniform(500, 900, 3)))
    return preds, gts


# ---------------------------------------------------------------------------
# visibility


def test_all_equally_visible_count():
    n, keep = count_visible_gt([100, 100, 100], 0.4)
    assert n == 3 and keep == [0, 1, 2]


def test_visibility_threshold_excludes():
    n, keep = count_visible_gt([100, 100, 35], 0.4)
    assert n == 2 and keep == [0, 1]


def test_visibility_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 200, size=rng.integers(1, 9)).tolist()
        t_v = float(rng.uniform(0.1, 0.9))
        n, keep = count_visible_gt(counts, t_v)
        top = max(counts)
        naive = [i for i, c in enumerate(counts) if top > 0 and c / top > t_v]
        assert keep == naive and n == len(naive)


def test_visibility_empty_scene():
    assert count_visible_gt([], 0.4) == (0, [])


# ---------------------------------------------------------------------------
# matching


def test_match_perfect_predictions():
    model, group, mask = symmetry_setup()
    rng = np.random.default_rng(1)
    gts = [Pose(random_quat(rng), rng.uniform(-100, 100, 3)) for _ in range(4)]
    rows, tp = match_predictions(gts, gts, model, group, mask, 5.0)
    assert tp == 4
    assert all(r.mean_distance < 1e-9 and r.pred_index == r.gt_index for r in rows)


def test_match_is_one_to_one():
    model, group, mask = symmetry_setup()
    rng = np.random.default_rng(2)
    pred = [Pose(random_quat(rng), [0.0, 0.0, 0.0])]
    gts = [Pose(random_quat(rng), [0.0, 0.0, 0.0]),
           Pose(random_quat(rng), [1.0, 0.0, 0.0])]
    rows, _ = match_predictions(pred, gts, model, group, mask, 50.0)
    assert len(rows) == 1


def test_greedy_matches_brute_force_on_benign_scenes():
    model, group, mask = symmetry_setup()
    cfg = EvalConfig(5.0, 0.4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        preds, gts = random_benign_scene(rng, model, group, mask, cfg.tolerance_mm)
        _, tp = match_predictions(preds, gts, model, group, mask, cfg.tolerance_mm)
        assert tp == brute_force_tp(preds, gts, model, group, mask, cfg.tolerance_mm)


# ---------------------------------------------------------------------------
# f1


def test_f1_perfect():
    assert f1_inst(5, 5, 5) == 1.0


def test_f1_zero_tp():
    assert f1_inst(0, 4, 6) == 0.0
    assert f1_inst(0, 0, 0) == 0.0


def test_f1_matches_harmonic_mean_identity():
    tp, n_pred, n_gt = 8, 9, 10
    got = f1_inst(tp, n_pred, n_gt)
    assert got == pytest.approx(16.0 / 19.0, abs=1e-15)
    precision = tp / n_pred
    recall = tp / n_gt
    harmonic = 2.0 * precision * recall / (precision + recall)
    assert got == pytest.approx(harmonic, abs=1e-12)


# ---------------------------------------------------------------------------
# point-wise recall


def test_recall_perfect_and_empty():
    model, group, mask = symmetry_setup()
    rng = np.random.default_rng(4)
    gts = [Pose(random_quat(rng), rng.uniform(-100, 100, 3)) for _ in range(3)]
    rows, _ = match_predictions(gts, gts, model, group, mask, 5.0)
    recall, _, _ = pointwise_recall(rows, len(gts), model.shape[0])
    assert recall == 1.0
    recall, _, _ = pointwise_recall([], len(gts), model.shape[0])
    assert recall == 0.0


def test_recall_half_when_one_of_two_matched():
    model, group, mask = symmetry_setup()
    rng = np.random.default_rng(5)
    gts = [Pose(random_quat(rng), [0, 0, 0]), Pose(random_quat(rng), [500, 0, 0])]
    preds = [gts[0]]
    rows, _ = match_predictions(preds, gts, model, group, mask, 5.0)
    recall, matched, total = pointwise_recall(rows, len(gts), model.shape[0])
    assert recall == 0.5
    assert total == 2 * model.shape[0] and matched == model.shape[0]


# ---------------------------------------------------------------------------
# full evaluation invariants


def make_eval_inputs(rng, model, group, mask, n=4):
    gts = [Pose(random_quat(rng), rng.uniform(-150, 150, 3)) for _ in range(n)]
    preds = [Pose(g.quat, g.t + rng.normal(0, 0.2, 3)) for g in gts]
    counts = [model.shape[0]] * n
    return preds, gts, counts


def test_metrics_invariant_under_symmetric_pred_substitution():
    model, group, mask = symmetry_setup(extents=(40, 120, 160))
    cfg = EvalConfig(5.0, 0.4)
    rng = np.random.default_rng(6)
    preds, gts, counts = make_eval_inputs(rng, model, group, mask)
    base = evaluate(preds, gts, counts, model, group, mask, cfg)
    for s in group.matrices[1:]:
        preds_s = [Pose(matrix_to_quat(p.rotation @ s), p.t) for p in preds]
        rep = evaluate(preds_s, gts, counts, model, group, mask, cfg)
        # count-derived fields are identical; distances agree to rounding
        assert (rep.n_gt, rep.n_pred, rep.tp) == (base.n_gt, base.n_pred, base.tp)
        assert rep.f1_inst == base.f1_inst
        assert rep.recall == base.recall
        for a, b in zip(base.matches, rep.matches):
            assert (a.pred_index, a.gt_index, a.is_tp) == (b.pred_index, b.gt_index, b.is_tp)
            assert abs(a.mean_distance - b.mean_distance) < 1e-9


def test_metrics_invariant_under_prediction_permutation():
    model, group, mask = symmetry_setup()
    cfg = EvalConfig(5.0, 0.4)
    rng = np.random.default_rng(7)
    preds, gts, counts = make_eval_inputs(rng, model, group, mask)
    base = evaluate(preds, gts, counts, model, group, mask, cfg)
    perm = [2, 0, 3, 1]
    rep = evaluate([preds[i] for i in perm], gts, counts, model, group, mask, cfg)
    assert rep.tp == base.tp and rep.f1_inst == base.f1_inst and rep.recall == base.recall
    # the same pred/gt pairs are matched, modulo the permutation
    base_pairs = {(m.pred_index, m.gt_index) for m in base.matches}
    rep_pairs = {(perm[m.pred_index], m.gt_index) for m in rep.matches}
    assert rep_pairs == base_pairs


def test_recall_monotone_in_tolerance():
    model, group, mask = symmetry_setup()
    rng = np.random.default_rng(8)
    gts = [Pose(random_quat(rng), rng.uniform(-100, 100, 3)) for _ in range(3)]
    preds = [Pose(quat_normalize(quat_multiply(g.quat,
                  quat_from_axis_angle(rng.normal(size=3), np.radians(3)))),
                  g.t + rng.normal(0, 2.0, 3)) for g in gts]
    counts = [model.shape[0]] * 3
    prev = -1.0
    for tol in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]:
        rep = evaluate(preds, gts, counts, model, group, mask, EvalConfig(tol, 0.4))
        assert rep.recall >= prev
        prev = rep.recall


def test_spurious_prediction_lowers_f1_not_recall():
    model, group, mask = symmetry_setup()
    cfg = EvalConfig(5.0, 0.4)
    rng = np.random.default_rng(9)
    preds, gts, counts = make_eval_inputs(rng, model, group, mask)
    base = evaluate(preds, gts, counts, model, group, mask, cfg)
    spurious = preds + [Pose(random_quat(rng), [2000.0, 2000.0, 2000.0])]
    rep = evaluate(spurious, gts, counts, model, group, mask, cfg)
    assert rep.f1_inst < base.f1_inst
    assert rep.recall == base.recall


@pytest.mark.parametrize("points, blocks", [(None, [15]), (DIST_BLOCK // 7, [7, 7, 1])],
                         ids=["one_block", "three_blocks"])
def test_evaluate_scores_every_pair_once_in_stacked_blocks(monkeypatch, points, blocks):
    import binpose.metrics as metrics

    calls = []

    def counted(A, B, model, group, mask, d=None):
        calls.append((A, B, d))
        return symmetric_distances(A, B, model, group, mask, d)

    monkeypatch.setattr(metrics, "symmetric_distances", counted)
    model, group, mask = symmetry_setup()
    if points is not None:     # DIST_BLOCK // 7 distinct points: 7 pairs a block
        model = np.random.default_rng(13).uniform(-60.0, 60.0, size=(points, 3))
    rng = np.random.default_rng(10)
    preds, gts, counts = make_eval_inputs(rng, model, group, mask, n=4)
    preds.append(Pose(random_quat(rng), [2000.0, 2000.0, 2000.0]))
    counts[3] = 1                                   # filtered out by visibility
    rep = evaluate(preds, gts, counts, model, group, mask, EvalConfig(5.0, 0.4))
    assert (rep.n_pred, rep.n_gt, rep.tp) == (5, 3, 3)
    assert rep.recall == 1.0
    # blocks of one-row stacks, the 5 x 3 pairs in pred-major order, each once
    assert [B.shape[0] for _, B, _ in calls] == blocks
    for A, B, d in calls:
        assert A.shape == (B.shape[0], 3, 3) and B.shape[1:] == (1, 3, 3)
        assert d.shape == (B.shape[0], 1, 3)
    A, B, d = (np.concatenate(arrays) for arrays in zip(*calls))
    visible = [gts[k] for k in count_visible_gt(counts, 0.4)[1]]
    for n, (i, j) in enumerate(np.ndindex(rep.n_pred, rep.n_gt)):
        g, p = visible[j], preds[i]
        assert np.array_equal(A[n], g.rotation) and np.array_equal(B[n, 0], p.rotation)
        assert np.array_equal(d[n, 0], g.t - p.t)
    for r in rep.matches:      # each pair has the bits of its own distance
        g, p = gts[r.gt_index], preds[r.pred_index]
        assert r.mean_distance == symmetric_pose_distance(model, g, p, group, mask)[1]


def test_matching_holds_a_fixed_block_of_distances():
    # 30 x 30 poses on 5000 model points: an (n_pred, n_gt, K') table is 36 MB
    _, group, mask = symmetry_setup()
    rng = np.random.default_rng(14)
    model = rng.uniform(-60.0, 60.0, size=(5000, 3))
    gts = [Pose(random_quat(rng), rng.uniform(-100.0, 100.0, 3)) for _ in range(30)]
    preds = [Pose(random_quat(rng), rng.uniform(-100.0, 100.0, 3)) for _ in range(30)]
    match_predictions(preds, gts, model, group, mask, 5.0)    # builds the kernel model
    tracemalloc.start()
    try:
        match_predictions(preds, gts, model, group, mask, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # symmetric_distances' two block buffers and one product temporary; the
    # previous block's distances are gone before the next block's buffers
    assert peak < 4 * 8 * DIST_BLOCK


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(0.0, 0.4)
    with pytest.raises(ValueError):
        EvalConfig(5.0, 1.0)


@pytest.mark.parametrize("change", [-1, 1])
def test_evaluate_rejects_visible_counts_not_one_per_gt_pose(change):
    model, group, mask = symmetry_setup()
    preds, gts, counts = make_eval_inputs(np.random.default_rng(11), model, group, mask)
    counts = (list(counts) + [100])[:len(gts) + change]
    with pytest.raises(ValueError, match="visible counts for"):
        evaluate(preds, gts, counts, model, group, mask, EvalConfig(5.0, 0.4))


@pytest.mark.parametrize("bad", [-5, np.nan, np.inf, -np.inf])
def test_evaluate_rejects_negative_or_non_finite_visible_counts(bad):
    model, group, mask = symmetry_setup()
    preds, gts, counts = make_eval_inputs(np.random.default_rng(12), model, group, mask)
    counts[2] = bad
    with pytest.raises(ValueError, match=r"visible_counts\[2\]"):
        evaluate(preds, gts, counts, model, group, mask, EvalConfig(5.0, 0.4))
