import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from binpose import cluster
from binpose.cluster import (ClusterParams, MeanShiftResult, PerPointPrediction,
                             cluster_predictions, mean_shift, pose_vote,
                             stage1_features, two_stage_pipeline)
from binpose.so3 import (SymmetryDescriptor, matrix_to_quat, quat_normalize,
                         quat_to_matrix, random_quat, symmetric_pose_distance)
from binpose.synth import (ObjectModel, OracleParams, SceneGenParams,
                           apply_occlusion, box_cloud, generate_scene,
                           make_crossing_rods_scene, oracle_predict, rod_model)
from binpose.workspace import denormalize_pose, fit_normalization, normalize_scene

TWOFOLD = SymmetryDescriptor(0, 0, 180, 15)


def epanechnikov_mode_search(points, bandwidth, window_center, half_width, pitch=1e-3):
    """Grid argmax of the Epanechnikov KDE (the density whose gradient
    ascent is flat-kernel mean shift); independent of the mean-shift path."""
    points = np.atleast_2d(np.asarray(points, dtype=float).T).T
    k = points.shape[1]
    axes = [np.arange(window_center[a] - half_width, window_center[a] + half_width, pitch)
            for a in range(k)]
    if k == 1:
        grid = axes[0][:, None]
    else:
        gx, gy = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d2 = ((grid[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    u2 = d2 / bandwidth ** 2
    dens = np.where(u2 < 1.0, 1.0 - u2, 0.0).sum(axis=1)
    return grid[int(np.argmax(dens))]


# ---------------------------------------------------------------------------
# mean shift


def test_mean_shift_two_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.6, size=(80, 2))
    b = rng.normal(10.0, 0.6, size=(60, 2))
    X = np.concatenate([a, b])
    res = mean_shift(X, bandwidth=3.0, min_points=5)
    assert res.modes.shape[0] == 2
    assert set(res.labels[:80]) == {0}
    assert set(res.labels[80:]) == {1}


def test_mean_shift_identical_points():
    X = np.tile([2.0, 3.0, 4.0], (25, 1))
    res = mean_shift(X, bandwidth=1.0, min_points=1)
    assert res.modes.shape[0] == 1
    assert np.allclose(res.modes[0], [2.0, 3.0, 4.0], atol=0)


def test_mean_shift_1d_example_with_grid_oracle():
    X = np.array([0.0, 0.1, 0.2, 5.0, 5.1])
    tol = 1e-4
    res = mean_shift(X, bandwidth=0.5, min_points=2, tol=tol)
    assert [sorted(m.tolist()) for m in res.members] == [[0, 1, 2], [3, 4]]
    for mode, center in zip(res.modes, ([0.1], [5.05])):
        oracle = epanechnikov_mode_search(X, 0.5, center, 0.4, pitch=1e-3)
        assert abs(mode[0] - oracle[0]) < 5e-3  # grid pitch dominates
    assert res.modes[0][0] == pytest.approx(0.1, abs=tol)
    assert res.modes[1][0] == pytest.approx(5.05, abs=tol)


def test_mean_shift_empty_input():
    res = mean_shift(np.empty((0, 3)), bandwidth=1.0)
    assert res.modes.shape[0] == 0
    assert res.labels.shape[0] == 0


def test_mean_shift_min_points_discards():
    X = np.array([0.0, 0.05, 0.1, 9.0])
    res = mean_shift(X, bandwidth=0.5, min_points=2)
    assert res.modes.shape[0] == 1
    assert res.labels.tolist() == [0, 0, 0, -1]


def test_mean_shift_reports_max_iters():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(0.0, 0.6, size=(80, 2)),
                        rng.normal(10.0, 0.6, size=(60, 2))])
    assert not mean_shift(X, bandwidth=3.0, max_iters=1).converged
    assert mean_shift(X, bandwidth=3.0).converged


def test_mean_shift_keeps_a_seed_whose_window_rounds_empty():
    # at 1e10 the d2 product rounds the third point's own d2 to about 2.6e5,
    # past h^2 = 25, so its window is empty; the seed stays where it is
    # rather than moving to the origin and taking a cluster 1e9 away
    X = np.random.default_rng(0).normal(size=(3, 7)) * 1e9 + 1e10
    res = mean_shift(X, 5.0)
    assert np.all(np.linalg.norm(res.modes[:, None] - X[None], axis=2).min(axis=1) <= 5.0)
    assert np.all(np.linalg.norm(X - res.modes[res.labels], axis=1) <= 5.0)


def test_mean_shift_rejects_non_finite_features():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            mean_shift(np.array([[0.0, 1.0], [bad, 2.0]]), bandwidth=1.0)


@pytest.mark.parametrize("n", [0, 50])
@pytest.mark.parametrize("kwargs, key", [
    ({"bandwidth": 0.0}, "bandwidth"), ({"bandwidth": -1.0}, "bandwidth"),
    ({"bandwidth": np.nan}, "bandwidth"),
    ({"min_points": 0}, "min_points"), ({"min_points": -3}, "min_points"),
    ({"max_iters": 0}, "max_iters"), ({"max_iters": -1}, "max_iters"),
    ({"tol": 0.0}, "tol"), ({"tol": -1e-3}, "tol"), ({"tol": np.nan}, "tol"),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()))
def test_mean_shift_rejects_bad_parameters(n, kwargs, key):
    # checked before the empty-input return, so an empty input fails too
    X = np.random.default_rng(0).normal(size=(n, 3))
    with pytest.raises(ValueError, match=key):
        mean_shift(X, **dict({"bandwidth": 1.0}, **kwargs))


def dense_mean_shift(X, bandwidth, min_points=1, max_iters=300, tol=1e-3):
    """The dense reference: every active seed scans every point on every
    pass, in blocks of 2048 seeds. Returns (modes, labels, members)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    X_sq = (X * X).sum(axis=1)
    bw2 = bandwidth * bandwidth

    def windows(means, seeds):
        for lo in range(0, seeds.shape[0], 2048):
            sel = seeds[lo:lo + 2048]
            M = means[sel]
            d2 = (M * M).sum(axis=1)[:, None] + X_sq[None, :] - 2.0 * (M @ X.T)
            yield sel, d2 <= bw2

    means = X.copy()
    active = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        if not active.any():
            break
        for sel, inside in windows(means, np.nonzero(active)[0]):
            inside = inside.astype(X.dtype)
            counts = inside.sum(axis=1)[:, None]
            # an empty window leaves its seed where it is
            new = np.divide(inside @ X, counts, out=means[sel], where=counts > 0.0)
            shift = np.linalg.norm(new - means[sel], axis=1)
            means[sel] = new
            active[sel[shift < tol]] = False
    support = np.empty(n)
    for sel, inside in windows(means, np.arange(n)):
        support[sel] = inside.sum(axis=1)
    modes = []
    for i in np.lexsort((np.arange(n), -support)):
        m = means[i]
        if modes and np.linalg.norm(np.stack(modes) - m, axis=1).min() < bandwidth / 2.0:
            continue
        modes.append(m)
    modes = np.stack(modes)
    assign = np.argmin(((X[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2), axis=1)
    labels = np.full(n, -1, dtype=int)
    kept, members = [], []
    for c in range(modes.shape[0]):
        idx = np.nonzero(assign == c)[0]
        if idx.shape[0] >= min_points:
            labels[idx] = len(members)
            members.append(idx)
            kept.append(modes[c])
    return (np.stack(kept) if kept else np.empty((0, X.shape[1]))), labels, members


def assert_matches_dense(X, bandwidth, min_points=1, max_iters=300):
    res = mean_shift(X, bandwidth, min_points, max_iters)
    modes, labels, members = dense_mean_shift(X, bandwidth, min_points, max_iters)
    assert np.array_equal(res.labels, labels)
    assert len(res.members) == len(members)
    assert all(np.array_equal(a, b) for a, b in zip(res.members, members))
    assert res.modes.shape == modes.shape
    assert np.abs(res.modes - modes).max(initial=0.0) <= 1e-12


@st.composite
def mean_shift_inputs(draw):
    """Points on a lattice of a quarter bandwidth (so coordinates sit on
    exact multiples of it and many pairs lie exactly one bandwidth apart),
    with duplicated rows and an isolated seed.

    Lattice distances are computed exactly, so window membership is
    decided exactly. The optional jitter off the lattice is distinct per
    coordinate: equal jitter would put pairs within rounding of the
    window boundary, where the dense and the pruned passes round their
    dot products differently and either answer is a correct rounding."""
    k = draw(st.sampled_from([1, 2, 3, 7]))
    h = draw(st.sampled_from([0.5, 1.0, 5.0]))
    n = draw(st.integers(1, 40))
    X = draw(arrays(np.int64, (n, k), elements=st.integers(-8, 8))) * (h / 4.0)
    if draw(st.booleans()):
        X = X + draw(arrays(np.float64, (n, k), elements=st.floats(-0.3, 0.3),
                            unique=True)) * h
    X = np.concatenate([X, X[draw(st.lists(st.integers(0, n - 1), max_size=10))]])
    if draw(st.booleans()):
        X = np.concatenate([X, np.full((1, k), 40.0 * h)])
    return X, h, draw(st.integers(1, 4)), draw(st.sampled_from([1, 300]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mean_shift_inputs())
def test_mean_shift_matches_dense_reference(case):
    X, h, min_points, max_iters = case
    assert_matches_dense(X, h, min_points, max_iters)


def test_mean_shift_pair_exactly_one_bandwidth_apart():
    # each point sits on the other's window boundary, in every dimension count
    for k in (1, 2, 3, 7):
        X = np.zeros((2, k))
        X[1, k - 1] = 5.0
        assert_matches_dense(X, 5.0)
        assert len(mean_shift(X, 5.0).members) == 1


NOISY = OracleParams(4.0, 8.0, True, 0.1)


def stage1_input(oracle):
    """The stage-1 features of a box scene (seed 1), in normalized mm."""
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = apply_occlusion(generate_scene(model, SceneGenParams((3, 5), (700, 700, 500)),
                                           seed=1), 5.0, 10.0)
    pred = oracle_predict(scene, model, oracle, seed=1, bin_extents=(700, 700, 500))
    transform = fit_normalization(model.points)
    positions, transform = normalize_scene(pred.positions, transform)
    pred_n = PerPointPrediction(positions, transform.forward_points(pred.centroids),
                                pred.quats)
    return stage1_features(pred_n, ClusterParams().quat_scale)


@pytest.mark.parametrize("oracle", [OracleParams(1.0, 2.0, True), NOISY],
                         ids=["clean", "noisy"])
@pytest.mark.parametrize("max_iters", [1, 300])
def test_stage1_mean_shift_matches_dense_reference(oracle, max_iters):
    params = ClusterParams()
    assert_matches_dense(stage1_input(oracle), params.bandwidth_1, params.min_points_1,
                         max_iters)


@pytest.mark.parametrize("block", [cluster.WINDOW_BLOCK, 512])
def test_window_blocks_stay_within_window_block(monkeypatch, block):
    """Every block ``_Grid.windows`` yields holds at most WINDOW_BLOCK
    (mean, candidate) pairs unless it is a single mean: that bounds the
    memory of a pass. At 512 pairs some cells have more candidates than
    that, so single-mean blocks occur."""
    shapes = []
    windows = cluster._Grid.windows

    def spy(self, means):
        for sel, cand, inside in windows(self, means):
            assert inside.shape == (sel.shape[0], cand.shape[0])
            shapes.append(inside.shape)
            yield sel, cand, inside

    X = stage1_input(NOISY)
    params = ClusterParams()
    want = mean_shift(X, params.bandwidth_1, params.min_points_1)
    monkeypatch.setattr(cluster, "WINDOW_BLOCK", block)
    monkeypatch.setattr(cluster._Grid, "windows", spy)
    res = mean_shift(X, params.bandwidth_1, params.min_points_1)
    assert np.array_equal(res.labels, want.labels)
    sizes = np.array(shapes)
    assert ((sizes.prod(axis=1) <= block) | (sizes[:, 0] == 1)).all()
    assert (sizes[:, 0] > 1).any()
    assert (sizes.prod(axis=1) > block // 2).any()
    if block < cluster.WINDOW_BLOCK:
        assert (sizes[:, 1] > block).any()


@pytest.mark.parametrize("k", [3, 7])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e5])
def test_grid_candidates_hold_every_point_the_window_counts(k, scale):
    """Means sit at and inside the faces of one cell, |x| about scale * h.
    Points lie exactly h, h (1 - 2**-40) and up to 1e-4 h past h from
    them, in axis and diagonal directions that cross the faces. Every
    point within h of a mean is its candidate, and so is every point its
    window counts over all points. From |x| = 1e4 h the rounding slack,
    not the 1e-6 h margin, sets the cell width, and at 1e5 h rounding
    counts points past that margin. At 1e3 h rounding decides membership
    within ~1e-9 h**2 of h**2, and more at larger scales, so this checks
    candidate sets, not membership."""
    h = 5.0
    axes = np.eye(k)
    diagonals = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)]) / np.sqrt(3.0)
    dirs = np.concatenate([axes, -axes, np.pad(diagonals, ((0, 0), (0, k - 3)))])
    within = (h, h * (1.0 - 2.0 ** -40))
    radii = (*within, *(h * (1.0 + np.geomspace(1e-7, 1e-4, 7))))
    base = np.full(k, scale * h)

    def around(m):
        return np.concatenate([m + r * dirs for r in radii])

    far = base + 10.0 * h * axes[0]     # ten cells away: never a candidate
    width = cluster._Grid(np.concatenate([around(base), far[None]]), h).width
    fractions = np.array([0.0, 1e-9, 0.5, 1.0 - 1e-9])
    means = np.repeat(base[None], fractions.shape[0] ** 3, axis=0)
    means[:, :3] = (np.floor(base[:3] / width)
                    + np.stack(np.meshgrid(fractions, fractions, fractions),
                               axis=-1).reshape(-1, 3)) * width
    X = np.concatenate([*map(around, means), far[None]])
    grid = cluster._Grid(X, h)
    if scale >= 1e4:
        assert grid.width > h * (1.0 + 2e-6)
    counted = grid.augment(means) @ grid.rows.T <= grid.bw2
    n_within = len(within) * dirs.shape[0]
    seen = 0
    for sel, cand, _ in grid.windows(means):
        rows = {r.tobytes() for r in cand[:, :k]}
        assert far.tobytes() not in rows
        for i in sel:
            want = np.concatenate([around(means[i])[:n_within], X[counted[i]]])
            assert all(r.tobytes() in rows for r in want)
            seen += 1
    assert seen == means.shape[0]


# ---------------------------------------------------------------------------
# stage-1 features


def test_stage1_features_zero_scale_is_translation_only():
    rng = np.random.default_rng(1)
    pred = PerPointPrediction(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)),
                              np.stack([random_quat(rng) for _ in range(5)]))
    f = stage1_features(pred, 0.0)
    assert f.shape == (5, 7)
    assert np.array_equal(f[:, 3:], np.zeros((5, 4)))
    assert np.array_equal(f[:, :3], pred.centroids)


def test_stage1_features_separate_flip_equivalents():
    q = quat_normalize([1.0, 0.2, -0.1, 0.4])
    q_flip = matrix_to_quat(quat_to_matrix(q) @ np.diag([-1.0, -1.0, 1.0]))
    c = np.zeros(3)
    pred = PerPointPrediction(np.zeros((2, 3)), np.stack([c, c]), np.stack([q, q_flip]))
    f = stage1_features(pred, 20.0)
    dist = np.linalg.norm(f[0] - f[1])
    assert dist == pytest.approx(20.0 * np.linalg.norm(q - q_flip), abs=1e-9)
    assert dist > 0.0


def test_stage1_features_canonicalize_sign():
    q = quat_normalize([0.5, 0.5, 0.5, 0.5])
    pred = PerPointPrediction(np.zeros((2, 3)), np.zeros((2, 3)),
                              np.stack([q, q]))
    pred.quats[1] = -pred.quats[1]  # sneak a flipped sign past the constructor
    f = stage1_features(pred, 20.0)
    assert np.array_equal(f[0], f[1])


# ---------------------------------------------------------------------------
# crossing rods: the joint features are what separates them


def normalized_rod_prediction(scene, model, quat_scale, seed, stride=4):
    pred = oracle_predict(scene, model, OracleParams(1.0, 1.0, False), seed=seed)
    sel = slice(None, None, stride)
    pred = PerPointPrediction(pred.positions[sel], pred.centroids[sel], pred.quats[sel])
    t0 = fit_normalization(model.points)
    pos_n, t = normalize_scene(pred.positions, t0)
    return PerPointPrediction(pos_n, t.forward_points(pred.centroids), pred.quats), t


def test_crossing_rods_two_stage_vs_translation_only():
    model = rod_model(pitch=4.0)
    scene = make_crossing_rods_scene(3.0, 90.0, model)
    pred_n, _ = normalized_rod_prediction(scene, model, 20.0, seed=0, stride=2)
    params = ClusterParams(bandwidth_1=5.0, bandwidth_2=0.4, min_points_1=20,
                           min_points_2=50, quat_scale=20.0)
    res = two_stage_pipeline(pred_n, params, model.group, model.mask, model.points)
    assert len(res.instances) == 2
    params0 = ClusterParams(bandwidth_1=5.0, bandwidth_2=0.4, min_points_1=20,
                            min_points_2=50, quat_scale=0.0)
    res0 = two_stage_pipeline(pred_n, params0, model.group, model.mask, model.points)
    assert len(res0.instances) == 1


# ---------------------------------------------------------------------------
# pose voting


def test_pose_vote_unanimous_quaternion():
    q = quat_normalize([0.3, 0.2, 0.8, -0.1])
    model = box_cloud((20, 30, 40), 10)
    desc = TWOFOLD
    from binpose.so3 import build_axis_mask, build_symmetry_group
    pose = pose_vote(np.array([10]), np.array([[1.0, 2.0, 3.0]]), q[None, :],
                     np.tile(q, (10, 1)), build_symmetry_group(desc), build_axis_mask(desc),
                     model)
    assert np.array_equal(pose.quat, q)
    assert np.allclose(pose.t, [1.0, 2.0, 3.0], atol=0)


def test_pose_vote_never_blends_equivalents():
    from binpose.so3 import build_axis_mask, build_symmetry_group, Pose
    desc = TWOFOLD
    group, mask = build_symmetry_group(desc), build_axis_mask(desc)
    model = box_cloud((20, 30, 40), 10)
    rng = np.random.default_rng(2)
    q = random_quat(rng)
    q_flip = matrix_to_quat(quat_to_matrix(q) @ group.matrices[1])
    members = np.concatenate([np.tile(q, (8, 1)), np.tile(q_flip, (8, 1))])
    pose = pose_vote(np.array([8, 8]), np.zeros((2, 3)), np.stack([q, q_flip]), members,
                     group, mask, model)
    # voted rotation is one of the equivalents, never a blend
    assert (np.array_equal(pose.quat, q) or np.array_equal(pose.quat, q_flip))
    gt = Pose(q, np.zeros(3))
    _, d = symmetric_pose_distance(model, gt, Pose(pose.quat, np.zeros(3)), group, mask)
    assert d < 1e-9


def test_pose_vote_count_weighted_translation():
    from binpose.so3 import SymmetryGroup
    q = quat_normalize([1.0, 0, 0, 0])
    pose = pose_vote(np.array([30, 10]), np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]),
                     np.stack([q, q]), np.tile(q, (40, 1)), SymmetryGroup.identity(),
                     np.ones(3), box_cloud((10, 10, 10), 5))
    assert np.allclose(pose.t, [1.0, 0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# the two-stage pipeline


def run_pipeline_on_scene(model, scene, oracle, params, seed, single_stage=False):
    pred = oracle_predict(scene, model, oracle, seed=seed)
    t0 = fit_normalization(model.points)
    pos_n, t = normalize_scene(pred.positions, t0)
    pred_n = PerPointPrediction(pos_n, t.forward_points(pred.centroids), pred.quats)
    res = cluster_predictions(pred_n, params, model.group, model.mask,
                              model.points, single_stage=single_stage)
    poses = [denormalize_pose(i.pose, t) for i in res.instances]
    return res, poses


def test_isolated_instance_perfect_oracle():
    model = ObjectModel("box", box_cloud((40, 60, 90), 10), SymmetryDescriptor())
    scene = generate_scene(model, SceneGenParams((1, 1), (300, 300, 300)), seed=0)
    res, poses = run_pipeline_on_scene(model, scene, OracleParams(0.0, 0.0, False),
                                       ClusterParams(), seed=0)
    assert len(res.stage1) == 1
    assert len(poses) == 1
    gt = scene.instances[0].pose
    _, d = symmetric_pose_distance(model.points, gt, poses[0], model.group, model.mask)
    assert d < 1e-6


def test_two_fold_ambiguity_splits_then_merges():
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    for seed in range(3):
        scene = generate_scene(model, SceneGenParams((3, 5), (700, 700, 500)), seed=seed)
        res, poses = run_pipeline_on_scene(model, scene, OracleParams(0.5, 1.0, True),
                                           ClusterParams(), seed=seed)
        n = len(scene.instances)
        assert len(res.stage1) == 2 * n
        assert len(poses) == n


def test_single_stage_blends_rotations():
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (700, 700, 500)), seed=1)
    res, poses = run_pipeline_on_scene(model, scene, OracleParams(0.5, 1.0, True),
                                       ClusterParams(), seed=1, single_stage=True)
    assert len(poses) == len(scene.instances)
    # blended rotations sit far from every symmetric equivalent
    dists = []
    for pose in poses:
        best = min(symmetric_pose_distance(model.points, inst.pose, pose,
                                           model.group, model.mask)[1]
                   for inst in scene.instances)
        dists.append(best)
    assert max(dists) > 5.0  # way beyond any evaluation tolerance


def test_final_instances_disjoint_and_labeled():
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((4, 6), (700, 700, 500)), seed=2)
    res, _ = run_pipeline_on_scene(model, scene, OracleParams(1.0, 2.0, True),
                                   ClusterParams(), seed=2)
    seen = set()
    for label, inst in enumerate(res.instances):
        ids = set(inst.indices.tolist())
        assert not (ids & seen)
        seen |= ids
        assert np.all(res.labels[inst.indices] == label)
        assert inst.indices.shape[0] >= 20
    unassigned = np.nonzero(res.labels == -1)[0]
    assert not (set(unassigned.tolist()) & seen)


@pytest.mark.parametrize("single_stage", [False, True])
def test_cluster_views_derive_from_labels(single_stage):
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (700, 700, 500)), seed=0)
    res, _ = run_pipeline_on_scene(model, scene, OracleParams(4.0, 8.0, True, 0.1),
                                   ClusterParams(), seed=0, single_stage=single_stage)
    n_points, labels = scene.points.shape[0], res.labels
    labeled = int(((labels >= 0) & (labels < len(res.poses))).sum())
    discarded = int((labels == -1).sum())
    assert labels.shape == (n_points,) and labeled + discarded == n_points
    assert labeled and discarded   # the outliers are discarded
    instances = res.instances
    assert isinstance(instances, tuple) and len(instances) == len(res.poses)
    for i, (inst, pose) in enumerate(zip(instances, res.poses)):
        assert inst.pose is pose
        assert np.array_equal(inst.indices, np.nonzero(labels == i)[0])
    with pytest.raises(AttributeError):
        res.instances = ()
    with pytest.raises(AttributeError):
        instances[0].indices = np.arange(3)
    instances[0].indices[:] = -1   # a fresh copy: labels and later views keep theirs
    assert np.array_equal(res.instances[0].indices, np.nonzero(labels == 0)[0])


@pytest.mark.parametrize("single_stage", [False, True])
def test_cluster_result_keeps_the_stage1_mean_shift(single_stage):
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (700, 700, 500)), seed=0)
    res, _ = run_pipeline_on_scene(model, scene, OracleParams(4.0, 8.0, True, 0.1),
                                   ClusterParams(), seed=0, single_stage=single_stage)
    stage1 = res.stage1
    assert isinstance(stage1, MeanShiftResult)
    assert stage1.labels.shape == (scene.points.shape[0],)
    assert len(stage1) == stage1.modes.shape[0]
    assert np.unique(stage1.labels).tolist() == list(range(-1, len(stage1)))
    # the outliers stage 1 discards stay unassigned
    assert (res.labels[stage1.labels == -1] == -1).all()
    # each instance is a union of whole stage-1 clusters
    for c in range(len(stage1)):
        assert np.unique(res.labels[stage1.labels == c]).shape == (1,)
    if single_stage:
        assert np.array_equal(stage1.labels, res.labels)


def test_mean_shift_members_derive_from_labels():
    res = mean_shift(np.array([0.0, 0.05, 0.1, 5.0, 5.1, 9.0]), bandwidth=0.5, min_points=2)
    assert res.labels.tolist() == [0, 0, 0, 1, 1, -1]
    assert isinstance(res.members, tuple)
    assert [m.tolist() for m in res.members] == [[0, 1, 2], [3, 4]]
    with pytest.raises(AttributeError):
        res.members = ()


def test_pipeline_permutation_invariance():
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (700, 700, 500)), seed=3)
    pred = oracle_predict(scene, model, OracleParams(0.5, 1.0, True), seed=3)
    t0 = fit_normalization(model.points)
    pos_n, t = normalize_scene(pred.positions, t0)
    pred_n = PerPointPrediction(pos_n, t.forward_points(pred.centroids), pred.quats)
    res = two_stage_pipeline(pred_n, ClusterParams(), model.group, model.mask, model.points)

    rng = np.random.default_rng(4)
    perm = rng.permutation(len(pred_n))
    pred_p = PerPointPrediction(pred_n.positions[perm], pred_n.centroids[perm],
                                pred_n.quats[perm])
    res_p = two_stage_pipeline(pred_p, ClusterParams(), model.group, model.mask,
                               model.points)
    # same partition of the same points
    def canonical_partition(labels, perm=None):
        groups = {}
        for i, l in enumerate(labels):
            if l >= 0:
                orig = perm[i] if perm is not None else i
                groups.setdefault(l, set()).add(int(orig))
        return sorted((frozenset(g) for g in groups.values()), key=sorted)

    assert canonical_partition(res.labels) == canonical_partition(res_p.labels, perm)
    # same pose set within tolerance
    poses_a = sorted(res.instances, key=lambda i: tuple(np.round(i.pose.t, 6)))
    poses_b = sorted(res_p.instances, key=lambda i: tuple(np.round(i.pose.t, 6)))
    for a, b in zip(poses_a, poses_b):
        assert np.abs(a.pose.t - b.pose.t).max() < 1e-9
        assert np.abs(a.pose.quat - b.pose.quat).max() < 1e-9


def test_perfect_oracle_recovers_instance_count():
    model = ObjectModel("box", box_cloud((40, 60, 90), 12), SymmetryDescriptor())
    hits = 0
    for seed in range(30):
        scene = generate_scene(model, SceneGenParams((2, 5), (600, 600, 400)), seed=seed)
        res, poses = run_pipeline_on_scene(model, scene, OracleParams(0.0, 0.0, False),
                                           ClusterParams(), seed=seed)
        if len(poses) == len(scene.instances):
            hits += 1
    assert hits == 30


def test_cluster_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(bandwidth_1=2.0, bandwidth_2=3.0)
    with pytest.raises(ValueError):
        ClusterParams(min_points_1=50, min_points_2=20)
    with pytest.raises(ValueError):
        ClusterParams(quat_scale=-1.0)
    ClusterParams(quat_scale=0.0)  # translation-only ablation is allowed
    for mp1, mp2 in ((0, 0), (-3, -1), (0, 50)):
        with pytest.raises(ValueError, match="min_points_1"):
            ClusterParams(min_points_1=mp1, min_points_2=mp2)
    ClusterParams(min_points_1=1, min_points_2=1)


@pytest.mark.parametrize("field", ["min_points_1", "min_points_2", "max_iters"])
@pytest.mark.parametrize("value", [60.5, 60.0, np.float64(60.0), True, "60"],
                         ids=["60.5", "60.0", "float64", "True", "str"])
def test_cluster_params_integer_fields_reject_other_values(field, value):
    # at 60 each value passes the range checks; mean_shift's range() then failed
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ClusterParams(**{field: value})


def test_cluster_params_take_numpy_integers():
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (700, 700, 500)), seed=0)
    oracle = OracleParams(4.0, 8.0, True, 0.1)
    as_int = ClusterParams(min_points_1=20, min_points_2=50, max_iters=300)
    as_numpy = ClusterParams(min_points_1=np.int64(20), min_points_2=np.int32(50),
                             max_iters=np.uint16(300))
    res, _ = run_pipeline_on_scene(model, scene, oracle, as_int, seed=0)
    res_np, _ = run_pipeline_on_scene(model, scene, oracle, as_numpy, seed=0)
    assert res.instances
    assert [p.quat.tobytes() + p.t.tobytes() for p in res.poses] == \
        [p.quat.tobytes() + p.t.tobytes() for p in res_np.poses]


def test_empty_prediction_gives_warning():
    empty = PerPointPrediction(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 4)))
    res = two_stage_pipeline(empty, ClusterParams(), *_identity_symmetry())
    assert res.instances == () and res.poses == []
    assert res.warning is not None


def _identity_symmetry():
    from binpose.so3 import SymmetryGroup
    return SymmetryGroup.identity(), np.ones(3), box_cloud((10, 10, 10), 5)


@pytest.mark.parametrize("field", ["positions", "centroids", "quats"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prediction_rejects_non_finite_values(field, bad):
    arrays = {"positions": np.zeros((3, 3)), "centroids": np.zeros((3, 3)),
              "quats": np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))}
    arrays[field][1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        PerPointPrediction(**arrays)


@pytest.mark.parametrize("single_stage", [False, True])
def test_cluster_result_reports_max_iters(single_stage):
    model = ObjectModel("box", box_cloud((40, 120, 160), 10), TWOFOLD)
    scene = generate_scene(model, SceneGenParams((3, 4), (700, 700, 500)), seed=0)
    for max_iters, converged in ((1, False), (300, True)):
        res, _ = run_pipeline_on_scene(model, scene, OracleParams(4.0, 8.0, True, 0.1),
                                       ClusterParams(max_iters=max_iters), seed=0,
                                       single_stage=single_stage)
        assert res.instances and res.converged is converged


def test_cluster_result_without_points_counts_as_converged():
    empty = PerPointPrediction(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 4)))
    for single_stage in (False, True):
        res = cluster_predictions(empty, ClusterParams(max_iters=1), *_identity_symmetry(),
                                  single_stage=single_stage)
        assert res.converged
