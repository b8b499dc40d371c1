import numpy as np
import pytest

from binpose.icp import best_fit_transform, cell_table, icp_refine
from binpose.so3 import (Pose, SymmetryDescriptor, build_axis_mask,
                         build_symmetry_group, quat_from_axis_angle,
                         quat_multiply, quat_normalize, random_quat,
                         symmetric_pose_distance)
from binpose.synth import box_cloud, cylinder_cloud

# the golden objects at their pitches (tests/test_golden.py, rod_model)
MODELS = {
    "box7": lambda: box_cloud((40, 120, 160), 7),
    "box9": lambda: box_cloud((40, 120, 160), 9),
    "cube8": lambda: box_cloud((80, 80, 80), 8),
    "cylinder6": lambda: cylinder_cloud(30, 120, 6),
    "rod4": lambda: box_cloud((10, 10, 400), 4),
}

TWOFOLD = SymmetryDescriptor(0, 0, 180, 15)


def perturbed(pose, rng, t_mm, r_deg):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    dq = quat_from_axis_angle(axis, np.radians(r_deg))
    dt = rng.normal(size=3)
    dt = t_mm * dt / np.linalg.norm(dt)
    return Pose(quat_normalize(quat_multiply(pose.quat, dq)), pose.t + dt)


def test_best_fit_transform_recovers_known_pose():
    rng = np.random.default_rng(0)
    A = rng.uniform(-50, 50, size=(100, 3))
    from binpose.so3 import quat_to_matrix
    R = quat_to_matrix(random_quat(rng))
    t = rng.uniform(-20, 20, 3)
    B = A @ R.T + t
    R2, t2 = best_fit_transform(A, B)
    assert np.abs(R2 - R).max() < 1e-9
    assert np.abs(t2 - t).max() < 1e-9


def test_best_fit_transform_rejects_collinear():
    A = np.stack([np.linspace(0, 1, 10)] * 3, axis=1)  # points on a line
    with pytest.raises(ValueError):
        best_fit_transform(A, A + 1.0)


def test_icp_fixed_point_at_ground_truth():
    model = box_cloud((40, 60, 90), 8)
    rng = np.random.default_rng(1)
    pose = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
    scene = pose.apply(model)
    res = icp_refine(scene, model, pose)
    assert len(res.errors) == 1          # converged immediately
    assert res.errors[0] < 1e-9
    assert np.array_equal(res.pose.quat, pose.quat)
    assert np.array_equal(res.pose.t, pose.t)


def test_icp_recovers_small_perturbations():
    model = box_cloud((40, 60, 90), 8)
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    rng = np.random.default_rng(2)
    for _ in range(10):
        pose = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
        scene = pose.apply(model)
        init = perturbed(pose, rng, 2.0, 2.0)
        _, before = symmetric_pose_distance(model, pose, init, group, mask)
        res = icp_refine(scene, model, init)
        _, after = symmetric_pose_distance(model, pose, res.pose, group, mask)
        assert after <= 0.1 * before
        # per-iteration error is non-increasing
        for a, b in zip(res.errors, res.errors[1:]):
            assert b <= a + 1e-12


def test_icp_beyond_basin_lands_on_symmetric_equivalent():
    # flip a 2-fold symmetric box by nearly 180 degrees about its z axis:
    # ICP converges to the symmetric equivalent, which the symmetry-aware
    # distance scores as correct
    model = box_cloud((40, 120, 160), 8)
    group, mask = build_symmetry_group(TWOFOLD), build_axis_mask(TWOFOLD)
    rng = np.random.default_rng(3)
    pose = Pose(random_quat(rng), rng.uniform(-30, 30, 3))
    scene = pose.apply(model)
    flip = quat_from_axis_angle([0, 0, 1], np.radians(178.0))
    init = Pose(quat_normalize(quat_multiply(pose.quat, flip)), pose.t)
    res = icp_refine(scene, model, init, max_iters=100)
    _, d = symmetric_pose_distance(model, pose, res.pose, group, mask)
    assert d < 1e-6


def test_icp_degenerate_returns_init():
    line = np.stack([np.zeros(10), np.zeros(10), np.linspace(-50, 50, 10)], axis=1)
    init = Pose([1, 0, 0, 0], [0.5, 0.5, 0.5])
    res = icp_refine(line + 0.3, line, init, tol=1e-12)
    assert res.failed
    assert np.array_equal(res.pose.t, init.t)


def test_icp_rejects_empty_clouds():
    with pytest.raises(ValueError):
        icp_refine(np.empty((0, 3)), box_cloud((10, 10, 10), 5), Pose([1, 0, 0, 0], [0, 0, 0]))


def full_scan(model, queries):
    """(d, nn) from every model point: (dx^2 + dy^2) + dz^2, first argmin."""
    q = np.asarray(queries, dtype=float)
    d2 = (model[:, 0] - q[:, :1]) ** 2 + (model[:, 1] - q[:, 1:2]) ** 2
    d2 += (model[:, 2] - q[:, 2:]) ** 2
    nn = d2.argmin(axis=1)
    return np.sqrt(d2[np.arange(q.shape[0]), nn]), nn


def assert_same_bits(model, queries):
    d, nn = cell_table(model).nearest(queries)
    ref_d, ref_nn = full_scan(model, queries)
    assert np.array_equal(nn, ref_nn)
    assert d.tobytes() == ref_d.tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("noise", [0.1, 0.5, 2.0, 8.0, 50.0])
def test_nearest_is_the_full_scan_bit_for_bit(name, noise):
    model = MODELS[name]()
    rng = np.random.default_rng(int(noise * 10))
    queries = model[rng.integers(0, model.shape[0], 600)] + rng.normal(scale=noise, size=(600, 3))
    assert_same_bits(model, queries)


def test_nearest_outside_the_grid():
    model = MODELS["box9"]()
    rng = np.random.default_rng(4)
    far = rng.normal(size=(50, 3)) * np.array([1e3, 1e5, 1e9])[:, None, None]
    assert_same_bits(model, far.reshape(-1, 3))


def test_nearest_ties_go_to_the_lowest_index():
    # a shuffled 60 x 60 lattice at z = 0: a query above the centre of the
    # square (i, i)-(i+1, i+1) is equally far from its four corners. The
    # square straddles a cell boundary in x and y, so corner (i+1, i+1),
    # which holds the lowest index of the four, sits in the last rows
    # ring 2 gathers
    rng = np.random.default_rng(5)
    grid = np.stack(np.meshgrid(np.arange(60.0), np.arange(60.0), [0.0]), -1).reshape(-1, 3)
    model = grid[rng.permutation(grid.shape[0])]
    width = cell_table(model).width
    i = next(i for i in range(1, 58) if (i + 1) // width > (i + 0.5) // width)
    corners = np.flatnonzero((np.abs(model[:, 0] - i - 0.5) == 0.5)
                             & (np.abs(model[:, 1] - i - 0.5) == 0.5))
    last = corners[(model[corners, :2] == i + 1).all(axis=1)][0]
    model[[corners.min(), last]] = model[[last, corners.min()]]
    table = cell_table(model)
    # best distances of 0.6, 1.5, 3 and 30 cells: rings 1 and 2, then scans
    for reach in (0.6, 1.5, 3.0, 30.0):
        height = np.sqrt((reach * table.width) ** 2 - 0.5)
        d, nn = table.nearest([[i + 0.5, i + 0.5, height]])
        assert nn[0] == corners.min()
        assert d[0] == np.sqrt(0.5 + height * height)
        queries = model[rng.integers(0, model.shape[0], 300)] + [0.0, 0.0, height]
        assert_same_bits(model, queries + rng.normal(scale=0.3, size=queries.shape))
    # a query exactly between two points takes the lower index
    d, nn = cell_table([[2.0, 0, 0], [-2.0, 0, 0], [0, 9.0, 0]]).nearest([[0.0, 0, 0]])
    assert (d[0], nn[0]) == (2.0, 0)
    d, nn = cell_table([[0, 9.0, 0], [-2.0, 0, 0], [2.0, 0, 0]]).nearest([[0.0, 0, 0]])
    assert (d[0], nn[0]) == (2.0, 1)


def test_nearest_on_degenerate_models():
    rng = np.random.default_rng(6)
    queries = rng.normal(scale=30.0, size=(200, 3))
    one = np.array([[1.0, -2.0, 3.0]])
    d, nn = cell_table(one).nearest(queries)
    assert (nn == 0).all()
    assert_same_bits(one, queries)
    flat = box_cloud((40, 60, 90), 8)[:, :2]
    flat = np.unique(np.column_stack([flat, np.full(flat.shape[0], 5.0)]), axis=0)
    assert_same_bits(flat, queries)
    line = np.column_stack([np.zeros(20), np.zeros(20), np.linspace(-50, 50, 20)])
    assert_same_bits(line, queries)
    assert_same_bits(np.repeat(one, 3, axis=0), queries)


def test_nearest_matches_ckdtree():
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    rng = np.random.default_rng(7)
    for name in sorted(MODELS):
        model = MODELS[name]()
        queries = model[rng.integers(0, model.shape[0], 2000)] + rng.normal(
            scale=rng.choice([0.1, 1.0, 10.0, 50.0], size=(2000, 1)), size=(2000, 3))
        d, nn = cell_table(model).nearest(queries)
        ref_d, ref_nn = cKDTree(model).query(queries)
        assert np.array_equal(nn, ref_nn), name
        assert d.tobytes() == ref_d.tobytes(), name


def test_cell_table_memo_is_read_only_and_keyed_on_content():
    rng = np.random.default_rng(8)
    model = MODELS["box9"]()
    table = cell_table(model)
    assert cell_table(model.copy()) is table
    assert cell_table(model.tolist()) is table
    for a in (table.lo, table.planes, table.top, table.strides, table.keys, table.rows):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1
    model[:50] += 100.0    # moves some points out of the old grid
    fresh = cell_table(model)
    assert fresh is not table
    queries = model[rng.integers(0, model.shape[0], 500)] + rng.normal(size=(500, 3))
    assert_same_bits(model, queries)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_icp_rejects_non_finite_input(bad):
    model = box_cloud((40, 60, 90), 8)
    pose = Pose([1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    scene = pose.apply(model)
    for name in ("scene_points", "model"):
        args = {"scene_points": scene.copy(), "model": model.copy()}
        args[name][3, 1] = bad
        with pytest.raises(ValueError, match=f"ICP {name} holds a non-finite value"):
            icp_refine(args["scene_points"], args["model"], pose)
    # Pose checks its own values, so build a broken one around the check
    broken = Pose([1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    object.__setattr__(broken, "t", np.array([1.0, bad, 3.0]))
    with pytest.raises(ValueError, match="ICP init holds a non-finite value"):
        icp_refine(scene, model, broken)
