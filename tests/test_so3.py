import itertools

import numpy as np
import pytest

from binpose import so3
from binpose.so3 import (MATRIX_MATCH_TOL, Pose, SymmetryDescriptor, SymmetryGroup,
                         UnsupportedSymmetryError, axis_rotation,
                         build_axis_mask, build_symmetry_group, classify_axes,
                         matrix_to_quat, quat_from_axis_angle, quat_multiply,
                         quat_normalize, quat_to_matrix, quats_from_axis_angle,
                         random_quat, symmetric_pose_distance)


def rodrigues(axis, angle):
    """Independent rotation-matrix oracle."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


# ---------------------------------------------------------------------------
# quaternion <-> matrix


def test_identity_quat_gives_identity_matrix():
    assert np.allclose(quat_to_matrix([1, 0, 0, 0]), np.eye(3), atol=1e-12)


def test_z_flip_quat_matches_reference_matrix():
    # 180 degrees about z
    R = quat_to_matrix([0, 0, 0, 1])
    assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_quat_to_matrix_sign_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = random_quat(rng)
        assert np.allclose(quat_to_matrix(q), quat_to_matrix(-q), atol=1e-15)


def test_quat_to_matrix_matches_rodrigues():
    rng = np.random.default_rng(1)
    for _ in range(100):
        axis = rng.normal(size=3)
        angle = rng.uniform(-np.pi, np.pi)
        q = quat_from_axis_angle(axis, angle)
        assert np.abs(quat_to_matrix(q) - rodrigues(axis, angle)).max() < 1e-9


def test_quats_from_axis_angle_rows_are_the_single_builder():
    rng = np.random.default_rng(2)
    axes, angles = rng.normal(size=(50, 3)), rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=50)
    rows = quats_from_axis_angle(axes, angles)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12
    assert (rows[:, 0] < 0.0).any()     # not re-canonicalized
    for row, axis, angle in zip(rows, axes, angles):
        assert np.array_equal(quat_normalize(row), quat_from_axis_angle(axis, angle))
        assert np.abs(quat_to_matrix(row) - rodrigues(axis, angle)).max() < 1e-9


def test_axis_angle_builders_reject_a_zero_axis():
    with pytest.raises(ValueError, match="rotation axis must be nonzero"):
        quat_from_axis_angle([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="rotation axis must be nonzero"):
        quats_from_axis_angle([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0])


def test_quat_to_matrix_rejects_non_unit():
    for q in ([1.0, 0.0, 0.0, 1e-2], [np.nan, 0.0, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="quaternion norm"):
            quat_to_matrix(q)
        with pytest.raises(ValueError, match="quaternion norm"):
            Pose(q, [0.0, 0.0, 0.0])


def test_matrix_to_quat_identity():
    assert np.allclose(matrix_to_quat(np.eye(3)), [1, 0, 0, 0], atol=1e-15)


def test_matrix_to_quat_z_flip_canonical_sign():
    q = matrix_to_quat(np.diag([-1.0, -1.0, 1.0]))
    assert np.allclose(q, [0, 0, 0, 1], atol=1e-15)


def test_matrix_quat_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        q = random_quat(rng)
        q2 = matrix_to_quat(quat_to_matrix(q))
        assert np.abs(q - q2).max() < 1e-9


def test_matrix_to_quat_rejects_non_orthonormal():
    bad = np.eye(3)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        matrix_to_quat(bad)
    with pytest.raises(ValueError):
        matrix_to_quat(np.diag([1.0, 1.0, -1.0]))  # det -1


def test_canonicalization_idempotent_and_sign_stable():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = random_quat(rng)
        assert np.array_equal(quat_normalize(q), q)
        assert np.array_equal(quat_normalize(-q), q)
    # w == 0 edge: first nonzero vector component must be positive
    q = quat_normalize([0.0, -1.0, 0.0, 0.0])
    assert q[1] == 1.0


# ---------------------------------------------------------------------------
# symmetry descriptors / classification


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SymmetryDescriptor(dz_deg=7.0)       # 360/7 not an integer
    with pytest.raises(ValueError):
        SymmetryDescriptor(dz_deg=360.0)
    with pytest.raises(ValueError):
        SymmetryDescriptor(ts_deg=0.0)
    SymmetryDescriptor(dz_deg=180.0)         # fine


def test_classify_axes_finite_none_infinite():
    assert classify_axes(SymmetryDescriptor(0, 0, 180, 15)) == ("none", "none", "finite")
    assert classify_axes(SymmetryDescriptor(0, 0, 1, 15)) == ("none", "none", "infinite")
    assert classify_axes(SymmetryDescriptor(0, 0, 0, 15)) == ("none", "none", "none")
    # a small step angle counts as continuous symmetry
    assert classify_axes(SymmetryDescriptor(0, 0, 5, 15)) == ("none", "none", "infinite")


# ---------------------------------------------------------------------------
# symmetry groups


def test_group_two_fold_z():
    g = build_symmetry_group(SymmetryDescriptor(0, 0, 180, 15))
    assert len(g) == 2
    assert np.allclose(g.matrices[0], np.eye(3), atol=1e-12)
    assert np.allclose(g.matrices[1], [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], atol=1e-12)


def test_group_no_symmetry_is_identity_only():
    g = build_symmetry_group(SymmetryDescriptor(0, 0, 0, 15))
    assert len(g) == 1
    assert np.allclose(g.matrices[0], np.eye(3))


def test_group_infinite_axis_contributes_nothing():
    g = build_symmetry_group(SymmetryDescriptor(0, 0, 5, 15))
    assert len(g) == 1


def test_group_four_fold_closed():
    g = build_symmetry_group(SymmetryDescriptor(0, 0, 90, 15))
    assert len(g) == 4
    # brute-force closure check
    for a in g.matrices:
        for b in g.matrices:
            prod = a @ b
            assert min(np.abs(prod - m).max() for m in g.matrices) < 1e-6


def test_group_multi_axis_closure():
    # 180 about x and z closes to the 4-element dihedral set
    g = build_symmetry_group(SymmetryDescriptor(180, 0, 180, 15))
    assert len(g) == 4
    for a in g.matrices:
        for b in g.matrices:
            prod = a @ b
            assert min(np.abs(prod - m).max() for m in g.matrices) < 1e-6


def test_group_no_duplicates():
    g = build_symmetry_group(SymmetryDescriptor(180, 90, 180, 15))
    n = len(g)
    for i in range(n):
        for j in range(i + 1, n):
            assert np.abs(g.matrices[i] - g.matrices[j]).max() > 1e-6


def test_group_closure_cap_raises():
    # 90 about z with 120 about x generates an infinite rotation set
    with pytest.raises(UnsupportedSymmetryError):
        build_symmetry_group(SymmetryDescriptor(120, 0, 90, 15))


def ref_build_symmetry_group(desc):
    """The closure build_symmetry_group replaced, kept verbatim: each
    product is compared with the elements found so far one at a time."""
    classes = classify_axes(desc)
    generators = []
    for axis, (cls_, (_, d)) in enumerate(zip(classes, desc.steps())):
        if cls_ != "finite":
            continue
        count = int(round(360.0 / d))
        for k in range(1, count):
            generators.append(axis_rotation(axis, k * d))

    def _contains(elements, M):
        for e in elements:
            if np.abs(e - M).max() <= MATRIX_MATCH_TOL:
                return True
        return False

    elements = [np.eye(3)]
    frontier = []
    for g in generators:
        if not _contains(elements, g):
            elements.append(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elements):
                for prod in (a @ b, b @ a):
                    if not _contains(elements, prod):
                        if len(elements) >= so3.GROUP_SIZE_CAP:
                            raise UnsupportedSymmetryError("does not close")
                        elements.append(prod)
                        nxt.append(prod)
        frontier = nxt
    return np.stack(elements)


def _group_or_none(build, desc):
    try:
        return build(desc)
    except UnsupportedSymmetryError:
        return None


def test_group_closure_matches_the_reference_bit_for_bit(monkeypatch):
    # every descriptor with steps in the set below on each axis; the 123
    # that close have at most 48 elements, so a cap of 49 sorts them from
    # the 1208 others as GROUP_SIZE_CAP does (checked at the full cap)
    # and stops those early, where the reference's one-at-a-time scan
    # costs 0.2-0.3 s each at the full cap
    monkeypatch.setattr(so3, "GROUP_SIZE_CAP", 49)
    steps = [0, 180, 120, 90, 72, 60, 45, 36, 30, 20, 15]
    closed = 0
    for dx, dy, dz in itertools.product(steps, repeat=3):
        desc = SymmetryDescriptor(dx, dy, dz)
        want = _group_or_none(ref_build_symmetry_group, desc)
        got = _group_or_none(lambda d: build_symmetry_group(d).matrices, desc)
        assert (got is None) == (want is None), desc
        if want is not None:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), desc
            closed += 1
    assert closed == 123


# ---------------------------------------------------------------------------
# axis masks


def test_axis_mask_cases():
    assert np.array_equal(build_axis_mask(SymmetryDescriptor(0, 0, 5, 15)), [0, 0, 1])
    assert np.array_equal(build_axis_mask(SymmetryDescriptor(0, 0, 0, 15)), [1, 1, 1])
    assert np.array_equal(build_axis_mask(SymmetryDescriptor(0, 0, 180, 15)), [1, 1, 1])
    assert np.array_equal(build_axis_mask(SymmetryDescriptor(1, 1, 1, 15)), [0, 0, 0])


def test_axis_mask_two_infinite_axes_rejected():
    with pytest.raises(ValueError):
        build_axis_mask(SymmetryDescriptor(1, 1, 0, 15))


# ---------------------------------------------------------------------------
# symmetric pose distance


def cube_model():
    side = np.array([-10.0, 0.0, 10.0])
    gx, gy, gz = np.meshgrid(side, side * 1.5, side * 2.0, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def test_distance_zero_for_equal_poses():
    model = cube_model()
    g = SymmetryGroup.identity()
    pose = Pose(quat_normalize([1, 2, 3, 4]), [5, 6, 7])
    per_point, mean = symmetric_pose_distance(model, pose, pose, g, np.ones(3))
    assert mean < 1e-9
    assert per_point.max() < 1e-9


def test_distance_zero_for_symmetric_equivalent():
    model = cube_model()
    g = build_symmetry_group(SymmetryDescriptor(0, 0, 180, 15))
    rng = np.random.default_rng(4)
    q = random_quat(rng)
    R = quat_to_matrix(q)
    gt = Pose(q, [1, 2, 3])
    pred = Pose(matrix_to_quat(R @ g.matrices[1]), [1, 2, 3])
    _, mean = symmetric_pose_distance(model, gt, pred, g, np.ones(3))
    assert mean < 1e-9


def test_distance_matches_naive_enumeration():
    model = cube_model()
    g = build_symmetry_group(SymmetryDescriptor(180, 0, 90, 15))
    assert len(g) <= 8
    mask = np.ones(3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        gt = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
        pred = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
        per_point, mean = symmetric_pose_distance(model, gt, pred, g, mask)
        # independent enumeration
        best_mean = np.inf
        best_pp = None
        Rg, Rp = gt.rotation, pred.rotation
        for s in g.matrices:
            pp = np.array([np.linalg.norm((Rg @ s @ m + gt.t) - (Rp @ m + pred.t))
                           for m in model])
            if pp.mean() < best_mean:
                best_mean = pp.mean()
                best_pp = pp
        assert mean == pytest.approx(best_mean, abs=1e-12)
        assert np.abs(per_point - best_pp).max() < 1e-9


def test_distance_invariant_under_gt_symmetry_substitution():
    model = cube_model()
    g = build_symmetry_group(SymmetryDescriptor(0, 0, 90, 15))
    mask = np.ones(3)
    rng = np.random.default_rng(6)
    for _ in range(20):
        gt = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
        pred = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
        _, base = symmetric_pose_distance(model, gt, pred, g, mask)
        for s in g.matrices:
            gt_s = Pose(matrix_to_quat(gt.rotation @ s), gt.t)
            _, mean = symmetric_pose_distance(model, gt_s, pred, g, mask)
            assert abs(mean - base) < 1e-9


def test_distance_invariant_under_infinite_axis_spin():
    model = cube_model()
    desc = SymmetryDescriptor(0, 0, 5, 15)
    g = build_symmetry_group(desc)
    mask = build_axis_mask(desc)
    rng = np.random.default_rng(7)
    gt = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
    pred = Pose(random_quat(rng), rng.uniform(-50, 50, 3))
    _, base = symmetric_pose_distance(model, gt, pred, g, mask)
    for _ in range(100):
        spin = axis_rotation(2, rng.uniform(0, 360))
        gt_s = Pose(matrix_to_quat(gt.rotation @ spin), gt.t)
        pred_s = Pose(matrix_to_quat(pred.rotation @ spin), pred.t)
        _, m1 = symmetric_pose_distance(model, gt_s, pred, g, mask)
        _, m2 = symmetric_pose_distance(model, gt, pred_s, g, mask)
        assert abs(m1 - base) < 1e-9
        assert abs(m2 - base) < 1e-9


def test_distance_rejects_empty_model():
    with pytest.raises(ValueError):
        symmetric_pose_distance(np.empty((0, 3)), Pose([1, 0, 0, 0], [0, 0, 0]),
                                Pose([1, 0, 0, 0], [0, 0, 0]),
                                SymmetryGroup.identity(), np.ones(3))


def test_pose_composition_sanity():
    # quat_multiply composes the same way the matrices do
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = random_quat(rng), random_quat(rng)
        assert np.abs(quat_to_matrix(quat_normalize(quat_multiply(a, b)))
                      - quat_to_matrix(a) @ quat_to_matrix(b)).max() < 1e-12


def test_quat_multiply_is_one_row_of_the_batch():
    from binpose.so3 import quat_multiply_batch

    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(200, 4)), rng.normal(size=(200, 4))
    rows = np.stack([quat_multiply(x, y) for x, y in zip(a, b)])
    assert np.array_equal(rows, quat_multiply_batch(a, b))
    for bad in (np.ones(8), np.ones(3)):
        with pytest.raises(ValueError):
            quat_multiply(bad, np.ones(4))


def test_quat_normalize_batch_matches_per_row_reference():
    from binpose.so3 import quat_normalize_batch

    def reference(q):
        # the per-row quat_normalize the batch replaced
        n = np.linalg.norm(q)
        q = q.copy() if abs(n - 1.0) < 1e-12 else q / n
        if q[0] < 0.0:
            return -q + 0.0
        if q[0] == 0.0:
            for c in q[1:]:
                if c != 0.0:
                    return q if c > 0.0 else -q + 0.0
        return q

    rng = np.random.default_rng(10)
    q = rng.normal(size=(20000, 4))
    q[:5000] /= np.linalg.norm(q[:5000], axis=1, keepdims=True)   # unit rows
    q[5000:6000, 0] = 0.0                                         # w == 0
    q[6000:6500, :2] = [-0.0, 0.0]                                # w == -0, x == 0
    q[6500:7000, 1:3] = -0.0                                      # negative zeros
    expected = np.stack([reference(row) for row in q])
    got = quat_normalize_batch(q)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(np.stack([quat_normalize(row) for row in q]).view(np.uint64),
                          expected.view(np.uint64))
    with pytest.raises(ValueError, match="zero quaternion"):
        quat_normalize_batch([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


def test_quat_to_matrix_matches_scalar_reference():
    from binpose.so3 import quats_to_matrices

    def reference(q):
        # the scalar formula quat_to_matrix had before it became a row of the batch
        w, x, y, z = q / np.linalg.norm(q)
        return np.array([
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ])

    rng = np.random.default_rng(11)
    q = rng.normal(size=(20000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[::2] *= -1.0                                                # both signs
    q[10000:] *= 1.0 + rng.uniform(-0.99e-6, 0.99e-6, size=(10000, 1))  # norms off 1
    expected = np.stack([reference(row) for row in q])
    got = np.stack([quat_to_matrix(row) for row in q])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(quats_to_matrices(q).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pose_rejects_non_finite_translation(bad):
    with pytest.raises(ValueError, match="translation"):
        Pose([1.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0])


def test_pose_keeps_the_bits_of_finite_input():
    rng = np.random.default_rng(12)
    for _ in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        t = rng.normal(scale=100.0, size=3)
        pose = Pose(q, t)
        assert np.array_equal(pose.quat.view(np.uint64), quat_normalize(q).view(np.uint64))
        assert np.array_equal(pose.t.view(np.uint64), t.view(np.uint64))
        # a canonical quaternion passes through untouched
        assert np.array_equal(Pose(pose.quat, t).quat.view(np.uint64),
                              pose.quat.view(np.uint64))
