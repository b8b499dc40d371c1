"""Rotation representations and rotational-symmetry machinery.

Quaternions are scalar-first [w, x, y, z], unit norm, with a canonical
sign (w >= 0; if w == 0 the first nonzero vector component is positive)
so that q and -q map to one representative.

An object's rotational symmetry is described per axis by a step angle in
degrees (0 = no symmetry about that axis). Step angles below the
infinite-symmetry threshold are treated as continuous symmetry: those
axes contribute nothing to the finite rotation set and are handled by an
axis mask that projects model points onto the symmetric axis instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-6          # input validation for quaternions / rotation matrices
MATRIX_MATCH_TOL = 1e-6  # Frobenius tolerance for dedup / closure checks
GROUP_SIZE_CAP = 360


class UnsupportedSymmetryError(ValueError):
    """Raised when the finite symmetry set does not close under composition."""


# ---------------------------------------------------------------------------
# quaternions


def quat_normalize(q) -> np.ndarray:
    """Return the unit, canonical-sign representative of ``q``.

    Canonical sign: w >= 0, and if w == 0 the first nonzero component
    among (x, y, z) is positive. Idempotent; maps q and -q to the same
    quaternion.
    """
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion cannot be normalized")
    # bitwise no-op on already-unit input keeps canonicalization idempotent
    q = q.copy() if abs(n - 1.0) < 1e-12 else q / n
    return _canonical_sign(q)


def _canonical_sign(q: np.ndarray) -> np.ndarray:
    if q[0] < 0.0:
        return -q + 0.0          # + 0.0 scrubs negative zeros
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q + 0.0
    return q


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (not re-canonicalized)."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle_rad
    q = np.empty(4)
    q[0] = math.cos(half)
    q[1:] = (math.sin(half) / n) * axis
    return quat_normalize(q)


def random_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation as a canonical unit quaternion."""
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-6:
        q = rng.normal(size=4)
    return quat_normalize(q)


def quat_multiply_batch(a, b) -> np.ndarray:
    """Row-wise Hamilton products of two (m,4) arrays."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=1)


def quat_canonical_batch(q) -> np.ndarray:
    """Unit-normalize and sign-canonicalize each row of an (m,4) array."""
    q = np.asarray(q, dtype=float).reshape(-1, 4)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    flip = q[:, 0] < 0.0
    q[flip] = -q[flip]
    for i in np.nonzero(q[:, 0] == 0.0)[0]:
        q[i] = _canonical_sign(q[i])
    return q


def quat_to_matrix(q) -> np.ndarray:
    """Convert a unit quaternion to a proper rotation matrix.

    Rejects inputs whose norm deviates from 1 by more than 1e-6; the
    output satisfies quat_to_matrix(q) == quat_to_matrix(-q).
    """
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"quaternion norm {n:.9f} deviates from 1 by more than {UNIT_TOL}")
    w, x, y, z = q / n
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def quats_to_matrices(quats) -> np.ndarray:
    """Batch version of :func:`quat_to_matrix` with renormalization, (m,4) -> (m,3,3)."""
    q = np.asarray(quats, dtype=float).reshape(-1, 4)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[:, 0, 1] = 2.0 * (x * y - w * z)
    out[:, 0, 2] = 2.0 * (x * z + w * y)
    out[:, 1, 0] = 2.0 * (x * y + w * z)
    out[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[:, 1, 2] = 2.0 * (y * z - w * x)
    out[:, 2, 0] = 2.0 * (x * z - w * y)
    out[:, 2, 1] = 2.0 * (y * z + w * x)
    out[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def matrix_to_quat(R) -> np.ndarray:
    """Convert a proper rotation matrix to its canonical unit quaternion.

    Uses the max-trace-pivot construction for numerical stability.
    Rejects matrices that fail orthonormality or det(R) = +1 by more
    than 1e-6.
    """
    R = np.asarray(R, dtype=float).reshape(3, 3)
    _validate_rotation(R)
    t = np.trace(R)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    return quat_normalize(q)


def _validate_rotation(R: np.ndarray) -> None:
    if np.abs(R.T @ R - np.eye(3)).max() > UNIT_TOL:
        raise ValueError("matrix is not orthonormal within 1e-6")
    if abs(np.linalg.det(R) - 1.0) > UNIT_TOL:
        raise ValueError("matrix determinant deviates from +1 by more than 1e-6")


def axis_rotation(axis: int, angle_deg: float) -> np.ndarray:
    """Rotation matrix about a coordinate axis (0=x, 1=y, 2=z), angle in degrees."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    if axis == 0:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == 1:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == 2:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError("axis must be 0, 1 or 2")


# ---------------------------------------------------------------------------
# poses


@dataclass(frozen=True)
class Pose:
    """Rigid transform: canonical unit quaternion + translation in mm."""

    quat: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float).reshape(4)
        n = np.linalg.norm(q)
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"pose quaternion norm {n:.9f} is not unit within {UNIT_TOL}")
        object.__setattr__(self, "quat", quat_normalize(q))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3).copy())

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.quat)

    @classmethod
    def from_matrix(cls, R, t) -> "Pose":
        return cls(matrix_to_quat(R), t)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return pts @ self.rotation.T + self.t


# ---------------------------------------------------------------------------
# symmetry descriptors, groups, masks


@dataclass(frozen=True)
class SymmetryDescriptor:
    """Per-axis rotational symmetry step angles (degrees) plus the
    threshold below which a finite step counts as continuous symmetry.

    A step angle of 0 means no symmetry about that axis. Nonzero steps
    must divide 360 evenly.
    """

    dx_deg: float = 0.0
    dy_deg: float = 0.0
    dz_deg: float = 0.0
    ts_deg: float = 15.0

    def __post_init__(self):
        if self.ts_deg <= 0.0:
            raise ValueError("infinite-symmetry threshold must be positive")
        for name, d in self.steps():
            if d < 0.0 or d >= 360.0:
                raise ValueError(f"symmetry step {name}={d} out of range [0, 360)")
            if d > 0.0:
                ratio = 360.0 / d
                if abs(ratio - round(ratio)) > 1e-6:
                    raise ValueError(f"symmetry step {name}={d} does not divide 360 evenly")

    def steps(self):
        return (("dx_deg", self.dx_deg), ("dy_deg", self.dy_deg), ("dz_deg", self.dz_deg))


def classify_axes(desc: SymmetryDescriptor) -> tuple[str, str, str]:
    """Classify each object axis as 'none', 'finite' or 'infinite'.

    A zero step is no symmetry. A nonzero step below the threshold
    implies more equivalent orientations than the threshold admits and
    is treated as continuous ('infinite') symmetry; steps at or above
    the threshold stay finite.
    """
    out = []
    for _, d in desc.steps():
        if d == 0.0:
            out.append("none")
        elif d < desc.ts_deg:
            out.append("infinite")
        else:
            out.append("finite")
    return tuple(out)


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite set of rotation matrices mapping the object onto itself.

    ``matrices`` has shape (n, 3, 3) with the identity at index 0 and is
    closed under composition. Axes with continuous symmetry contribute
    nothing here; they are handled by the axis mask.
    """

    matrices: np.ndarray
    generator_axes: tuple[str, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def identity(cls) -> "SymmetryGroup":
        return cls(np.eye(3)[None, :, :])


def build_symmetry_group(desc: SymmetryDescriptor) -> SymmetryGroup:
    """Enumerate the finite rotation set generated by the descriptor.

    Each finite axis contributes the cyclic rotations k * step about it;
    the result is closed under composition (multi-axis symmetries
    compose). Objects with no finite axis get the identity alone.
    """
    classes = classify_axes(desc)
    axis_names = ("x", "y", "z")
    generators = []
    gen_axes = []
    for axis, (cls_, (_, d)) in enumerate(zip(classes, desc.steps())):
        if cls_ != "finite":
            continue
        gen_axes.append(axis_names[axis])
        count = int(round(360.0 / d))
        for k in range(1, count):
            generators.append(axis_rotation(axis, k * d))

    elements = [np.eye(3)]
    frontier = []
    for g in generators:
        if not _contains(elements, g):
            elements.append(g)
            frontier.append(g)
    # breadth-first closure under composition
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elements):
                for prod in (a @ b, b @ a):
                    if not _contains(elements, prod):
                        if len(elements) >= GROUP_SIZE_CAP:
                            raise UnsupportedSymmetryError(
                                f"symmetry set does not close within {GROUP_SIZE_CAP} elements")
                        elements.append(prod)
                        nxt.append(prod)
        frontier = nxt
    return SymmetryGroup(np.stack(elements), tuple(gen_axes))


def _contains(elements, M) -> bool:
    for e in elements:
        if np.abs(e - M).max() <= MATRIX_MATCH_TOL:
            return True
    return False


def build_axis_mask(desc: SymmetryDescriptor) -> np.ndarray:
    """Axis mask for continuous symmetry, as a {0,1} 3-vector.

    One infinite axis: the mask keeps only that axis coordinate, so the
    masked object degenerates to a directed segment on the symmetric
    axis. No infinite axis: all ones. Three infinite axes (a sphere):
    all zeros, the object degenerates to its center point.
    """
    classes = classify_axes(desc)
    inf_axes = [i for i, c in enumerate(classes) if c == "infinite"]
    if len(inf_axes) == 0:
        return np.ones(3)
    if len(inf_axes) == 1:
        v = np.zeros(3)
        v[inf_axes[0]] = 1.0
        return v
    if len(inf_axes) == 3:
        return np.zeros(3)
    raise ValueError("exactly two infinitely symmetric axes is geometrically inconsistent")


# ---------------------------------------------------------------------------
# symmetry-aware pose distance


def symmetric_pose_distance(model, gt: Pose, pred: Pose,
                            group: SymmetryGroup, mask) -> tuple[np.ndarray, float]:
    """Per-model-point distance between two poses, minimized over symmetry.

    For each symmetry rotation s the masked model is placed by
    (R_gt s, T_gt) and by (R_pred, T_pred); the s giving the smallest
    mean point distance wins. Returns (per-point distances for that s,
    their mean), both in mm. Zero for any pred equal to a symmetric
    equivalent of gt.
    """
    model = np.asarray(model, dtype=float).reshape(-1, 3)
    if model.shape[0] == 0:
        raise ValueError("model point cloud is empty")
    masked = model * np.asarray(mask, dtype=float).reshape(3)
    Rg = gt.rotation
    Rp = pred.rotation
    pred_pts = masked @ Rp.T + pred.t                       # (K,3)
    RgS = np.einsum("ij,sjk->sik", Rg, group.matrices)      # (ns,3,3)
    gt_pts = np.einsum("sij,kj->ski", RgS, masked) + gt.t   # (ns,K,3)
    dists = np.linalg.norm(gt_pts - pred_pts[None], axis=2) # (ns,K)
    means = dists.mean(axis=1)
    best = int(np.argmin(means))
    return dists[best], float(means[best])


def rotation_distances_to_set(rep_quat, quats, model, group: SymmetryGroup,
                              mask) -> np.ndarray:
    """Symmetry-aware rotation distance from one quaternion to a batch.

    Equivalent to symmetric_pose_distance with zero translations between
    (rep_quat) and each quaternion in ``quats``; returns the (m,) vector
    of mean point distances. Used for medoid-style rotation voting.

    ||D m_k|| is evaluated as sqrt(m_k^T (D^T D) m_k), which needs one
    (m,9) x (9,K) product per symmetry rotation instead of an (m,K,3)
    intermediate.
    """
    masked = np.asarray(model, dtype=float).reshape(-1, 3) * np.asarray(mask, dtype=float)
    outer = np.einsum("ki,kj->kij", masked, masked).reshape(-1, 9)   # (K,9)
    Rr = quat_to_matrix(quat_normalize(rep_quat))
    Rb = quats_to_matrices(quats)                             # (m,3,3)
    best = None
    for s in group.matrices:
        diff = (Rr @ s)[None] - Rb                            # (m,3,3)
        gram = np.einsum("mji,mjk->mik", diff, diff).reshape(-1, 9)
        sq = gram @ outer.T                                   # (m,K)
        means = np.sqrt(np.maximum(sq, 0.0)).mean(axis=1)
        best = means if best is None else np.minimum(best, means)
    return best
