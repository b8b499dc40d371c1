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
from dataclasses import dataclass

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
    return quat_normalize_batch(np.asarray(q, dtype=float).reshape(4))[0]


def quat_normalize_batch(q) -> np.ndarray:
    """Row-wise quat_normalize of an (m,4) array."""
    q = np.asarray(q, dtype=float).reshape(-1, 4)
    # the row-wise product is the 1-D np.linalg.norm bit for bit; axis=1 is not
    n = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    if (n == 0.0).any():
        raise ValueError("zero quaternion cannot be normalized")
    # bitwise no-op on already-unit input keeps canonicalization idempotent
    q = np.where(np.abs(n - 1.0) < 1e-12, q, q / n)
    # canonical sign: the first nonzero of (w, x, y, z) is positive
    flip = q[np.arange(q.shape[0]), np.argmax(q != 0.0, axis=1)] < 0.0
    q[flip] = -q[flip] + 0.0     # + 0.0 scrubs negative zeros
    return q


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (not re-canonicalized)."""
    a = np.asarray(a, dtype=float).reshape(4)
    b = np.asarray(b, dtype=float).reshape(4)
    return quat_multiply_batch(a, b)[0]


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


def quat_to_matrix(q) -> np.ndarray:
    """Convert a unit quaternion to a proper rotation matrix.

    Rejects inputs whose norm deviates from 1 by more than 1e-6; the
    output satisfies quat_to_matrix(q) == quat_to_matrix(-q).
    """
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ValueError(f"quaternion norm {n:.9f} deviates from 1 by more than {UNIT_TOL}")
    return quats_to_matrices(q)[0]


def quats_to_matrices(quats) -> np.ndarray:
    """Batch version of :func:`quat_to_matrix` with renormalization, (m,4) -> (m,3,3)."""
    q = np.asarray(quats, dtype=float).reshape(-1, 4)
    # the row-wise product is the 1-D np.linalg.norm bit for bit; axis=1 is not
    q = q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
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
        if not abs(n - 1.0) <= UNIT_TOL:
            raise ValueError(f"pose quaternion norm {n:.9f} is not unit within {UNIT_TOL}")
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        if not np.isfinite(t).all():
            raise ValueError(f"pose translation {t.tolist()} is not finite")
        object.__setattr__(self, "quat", quat_normalize(q))
        object.__setattr__(self, "t", t)

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.quat)

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
    generators = []
    for axis, (cls_, (_, d)) in enumerate(zip(classes, desc.steps())):
        if cls_ != "finite":
            continue
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
    return SymmetryGroup(np.stack(elements))


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


def masked_outer(model, mask) -> tuple[np.ndarray, np.ndarray]:
    """The masked model points m_k, (K,3), and their outer products
    m_k m_k^T flattened row-major, (K,9)."""
    masked = np.asarray(model, dtype=float).reshape(-1, 3) * np.asarray(mask, dtype=float)
    return masked, np.einsum("ki,kj->kij", masked, masked).reshape(-1, 9)


def symmetric_distances(A, B, model, group: SymmetryGroup, mask, d=None):
    """Yield, for each symmetry rotation s in turn, the (m,K) distances
    ||(A s - B_j) m_k + d_j|| over the masked model points m_k, for a
    (3,3) rotation A, (m,3,3) rotations B and (m,3) translation
    differences d (None for zero). Callers reduce over s as they need.

    With X = A s - B_j the squared norm is m_k^T (X^T X) m_k
    + 2 (X^T d_j).m_k + d_j.d_j, one (m,9) x (9,K) product per rotation.
    Each rotation overwrites the one buffer (fresh ones cost a page fault
    per page), so reduce or copy it before advancing.
    """
    masked, outer = masked_outer(model, mask)
    sq = np.empty((B.shape[0], outer.shape[0]))
    for s in group.matrices:
        diff = (A @ s)[None] - B                              # (m,3,3)
        gram = np.einsum("mji,mjk->mik", diff, diff).reshape(-1, 9)
        np.matmul(gram, outer.T, out=sq)
        if d is not None:
            sq += 2.0 * (np.einsum("mji,mj->mi", diff, d) @ masked.T)
            sq += np.einsum("mj,mj->m", d, d)[:, None]
        yield np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)


def symmetric_pose_distance(model, gt: Pose, pred: Pose,
                            group: SymmetryGroup, mask) -> tuple[np.ndarray, float]:
    """Per-model-point distance between two poses, minimized over symmetry.

    For each symmetry rotation s the masked model is placed by
    (R_gt s, T_gt) and by (R_pred, T_pred); the s giving the smallest
    mean point distance wins. Returns (per-point distances for that s,
    their mean), both in mm. Zero for any pred equal to a symmetric
    equivalent of gt.
    """
    if np.asarray(model).size == 0:
        raise ValueError("model point cloud is empty")
    best, per_point = None, None
    for dists in symmetric_distances(gt.rotation, pred.rotation[None], model, group, mask,
                                     (gt.t - pred.t)[None]):
        mean = dists[0].mean()
        if per_point is None or mean < best:
            best, per_point = mean, dists[0].copy()
    return per_point, float(best)


def rotation_distances_to_set(rep_quat, quats, model, group: SymmetryGroup,
                              mask) -> np.ndarray:
    """Symmetry-aware rotation distance from one quaternion to a batch.

    Equivalent to symmetric_pose_distance with zero translations between
    (rep_quat) and each quaternion in ``quats``; returns the (m,) vector
    of mean point distances. Used for medoid-style rotation voting.
    """
    return np.min([dists.mean(axis=1) for dists in symmetric_distances(
        quat_to_matrix(quat_normalize(rep_quat)), quats_to_matrices(quats), model, group,
        mask)], axis=0)
