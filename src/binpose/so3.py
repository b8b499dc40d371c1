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

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-6          # input validation for quaternions / rotation matrices
MATRIX_MATCH_TOL = 1e-6  # Frobenius tolerance for dedup / closure checks
GROUP_SIZE_CAP = 360
# pose-voting bound slacks, derived in rotation_distances_to_set and
# rotation_distance_bounds
BOUND_ABS_SLACK = 4096 * np.finfo(float).eps
BOUND_REL_SLACK = 1e-6
BOUND_BLOCK = 1 << 15    # (member, candidate, symmetry) pairs per bound-table block


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
    """Canonical quaternion of the rotation by ``angle_rad`` about ``axis``."""
    return quat_normalize(quats_from_axis_angle(axis, [angle_rad])[0])


def quats_from_axis_angle(axes, angles_rad) -> np.ndarray:
    """Row-wise unit quaternions of the rotations by (m,) ``angles_rad``
    about (m,3) ``axes``, which need not be unit (not re-canonicalized)."""
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    half = np.asarray(angles_rad, dtype=float).reshape(-1) / 2.0
    norms = np.linalg.norm(axes, axis=1)
    if (norms == 0.0).any():
        raise ValueError("rotation axis must be nonzero")
    q = np.empty((axes.shape[0], 4))
    q[:, 0] = np.cos(half)
    q[:, 1:] = np.sin(half)[:, None] * (axes / norms[:, None])
    return q


def random_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation as a canonical unit quaternion."""
    return quat_normalize(rng.normal(size=4))


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
        if not 0.0 < self.ts_deg < np.inf:
            raise ValueError("infinite-symmetry threshold must be positive")
        for name, d in self.steps():
            if not 0.0 <= d < 360.0:
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


@dataclass(frozen=True)
class KernelModel:
    """A (model, mask) pair as the distance kernel sees it.

    ``points`` (K',3) are the masked model points m_k and ``outer`` (K',9)
    their outer products m_k m_k^T flattened row-major. When masking makes
    points coincide, which a continuous-symmetry axis does (a cylinder's
    points fall onto its axis, a sphere's onto its center), ``points`` keeps
    each distinct one once, ``counts`` (K',) holds how many model points
    map to it and ``inverse`` (K,) which one each model point maps to.
    Otherwise both are None and ``points`` is the masked model in order.
    ``size`` is the full model count K, ``m2`` (9,) the mean of m m^T over
    all K points, ``tr_m2`` its trace and ``r_max`` the largest ||m_k||.
    ``m4`` is built on first use.
    """

    points: np.ndarray
    outer: np.ndarray
    counts: np.ndarray | None
    inverse: np.ndarray | None
    size: int
    m2: np.ndarray
    tr_m2: float
    r_max: float

    def mean(self, dists, axis=(-2, -1)):
        """Mean over the K model points of (..., n, K') distances to
        ``points``, per row with axis=-1 and over the n rows too with the
        default, one value per leading index. Without counts it is the
        unweighted mean, so those results keep their bits."""
        if self.counts is None:
            return dists.mean(axis=axis)
        rows = dists @ self.counts / self.size
        return rows if axis == -1 else rows.mean(axis=-1)

    @functools.cached_property
    def m4(self) -> np.ndarray:
        """The (9,9) mean over all K points of outer_k^T outer_k, that is of
        (m m^T) (x) (m m^T), read-only: mean_k (g . outer_k)^2 = g^T m4 g."""
        weighted = self.outer if self.counts is None else self.outer * self.counts[:, None]
        m4 = weighted.T @ self.outer / self.size
        m4.flags.writeable = False
        return m4


def kernel_model(model, mask) -> KernelModel:
    """The :class:`KernelModel` of a (K,3) model and a 3-vector axis mask.

    Results are memoized on the bytes of both, so repeated calls with the
    same content cost a hash and share read-only arrays, and a model
    changed in place gets a fresh result.
    """
    model = np.ascontiguousarray(model, dtype=float).reshape(-1, 3)
    mask = np.ascontiguousarray(mask, dtype=float).reshape(3)
    return _kernel_model(model.tobytes(), mask.tobytes())


@functools.lru_cache(maxsize=16)
def _kernel_model(model_bytes: bytes, mask_bytes: bytes) -> KernelModel:
    masked = np.frombuffer(model_bytes).reshape(-1, 3) * np.frombuffer(mask_bytes)
    size = masked.shape[0]
    if size == 0:
        raise ValueError("model point cloud is empty")
    counts = inverse = None
    # + 0.0 scrubs the negative zeros masking leaves
    distinct, idx, cnt = np.unique(masked + 0.0, axis=0, return_inverse=True,
                                   return_counts=True)
    if distinct.shape[0] < size:
        masked, counts, inverse = distinct, cnt.astype(float), idx
    outer = np.einsum("ki,kj->kij", masked, masked).reshape(-1, 9)
    m2 = outer.mean(axis=0) if counts is None else counts @ outer / size
    for a in (masked, outer, counts, inverse, m2):
        if a is not None:
            a.flags.writeable = False
    return KernelModel(masked, outer, counts, inverse, size, m2, m2[0] + m2[4] + m2[8],
                       np.linalg.norm(masked, axis=1).max())


def _point_distances(diff, km: KernelModel, out, d=None) -> np.ndarray:
    """The (..., n, K') distances ||X_i m_k + d_i|| to the points m_k of
    ``km`` for (..., n, 3, 3) matrices X_i = ``diff``, written into
    ``out``; ``d`` is (..., n, 3) or None for zero.

    The squared norm is m_k^T (X^T X) m_k + 2 (X^T d_i).m_k + d_i.d_i, one
    (n,9) x (9,K') product per leading index. Each row's value does not
    depend on which other rows are computed with it, except through the
    BLAS blocking of that product (the last bit of a few elements); a
    stacked product runs each leading index's 2-D product on its own, so
    every stack keeps the bits it has alone.
    """
    X = diff.reshape(-1, 3, 3)
    gram = np.einsum("mji,mjk->mik", X, X).reshape(diff.shape[:-2] + (9,))
    np.matmul(gram, km.outer.T, out=out)
    if d is not None:
        D = d.reshape(-1, 3)
        out += 2.0 * (np.einsum("mji,mj->mi", X, D).reshape(d.shape) @ km.points.T)
        out += np.einsum("mj,mj->m", D, D).reshape(d.shape[:-1] + (1,))
    return np.sqrt(np.maximum(out, 0.0, out=out), out=out)


def symmetric_distances(A, B, model, group: SymmetryGroup, mask,
                        d=None) -> tuple[np.ndarray, np.ndarray]:
    """The distances ||(A s - B_j) m_k + d_j|| over the masked model points
    m_k, for (..., 3, 3) rotations A, (..., m, 3, 3) rotations B, (..., m, 3)
    translation differences d (None for zero) and each symmetry rotation
    s. Leading dimensions index stacks of m rows; A's broadcast against
    B's, and a (3,3) A serves every stack. Each stack is computed with the
    bits it has alone.

    Returns the (..., n_s) means of each s's distances over a stack's m
    rows and K model points, and the (..., m, K') distances to the K'
    points of :func:`kernel_model` for each stack's first s with the
    smallest mean. Two buffers serve every s: the current one and the best
    so far swap when the current s wins in every stack, and otherwise the
    stacks it wins are copied (never, for a single stack), so each call
    returns fresh arrays.
    """
    km = kernel_model(model, mask)
    stacks = np.broadcast_shapes(np.shape(A)[:-2], B.shape[:-3])
    shape = stacks + B.shape[-3:-2] + (km.points.shape[0],)
    cur, best = np.empty(shape), np.empty(shape)
    means = np.empty(stacks + (len(group),))
    for i, s in enumerate(group.matrices):
        diff = (A @ s)[..., None, :, :] - B
        means[..., i] = mean = km.mean(_point_distances(diff, km, cur, d))
        if i:
            wins = mean < low      # the stacks whose smallest mean so far s beats
            # a count, not .all() and .any(), which cost microseconds on a scalar
            n = np.count_nonzero(wins)
        if i == 0 or n == wins.size:
            cur, best, low = best, cur, mean
        elif n:
            best[wins] = cur[wins]
            low = np.where(wins, mean, low)
    return means, best


def symmetric_pose_distance(model, gt: Pose, pred: Pose,
                            group: SymmetryGroup, mask) -> tuple[np.ndarray, float]:
    """Per-model-point distance between two poses, minimized over symmetry.

    For each symmetry rotation s the masked model is placed by
    (R_gt s, T_gt) and by (R_pred, T_pred); the s giving the smallest
    mean point distance wins. Returns (per-point distances for that s,
    their mean), both in mm. Zero for any pred equal to a symmetric
    equivalent of gt.
    """
    means, dists = symmetric_distances(gt.rotation, pred.rotation[None], model, group, mask,
                                       (gt.t - pred.t)[None])
    inverse = kernel_model(model, mask).inverse
    return (dists[0] if inverse is None else dists[0][inverse]), float(means.min())


def _candidate_rotations(rep_quats, group: SymmetryGroup) -> np.ndarray:
    """The (C, n_s, 3, 3) rotations A_c s of (C,4) or (4,) candidate
    quaternions, which must be finite."""
    reps = quat_normalize_batch(rep_quats)
    norms = np.linalg.norm(reps, axis=1)
    for c in np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL)):    # a non-finite candidate
        raise ValueError(f"candidate {c} has quaternion norm {norms[c]:.9f} after "
                         f"normalizing, which deviates from 1 by more than {UNIT_TOL}")
    return quats_to_matrices(reps)[:, None] @ group.matrices


def _min_last(a) -> np.ndarray:
    """The minimum over the last axis of ``a``. numpy reduces a short last
    axis row by row; after one copy that moves it first, the minimum is
    taken over whole columns at once, with the same values."""
    return np.moveaxis(a, -1, 0).copy().min(axis=0)


def _bound_blocks(AS, B, km: KernelModel):
    """The bound tables of the pairs (member j, candidate c, symmetry s)
    for (C, n_s, 3, 3) rotations AS = A_c s and (m,3,3) member rotations
    B, in blocks of at most ``BOUND_BLOCK`` pairs (or one candidate).

    Yields (lo, t, fro, up, keep) per block of candidates lo, lo + 1, ...:
    ``t`` (m, n, n_s) the lower bounds max(t - slack, 0) of t = tr(X^T X
    M2), ``fro`` the upper bounds of ||X||_F r_max, ``up`` (m, n, 1) each
    row's smallest upper bound sqrt(min_s t + slack), and ``keep`` the
    pairs that can be their row's minimum; :func:`rotation_distances_to_set`
    derives them. A candidate's tables do not depend on the block it is
    in: gemm sums each entry's 9 terms in one order whatever the width of
    the product. A one-candidate block with one symmetry is a gemv, which
    rounds otherwise, but then each row has one pair, which is kept.
    """
    m, n_s = B.shape[0], AS.shape[1]
    # scaled by -2 before the products, which is exact
    B9 = -2.0 * B.reshape(m, 9)
    BM2 = -2.0 * (B @ km.m2.reshape(3, 3)).reshape(m, 9)
    slack = BOUND_ABS_SLACK * km.tr_m2
    step = max(1, BOUND_BLOCK // max(m * n_s, 1))
    for lo in range(0, AS.shape[0], step):
        ASf = AS[lo:lo + step].reshape(-1, 9).T
        shape = (m, ASf.shape[1] // n_s, n_s)
        t = (BM2 @ ASf).reshape(shape)
        t += 2.0 * km.tr_m2
        fro = (B9 @ ASf).reshape(shape)
        fro += 6.0
        fro += BOUND_ABS_SLACK
        np.sqrt(np.maximum(fro, 0.0, out=fro), out=fro)
        fro *= km.r_max
        low = _min_last(t)[..., None] + slack
        up = np.sqrt(np.maximum(low, 0.0, out=low), out=low)
        cutoff = fro * ((1.0 + BOUND_REL_SLACK) * up)
        t -= slack
        keep = np.greater(np.maximum(t, 0.0, out=t), cutoff)
        yield lo, t, fro, up, np.logical_not(keep, out=keep)


def rotation_distances_to_set(rep_quats, quats, model, group: SymmetryGroup,
                              mask) -> np.ndarray:
    """Symmetry-aware rotation distances from candidate quaternions to a batch.

    Equivalent to symmetric_pose_distance with zero translations between
    a candidate and each quaternion in ``quats``: for (C,4) candidates
    ``rep_quats`` returns the (C,m) mean point distances min_s mu_js,
    mu_js = mean_k ||X m_k||, X = A s - B_j, A = R(candidate), B_j =
    R(quats[j]); a (4,) candidate gives the (m,) row. Used for
    medoid-style rotation voting. The rotations of all candidates and of
    the batch are built once, and the bound tables of a block of
    candidates at a time (:func:`_bound_blocks`); each candidate's
    pruning is that of a one-candidate call, so its row is the same to
    the bit.

    Only the (j, s) pairs that can be the minimum get the exact K-term
    mean (Elkan, ICML 2003, prunes k-means distances the same way). With
    M2 = mean_k m_k m_k^T, r_max = max_k ||m_k|| and t = tr(X^T X M2):

    - upper: mu_js <= sqrt(mean_k ||X m_k||^2) = sqrt(t), as a mean is
      at most the root mean square;
    - lower: ||X m_k|| <= ||X||_F r_max, so ||X m_k|| >= ||X m_k||^2 /
      (||X||_F r_max) and mu_js >= t / (||X||_F r_max).

    For rotations t = 2 tr(M2) - 2 <A s, B_j M2>_F and ||X||_F^2 =
    6 - 2 <A s, B_j>_F, so two (m,9) x (9,|G|) products per candidate
    give every bound. A pair whose lower bound exceeds the row's smallest
    upper bound (times 1 + BOUND_REL_SLACK), the cutoff, cannot be the
    minimum and is skipped; the pair with the smallest upper bound always
    survives. The test is made without the division, as t > cutoff
    ||X||_F r_max, and the cutoff is taken from the row's smallest t, as
    adding the slack, clamping at 0 and sqrt are monotone. Survivors go
    member by member, m rows at a time, through the Gram-form step of the
    unpruned kernel.

    Why the result is the unpruned one. Those Frobenius forms cancel when
    X ~ 0 and assume orthogonal matrices, which quats_to_matrices and the
    group give to a few eps. The 9-term products, the means in M2 and the
    non-orthogonality bound the computed t and ||X||_F^2 to within about
    150 eps tr(M2) and 100 eps of the exact values (measured: 22 and 28).
    Both bounds are widened by BOUND_ABS_SLACK = 4096 eps (times tr(M2)
    for t), so they hold for the exact values, and every upper bound is at
    least sqrt(4096 eps tr(M2)). Multiplying the cutoff by the widened
    ||X||_F r_max instead of dividing t by it rounds once, by half an ulp
    at most, as the quotient did; that is far inside BOUND_REL_SLACK.
    Where that product's factor ||X||_F r_max is 0, r_max = 0, so M2 = 0
    and t = 0 exactly: 0 > 0 keeps the pair. X = B_j (B_j^T A s - I) has
    two equal singular values, so mu_js >= sqrt(2) times its lower bound:
    a skipped mean exceeds the kept minimum by at least (sqrt(2) - 1)
    times the cutoff. The Gram form computes each mean to 1e-15 relative
    except where ||X m_k||^2 cancels, at most sqrt(72 eps) r_k per point,
    which twice over is below 0.41 sqrt(4096 eps tr(M2)). So no skipped
    mean can be the computed minimum. When every member keeps one pair,
    the usual case, the survivor product has the full kernel's shape and
    row order, so the result is bit-identical. Otherwise the rows shift,
    and BLAS blocking can move the last bit of a mean (1e-15 relative at
    most). A row with a NaN bound keeps every pair and stays NaN.
    """
    AS = _candidate_rotations(rep_quats, group)
    B = quats_to_matrices(quats)
    m = B.shape[0]
    out = np.empty((AS.shape[0], m))
    if m == 0:
        return out if np.ndim(rep_quats) == 2 else out[0]
    km = kernel_model(model, mask)
    sq = np.empty((m, km.points.shape[0]))
    every = np.arange(m)
    for lo, _, _, _, keep in _bound_blocks(AS, B, km):
        for c in range(lo, lo + keep.shape[1]):
            # the surviving pairs, member by member; each member keeps at
            # least the pair with its smallest upper bound
            rows, s_idx = np.nonzero(keep[:, c - lo])
            means = np.empty(rows.size)
            for i in range(0, rows.size, m):           # m rows at a time, like the full kernel
                j, s = rows[i:i + m], s_idx[i:i + m]
                n = j.size
                if n == 1 < m:   # a one-row product is a BLAS gemv, which rounds unlike gemm
                    j, s = np.repeat(j, 2), np.repeat(s, 2)
                means[i:i + n] = km.mean(_point_distances(AS[c, s] - B[j], km, sq[:j.size]),
                                         axis=-1)[:n]
            if np.array_equal(rows, every):            # one pair per member
                out[c] = means
            else:
                out[c] = np.minimum.reduceat(means, np.flatnonzero(np.diff(rows, prepend=-1)))
    return out if np.ndim(rep_quats) == 2 else out[0]


# with X's entries as rows 3i + a, entry 3a + b of its Gram vector sums over i
# the products of rows 3i + _GRAM_LEFT and 3i + _GRAM_RIGHT
_GRAM_LEFT, _GRAM_RIGHT = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)


def rotation_distance_bounds(rep_quats, quats, model, group: SymmetryGroup,
                             mask) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds, each (C,), on the row sums of
    :func:`rotation_distances_to_set` for (C,4) candidates: for every
    candidate c, lower[c] <= the computed sum of its row <= upper[c].
    Pose voting computes exact rows only for the candidates whose lower
    bound does not exceed a known row sum.

    Per member j, with the tables of :func:`_bound_blocks` (X = A_c s -
    B_j, t = mean_k q_k, q_k = ||X m_k||^2 = g . vec(m_k m_k^T) for the
    Gram vector g = vec(X^T X)):

    - upper: min_s sqrt(t + slack), as in rotation_distances_to_set;
    - lower: the min over the s that survive its pruning (a skipped s
      has a larger lower bound than the surviving pair with the smallest
      upper bound) of max(sqrt(2) t / (||X||_F r_max), t^(3/2) /
      sqrt(g^T m4 g)). The first is the chord bound with X's two equal
      singular values; the second is Hölder's inequality, mean_k q_k <=
      (mean_k sqrt(q_k))^(2/3) (mean_k q_k^2)^(1/3), with mean_k q_k^2 =
      g^T m4 g (:attr:`KernelModel.m4`). It is at least the chord bound
      in exact arithmetic and much tighter when the q_k are alike.

    Why a pruned candidate cannot win. Let eps be the machine epsilon.

    - t and ||X||_F^2 are widened by BOUND_ABS_SLACK, which covers the
      error of their Frobenius forms (rotation_distances_to_set). That
      widening is also at least 600 eps on ||X||_F, which covers the
      non-orthogonality of the computed matrices in the sqrt(2) of the
      chord bound (it needs a few eps).
    - g is computed in the Gram form, from X = A s - B_j as the exact
      kernel forms it: each entry of g is within 5.1 (eps / 2) (|X|^T
      |X|) of the exact X^T X, so each q_k it gives is within 2.6 eps
      ||X||_F^2 r_k^2 of the exact one. m4 rounds within (K' + 4)
      (eps / 2) of mean_k |m_a m_b m_c m_d| per entry (a K'-term
      product) and the two 9-term products of g^T m4 g add 18 (eps / 2);
      both are bounded by (K' + 22) (eps / 2) ||g||^2 r_max^4. By the
      triangle inequality in the mean over k, and as sqrt(mean_k q_k^2)
      <= ||X||_F^2 r_max^2 / 2, the exact mean_k q_k^2 is at most the
      computed g^T m4 g plus (K' + 32) eps ||X||_F^4 r_max^4 (measured
      on the pipeline's voting inputs: under 0.3 eps), and ||X||_F^4
      r_max^4 is at most fro^4 with fro the widened ||X||_F r_max. So
      the lower bound holds for the exact mean mu_js.
    - A computed mean is off from mu_js by at most sqrt(72 eps) r_k per
      point where ||X m_k||^2 cancels (rotation_distances_to_set), and
      by (K' + 1) eps / 2 relative in its sum over k. A row value is the
      min of such means over some of the pairs, so it is at least the
      exact min_s mu_js less that error. A computed row sum is then at
      least (1 - (m + K') eps) times the sum of the exact minima, less
      m sqrt(72 eps) r_max.
    - The bounds themselves round by a few eps relative per member and
      (m eps / 2) in their sum. The returned lower bound is the computed
      sum times 1 - BOUND_REL_SLACK less m sqrt(72 eps) r_max, and the
      upper one the sum times 1 + BOUND_REL_SLACK plus the same; 1e-6
      covers every relative term for m + K' below 4e9.

    So a candidate whose lower bound exceeds the computed row sum of
    another has a strictly larger computed row sum: it is neither the
    vote's argmin nor tied with it. A NaN member makes both bounds NaN.
    The tables are built in blocks of ``BOUND_BLOCK`` pairs, and only
    the surviving pairs get a Gram vector.
    """
    AS = _candidate_rotations(rep_quats, group)
    B = quats_to_matrices(quats)
    m = B.shape[0]
    lower, upper = np.zeros(AS.shape[0]), np.zeros(AS.shape[0])
    km = kernel_model(model, mask)
    if m == 0 or km.r_max == 0.0:       # every distance is 0
        return lower, upper
    eps = np.finfo(float).eps
    e_slack = (km.points.shape[0] + 32) * eps
    # rows of 9 entries, so each entry of a pair's X and Gram vector is a contiguous row
    ASt, Bt = AS.reshape(-1, 9).T.copy(), B.reshape(m, 9).T.copy()
    for lo, t, fro, up, keep in _bound_blocks(AS, B, km):
        n, n_s = keep.shape[1:]
        upper[lo:lo + n] = up[..., 0].sum(axis=0)
        pairs = np.flatnonzero(keep)     # (j, c, s) flattened
        X = ASt[:, lo * n_s + pairs % (n * n_s)] - Bt[:, pairs // (n * n_s)]
        g = X[_GRAM_LEFT] * X[_GRAM_RIGHT]     # g_ab = sum_i X_ia X_ib
        for i in (3, 6):
            g += X[_GRAM_LEFT + i] * X[_GRAM_RIGHT + i]
        tl, f = t.reshape(-1)[pairs], fro.reshape(-1)[pairs]
        # Hölder: t^(3/2) / sqrt(g^T m4 g + slack); chord: sqrt(2) t / fro
        e = np.einsum("in,in->n", km.m4 @ g, g)
        e += e_slack * np.square(np.square(f))
        bound = np.maximum(tl * np.sqrt(tl / e), np.sqrt(2.0) * tl / f)
        t.fill(np.inf)
        t.reshape(-1)[pairs] = bound
        lower[lo:lo + n] = _min_last(t).sum(axis=0)
    margin = m * np.sqrt(72.0 * eps) * km.r_max
    return (1.0 - BOUND_REL_SLACK) * lower - margin, (1.0 + BOUND_REL_SLACK) * upper + margin
