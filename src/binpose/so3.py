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
# pose-voting bound slacks, derived in medoid_index
BOUND_ABS_SLACK = 4096 * np.finfo(float).eps
BOUND_REL_SLACK = 1e-6
BOUND_BLOCK = 1 << 15    # (member, candidate, symmetry) triples per bound-table block
# 2 MB, not 1: a 1 MB buffer is no larger than a cube vote's other temporaries,
# and glibc then trims and refaults the heap around every vote (README, Performance)
DIST_BLOCK = 1 << 18     # exact or interval distances per block of rows (2 MB of float64)
SCREEN_U = np.finfo(np.float32).eps / 2    # float32 unit roundoff of the interval rows


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
    compose). Objects with no finite axis get the identity alone. Each
    candidate is compared with every element found so far in one array
    comparison.
    """
    classes = classify_axes(desc)
    generators = []
    for axis, (cls_, (_, d)) in enumerate(zip(classes, desc.steps())):
        if cls_ != "finite":
            continue
        count = int(round(360.0 / d))
        for k in range(1, count):
            generators.append(axis_rotation(axis, k * d))

    elements = np.empty((GROUP_SIZE_CAP, 3, 3))
    elements[0] = np.eye(3)
    n = 1

    def add(M) -> bool:
        """Append M unless it matches an element; True if it was new."""
        nonlocal n
        if (np.abs(elements[:n] - M).max(axis=(1, 2)) <= MATRIX_MATCH_TOL).any():
            return False
        if n >= GROUP_SIZE_CAP:
            raise UnsupportedSymmetryError(
                f"symmetry set does not close within {GROUP_SIZE_CAP} elements")
        elements[n] = M
        n += 1
        return True

    frontier = [g for g in generators if add(g)]
    # breadth-first closure under composition
    while frontier:
        nxt = []
        for a in frontier:
            for b in elements[:n].copy():
                nxt += [prod for prod in (a @ b, b @ a) if add(prod)]
        frontier = nxt
    return SymmetryGroup(elements[:n].copy())


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


# the (9, 6) matrix that spreads the distinct entries (a, b), a <= b, of a
# symmetric 3x3 matrix, in the order 00 01 02 11 12 22, over its 9 row-major
# entries 3a + b and 3b + a
_SPREAD = np.zeros((9, 6))
_SPREAD[[0, 1, 2, 4, 5, 8], range(6)] = _SPREAD[[0, 3, 6, 4, 7, 8], range(6)] = 1.0


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
    all K points, ``tr_m2`` its trace, ``r_max`` the largest ||m_k|| and
    ``abs_mean`` (3,) the mean of |m_k| per coordinate over all K points.
    ``m4`` and ``outer32`` are built on first use.
    """

    points: np.ndarray
    outer: np.ndarray
    counts: np.ndarray | None
    inverse: np.ndarray | None
    size: int
    m2: np.ndarray
    tr_m2: float
    r_max: float
    abs_mean: np.ndarray

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

    @functools.cached_property
    def outer32(self) -> np.ndarray:
        """The (6, K') distinct entries (a, b), a <= b, of each m_k m_k^T in
        float32, those off the diagonal doubled (exactly), read-only: with a
        symmetric G's distinct entries g, g . outer32[:, k] = <G, m_k m_k^T>.
        The float32 intervals of :func:`medoid_index` use it."""
        outer32 = (self.outer @ _SPREAD).T.astype(np.float32, order="C")
        outer32.flags.writeable = False
        return outer32


def _freeze(value) -> None:
    """Make an array, or every array inside a tuple, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            _freeze(v)


def content_cache(build):
    """Memoize ``build(*arrays)``, 16 deep, on each array's float64 bytes,
    which ``build`` gets flat; results are shared, so their arrays, also
    those inside tuple attributes, are made read-only.

    Each decorated function keeps its own 16 entries: :func:`kernel_model`
    and ``icp``'s cell tables one per model, and ``losses._rotation_forward``
    the rotation forwards of the last 16 loss instances, O(m) each, which
    the loss and its gradient share."""
    @functools.lru_cache(maxsize=16)
    def cached(*keys):
        built = build(*map(np.frombuffer, keys))
        for a in vars(built).values():
            _freeze(a)
        return built
    return functools.wraps(build)(lambda *arrays: cached(
        *(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)))


@content_cache
def kernel_model(model, mask) -> KernelModel:
    """The :class:`KernelModel` of a (K,3) model and a 3-vector axis mask.

    Results are memoized on the bytes of both, so repeated calls with the
    same content cost a hash and share read-only arrays, and a model
    changed in place gets a fresh result.
    """
    masked = model.reshape(-1, 3) * mask.reshape(3)
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
    abs_mean = np.abs(masked).mean(axis=0) if counts is None else counts @ np.abs(masked) / size
    return KernelModel(masked, outer, counts, inverse, size, m2, m2[0] + m2[4] + m2[8],
                       np.linalg.norm(masked, axis=1).max(), abs_mean)


def _point_distances(diff, km: KernelModel, out, d=None) -> np.ndarray:
    """The (..., n, K') distances ||X_i m_k + d_i|| to the points m_k of
    ``km`` for (..., n, 3, 3) matrices X_i = ``diff``, written into
    ``out``; ``d`` is (..., n, 3) or None for zero.

    The squared norm is m_k^T (X^T X) m_k + 2 (X^T d_i).m_k + d_i.d_i, one
    (n,9) x (9,K') product per leading index. X^T X is summed over j in
    order, (x_0i x_0k + x_1i x_1k) + x_2i x_2k, from X alone, so each
    row's value does not depend on which other rows are computed with
    it, except through the BLAS blocking of that product (the last bit
    of a few elements); a
    stacked product runs each leading index's 2-D product on its own, so
    every stack keeps the bits it has alone.
    """
    X = diff.reshape(-1, 3, 3)
    Xt = np.ascontiguousarray(X.transpose(1, 2, 0))        # (j, i, m)
    gram = (Xt[:, :, None] * Xt[:, None]).sum(axis=0).reshape(9, -1).T
    gram = np.ascontiguousarray(gram).reshape(diff.shape[:-2] + (9,))
    np.matmul(gram, km.outer.T, out=out)
    if d is not None:
        D = d.reshape(-1, 3)
        # double the (n, 3) factor, not the (n, K') product: exact, with no product-sized temporary
        out += (2.0 * np.einsum("mji,mj->mi", X, D)).reshape(d.shape) @ km.points.T
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


def _margin(m: int, km: KernelModel) -> float:
    """The absolute widening of a row-sum bound over m members."""
    return m * np.sqrt(72.0 * np.finfo(float).eps) * km.r_max


def _row_bounds(AS, B, km: KernelModel):
    """The one bound pass of :func:`medoid_index` for (C, n_s, 3, 3)
    rotations AS = A_c s and (m,3,3) member rotations B: (kept, lower,
    upper). ``lower`` and ``upper`` (C,) bound each candidate's computed
    row sum. ``kept`` holds for each candidate the (member, symmetry)
    pairs that can be their member's minimum as (idx, gram): their
    ascending flat indices s m + j and their (6, n) Gram vectors (None
    when r_max = 0 or a member is NaN or there is none, where every pair
    is kept), or None for a candidate whose lower bound is above the
    upper bound of one in its block or before it, dropped as soon as its
    block shows it. The tables are built for blocks of at most
    ``BOUND_BLOCK`` triples (or one candidate).
    """
    m, (n_c, n_s) = B.shape[0], AS.shape[:2]
    nan = np.isnan(B).any()
    if km.r_max == 0.0 or m == 0 or nan:
        # every distance is 0, or a NaN member makes every bound NaN: every pair is kept
        bounds = np.full(n_c, np.nan if nan else 0.0)
        return [(np.arange(n_s * m), None)] * n_c, bounds, bounds.copy()
    lower, upper = np.empty(n_c), np.empty(n_c)
    tr2 = 2.0 * km.tr_m2
    slack = BOUND_ABS_SLACK * km.tr_m2
    e_slack = (km.points.shape[0] + 32) * np.finfo(float).eps
    margin = _margin(m, km)
    m4 = _SPREAD.T @ km.m4 @ _SPREAD      # g^T m4 g over the distinct entries
    # q = <A s, -2 B_j M2>_F, so that t = q + 2 tr(M2); the -2 is exact
    BM2 = (-2.0 * (B @ km.m2.reshape(3, 3))).reshape(m, 9).T.copy()
    # rows (c, s) of 9 entries, and their transpose, where each entry of a
    # pair's X is a contiguous row
    ASr = AS.reshape(-1, 9)
    ASt, Bt = ASr.T.copy(), B.reshape(m, 9).T.copy()
    # ||X||_F^2 <= 8 for rotations: 3 r_max exceeds every widened ||X||_F r_max
    loose = 3.0 * km.r_max
    step = max(1, BOUND_BLOCK // (m * n_s))
    table = np.empty(min(step, n_c) * n_s * m)
    kept = []
    for lo in range(0, n_c, step):
        n = min(step, n_c - lo)
        q = np.matmul(ASr[lo * n_s:(lo + n) * n_s], BM2,
                      out=table[:n * n_s * m].reshape(n * n_s, m)).reshape(n, n_s, m)
        up = q.min(axis=1)
        up += tr2
        up += slack
        np.sqrt(np.maximum(up, 0.0, out=up), out=up)
        upper[lo:lo + n] = (1.0 + BOUND_REL_SLACK) * up.sum(axis=1) + margin
        cut = (1.0 + BOUND_REL_SLACK) * up
        # the norm-free test, on q = t - 2 tr(M2): t - slack <= 3 r_max cut
        pairs = np.flatnonzero(q <= (cut * loose + (slack - tr2))[:, None, :])  # (c, s, j)
        t = np.maximum(q.reshape(-1)[pairs] + tr2 - slack, 0.0)
        cs, j = np.divmod(pairs, m)
        c = cs // n_s
        X = (np.take(ASt, lo * n_s + cs, axis=1) - np.take(Bt, j, axis=1)).reshape(3, 3, -1)
        # the Gram vector: the distinct entries g_ab = sum_i X_ia X_ib, a <= b
        g = np.empty((6, X.shape[2]))
        for a, row in ((0, 0), (1, 3), (2, 5)):
            np.sum(X[:, a:a + 1] * X[:, a:], axis=0, out=g[row:row + 3 - a])
        fro = np.sqrt(g[0] + g[3] + g[5] + BOUND_ABS_SLACK) * km.r_max   # ||X||_F r_max
        cj = c * m + j
        # the chord test: t - slack <= ||X||_F r_max cut
        sure = t <= fro * cut.reshape(-1)[cj]
        if not sure.all():
            pairs, c, cj, t = pairs[sure], c[sure], cj[sure], t[sure]
            g, fro = g[:, sure], fro[sure]
        # Hölder: t^(3/2) / sqrt(g^T m4 g + slack); chord: sqrt(2) t / fro
        e = np.einsum("in,in->n", m4 @ g, g)
        e += e_slack * np.square(np.square(fro))
        bound = np.maximum(t * np.sqrt(t / e), np.sqrt(2.0) * t / fro)
        low = np.full(n * m, np.inf)
        np.minimum.at(low, cj, bound)
        lower[lo:lo + n] = (1.0 - BOUND_REL_SLACK) * low.reshape(n, m).sum(axis=1) - margin
        ends = np.searchsorted(c, np.arange(n + 1))
        pairs -= c * (n_s * m)
        best = upper[:lo + n].min()
        kept += [None if lower[lo + i] > best else (pairs[a:b], g[:, a:b])
                 for i, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]
    return kept, lower, upper


def _interval(idx, gram, m, n_s, km: KernelModel, buf) -> tuple[float, float]:
    """(lower, upper) bounds on one candidate's computed row sum from
    float32 rows over its kept pairs (``idx`` and ``gram`` as
    :func:`_row_bounds` keeps them), widened like the bound pass's;
    ``buf`` is a float32 (n, K') buffer."""
    weights = (np.ones(km.points.shape[0], dtype=np.float32) if km.counts is None
               else km.counts.astype(np.float32))
    sums = np.empty(idx.size)
    for lo in range(0, idx.size, buf.shape[0]):
        g = np.ascontiguousarray(gram[:, lo:lo + buf.shape[0]].T, dtype=np.float32)
        q = np.matmul(g, km.outer32, out=buf[:g.shape[0]])
        sums[lo:lo + g.shape[0]] = np.sqrt(np.abs(q, out=q), out=q) @ weights
    n_u = (km.points.shape[0] + 4) * SCREEN_U
    gamma = n_u / (1.0 - n_u)
    # the mean over k of sum_a ||X e_a|| |m_ka|, and the underflow term
    err = np.sqrt(9.0 * SCREEN_U) * (km.abs_mean @ np.sqrt(gram[[0, 3, 5]]))
    err += np.sqrt(7.0 * SCREEN_U * BOUND_ABS_SLACK) * km.r_max
    table = np.full((2, n_s * m), np.inf)
    table[0, idx] = sums * ((1.0 - gamma) / km.size) - err
    table[1, idx] = sums / ((1.0 - gamma) * km.size) + err
    low, high = table.reshape(2, n_s, m).min(axis=1).sum(axis=1)
    margin = _margin(m, km)
    return (1.0 - BOUND_REL_SLACK) * low - margin, (1.0 + BOUND_REL_SLACK) * high + margin


def _exact_row(AS, B, idx, km: KernelModel, sq) -> np.ndarray:
    """One candidate's (m,) row for its (n_s,3,3) rotations AS, over its
    kept pairs, flat indices s m + j, member by member, a block of ``sq``'s
    rows at a time; ``sq`` is a (step, K') buffer, 1 <= step <= max(m, 1)
    and step >= 2 when m is. Each member keeps at least the pair with its
    smallest upper bound."""
    m, step = B.shape[0], sq.shape[0]
    keep = np.zeros((AS.shape[0], m), dtype=bool)
    keep.reshape(-1)[idx] = True
    rows, s_idx = np.nonzero(keep.T)
    means = np.empty(rows.size)
    for i in range(0, rows.size, step):
        j, s = rows[i:i + step], s_idx[i:i + step]
        n = j.size
        if n == 1 < m:   # a one-row product is a BLAS gemv, which rounds unlike gemm
            j, s = np.repeat(j, 2), np.repeat(s, 2)
        means[i:i + n] = km.mean(_point_distances(AS[s] - B[j], km, sq[:j.size]),
                                 axis=-1)[:n]
    if np.array_equal(rows, np.arange(m)):     # one pair per member
        return means
    return np.minimum.reduceat(means, np.flatnonzero(np.diff(rows, prepend=-1)))


def medoid_index(rep_quats, quats, model, group: SymmetryGroup, mask) -> int:
    """The index of the (C,4) candidate quaternion ``rep_quats`` whose
    symmetry-aware rotation distances to the (m,4) batch ``quats`` have
    the smallest computed sum, ties to the first: a medoid vote.

    A candidate's row is that of symmetric_pose_distance with zero
    translations between it and each quaternion in ``quats``: the (m,)
    mean point distances min_s mu_js, mu_js = mean_k ||X m_k||, X = A s -
    B_j, A = R(candidate), B_j = R(quats[j]), as :func:`_exact_row`
    computes them, and its sum is the row's float64 sum. Every candidate
    goes through one rule:

    - the bound pass (:func:`_row_bounds`) rules out a candidate whose
      lower bound is above another's upper bound;
    - each survivor, smallest upper bound first, gets a float32 interval
      (:func:`_interval`) that holds its computed row sum, unless its
      lower bound is already above the smallest upper end so far;
    - only a survivor whose lower end is not above the smallest upper end
      gets its float64 row; a lone survivor wins without a row, and a tie
      is an overlap, so the index is the argmin over every computed row
      sum, ties to the first.

    Where the intervals' float32 proof does not hold (r_max outside
    [2^-40, 2^40] or more than 2^22 model points), with a NaN member, and
    where r_max = 0 or there is no member, every candidate the bound pass
    keeps gets its row. No candidate raises ValueError.

    Candidates and members are converted once, and one pass over blocks of
    candidates bounds every mean (Elkan, ICML 2003, prunes k-means the
    same way; Newling and Fleuret, AISTATS 2017, rule out medoid
    candidates alike). With M2 = mean_k m_k m_k^T, r_max = max_k ||m_k||,
    t = tr(X^T X M2) and the Gram vector g, the distinct entries of X^T X,
    so that q_k = ||X m_k||^2 = <X^T X, m_k m_k^T>_F:

    - upper: mu_js <= sqrt(t), as a mean is at most the root mean square;
    - chord: ||X m_k|| <= ||X||_F r_max, so ||X m_k|| >= q_k / (||X||_F
      r_max), and X = B_j (B_j^T A s - I) has two equal singular values,
      so mu_js >= sqrt(2) t / (||X||_F r_max);
    - Hölder: mean_k q_k <= (mean_k sqrt(q_k))^(2/3) (mean_k q_k^2)^(1/3)
      with mean_k q_k^2 = g^T m4 g (:attr:`KernelModel.m4` over the
      distinct entries), so mu_js >= t^(3/2) / sqrt(g^T m4 g), much tighter
      when the q_k are alike.

    For rotations t = 2 tr(M2) - 2 <A s, B_j M2>_F, so one (C |G|, 9) x (9,
    m) product gives every t, and ||X||_F^2 = 6 - 2 tr(B_j^T A s) <= 8, as
    a rotation's trace is at least -1. A pair whose t exceeds ||X||_F r_max
    times its member's smallest upper bound times 1 + BOUND_REL_SLACK (the
    cutoff) cannot be that member's minimum. Each (member, candidate,
    symmetry) triple costs one product entry, its share of the minimum
    over s and one comparison with 3 r_max times the cutoff, which needs
    no norm and drops only pairs the cutoff drops. The survivors, about one
    per member and candidate, get X = A s - B_j as the exact kernel forms
    it, g, ||X||_F^2 = tr(X^T X) and the cutoff itself; the pair with the
    smallest upper bound always survives. A candidate's upper bound sums
    its members' smallest upper bounds, its lower bound their smallest
    chord or Hölder bound, whichever is larger, over the kept pairs, whose
    Gram vectors are kept for the intervals unless the candidate's block
    already shows it ruled out.

    The interval is the candidate's row in float32 over its kept pairs:
    (n, 6) x (6, K') products of their Gram vectors and
    :attr:`KernelModel.outer32`, the roots of the absolute values and
    their sums over the model points, with two-sided error bounds (Rump,
    Acta Numerica 2010). Rows and intervals share one buffer of step rows,
    step = min(max(m, 1), max(2, DIST_BLOCK // K')) in float64 and twice
    that in float32, so a vote holds at most DIST_BLOCK distances (two rows where
    one holds more) whatever m. A one-row block of a row with m > 1 is
    computed as two equal rows, as numpy sends a one-row product to gemv,
    which rounds unlike gemm; a one-member row stays a gemv, as the
    unpruned kernel's is.

    Why the index is the exhaustive one. Let eps be the machine epsilon
    and u = 2^-24 float32's unit roundoff.

    - t cancels when X ~ 0 and its Frobenius form assumes orthogonal
      matrices, which quats_to_matrices and the group give to a few eps: the
      computed t is within about 150 eps tr(M2) of the exact value
      (measured: 22). ||X||_F^2 from the Gram vector of X as formed is
      within 5 eps relative of it. Both are widened by BOUND_ABS_SLACK =
      4096 eps (times tr(M2) for t), so the bounds hold for the exact
      values, every upper bound is at least sqrt(4096 eps tr(M2)), and the
      sqrt(2) of the chord bound holds for the computed matrices.
      Multiplying the cutoff by the widened ||X||_F r_max rounds once, by
      half an ulp, far inside BOUND_REL_SLACK. The norm-free test is made on
      the product entry, t - 2 tr(M2), against 3 r_max times the cutoff,
      which is at least 6% above every widened ||X||_F r_max times it. 6%
      of r_max times a cutoff, itself at least sqrt(4096 eps tr(M2)), is far
      more than moving 2 tr(M2) across rounds (a few eps tr(M2), and tr(M2)
      <= r_max^2), so a pair the cutoff keeps is never dropped. Where
      r_max = 0 every distance is 0: every pair is kept.
    - g is formed from X = A s - B_j as the exact kernel forms it, so each
      q_k is within 2.6 eps ||X||_F^2 r_k^2 of the exact one. m4 and the
      two products of g^T m4 g round within (K' + 22) (eps / 2) ||g||^2
      r_max^4. As sqrt(mean_k q_k^2) <= ||X||_F^2 r_max^2 / 2, the exact
      mean_k q_k^2 is at most the computed g^T m4 g plus (K' + 32) eps
      fro^4, fro the widened ||X||_F r_max (measured on the pipeline's
      voting inputs: under 0.3 eps), so the Hölder bound holds.
    - A skipped mean exceeds its member's kept minimum by at least (sqrt(2)
      - 1) times the cutoff. A computed mean is within 1e-15 relative of
      mu_js, except where ||X m_k||^2 cancels, at most sqrt(72 eps) r_k
      per point, which twice over is below 0.41 sqrt(4096 eps tr(M2)). So
      no skipped mean is a member's computed minimum, and a computed row
      sum is at least (1 - (m + K') eps) times the sum of the exact minima
      less m sqrt(72 eps) r_max, and at most (1 + (m + K') eps) times the
      sum over members of any kept pair's exact mean plus m sqrt(72 eps)
      r_max. The bound sums round by a few eps relative per member and m
      eps / 2 in the sum; they are scaled by 1 -+ BOUND_REL_SLACK and moved
      by -+ m sqrt(72 eps) r_max, and 1e-6 covers every relative term for
      m + K' below 4e9. So a candidate whose lower bound exceeds another's
      upper bound has a strictly larger computed row sum.
    - The interval. g and the doubled m_k m_k^T entries are rounded to
      float32 (u relative each) and a 6-term product sums within 6u / (1 -
      6u) of its absolute terms in any order, so with g's own float64
      rounding the float32 q_k is within 9u sum_ab |(X^T X)_ab (m_k
      m_k^T)_ab| of the exact one (Higham, Accuracy and Stability of
      Numerical Algorithms, 2002, ch. 3). As X^T X is positive
      semidefinite, |(X^T X)_ab| <= ||X e_a|| ||X e_b||, so that sum is at
      most (sum_a ||X e_a|| |m_ka|)^2, itself at most ||X||_F^2 ||m_k||^2
      (Cauchy-Schwarz). Where q_k cancels that is all there is, and
      |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) for a, b >= 0 (a negative q_k is
      taken by its absolute value, which is no farther) bounds the error
      of a point's distance, either way, by sqrt(9u) sum_a ||X e_a||
      |m_ka|, and of the mean by sqrt(9u) sum_a ||X e_a|| mean_k |m_ka|
      (:attr:`KernelModel.abs_mean`; the column norms come from g). A
      float32 product that underflows errs by at most 2^-150 absolute: at
      most 2^-144 max(1, r_max^2) in q_k and 2^-72 max(1, r_max) after the
      root, which sqrt(7u BOUND_ABS_SLACK) r_max >= 2^-30.5 r_max covers,
      with the float64 roundings of the first term, for r_max >= 2^-40. The
      root rounds by u relative and the K'-term sum of nonnegative terms,
      weighted by the counts (exact in float32), by gamma_K' = K' u / (1 -
      K' u), so with n = K' + 4 (which covers the float64 roundings that
      follow) the mean of the roots of the float32 q_k lies between S (1 -
      gamma_n) and S / (1 - gamma_n), S the float32 sum over K. The lower
      end takes the first less the two error terms, the upper end the
      second plus them; the members' minima over their kept pairs and
      their sum run in float64 and are widened like the bounds above,
      which covers the computed row's own rounding. So each end holds the computed row
      sum, and a candidate whose lower end is above another's upper end
      has a strictly larger computed sum. The intervals run only where
      2^-40 <= r_max <= 2^40 and K <= 2^22: float32 cannot overflow there
      (q_k <= 9 r_max^2), the counts are exact and (K' + 4) u <= 1/4.
    - A candidate's keep mask and Gram vectors come out of every block of
      the bound pass the same: gemm sums each table entry's 9 terms in
      one order whatever the number of rows, as long as the product stays
      on one code path. OpenBLAS's SkylakeX kernel rounds otherwise above
      about 10^6 multiply-adds, and 9 BOUND_BLOCK keeps every block of
      more than one candidate below that, as 9 |G| m then is. A table of
      fewer rows can still round a few entries otherwise (a gemv with one
      symmetry, Nehalem's SSE kernel with a few rows): that moves the
      bounds in their last bits where t cancels (2e-11 relative at most
      in the tests), far inside their widening, and would change a keep
      mask only where an entry meets its cutoff to the last bit. When
      every member keeps one pair, the usual case, and the m rows fit one
      block (m K' <= DIST_BLOCK), the survivor product has the full
      kernel's shape and row order, so the row is the unpruned one to the
      bit. Otherwise each block rounds as a product of its own shape: BLAS
      blocking can round a few squared distances otherwise than the full
      product (a few in 10^6 at 2^18 on SkylakeX, up to 2.3% on Nehalem),
      which moves the last bit of a mean (1e-15 relative at most). The
      blocks depend on m and K' alone, so a candidate's row is the same
      whichever candidates share its vote. A NaN member keeps every pair,
      is NaN in every row and makes every bound NaN, so nothing is pruned
      and the first candidate wins, as an argmin over NaN sums picks it.
    """
    AS = _candidate_rotations(rep_quats, group)
    B = quats_to_matrices(quats)
    m, km = B.shape[0], kernel_model(model, mask)
    kept, lower, upper = _row_bounds(AS, B, km)
    live = np.flatnonzero(~(lower > upper.min()))      # NaN bounds rule out nothing
    # two rows at least, so that _exact_row can compute a one-row block as a gemm
    sq = np.empty((min(max(m, 1), max(2, DIST_BLOCK // km.points.shape[0])),
                   km.points.shape[0]))
    # where the float32 proof holds; without Gram vectors (a NaN member, r_max = 0
    # or no member) there is nothing to bound
    if (len(live) > 1 and kept[live[0]][1] is not None and 2.0 ** -40 <= km.r_max <= 2.0 ** 40
            and km.size <= 1 << 22):
        buf = sq.reshape(-1).view(np.float32).reshape(2 * sq.shape[0], -1)
        ends, high = {}, np.inf
        # smallest upper bound first: the smallest upper end so far rules out
        # a candidate by its lower bound before its interval is formed
        for c in live[np.argsort(upper[live], kind="stable")]:
            if lower[c] <= high:
                ends[c] = _interval(*kept[c], m, len(group), km, buf)
                high = min(high, ends[c][1])
        live = [c for c in live if c in ends and ends[c][0] <= high]
    if len(live) == 1:
        return int(live[0])
    sums = [_exact_row(AS[c], B, kept[c][0], km, sq).sum() for c in live]
    return int(live[np.argmin(sums)])
