"""Physics-free synthetic bin scenes with ground truth, plus the noisy
oracle predictor that stands in for a trained network.

Scenes drop instances at random orientations into a bin using a
bounding-sphere stacking rule (lowest non-overlapping height), then a
top-down grid filter removes occluded points and produces per-instance
visibility counts. The oracle emits per-point centroid and quaternion
predictions around the ground truth, optionally sampling symmetric
equivalents per point, which reproduces the rotation-mode splitting a
real network shows on symmetric objects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cluster import PerPointPrediction, require_int
from .so3 import (Pose, SymmetryDescriptor, SymmetryGroup, axis_rotation,
                  build_axis_mask, build_symmetry_group, classify_axes,
                  matrix_to_quat, quat_multiply_batch, quat_normalize_batch,
                  quats_from_axis_angle)


class SceneGenerationError(RuntimeError):
    """No instance could be placed within the attempt budget."""


class StageWarning(UserWarning):
    """A stage finished with a result worth a second look; the CLI prints it."""


# ---------------------------------------------------------------------------
# object models


@dataclass
class ObjectModel:
    """A sampled object point cloud (mm, object frame, centroid at the
    origin) together with its symmetry machinery."""

    name: str
    points: np.ndarray
    symmetry: SymmetryDescriptor
    group: SymmetryGroup = field(init=False)
    mask: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if pts.shape[0] == 0:
            raise ValueError("object model cloud is empty")
        if not np.isfinite(pts).all():
            raise ValueError(f"object model {self.name!r} has non-finite points")
        pts = pts - pts.mean(axis=0)
        if np.abs(pts.mean(axis=0)).max() > 1e-6:
            raise ValueError("model centroid could not be zeroed")
        self.points = pts
        self.group = build_symmetry_group(self.symmetry)
        self.mask = build_axis_mask(self.symmetry)

    @property
    def bbox(self) -> np.ndarray:
        return self.points.max(axis=0) - self.points.min(axis=0)

    @property
    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.points, axis=1).max())

    def infinite_axes(self) -> list[int]:
        return [i for i, c in enumerate(classify_axes(self.symmetry)) if c == "infinite"]


MAX_CLOUD_POINTS = 1 << 22    # points a model cloud builder may allocate (100 MB of xyz)


def _check_cloud_size(count, what: str) -> None:
    """Raise ValueError naming ``what`` unless ``count`` (a float, which
    may be inf) is at most MAX_CLOUD_POINTS; builders call it before they
    allocate."""
    if not count <= MAX_CLOUD_POINTS:
        raise ValueError(f"{what} would build {count:.3g} points, more than "
                         f"MAX_CLOUD_POINTS = {MAX_CLOUD_POINTS}")


def box_cloud(extents, pitch: float) -> np.ndarray:
    """Surface lattice of an axis-aligned box centered at the origin."""
    ext = np.asarray(extents, dtype=float).reshape(3)
    if (ext <= 0).any() or pitch <= 0:
        raise ValueError("box extents and pitch must be positive")
    # the points of the (nx, ny, nz) volume grid, in its row-major order, that
    # lie on a face: a grid line is on one when its coordinate is close to
    # the half extent, as at least the two end lines of each axis are, so the
    # points on those bound the count from below before anything is built
    what = f"box extents {ext.tolist()} at pitch {pitch}"
    nx, ny, nz = sides = [max(2.0, float(np.round(e / pitch)) + 1.0) for e in ext.tolist()]
    _check_cloud_size(nx * ny * nz - (nx - 2.0) * (ny - 2.0) * (nz - 2.0), what)
    axes = [np.linspace(-e / 2.0, e / 2.0, int(n)) for e, n in zip(ext, sides)]
    on_x, on_y, on_z = [np.isclose(np.abs(a), e / 2.0) for a, e in zip(axes, ext)]
    # a slab of constant x holds every (y, z) on an x face, else the ring on a y or z face
    full = np.arange(on_y.size * on_z.size)
    ring = np.flatnonzero(on_y[:, None] | on_z[None, :])
    sizes = np.where(on_x, full.size, ring.size)
    _check_cloud_size(float(sizes.sum()), what)
    y, z = np.divmod(np.concatenate([full if face else ring for face in on_x]), on_z.size)
    return np.stack([axes[0][np.repeat(np.arange(on_x.size), sizes)], axes[1][y], axes[2][z]],
                    axis=1)


def cylinder_cloud(radius: float, height: float, pitch: float) -> np.ndarray:
    """Lateral surface + end-cap rings of a z-axis cylinder."""
    if radius <= 0 or height <= 0 or pitch <= 0:
        raise ValueError("cylinder dimensions and pitch must be positive")
    n_ang = max(8.0, float(np.round(2.0 * math.pi * radius / pitch)))
    n_z = max(2.0, float(np.round(height / pitch)) + 1.0)
    # fewer than radius / pitch cap rings per end, none longer than n_ang
    _check_cloud_size(n_ang * (n_z + 2.0 * radius / pitch) + 2.0,
                      f"cylinder radius {radius}, height {height} at pitch {pitch}")
    n_ang = int(n_ang)
    ang = np.arange(n_ang) * (2.0 * math.pi / n_ang)
    zs = np.linspace(-height / 2.0, height / 2.0, int(n_z))
    side = np.stack([
        np.repeat(radius * np.cos(ang), zs.size),
        np.repeat(radius * np.sin(ang), zs.size),
        np.tile(zs, ang.size),
    ], axis=1)
    caps = []
    radii = np.arange(pitch, radius, pitch)
    for z in (-height / 2.0, height / 2.0):
        caps.append(np.array([[0.0, 0.0, z]]))
        for r in radii:
            n = max(6, int(round(2.0 * math.pi * r / pitch)))
            a = np.arange(n) * (2.0 * math.pi / n)
            caps.append(np.stack([r * np.cos(a), r * np.sin(a), np.full(n, z)], axis=1))
    return np.concatenate([side] + caps)


def sphere_cloud(radius: float, n_points: int = 500) -> np.ndarray:
    """Fibonacci-lattice sphere surface."""
    if radius <= 0 or n_points < 4:
        raise ValueError("bad sphere parameters")
    _check_cloud_size(n_points, f"sphere n_points {n_points}")
    i = np.arange(n_points, dtype=float)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n_points
    r_xy = np.sqrt(1.0 - z * z)
    return radius * np.stack([r_xy * np.cos(phi), r_xy * np.sin(phi), z], axis=1)


def rod_model(pitch: float = 2.0) -> ObjectModel:
    """Slender 10 x 10 x 400 mm rod, the stress shape for crossing tests."""
    return ObjectModel("rod", box_cloud((10.0, 10.0, 400.0), pitch),
                       SymmetryDescriptor())


# ---------------------------------------------------------------------------
# scenes


@dataclass(frozen=True)
class SceneGenParams:
    """Bin geometry and occlusion settings; everything in mm."""

    instance_range: tuple[int, int] = (4, 8)
    bin_extents: tuple[float, float, float] = (400.0, 400.0, 400.0)
    max_attempts: int = 60
    occlusion_cell: float = 5.0
    occlusion_depth: float = 10.0

    def __post_init__(self):
        lo, hi = self.instance_range
        require_int("instance_range", lo)
        require_int("instance_range", hi)
        require_int("max_attempts", self.max_attempts)
        if not 1 <= lo <= hi < np.inf:
            raise ValueError("bad instance count range")
        if not all(0.0 < e < np.inf for e in self.bin_extents):
            raise ValueError("bin extents must be positive")
        if not (0.0 < self.occlusion_cell < np.inf and 0.0 < self.occlusion_depth < np.inf):
            raise ValueError("occlusion cell and depth must be positive")
        if not 1 <= self.max_attempts < np.inf:
            raise ValueError("max_attempts must be at least 1")


@dataclass(frozen=True)
class SceneInstance:
    pose: Pose
    point_indices: np.ndarray   # indices into the scene cloud

    @property
    def n_visible(self) -> int:
        return int(self.point_indices.shape[0])


@dataclass
class Scene:
    points: np.ndarray          # (V,3) merged visible cloud, mm
    labels: np.ndarray          # (V,) instance id per point, an index into poses
    poses: list[Pose]           # ground truth of every instance, visible or not
    seed: int | None = None

    @property
    def instances(self) -> tuple[SceneInstance, ...]:
        """Each ground-truth pose with the indices of the points labeled
        with it, derived from ``labels`` on every access."""
        return tuple(SceneInstance(pose, np.nonzero(self.labels == i)[0])
                     for i, pose in enumerate(self.poses))

    def visible_counts(self) -> list[int]:
        return [inst.n_visible for inst in self.instances]

    def gt_poses(self) -> list[Pose]:
        return list(self.poses)


def _euler_rotation(rng: np.random.Generator) -> np.ndarray:
    yaw, pitch, roll = rng.uniform(0.0, 360.0, size=3)
    return axis_rotation(2, yaw) @ axis_rotation(1, pitch) @ axis_rotation(0, roll)


def generate_scene(model: ObjectModel, params: SceneGenParams,
                   seed: int = 0) -> Scene:
    """Drop instances into the bin with bounding-sphere stacking.

    Each instance gets a uniform random yaw-pitch-roll orientation and a
    random xy position; its height is the lowest z at which its bounding
    sphere clears the floor and every previously placed sphere. Attempts
    that would poke above the bin are rejected and resampled up to the
    attempt cap; a :class:`StageWarning` says when the bin fills before
    every drawn instance is placed. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = params.instance_range
    requested = int(rng.integers(lo, hi + 1))
    r = model.bounding_radius
    ex, ey, ez = params.bin_extents

    centers: list[np.ndarray] = []
    rotations: list[np.ndarray] = []
    for _ in range(requested):
        for _attempt in range(params.max_attempts):
            R = _euler_rotation(rng)
            x = rng.uniform(-ex / 2.0, ex / 2.0)
            y = rng.uniform(-ey / 2.0, ey / 2.0)
            z = r
            for c in centers:
                d_xy = math.hypot(x - c[0], y - c[1])
                if d_xy < 2.0 * r:
                    z = max(z, c[2] + math.sqrt(max(4.0 * r * r - d_xy * d_xy, 0.0)))
            if z + r <= ez:
                centers.append(np.array([x, y, z]))
                rotations.append(R)
                break
    if not centers:
        raise SceneGenerationError("no instance could be placed in the bin")
    if len(centers) < requested:
        warnings.warn(f"the bin is full: placed {len(centers)} of {requested} instances",
                      StageWarning, stacklevel=2)

    clouds = [model.points @ R.T + c for c, R in zip(centers, rotations)]
    return Scene(points=np.concatenate(clouds),
                 labels=np.repeat(np.arange(len(clouds)), model.points.shape[0]),
                 poses=[Pose(matrix_to_quat(R), c) for c, R in zip(centers, rotations)],
                 seed=seed)


def apply_occlusion(scene: Scene, cell: float, depth: float) -> Scene:
    """Top-down visibility: per xy grid cell keep points within ``depth``
    of the cell's highest point, with their labels."""
    if cell <= 0.0 or depth <= 0.0:
        raise ValueError("cell and depth must be positive")
    pts = scene.points
    if pts.shape[0] == 0:
        return scene
    ij = np.floor((pts[:, :2] - pts[:, :2].min(axis=0)) / cell).astype(int)
    keys = ij[:, 0] * (ij[:, 1].max() + 1) + ij[:, 1]
    cells, cell_of = np.unique(keys, return_inverse=True)
    top = np.full(cells.shape[0], -np.inf)
    np.maximum.at(top, cell_of, pts[:, 2])
    keep = pts[:, 2] >= top[cell_of] - depth

    return Scene(points=pts[keep], labels=scene.labels[keep], poses=list(scene.poses),
                 seed=scene.seed)


def make_crossing_rods_scene(separation: float, angle_deg: float,
                             model: ObjectModel | None = None) -> Scene:
    """Two rods crossing in the xy plane, the slender-object stress case.

    Both rods lie horizontally; the second is rotated by ``angle_deg``
    about z and lifted by ``separation`` along z (the common
    perpendicular through both centers). With separation 0 and angle 90
    the centroids coincide while the rotations differ by 90 degrees.
    """
    if model is None:
        model = rod_model()
    lift = axis_rotation(1, 90.0)               # model long axis (z) -> scene x
    R1 = lift
    R2 = axis_rotation(2, angle_deg) @ lift
    t1 = np.array([0.0, 0.0, -separation / 2.0])
    t2 = np.array([0.0, 0.0, separation / 2.0])

    n = model.points.shape[0]
    return Scene(points=np.concatenate([model.points @ R1.T + t1, model.points @ R2.T + t2]),
                 labels=np.repeat([0, 1], n),
                 poses=[Pose(matrix_to_quat(R1), t1), Pose(matrix_to_quat(R2), t2)])


# ---------------------------------------------------------------------------
# the oracle predictor


@dataclass(frozen=True)
class OracleParams:
    """Noise model emulating per-point network output.

    sigma_t_mm / sigma_r_deg: Gaussian centroid and rotation noise.
    symmetric_ambiguity: sample a symmetric equivalent per point (a
    uniform element of the finite set, plus a uniform spin about each
    continuously symmetric axis), reproducing the per-point rotation
    disagreement seen on symmetric objects. outlier_fraction: fraction
    of points replaced by uniform garbage inside the bin.
    """

    sigma_t_mm: float = 1.0
    sigma_r_deg: float = 2.0
    symmetric_ambiguity: bool = True
    outlier_fraction: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.sigma_t_mm < np.inf and 0.0 <= self.sigma_r_deg < np.inf):
            raise ValueError("noise levels must be non-negative")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier fraction must be in [0, 1)")


def oracle_predict(scene: Scene, model: ObjectModel, params: OracleParams,
                   seed: int = 0, bin_extents=(400.0, 400.0, 400.0)) -> PerPointPrediction:
    """Per-point predictions for every visible scene point.

    Centroids are the instance ground truth plus isotropic Gaussian
    noise; quaternions are the ground-truth rotation composed (in the
    object frame) with an optional symmetric equivalent, a uniform spin
    about each continuously symmetric axis, and a small random rotation.
    A fraction of points, and every point whose id has no pose, becomes
    a uniform outlier: a centroid anywhere in the bin and a random
    rotation. Deterministic for a given (scene, params, seed).
    """
    rng = np.random.default_rng(seed)
    n_pts = scene.points.shape[0]
    centroids = np.empty((n_pts, 3))
    quats = np.empty((n_pts, 4))
    inf_axes = model.infinite_axes()
    n_sym = len(model.group)
    sym_quats = np.stack([matrix_to_quat(s) for s in model.group.matrices])

    for inst in scene.instances:
        idx = inst.point_indices
        m = idx.shape[0]
        if m == 0:
            continue
        centroids[idx] = inst.pose.t + rng.normal(0.0, params.sigma_t_mm, size=(m, 3))
        q = np.tile(inst.pose.quat, (m, 1))
        if params.symmetric_ambiguity:
            if n_sym > 1:
                q = quat_multiply_batch(q, sym_quats[rng.integers(n_sym, size=m)])
            for axis in inf_axes:
                spins = np.radians(rng.uniform(0.0, 360.0, size=m))
                q = quat_multiply_batch(q, quats_from_axis_angle(np.eye(3)[[axis] * m], spins))
        if params.sigma_r_deg > 0.0:
            angles = np.radians(rng.normal(0.0, params.sigma_r_deg, size=m))
            q = quat_multiply_batch(q, quats_from_axis_angle(rng.normal(size=(m, 3)), angles))
        # dividing by the axis=1 norm first keeps the oracle's bits: the
        # result is unit within 1e-12, so quat_normalize_batch only flips signs
        quats[idx] = quat_normalize_batch(q / np.linalg.norm(q, axis=1, keepdims=True))

    outliers = (scene.labels < 0) | (scene.labels >= len(scene.poses))
    if params.outlier_fraction > 0.0:
        outliers |= rng.random(n_pts) < params.outlier_fraction
    k = np.count_nonzero(outliers)
    ex, ey, ez = bin_extents
    centroids[outliers] = rng.uniform(-0.5, 0.5, size=(k, 3)) \
        * np.array([ex, ey, ez]) + np.array([0.0, 0.0, ez / 2.0])
    q = rng.normal(size=(k, 4))
    quats[outliers] = quat_normalize_batch(q / np.linalg.norm(q, axis=1, keepdims=True))

    return PerPointPrediction(positions=scene.points.copy(),
                              centroids=centroids, quats=quats)
