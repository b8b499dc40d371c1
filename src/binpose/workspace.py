"""Normalized workpiece space.

Models are uniformly scaled so their longest bounding-box edge spans a
100 mm cube, and scenes are recentered on their centroid, so clustering
bandwidths become size independent. The transform is exactly invertible
for points and poses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .so3 import Pose

CUBE_SIDE_MM = 100.0


@dataclass(frozen=True)
class NormalizationTransform:
    """Uniform scale plus scene recentering offset (mm).

    Forward maps a scene point p to (p - scene_offset) * scale; the
    inverse reproduces p to within 1e-9 mm.
    """

    scale: float
    scene_offset: np.ndarray

    def __post_init__(self):
        # written so that NaN fails it
        if not 0.0 < self.scale < np.inf:
            raise ValueError("normalization scale must be positive and finite")
        offset = np.asarray(self.scene_offset, dtype=float).reshape(3).copy()
        if not np.isfinite(offset).all():
            raise ValueError("normalization scene_offset must be finite")
        object.__setattr__(self, "scene_offset", offset)

    def forward_points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return (pts - self.scene_offset) * self.scale

    def inverse_points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return pts / self.scale + self.scene_offset


def fit_normalization(model_points) -> NormalizationTransform:
    """Scale factor that fits the model into the 100 mm cube.

    scale = 100 / longest axis-aligned bounding-box edge. The scene
    offset is left at zero; it is filled in by normalize_scene.
    """
    pts = np.asarray(model_points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("model point cloud is empty")
    extent = pts.max(axis=0) - pts.min(axis=0)
    longest = float(extent.max())
    if longest <= 0.0:
        raise ValueError("model bounding box has zero extent")
    return NormalizationTransform(scale=CUBE_SIDE_MM / longest, scene_offset=np.zeros(3))


def normalize_scene(scene_points, transform: NormalizationTransform
                    ) -> tuple[np.ndarray, NormalizationTransform]:
    """Recenter the scene cloud on its centroid and apply the scale.

    Returns the normalized cloud together with a completed transform
    whose scene_offset records the subtracted centroid (the input
    transform is immutable and left untouched).
    """
    pts = np.asarray(scene_points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("scene point cloud is empty")
    centroid = pts.mean(axis=0)
    completed = NormalizationTransform(scale=transform.scale, scene_offset=centroid)
    return (pts - centroid) * transform.scale, completed


def denormalize_pose(pose: Pose, transform: NormalizationTransform) -> Pose:
    """Map a pose from normalized space back to scene millimeters.

    Uniform scaling commutes with rotation, so only the translation
    changes: t = t_norm / scale + scene_offset.
    """
    return Pose(pose.quat, pose.t / transform.scale + transform.scene_offset)


def normalize_pose(pose: Pose, transform: NormalizationTransform) -> Pose:
    """Inverse of denormalize_pose."""
    return Pose(pose.quat, (pose.t - transform.scene_offset) * transform.scale)
