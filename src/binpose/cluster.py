"""Mean-shift clustering and the two-stage instance segmentation +
pose voting pipeline.

Stage 1 clusters joint (centroid, scaled quaternion) features, so
intersecting instances and symmetric-equivalent rotation modes separate
cleanly. Stage 2 re-merges stage-1 clusters by position alone, undoing
the symmetric splits, and a voting step picks one pose per instance:
count-weighted mean translation and a medoid rotation under the
symmetry-aware metric (never an average, which blends symmetric
equivalents into a pose unlike either).

A single-stage mode clusters predicted centroids only and averages
member quaternions; it exists to reproduce the failure modes the
two-stage pipeline removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .so3 import (Pose, SymmetryGroup, quat_normalize, quat_normalize_batch,
                  rotation_distances_to_set)


@dataclass(frozen=True)
class ClusterParams:
    """Bandwidths are in normalized mm; stage 2 must be tighter than
    stage 1 and require more supporting points."""

    bandwidth_1: float = 5.0
    bandwidth_2: float = 2.5
    min_points_1: int = 20
    min_points_2: int = 50
    quat_scale: float = 20.0
    max_iters: int = 300
    convergence_tol: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.bandwidth_2 < self.bandwidth_1:
            raise ValueError("need 0 < bandwidth_2 < bandwidth_1")
        if self.min_points_2 < self.min_points_1:
            raise ValueError("min_points_2 must be >= min_points_1")
        # quat_scale 0 is allowed: it is the translation-only ablation
        if self.quat_scale < 0.0:
            raise ValueError("quat_scale must be non-negative")
        if self.max_iters < 1 or self.convergence_tol <= 0.0:
            raise ValueError("bad iteration parameters")


@dataclass
class PerPointPrediction:
    """Network-style per-point output: scene position, predicted instance
    centroid and predicted rotation quaternion (canonical sign)."""

    positions: np.ndarray
    centroids: np.ndarray
    quats: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.centroids = np.asarray(self.centroids, dtype=float).reshape(-1, 3)
        self.quats = np.asarray(self.quats, dtype=float).reshape(-1, 4)
        m = self.positions.shape[0]
        if self.centroids.shape[0] != m or self.quats.shape[0] != m:
            raise ValueError("prediction arrays must have equal length")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.centroids).all()):
            raise ValueError("prediction positions and centroids must be finite")
        norms = np.linalg.norm(self.quats, axis=1)
        if m and not np.abs(norms - 1.0).max() <= 1e-6:
            raise ValueError("prediction quaternions must be finite and unit norm")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass
class MeanShiftResult:
    modes: np.ndarray                  # (C,k)
    labels: np.ndarray                 # (N,) int, -1 = discarded
    members: list[np.ndarray]          # per cluster, sorted point indices
    converged: bool = True             # False: seeds still moving at max_iters


@dataclass
class Stage1Cluster:
    indices: np.ndarray
    centroid: np.ndarray               # mean predicted centroid of members (3,)
    rep_quat: np.ndarray               # member quat nearest the converged mode


@dataclass
class InstancePrediction:
    pose: Pose
    indices: np.ndarray


@dataclass
class ClusterResult:
    stage1: list[Stage1Cluster]
    instances: list[InstancePrediction]
    labels: np.ndarray                 # (M,) final instance id per point, -1 unassigned
    warning: str | None = None
    converged: bool = True             # False: a mean-shift stage hit max_iters


WINDOW_BLOCK = 1 << 20   # (mean, candidate) pairs per distance block


class _Grid:
    """The rows of ``X`` bucketed on a grid over their leading (at most
    three) coordinates, with cells a hair wider than the bandwidth: every
    point within the bandwidth of a mean lies in the 3**d cells around
    the mean's cell, even after rounding in the ``d2`` expansion."""

    def __init__(self, X: np.ndarray, bandwidth: float):
        self.X = X
        self.X_sq = (X * X).sum(axis=1)
        self.bw2 = bandwidth * bandwidth
        lead = X[:, :3]
        # d2 = |m|^2 + |x|^2 - 2 m.x is off by at most 4 (k+3) eps R^2, so a
        # point the window counts lies at most that / 2h past h; cells take
        # four times that margin plus 1e-6 h for the floor division, and at
        # least 2**-20 of the span so the int64 cell keys cannot overflow
        slack = 8.0 * (X.shape[1] + 3) * np.finfo(float).eps * self.X_sq.max()
        self.width = max(bandwidth * (1.0 + 1e-6) + slack / bandwidth,
                         float((lead.max(axis=0) - lead.min(axis=0)).max()) / 2**20)
        cells = np.floor(lead / self.width).astype(np.int64)
        self.lo = cells.min(axis=0) - 2
        shape = cells.max(axis=0) - self.lo + 3
        # key = x + nx (y + ny z): the three x-neighbours of a cell are
        # consecutive keys, so a cell's window spans 3**(d-1) key ranges
        self.strides = np.cumprod(np.concatenate([[1], shape[:-1]]))
        self.bounds = shape - 2
        keys = (cells - self.lo) @ self.strides
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]
        self.offsets = np.zeros(1, dtype=np.int64)
        for stride in self.strides[1:]:
            self.offsets = (self.offsets[:, None] + stride * np.array([-1, 0, 1])).ravel()

    def windows(self, means: np.ndarray):
        """Yield (sel, cand, inside) per block of ``means``: inside[i, j]
        tells whether X[cand[j]] lies in the flat window around
        means[sel[i]]; points outside ``cand`` lie outside it."""
        cells = np.floor(means[:, :3] / self.width).astype(np.int64) - self.lo
        keys = np.clip(cells, 1, self.bounds) @ self.strides
        cell_keys, inverse = np.unique(keys, return_inverse=True)
        by_cell = np.argsort(inverse, kind="stable")
        splits = np.cumsum(np.bincount(inverse))[:-1]
        lows = cell_keys[:, None] + self.offsets[None, :]
        starts = np.searchsorted(self.keys, lows - 1, side="left")
        ends = np.searchsorted(self.keys, lows + 1, side="right")
        for sel, s, e in zip(np.split(by_cell, splits), starts, ends):
            lens = e - s                 # the key ranges, concatenated
            cand = self.order[np.repeat(s - np.cumsum(lens) + lens, lens)
                              + np.arange(lens.sum())]
            Xc, Xc_sq = self.X[cand], self.X_sq[cand]
            step = max(1, WINDOW_BLOCK // max(cand.shape[0], 1))
            for lo in range(0, sel.shape[0], step):
                rows = sel[lo:lo + step]
                M = means[rows]
                d2 = (M * M).sum(axis=1)[:, None] + Xc_sq[None, :] - 2.0 * (M @ Xc.T)
                yield rows, cand, d2 <= self.bw2


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the bitwise-distinct rows of ``a``: the
    index of each one's first occurrence and the map from rows to them."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def mean_shift(features, bandwidth: float, min_points: int = 1,
               max_iters: int = 300, tol: float = 1e-3) -> MeanShiftResult:
    """Flat-kernel mean shift with every point as a seed.

    Each seed moves to the mean of the points within ``bandwidth`` until
    the shift drops below ``tol`` or ``max_iters`` is hit (then
    ``converged`` is False). Converged modes within bandwidth/2 merge;
    the candidate with the most points in its window survives (it is the
    density peak of the basin), with ties broken toward the lowest seed
    index. Points are assigned to their nearest surviving mode and
    clusters with fewer than ``min_points`` members are discarded (their
    points get label -1). Deterministic for a given input order.

    Each pass costs what the distinct trajectories cost, and stays exact:

    - Seeds whose means are bitwise equal while both are still moving
      share one window per pass (the lowest seed index stands for them),
      since equal means get equal updates from then on. A converged seed
      stays frozen and never merges with a moving one. The support pass
      counts once per distinct mean, and the merge walks the distinct
      means in the ``(-support, seed index)`` order of all seeds, which
      keeps the same modes.
    - A window is compared only against the points in the grid cells
      around its mean's cell (``_Grid``). Cells bucket the leading three
      coordinates (the predicted centroid of stage-1 features, all of
      them for fewer) and are wider than the bandwidth plus the rounding
      of ``d2``. A window of radius h in all k coordinates lies inside
      the one of radius h in the leading three, so no point of a window
      is left out.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if n == 0:
        return MeanShiftResult(np.empty((0, X.shape[1] if X.ndim > 1 else 1)),
                               np.empty(0, dtype=int), [])
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    if not np.isfinite(X).all():
        raise ValueError("mean-shift features must be finite")

    grid = _Grid(X, bandwidth)
    means = X.copy()
    active = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        seeds = np.nonzero(active)[0]
        if seeds.shape[0] == 0:
            break
        first, inverse = _distinct_rows(means[seeds])
        lead = means[seeds[first]]
        new = np.empty_like(lead)
        for sel, cand, inside in grid.windows(lead):
            inside = inside.astype(X.dtype)
            counts = inside.sum(axis=1)
            counts[counts == 0] = 1.0   # isolated seed: stays put
            new[sel] = (inside @ X[cand]) / counts[:, None]
        moving = np.linalg.norm(new - lead, axis=1) >= tol
        means[seeds] = new[inverse]
        active[seeds] = moving[inverse]

    # merge converged modes within bandwidth/2; the densest candidate
    # (most points in its window) survives, ties to the lowest seed index
    first, _ = _distinct_rows(means)
    lead = means[first]
    support = np.empty(first.shape[0])
    for sel, _, inside in grid.windows(lead):
        support[sel] = inside.sum(axis=1)
    modes_arr = np.empty_like(lead)
    n_modes = 0
    for m in lead[np.lexsort((first, -support))]:
        if n_modes and np.linalg.norm(modes_arr[:n_modes] - m, axis=1).min() < bandwidth / 2.0:
            continue
        modes_arr[n_modes] = m
        n_modes += 1
    modes_arr = modes_arr[:n_modes]

    # one coordinate at a time, so no (N, C, k) array is built
    d2 = (X[:, None, 0] - modes_arr[None, :, 0]) ** 2
    for j in range(1, X.shape[1]):
        d2 += (X[:, None, j] - modes_arr[None, :, j]) ** 2
    assign = np.argmin(d2, axis=1)

    labels = np.full(n, -1, dtype=int)
    members: list[np.ndarray] = []
    kept_modes = []
    next_label = 0
    for c in range(modes_arr.shape[0]):
        idx = np.nonzero(assign == c)[0]
        if idx.shape[0] >= min_points:
            labels[idx] = next_label
            members.append(idx)
            kept_modes.append(modes_arr[c])
            next_label += 1
    kept = np.stack(kept_modes) if kept_modes else np.empty((0, X.shape[1]))
    return MeanShiftResult(kept, labels, members, converged=not active.any())


def stage1_features(pred: PerPointPrediction, quat_scale: float) -> np.ndarray:
    """Joint 7-D clustering features: [predicted centroid, scale * quat].

    Quaternions are sign-canonicalized first so q and -q cannot split a
    cluster. quat_scale = 0 degenerates to translation-only features.
    """
    return np.concatenate([pred.centroids, quat_scale * quat_normalize_batch(pred.quats)],
                          axis=1)


def pose_vote(merged: list[Stage1Cluster], member_quats: np.ndarray,
              group: SymmetryGroup, mask, model) -> Pose:
    """One pose for a final instance built from its merged stage-1 clusters.

    Translation: member-count-weighted mean of the stage-1 cluster
    centroids. Rotation: the stage-1 representative quaternion with the
    smallest summed symmetry-aware rotation distance to every member
    point's quaternion (a medoid, so blends of symmetric equivalents
    cannot be produced). Ties break toward the first representative.
    """
    counts = np.array([c.indices.shape[0] for c in merged], dtype=float)
    centroids = np.stack([c.centroid for c in merged])
    translation = (centroids * counts[:, None]).sum(axis=0) / counts.sum()

    reps = np.stack([c.rep_quat for c in merged])
    costs = [row.sum() for row in rotation_distances_to_set(reps, member_quats, model,
                                                             group, mask)]
    return Pose(merged[int(np.argmin(costs))].rep_quat, translation)


def two_stage_pipeline(pred: PerPointPrediction, params: ClusterParams,
                       group: SymmetryGroup, mask, model) -> ClusterResult:
    """Instance segmentation + pose estimation via two clustering stages.

    Stage 1: mean shift over the joint features; each cluster records
    its member indices, mean predicted centroid and a representative
    quaternion (the member nearest the converged mode). Stage 2: mean
    shift over the stage-1 mean centroids with the tighter bandwidth;
    the minimum-points rule counts the total underlying member points so
    thin symmetric splits still merge. Pose voting produces one pose per
    surviving stage-2 cluster.
    """
    if len(pred) == 0:
        return ClusterResult([], [], np.empty(0, dtype=int), warning="no input points")
    feats = stage1_features(pred, params.quat_scale)
    ms1 = mean_shift(feats, params.bandwidth_1, params.min_points_1,
                     params.max_iters, params.convergence_tol)
    stage1 = []
    for c, idx in enumerate(ms1.members):
        mode = ms1.modes[c]
        dist_to_mode = np.linalg.norm(feats[idx] - mode, axis=1)
        rep = pred.quats[idx[int(np.argmin(dist_to_mode))]]
        stage1.append(Stage1Cluster(indices=idx,
                                    centroid=pred.centroids[idx].mean(axis=0),
                                    rep_quat=quat_normalize(rep)))
    labels = np.full(len(pred), -1, dtype=int)
    if not stage1:
        return ClusterResult([], [], labels, warning="no stage-1 clusters survived",
                             converged=ms1.converged)

    centroids = np.stack([c.centroid for c in stage1])
    ms2 = mean_shift(centroids, params.bandwidth_2, min_points=1,
                     max_iters=params.max_iters, tol=params.convergence_tol)

    instances = []
    for cluster_ids in ms2.members:
        merged = [stage1[i] for i in cluster_ids]
        total = sum(c.indices.shape[0] for c in merged)
        if total < params.min_points_2:
            continue
        member_idx = np.sort(np.concatenate([c.indices for c in merged]))
        pose = pose_vote(merged, pred.quats[member_idx], group, mask, model)
        labels[member_idx] = len(instances)
        instances.append(InstancePrediction(pose=pose, indices=member_idx))

    warning = None if instances else "no clusters survive the point thresholds"
    return ClusterResult(stage1, instances, labels, warning,
                         converged=ms1.converged and ms2.converged)


def single_stage_pipeline(pred: PerPointPrediction, params: ClusterParams) -> ClusterResult:
    """Ablation path: centroid-only clustering with averaged rotations.

    Mean shift runs on the 3-D predicted centroids alone; each cluster's
    pose is the mean member centroid plus the normalized mean of the
    member quaternions. When a cluster mixes symmetric-equivalent or
    intersecting-instance predictions the average is unlike any member,
    which is exactly the failure the two-stage pipeline avoids.
    """
    if len(pred) == 0:
        return ClusterResult([], [], np.empty(0, dtype=int), warning="no input points")
    ms = mean_shift(pred.centroids, params.bandwidth_1, params.min_points_1,
                    params.max_iters, params.convergence_tol)
    labels = np.full(len(pred), -1, dtype=int)
    stage1 = []
    instances = []
    for c, idx in enumerate(ms.members):
        quats = quat_normalize_batch(pred.quats[idx])
        mean_q = quats.mean(axis=0)
        if np.linalg.norm(mean_q) < 1e-9:
            mean_q = quats[0]
        rep = quat_normalize(mean_q)
        centroid = pred.centroids[idx].mean(axis=0)
        stage1.append(Stage1Cluster(indices=idx, centroid=centroid, rep_quat=rep))
        labels[idx] = len(instances)
        instances.append(InstancePrediction(pose=Pose(rep, centroid), indices=idx))
    warning = None if instances else "no clusters survive the point thresholds"
    return ClusterResult(stage1, instances, labels, warning, converged=ms.converged)


def cluster_predictions(pred: PerPointPrediction, params: ClusterParams,
                        group: SymmetryGroup, mask, model,
                        single_stage: bool = False) -> ClusterResult:
    if single_stage:
        return single_stage_pipeline(pred, params)
    return two_stage_pipeline(pred, params, group, mask, model)
