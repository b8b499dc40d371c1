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

from .so3 import (UNIT_TOL, Pose, SymmetryGroup, quat_normalize,
                  quat_normalize_batch, rotation_distances_to_set)


def require_int(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an int or a
    numpy integer; a float, even an integral one, and a bool are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        for name in ("min_points_1", "min_points_2", "max_iters"):
            require_int(name, getattr(self, name))
        # each check is written so that NaN fails it
        if not 0.0 < self.bandwidth_2 < self.bandwidth_1 < np.inf:
            raise ValueError("need 0 < bandwidth_2 < bandwidth_1")
        if not 1 <= self.min_points_1 < np.inf:
            raise ValueError("min_points_1 must be >= 1")
        if not self.min_points_1 <= self.min_points_2 < np.inf:
            raise ValueError("min_points_2 must be >= min_points_1")
        # quat_scale 0 is allowed: it is the translation-only ablation
        if not 0.0 <= self.quat_scale < np.inf:
            raise ValueError("quat_scale must be non-negative")
        if not (1 <= self.max_iters < np.inf and 0.0 < self.convergence_tol < np.inf):
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
        if m and not np.abs(norms - 1.0).max() <= UNIT_TOL:
            raise ValueError("prediction quaternions must be finite and unit norm")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass
class MeanShiftResult:
    modes: np.ndarray                  # (C,k)
    labels: np.ndarray                 # (N,) int, an index into modes; -1 = discarded
    converged: bool = True             # False: seeds still moving at max_iters

    @property
    def members(self) -> tuple[np.ndarray, ...]:
        """Each cluster's sorted point indices, derived from ``labels``
        on every access."""
        return tuple(np.nonzero(self.labels == c)[0] for c in range(len(self)))

    def __len__(self) -> int:
        """The number of clusters."""
        return self.modes.shape[0]


@dataclass(frozen=True)
class InstancePrediction:
    pose: Pose
    indices: np.ndarray


@dataclass
class ClusterResult:
    stage1: MeanShiftResult            # stage-1 clusters (single-stage: the only ones)
    poses: list[Pose]                  # one per instance
    labels: np.ndarray                 # (M,) index into poses per point, -1 unassigned
    warning: str | None = None
    converged: bool = True             # False: a mean-shift stage hit max_iters

    @property
    def instances(self) -> tuple[InstancePrediction, ...]:
        """Each instance's pose with the indices of the points labeled
        with it, derived from ``labels`` on every access."""
        return tuple(InstancePrediction(pose, np.nonzero(self.labels == i)[0])
                     for i, pose in enumerate(self.poses))


WINDOW_BLOCK = 1 << 15   # (mean, candidate) pairs per block: 256 KB of d2


class _Grid:
    """The rows of ``X`` bucketed on a grid over their leading (at most
    three) coordinates, with cells a hair wider than the bandwidth: every
    point within the bandwidth of a mean lies in the 3**d cells around
    the mean's cell, even after rounding in the ``d2`` product.

    Each point is stored once as its augmented row ``[x, 1, |x|^2]``. A
    mean's row ``[-2m, |m|^2, 1]`` (``augment``) dotted with it is
    ``|m|^2 + |x|^2 - 2 m.x``, so a block's ``d2`` is one product, and
    the leading ``k + 1`` columns of the gathered rows give a window's
    sums and count in a second one."""

    def __init__(self, X: np.ndarray, bandwidth: float):
        X_sq = (X * X).sum(axis=1)
        self.rows = np.concatenate([X, np.ones((X.shape[0], 1)), X_sq[:, None]], axis=1)
        self.bw2 = bandwidth * bandwidth
        lead = X[:, :3]
        # d2 sums k + 2 terms of total magnitude at most 4 R^2 (|m|, |x| <= R),
        # so it is off by at most 4 (k+2) eps R^2 plus the rounding of |m|^2
        # and |x|^2, k eps R^2 each: under 6 (k+2) eps R^2. A point the window
        # counts lies at most that / 2h past h; cells take four times that
        # margin plus 1e-6 h for the floor division, and at least 2**-20 of
        # the span so the int64 cell keys cannot overflow
        slack = 12.0 * (X.shape[1] + 2) * np.finfo(float).eps * X_sq.max()
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

    @staticmethod
    def augment(means: np.ndarray) -> np.ndarray:
        """The rows ``[-2m, |m|^2, 1]`` of ``means``."""
        ones = np.ones((means.shape[0], 1))
        return np.concatenate([-2.0 * means, (means * means).sum(axis=1)[:, None], ones],
                              axis=1)

    def windows(self, means: np.ndarray):
        """Yield (sel, cand, inside) per block of ``means``: cand holds the
        augmented rows of the candidate points, and inside[i, j] is 1.0 if
        cand[j] lies in the flat window around means[sel[i]], else 0.0;
        points outside ``cand`` lie outside it. A block holds at most
        ``WINDOW_BLOCK`` pairs unless it is a single mean."""
        cells = np.floor(means[:, :3] / self.width).astype(np.int64) - self.lo
        keys = np.clip(cells, 1, self.bounds) @ self.strides
        by_cell = np.argsort(keys, kind="stable")
        keys = keys[by_cell]
        cuts = np.flatnonzero(np.diff(keys)) + 1
        heads = np.concatenate([[0], cuts])
        lows = keys[heads, None] + self.offsets[None, :]
        starts = np.searchsorted(self.keys, lows - 1, side="left").ravel()
        lens = np.searchsorted(self.keys, lows + 1, side="right").ravel() - starts
        # every cell's key ranges, concatenated; cell c's run ends at edges[c + 1]
        ends = np.cumsum(lens)
        points = self.order[np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())]
        edges = np.append(0, ends.reshape(heads.shape[0], -1)[:, -1])
        aug = self.augment(means[by_cell])
        for lo, hi, c0, c1 in zip(heads, np.append(cuts, keys.shape[0]), edges[:-1], edges[1:]):
            cand = self.rows[points[c0:c1]]
            step = max(1, WINDOW_BLOCK // max(c1 - c0, 1))
            for i in range(lo, hi, step):
                j = min(i + step, hi)
                d2 = aug[i:j] @ cand.T
                yield by_cell[i:j], cand, np.less_equal(d2, self.bw2, out=d2)


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the bitwise-distinct rows of ``a``: the
    index of each one's first occurrence and the map from rows to them."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def _drop_small(labels: np.ndarray, n_labels: int,
                min_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(kept, relabeled): which of the ids 0..n_labels-1 label at least
    ``min_points`` points, and ``labels`` renumbered in order over the
    kept ids, with -1 for the rest (a -1 label stays -1)."""
    kept = np.bincount(labels[labels >= 0], minlength=n_labels) >= min_points
    return kept, np.append(np.where(kept, np.cumsum(kept) - 1, -1), -1)[labels]


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
    - A block of windows tests at most ``WINDOW_BLOCK`` (mean, candidate)
      pairs, and the nearest-mode scan runs in row blocks of as many
      (point, mode) pairs, one coordinate at a time in the dense scan's
      order, so its ``argmin``, ties included, is the dense one's.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    if min_points < 1:
        raise ValueError("min_points must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n = X.shape[0]
    if n == 0:
        return MeanShiftResult(np.empty((0, X.shape[1])), np.empty(0, dtype=int))
    if not np.isfinite(X).all():
        raise ValueError("mean-shift features must be finite")

    grid = _Grid(X, bandwidth)
    k = X.shape[1]
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
            sums = inside @ cand[:, :k + 1]   # window sums, then counts
            counts = sums[:, k:]
            if np.count_nonzero(counts) == counts.shape[0]:
                new[sel] = sums[:, :k] / counts
            else:   # d2 rounded a seed's own point out of its window, now empty: it stays put
                new[sel] = np.divide(sums[:, :k], counts, out=lead[sel], where=counts > 0.0)
        moving = np.linalg.norm(new - lead, axis=1) >= tol
        means[seeds] = new[inverse]
        active[seeds] = moving[inverse]

    # merge converged modes within bandwidth/2; the densest candidate
    # (most points in its window) survives, ties to the lowest seed index
    first, _ = _distinct_rows(means)
    lead = means[first]
    support = np.empty(first.shape[0], dtype=np.intp)
    for sel, _, inside in grid.windows(lead):
        support[sel] = np.count_nonzero(inside, axis=1)
    modes_arr = np.empty_like(lead)
    n_modes = 0
    for m in lead[np.lexsort((first, -support))]:
        if n_modes and np.linalg.norm(modes_arr[:n_modes] - m, axis=1).min() < bandwidth / 2.0:
            continue
        modes_arr[n_modes] = m
        n_modes += 1
    modes_arr = modes_arr[:n_modes]

    # nearest mode per point, in row blocks, so no (N, C) array is built
    nearest = np.empty(n, dtype=np.intp)
    step = max(1, WINDOW_BLOCK // n_modes)
    modes_t = modes_arr.T.copy()
    for lo in range(0, n, step):
        x = X[lo:lo + step]
        d2 = np.square(x[:, 0, None] - modes_t[0])
        sq = np.empty_like(d2)
        for j in range(1, k):
            d2 += np.square(np.subtract(x[:, j, None], modes_t[j], out=sq), out=sq)
        nearest[lo:lo + step] = np.argmin(d2, axis=1)
    kept, labels = _drop_small(nearest, n_modes, min_points)
    return MeanShiftResult(modes_arr[kept], labels, converged=not active.any())


def stage1_features(pred: PerPointPrediction, quat_scale: float) -> np.ndarray:
    """Joint 7-D clustering features: [predicted centroid, scale * quat].

    Quaternions are sign-canonicalized first so q and -q cannot split a
    cluster. quat_scale = 0 degenerates to translation-only features.
    """
    return np.concatenate([pred.centroids, quat_scale * quat_normalize_batch(pred.quats)],
                          axis=1)


def pose_vote(counts: np.ndarray, centroids: np.ndarray, reps: np.ndarray,
              member_quats: np.ndarray, group: SymmetryGroup, mask, model) -> Pose:
    """One pose for a final instance built from its merged stage-1 clusters,
    given as their member counts (n,), mean predicted centroids (n,3) and
    representative quaternions (n,4).

    Translation: member-count-weighted mean of the stage-1 cluster
    centroids. Rotation: the stage-1 representative quaternion with the
    smallest summed symmetry-aware rotation distance to every member
    point's quaternion (a medoid, so blends of symmetric equivalents
    cannot be produced). Ties break toward the first representative.

    One ``rotation_distances_to_set`` call gives the rows; the rows that
    are not computed are +inf and cannot win or tie (see there). The call
    looks up this module's name, which ``perfbench/tracing.py`` wraps to
    time it. A lone candidate wins without a row.
    """
    translation = (centroids * counts[:, None]).sum(axis=0) / counts.sum()
    if len(reps) == 1:
        return Pose(reps[0], translation)
    rows = rotation_distances_to_set(reps, member_quats, model, group, mask)
    return Pose(reps[int(np.argmin(rows.sum(axis=1)))], translation)


def two_stage_pipeline(pred: PerPointPrediction, params: ClusterParams,
                       group: SymmetryGroup, mask, model) -> ClusterResult:
    """Instance segmentation + pose estimation via two clustering stages.

    Stage 1: mean shift over the joint features; each cluster gives
    its member count, mean predicted centroid and a representative
    quaternion (the member nearest the converged mode). Stage 2: mean
    shift over the stage-1 mean centroids with the tighter bandwidth;
    a point's instance is the stage-2 cluster of its stage-1 cluster, and
    the minimum-points rule counts the total underlying member points so
    thin symmetric splits still merge. Pose voting produces one pose per
    surviving stage-2 cluster.
    """
    feats = stage1_features(pred, params.quat_scale)
    ms1 = mean_shift(feats, params.bandwidth_1, params.min_points_1,
                     params.max_iters, params.convergence_tol)
    if not len(ms1):
        return ClusterResult(ms1, [], ms1.labels, warning="no stage-1 clusters survived",
                             converged=ms1.converged)
    # the points of each cluster in index order, cluster after cluster; the
    # discarded ones (-1) sort first, and every cluster has a point
    order = np.argsort(ms1.labels, kind="stable")
    in_cluster = ms1.labels[order]
    first = np.searchsorted(in_cluster, 0)
    order, in_cluster = order[first:], in_cluster[first:]
    counts = np.bincount(in_cluster, minlength=len(ms1))
    ends = np.cumsum(counts)
    starts = ends - counts
    sorted_centroids = pred.centroids[order]
    centroids = np.stack([sorted_centroids[a:b].mean(axis=0) for a, b in zip(starts, ends)])
    # the representative is the member nearest the mode, ties to the first
    dist = np.linalg.norm(feats[order] - ms1.modes[in_cluster], axis=1)
    nearest = np.flatnonzero(dist == np.repeat(np.minimum.reduceat(dist, starts), counts))
    reps = quat_normalize_batch(pred.quats[order[nearest[np.searchsorted(nearest, starts)]]])

    ms2 = mean_shift(centroids, params.bandwidth_2, min_points=1,
                     max_iters=params.max_iters, tol=params.convergence_tol)
    # ms2 labels every stage-1 cluster; a point discarded in stage 1 stays -1
    kept, labels = _drop_small(np.append(ms2.labels, -1)[ms1.labels], len(ms2),
                               params.min_points_2)
    merged = [ids for ids, keep in zip(ms2.members, kept) if keep]
    poses = [pose_vote(counts[ids], centroids[ids], reps[ids], pred.quats[labels == k],
                       group, mask, model) for k, ids in enumerate(merged)]

    warning = None if poses else "no clusters survive the point thresholds"
    return ClusterResult(ms1, poses, labels, warning,
                         converged=ms1.converged and ms2.converged)


def single_stage_pipeline(pred: PerPointPrediction, params: ClusterParams) -> ClusterResult:
    """Ablation path: centroid-only clustering with averaged rotations.

    Mean shift runs on the 3-D predicted centroids alone; each cluster's
    pose is the mean member centroid plus the normalized mean of the
    member quaternions. When a cluster mixes symmetric-equivalent or
    intersecting-instance predictions the average is unlike any member,
    which is exactly the failure the two-stage pipeline avoids.
    """
    ms = mean_shift(pred.centroids, params.bandwidth_1, params.min_points_1,
                    params.max_iters, params.convergence_tol)
    poses = []
    for idx in ms.members:
        quats = quat_normalize_batch(pred.quats[idx])
        mean_q = quats.mean(axis=0)
        if np.linalg.norm(mean_q) < 1e-9:
            mean_q = quats[0]
        poses.append(Pose(quat_normalize(mean_q), pred.centroids[idx].mean(axis=0)))
    warning = None if poses else "no clusters survive the point thresholds"
    return ClusterResult(ms, poses, ms.labels, warning, converged=ms.converged)


def cluster_predictions(pred: PerPointPrediction, params: ClusterParams,
                        group: SymmetryGroup, mask, model,
                        single_stage: bool = False) -> ClusterResult:
    if single_stage:
        return single_stage_pipeline(pred, params)
    return two_stage_pipeline(pred, params, group, mask, model)
