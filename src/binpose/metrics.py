"""Symmetry-aware evaluation: instance-level F1 and point-wise recall.

Ground-truth instances are filtered by relative visibility first, so
heavily buried objects (which a picking system should not target) do
not drag the scores. Predictions are matched one-to-one to visible
ground truths greedily by ascending symmetry-aware mean distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .so3 import DIST_BLOCK, Pose, SymmetryGroup, kernel_model, symmetric_distances
# Unused here; bound because perfbench/tracing.py wraps this name on binpose.metrics.
from .so3 import symmetric_pose_distance  # noqa: F401


@dataclass(frozen=True)
class EvalConfig:
    tolerance_mm: float = 5.0          # per-instance / per-point distance threshold
    visibility_threshold: float = 0.4  # fraction of the best-visible instance

    def __post_init__(self):
        if not 0.0 < self.tolerance_mm < np.inf:
            raise ValueError("tolerance must be positive")
        if not 0.0 < self.visibility_threshold < 1.0:
            raise ValueError("visibility threshold must be in (0, 1)")


@dataclass
class MatchRow:
    pred_index: int
    gt_index: int
    mean_distance: float
    is_tp: bool
    matched_points: int   # model points within tolerance under this pair, not reported


@dataclass
class EvalReport:
    n_gt: int
    n_pred: int
    tp: int
    f1_inst: float
    recall: float
    matched_points: int
    total_points: int
    matches: list[MatchRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_gt": self.n_gt,
            "n_pred": self.n_pred,
            "tp": self.tp,
            "f1_inst": self.f1_inst,
            "recall": self.recall,
            "matched_points": self.matched_points,
            "total_points": self.total_points,
            "per_instance": [
                {"pred": m.pred_index, "gt": m.gt_index,
                 "mean_distance": m.mean_distance, "tp": m.is_tp}
                for m in self.matches
            ],
        }


def count_visible_gt(visible_counts, threshold: float) -> tuple[int, list[int]]:
    """Instances whose visible-point count clears the relative threshold.

    Instance i counts when n_i / max_k n_k > threshold. Returns the
    count and the qualifying indices; empty input gives (0, []).
    """
    counts = np.asarray(visible_counts, dtype=float)
    if counts.size == 0:
        return 0, []
    top = counts.max()
    if top <= 0.0:
        return 0, []
    keep = [i for i, c in enumerate(counts) if c / top > threshold]
    return len(keep), keep


def match_predictions(pred_poses: list[Pose], gt_poses: list[Pose], model,
                      group: SymmetryGroup, mask, tolerance_mm: float
                      ) -> tuple[list[MatchRow], int]:
    """Greedy one-to-one matching by ascending symmetry-aware mean distance.

    Every possible pair is ranked; pairs claim a prediction and a ground
    truth at most once. A matched pair is a true positive when its mean
    distance is below the tolerance. Ties in distance break toward lower
    (pred, gt) indices, keeping the result order independent. Each row
    counts the model points its pair places within the tolerance.

    symmetric_distances scores the pairs in pred-major order, a block of
    at most max(1, DIST_BLOCK // K') at a time, each pair a one-row stack
    with its own translation difference, so each pair has the bits of its
    own symmetric_pose_distance. Only each pair's mean and recalled-point
    count outlive its block.
    """
    rows: list[MatchRow] = []
    if not pred_poses or not gt_poses:
        return rows, 0
    n_p, n_g = len(pred_poses), len(gt_poses)
    gt_r = np.stack([g.rotation for g in gt_poses])
    pred_r = np.stack([p.rotation for p in pred_poses])
    gt_t = np.stack([g.t for g in gt_poses])
    pred_t = np.stack([p.t for p in pred_poses])
    km = kernel_model(model, mask)
    step = max(1, DIST_BLOCK // km.points.shape[0])
    pred_of, gt_of = np.divmod(np.arange(n_p * n_g), n_g)
    dist, recalled = np.empty(n_p * n_g), np.empty(n_p * n_g)
    for lo in range(0, n_p * n_g, step):
        i, j = pred_of[lo:lo + step], gt_of[lo:lo + step]
        means, per_point = symmetric_distances(gt_r[j], pred_r[i, None], model, group, mask,
                                               (gt_t[j] - pred_t[i])[:, None])
        dist[lo:lo + step] = means.min(axis=-1)
        within = per_point[:, 0] < tolerance_mm                  # (n, K')
        del per_point    # so that the next block's buffers can take its memory
        recalled[lo:lo + step] = within.sum(axis=-1) if km.counts is None else within @ km.counts
    dist, recalled = dist.reshape(n_p, n_g), recalled.reshape(n_p, n_g)
    order = sorted(((dist[i, j], i, j) for i in range(n_p) for j in range(n_g)))
    used_p = set()
    used_g = set()
    for d, i, j in order:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        rows.append(MatchRow(pred_index=i, gt_index=j, mean_distance=float(d),
                             is_tp=bool(d < tolerance_mm),
                             matched_points=int(recalled[i, j])))
        if len(used_p) == n_p or len(used_g) == n_g:
            break
    tp = sum(1 for r in rows if r.is_tp)
    return rows, tp


def f1_inst(tp: int, n_pred: int, n_gt: int) -> float:
    """Instance-level F1 = 2 TP / (N_pred + N_gt); zero on an empty scene."""
    denom = n_pred + n_gt
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def pointwise_recall(matches: list[MatchRow], n_gt: int,
                     n_model_points: int) -> tuple[float, int, int]:
    """Fraction of visible ground-truth model points placed within tolerance.

    Each of the ``n_gt`` visible ground truths contributes its full model
    point count to the denominator; matched ones contribute the points
    match_predictions counted within tolerance under the matched
    prediction, unmatched ones contribute zero.
    """
    total = n_model_points * n_gt
    if total == 0:
        return 0.0, 0, 0
    matched = sum(m.matched_points for m in matches)
    return matched / total, matched, total


def evaluate(pred_poses: list[Pose], gt_poses: list[Pose], visible_counts,
             model, group: SymmetryGroup, mask, config: EvalConfig) -> EvalReport:
    """Full scene evaluation: visibility filter, matching, F1 and recall.
    ``visible_counts`` holds one finite, non-negative count per
    ground-truth pose."""
    if len(visible_counts) != len(gt_poses):
        raise ValueError(f"{len(visible_counts)} visible counts for {len(gt_poses)} "
                         "ground-truth poses")
    counts = np.asarray(visible_counts, dtype=float)
    for i in np.flatnonzero(~(np.isfinite(counts) & (counts >= 0.0))):
        raise ValueError(f"visible_counts[{i}] must be finite and >= 0, "
                         f"got {visible_counts[i]!r}")
    n_gt, keep = count_visible_gt(visible_counts, config.visibility_threshold)
    visible = [gt_poses[i] for i in keep]
    matches, tp = match_predictions(pred_poses, visible, model, group, mask,
                                    config.tolerance_mm)
    recall, matched_pts, total_pts = pointwise_recall(
        matches, n_gt, np.asarray(model).reshape(-1, 3).shape[0])
    # report gt indices in the original scene numbering
    for m in matches:
        m.gt_index = keep[m.gt_index]
    return EvalReport(
        n_gt=n_gt,
        n_pred=len(pred_poses),
        tp=tp,
        f1_inst=f1_inst(tp, len(pred_poses), n_gt),
        recall=recall,
        matched_points=matched_pts,
        total_points=total_pts,
        matches=matches,
    )
