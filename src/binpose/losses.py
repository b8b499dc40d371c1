"""Training losses: symmetry-aware rotation loss and center-distance
sensitive translation loss, with analytic gradients and a finite
difference checker.

Both losses act on per-point network-style predictions grouped by
instance. Norms over point sets are means of per-point Euclidean norms,
so values are size independent and comparable across instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .so3 import (SymmetryGroup, kernel_model, quat_multiply_batch, quat_to_matrix,
                  quats_to_matrices, random_quat, symmetric_distances)

TIE_TOL = 1e-6       # gap below which the min over symmetry rotations is ambiguous
DEGENERATE_MM = 1e-9
MAX_RESAMPLES = 50   # consecutive symmetry ties gradcheck_trials resamples before raising
# Central-difference step. The truncation error grows as step^2 where a model
# point lies near its target, at the kink of the norm: a box configuration
# with a point 0.057 mm from its target reads 2.55e-6 relative error at 1e-5
# and 2.6e-8 at 1e-6.
GRADCHECK_STEP = 1e-6


class TieAtMinimumError(RuntimeError):
    """The two best symmetry rotations are indistinguishable; the rotation
    loss is not differentiable here. Resample and retry."""


@dataclass(frozen=True)
class LossWeights:
    w_r: float = 1.0
    w_t: float = 1.0

    def __post_init__(self):
        if self.w_r < 0.0 or self.w_t < 0.0:
            raise ValueError("loss weights must be non-negative")
        if self.w_r == 0.0 and self.w_t == 0.0:
            raise ValueError("loss weights must not both be zero")


@dataclass
class LossInstance:
    """Targets and predictions for one instance.

    rotation_gt: (3,3); centroid_gt: (3,) mm; model: (K,3) object-frame
    cloud; group/mask: the object's symmetry; points: (m,3) scene points
    of the instance (drive the center weights); pred_centroids: (m,3);
    pred_quats: (m,4), re-normalized inside the losses.
    """

    rotation_gt: np.ndarray
    centroid_gt: np.ndarray
    model: np.ndarray
    group: SymmetryGroup
    mask: np.ndarray
    points: np.ndarray
    pred_centroids: np.ndarray
    pred_quats: np.ndarray

    def __post_init__(self):
        self.rotation_gt = np.asarray(self.rotation_gt, dtype=float).reshape(3, 3)
        self.centroid_gt = np.asarray(self.centroid_gt, dtype=float).reshape(3)
        self.model = np.asarray(self.model, dtype=float).reshape(-1, 3)
        self.mask = np.asarray(self.mask, dtype=float).reshape(3)
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.pred_centroids = np.asarray(self.pred_centroids, dtype=float).reshape(-1, 3)
        self.pred_quats = np.asarray(self.pred_quats, dtype=float).reshape(-1, 4)
        m = self.points.shape[0]
        if m == 0:
            raise ValueError("instance has no points")
        if self.pred_centroids.shape[0] != m or self.pred_quats.shape[0] != m:
            raise ValueError("per-point prediction arrays must match the point count")
        if self.model.shape[0] == 0:
            raise ValueError("instance model cloud is empty")


def center_weights(points, centroid) -> np.ndarray:
    """Per-point weights in [0.5, 1.5], increasing with distance from the centroid.

    d_j = ||p_j - centroid||, mapped linearly so the closest point gets
    0.5 and the farthest 1.5. All weights are 1 when the distances are
    equal to within 1e-9 mm.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise ValueError("cannot weight an empty point set")
    d = np.linalg.norm(pts - np.asarray(centroid, dtype=float).reshape(3), axis=1)
    span = d.max() - d.min()
    if span < DEGENERATE_MM:
        return np.ones_like(d)
    return 0.5 + (d - d.min()) / span


def _rotation_values(inst: LossInstance) -> np.ndarray:
    """Mean point-cloud distance for each symmetry rotation, shape (n_s,).

    Entry s is the mean over predicted points j and model points k of
    ||R_gt s m_k - R(q_j) m_k|| with the axis mask applied to m.
    """
    return symmetric_distances(inst.rotation_gt, quats_to_matrices(inst.pred_quats),
                               inst.model, inst.group, inst.mask)[0]


def rotation_loss(instances: Sequence[LossInstance]) -> float:
    """Symmetry-aware rotation loss in mm.

    Per instance, the symmetry rotation minimizing the mean masked model
    point distance between ground truth and predictions is selected (one
    s for all the instance's points); per-point losses are averaged
    within the instance, then across instances. Zero exactly when every
    prediction is a symmetric equivalent of its ground truth.
    """
    if len(instances) == 0:
        raise ValueError("rotation loss needs at least one instance")
    total = 0.0
    for inst in instances:
        total += float(_rotation_values(inst).min())
    return total / len(instances)


def translation_loss(instances: Sequence[LossInstance]) -> float:
    """Center-distance sensitive translation loss in mm.

    Per point: ||T_gt - T_pred_j|| weighted by the point's center
    weight; averaged within each instance and then across instances.
    """
    if len(instances) == 0:
        raise ValueError("translation loss needs at least one instance")
    total = 0.0
    for inst in instances:
        w = center_weights(inst.points, inst.centroid_gt)
        err = np.linalg.norm(inst.centroid_gt - inst.pred_centroids, axis=1)
        total += float((err * w).mean())
    return total / len(instances)


def total_loss(instances: Sequence[LossInstance], weights: LossWeights) -> float:
    """Weighted sum w_r * L_r + w_t * L_t."""
    return weights.w_r * rotation_loss(instances) + weights.w_t * translation_loss(instances)


# ---------------------------------------------------------------------------
# analytic gradients


def translation_loss_grad(instances: Sequence[LossInstance]) -> list[np.ndarray]:
    """Gradient of translation_loss w.r.t. each instance's pred_centroids,
    list of (m,3) arrays. Zero-length errors contribute zero gradient."""
    n = len(instances)
    grads = []
    for inst in instances:
        w = center_weights(inst.points, inst.centroid_gt)
        delta = inst.pred_centroids - inst.centroid_gt           # (m,3)
        norms = np.linalg.norm(delta, axis=1, keepdims=True)
        unit = np.divide(delta, norms, out=np.zeros_like(delta), where=norms > 1e-12)
        m = delta.shape[0]
        grads.append(unit * (w / (n * m))[:, None])
    return grads


def rotation_loss_grad(instances: Sequence[LossInstance]) -> list[np.ndarray]:
    """Gradient of rotation_loss w.r.t. each instance's raw pred_quats,
    list of (m,4) arrays.

    The winning symmetry rotation s is held fixed; raises
    TieAtMinimumError when the two best rotations are within TIE_TOL, as
    the loss is not differentiable there.

    With S = R_gt s and the kernel's distances d_jk = ||(R_j - S) m_k||
    to its K' distinct masked points m_k with counts c_k (all 1 when none
    coincide), dL/dR_j = (R_j - S) W_j / (n m K), W_j = sum_k c_k m_k
    m_k^T / d_jk, K the full model count (zero-length distances pull
    nothing). R(q^ (x) (1, w/2)) ~ R (I + [w]x)
    changes L by v_j . w with v_j = vee(M_j - M_j^T), M_j = R_j^T dL/dR_j,
    and moves q^ by q^ (x) (0, w/2): the gradient is 2 q^ (x) (0, v_j),
    tangent to the unit sphere, so the chain through q^ = q/|q| is 1/|q|.
    """
    n = len(instances)
    grads = []
    for inst in instances:
        q = inst.pred_quats
        q_norm = np.linalg.norm(q, axis=1)[:, None]
        Rp = quats_to_matrices(q)
        vals, dists = symmetric_distances(inst.rotation_gt, Rp, inst.model, inst.group,
                                          inst.mask)              # dists: (m,K), winning s
        order = np.argsort(vals)
        if vals.shape[0] > 1 and vals[order[1]] - vals[order[0]] < TIE_TOL:
            raise TieAtMinimumError(
                f"symmetry-rotation gap {vals[order[1]] - vals[order[0]]:.2e} below {TIE_TOL}")
        S = inst.rotation_gt @ inst.group.matrices[order[0]]
        km = kernel_model(inst.model, inst.mask)
        weights = np.divide(1.0, dists, out=np.zeros_like(dists), where=dists > 1e-12)
        if km.counts is not None:
            weights *= km.counts
        m = dists.shape[0]
        W = (weights @ km.outer).reshape(m, 3, 3)
        # R^T (R - S) W keeps the difference explicit; W - R^T S W loses precision
        M = Rp.transpose(0, 2, 1) @ (Rp - S) @ W / (n * m * km.size)
        v = np.stack([np.zeros(m), M[:, 2, 1] - M[:, 1, 2], M[:, 0, 2] - M[:, 2, 0],
                      M[:, 1, 0] - M[:, 0, 1]], axis=1)
        grads.append(2.0 * quat_multiply_batch(q / q_norm, v) / q_norm)
    return grads


# ---------------------------------------------------------------------------
# finite-difference verification


# loss selector -> (loss, {prediction array: gradient}); the loss does not
# read the arrays left out, so their gradient is exactly zero. Lambdas look
# the functions up at call time, so wrappers installed on this module's
# attributes see every call.
_SELECTORS = {
    "rotation": (lambda ins: rotation_loss(ins),
                 {"pred_quats": lambda ins: rotation_loss_grad(ins)}),
    "translation": (lambda ins: translation_loss(ins),
                    {"pred_centroids": lambda ins: translation_loss_grad(ins)}),
    "total": (lambda ins: total_loss(ins, LossWeights(1.0, 1.0)),
              {"pred_centroids": lambda ins: translation_loss_grad(ins),
               "pred_quats": lambda ins: rotation_loss_grad(ins)}),
}


def _selector(loss: str):
    if loss not in _SELECTORS:
        raise ValueError(f"unknown loss selector {loss!r}")
    return _SELECTORS[loss]


def _central_differences(fn, instances: Sequence[LossInstance], epsilon: float,
                         fields: Sequence[str]) -> np.ndarray:
    """Central-difference gradient of ``fn`` over every component of each
    prediction array named in ``fields``, in that order, instance by
    instance.

    Every selectable loss is a mean over instances, so a component of one
    instance moves ``fn`` by what it moves ``fn([instance]) / n``; only
    that instance is re-evaluated."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {epsilon}")
    out = []
    for inst in instances:
        inst = replace(inst, **{f: getattr(inst, f).copy() for f in fields})
        for f in fields:
            flat = getattr(inst, f).reshape(-1)
            for idx in range(flat.shape[0]):
                orig = flat[idx]
                flat[idx] = orig + epsilon
                hi = fn([inst])
                flat[idx] = orig - epsilon
                lo = fn([inst])
                flat[idx] = orig
                out.append((hi - lo) / (2.0 * epsilon * len(instances)))
    return np.array(out)


def gradcheck(loss: str, instances: Sequence[LossInstance],
              epsilon: float = GRADCHECK_STEP) -> float:
    """Compare analytic and central finite-difference gradients.

    ``loss`` is 'rotation', 'translation' or 'total' (unit weights). The
    parameter vector is every component of the prediction arrays the
    loss reads: predicted centroids, raw quaternions or both (the others'
    gradient is exactly zero). Returns the max-norm relative error
    ||g_a - g_n||_inf / max(||g_a||_inf, ||g_n||_inf, 1e-12).

    Raises TieAtMinimumError when the rotation loss sits at a symmetry
    tie; callers should resample the configuration and retry. Raises
    ValueError when ``epsilon`` is not finite and positive or the error
    is not finite.
    """
    fn, grads = _selector(loss)
    per_field = [grad(instances) for grad in grads.values()]
    analytic = np.concatenate([g.ravel() for per_inst in zip(*per_field) for g in per_inst])
    numeric = _central_differences(fn, instances, epsilon, tuple(grads))
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
    err = float(np.abs(analytic - numeric).max() / scale)
    if not math.isfinite(err):
        raise ValueError(f"{loss} gradient check gave a non-finite error ({err})")
    return err


def random_instances(model, group: SymmetryGroup, mask,
                     rng: np.random.Generator, n_instances: int = 2,
                     n_points: int = 3) -> list[LossInstance]:
    """Random loss configuration away from the ground-truth minimum,
    suitable for finite-difference verification."""
    instances = []
    for _ in range(n_instances):
        R_gt = quat_to_matrix(random_quat(rng))
        t_gt = rng.uniform(-50.0, 50.0, size=3)
        pts = t_gt + rng.uniform(-30.0, 30.0, size=(n_points, 3))
        instances.append(LossInstance(
            rotation_gt=R_gt,
            centroid_gt=t_gt,
            model=model,
            group=group,
            mask=mask,
            points=pts,
            pred_centroids=t_gt + rng.uniform(-8.0, 8.0, size=(n_points, 3)),
            pred_quats=np.stack([random_quat(rng) for _ in range(n_points)]),
        ))
    return instances


def gradcheck_trials(loss: str, model, group: SymmetryGroup, mask,
                     trials: int = 50, epsilon: float = GRADCHECK_STEP,
                     seed: int = 0) -> float:
    """Worst relative gradient error over random configurations.

    Configurations landing on a symmetry tie are resampled (the loss is
    not differentiable there); more than MAX_RESAMPLES consecutive
    ties raises the underlying TieAtMinimumError. Fewer than one trial
    raises ValueError, as does any trial gradcheck rejects.
    """
    if trials < 1:
        raise ValueError(f"need at least one gradient-check trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        for attempt in range(MAX_RESAMPLES):
            instances = random_instances(model, group, mask, rng)
            try:
                worst = max(worst, gradcheck(loss, instances, epsilon))
                break
            except TieAtMinimumError:
                if attempt == MAX_RESAMPLES - 1:
                    raise
    return worst


def numeric_gradient_norm(loss: str, instances: Sequence[LossInstance],
                          epsilon: float = GRADCHECK_STEP) -> float:
    """Max-norm of the central-difference gradient alone (no analytic
    side); useful at non-differentiable stationary points."""
    fn, grads = _selector(loss)
    return float(np.abs(_central_differences(fn, instances, epsilon,
                                              tuple(grads))).max(initial=0.0))
