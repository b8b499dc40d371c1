"""End-to-end orchestration: synth -> oracle -> normalize -> cluster ->
denormalize -> optional ICP -> eval, with all intermediate artifacts on
disk and a deterministic report for a given config + seed."""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .cluster import ClusterResult, PerPointPrediction, cluster_predictions
from .fileio import (SCHEMA_VERSION, Config, format_points, load_ply, load_scene_json,
                     save_labels, save_ply, save_poses_json, save_predictions_csv,
                     save_report_json, save_scene_json, write_json)
from .icp import icp_refine
from .metrics import EvalReport, evaluate, f1_inst
from .so3 import Pose
from .synth import Scene, StageWarning, apply_occlusion, generate_scene, oracle_predict
from .workspace import denormalize_pose, fit_normalization, normalize_scene

ORACLE_SEED_OFFSET = 500009  # decorrelates oracle noise from scene layout


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError tagged ``name``."""
    try:
        yield
    except Exception as e:
        raise StageError(name, e) from e


@dataclass
class SceneRun:
    scene: Scene
    prediction: PerPointPrediction
    clusters: ClusterResult            # poses in scene mm, after ICP when it ran
    report: EvalReport

    @property
    def poses(self) -> list[Pose]:
        return self.clusters.poses


def synthesize(config: Config, seed: int) -> Scene:
    """Generate and occlude a scene."""
    with _stage("synth"):
        scene = generate_scene(config.model, config.synth, seed)
        return apply_occlusion(scene, config.synth.occlusion_cell,
                               config.synth.occlusion_depth)


def predict(config: Config, scene: Scene, seed: int) -> PerPointPrediction:
    """Per-point oracle predictions for the scene generated from ``seed``."""
    with _stage("oracle"):
        return oracle_predict(scene, config.model, config.oracle,
                              seed=seed + ORACLE_SEED_OFFSET,
                              bin_extents=config.synth.bin_extents)


def estimate_poses(config: Config, pred: PerPointPrediction, single_stage: bool = False,
                   use_icp: bool = False) -> ClusterResult:
    """Cluster the predictions in normalized space and return the
    clusters with their one pose per instance in scene mm, each
    optionally refined by ICP against the points labeled with it."""
    model = config.model
    with _stage("normalize"):
        transform = fit_normalization(model.points)
        norm_positions, transform = normalize_scene(pred.positions, transform)
        pred_norm = PerPointPrediction(
            positions=norm_positions,
            centroids=transform.forward_points(pred.centroids),
            quats=pred.quats,
        )

    with _stage("cluster"):
        clusters = cluster_predictions(pred_norm, config.cluster, model.group,
                                       model.mask, model.points,
                                       single_stage=single_stage)
        poses = [denormalize_pose(pose, transform) for pose in clusters.poses]
    if clusters.warning:
        warnings.warn(clusters.warning, StageWarning, stacklevel=2)
    if not clusters.converged:
        warnings.warn(f"mean shift stopped at max_iters={config.cluster.max_iters} "
                      "before converging", StageWarning, stacklevel=2)

    if use_icp:
        with _stage("icp"):
            for label, pose in enumerate(poses):
                pts = pred.positions[clusters.labels == label]
                if pts.shape[0] >= 3:
                    refined = icp_refine(pts, model.points, pose)
                    poses[label] = refined.pose
                    if refined.failed:
                        warnings.warn(f"ICP failed on instance {label} (degenerate "
                                      "correspondences); kept its voted pose",
                                      StageWarning, stacklevel=2)
                    elif not refined.converged:
                        warnings.warn(f"ICP stopped at max_iters on instance {label} "
                                      "before converging; kept its last pose",
                                      StageWarning, stacklevel=2)
    return replace(clusters, poses=poses)


def run_scene(config: Config, seed: int, single_stage: bool = False,
              use_icp: bool = False) -> SceneRun:
    """Run every stage for one scene; see module docstring for the order."""
    model = config.model
    scene = synthesize(config, seed)
    pred = predict(config, scene, seed)
    clusters = estimate_poses(config, pred, single_stage, use_icp)
    with _stage("eval"):
        report = evaluate(clusters.poses, scene.gt_poses(), scene.visible_counts(),
                          model.points, model.group, model.mask, config.eval)
    return SceneRun(scene=scene, prediction=pred, clusters=clusters, report=report)


def write_scene(out_dir: str, scene: Scene, xyz=None) -> None:
    """Write scene.ply and scene.json; ``xyz`` is ``format_points`` of
    the scene's points, if the caller has it."""
    save_ply(os.path.join(out_dir, "scene.ply"), scene.points, scene.labels, xyz)
    save_scene_json(os.path.join(out_dir, "scene.json"), scene.gt_poses(),
                    scene.visible_counts(), scene.seed)


def read_scene(out_dir: str) -> Scene:
    """The scene write_scene stored in ``out_dir``; an instance with no
    visible point keeps its pose."""
    points, labels = load_ply(os.path.join(out_dir, "scene.ply"))
    if labels is None:
        raise ValueError("scene.ply has no instance_id column")
    sidecar = load_scene_json(os.path.join(out_dir, "scene.json"))
    return Scene(points=points, labels=labels, poses=sidecar["poses"], seed=sidecar["seed"])


def write_poses(out_dir: str, result: ClusterResult) -> None:
    counts = np.bincount(result.labels[result.labels >= 0], minlength=len(result.poses))
    save_poses_json(os.path.join(out_dir, "poses.json"), result.poses, counts.tolist())
    save_labels(os.path.join(out_dir, "labels.txt"), result.labels)


def write_scene_artifacts(out_dir: str, run: SceneRun) -> None:
    """Write every artifact of a scene. The cloud's floats are formatted
    once, for scene.ply and for the positions of predictions.csv, which
    ``predict`` copies from it bit for bit (checked here)."""
    os.makedirs(out_dir, exist_ok=True)
    points = np.asarray(run.scene.points, dtype=float).reshape(-1, 3)
    positions = run.prediction.positions
    xyz = format_points(points)
    write_scene(out_dir, run.scene, xyz)
    same = points.shape == positions.shape and np.array_equal(points.view(np.uint64),
                                                              positions.view(np.uint64))
    save_predictions_csv(os.path.join(out_dir, "predictions.csv"), run.prediction,
                         xyz if same else None)
    write_poses(out_dir, run.clusters)
    save_report_json(os.path.join(out_dir, "report.json"), run.report,
                     extra={"seed": run.scene.seed})


def aggregate_reports(reports: list[EvalReport]) -> dict:
    """Pooled-count aggregation across scenes (micro average)."""
    n_gt = sum(r.n_gt for r in reports)
    n_pred = sum(r.n_pred for r in reports)
    tp = sum(r.tp for r in reports)
    matched = sum(r.matched_points for r in reports)
    total = sum(r.total_points for r in reports)
    return {
        "scenes": len(reports),
        "n_gt": n_gt,
        "n_pred": n_pred,
        "tp": tp,
        "f1_inst": f1_inst(tp, n_pred, n_gt),
        "recall": (matched / total) if total else 0.0,
        "matched_points": matched,
        "total_points": total,
    }


def run_pipeline(config: Config, seed: int, out_dir: str | None = None,
                 scenes: int = 1, single_stage: bool = False,
                 use_icp: bool = False) -> dict:
    """Run one or more scenes and return the aggregate report payload.

    Scene i uses seed + i, so fixed (config, seed) is bit-reproducible
    across runs regardless of scene count. Artifacts land in out_dir
    (per-scene subdirectories when scenes > 1).
    """
    if scenes < 1:
        raise ValueError("need at least one scene")
    reports = []
    for i in range(scenes):
        with warnings.catch_warnings(record=True) as caught:
            run = run_scene(config, seed + i, single_stage=single_stage, use_icp=use_icp)
        for w in caught:   # with several scenes, each warning names its scene
            prefix = "" if scenes == 1 else f"scene_{i:03d} (seed {seed + i}): "
            warnings.warn(f"{prefix}{w.message}", w.category, stacklevel=2)
        if out_dir is not None:
            scene_dir = out_dir if scenes == 1 else os.path.join(out_dir, f"scene_{i:03d}")
            write_scene_artifacts(scene_dir, run)
        reports.append(run.report)
        del run   # only the report outlives its scene's points, predictions and clusters

    if scenes == 1:
        return dict(reports[0].to_dict(), seed=seed)
    payload = dict(aggregate_reports(reports), seed=seed,
                   per_scene=[dict(r.to_dict(), seed=seed + i) for i, r in enumerate(reports)])
    if out_dir is not None:
        write_json(os.path.join(out_dir, "report.json"),
                   dict(payload, schema_version=SCHEMA_VERSION))
    return payload
