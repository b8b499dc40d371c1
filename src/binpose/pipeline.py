"""End-to-end orchestration: synth -> oracle -> normalize -> cluster ->
denormalize -> optional ICP -> eval, with all intermediate artifacts on
disk and a deterministic report for a given config + seed."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from .cluster import ClusterResult, PerPointPrediction, cluster_predictions
from .fileio import (Config, save_labels, save_ply, save_poses_json,
                     save_predictions_csv, save_report_json, save_scene_json,
                     write_json)
from .icp import icp_refine
from .metrics import EvalReport, evaluate
from .so3 import Pose
from .synth import Scene, apply_occlusion, generate_scene, oracle_predict
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
    clusters: ClusterResult
    poses: list[Pose]
    report: EvalReport


def synthesize(config: Config, seed: int) -> Scene:
    """Generate and occlude a scene and attach its normalization."""
    with _stage("synth"):
        scene = generate_scene(config.model, config.synth, seed)
        scene = apply_occlusion(scene, config.synth.occlusion_cell,
                                config.synth.occlusion_depth)
    with _stage("normalize"):
        transform = fit_normalization(config.model.points)
        _, scene.normalization = normalize_scene(scene.points, transform)
    return scene


def predict(config: Config, scene: Scene, seed: int) -> PerPointPrediction:
    """Per-point oracle predictions for the scene generated from ``seed``."""
    with _stage("oracle"):
        return oracle_predict(scene, config.model, config.oracle,
                              seed=seed + ORACLE_SEED_OFFSET,
                              bin_extents=config.synth.bin_extents)


def estimate_poses(config: Config, pred: PerPointPrediction, single_stage: bool = False,
                   use_icp: bool = False) -> tuple[ClusterResult, list[Pose]]:
    """Cluster the predictions in normalized space and return the
    clusters with one pose per instance in scene mm, each optionally
    refined by ICP against the points labeled with it."""
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
        poses = [denormalize_pose(inst.pose, transform) for inst in clusters.instances]

    if use_icp:
        with _stage("icp"):
            for label, pose in enumerate(poses):
                pts = pred.positions[clusters.labels == label]
                if pts.shape[0] >= 3:
                    poses[label] = icp_refine(pts, model.points, pose).pose
    return clusters, poses


def run_scene(config: Config, seed: int, single_stage: bool = False,
              use_icp: bool = False) -> SceneRun:
    """Run every stage for one scene; see module docstring for the order."""
    model = config.model
    scene = synthesize(config, seed)
    pred = predict(config, scene, seed)
    clusters, poses = estimate_poses(config, pred, single_stage, use_icp)
    with _stage("eval"):
        report = evaluate(poses, scene.gt_poses(), scene.visible_counts(),
                          model.points, model.group, model.mask, config.eval)
    return SceneRun(scene=scene, prediction=pred, clusters=clusters,
                    poses=poses, report=report)


def write_scene(out_dir: str, scene: Scene) -> None:
    save_ply(os.path.join(out_dir, "scene.ply"), scene.points, scene.labels)
    save_scene_json(os.path.join(out_dir, "scene.json"), scene.gt_poses(),
                    scene.visible_counts(), scene.seed, scene.normalization)


def write_poses(out_dir: str, clusters: ClusterResult, poses: list[Pose]) -> None:
    save_poses_json(os.path.join(out_dir, "poses.json"), poses,
                    [int(inst.indices.shape[0]) for inst in clusters.instances])
    save_labels(os.path.join(out_dir, "labels.txt"), clusters.labels)


def write_scene_artifacts(out_dir: str, run: SceneRun) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_scene(out_dir, run.scene)
    save_predictions_csv(os.path.join(out_dir, "predictions.csv"), run.prediction)
    write_poses(out_dir, run.clusters, run.poses)
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
        "f1_inst": (2.0 * tp / (n_pred + n_gt)) if (n_pred + n_gt) else 0.0,
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
    runs = []
    for i in range(scenes):
        run = run_scene(config, seed + i, single_stage=single_stage, use_icp=use_icp)
        if out_dir is not None:
            scene_dir = out_dir if scenes == 1 else os.path.join(out_dir, f"scene_{i:03d}")
            write_scene_artifacts(scene_dir, run)
        runs.append(run)

    if scenes == 1:
        payload = runs[0].report.to_dict()
        payload["seed"] = seed
    else:
        payload = aggregate_reports([r.report for r in runs])
        payload["seed"] = seed
        payload["per_scene"] = [
            dict(r.report.to_dict(), seed=seed + i) for i, r in enumerate(runs)
        ]
        if out_dir is not None:
            write_json(os.path.join(out_dir, "report.json"),
                       dict(payload, schema_version=1))
    return payload
