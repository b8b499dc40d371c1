"""The benchmark's workloads.

Each workload drives binpose only through its public entry points and
always looks them up on the module at call time (``pipeline.run_scene``,
not a name bound at import), so the traced run's wrappers see every
call. ``scene(seed, tracer)`` runs one scene's worth of work, times only
the calls into binpose, then checks the outputs. A failed check is
returned as a problem; it fails the scene, like an exception does.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace

from tracing import ROOT, NullTracer

INSTANCE_COUNTS = (3, 4, 5)
QUAT_TOL = 1e-9
GRADCHECK_MAX_REL_ERR = 1e-6

BOX = {"kind": "box", "extents": [40, 120, 160]}
BOX_SYMMETRY = {"dz_deg": 180}
CUBE = {"kind": "box", "extents": [80, 80, 80]}
CUBE_SYMMETRY = {"dx_deg": 90, "dy_deg": 90, "dz_deg": 90}
CYLINDER = {"kind": "cylinder", "radius": 30, "height": 120}
CYLINDER_SYMMETRY = {"dz_deg": 1}          # below ts_deg: continuous about z
CLEAN = {"sigma_t_mm": 1.0, "sigma_r_deg": 2.0, "symmetric_ambiguity": True,
         "outlier_fraction": 0.0}
NOISY = {"sigma_t_mm": 4.0, "sigma_r_deg": 8.0, "symmetric_ambiguity": True,
         "outlier_fraction": 0.1}


def config(shape: dict, pitch: float, symmetry: dict, oracle: dict,
           min_points_1: int = 20) -> dict:
    """The README config with another object, oracle or stage-1 support."""
    return {
        "object": {"builtin": dict(shape, pitch=pitch), "symmetry": symmetry},
        "cluster": {"bandwidth_1": 5.0, "bandwidth_2": 2.5, "min_points_1": min_points_1,
                    "min_points_2": 50, "quat_scale": 20.0},
        "eval": {"tolerance_mm": 5.0, "visibility_threshold": 0.4},
        "synth": {"instance_range": [3, 5], "bin_extents": [700, 700, 500],
                  "occlusion_cell": 5.0, "occlusion_depth": 10.0},
        "oracle": oracle,
    }


def write_config(work_dir: str, key: str, raw: dict) -> str:
    path = os.path.join(work_dir, f"{key}.json")
    with open(path, "w") as f:
        json.dump(raw, f)
    return path


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class SceneOutcome:
    seconds: float                        # time spent in binpose calls
    report: object | None = None          # EvalReport, pipeline workloads
    digests: dict | None = None           # sha256 of poses.json and labels.txt
    problems: list[str] = field(default_factory=list)
    step_s: float = 0.0                   # train_losses: training step time
    gradcheck_s: float = 0.0              # train_losses: gradcheck time
    gradcheck_trials: int = 0
    gradcheck_err: float = 0.0


class Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


# ---------------------------------------------------------------------------
# output checks


def check_report(report) -> list[str]:
    return [f"{name} = {v} outside [0, 1]"
            for name, v in (("f1_inst", report.f1_inst), ("recall", report.recall))
            if not 0.0 <= v <= 1.0]


def check_labels(labels, visible: int, n_poses: int) -> list[str]:
    """Labeled plus discarded points equal the visible points."""
    labeled = sum(1 for v in labels if 0 <= v < n_poses)
    discarded = sum(1 for v in labels if v == -1)
    if labeled + discarded != visible or len(labels) != visible:
        return [f"{labeled} labeled + {discarded} discarded != {visible} visible points"]
    return []


def check_quats(quats) -> list[str]:
    return [f"pose {i} quaternion norm {n!r} is not 1"
            for i, n in enumerate(math.sqrt(sum(c * c for c in q)) for q in quats)
            if abs(n - 1.0) > QUAT_TOL]


def check_artifacts(out_dir: str, report) -> tuple[list[str], dict]:
    """Checks on the poses.json, labels.txt and scene.ply a scene wrote."""
    with open(os.path.join(out_dir, "poses.json")) as f:
        poses = json.load(f)["poses"]
    with open(os.path.join(out_dir, "labels.txt")) as f:
        labels = [int(v) for v in f.read().split()]
    with open(os.path.join(out_dir, "scene.ply")) as f:
        visible = next(int(line.split()[2]) for line in f
                       if line.startswith("element vertex"))
    problems = (check_labels(labels, visible, len(poses)) + check_report(report)
                + check_quats([(p["qw"], p["qx"], p["qy"], p["qz"]) for p in poses]))
    digests = {name: sha256(os.path.join(out_dir, name))
               for name in ("poses.json", "labels.txt")}
    return problems, digests


def report_from_dict(d: dict):
    from binpose.metrics import EvalReport
    return EvalReport(**{k: d[k] for k in ("n_gt", "n_pred", "tp", "f1_inst", "recall",
                                            "matched_points", "total_points")})


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    sizes: dict = {}          # object point pitch, full and quick

    def objects(self, pitch: float) -> dict[str, dict]:
        """Raw config per object the workload uses."""
        raise NotImplementedError

    def setup(self, work_dir: str, quick: bool) -> None:
        """Load each object's config through binpose.fileio.load_config
        (model build and symmetry group closure), derive one variant per
        object and instance count, and warm up on a one-instance scene of
        each object.

        Scene seed ``s`` uses variant ``s % len(variants)``, so every run
        cycles through the instance counts 3, 4 and 5 in equal shares and
        its mix of scene sizes does not depend on the seed.
        """
        from binpose import fileio

        self.work_dir = work_dir
        raws = self.objects(self.sizes["quick" if quick else "full"])
        loaded = {key: fileio.load_config(write_config(work_dir, key, raw))
                  for key, raw in raws.items()}

        def variants(counts):
            out = []
            for n in counts:
                for key, raw in raws.items():
                    raw = dict(raw, synth=dict(raw["synth"], instance_range=[n, n]))
                    cfg = loaded[key]
                    out.append((write_config(work_dir, f"{key}_{n}", raw),
                                replace(cfg, synth=replace(cfg.synth, instance_range=(n, n)))))
            return out

        self.variants = variants([1])
        for i in range(len(self.variants)):
            self.scene(i, NullTracer())
        self.variants = variants(INSTANCE_COUNTS)

    def variant(self, seed: int):
        """(config path, Config) for a scene seed."""
        return self.variants[seed % len(self.variants)]

    def scene(self, seed: int, tracer) -> SceneOutcome:
        raise NotImplementedError


class DenseBox(Workload):
    name = "dense_box"
    sizes = {"full": 7.0, "quick": 12.0}

    def objects(self, pitch):
        return {"box": config(BOX, pitch, BOX_SYMMETRY, CLEAN)}

    def scene(self, seed, tracer):
        from binpose import pipeline

        out_dir = os.path.join(self.work_dir, "scene")
        with tracer.span(ROOT), Clock() as clock:
            payload = pipeline.run_pipeline(self.variant(seed)[1], seed, out_dir=out_dir,
                                            use_icp=True)
        report = report_from_dict(payload)
        problems, digests = check_artifacts(out_dir, report)
        return SceneOutcome(clock.seconds, report, digests, problems)


class NoisyBoxCli(Workload):
    name = "noisy_box_cli"
    sizes = {"full": 9.0, "quick": 14.0}
    COMMANDS = (("synth", []), ("oracle", []), ("cluster", ["--icp"]), ("eval", []))

    def objects(self, pitch):
        return {"box": config(BOX, pitch, BOX_SYMMETRY, NOISY)}

    def scene(self, seed, tracer):
        from binpose import cli

        out_dir = os.path.join(self.work_dir, "scene")
        common = ["--config", self.variant(seed)[0], "--seed", str(seed),
                  "--out-dir", out_dir]
        sink = io.StringIO()
        with tracer.span(ROOT), Clock() as clock:
            for command, extra in self.COMMANDS:
                with tracer.span("cli." + command), redirect_stdout(sink), \
                        redirect_stderr(sink):
                    code = cli.main([command] + common + extra)
                if code != 0:
                    raise RuntimeError(f"binpose {command} exited {code}: {sink.getvalue()}")
        with open(os.path.join(out_dir, "report.json")) as f:
            report = report_from_dict(json.load(f))
        problems, digests = check_artifacts(out_dir, report)
        return SceneOutcome(clock.seconds, report, digests, problems)


class Cube24Vote(Workload):
    name = "cube24_vote"
    sizes = {"full": 8.0, "quick": 10.0}

    def objects(self, pitch):
        # At pitch 8 an instance's ~300 visible points split over 24 rotation
        # modes of ~12 points; stage-1 support 10 keeps those modes, as 20
        # does for the ~20-point modes at pitch 6.
        return {"cube": config(CUBE, pitch, CUBE_SYMMETRY, CLEAN, min_points_1=10)}

    def scene(self, seed, tracer):
        from binpose import pipeline

        with tracer.span(ROOT), Clock() as clock:
            run = pipeline.run_scene(self.variant(seed)[1], seed)
        problems = (check_labels(run.clusters.labels.tolist(), run.scene.points.shape[0],
                                 len(run.poses))
                    + check_report(run.report)
                    + check_quats([p.quat.tolist() for p in run.poses]))
        return SceneOutcome(clock.seconds, run.report, None, problems)


class TrainLosses(Workload):
    """Even scenes use the box, odd scenes the cylinder. A scene is a
    batch built from ground truth and the noisy oracle, one training
    step on it, then the fixed gradcheck trials on the scene's object."""

    name = "train_losses"
    sizes = {"full": 12.0, "quick": 16.0}
    TRIALS = 1               # per loss, per scene
    GRADCHECK_LOSSES = ("rotation", "total")

    def objects(self, pitch):
        return {"box": config(BOX, pitch, BOX_SYMMETRY, NOISY),
                "cylinder": config(CYLINDER, pitch / 2.0, CYLINDER_SYMMETRY, NOISY)}

    def scene(self, seed, tracer):
        import numpy as np
        from binpose import losses, pipeline, synth

        cfg = self.variant(seed)[1]
        model = cfg.model
        out = SceneOutcome(0.0)
        with tracer.span(ROOT), Clock() as clock:
            scene = synth.apply_occlusion(synth.generate_scene(model, cfg.synth, seed),
                                          cfg.synth.occlusion_cell,
                                          cfg.synth.occlusion_depth)
            pred = synth.oracle_predict(scene, model, cfg.oracle,
                                        seed=seed + pipeline.ORACLE_SEED_OFFSET,
                                        bin_extents=cfg.synth.bin_extents)
            with tracer.span("losses.batch"):
                batch = [losses.LossInstance(inst.pose.rotation, inst.pose.t, model.points,
                                             model.group, model.mask,
                                             scene.points[inst.point_indices],
                                             pred.centroids[inst.point_indices],
                                             pred.quats[inst.point_indices])
                         for inst in scene.instances if inst.n_visible > 0]
            with Clock() as step:
                value = losses.total_loss(batch, losses.LossWeights())
                grads = (losses.rotation_loss_grad(batch)
                         + losses.translation_loss_grad(batch))
            with Clock() as check:
                errs = [losses.gradcheck_trials(loss, model.points, model.group, model.mask,
                                                trials=self.TRIALS, seed=seed)
                        for loss in self.GRADCHECK_LOSSES]
        out.seconds = clock.seconds
        out.step_s, out.gradcheck_s = step.seconds, check.seconds
        out.gradcheck_trials = self.TRIALS * len(self.GRADCHECK_LOSSES)
        out.gradcheck_err = max(errs)
        if not math.isfinite(value) or not all(np.isfinite(g).all() for g in grads):
            out.problems.append("loss value or gradient is not finite")
        if not out.gradcheck_err <= GRADCHECK_MAX_REL_ERR:
            out.problems.append(f"gradcheck relative error {out.gradcheck_err!r} "
                                f"above {GRADCHECK_MAX_REL_ERR}")
        return out


WORKLOADS = {w.name: w for w in (DenseBox(), NoisyBoxCli(), Cube24Vote(), TrainLosses())}
