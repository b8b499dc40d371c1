"""Span tracing for the benchmark's traced run.

The library is not changed. Wrappers are installed on the module
attributes binpose looks names up on at call time (``binpose.cluster``
calls ``mean_shift`` through its own module globals, ``binpose.pipeline``
holds its own binding of ``icp_refine``, and so on) and removed when the
run ends. Spans stay in memory and are written out once, at the end.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``item`` the scene the span
belongs to. Self time is a span's duration minus the durations of its
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np


class NullTracer:
    """Stands in for the tracer in the untraced run: records nothing."""

    def begin(self, item) -> None:
        pass

    def span(self, name):
        return nullcontext()


class Tracer:
    """Spans and per-layer counters of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self.mean_shift_calls = 0
        self._stack: list[int] = []
        self._quiet = False

    def begin(self, item) -> None:
        """Attribute the spans that follow to scene ``item``."""
        self.item = item
        self.mean_shift_calls = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        own = self.self_times()
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "scene", "self"],
                       "spans": [s + [t] for s, t in zip(self.spans, own)]}, f)


# ---------------------------------------------------------------------------
# wrappers


def _traced(tracer: Tracer, fn, name, hook=None, quiet=False):
    """Wrap ``fn`` in a span called ``name`` (no span when ``name`` is None).

    ``hook(tracer, args, result)`` records counters from the arguments
    and the returned value. Inside a ``quiet`` span no further spans
    open: gradcheck makes thousands of tiny loss calls, and spans around
    each would be most of what the traced run measures there.
    """
    def wrapper(*args, **kwargs):
        if name is None or tracer._quiet:
            out = fn(*args, **kwargs)
        else:
            idx = tracer.open(name)
            tracer._quiet = quiet
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._quiet = False
                tracer.close(idx)
        if hook is not None:
            hook(tracer, args, out)
        return out
    return wrapper


def _mean_shift(tracer: Tracer, fn):
    """In a cluster_predictions span the first mean_shift call is stage 1
    and the second is stage 2."""
    def wrapper(*args, **kwargs):
        tracer.mean_shift_calls += 1
        name = "cluster.ms1" if tracer.mean_shift_calls == 1 else "cluster.ms2"
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _on_cluster(tracer, args, res):
    c = tracer.counts
    c["cluster.points"] += len(args[0])
    c["cluster.stage1_clusters"] += len(res.stage1)
    c["cluster.instances"] += len(res.instances)
    c["cluster.discarded_points"] += int((res.labels == -1).sum())
    c["cluster.warnings"] += res.warning is not None


def _on_rot_dist(tracer, args, res):
    _, quats, model, group = args[:4]
    tracer.counts["so3.rot_dist_calls"] += 1
    tracer.counts["so3.rot_dist_evals"] += (np.asarray(quats).reshape(-1, 4).shape[0]
                                           * len(group)
                                           * np.asarray(model).reshape(-1, 3).shape[0])


def _on_pose_dist(tracer, args, res):
    tracer.counts["so3.pose_dist_calls"] += 1


def _on_icp(tracer, args, res):
    c = tracer.counts
    c["icp.calls"] += 1
    c["icp.iters"] += len(res.errors)
    c["icp.failed"] += res.failed
    c["icp.unconverged"] += not (res.converged or res.failed)


def _on_evaluate(tracer, args, report):
    tracer.counts["metrics.gt_filtered"] += len(args[2]) - report.n_gt


def _on_generate(tracer, args, scene):
    tracer.counts["synth.instances"] += len(scene.instances)


def _on_occlusion(tracer, args, scene):
    tracer.counts["synth.points_visible"] += scene.points.shape[0]


def _on_write(tracer, args, res):
    tracer.counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _on_loss(tracer, args, res):
    tracer.counts["losses.loss_evals"] += 1


_WRITERS = ("save_ply", "save_scene_json", "save_predictions_csv", "save_poses_json",
            "save_labels", "save_report_json", "save_report_csv", "write_json")


def _span(name, hook=None, quiet=False):
    return lambda tracer, fn: _traced(tracer, fn, name, hook, quiet)


def _table():
    """(modules, attribute, wrapper factory) for every traced call site."""
    from binpose import cli, cluster, fileio, icp, losses, metrics, pipeline, synth

    both = (pipeline, cli)
    rows = [
        (both + (synth,), "generate_scene", _span("synth.generate", _on_generate)),
        (both + (synth,), "apply_occlusion", _span("synth.occlusion", _on_occlusion)),
        (both + (synth,), "oracle_predict", _span("synth.oracle")),
        (both, "fit_normalization", _span("workspace.normalize")),
        (both, "normalize_scene", _span("workspace.normalize")),
        (both, "denormalize_pose", _span("workspace.normalize")),
        (both, "cluster_predictions", _span("cluster.predictions", _on_cluster)),
        ((cluster,), "mean_shift", _mean_shift),
        ((cluster,), "pose_vote", _span("cluster.vote")),
        ((cluster,), "rotation_distances_to_set", _span("so3.rot_dist", _on_rot_dist)),
        ((metrics,), "symmetric_pose_distance", _span("so3.pose_dist", _on_pose_dist)),
        ((pipeline, icp), "icp_refine", _span("icp.refine", _on_icp)),
        (both, "evaluate", _span("metrics.evaluate", _on_evaluate)),
        ((cli,), "load_config", _span("fileio.load_config")),
        ((cli,), "load_predictions_csv", _span("fileio.read")),
        ((cli,), "load_poses_json", _span("fileio.read")),
        ((fileio,), "load_scene_json", _span("fileio.read")),
        ((pipeline,), "run_scene", _span("pipeline.run_scene")),
        ((losses,), "total_loss", _span("losses.total_loss")),
        ((losses,), "rotation_loss_grad", _span("losses.rot_grad")),
        ((losses,), "translation_loss_grad", _span("losses.trans_grad")),
        ((losses,), "gradcheck_trials", _span("losses.gradcheck", quiet=True)),
        ((losses,), "rotation_loss", _span(None, _on_loss)),
        ((losses,), "translation_loss", _span(None, _on_loss)),
    ]
    rows += [(tuple(m for m in both if hasattr(m, w)), w, _span("fileio.write", _on_write))
             for w in _WRITERS]
    return rows


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for modules, attr, wrap in _table():
            for module in modules:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> span whose self time it sums (pipeline.run_scene_s is inclusive)
SELF_TIME = {
    "cluster.ms1_s": "cluster.ms1",
    "cluster.ms2_s": "cluster.ms2",
    "cluster.vote_s": "cluster.vote",
    "cluster.self_s": "cluster.predictions",
    "so3.rot_dist_s": "so3.rot_dist",
    "so3.pose_dist_s": "so3.pose_dist",
    "synth.generate_s": "synth.generate",
    "synth.occlusion_s": "synth.occlusion",
    "synth.oracle_s": "synth.oracle",
    "workspace.normalize_s": "workspace.normalize",
    "icp.s": "icp.refine",
    "metrics.evaluate_s": "metrics.evaluate",
    "fileio.write_s": "fileio.write",
    "fileio.read_s": "fileio.read",
    "fileio.load_config_s": "fileio.load_config",
    "losses.batch_s": "losses.batch",
    "losses.total_loss_s": "losses.total_loss",
    "losses.rot_grad_s": "losses.rot_grad",
    "losses.trans_grad_s": "losses.trans_grad",
    "losses.gradcheck_s": "losses.gradcheck",
    "pipeline.self_s": "pipeline.run_scene",
    "cli.synth_s": "cli.synth",
    "cli.oracle_s": "cli.oracle",
    "cli.cluster_s": "cli.cluster",
    "cli.eval_s": "cli.eval",
}

COUNTS = ("cluster.points", "cluster.stage1_clusters", "cluster.instances",
          "cluster.discarded_points", "cluster.warnings",
          "so3.rot_dist_calls", "so3.rot_dist_evals", "so3.pose_dist_calls",
          "synth.points_visible", "synth.instances",
          "icp.calls", "icp.iters", "icp.failed", "icp.unconverged",
          "metrics.gt_filtered", "fileio.bytes_written", "losses.loss_evals")

ROOT = "bench.scene"


def layer_metrics(tracer: Tracer, scenes: int) -> dict[str, tuple[float, str]]:
    """Per-scene means of every layer's self time and counter.

    Also ``trace.covered_frac``: the share of the traced scene time that
    layer spans cover, i.e. one minus the root span's own share.
    """
    own = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), t in zip(tracer.spans, own):
        by_name[name] += t
        inclusive[name] += end - start
    out = {m: (by_name[span] / scenes, "s/scene") for m, span in SELF_TIME.items()}
    out["pipeline.run_scene_s"] = (inclusive["pipeline.run_scene"] / scenes, "s/scene")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / scenes, "count/scene")
    out["trace.covered_frac"] = (1.0 - by_name[ROOT] / inclusive[ROOT], "ratio")
    out["trace.spans"] = (len(tracer.spans) / scenes, "count/scene")
    return out
