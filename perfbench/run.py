"""binpose benchmark: one workload, one run.

    python3 perfbench/run.py --workload dense_box --seed 0 --seconds 20 --trace 0

Builds the workload's inputs from --seed and sets up five times:
``setup_s`` is the median of import (timed in a fresh interpreter),
config and model build, and warm-up. Then it runs scenes until
--seconds have passed. The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones from the traced run (see tracing.py). The
line before it holds every other figure: F1 and recall, training and
gradcheck rates, the failure fraction, artifact digests and the
environment stamp. Both lines, and the traced run's spans, are also
written under perfbench/.work/.

Load is one process. BLAS pools are pinned to one thread, so the
process never has more threads than cores.

--quick shrinks every object (coarser point pitch) and sets up once;
perfbench/smoke.py uses it to run every workload in under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
BLAS_THREADS = "1"
# before numpy loads: OpenBLAS reads its thread count once, at load time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from tracing import NullTracer, Tracer, installed, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SCENE_SEED_STRIDE = 10000
TIMING_NOTE = ("Timings are wall-clock on shared cores; no machine-wide tracing "
               "was used. Spans come from wrappers on binpose module attributes.")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced object sizes and a single set-up")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time ``import binpose`` (numpy and scipy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import binpose; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def set_up(workload, work_dir: str, repeats: int) -> tuple[float, dict]:
    """The set-up with the median total over ``repeats`` set-ups of import,
    config/model build and warm-up."""
    runs = []
    for _ in range(repeats):
        parts = {"import_s": import_seconds()}
        t0 = time.perf_counter()
        workload.setup(work_dir, quick=repeats == 1)
        parts["build_and_warmup_s"] = time.perf_counter() - t0
        runs.append((sum(parts.values()), parts))
    return sorted(runs, key=lambda r: r[0])[repeats // 2]


def stamp(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "binpose")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "note": TIMING_NOTE,
    }


def run_scenes(workload, seed: int, seconds: float, tracer) -> tuple[list, list]:
    """Scenes until ``seconds`` have passed, ending on a whole cycle of
    the workload's variants so every run has the same mix."""
    group = len(workload.variants)
    outcomes, errors = [], []
    t0 = time.perf_counter()
    i = 0
    while i == 0 or i % group or time.perf_counter() - t0 < seconds:
        scene_seed = seed * SCENE_SEED_STRIDE + i
        tracer.begin(i)
        try:
            out = workload.scene(scene_seed, tracer)
            if out.problems:
                errors.append(f"scene seed {scene_seed}: " + "; ".join(out.problems))
        except Exception:
            out = None
            errors.append(f"scene seed {scene_seed}:\n{traceback.format_exc()}")
        outcomes.append(out)
        i += 1
    return outcomes, errors


def summarize(outcomes: list, failed: int, setup_s: float) -> dict:
    from binpose.pipeline import aggregate_reports

    done = [o for o in outcomes if o is not None]
    busy = sum(o.seconds for o in done)
    out = {
        "scenes_per_s": (len(done) / busy if busy else 0.0, "1/s"),
        "scene_s_p50": (statistics.median(o.seconds for o in done) if done else 0.0, "s"),
        "scene_s_samples": (len(done), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (failed / len(outcomes), "ratio"),
        "scenes": (len(outcomes), "count"),
    }
    reports = [o.report for o in done if o.report is not None]
    if reports:
        pooled = aggregate_reports(reports)
        out["f1_inst"] = (pooled["f1_inst"], "ratio")
        out["recall"] = (pooled["recall"], "ratio")
    if any(o.gradcheck_trials for o in done):
        out["train_steps_per_s"] = (len(done) / sum(o.step_s for o in done), "1/s")
        out["gradcheck_trials_per_s"] = (sum(o.gradcheck_trials for o in done)
                                         / sum(o.gradcheck_s for o in done), "1/s")
        out["gradcheck_max_rel_err"] = (max(o.gradcheck_err for o in done), "ratio")
    return out


def scene_records(outcomes: list, seed: int) -> list[dict]:
    """Per-scene F1, recall and artifact digests. They depend only on the
    scene seed, so they repeat exactly across runs and commits unless the
    program's output changes."""
    return [dict(o.digests or {}, seed=seed * SCENE_SEED_STRIDE + i,
                 f1_inst=o.report.f1_inst, recall=o.report.recall)
            for i, o in enumerate(outcomes) if o is not None and o.report is not None]


def as_metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "binpose", "__init__.py")):
        print(f"error: binpose sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_s, setup_parts = set_up(workload, work_dir, 1 if args.quick else SETUP_REPEATS)
        tracer = Tracer() if args.trace else NullTracer()
        with installed(tracer) if args.trace else nullcontext():
            outcomes, errors = run_scenes(workload, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir)

    failed = sum(1 for o in outcomes if o is None or o.problems)
    summary = summarize(outcomes, failed, setup_s)
    if args.trace:
        metrics = layer_metrics(tracer, len(outcomes))
        metrics["trace.scenes_per_s"] = summary["scenes_per_s"]
    else:
        metrics = {k: summary[k] for k in ("scenes_per_s", "setup_s", "peak_rss_mb")}
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": as_metrics(metrics)}
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "stamp": stamp(args.seed), "summary": as_metrics(summary),
        "setup_parts": setup_parts, "scenes": scene_records(outcomes, args.seed),
        "scene_seconds": [o.seconds if o else None for o in outcomes],
        "problems": errors,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")
    with open(os.path.join(WORK, tag + ".json"), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    if args.trace:
        tracer.write(os.path.join(WORK, tag + ".spans.json"))
    for e in errors[:3]:
        print(e, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
