"""Record a baseline: every workload over several seeds, untraced and traced.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs perfbench/run.py one run at a time, each with the run length from
BENCHMARK.json, on seeds 0-9 untraced and 0-2 traced. Per workload it
records, for every end-to-end metric and every reported-only figure,
the ten values, their median and quartiles
and the quartile spread as a share of the median (what the benchmark's
bounds are checked against), and the F1, recall and artifact digests of
each run's first three scenes. From the traced runs it records the median
of every per-layer metric and each layer's share of the traced scene
time, and the tracing overhead: the median over the traced seeds of
traced scenes_per_s over untraced scenes_per_s on the same seed, minus 1.
Each traced run follows the untraced run of its seed, so both see the
machine in a similar state.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)
TRACED_SEEDS = range(3)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=180)
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": list(SEEDS), "traced_seeds": list(TRACED_SEEDS),
           "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        untraced, first_scenes, stamp, failed = {}, [], None, 0
        traced, units, ratios = {}, {}, []
        for seed in SEEDS:
            detail, result = run(name, seed, seconds, 0)
            stamp = detail["stamp"]
            failed += result["failed"]
            for k, m in detail["summary"].items():
                untraced.setdefault(k, []).append(m["value"])
            first_scenes.append(detail["scenes"][:3])
            print(name, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  flush=True)
            if seed not in TRACED_SEEDS:
                continue
            traced_detail, result = run(name, seed, seconds, 1)
            failed += result["failed"]
            for k, m in result["metrics"].items():
                traced.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
            ratios.append(traced_detail["summary"]["scenes_per_s"]["value"]
                          / detail["summary"]["scenes_per_s"]["value"])
        medians = {k: statistics.median(v) for k, v in traced.items()}
        scene_s = 1.0 / medians["trace.scenes_per_s"]
        out["workloads"][name] = {
            "failed": failed,
            "end_to_end": {k: spread(v) for k, v in untraced.items()},
            "first_scenes": first_scenes,
            "per_layer": medians,
            "self_time_share": {k: v / scene_s for k, v in medians.items()
                                if units[k] == "s/scene" and k != "pipeline.run_scene_s"
                                and v},
            "tracing_overhead": statistics.median(ratios) - 1.0,
            "stamp": stamp,
        }
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
