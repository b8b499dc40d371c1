"""Quick mode: every workload at reduced size, untraced and traced.

    python3 perfbench/smoke.py

For each run it checks that the process exits 0, that the last line of
its output is the result object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, that the metrics are exactly
the ones BENCHMARK.json declares for that mode, each with its declared
unit and a finite value, and that every scene passed its output checks.
It also checks that the benchmark refuses to run, without printing a
result, when the binpose sources are missing. Takes under a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"outputs incorrect: {proc.stderr[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if m.get("unit") != want.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {want.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def check_refuses_without_sources() -> list[str]:
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, "dense_box", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    t0 = time.perf_counter()
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check_result(run(ROOT, w["name"], trace), declared)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} trace={trace}")
            for p in problems:
                print("     " + p)
    problems = check_refuses_without_sources()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without the sources")
    for p in problems:
        print("     " + p)
    print(f"{failures} failed, {time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
