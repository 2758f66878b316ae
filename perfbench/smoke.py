#!/usr/bin/env python3
"""Smoke run of the benchmark harness at tiny input size.

    python3 perfbench/smoke.py

Runs every workload untraced and traced (twice, to compare the exact
counts), checks the result line against BENCHMARK.json, and checks that the
benchmark refuses to run in a directory without the program's sources.
Takes well under a minute; exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"exit {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise SystemExit(f"correctness check failed: {res}")
    return res


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = result(run(workload, trace))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                raise SystemExit(f"{workload} trace={trace}: metrics differ from "
                                 f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if trace:
                again = result(run(workload, trace))["metrics"]
                for name, unit in want.items():
                    if (unit in ("count", "ratio")
                            and again[name]["value"] != res["metrics"][name]["value"]):
                        raise SystemExit(f"{workload}: {name} differs between runs")
            print(f"ok {workload} trace={trace}", flush=True)

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(bare, "perfbench", "run.py"),
                           "--workload", "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("benchmark ran without the program's sources")
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
