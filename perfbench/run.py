#!/usr/bin/env python3
"""lammsc benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. ``--trace 0`` times the workload end to end with tracing
off; ``--trace 1`` makes a fixed-size traced pass and reports per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Spans and a full result record go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def _blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(np)}


def _run_ops(w, count=None, seconds=None):
    """Run operations until ``count`` are done, or ``seconds`` have passed and
    the workload's minimum is met. Returns (per-op seconds, units, raised)."""
    durations, units, raised = [], 0, 0
    start = time.perf_counter()
    while True:
        done = len(durations) + raised
        if count is not None and done >= count:
            break
        if (count is None and time.perf_counter() - start >= seconds
                and done >= w.min_ops()):
            break
        t0 = time.perf_counter()
        try:
            u = w.op()
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            raised += 1
            continue
        durations.append(time.perf_counter() - t0)
        units += u
    return durations, units, raised


def _timed_setups(w) -> list:
    times = []
    for _ in range(w.setups):
        w.close()
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(w, seconds: float) -> tuple[dict, dict]:
    setups = _timed_setups(w)
    w.warm_up()
    durations, units, raised = _run_ops(w, seconds=seconds)
    w.close()
    if not durations:
        raise RuntimeError("every operation raised")
    failed = raised + w.check()
    per_op_ms = [d * 1e3 / w.per_op_divisor() for d in durations]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = w.quality()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (units / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(per_op_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "nmse": (quality["nmse"], "ratio"),
    }
    # the same numbers under the names the workload documentation uses
    named = {"setup_s": (metrics["setup_s"][0], "s", f"median of {len(setups)}"),
             "peak_rss_mb": (rss_mb, "MB", "")}
    if w.name == "train":
        named["epoch_s"] = (metrics["op_p50_ms"][0] / 1e3, "s",
                            f"median of {len(durations)} trainings x "
                            f"{w.per_op_divisor()} epochs")
        named["val_nmse"] = (quality["nmse"], "ratio", "last epoch")
    else:
        named["tx_per_s"] = (metrics["work_per_s"][0], "1/s",
                             f"{units} tx in {sum(durations):.3f} s")
        named["accuracy"] = (quality["accuracy"], "ratio", "")
    if w.name == "remote":
        n = len(per_op_ms)
        named["tx_p50_ms"] = (statistics.median(per_op_ms), "ms", f"n={n}")
        named["tx_p99_ms"] = (statistics.quantiles(per_op_ms, n=100)[98], "ms",
                              f"n={n}, {n - int(0.99 * n)} beyond")
    attempted = len(durations) + raised
    named["fail_ratio"] = (failed / attempted, "ratio", f"{failed}/{attempted}")
    info = {"attempted": attempted, "failed": failed, "named": named,
            "quality": quality, "setup_times_s": setups, "op_seconds": durations}
    return metrics, info


def traced(w, seed: int) -> tuple[dict, dict]:
    """Two untraced passes, then the same pass traced from set-up on. The
    first pass warms caches; the second is the untraced time."""
    w.setup()
    w.warm_up()
    _, _, raised_warm = _run_ops(w, count=w.pass_ops())
    plain, _, raised0 = _run_ops(w, count=w.pass_ops())
    raised0 += raised_warm
    w.close()
    errors_before = w.stage_errors()
    tracer = layers.Tracer()
    tracer.install()
    try:
        w.setup()
        t0 = time.perf_counter()
        _, _, raised1 = _run_ops(w, count=w.pass_ops())
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
        w.close()
    failed = raised0 + raised1 + w.check()
    metrics = tracer.metrics(messages=w.messages_per_op() * w.pass_ops(),
                             stage_errors=w.stage_errors() - errors_before,
                             overhead_s=traced_s - sum(plain))
    metrics.update(layers.nn_probes(workloads.ROWS, workloads.COLS, seed,
                                    w.scale.probe_reps))
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{w.name}-seed{seed}.jsonl"))
    return metrics, {"attempted": 3 * w.pass_ops(), "failed": failed,
                     "traced_s": traced_s, "untraced_s": sum(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke run")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lammsc", "__init__.py")):
        print(f"perfbench: no lammsc sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lammsc

    if not os.path.abspath(lammsc.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported lammsc from {lammsc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    w = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale],
                                           tmp)
    try:
        if args.trace:
            values, info = traced(w, args.seed)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _better in layers.METRICS}
            for name, unit, _ in layers.METRICS:
                print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
        else:
            values, info = end_to_end(w, args.seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            for name, (value, unit, note) in info.pop("named").items():
                print(f"{args.workload} {name} = {value:.6g} {unit}"
                      + (f"  ({note})" if note else ""))
            for key, value in info["quality"].items():
                if isinstance(value, str):
                    print(f"{args.workload} {key} = {value}")
    finally:
        w.close()
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "scale": args.scale, "machine": facts,
              "metrics": metrics, **info}
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": info["failed"] == 0,
                      "attempted": info["attempted"], "failed": info["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
