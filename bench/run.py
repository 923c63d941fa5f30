#!/usr/bin/env python3
"""hhowave benchmark: one workload per process, timed end to end or per layer.

    python3 bench/run.py --workload ricker --seed 0 --seconds 10 --trace 0

The benchmark is a closed loop: one process runs one workload, one execution
at a time. With ``--trace 0`` it repeats full executions (set-up, march,
output, check) until ``--seconds`` have passed, then repeats the set-up
alone until three set-ups are timed if one set-up takes under a fifth of
``--seconds``, and reports medians of the end-to-end metrics. With
``--trace 1`` it runs one untraced and one traced execution and reports the
per-layer metrics of the traced one, its span self times, and the tracing
overhead. Every execution is checked; see README.md in this directory for the
workloads, the checks and the metric map.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pin BLAS to one thread before numpy is loaded anywhere in this process. The
# thread count changes small-kernel timings by orders of magnitude, and
# `hhowave --threads` cannot do this: it runs after numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# The program is built from the sources of the checkout the benchmark sits in,
# never from an installed copy.
if not os.path.isfile(os.path.join(SRC, "hhowave", "__init__.py")):
    sys.exit(f"error: hhowave sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3


def execute(workload, cfg, reference, recorder=None) -> dict:
    """One set-up, march, output and check of a workload, timed by stage."""
    span = recorder.span if recorder else (lambda name: contextlib.nullcontext())
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT)
    ex = {"setup_s": 0.0, "march_s": 0.0, "total_s": 0.0, "failures": [],
          "result": None, "counts": None, "output_bytes": 0}
    try:
        t0 = time.perf_counter()
        with span("bench.setup"):
            run = workload.setup(cfg)
        t1 = time.perf_counter()
        with span("bench.march"):
            workload.march(run, out_dir)
        t2 = time.perf_counter()
        with span("bench.output"):
            workload.output(run, out_dir)
        with span("bench.check"):
            ex["result"] = workload.result(run, out_dir)
            ex["failures"] = workload.check(ex["result"], reference)
        t3 = time.perf_counter()
        ex.update(setup_s=t1 - t0, march_s=t2 - t1, total_s=t3 - t0, counts=run.counts())
    except Exception as exc:  # any error of the program is a failed run
        traceback.print_exc()
        ex["failures"] = [f"{type(exc).__name__}: {exc}"]
    finally:
        ex["output_bytes"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                 for f in os.listdir(out_dir))
        shutil.rmtree(out_dir)
    return ex


def time_setup(workload, cfg) -> float:
    t0 = time.perf_counter()
    workload.setup(cfg)
    return time.perf_counter() - t0


def measure(name, seed, seconds, trace, reference, tiny=False) -> dict:
    """Run one workload; returns the result object and prints a report."""
    workload = workloads.WORKLOADS[name]
    cfg = workload.config(seed, tiny)
    print("env " + json.dumps(environment(cfg), sort_keys=True), flush=True)
    if trace:
        base = execute(workload, cfg, reference)
        recorder = spans.SpanRecorder(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
        with recorder.installed():
            traced = execute(workload, cfg, reference, recorder)
        executions = [base, traced]
        overhead = traced["total_s"] / base["total_s"] - 1.0 if base["total_s"] else 0.0
        metrics = spans.layer_metrics(recorder, traced["counts"] or {},
                                      traced["output_bytes"], overhead)
        print(spans.self_time_report(recorder))
        recorder.dump(os.path.join(OUT_ROOT, f"spans-{name}-seed{seed}.jsonl"))
    else:
        executions = []
        start = time.perf_counter()
        while not executions or time.perf_counter() - start < seconds:
            executions.append(execute(workload, cfg, reference))
        good = [e for e in executions if not e["failures"]]
        setups = [e["setup_s"] for e in good]
        while good and len(setups) < SETUP_SAMPLES and max(setups) < seconds / 5:
            setups.append(time_setup(workload, cfg))
        good = good or executions
        metrics = {
            "setup_s": (statistics.median(setups or [0.0]), "s"),
            "march_s": (statistics.median(e["march_s"] for e in good), "s"),
            "total_s": (statistics.median(e["total_s"] for e in good), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")

    for i, ex in enumerate(executions):
        print(f"execution {i}: setup {ex['setup_s']:.4f} s, march {ex['march_s']:.4f} s, "
              f"total {ex['total_s']:.4f} s, "
              f"{'FAILED: ' + '; '.join(ex['failures']) if ex['failures'] else 'ok'}")
    failed = sum(1 for e in executions if e["failures"])
    print(f"failed_frac = {failed / len(executions):.4f} ({failed} of {len(executions)} runs)")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(executions), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# environment record

def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(cfg) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": blas_threads(),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "config": cfg,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    reference = (workloads.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    result = measure(args.workload, args.seed, args.seconds, args.trace, reference)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
