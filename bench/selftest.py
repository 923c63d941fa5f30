#!/usr/bin/env python3
"""Self-test of the benchmark on tiny versions of its workloads.

    python3 bench/selftest.py

Each workload runs on an L2 mesh for a few steps (the bracket search on L2).
The self-test checks that:

- a run matches a reference made from the run before it (failed = 0);
- a perturbed reference drives failed_frac above 0;
- every end-to-end metric (trace 0) and every per-layer metric (trace 1)
  that BENCHMARK.json names is emitted, with its unit;
- the ricker workload, composed from the public builders, writes the same
  traces.csv and energy.csv as ``hhowave simulate`` on the same config.

Exits with 0 when every check passes and 1 otherwise.
"""

import contextlib
import filecmp
import io
import json
import os
import sys
import tempfile

import run  # pins BLAS threads and puts the checkout's sources on the path
import workloads
from hhowave import cli


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def check_metrics(spec, name, reference) -> list:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = quiet(run.measure, name, workloads.DEFAULT_SEED, 0.0, trace, reference, tiny=True)
        if res["failed"]:
            problems.append(f"{name} trace {trace}: {res['failed']} failed runs")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            f"units {[k for k in want if k in got and got[k] != want[k]]}")
    res = quiet(run.measure, name, workloads.DEFAULT_SEED, 0.0, 0,
                workloads.with_perturbed_reference(reference), tiny=True)
    if not res["failed"] / res["attempted"] > 0:
        problems.append(f"{name}: a perturbed reference left failed_frac at 0")
    return problems


def check_ricker_matches_cli() -> list:
    workload = workloads.WORKLOADS["ricker"]
    cfg = workload.config(workloads.DEFAULT_SEED, tiny=True)
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as via_cli, \
            tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as composed:
        if cli.cmd_simulate(json.loads(json.dumps(cfg)), via_cli) != cli.EXIT_OK:
            return ["hhowave simulate failed on the tiny ricker config"]
        state = workload.setup(cfg)
        workload.march(state, composed)
        workload.output(state, composed)
        return [f"ricker {f} differs from hhowave simulate" for f in ("traces.csv", "energy.csv")
                if not filecmp.cmp(os.path.join(via_cli, f), os.path.join(composed, f),
                                   shallow=False)]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        ex = run.execute(workload, workload.config(workloads.DEFAULT_SEED, tiny=True), None)
        if ex["result"] is None:
            problems.append(f"{name}: tiny run failed: {ex['failures']}")
            continue
        found = check_metrics(spec, name, workload.reference(ex["result"]))
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    found = check_ricker_matches_cli()
    print(f"ricker composed vs hhowave simulate: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print("problem: " + p)
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
