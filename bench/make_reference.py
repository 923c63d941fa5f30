#!/usr/bin/env python3
"""Write the seed-0 reference outputs that the benchmark checks runs against.

    python3 bench/make_reference.py [workload ...]

Run it only on a commit whose outputs are known to be right: the references
pin those outputs, and every later run of seed 0 is compared with them.
"""

import json
import sys

import run  # pins BLAS threads and puts the checkout's sources on the path
import workloads


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        ex = run.execute(workload, workload.config(workloads.DEFAULT_SEED), None)
        if ex["result"] is None:
            print(f"{name}: run failed: {ex['failures']}", file=sys.stderr)
            return 1
        with open(workloads.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(workload.reference(ex["result"]), fh)
        print(f"{name}: wrote {workloads.reference_path(name)} "
              f"(invariant check: {ex['failures'] or 'ok'})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
