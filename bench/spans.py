"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public callables of the hhowave modules (the layer
boundaries) while it is installed, and records one span per call: name,
start, end, parent span and run id. Spans stay in memory; the caller writes
them out when the run ends. A span's self time is its duration minus the
durations of its child spans (calls run on one thread, so children never
overlap).
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

from hhowave import cli, hho, mesh as msh, scenarios, timestep


def _count_cfl_run(recorder, args, kwargs, result):
    if kwargs.get("step_index") == 1:
        recorder.counters["scenarios.cfl_runs"] += 1


def _count_lu(recorder, args, kwargs, result):
    recorder.counters["timestep.lu_nnz"] += int(result.L.nnz + result.U.nnz)
    recorder.counters["timestep.schur_nnz"] += int(args[0].nnz)


# (span name, owner, attribute, hook called with the call's arguments and result)
TARGETS = [
    ("mesh.generate", msh, "generate", None),
    ("hho.assemble", hho, "assemble", None),
    ("hho.build_cell_blocks", hho, "build_cell_blocks", None),
    ("hho.project_state", hho, "project_state", None),
    ("hho.load_moments", hho, "load_moments", None),
    ("timestep.stepper_build", timestep.ExplicitStepper, "__init__", None),
    ("timestep.stepper_build", timestep.ImplicitStepper, "__init__", None),
    ("timestep.condense", timestep.CondensedFactorization, "__init__", None),
    # the scipy call inside timestep.FactorizedOperator
    ("timestep.factor", timestep.spla, "splu", _count_lu),
    ("timestep.schur_solve", timestep.FactorizedOperator, "solve", None),
    ("timestep.step", timestep.ExplicitStepper, "step", _count_cfl_run),
    ("timestep.step", timestep.ImplicitStepper, "step", None),
    ("timestep.face_values", timestep.ExplicitStepper, "face_values", None),
    ("timestep.face_values", timestep.ImplicitStepper, "face_values", None),
    ("scenarios.energy", scenarios, "energy", None),
    ("scenarios.cfl_bracket", scenarios, "cfl_bracket", None),
    ("scenarios.sensor", scenarios.BoundSensor, "record", None),
    ("scenarios.error", scenarios, "l2_error_dual", None),
    ("scenarios.error", scenarios, "sensor_error", None),
    ("cli.output", cli, "write_csv", None),
    ("cli.output", cli, "write_vtu", None),
]

COUNTERS = ("scenarios.cfl_runs", "timestep.lu_nnz", "timestep.schur_nnz")


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or None]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for name, owner, attr, hook in TARGETS:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # -- derived quantities ------------------------------------------------
    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def tail(samples):
    """Highest percentile with at least ten samples beyond it (p50 if none has).

    Returns (percentile, value, samples beyond it).
    """
    n = len(samples)

    def beyond(pct):
        return int(n * (100.0 - pct) / 100.0 + 1e-9)

    pct = next((p for p in (99.9, 99.0, 90.0) if beyond(p) >= 10), 50.0)
    return pct, float(np.percentile(samples, pct)), beyond(pct)


def layer_metrics(rec: SpanRecorder, counts: dict, output_bytes: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics of one traced execution, as name -> (value, unit).

    `counts` holds the problem sizes of the execution (empty if it failed).
    """
    times = rec.self_times()

    def total(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def p50_ms(name):
        d = rec.durations(name)
        return 1e3 * float(np.median(d)) if d else 0.0

    steps_ms = [1e3 * d for d in rec.durations("timestep.step")]
    tail_pct, tail_ms, tail_n = tail(steps_ms) if steps_ms else (50.0, 0.0, 0)
    cell_blocks = total("hho.build_cell_blocks")
    m = {
        "mesh.build_s": (total("mesh.generate"), "s"),
        "mesh.cells": (counts.get("mesh.cells", 0), "count"),
        "mesh.faces": (counts.get("mesh.faces", 0), "count"),
        "hho.assemble_s": (total("hho.assemble"), "s"),
        "hho.cell_blocks_s": (cell_blocks, "s"),
        "hho.assemble_self_s": (own("hho.assemble"), "s"),
        "hho.cell_blocks_us_per_cell": (
            1e6 * cell_blocks / max(1, calls("hho.build_cell_blocks")), "us"),
        "hho.project_s": (total("hho.project_state", "hho.load_moments"), "s"),
        "hho.cell_dofs": (counts.get("hho.cell_dofs", 0), "count"),
        "hho.face_dofs": (counts.get("hho.face_dofs", 0), "count"),
        "hho.operator_nnz": (counts.get("hho.operator_nnz", 0), "count"),
        "timestep.stepper_build_s": (total("timestep.stepper_build"), "s"),
        "timestep.condense_self_s": (own("timestep.condense"), "s"),
        "timestep.factor_s": (total("timestep.factor"), "s"),
        "timestep.lu_nnz": (rec.counters["timestep.lu_nnz"], "count"),
        "timestep.schur_nnz": (rec.counters["timestep.schur_nnz"], "count"),
        "timestep.schur_solve_ms_p50": (p50_ms("timestep.schur_solve"), "ms"),
        "timestep.schur_solves": (calls("timestep.schur_solve"), "count"),
        "timestep.step_ms_p50": (p50_ms("timestep.step"), "ms"),
        "timestep.step_ms_tail": (tail_ms, "ms"),
        "timestep.step_ms_tail_pct": (tail_pct, "%"),
        "timestep.step_ms_tail_n": (tail_n, "count"),
        "timestep.steps": (calls("timestep.step"), "count"),
        "timestep.face_values_s": (total("timestep.face_values"), "s"),
        "scenarios.energy_s": (total("scenarios.energy"), "s"),
        "scenarios.energy_calls": (calls("scenarios.energy"), "count"),
        "scenarios.cfl_runs": (rec.counters["scenarios.cfl_runs"], "count"),
        "scenarios.sensor_s": (total("scenarios.sensor"), "s"),
        "scenarios.error_s": (total("scenarios.error"), "s"),
        "cli.output_s": (total("cli.output"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    return m


def self_time_report(rec: SpanRecorder) -> str:
    rows = sorted(rec.self_times().items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<26}{'calls':>9}{'total_s':>12}{'self_s':>12}"]
    lines += [f"{name:<26}{calls:>9}{total:>12.4f}{own:>12.4f}"
              for name, (calls, total, own) in rows]
    layers = {}
    for name, (_, _, own) in rows:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    lines.append("self time by layer: " + ", ".join(
        f"{layer} {own:.4f} s" for layer, own in sorted(layers.items(), key=lambda kv: -kv[1])))
    return "\n".join(lines)
