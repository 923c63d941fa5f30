"""The benchmark workloads, composed from the public hhowave builders.

Each workload turns a seed into a run configuration (the only input the
program receives), then runs in four timed stages:

- set-up: mesh build, assembly, initial state and forcing, and stepper
  construction (block inverses, Schur build and LU factor);
- march: the time loop, or the bracket search, with the per-step sensors,
  energy and snapshots the workload does;
- output: the CSV files the matching ``hhowave`` subcommand writes;
- check: the written result against the stored reference (seed 0) or
  against invariants (any other seed).

Seed 0 reproduces the shipped inputs exactly. Other seeds move the Ricker
source and sensors, or the manufactured temporal frequency theta (which sets
the phase of the exact solution at every time), within fixed ranges that
leave the amount of work unchanged.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from hhowave import cli, hho, scenarios, timestep

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
RICKER_CONFIG = os.path.join(os.path.dirname(HERE), "configs", "academic_ricker.json")

# Reference tolerances (seed 0). Loose enough for refactors that reorder
# floating-point sums or change the LU ordering, tight enough to catch any
# change of the discretization.
TRACE_RTOL = 1e-6        # relative l2 error of each traces.csv channel
ENERGY_RTOL = 1e-8       # final energy of the ricker run
ERROR_RTOL = 1e-6        # l2_error_dual of the manufactured run
# Invariant bounds (other seeds).
ENERGY_GROWTH = 1e-9     # the undriven ricker energy may not grow step to step
HEX_ERROR_MAX = 0.06     # l2_error_dual at L6 (0.0458 at seed 0)
CFL_RANGE = {"ERK2": (0.18, 0.24), "ERK4": (0.25, 0.32)}   # paper Table 2: 0.205, 0.282


class Setup:
    """Everything the march needs; built once per execution."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.mesh = cli.build_mesh(cfg["mesh"])
        self.materials = cli.build_materials(cfg)
        self.stab = cli.build_stabilization(cfg)
        self.dt = cli.resolve_dt(cfg, self.mesh, self.materials)
        self.n_steps = max(1, round(float(cfg["final_time"]) / self.dt))
        self.system = hho.assemble(self.mesh, self.materials, self.stab, k=cfg["degree"])

    def counts(self) -> dict:
        sysm = self.system
        nnz = sum(m.nnz for m in (sysm.mass, sysm.k_tt, sysm.k_tf, sysm.k_ft, sysm.k_ff))
        return {"mesh.cells": self.mesh.n_cells, "mesh.faces": self.mesh.n_faces,
                "hho.cell_dofs": sysm.n_cell_dofs, "hho.face_dofs": sysm.n_face_dofs,
                "hho.operator_nnz": nnz}


class SimulationSetup(Setup):
    """Set-up of ``hhowave simulate``, in the order ``cli.cmd_simulate`` uses."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.u0, self.forcing, self.case = cli.build_scenario(cfg, self.system,
                                                              self.materials)
        self.stepper, _ = cli.build_stepper(cfg, self.system, self.dt)
        self.sensors = [scenarios.BoundSensor(
            scenarios.SensorSpec(tuple(s["position"]), s["kind"], s.get("name", f"S{i}")),
            self.system) for i, s in enumerate(cfg.get("sensors", []))]
        out_cfg = cfg.get("output", {})
        self.trace_every = int(out_cfg.get("trace_every", 1))
        self.snap_every = int(out_cfg.get("snapshot_every", 0))
        self.mean_rows = cli.cell_average_rows(self.system) if self.snap_every else None


def simulate_march(run: SimulationSetup, out_dir):
    """The time loop of ``cli.cmd_simulate``: sensors, energy and snapshots."""
    system, stepper, sensors = run.system, run.stepper, run.sensors
    layout = system.layout
    has_interface = any(s.spec.kind == "interface" for s in sensors)
    u = run.u0
    run.times = [0.0]
    run.records = [[s.record(u, stepper.face_values(u) if s.spec.kind == "interface"
                             else None, layout) for s in sensors]]
    run.energies = [scenarios.energy(u, system)]
    if run.snap_every:
        cli.write_vtu(os.path.join(out_dir, "snapshot_0000.vtu"), system, u, run.mean_rows)
    for n in range(1, run.n_steps + 1):
        u = stepper.step(u, (n - 1) * run.dt, run.dt, run.forcing, step_index=n)
        if n % run.trace_every == 0:
            u_f = stepper.face_values(u) if has_interface else None
            run.times.append(n * run.dt)
            run.records.append([s.record(u, u_f, layout) for s in sensors])
            run.energies.append(scenarios.energy(u, system))
        if run.snap_every and n % run.snap_every == 0:
            cli.write_vtu(os.path.join(out_dir, f"snapshot_{n:04d}.vtu"),
                          system, u, run.mean_rows)
    run.u = u


def simulate_output(run: SimulationSetup, out_dir):
    """The CSV files of ``cli.cmd_simulate`` (summary.json is left out)."""
    if run.sensors:
        header = ["time"] + [f"{s.spec.name}.{ch}" for s in run.sensors for ch in s.channels]
        rows = [[t] + [float(v) for rec in recs for v in rec]
                for t, recs in zip(run.times, run.records)]
        cli.write_csv(os.path.join(out_dir, "traces.csv"), header, rows)
    cli.write_csv(os.path.join(out_dir, "energy.csv"), ["time", "energy"],
                  list(zip(run.times, run.energies)))


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


# ---------------------------------------------------------------------------
# ricker: implicit, factor once / solve many

class Ricker:
    """The shipped academic_ricker.json as ``hhowave simulate`` runs it.

    Cartesian L5, SDIRK34, 640 steps: one LU factor and 1,920 Schur solves,
    with three sensors (one on the interface) and VTU snapshots.
    """

    name = "ricker"

    def config(self, seed, tiny=False):
        with open(RICKER_CONFIG, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if seed != DEFAULT_SEED:
            rng = np.random.default_rng(seed)
            cfg["scenario"]["center"] = [rng.uniform(-0.25, 0.25), rng.uniform(0.1, 0.3)]
            x_f, x_s, x_i = rng.uniform(-0.4, 0.4, size=3)
            cfg["sensors"] = [
                {"name": "Sf", "kind": "fluid", "position": [x_f, rng.uniform(0.05, 0.45)]},
                {"name": "Ss", "kind": "solid", "position": [x_s, rng.uniform(-0.45, -0.05)]},
                {"name": "Si", "kind": "interface", "position": [x_i, 0.0]},
            ]
        if tiny:
            cfg["mesh"]["level"] = 2
            cfg["final_time"] = 8 * cfg["dt"]
            cfg["output"] = {"trace_every": 2, "snapshot_every": 4}
        return cli.load_config(None, cfg)

    setup = SimulationSetup
    march = staticmethod(simulate_march)
    output = staticmethod(simulate_output)

    def result(self, run, out_dir):
        data = np.loadtxt(os.path.join(out_dir, "traces.csv"), delimiter=",", skiprows=1,
                          ndmin=2)
        with open(os.path.join(out_dir, "traces.csv"), encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        return {"header": header, "traces": data, "energies": list(run.energies)}

    def reference(self, result):
        return {"header": result["header"], "traces": result["traces"].tolist(),
                "final_energy": result["energies"][-1]}

    def check(self, result, ref):
        traces, energies = result["traces"], np.asarray(result["energies"])
        if not (np.all(np.isfinite(traces)) and np.all(np.isfinite(energies))):
            return ["non-finite trace or energy"]
        if ref is None:
            grew = np.nonzero(energies[1:] > energies[:-1] * (1.0 + ENERGY_GROWTH))[0]
            if len(grew):
                return [f"energy grew at trace row {int(grew[0]) + 1}"]
            return [] if energies[-1] > 0 else ["final energy not positive"]
        want = np.asarray(ref["traces"])
        if result["header"] != ref["header"] or traces.shape != want.shape:
            return ["traces.csv columns or rows differ from the reference"]
        fails = []
        if np.max(np.abs(traces[:, 0] - want[:, 0])) > 1e-12:
            fails.append("trace times differ")
        for j, name in enumerate(ref["header"][1:], start=1):
            if not np.any(want[:, j]):
                err = float(np.max(np.abs(traces[:, j])))
            else:
                err = scenarios.sensor_error(traces[:, j], want[:, j])
            if err > TRACE_RTOL:
                fails.append(f"channel {name}: relative error {err:.2e} > {TRACE_RTOL}")
        if _rel(energies[-1], ref["final_energy"]) > ENERGY_RTOL:
            fails.append(f"final energy {energies[-1]!r} != {ref['final_energy']!r}")
        return fails


# ---------------------------------------------------------------------------
# hex_l6_implicit: implicit, factor heavy / solve few

class HexImplicit:
    """Manufactured case on the hexagon-dominant L6 mesh, 20 SDIRK34 steps.

    8,280 cells side by side: assembly, projection and a 46M-nnz LU factor
    dominate, so the march is short next to the set-up.
    """

    name = "hex_l6_implicit"

    def config(self, seed, tiny=False):
        theta = math.sqrt(2.0)
        if seed != DEFAULT_SEED:
            theta = float(np.random.default_rng(seed).uniform(1.2, 1.6))
        steps = 3 if tiny else 20
        dt = 1.0 / 640.0
        return cli.load_config(None, {
            "mesh": {"family": "polygonal-hexagonal", "level": 2 if tiny else 6,
                     "fluid_rect": [0.0, 0.0, 1.0, 1.0], "solid_rect": [-1.0, 0.0, 0.0, 1.0]},
            "degree": 1,
            "scheme": "SDIRK34",
            "dt": dt,
            "final_time": steps * dt,
            "materials": "academic",
            "scenario": {"type": "manufactured", "omega": 5.0, "theta": theta},
            "output": {"trace_every": steps},
        })

    setup = SimulationSetup
    march = staticmethod(simulate_march)
    output = staticmethod(simulate_output)

    def result(self, run, out_dir):
        err = scenarios.l2_error_dual(run.u, run.system, run.case, run.n_steps * run.dt)
        return {"l2_error_dual": err}

    def reference(self, result):
        return dict(result)

    def check(self, result, ref):
        err = result["l2_error_dual"]
        if not math.isfinite(err):
            return ["non-finite l2_error_dual"]
        if ref is None:
            return [] if err < HEX_ERROR_MAX else [f"l2_error_dual {err:.4f} >= {HEX_ERROR_MAX}"]
        if _rel(err, ref["l2_error_dual"]) > ERROR_RTOL:
            return [f"l2_error_dual {err!r} != {ref['l2_error_dual']!r}"]
        return []


# ---------------------------------------------------------------------------
# cfl_bracket: explicit path, paper Table 2

class CflSetup(Setup):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.h = float(np.mean(self.mesh.cell_diameter))
        sc = cfg["scenario"]
        case = scenarios.ManufacturedCase(sc["omega"], sc["theta"], self.materials)
        self.u0 = scenarios.manufactured_initial_state(self.system, case)


class CflBracket:
    """``scenarios.cfl_bracket`` on cartesian L4, k=1, ERK2 then ERK4 (Table 2).

    About 9,000 explicit steps, each followed by an energy evaluation.
    """

    name = "cfl_bracket"

    schemes = ("ERK2", "ERK4")

    def config(self, seed, tiny=False):
        theta = math.sqrt(2.0)
        if seed != DEFAULT_SEED:
            theta = float(np.random.default_rng(seed).uniform(1.2, 1.6))
        return cli.load_config(None, {
            "mesh": {"family": "cartesian", "level": 2 if tiny else 4,
                     "fluid_rect": [0.0, 0.0, 1.0, 1.0], "solid_rect": [-1.0, 0.0, 0.0, 1.0]},
            "degree": 1,
            "scheme": "ERK2",
            "cfl": 0.1,
            "final_time": 1.0,
            "materials": "academic",
            "scenario": {"type": "manufactured", "omega": 5.0, "theta": theta},
            "stabilization": {"eta_fluid": 0.8, "eta_solid": 1.5},
            "cfl_sweep": {"eps": 0.05, "delta": 0.01},
        })

    setup = CflSetup

    def march(self, run, out_dir):
        sweep = run.cfg["cfl_sweep"]
        bracket_cfg = scenarios.CflBracketConfig(eps=sweep["eps"], delta=sweep["delta"])
        run.estimates = {
            scheme: scenarios.cfl_bracket(run.system, timestep.tableau(scheme), run.h,
                                          u0=run.u0, final_time=run.cfg["final_time"],
                                          config=bracket_cfg)
            for scheme in self.schemes}

    def output(self, run, out_dir):
        mesh_cfg = run.cfg["mesh"]
        rows = [[mesh_cfg["family"], run.cfg["degree"], scheme, mesh_cfg["level"], est.h,
                 est.cfl_stable, est.cfl_unstable, est.n_stable, est.n_unstable]
                for scheme, est in run.estimates.items()]
        cli.write_csv(os.path.join(out_dir, "cfl.csv"),
                      ["family", "k", "scheme", "level", "h", "cfl_stable", "cfl_unstable",
                       "n_stable", "n_unstable"], rows)

    def result(self, run, out_dir):
        return {scheme: {"n_stable": est.n_stable, "n_unstable": est.n_unstable,
                         "cfl_stable": est.cfl_stable, "delta": run.cfg["cfl_sweep"]["delta"]}
                for scheme, est in run.estimates.items()}

    def reference(self, result):
        return {scheme: {"n_stable": r["n_stable"], "n_unstable": r["n_unstable"]}
                for scheme, r in result.items()}

    def check(self, result, ref):
        fails = []
        for scheme in self.schemes:
            got = result[scheme]
            pair = (got["n_stable"], got["n_unstable"])
            if ref is not None:
                want = (ref[scheme]["n_stable"], ref[scheme]["n_unstable"])
                if pair != want:
                    fails.append(f"{scheme} bracket {pair} != reference {want}")
                continue
            adjacent = pair[1] == pair[0] - max(1, int(got["delta"] * pair[0]))
            lo, hi = CFL_RANGE[scheme]
            if not (adjacent and lo <= got["cfl_stable"] <= hi):
                fails.append(f"{scheme} bracket {pair}, CFL {got['cfl_stable']:.4f} "
                             f"outside [{lo}, {hi}] or not adjacent")
        return fails


WORKLOADS = {w.name: w for w in (Ricker(), HexImplicit(), CflBracket())}


def reference_path(name):
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name):
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def with_perturbed_reference(ref):
    """A copy of a reference that no correct run matches (self-test of the gate)."""
    ref = copy.deepcopy(ref)
    if "traces" in ref:
        ref["final_energy"] *= 1.0 + 1e-3
    elif "l2_error_dual" in ref:
        ref["l2_error_dual"] *= 1.0 + 1e-3
    else:
        for entry in ref.values():
            entry["n_stable"] += 1
    return ref
