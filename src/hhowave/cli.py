"""Batch drivers: simulate, converge, cfl and efficiency subcommands.

Runs are configured by a JSON file (see README for the schema); a few common
flags override file values. Outputs are deterministic CSV tables, ASCII VTU
snapshots of cell-averaged fields, and a machine-readable JSON run summary.
Wall-clock timing covers assembly, factorization and the time loop; mesh
generation, the stability estimate that caps explicit `efficiency` steps and
file IO are excluded. The `simulate` summary also times each phase on its
own: mesh, assemble, stepper (block inverses, condensation and factor),
march (with sensors, energy and snapshots) and output (the CSV files), and
records the process's peak resident set size after each of the first four.

Exit codes: 0 success, 2 configuration error, 3 instability detected,
4 linear solver failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import os
import resource
import sys
import time

import numpy as np

from . import basis, hho, mesh as msh, scenarios, timestep
from .materials import FluidMaterial, MaterialError, MaterialMap, SolidMaterial

log = logging.getLogger("hhowave")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_SOLVER = 4

EXPLICIT_SCHEMES = ("ERK2", "ERK3", "ERK4")
IMPLICIT_SCHEMES = ("SDIRK23", "SDIRK34")
# the keys of the `efficiency` section that `cmd_efficiency` reads
EFFICIENCY_KEYS = ("schemes", "levels", "dt0", "cfl_cap")
# the assembled operators whose stored entries `simulate` reports
OPERATORS = ("mass", "k_tt", "k_tf", "k_ft", "k_ff")
# The largest Courant number c# dt / h at which an implicit `simulate` run
# passes without a warning: the fastest wave crosses at most one mean cell
# diameter per step. Implicit schemes stay stable far beyond it, but a
# larger step no longer resolves that wave in time.
IMPLICIT_COURANT_MAX = 1.0


class CliConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration

DEFAULTS = {
    "degree": 1,
    "scheme": "ERK2",
    "final_time": 1.0,
    "materials": "academic",
    "scenario": {"type": "zero"},
    "stabilization": {},
    "sensors": [],
    "output": {},
}


def load_config(path=None, overrides=None) -> dict:
    """Read, merge and validate a run configuration."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise CliConfigError("config root must be a JSON object")
        _deep_update(cfg, user)
    if overrides:
        _deep_update(cfg, overrides)
    validate_config(cfg)
    return cfg


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val


def validate_config(cfg: dict):
    if "mesh" not in cfg or not isinstance(cfg["mesh"], dict):
        raise CliConfigError("config requires a 'mesh' section")
    _reject_solver_settings(cfg)
    scheme = str(cfg.get("scheme", "")).upper()
    if scheme not in EXPLICIT_SCHEMES + IMPLICIT_SCHEMES:
        raise CliConfigError(f"unknown scheme {cfg.get('scheme')!r}")
    cfg["scheme"] = scheme
    k = cfg.get("degree")
    if not isinstance(k, int) or k < 0 or k > 4:
        raise CliConfigError("degree must be an integer in [0, 4]")
    mode = cfg.get("order_mode")
    explicit = scheme in EXPLICIT_SCHEMES
    if mode is None:
        cfg["order_mode"] = "equal" if explicit else "mixed"
    elif mode not in ("equal", "mixed"):
        raise CliConfigError("order_mode must be 'equal' or 'mixed'")
    elif explicit and mode == "mixed":
        raise CliConfigError("explicit schemes use the equal-order path")
    elif not explicit and mode == "equal":
        raise CliConfigError("implicit schemes use the mixed-order path")
    if "dt" not in cfg and "cfl" not in cfg:
        raise CliConfigError("either 'dt' or a target 'cfl' is required")
    if _float(cfg.get("final_time"), "final_time") <= 0:
        raise CliConfigError("final_time must be positive")
    stype = cfg.get("scenario", {}).get("type")
    if stype not in ("zero", "manufactured", "ricker"):
        raise CliConfigError(f"unknown scenario type {stype!r}")
    for sensor in cfg.get("sensors", []):
        if sensor.get("kind") not in ("fluid", "solid", "interface"):
            raise CliConfigError(f"unknown sensor kind in {sensor}")
        _floats(sensor.get("position"), 2, f"sensor position [x, y] in {sensor}")


def _reject_solver_settings(cfg: dict):
    """The Schur solver has no settings: CliConfigError naming any key of a
    `solver` section (the section itself if it is empty or not an object),
    or else every `efficiency` key but EFFICIENCY_KEYS, among them the
    study's former solver settings."""
    section = cfg.get("solver")
    keys = [f"solver.{key}" for key in section] if isinstance(section, dict) else []
    if "solver" in cfg and not keys:
        keys = ["solver"]
    study = ""
    eff = cfg.get("efficiency")
    if not keys and isinstance(eff, dict):
        keys = [f"efficiency.{key}" for key in eff if key not in EFFICIENCY_KEYS]
        study = f"; efficiency takes only {', '.join(EFFICIENCY_KEYS)}"
    if keys:
        raise CliConfigError(f"config key {', '.join(keys)} not accepted: the Schur complement "
                             "is always factored by the direct LU (direct-lu), which has no "
                             f"settings{study}")


def _float(val, what):
    """A config value as a float; CliConfigError naming `what` if it is not a number."""
    try:
        return float(val)
    except (TypeError, ValueError):
        raise CliConfigError(f"{what} must be a number, got {val!r}") from None


def _int(val, what):
    try:
        return int(val)
    except (TypeError, ValueError):
        raise CliConfigError(f"{what} must be an integer, got {val!r}") from None


def _floats(val, n, what):
    """A config list of `n` numbers as a tuple of floats."""
    if not isinstance(val, (list, tuple)) or len(val) != n:
        raise CliConfigError(f"{what} must be a list of {n} numbers, got {val!r}")
    return tuple(_float(v, what) for v in val)


# ---------------------------------------------------------------------------
# construction from config

def build_mesh(mesh_cfg: dict) -> msh.PolyMesh:
    if "file" in mesh_cfg:
        return msh.read_msh(mesh_cfg["file"], region_map=mesh_cfg.get("region_map"))
    if "fixture" in mesh_cfg:
        return msh.load_text(mesh_cfg["fixture"])
    if "nonconforming" in mesh_cfg:
        sub = mesh_cfg["nonconforming"]
        fluid = build_mesh(sub["fluid"])
        solid = build_mesh(sub["solid"])
        return msh.merge_nonconforming(fluid, solid)
    try:
        spec = msh.MeshGenSpec(
            family=mesh_cfg.get("family", "cartesian"),
            level=_int(mesh_cfg.get("level", 0), "mesh level"),
            fluid_rect=_rect(mesh_cfg.get("fluid_rect")),
            solid_rect=_rect(mesh_cfg.get("solid_rect")),
            n_fluid=_pair(mesh_cfg.get("n_fluid"), "n_fluid"),
            n_solid=_pair(mesh_cfg.get("n_solid"), "n_solid"),
        )
        return msh.generate(spec)
    except msh.MeshError as exc:
        raise CliConfigError(f"mesh generation failed: {exc}") from exc


def _rect(val):
    return None if val is None else _floats(val, 4, "rectangle [x0, y0, x1, y1]")


def _pair(val, what):
    if val is None:
        return None
    if not isinstance(val, (list, tuple)) or len(val) != 2:
        raise CliConfigError(f"{what} must be a list of 2 integers, got {val!r}")
    return _int(val[0], what), _int(val[1], what)


def build_materials(cfg) -> MaterialMap:
    spec = cfg.get("materials", "academic")
    if isinstance(spec, str):
        return scenarios.builtin_materials(spec)
    table = {}
    for region, entry in spec.items():
        def value(key):
            return _float(entry.get(key), f"material {region!r} {key}")

        if "kappa" in entry:
            table[region] = FluidMaterial(rho=value("rho"), kappa=value("kappa"))
        elif "c_s" in entry:
            table[region] = SolidMaterial.from_speeds(value("rho"), value("c_p"),
                                                      value("c_s"))
        elif "c_p" in entry:
            table[region] = FluidMaterial.from_speeds(value("rho"), value("c_p"))
        else:
            raise CliConfigError(f"material entry for {region!r} needs kappa or c_p/c_s")
    return MaterialMap(by_region=table)


def build_stabilization(cfg) -> hho.StabilizationConfig:
    stab = cfg.get("stabilization", {})
    equal = cfg["order_mode"] == "equal"
    make = hho.StabilizationConfig.explicit if equal else hho.StabilizationConfig.implicit
    return make(
        eta_fluid=_float(stab.get("eta_fluid", 0.8 if equal else 1.0), "eta_fluid"),
        eta_solid=_float(stab.get("eta_solid", 1.5 if equal else 1.0), "eta_solid"))


def build_scenario(cfg, system, materials):
    """Initial state and forcing for the configured scenario."""
    sc = cfg.get("scenario", {"type": "zero"})
    stype = sc.get("type", "zero")
    if stype == "zero":
        return np.zeros(system.n_cell_dofs), None, None
    if stype == "manufactured":
        case = scenarios.ManufacturedCase(_float(sc.get("omega", 5.0), "omega"),
                                          _float(sc.get("theta", math.sqrt(2.0)), "theta"),
                                          materials)
        u0 = scenarios.manufactured_initial_state(system, case)
        forcing = scenarios.manufactured_forcing(system, case)
        return u0, forcing, case
    if stype == "ricker":
        fluid = None
        for mat in materials.by_region.values():
            if isinstance(mat, FluidMaterial):
                fluid = mat
                break
        if fluid is None:
            raise CliConfigError("ricker scenario needs a fluid material")
        cfg_r = scenarios.RickerConfig(
            amplitude=_float(sc.get("amplitude", 1.0), "Ricker amplitude"),
            central_frequency=_float(sc.get("central_frequency", 10.0),
                                     "Ricker central_frequency"),
            center=_floats(sc.get("center", (0.0, 0.0)), 2, "Ricker center"),
            sound_speed=fluid.c_p)
        return scenarios.ricker_initial_state(system, cfg_r), None, cfg_r
    raise CliConfigError(f"unknown scenario type {stype!r}")


def resolve_dt(cfg, mesh, materials) -> float:
    if "dt" in cfg:
        dt = _float(cfg["dt"], "dt")
    else:
        dt = _float(cfg["cfl"], "cfl") * mean_h(mesh) / materials.c_sharp(mesh)
    if dt <= 0:
        raise CliConfigError("time step must be positive")
    return dt


def mean_h(mesh) -> float:
    """The mesh size h of Courant numbers: the mean cell diameter."""
    return float(np.mean(mesh.cell_diameter))


def courant(mesh, materials, dt) -> float:
    """Courant number c# dt / h, with c# the largest wave speed."""
    return materials.c_sharp(mesh) * dt / mean_h(mesh)


def peak_rss_mb() -> float:
    """The peak resident set size of this process so far, in MB (Linux
    reports `ru_maxrss` in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def step_count(final_time: float, dt: float):
    """Steps of constant size that end exactly at `final_time`: (n_steps, dt).

    A whole number of steps (within 1e-9 relative) keeps dt as given;
    otherwise the step count is rounded up, so dt only shrinks, with a warning.
    """
    ratio = final_time / dt
    n_steps = max(1, round(ratio))
    if abs(ratio - n_steps) <= 1e-9 * ratio:
        return n_steps, dt
    n_steps = math.ceil(ratio)
    new_dt = final_time / n_steps
    log.warning("final_time %g is not a whole number of steps of dt=%g; "
                "using %d steps of dt=%g", final_time, dt, n_steps, new_dt)
    return n_steps, new_dt


def build_stepper(cfg, system, dt):
    scheme = cfg["scheme"]
    tab = timestep.tableau(scheme)
    if tab.explicit:
        return timestep.ExplicitStepper(system, tab), tab
    return timestep.ImplicitStepper(system, tab, dt), tab


def dof_summary(system, explicit: bool) -> dict:
    layout = system.layout
    total = layout.n_cell_dofs + layout.n_face_dofs
    condensed = layout.n_cell_dofs if explicit else layout.n_face_dofs
    out = layout.summary()
    out.update({
        "dofs_before_condensation": total,
        "dofs_after_condensation": condensed,
        "condensation_reduction": 1.0 - condensed / total if total else 0.0,
        "condensed_unknowns": "cells" if explicit else "faces",
    })
    return out


# ---------------------------------------------------------------------------
# output writers

def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(val):
    if isinstance(val, float):
        return repr(val)
    return str(val)


def cell_average_rows(system) -> np.ndarray:
    """Mean-value functionals of the primal polynomials: one row per cell."""
    mesh = system.mesh
    k_prime = system.layout.k_prime
    rows = np.empty((mesh.n_cells, basis.scalar_cell_dim(k_prime)))
    for grp in basis.cell_groups(mesh, k_prime + 1):
        rows[grp.cells] = (grp.integrate(grp.basis(k_prime))
                           / mesh.cell_area[grp.cells][:, None])
    return rows


def write_vtu(path, system, u_t, mean_rows):
    """ASCII VTU snapshot: cell-averaged pressure and solid speed magnitude."""
    mesh = system.mesh
    layout = system.layout
    pressure = np.zeros(mesh.n_cells)
    vnorm = np.zeros(mesh.n_cells)
    fluid = mesh.cells_of_subdomain(msh.FLUID)
    solid = mesh.cells_of_subdomain(msh.SOLID)
    p = u_t[layout.cell_dofs(fluid, "primal")].reshape(mean_rows[fluid].shape)
    pressure[fluid] = np.einsum("ci,ci->c", mean_rows[fluid], p)
    v = u_t[layout.cell_dofs(solid, "primal")].reshape(mean_rows[solid].shape + (2,))
    v = np.einsum("ci,cia->ca", mean_rows[solid], v)
    vnorm[solid] = np.hypot(v[:, 0], v[:, 1])
    n_pts = mesh.n_vertices
    conn = np.concatenate([loop for loop in mesh.cell_vertices])
    offsets = np.cumsum([len(loop) for loop in mesh.cell_vertices])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0"?>\n')
        fh.write('<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">\n')
        fh.write(f'<UnstructuredGrid><Piece NumberOfPoints="{n_pts}" '
                 f'NumberOfCells="{mesh.n_cells}">\n')
        fh.write('<Points><DataArray type="Float64" NumberOfComponents="3" format="ascii">\n')
        for x, y in mesh.vertices:
            fh.write(f"{x} {y} 0\n")
        fh.write('</DataArray></Points>\n<Cells>\n')
        fh.write('<DataArray type="Int64" Name="connectivity" format="ascii">\n')
        fh.write(" ".join(str(int(v)) for v in conn) + "\n")
        fh.write('</DataArray>\n<DataArray type="Int64" Name="offsets" format="ascii">\n')
        fh.write(" ".join(str(int(v)) for v in offsets) + "\n")
        fh.write('</DataArray>\n<DataArray type="UInt8" Name="types" format="ascii">\n')
        fh.write(" ".join("7" for _ in range(mesh.n_cells)) + "\n")  # VTK_POLYGON
        fh.write('</DataArray>\n</Cells>\n<CellData>\n')
        for name, arr in (("pressure", pressure), ("velocity_norm", vnorm),
                          ("subdomain", mesh.subdomain.astype(float))):
            fh.write(f'<DataArray type="Float64" Name="{name}" format="ascii">\n')
            fh.write(" ".join(repr(float(v)) for v in arr) + "\n")
            fh.write('</DataArray>\n')
        fh.write('</CellData>\n</Piece></UnstructuredGrid></VTKFile>\n')


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg, out_dir) -> int:
    out_cfg = cfg.get("output", {})
    trace_every = _int(out_cfg.get("trace_every", 1), "output.trace_every")
    snap_every = _int(out_cfg.get("snapshot_every", 0), "output.snapshot_every")
    if trace_every < 1 or snap_every < 0:
        raise CliConfigError("output.trace_every must be positive and "
                             "output.snapshot_every non-negative")
    os.makedirs(out_dir, exist_ok=True)
    timings = {}            # seconds per phase
    peak_rss = {}           # MB, the process's peak RSS after each phase
    warnings = []
    t0 = time.perf_counter()
    mesh = build_mesh(cfg["mesh"])
    timings["mesh"] = time.perf_counter() - t0
    peak_rss["mesh"] = peak_rss_mb()
    materials = build_materials(cfg)
    stab = build_stabilization(cfg)
    n_steps, dt = step_count(_float(cfg["final_time"], "final_time"),
                             resolve_dt(cfg, mesh, materials))
    courant_number = courant(mesh, materials, dt)
    log.info("simulate: %d cells, %d steps of dt=%g, Courant number %.4g",
             mesh.n_cells, n_steps, dt, courant_number)
    if cfg["scheme"] in IMPLICIT_SCHEMES and courant_number > IMPLICIT_COURANT_MAX:
        warnings.append(f"Courant number {courant_number:.4g} exceeds {IMPLICIT_COURANT_MAX:g}: "
                        "the implicit steps are stable but do not resolve the fastest wave")
        log.warning("%s", warnings[-1])

    t_start = time.perf_counter()
    system = hho.assemble(mesh, materials, stab, k=cfg["degree"])
    timings["assemble"] = time.perf_counter() - t_start
    peak_rss["assemble"] = peak_rss_mb()
    operator_nnz = {name: int(getattr(system, name).nnz) for name in OPERATORS}
    log.info("operators store %d entries: %s", sum(operator_nnz.values()),
             ", ".join(f"{name} {nnz}" for name, nnz in operator_nnz.items()))
    cell_classes = system.cell_classes.summary()
    log.info("cell classes: %d classes, %d cells in class GEMMs, %d in stacked products",
             cell_classes["classes"], cell_classes["gemm_cells"], cell_classes["stacked_cells"])
    u0, forcing, _ = build_scenario(cfg, system, materials)
    t0 = time.perf_counter()
    stepper, tab = build_stepper(cfg, system, dt)
    timings["stepper"] = time.perf_counter() - t0
    peak_rss["stepper"] = peak_rss_mb()
    condensation = None if tab.explicit else {"build_s": stepper.fact.build_s}
    if condensation is not None:
        log.info("condensation built in %.3f s", condensation["build_s"])
    schur = None if tab.explicit or not system.n_face_dofs else stepper.fact.schur_solver
    if schur is not None:
        log.info("Schur LU: %d face dofs, %d nnz, %d nnz in the factors (fill %.1fx), "
                 "factored in %.2f s", schur.n, schur.matrix_nnz,
                 schur.lu_nnz, schur.lu_nnz / schur.matrix_nnz, schur.factor_s)

    sensors = [scenarios.BoundSensor(
        scenarios.SensorSpec(tuple(s["position"]), s["kind"], s.get("name", f"S{i}")),
        system) for i, s in enumerate(cfg.get("sensors", []))]
    mean_rows = cell_average_rows(system) if snap_every else None
    has_interface = any(s.spec.kind == "interface" for s in sensors)
    times, records, energies = [], [], []
    progress_every = max(1, n_steps // 10)

    def observe(n, t, u):
        if n and n % progress_every == 0:
            elapsed = time.perf_counter() - march_start
            log.info("step %d/%d (%.0f%%), elapsed %.1f s, ETA %.1f s", n, n_steps,
                     100.0 * n / n_steps, elapsed, elapsed * (n_steps - n) / n)
        if n % trace_every == 0:
            u_f = stepper.face_values(u) if has_interface else None
            times.append(t)
            records.append([s.record(u, u_f, system.layout) for s in sensors])
            with np.errstate(over="raise"):
                try:
                    energies.append(scenarios.energy(u, system))
                except FloatingPointError:
                    raise timestep.InstabilityError(n) from None
        if snap_every and n % snap_every == 0:
            write_vtu(os.path.join(out_dir, f"snapshot_{n:04d}.vtu"), system, u, mean_rows)

    status = "completed"
    failed_step = None
    march_start = time.perf_counter()
    try:
        timestep.run_time_loop(stepper, u0, dt, n_steps, forcing, observer=observe)
    except timestep.InstabilityError as exc:
        status = "instability"
        failed_step = exc.step_index
    end = time.perf_counter()
    timings["march"] = end - march_start
    peak_rss["march"] = peak_rss_mb()
    wall = end - t_start

    if sensors:
        header = ["time"] + [f"{s.spec.name}.{ch}" for s in sensors for ch in s.channels]
        rows = [[t] + [float(v) for rec in recs for v in rec]
                for t, recs in zip(times, records)]
        write_csv(os.path.join(out_dir, out_cfg.get("traces", "traces.csv")),
                  header, rows)
    write_csv(os.path.join(out_dir, "energy.csv"), ["time", "energy"],
              list(zip(times, energies)))
    timings["output"] = time.perf_counter() - end
    log.info("timings: %s", ", ".join(f"{name} {sec:.3f} s" for name, sec in timings.items()))
    log.info("peak RSS: %s", ", ".join(f"{name} {mb:.1f} MB" for name, mb in peak_rss.items()))
    drift = energy_max_drift(energies)
    if drift is not None:
        log.info("energy: largest relative drift %.3e over %d records", drift, len(energies))

    summary = {
        "config": cfg,
        "n_cells": int(mesh.n_cells),
        "n_faces": int(mesh.n_faces),
        "dt": dt,
        "courant": courant_number,
        "steps": n_steps,
        "wall_time_seconds": wall,
        "timings": timings,
        "peak_rss_mb": peak_rss,
        "warnings": warnings,
        "operator_nnz": operator_nnz,
        "cell_classes": cell_classes,
        "status": status,
        "failed_step": failed_step,
        "energy_initial": energies[0] if energies else None,
        "energy_final": energies[-1] if energies else None,
        "energy_max_drift": drift,
        "dofs": dof_summary(system, tab.explicit),
    }
    if condensation is not None:
        summary["condensation"] = condensation
    if schur is not None:
        summary["solver"] = schur.stats()
    with open(os.path.join(out_dir, out_cfg.get("summary", "summary.json")),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
    if status == "instability":
        log.error("instability detected at step %s", failed_step)
        return EXIT_INSTABILITY
    return EXIT_OK


def energy_max_drift(energies):
    """max_n |E_n - E_0| / E_0 over the recorded energies; None without a
    positive initial energy."""
    if not energies or not energies[0] > 0:
        return None
    e = np.asarray(energies)
    return float(np.max(np.abs(e - e[0])) / e[0])


def _manufactured_run(cfg, system, n_steps, dt):
    """One run of a study: march the manufactured case, measure the error.

    Returns the dual-variable L2 error at the final time and the seconds
    spent from the scenario set-up through the time loop.
    """
    t0 = time.perf_counter()
    u0, forcing, case = build_scenario(cfg, system, system.materials)
    stepper, _ = build_stepper(cfg, system, dt)
    u = timestep.run_time_loop(stepper, u0, dt, n_steps, forcing=forcing)
    wall = time.perf_counter() - t0
    return scenarios.l2_error_dual(u, system, case, n_steps * dt), wall


def cmd_converge(cfg, out_dir, levels) -> int:
    if len(levels) < 2:
        raise CliConfigError("convergence study needs at least 2 levels")
    os.makedirs(out_dir, exist_ok=True)
    materials = build_materials(cfg)
    if cfg.get("scenario", {}).get("type") != "manufactured":
        raise CliConfigError("convergence study requires the manufactured scenario")
    rows = []
    prev_err = None
    for level in levels:
        mesh = build_mesh(dict(cfg["mesh"], level=level))
        n_steps, dt = step_count(_float(cfg["final_time"], "final_time"),
                                 resolve_dt(cfg, mesh, materials))
        system = hho.assemble(mesh, materials, build_stabilization(cfg), k=cfg["degree"])
        err, _ = _manufactured_run(cfg, system, n_steps, dt)
        rate = math.log2(prev_err / err) if prev_err else float("nan")
        h = mean_h(mesh)
        rows.append([level, h, err, rate])
        prev_err = err
        log.info("level %d: error %.3e rate %.2f", level, err, rate)
    write_csv(os.path.join(out_dir, "convergence.csv"),
              ["level", "h", "error", "rate"], rows)
    return EXIT_OK


def cmd_cfl(cfg, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    sweep = cfg.get("cfl_sweep", {})
    families = sweep.get("families", ["cartesian"])
    degrees = sweep.get("degrees", [cfg.get("degree", 1)])
    schemes = [s.upper() for s in sweep.get("schemes", ["ERK2"])]
    level = _int(sweep.get("level", 4), "cfl_sweep level")
    bracket_cfg = scenarios.CflBracketConfig(
        eps=_float(sweep.get("eps", 0.05), "cfl_sweep eps"),
        delta=_float(sweep.get("delta", 0.01), "cfl_sweep delta"))
    final_time = _float(cfg.get("final_time", 1.0), "final_time")
    materials = build_materials(cfg)
    stab = build_stabilization(dict(cfg, order_mode="equal"))
    results = {}
    rows = []
    for family in families:
        mesh = build_mesh(dict(cfg["mesh"], family=family, level=level))
        h = mean_h(mesh)
        for k in degrees:
            system = hho.assemble(mesh, materials, stab, k=k)
            for scheme in schemes:
                tab = timestep.tableau(scheme)
                est = scenarios.cfl_bracket(system, tab, h, final_time=final_time,
                                            config=bracket_cfg)
                results[(family, k, scheme)] = est
                log.info("cfl %s k=%d %s: [%.4f, %.4f], spectral seed %.4f, %d energy runs",
                         family, k, scheme, est.cfl_stable, est.cfl_unstable,
                         est.cfl_spectral, est.runs)
    for (family, k, scheme), est in results.items():
        base_s = results.get((family, k, schemes[0]))
        base_k = results.get((family, degrees[0], scheme))
        rows.append([family, k, scheme, level, est.h, est.cfl_stable,
                     est.cfl_unstable, est.n_stable, est.n_unstable,
                     est.cfl_stable / base_s.cfl_stable if base_s else float("nan"),
                     est.cfl_stable / base_k.cfl_stable if base_k else float("nan"),
                     est.cfl_spectral, est.runs])
    write_csv(os.path.join(out_dir, "cfl.csv"),
              ["family", "k", "scheme", "level", "h", "cfl_stable", "cfl_unstable",
               "n_stable", "n_unstable", "ratio_s", "ratio_k", "cfl_spectral", "runs"],
              rows)
    return EXIT_OK


def cmd_efficiency(cfg, out_dir) -> int:
    os.makedirs(out_dir, exist_ok=True)
    eff = cfg.get("efficiency", {})
    schemes = [s.upper() for s in eff.get("schemes", ["ERK2", "SDIRK34"])]
    levels = eff.get("levels", [0, 1, 2])
    dt0 = _float(eff.get("dt0", 0.01), "efficiency dt0")
    cfl_cap = _float(eff.get("cfl_cap", 0.9), "efficiency cfl_cap")
    materials = build_materials(cfg)
    if cfg.get("scenario", {}).get("type") != "manufactured":
        raise CliConfigError("efficiency study requires the manufactured scenario")
    k = cfg["degree"]
    final_time = _float(cfg["final_time"], "final_time")
    rows = [[] for _ in schemes]
    for level in levels:
        # one mesh per level, one system per order mode the schemes use
        mesh = build_mesh(dict(cfg["mesh"], level=level))
        h = mean_h(mesh)
        systems = {}
        for scheme, scheme_rows in zip(schemes, rows):
            tab = timestep.tableau(scheme)
            run_cfg = dict(cfg, scheme=scheme, order_mode="equal" if tab.explicit else "mixed")
            if run_cfg["order_mode"] not in systems:
                t0 = time.perf_counter()
                system = hho.assemble(mesh, materials, build_stabilization(run_cfg), k=k)
                if tab.explicit:
                    # L, shared by the explicit schemes and charged to each of them
                    system.explicit_op
                systems[run_cfg["order_mode"]] = system, time.perf_counter() - t0
            system, assemble_s = systems[run_cfg["order_mode"]]
            dt = dt0 * 2.0 ** (-level * (k + 1) / (tab.s + 1))
            if tab.explicit:
                # explicit steps are bounded by this system's own stability limit
                # (one untimed ARPACK call per level, shared by the schemes)
                dt_stable, _ = scenarios.spectral_dt(timestep.ExplicitStepper(system, tab), h)
                dt = min(dt, cfl_cap * dt_stable)
            n_steps, dt = step_count(final_time, dt)
            err, march_s = _manufactured_run(run_cfg, system, n_steps, dt)
            wall = assemble_s + march_s
            scheme_rows.append([scheme, level, dt, n_steps, err, wall])
            log.info("%s level %d: err %.3e cpu %.2fs", scheme, level, err, wall)
    write_csv(os.path.join(out_dir, "efficiency.csv"),
              ["scheme", "level", "dt", "steps", "error", "cpu_seconds"],
              [row for scheme_rows in rows for row in scheme_rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhowave",
        description="Coupled elasto-acoustic wave simulator on polygonal meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("simulate", "run one simulation"),
                            ("converge", "spatial convergence study"),
                            ("cfl", "empirical CFL bracketing sweep"),
                            ("efficiency", "error versus CPU-time comparison")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--mesh", help="MSH v2.2 mesh file overriding the config")
        p.add_argument("--out", default=".", help="output directory")
        if name == "converge":
            p.add_argument("--levels", default="2,3,4",
                           help="comma-separated refinement levels")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("HHOWAVE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    overrides = {}
    if args.mesh:
        overrides["mesh"] = {"file": args.mesh}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "converge":
            try:
                levels = [int(v) for v in args.levels.split(",")]
            except ValueError:
                raise CliConfigError(f"--levels must be comma-separated integers, "
                                     f"got {args.levels!r}") from None
            return cmd_converge(cfg, args.out, levels)
        if args.command == "cfl":
            return cmd_cfl(cfg, args.out)
        if args.command == "efficiency":
            return cmd_efficiency(cfg, args.out)
        raise CliConfigError(f"unknown command {args.command}")
    except (CliConfigError, hho.ConfigError, msh.MeshError, MaterialError,
            basis.QuadratureError, scenarios.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except timestep.InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except timestep.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
