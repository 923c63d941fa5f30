"""Batch drivers: simulate, converge, cfl and efficiency subcommands.

Runs are configured by a JSON file that one table, CONFIG, checks key by key
(see README for the schema); `--mesh` replaces its mesh section, and the
studies refine a generated mesh only. Outputs are deterministic CSV tables,
ASCII VTU snapshots of cell-averaged fields, and a JSON run summary with
per-phase timings and peak memory. Wall-clock timing covers assembly,
factorization and the time loop; mesh generation, the stability estimate
that caps explicit `efficiency` steps and file IO are excluded.

Exit codes: 0 success, 2 configuration error, 3 instability detected,
4 linear solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
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
# the assembled operators whose stored entries `simulate` reports, and the
# attribute of the system that counts them without forming a CSR: K_FF's
# from its face blocks
OPERATORS = {"mass": "mass", "k_tt": "k_tt", "k_tf": "k_tf", "k_ft": "k_ft",
             "k_ff": "kff_blocks"}
# The largest Courant number c# dt / h at which an implicit `simulate` run
# passes without a warning: the fastest wave crosses at most one mean cell
# diameter per step. Implicit schemes stay stable far beyond it, but a
# larger step no longer resolves that wave in time.
IMPLICIT_COURANT_MAX = 1.0


class CliConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration schema
#
# Each config object is a Section: its allowed keys, each with a rule and a
# default. A rule takes a value and its label in messages and returns the value
# the run uses, or raises CliConfigError. A REQUIRED key has no default; an
# OPTIONAL one stays absent, so the default of what it feeds holds.

REQUIRED, OPTIONAL = object(), object()


class Section:
    """Rule for a config object: `keys` maps each allowed key to (rule, default);
    `label` renames the object in messages, `note` follows its unknown keys'."""

    def __init__(self, keys, label=None, note=None):
        self.keys, self.label, self.note = keys, label, note

    def __call__(self, val, what):
        what = self.label or what
        _need(isinstance(val, dict), val, what or "config", "an object")
        out = {}
        for key, (rule, default) in self.keys.items():
            if key not in val and default is REQUIRED:
                raise CliConfigError(f"{what or 'config'} requires {key!r}")
            if key in val or default is not OPTIONAL:
                out[key] = rule(val[key] if key in val else default, f"{what} {key}".lstrip())
        return out


def _need(ok, val, what, must):
    """`val` if `ok`, else CliConfigError: `what` must be `must`."""
    if not ok:
        raise CliConfigError(f"{what} must be {must}, got {val!r}")
    return val


def _number(val, what, must="a number"):
    """A finite JSON number (a bool is none) as a float."""
    return float(_need(isinstance(val, (int, float)) and not isinstance(val, bool)
                       and math.isfinite(val), val, what, must))


def _positive(val, what):
    return _need(_number(val, what) > 0, float(val), what, "positive")


def _integer(low, high=math.inf):
    """Rule: an integer in [low, high]; a bool or a fractional number is none."""
    bound = f"in [{low}, {high}]" if high < math.inf else ("positive" if low else "non-negative")

    def rule(val, what):
        _need(_number(val, what, "an integer").is_integer(), val, what, "an integer")
        return int(_need(low <= val <= high, val, what, bound))
    return rule


def _kind(cls, must):
    return lambda val, what: _need(isinstance(val, cls), val, what, must)


def _choice(*names, upper=False):
    """Rule: one of `names`, in any letter case if `upper`."""
    def rule(val, what):
        val = val.upper() if upper and isinstance(val, str) else val
        return _need(val in names, val, what, f"one of {', '.join(names)}")
    return rule


def _list(item, n=None, kind=""):
    """Rule: a list whose entries follow `item`; with `n`, a tuple of `n` `kind`."""
    def rule(val, what):
        _need(isinstance(val, (list, tuple)) and len(val) == (n or len(val)), val, what,
              f"a list of {n} {kind}" if n else "a list")
        return (tuple if n else list)(item(v, what) for v in val)
    return rule


def _form(forms, val):
    """The first of `forms` whose key config object `val` holds, else the last."""
    return forms[next((key for key in forms if isinstance(val, dict) and key in val),
                      list(forms)[-1])]


def _mesh(val, what):
    return _form(MESH_FORMS, val)[1](val, what)


def _scenario(val, what):
    """Rule for `scenario`: its `type` picks the table of its other keys."""
    kind = val["type"] if isinstance(val, dict) and "type" in val else None
    return SCENARIOS[_choice(*SCENARIOS)(kind, "scenario type")](val, what)


def _materials(val, what):
    """Rule for `materials`: a built-in set's name, or one entry per region."""
    if isinstance(val, str):
        return val
    _need(isinstance(val, dict), val, what, "a name or an object")
    return {region: _form(MATERIAL_FORMS, entry)[1](entry, f"material {region!r}")
            for region, entry in val.items()}


def _unknown(raw, out, path=""):
    """The dotted paths of the keys of config `raw` that resolving it to `out` left out."""
    if isinstance(raw, (list, tuple)) and isinstance(out, (list, tuple)):
        raw, out = dict(enumerate(raw)), dict(enumerate(out))
    if not (isinstance(raw, dict) and isinstance(out, dict)):
        return []
    return [found for key, val in raw.items() for found in (
        _unknown(val, out[key], f"{path}{key}.") if key in out else [f"{path}{key}"])]


_TEXT = _kind(str, "a string")
_POINT = _list(_number, 2, "numbers")
_RECT = _list(_number, 4, "numbers")
_COUNTS = _list(_integer(1), 2, "integers")
_SCHEME = _choice(*EXPLICIT_SCHEMES, *IMPLICIT_SCHEMES, upper=True)
DT_RULE = "exactly one of 'dt' or a target 'cfl' is required"
LU_NOTE = ("the Schur complement is always factored by the direct LU (direct-lu), "
           "which has no settings: a float64 LU, or from 1M entries of S a dropped "
           "float32 LU refined in float64")

# per form, picked by _form: (what it builds, its table)
MESH_FORMS = {
    "file": (lambda m: msh.read_msh(m["file"], m.get("region_map")), Section({
        "file": (_TEXT, REQUIRED), "region_map": (_kind(dict, "an object"), OPTIONAL)})),
    "fixture": (lambda m: msh.load_text(m["fixture"]), Section({"fixture": (_TEXT, REQUIRED)})),
    "nonconforming": (
        lambda m: msh.merge_nonconforming(build_mesh(m["nonconforming"]["fluid"]),
                                          build_mesh(m["nonconforming"]["solid"])),
        Section({"nonconforming": (Section({"fluid": (_mesh, REQUIRED),
                                            "solid": (_mesh, REQUIRED)}), REQUIRED)})),
    "family": (lambda m: msh.generate(msh.MeshGenSpec(**m)), Section({
        "family": (_choice(*msh.FAMILIES), "cartesian"),
        "level": (_integer(0), OPTIONAL),
        "fluid_rect": (_RECT, OPTIONAL), "solid_rect": (_RECT, OPTIONAL),
        "n_fluid": (_COUNTS, OPTIONAL), "n_solid": (_COUNTS, OPTIONAL)})),
}
MATERIAL_FORMS = {    # every key of a material entry is a required number
    "kappa": (FluidMaterial, Section(dict.fromkeys(("rho", "kappa"), (_number, REQUIRED)))),
    "c_s": (SolidMaterial.from_speeds, Section(dict.fromkeys(("rho", "c_p", "c_s"),
                                                             (_number, REQUIRED)))),
    "c_p": (FluidMaterial.from_speeds, Section(dict.fromkeys(("rho", "c_p"), (_number, REQUIRED)))),
}
SCENARIOS = {
    "zero": Section({"type": (_TEXT, REQUIRED)}),
    "manufactured": Section({"type": (_TEXT, REQUIRED),
                             "omega": (_number, scenarios.MANUFACTURED_OMEGA),
                             "theta": (_number, scenarios.MANUFACTURED_THETA)}),
    "ricker": Section({"type": (_TEXT, REQUIRED),
                       "amplitude": (_number, scenarios.RickerConfig().amplitude),
                       "central_frequency": (_number, scenarios.RickerConfig().central_frequency),
                       "center": (_POINT, scenarios.RickerConfig().center)}, label="Ricker"),
}
SENSOR = Section({"name": (_TEXT, OPTIONAL),         # S<index> by default
                  "kind": (_choice("fluid", "solid", "interface"), REQUIRED),
                  "position": (_POINT, REQUIRED)}, label="sensor")
CONFIG = Section({
    "mesh": (_mesh, REQUIRED),
    "degree": (_integer(0, 4), 1),
    "scheme": (_SCHEME, "ERK2"),
    "dt": (_positive, OPTIONAL),        # simulate and converge read one of dt or cfl
    "cfl": (_positive, OPTIONAL),
    "final_time": (_positive, 1.0),
    "materials": (_materials, "academic"),
    "scenario": (_scenario, {"type": "zero"}),
    # a weight left out keeps StabilizationConfig.explicit's or .implicit's
    "stabilization": (Section({"eta_fluid": (_positive, OPTIONAL),
                               "eta_solid": (_positive, OPTIONAL)}), {}),
    "sensors": (_list(SENSOR), []),
    "output": (Section({"traces": (_TEXT, "traces.csv"), "trace_every": (_integer(1), 1),
                        "snapshot_every": (_integer(0), 0),
                        "summary": (_TEXT, "summary.json")}), {}),
    "cfl_sweep": (Section({
        "families": (_list(_choice(*msh.FAMILIES)), ["cartesian"]),
        "degrees": (_list(_integer(0, 4)), OPTIONAL),     # [degree] by default
        "schemes": (_list(_choice(*EXPLICIT_SCHEMES, upper=True)), ["ERK2"]),
        "level": (_integer(0), 4),
        "eps": (_number, scenarios.CflBracketConfig().eps),
        "delta": (_number, scenarios.CflBracketConfig().delta)}), {}),
    "efficiency": (Section({
        "schemes": (_list(_SCHEME), ["ERK2", "SDIRK34"]),
        "levels": (_list(_integer(0)), [0, 1, 2]),
        "dt0": (_positive, 0.01), "cfl_cap": (_positive, 0.9)}, note=LU_NOTE), {}),
    "solver": (Section({}, note=LU_NOTE), OPTIONAL),
})


def load_config(path=None, overrides=None) -> dict:
    """Read a run configuration, merge `overrides` into it and resolve it."""
    cfg = {} if path is None else _read_config(path)
    _deep_update(cfg, overrides or {})
    return validate_config(cfg)


def _read_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliConfigError(f"cannot read config {path}: {exc}") from exc
    return _need(isinstance(cfg, dict), cfg, "config root", "a JSON object")


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val


def validate_config(cfg: dict) -> dict:
    """`cfg` resolved against CONFIG: every value checked and converted, every
    absent key with a default at it; `cfg` is left as it is."""
    raw, cfg = cfg, CONFIG(cfg, "")
    unknown = _unknown(raw, cfg)
    if unknown:
        notes = dict.fromkeys(getattr(CONFIG.keys[path.split(".")[0]][0], "note", None)
                              for path in unknown if "." in path)
        raise CliConfigError(f"unknown config key{'s' if len(unknown) > 1 else ''} "
                             f"{', '.join(unknown)}" + "".join(f"; {n}" for n in notes if n))
    # the rules and defaults that follow other keys
    if "dt" in cfg and "cfl" in cfg:
        raise CliConfigError(DT_RULE)
    cfg["cfl_sweep"].setdefault("degrees", [cfg["degree"]])
    for i, sensor in enumerate(cfg["sensors"]):
        sensor.setdefault("name", f"S{i}")
    return cfg


# ---------------------------------------------------------------------------
# construction from config

def build_mesh(mesh_cfg: dict) -> msh.PolyMesh:
    return _form(MESH_FORMS, mesh_cfg)[0](mesh_cfg)


def build_materials(cfg) -> MaterialMap:
    spec = cfg["materials"]
    if isinstance(spec, str):
        return scenarios.builtin_materials(spec)
    return MaterialMap(by_region={region: _form(MATERIAL_FORMS, entry)[0](**entry)
                                  for region, entry in spec.items()})


def build_stabilization(cfg) -> hho.StabilizationConfig:
    """The stabilization of the scheme's path: equal order for an explicit
    scheme, mixed order for an implicit one."""
    make = (hho.StabilizationConfig.explicit if cfg["scheme"] in EXPLICIT_SCHEMES
            else hho.StabilizationConfig.implicit)
    return make(**cfg["stabilization"])


def build_scenario(cfg, system, materials):
    """Initial state and forcing for the configured scenario."""
    sc = cfg["scenario"]
    if sc["type"] == "zero":
        return np.zeros(system.n_cell_dofs), None, None
    if sc["type"] == "manufactured":
        case = scenarios.ManufacturedCase(sc["omega"], sc["theta"], materials)
        u0 = scenarios.manufactured_initial_state(system, case)
        forcing = scenarios.manufactured_forcing(system, case)
        return u0, forcing, case
    fluid = next((mat for mat in materials.by_region.values()
                  if isinstance(mat, FluidMaterial)), None)
    if fluid is None:
        raise CliConfigError("ricker scenario needs a fluid material")
    cfg_r = scenarios.RickerConfig(sc["amplitude"], sc["central_frequency"], sc["center"],
                                   sound_speed=fluid.c_p)
    return scenarios.ricker_initial_state(system, cfg_r), None, cfg_r


def require_dt(cfg):
    """CliConfigError unless `cfg` gives `dt` or a target `cfl`, which
    `simulate` and `converge` read (`validate_config` refuses both)."""
    if "dt" not in cfg and "cfl" not in cfg:
        raise CliConfigError(DT_RULE)


def resolve_dt(cfg, mesh, materials) -> float:
    """The configured `dt`, else the one of the target Courant number `cfl`."""
    return cfg["dt"] if "dt" in cfg else cfg["cfl"] * mean_h(mesh) / materials.c_sharp(mesh)


def mean_h(mesh) -> float:
    """The mesh size h of Courant numbers: the mean cell diameter."""
    return float(np.mean(mesh.cell_diameter))


def courant(mesh, materials, dt) -> float:
    """Courant number c# dt / h, with c# the largest wave speed."""
    return materials.c_sharp(mesh) * dt / mean_h(mesh)


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
    tab = timestep.tableau(cfg["scheme"])
    if tab.explicit:
        return timestep.ExplicitStepper(system, tab), tab
    return timestep.ImplicitStepper(system, tab, dt), tab


def dof_summary(system, explicit: bool) -> dict:
    layout = system.layout
    total = layout.n_cell_dofs + layout.n_face_dofs
    condensed = layout.n_cell_dofs if explicit else layout.n_face_dofs
    return dict(layout.summary(), dofs_before_condensation=total,
                dofs_after_condensation=condensed,
                condensation_reduction=1.0 - condensed / total if total else 0.0,
                condensed_unknowns="cells" if explicit else "faces")


# ---------------------------------------------------------------------------
# output writers

def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def cell_average_rows(system) -> np.ndarray:
    """Mean-value functionals of the primal polynomials: one row per cell,
    formed once per congruence class (`hho.CellClasses.rules`) and divided by
    the rule's own area, its integral of the constant monomial."""
    k_prime = system.layout.k_prime
    rows = np.empty((system.mesh.n_cells, basis.scalar_cell_dim(k_prime)))
    for rule in system.cell_classes.rules():
        integrals = np.einsum("uq,uqi->ui", rule.weights, rule.basis(k_prime))
        rows[rule.cells] = (integrals / integrals[:, :1])[rule.member]
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<?xml version="1.0"?>\n')
        fh.write('<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">\n')
        fh.write(f'<UnstructuredGrid><Piece NumberOfPoints="{mesh.n_vertices}" '
                 f'NumberOfCells="{mesh.n_cells}">\n')
        fh.write('<Points><DataArray type="Float64" NumberOfComponents="3" format="ascii">\n')
        for x, y in mesh.vertices:
            fh.write(f"{x} {y} 0\n")
        fh.write('</DataArray></Points>\n<Cells>\n')

        def data_array(kind, name, values):
            fh.write(f'<DataArray type="{kind}" Name="{name}" format="ascii">\n'
                     + " ".join(map(repr, values.tolist())) + "\n</DataArray>\n")

        # the cells are the mesh's edge table: its vertex column and offsets
        data_array("Int64", "connectivity", mesh.edge_start)
        data_array("Int64", "offsets", mesh.cell_offsets[1:])
        data_array("UInt8", "types", np.full(mesh.n_cells, 7))    # VTK_POLYGON
        fh.write('</Cells>\n<CellData>\n')
        for name, arr in (("pressure", pressure), ("velocity_norm", vnorm),
                          ("subdomain", mesh.subdomain.astype(float))):
            data_array("Float64", name, arr)
        fh.write('</CellData>\n</Piece></UnstructuredGrid></VTKFile>\n')


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg, out_dir) -> int:
    require_dt(cfg)
    out_cfg = cfg["output"]
    trace_every, snap_every = out_cfg["trace_every"], out_cfg["snapshot_every"]
    timings = {}            # seconds per phase
    # MB, the process's peak and current RSS when the command begins
    # (interpreter, imports, config) and after each phase; the current one
    # only where /proc/self/statm exists
    peak_rss, rss = {}, {}

    def record_rss(phase, peak=None, current=None):
        if peak is None:
            current, peak = timestep.current_rss_mb(), timestep.peak_rss_mb()
        peak_rss[phase] = peak
        if current is not None:
            rss[phase] = current

    record_rss("start")
    warnings = []
    t0 = time.perf_counter()
    mesh = build_mesh(cfg["mesh"])
    timings["mesh"] = time.perf_counter() - t0
    record_rss("mesh")
    materials = build_materials(cfg)
    stab = build_stabilization(cfg)
    n_steps, dt = step_count(cfg["final_time"], resolve_dt(cfg, mesh, materials))
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
    record_rss("assemble")
    operator_nnz = {name: int(getattr(system, attr).nnz) for name, attr in OPERATORS.items()}
    log.info("operators store %d entries: %s", sum(operator_nnz.values()),
             ", ".join(f"{name} {nnz}" for name, nnz in operator_nnz.items()))
    cell_classes = system.cell_classes.summary()
    log.info("cell classes: %d classes, %d cells in class GEMMs, %d in stacked products",
             cell_classes["classes"], cell_classes["gemm_cells"], cell_classes["stacked_cells"])
    u0, forcing, _ = build_scenario(cfg, system, materials)
    t0 = time.perf_counter()
    stepper, tab = build_stepper(cfg, system, dt)
    timings["stepper"] = time.perf_counter() - t0
    condensation = None if tab.explicit else {"build_s": stepper.fact.build_s}
    if condensation is None:
        record_rss("stepper")
    else:       # the Schur matrix built, then its LU
        record_rss("condensation", stepper.fact.build_rss_mb, stepper.fact.build_current_rss_mb)
        record_rss("factor")
        log.info("condensation built in %.3f s", condensation["build_s"])
    schur = None if tab.explicit or not system.n_face_dofs else stepper.fact.schur_solver
    if schur is not None:
        log.info("Schur LU: %d face dofs, %d nnz, %d nnz in the %s factors (fill %.1fx, "
                 "%.0f per face dof), factored in %.2f s", schur.n, schur.matrix_nnz,
                 schur.lu_nnz, schur.precision, schur.lu_nnz / schur.matrix_nnz,
                 schur.lu_nnz / schur.n, schur.factor_s)

    sensors = [scenarios.BoundSensor(scenarios.SensorSpec(s["position"], s["kind"], s["name"]),
                                     system) for s in cfg["sensors"]]
    mean_rows = cell_average_rows(system) if snap_every else None
    has_interface = any(s.spec.kind == "interface" for s in sensors)
    times, records, energies = [], [], []
    progress_every = max(1, n_steps // 10)

    def observe(n, t, u):
        if n and n % progress_every == 0:
            elapsed = time.perf_counter() - march_start
            current = timestep.current_rss_mb()
            log.info("step %d/%d (%.0f%%), elapsed %.1f s, %sETA %.1f s", n, n_steps,
                     100.0 * n / n_steps, elapsed,
                     "" if current is None else f"RSS {current:.1f} MB, ",
                     elapsed * (n_steps - n) / n)
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

    os.makedirs(out_dir, exist_ok=True)    # nothing is written before the march
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
    record_rss("march")
    wall = end - t_start

    if sensors:
        header = ["time"] + [f"{s.spec.name}.{ch}" for s in sensors for ch in s.channels]
        rows = [[t] + [float(v) for rec in recs for v in rec]
                for t, recs in zip(times, records)]
        write_csv(os.path.join(out_dir, out_cfg["traces"]), header, rows)
    write_csv(os.path.join(out_dir, "energy.csv"), ["time", "energy"],
              list(zip(times, energies)))
    timings["output"] = time.perf_counter() - end
    log.info("timings: %s", ", ".join(f"{name} {sec:.3f} s" for name, sec in timings.items()))
    log.info("peak RSS: %s%s", mb_list(peak_rss), f"; current RSS: {mb_list(rss)}" if rss else "")
    if schur is not None:
        log.info("Schur LU: %d solves in %.3f s, %d %s LU solves (at most %d in one), "
                 "largest residual %.2e", schur.solves, schur.solve_s, schur.corrections,
                 schur.precision, schur.max_corrections, schur.max_residual)
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
    if rss:
        summary["rss_mb"] = rss
    if condensation is not None:
        summary["condensation"] = condensation
    if schur is not None:
        summary["solver"] = schur.stats()
    with open(os.path.join(out_dir, out_cfg["summary"]), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
    if status == "instability":
        log.error("instability detected at step %s", failed_step)
        return EXIT_INSTABILITY
    return EXIT_OK


def mb_list(megabytes):
    """'phase 1.0 MB, ...' for a ledger of MB per phase."""
    return ", ".join(f"{name} {mb:.1f} MB" for name, mb in megabytes.items())


def energy_max_drift(energies):
    """max_n |E_n - E_0| / E_0 over the recorded energies; None without a
    positive initial energy."""
    if not energies or not energies[0] > 0:
        return None
    e = np.asarray(energies)
    return float(np.max(np.abs(e - e[0])) / e[0])


def study_meshes(cfg, levels, families):
    """Each (family, level, mesh) of a study, the mesh built when it is reached; a
    mesh without levels (file, fixture, nonconforming) exits 2 before any is built."""
    if "family" not in cfg["mesh"]:
        raise CliConfigError(f"a study refines a generated mesh (mesh family), "
                             f"not a {next(iter(cfg['mesh']))} mesh")
    return ((family, level, build_mesh(dict(cfg["mesh"], family=family, level=level)))
            for family in families for level in levels)


def manufactured_study(cfg, levels, schemes, step_dt):
    """Per scheme, one (level, h, dt, steps, error, seconds) row per level of the
    manufactured case; `step_dt(level, tab, system)` is the step a run asks for.
    The schemes of one order mode share their level's system, whose assembly
    (with L when explicit) a row's seconds add to its own run, `step_dt` untimed."""
    if cfg["scenario"]["type"] != "manufactured":
        raise CliConfigError("converge and efficiency need the manufactured scenario")
    materials = build_materials(cfg)
    rows = [[] for _ in schemes]
    for _, level, mesh in study_meshes(cfg, levels, [cfg["mesh"].get("family")]):
        systems = {}
        for scheme, scheme_rows in zip(schemes, rows):
            tab = timestep.tableau(scheme)
            mode = "equal" if tab.explicit else "mixed"
            run_cfg = dict(cfg, scheme=scheme)
            if mode not in systems:
                t0 = time.perf_counter()
                system = hho.assemble(mesh, materials, build_stabilization(run_cfg), cfg["degree"])
                if tab.explicit:
                    system.explicit_op      # L, shared by the explicit schemes, charged to each
                systems[mode] = system, time.perf_counter() - t0
            system, assemble_s = systems[mode]
            n_steps, dt = step_count(cfg["final_time"], step_dt(level, tab, system))
            t0 = time.perf_counter()
            u0, forcing, case = build_scenario(run_cfg, system, materials)
            stepper, _ = build_stepper(run_cfg, system, dt)
            u = timestep.run_time_loop(stepper, u0, dt, n_steps, forcing=forcing)
            wall = assemble_s + time.perf_counter() - t0
            err = scenarios.l2_error_dual(u, system, case, n_steps * dt)
            scheme_rows.append((level, mean_h(mesh), dt, n_steps, err, wall))
            log.info("%s level %d: %d steps of dt=%g, error %.3e, %.2f s",
                     scheme, level, n_steps, dt, err, wall)
    return rows


def cmd_converge(cfg, out_dir, levels) -> int:
    if len(levels) < 2:
        raise CliConfigError("convergence study needs at least 2 levels")
    require_dt(cfg)
    (runs,) = manufactured_study(cfg, levels, [cfg["scheme"]], lambda level, tab, system:
                                 resolve_dt(cfg, system.mesh, system.materials))
    errors = [None] + [run[4] for run in runs]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "convergence.csv"), ["level", "h", "error", "rate"],
              [[level, h, err, math.log2(prev / err) if prev else float("nan")]
               for (level, h, _, _, err, _), prev in zip(runs, errors)])
    return EXIT_OK


def cmd_cfl(cfg, out_dir) -> int:
    sweep = cfg["cfl_sweep"]
    degrees, schemes, level = sweep["degrees"], sweep["schemes"], sweep["level"]
    bracket_cfg = scenarios.CflBracketConfig(eps=sweep["eps"], delta=sweep["delta"])
    materials = build_materials(cfg)
    stab = hho.StabilizationConfig.explicit(**cfg["stabilization"])    # the brackets' path
    results = {}
    for family, _, mesh in study_meshes(cfg, [level], sweep["families"]):
        for k in degrees:
            system = hho.assemble(mesh, materials, stab, k=k)
            u0, _, _ = build_scenario(cfg, system, materials)    # the brackets run unforced
            for scheme in schemes:
                est = scenarios.cfl_bracket(system, timestep.tableau(scheme), mean_h(mesh), u0,
                                            final_time=cfg["final_time"], config=bracket_cfg)
                results[family, k, scheme] = est
                log.info("cfl %s k=%d %s: [%.4f, %.4f], spectral seed %.4f, %d energy runs",
                         family, k, scheme, est.cfl_stable, est.cfl_unstable,
                         est.cfl_spectral, est.runs)
    rows = [[family, k, scheme, level, est.h, est.cfl_stable, est.cfl_unstable, est.n_stable,
             est.n_unstable, est.cfl_stable / results[family, k, schemes[0]].cfl_stable,
             est.cfl_stable / results[family, degrees[0], scheme].cfl_stable,
             est.cfl_spectral, est.runs] for (family, k, scheme), est in results.items()]
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "cfl.csv"),
              ["family", "k", "scheme", "level", "h", "cfl_stable", "cfl_unstable",
               "n_stable", "n_unstable", "ratio_s", "ratio_k", "cfl_spectral", "runs"], rows)
    return EXIT_OK


def cmd_efficiency(cfg, out_dir) -> int:
    eff, k = cfg["efficiency"], cfg["degree"]

    def step_dt(level, tab, system):
        dt = eff["dt0"] * 2.0 ** (-level * (k + 1) / (tab.s + 1))
        if tab.explicit:    # capped by the system's own stability limit, one ARPACK call a level
            stepper = timestep.ExplicitStepper(system, tab)
            dt = min(dt, eff["cfl_cap"] * scenarios.spectral_dt(stepper, mean_h(system.mesh))[0])
        return dt

    runs = manufactured_study(cfg, eff["levels"], eff["schemes"], step_dt)
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "efficiency.csv"),
              ["scheme", "level", "dt", "steps", "error", "cpu_seconds"],
              [[scheme, level, dt, n_steps, err, wall] for scheme, scheme_runs
               in zip(eff["schemes"], runs) for level, _, dt, n_steps, err, wall in scheme_runs])
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
        p.add_argument("--mesh", help="MSH v2.2 mesh file replacing the mesh section "
                       "(simulate only: a study refines a generated mesh)")
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
    try:
        cfg = _read_config(args.config)
        if args.mesh:
            cfg["mesh"] = {"file": args.mesh}       # the flag replaces the mesh section
        cfg = validate_config(cfg)
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
        return cmd_efficiency(cfg, args.out)
    except (CliConfigError, hho.ConfigError, msh.MeshError, MaterialError, basis.QuadratureError,
            scenarios.ScenarioError, timestep.InstabilityError, timestep.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_INSTABILITY if isinstance(exc, timestep.InstabilityError) else
                EXIT_SOLVER if isinstance(exc, timestep.SolverError) else EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
