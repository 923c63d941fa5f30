"""CLI configuration, outputs and exit-code tests."""

import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hhowave import StabilizationConfig, assemble, builtin_materials, cfl_bracket, cli, timestep
from hhowave import hho, mesh as msh

from oracles import manufactured_state
from test_mesh import MSH_TWO_TRIANGLES

RICKER_CFG = {
    "mesh": {"family": "cartesian", "level": 3,
             "fluid_rect": [-0.5, 0.0, 0.5, 0.5],
             "solid_rect": [-0.5, -0.5, 0.5, 0.0]},
    "degree": 1,
    "scheme": "SDIRK34",
    "dt": 0.01,
    "final_time": 0.1,
    "materials": "academic",
    "scenario": {"type": "ricker", "amplitude": 1.0, "central_frequency": 10.0,
                 "center": [0.0, 0.125]},
    "sensors": [
        {"name": "Sf", "kind": "fluid", "position": [-0.2, 0.3]},
        {"name": "Ss", "kind": "solid", "position": [-0.2, -0.2]},
        {"name": "Si", "kind": "interface", "position": [-0.3, 0.0]},
    ],
    "output": {"snapshot_every": 5},
}


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_cfg(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config handling

def test_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, RICKER_CFG)
    cfg = cli.load_config(path)
    dumped = tmp_path / "echo.json"
    dumped.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    cfg2 = cli.load_config(str(dumped))
    assert cfg == cfg2


def test_config_validation_errors(tmp_path):
    bad = dict(RICKER_CFG)
    bad.pop("mesh")
    with pytest.raises(cli.CliConfigError):
        cli.load_config(write_cfg(tmp_path, bad, "a.json"))
    bad = json.loads(json.dumps(RICKER_CFG))
    bad["scheme"] = "LEAPFROG"
    with pytest.raises(cli.CliConfigError):
        cli.load_config(write_cfg(tmp_path, bad, "b.json"))
    bad = json.loads(json.dumps(RICKER_CFG))
    bad.pop("dt")                 # loads, as cfl and efficiency read no dt; simulate does
    with pytest.raises(cli.CliConfigError):
        cli.cmd_simulate(cli.load_config(write_cfg(tmp_path, bad, "d.json")),
                         str(tmp_path / "d"))


@pytest.mark.parametrize("scheme,mode", [("ERK2", "equal"), ("SDIRK34", "mixed"),
                                         ("ERK2", "mixed"), ("SDIRK34", "equal")])
def test_order_mode_key_exit_code(tmp_path, capsys, scheme, mode):
    """The scheme fixes the order mode; a config that names one, even the
    scheme's own, exits 2 naming the key."""
    cfg = dict(json.loads(json.dumps(RICKER_CFG)), scheme=scheme, order_mode=mode)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "unknown config key order_mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", [*cli.EXPLICIT_SCHEMES, *cli.IMPLICIT_SCHEMES])
def test_scheme_fixes_the_stabilization(scheme):
    make = (StabilizationConfig.explicit if scheme in cli.EXPLICIT_SCHEMES
            else StabilizationConfig.implicit)
    assert cli.build_stabilization({"scheme": scheme, "stabilization": {}}) == make()
    cfg = cli.load_config(None, {"mesh": {"fluid_rect": [0, 0, 1, 1]}, "scheme": scheme,
                                 "stabilization": {"eta_solid": 2.5}})
    assert cli.build_stabilization(cfg) == make(eta_solid=2.5)


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_run_without_a_step_exit_code(tmp_path, capsys, monkeypatch, command):
    """simulate and converge read dt or a target cfl: without either they exit
    2 before any mesh is built or any output is written."""
    cfg = dict(json.loads(json.dumps(RICKER_CFG)),
               scenario={"type": "manufactured", "omega": 1.0, "theta": 1.0})
    cfg.pop("dt")
    built = []
    monkeypatch.setattr(cli, "build_mesh", lambda mesh_cfg: built.append(mesh_cfg))
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     *(["--levels", "1,2"] if command == "converge" else [])])
    assert code == cli.EXIT_CONFIG
    assert cli.DT_RULE in capsys.readouterr().err
    assert not built and not out.exists()


def test_cfl_target_resolves_dt():
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg.pop("dt")
    cfg["cfl"] = 0.1
    cli.validate_config(cfg)
    mesh = cli.build_mesh(cfg["mesh"])
    mats = cli.build_materials(cfg)
    dt = cli.resolve_dt(cfg, mesh, mats)
    h = float(np.mean(mesh.cell_diameter))
    assert abs(dt - 0.1 * h / math.sqrt(3.0)) < 1e-15


def test_step_count_lands_on_final_time(caplog):
    assert cli.step_count(1.0, 0.0015625) == (640, 0.0015625)
    dt = 1.0 / 640.0
    assert cli.step_count(20 * dt, dt) == (20, dt)      # whole within rounding
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="hhowave"):
        n_steps, dt = cli.step_count(0.05, 0.03)
    assert n_steps == 2 and abs(n_steps * dt - 0.05) < 1e-15 and dt < 0.03
    assert "0.03" in caplog.text and "0.025" in caplog.text


def test_simulate_does_not_overshoot_final_time(tmp_path):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["dt"] = 0.03
    cfg["final_time"] = 0.05
    cfg["output"] = {}
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 2
    assert abs(summary["dt"] - 0.025) < 1e-15
    last = (out / "energy.csv").read_text().strip().splitlines()[-1]
    assert abs(float(last.split(",")[0]) - 0.05) < 1e-15


def test_custom_materials():
    cfg = {"materials": {"fluid": {"rho": 1025.0, "c_p": 1500.0},
                         "solid": {"rho": 2690.0, "c_p": 6000.0, "c_s": 3000.0}}}
    mats = cli.build_materials(cfg)
    assert abs(mats.by_region["fluid"].c_p - 1500.0) < 1e-9
    assert abs(mats.by_region["solid"].c_s - 3000.0) < 1e-9


# ---------------------------------------------------------------------------
# simulate

def test_simulate_zero_run_traces_zero(tmp_path):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["scenario"] = {"type": "zero"}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = (out / "traces.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[0] == "time"
    assert "Sf.p" in header and "Si.pF" in header
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.allclose(data[:, 1:], 0.0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "completed"
    assert summary["dofs"]["dofs_before_condensation"] > 0


def test_simulate_ricker_outputs(tmp_path):
    path = write_cfg(tmp_path, RICKER_CFG)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 10
    assert summary["energy_initial"] > 0
    # implicit path condenses the cells away
    dofs = summary["dofs"]
    assert dofs["condensed_unknowns"] == "faces"
    assert 0.5 < dofs["condensation_reduction"] < 0.9
    snaps = sorted(p.name for p in out.glob("snapshot_*.vtu"))
    assert snaps == ["snapshot_0000.vtu", "snapshot_0005.vtu", "snapshot_0010.vtu"]
    text = (out / "snapshot_0010.vtu").read_text()
    assert "VTKFile" in text and "pressure" in text and "velocity_norm" in text


def test_simulate_reports_schur_solver(tmp_path, caplog):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 2
    cfg["output"] = {}
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="hhowave"):
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    solver = summary["solver"]
    assert set(solver) == {"n", "precision", "matrix_nnz", "lu_nnz", "lu_nnz_per_dof",
                           "factor_s", "solves", "corrections", "max_corrections",
                           "solve_s", "max_residual"}
    assert solver["n"] == summary["dofs"]["dofs_after_condensation"]
    assert solver["lu_nnz"] > 0 and solver["matrix_nnz"] > 0 and solver["factor_s"] > 0
    assert solver["solves"] == 3 * summary["steps"]      # one per SDIRK34 stage
    # below the float32 threshold, one float64 LU solve per solve
    assert solver["precision"] == "float64"
    assert solver["corrections"] == solver["solves"] and solver["max_corrections"] == 1
    assert 0.0 < solver["max_residual"] <= 1e-8
    # the time inside the LU solves, part of the march
    assert 0.0 < solver["solve_s"] <= summary["timings"]["march"]
    assert (f"Schur LU: {solver['solves']} solves in {solver['solve_s']:.3f} s, "
            f"{solver['corrections']} float64 LU solves (at most 1 in one), "
            f"largest residual {solver['max_residual']:.2e}") in caplog.text
    assert (f"Schur LU: {solver['n']} face dofs, {solver['matrix_nnz']} nnz, "
            f"{solver['lu_nnz']} nnz in the float64 factors") in caplog.text
    assert "factored in" in caplog.text
    assert solver["lu_nnz_per_dof"] == solver["lu_nnz"] / solver["n"]
    assert f"{solver['lu_nnz_per_dof']:.0f} per face dof), factored in" in caplog.text
    # how the cells were condensed: classes and the cells each kernel applies
    classes = summary["cell_classes"]
    assert set(classes) == {"classes", "gemm_cells", "stacked_cells"}
    assert 0 < classes["classes"] < summary["n_cells"]
    assert classes["gemm_cells"] + classes["stacked_cells"] == summary["n_cells"]
    assert (f"cell classes: {classes['classes']} classes, {classes['gemm_cells']} cells in "
            f"class GEMMs, {classes['stacked_cells']} in stacked products") in caplog.text
    cond = summary["condensation"]
    assert set(cond) == {"build_s"} and cond["build_s"] >= 0.0
    assert f"condensation built in {cond['build_s']:.3f} s" in caplog.text
    # what the run stored and where its time went
    assert set(summary["operator_nnz"]) == {"mass", "k_tt", "k_tf", "k_ft", "k_ff"}
    assert all(nnz > 0 for nnz in summary["operator_nnz"].values())
    assert set(summary["timings"]) == {"mesh", "assemble", "stepper", "march", "output"}
    assert all(sec >= 0.0 for sec in summary["timings"].values())
    assert "operators store" in caplog.text and "timings: mesh" in caplog.text
    # and where its memory went: the peak RSS when the command began and after
    # each phase never falls, the implicit stepper's split into the Schur
    # build and its LU
    phases = ("start", "mesh", "assemble", "condensation", "factor", "march")
    assert set(summary["peak_rss_mb"]) == set(phases)
    peaks = [summary["peak_rss_mb"][phase] for phase in phases]
    assert 0.0 < peaks[0] and peaks == sorted(peaks)
    assert f"peak RSS: start {peaks[0]:.1f} MB, mesh {peaks[1]:.1f} MB" in caplog.text
    # the current RSS after the same phases, read from /proc/self/statm
    assert set(summary["rss_mb"]) == set(phases)
    current = [summary["rss_mb"][phase] for phase in phases]
    assert all(mb > 0.0 for mb in current)
    assert (f"; current RSS: start {current[0]:.1f} MB, mesh {current[1]:.1f} MB"
            in caplog.text)
    assert summary["warnings"] == []
    # how the physics behaved, and progress with an ETA about every 10% of the steps
    energies = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)[:, 1]
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert summary["energy_max_drift"] == drift > 0.0
    assert f"largest relative drift {drift:.3e}" in caplog.text
    progress = [r.getMessage() for r in caplog.records if "ETA" in r.getMessage()]
    assert len(progress) == summary["steps"] == 10
    assert all(re.search(r"s, RSS [0-9.]+ MB, ETA [0-9.]+ s$", line) for line in progress)
    assert progress[0].startswith("step 1/10 (10%), elapsed ")
    assert progress[-1].endswith("ETA 0.0 s")


def test_simulate_reports_float32_refinement(tmp_path, caplog, monkeypatch):
    # with the threshold at 0 the same run factors S in float32: every solve
    # takes at least one float32 LU solve and passes the unchanged 1e-8 check
    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", 0)
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 2
    cfg["output"] = {}
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="hhowave"):
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == cli.EXIT_OK
    solver = json.loads((out / "summary.json").read_text())["solver"]
    assert solver["precision"] == "float32"
    assert solver["corrections"] >= solver["solves"] > 0
    assert 1 <= solver["max_corrections"] <= timestep.MAX_CORRECTIONS
    assert 0.0 < solver["max_residual"] <= 1e-8
    assert f"{solver['lu_nnz']} nnz in the float32 factors" in caplog.text
    assert (f"{solver['corrections']} float32 LU solves (at most "
            f"{solver['max_corrections']} in one)") in caplog.text


@pytest.mark.parametrize("given", ["cfl", "dt"])
def test_simulate_reports_courant_number(tmp_path, caplog, given):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 2
    cfg["output"] = {}
    mesh = cli.build_mesh(cfg["mesh"])
    c_sharp = cli.build_materials(cfg).c_sharp(mesh)
    h = float(np.mean(mesh.cell_diameter))
    if given == "cfl":
        cfg.pop("dt")
        cfg["cfl"] = want = 0.3
        cfg["final_time"] = 4 * 0.3 * h / c_sharp      # a whole number of steps
    else:
        want = c_sharp * cfg["dt"] / h
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="hhowave"):
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["courant"] - want) < 1e-14
    assert f"Courant number {want:.4g}" in caplog.text


def test_simulate_deterministic_traces(tmp_path):
    path = write_cfg(tmp_path, RICKER_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "traces.csv").read_text() == (out2 / "traces.csv").read_text()


@pytest.mark.parametrize("threshold,factor", [(10**12, "splu"), (0, "spilu")],
                         ids=["float64", "float32"])
def test_lu_memory_failure_exit_code(tmp_path, monkeypatch, capsys, threshold, factor):
    def fail(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", threshold)
    monkeypatch.setattr(timestep.spla, factor, fail)
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 1
    cfg["output"] = {}
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER
    assert "face dofs ran out of memory" in capsys.readouterr().err


def test_granite_water_solves_at_1024_cells(tmp_path):
    # the shipped geophysical config scaled down to 1,024 cells, 10 steps: the
    # diagonal of its Schur complement spans 4.7e-7 to 2.0e7, and the
    # equilibrated factor without pivoting meets the residual guard
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "granite_water.json")
    with open(path) as fh:
        cfg = json.load(fh)
    cfg["mesh"].update(n_fluid=[32, 9], n_solid=[32, 23])
    cfg["final_time"] = 10 * cfg["dt"]
    cfg["output"] = {}
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_cells"] == 1024 and summary["steps"] == 10
    assert summary["solver"]["max_residual"] <= 1e-8
    # in metres against the SI materials the step resolves the P wave
    assert summary["courant"] == pytest.approx(0.0328, rel=1e-3)
    assert summary["warnings"] == []


def test_shipped_implicit_configs_stay_below_the_courant_bound():
    # granite_water.json is in metres: 0.33 at full scale, not 330 as when
    # its geometry was in km; the academic Ricker run sits far below too
    want = {"granite_water.json": 0.3297, "academic_ricker.json": 0.06124}
    for name, courant in want.items():
        cfg = cli.load_config(os.path.join(CONFIG_DIR, name))
        mesh = cli.build_mesh(cfg["mesh"])
        got = cli.courant(mesh, cli.build_materials(cfg), cfg["dt"])
        assert got == pytest.approx(courant, rel=1e-3) and got < cli.IMPLICIT_COURANT_MAX, name


def test_implicit_courant_warning(tmp_path, caplog):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 1
    cfg["dt"], cfg["final_time"] = 0.5, 1.0
    cfg["output"] = {}
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="hhowave"):
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["courant"] > cli.IMPLICIT_COURANT_MAX
    (warning,) = summary["warnings"]
    assert warning.startswith(f"Courant number {summary['courant']:.4g} exceeds 1")
    assert warning in caplog.text


def test_simulate_without_statm_leaves_out_the_current_rss(tmp_path, caplog, monkeypatch):
    # where /proc/self/statm cannot be opened, the current RSS is left out of
    # summary.json and the log, and the peak RSS is still reported
    def no_statm(*args, **kwargs):
        raise FileNotFoundError("/proc/self/statm")

    monkeypatch.setattr(timestep, "open", no_statm, raising=False)
    assert timestep.current_rss_mb() is None
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 2
    cfg["output"] = {}
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="hhowave"):
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "rss_mb" not in summary and len(summary["peak_rss_mb"]) == 6
    assert "peak RSS: start" in caplog.text and "current RSS" not in caplog.text
    progress = [r.getMessage() for r in caplog.records if "ETA" in r.getMessage()]
    assert len(progress) == 10 and not any("RSS" in line for line in progress)


def test_simulate_instability_exit_code(tmp_path):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["scheme"] = "ERK2"
    cfg.pop("order_mode", None)
    cfg["dt"] = 0.5          # grossly above the stability limit
    cfg["final_time"] = 50.0
    cfg["scenario"] = {"type": "manufactured", "omega": 2.0, "theta": 1.0}
    cfg["mesh"] = {"family": "cartesian", "level": 3,
                   "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]}
    cfg["sensors"] = []
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INSTABILITY
    # an explicit run factors and condenses nothing, but reports its cell
    # classes: assembly formed one block set per class (a cartesian bilayer
    # has 6, squares differing only in which of their faces they own)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "solver" not in summary and "condensation" not in summary
    assert set(summary["peak_rss_mb"]) == {"start", "mesh", "assemble", "stepper", "march"}
    assert set(summary["rss_mb"]) == set(summary["peak_rss_mb"])
    classes = summary["cell_classes"]
    assert classes["classes"] == 6
    assert classes["gemm_cells"] + classes["stacked_cells"] == summary["n_cells"]


def test_simulate_initial_energy_overflow_exit_code(tmp_path):
    # the energy of the initial state is checked for overflow like every other step
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 1
    cfg["scenario"]["amplitude"] = 1e300
    cfg["final_time"] = 0.02
    cfg["output"] = {}
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_INSTABILITY
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_step"] == 0 and summary["energy_initial"] is None


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_config_error_printed_once(tmp_path, monkeypatch, capsys):
    # with the root logger bare, as outside pytest, `main` logs to stderr too
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("cannot read config") == 1 and err.startswith("error: cannot read config")


def test_material_error_exit_code(tmp_path):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["materials"] = {"fluid": {"rho": -1, "c_p": 1.0},
                        "solid": {"rho": 1.0, "c_p": 1.732, "c_s": 1.0}}
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_non_star_shaped_fixture_exit_code(tmp_path, monkeypatch, capsys):
    """A fixture cell that is not star-shaped about its barycenter exits 2.

    Mesh validation rejects it first (MeshError); with validation bypassed,
    the grouped fan rule of the assembly raises QuadratureError itself.
    """
    hook = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (0, 1)]
    monkeypatch.setattr(msh.PolyMesh, "validate", lambda self: None)
    fixture = tmp_path / "hook.txt"
    msh.dump_text(msh.PolyMesh(hook, [np.arange(6)], [msh.FLUID]), fixture)
    monkeypatch.undo()
    cfg = {"mesh": {"fixture": str(fixture)}, "degree": 1, "scheme": "SDIRK34",
           "dt": 0.05, "final_time": 0.1}
    argv = ["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "is not star-shaped" in capsys.readouterr().err
    monkeypatch.setattr(msh.PolyMesh, "validate", lambda self: None)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "polygon not star-shaped" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("dt", "fast", "dt must be a number"),
    ("final_time", "soon", "final_time must be a number"),
    ("output.trace_every", 0, "trace_every must be positive"),
    ("solver.tol", "x", "direct-lu"),
    ("mesh.level", "two", "mesh level must be an integer"),
    ("sensors.0.position", ["a", 0.1], "sensor position"),
    ("mesh.n_fluid", [4], "n_fluid must be a list of 2 integers"),
    ("scenario.center", [0.0], "Ricker center must be a list of 2 numbers"),
    ("materials", {"fluid": {"rho": "heavy", "c_p": 1.0}},
     "material 'fluid' rho must be a number"),
    ("stabilization", {"eta_fluid": "strong"}, "eta_fluid must be a number"),
    ("scenario", {"type": "manufactured", "omega": "five"}, "omega must be a number"),
    ("scenario.amplitude", "loud", "Ricker amplitude must be a number"),
    ("cfl_sweep", {"level": "four"}, "cfl_sweep level must be an integer"),
    ("efficiency", {"maxiter": "many"}, "direct-lu"),
    # sweep list entries follow the rule of their top-level key
    ("cfl_sweep.schemes", ["ERK5"], "cfl_sweep schemes must be one of ERK2, ERK3, ERK4"),
    ("efficiency.schemes", ["SDIRK99"], "efficiency schemes must be one of"),
    ("cfl_sweep.degrees", [9], "cfl_sweep degrees must be in [0, 4], got 9"),
    ("efficiency.levels", "0", "efficiency levels must be a list"),
    # an integer is neither truncated nor a bool
    ("output.trace_every", 2.7, "trace_every must be an integer, got 2.7"),
    ("degree", True, "degree must be an integer, got True"),
    ("dt", math.inf, "dt must be a number, got inf"),
    # RICKER_CFG gives dt: a target cfl as well would leave one of them unread
    ("cfl", 0.1, "exactly one of 'dt' or a target 'cfl' is required"),
])
def test_malformed_value_exit_code(tmp_path, capsys, key, value, message):
    # keys of the study sections run their study; all others run simulate
    command = {"cfl_sweep": "cfl", "efficiency": "efficiency"}.get(key.split(".")[0],
                                                                   "simulate")
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 1
    *parents, last = key.split(".")
    entry = cfg
    for part in parents:
        entry = entry[int(part)] if isinstance(entry, list) else entry.setdefault(part, {})
    entry[last] = value
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("solver.kind", "bicgstab-ilu0"),
    ("solver.kind", "cholesky"),
    ("solver.kind", "direct-lu"),
    ("solver.tol", 1e-8),
    ("efficiency.solver", "direct-lu"),
    ("efficiency.tol0", 1e-6),
    ("efficiency.maxiter", 5000),
    ("efficiency.level", [1]),
])
def test_solver_setting_exit_code(tmp_path, capsys, key, value):
    """The Schur solver has no settings: a config that sets one, or any
    efficiency key the study does not read, exits 2 naming the key and the
    direct LU, valid values included."""
    section, name = key.split(".")
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 1
    cfg[section] = {name: value}
    command = "efficiency" if section == "efficiency" else "simulate"
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "direct LU (direct-lu)" in err
    assert not (tmp_path / "out").exists()


def test_unknown_keys_exit_code(tmp_path, capsys):
    """Misspelled keys in any section exit 2 before any output, all named in one line."""
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"]["level"] = 1
    cfg["scenario"]["amplitud"] = 3.0
    cfg["output"]["trace_evry"] = 5
    cfg["solvr"] = {}
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: unknown config keys")
    for path in ("scenario.amplitud", "output.trace_evry", "solvr"):
        assert path in line
    assert "direct-lu" not in line
    assert not out.exists()


def test_nested_unknown_keys_are_named_by_path():
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["sensors"][1]["nmae"] = "x"
    cfg["mesh"] = {"file": "two.msh", "level": 2}      # a file mesh has no level
    cfg["materials"] = {"fluid": {"rho": 1.0, "kappa": 1.0, "c_p": 1.0},
                        "solid": {"rho": 1.0, "c_p": 1.732, "c_s": 1.0}}
    with pytest.raises(cli.CliConfigError,
                       match="^unknown config keys mesh.level, materials.fluid.c_p, "
                             "sensors.1.nmae$"):
        cli.validate_config(cfg)
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"] = {"nonconforming": {"fluid": RICKER_CFG["mesh"]}}
    with pytest.raises(cli.CliConfigError, match="mesh nonconforming requires 'solid'"):
        cli.validate_config(cfg)


def test_resolved_config_holds_every_default():
    cfg = cli.load_config(None, {"mesh": {"fluid_rect": [0, 0, 1, 1]}, "dt": 0.1,
                                 "scheme": "sdirk34", "scenario": {"type": "ricker"},
                                 "sensors": [{"kind": "fluid", "position": [0.5, 0.5]}]})
    assert cfg["scheme"] == "SDIRK34" and "order_mode" not in cfg
    assert cfg["mesh"] == {"family": "cartesian", "fluid_rect": (0.0, 0.0, 1.0, 1.0)}
    assert cfg["scenario"] == {"type": "ricker", "amplitude": 1.0, "central_frequency": 10.0,
                               "center": (0.0, 0.0)}
    assert cfg["sensors"] == [{"kind": "fluid", "position": (0.5, 0.5), "name": "S0"}]
    assert cfg["output"] == {"traces": "traces.csv", "trace_every": 1, "snapshot_every": 0,
                             "summary": "summary.json"}
    assert cfg["cfl_sweep"]["degrees"] == [cfg["degree"]] == [1]
    assert (cfg["cfl_sweep"]["eps"], cfg["cfl_sweep"]["delta"]) == (0.05, 0.01)
    # the stabilization weights left out keep the order mode's own defaults
    assert cfg["stabilization"] == {}
    assert cli.build_stabilization(cfg) == StabilizationConfig.implicit()
    assert cli.build_stabilization(dict(cfg, scheme="ERK2")) == StabilizationConfig.explicit()


def test_benchmark_and_shipped_configs_pass_the_schema():
    """Every shipped config and every benchmark workload's input passes the strict schema."""
    for name in sorted(os.listdir(CONFIG_DIR)):
        cli.load_config(os.path.join(CONFIG_DIR, name))
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == {"ricker", "hex_l6_implicit", "cfl_bracket"}
    for workload in workloads.WORKLOADS.values():
        for tiny in (False, True):
            cfg = workload.config(0, tiny=tiny)
            assert cli.validate_config(cfg) == cfg, workload.name


def test_readme_schema_lists_every_key():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
    sections = [cli.CONFIG, cli.SENSOR, *cli.SCENARIOS.values(),
                *(table for _, table in (*cli.MESH_FORMS.values(), *cli.MATERIAL_FORMS.values()))]
    keys = set()
    while sections:
        section = sections.pop()
        keys.update(section.keys)
        sections += [rule for rule, _ in section.keys.values() if isinstance(rule, cli.Section)]
    assert len(keys) > 50
    assert sorted(key for key in keys if f'"{key}"' not in block) == []
    for value in (*cli.SCENARIOS, *msh.FAMILIES):
        assert value in block, value


def test_shipped_configs_load():
    configs = sorted(os.listdir(CONFIG_DIR))
    assert "efficiency.json" in configs and "granite_water.json" in configs
    for name in configs:
        cli.load_config(os.path.join(CONFIG_DIR, name))
    # every key the efficiency study reads is accepted
    cli.load_config(os.path.join(CONFIG_DIR, "efficiency.json"), {"efficiency": {
        "schemes": ["ERK2"], "levels": [1], "dt0": 0.02, "cfl_cap": 0.5}})


def test_malformed_levels_exit_code(tmp_path):
    cfg = {"mesh": {"family": "cartesian", "fluid_rect": [0, 0, 1, 1]},
           "degree": 1, "scheme": "SDIRK34", "dt": 0.05, "final_time": 0.1,
           "scenario": {"type": "manufactured"}}
    code = cli.main(["converge", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path), "--levels", "2,x"])
    assert code == cli.EXIT_CONFIG


def test_simulate_msh_override(tmp_path):
    from test_mesh import MSH_TWO_TRIANGLES

    msh_path = tmp_path / "two.msh"
    msh_path.write_text(MSH_TWO_TRIANGLES)
    cfg = {"mesh": {}, "degree": 1, "scheme": "SDIRK23", "dt": 0.05,
           "final_time": 0.1, "materials": "academic",
           "scenario": {"type": "zero"}}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", path, "--mesh", str(msh_path),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_cells"] == 2


def test_msh_flag_replaces_the_mesh_section(tmp_path):
    from test_mesh import MSH_TWO_TRIANGLES

    msh_path = tmp_path / "two.msh"
    msh_path.write_text(MSH_TWO_TRIANGLES)
    cfg = {"mesh": {"family": "cartesian", "level": 3, "fluid_rect": [0, 0, 1, 1]},
           "degree": 1, "scheme": "SDIRK23", "dt": 0.05, "final_time": 0.1}
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg), "--mesh", str(msh_path),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_cells"] == 2
    assert summary["config"]["mesh"] == {"file": str(msh_path)}


def test_non_finite_msh_node_exit_code(tmp_path, capsys):
    from test_mesh import MSH_TWO_TRIANGLES

    msh_path = tmp_path / "nan.msh"
    msh_path.write_text(MSH_TWO_TRIANGLES.replace("\n3 1 1 0\n", "\n3 nan 1 0\n"))
    cfg = {"mesh": {}, "degree": 1, "scheme": "SDIRK23", "dt": 0.05,
           "final_time": 0.1, "scenario": {"type": "zero"}}
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg), "--mesh",
                     str(msh_path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "non-finite vertex coordinates" in capsys.readouterr().err


# per case, the line the error names and its corrupted text in the MSH file
# and in the fixture; None for a file that does not exist
UNREADABLE_MESHES = {
    "missing file": None,
    "malformed count": {"msh": (10, "four"), "fixture": (5, "vertices many")},
    "short line": {"msh": (13, "3 1 1"), "fixture": (6, "0.0")},
    "undefined node": {"msh": (18, "1 2 2 1 0 1 3 9"), "fixture": (22, "0 0 3 99 1")},
}


def corrupt_mesh_file(tmp_path, kind, corruption):
    """Path of a two-triangle MSH file or a cartesian L1 bilayer fixture with
    line `corruption[0]` (from 1) replaced by `corruption[1]`; never written
    without a corruption."""
    path = tmp_path / f"mesh.{kind}"
    if corruption is None:
        return path
    if kind == "msh":
        path.write_text(MSH_TWO_TRIANGLES)
    else:
        msh.dump_text(cli.build_mesh({"family": "cartesian", "level": 1,
                                      "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]}),
                      path)
    lines = path.read_text().splitlines()
    row, text = corruption
    lines[row - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("case", list(UNREADABLE_MESHES))
@pytest.mark.parametrize("kind", ["msh", "fixture"])
def test_unreadable_mesh_file_exit_code(tmp_path, capsys, kind, case):
    """A mesh file that cannot be read or parsed exits 2 naming the file and,
    where it is known, the line; nothing is written."""
    corruption = UNREADABLE_MESHES[case] and UNREADABLE_MESHES[case][kind]
    path = corrupt_mesh_file(tmp_path, kind, corruption)
    cfg = {"mesh": {"fixture": str(path)}, "degree": 1, "scheme": "SDIRK23", "dt": 0.05,
           "final_time": 0.1, "scenario": {"type": "zero"}}
    flags = ["--mesh", str(path)] if kind == "msh" else []
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ")
    where = f"{path}, line {corruption[0]}: " if corruption else f"cannot read mesh file {path}: "
    assert where in err, err
    assert not out.exists()


def test_simulate_nonconforming_mesh(tmp_path):
    cfg = json.loads(json.dumps(RICKER_CFG))
    cfg["mesh"] = {"nonconforming": {
        "fluid": {"family": "cartesian", "level": 3,
                  "fluid_rect": [-0.5, 0.0, 0.5, 0.5]},
        "solid": {"family": "cartesian", "level": 2,
                  "solid_rect": [-0.5, -0.5, 0.5, 0.0]},
    }}
    cfg["final_time"] = 0.05
    cfg["sensors"] = [s for s in cfg["sensors"] if s["kind"] != "interface"]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    # coarse solid cells under the split interface gain faces (hexagons)
    assert summary["n_cells"] == 8 * 4 + 4 * 2


# ---------------------------------------------------------------------------
# converge

def test_converge_rate_table(tmp_path):
    cfg = {
        "mesh": {"family": "cartesian",
                 "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1,
        "scheme": "SDIRK34",
        "dt": 0.02,
        "final_time": 0.1,
        "materials": "academic",
        "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["converge", "--config", path, "--out", str(out),
                     "--levels", "1,2,3"])
    assert code == cli.EXIT_OK
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "level,h,error,rate"
    table = [r.split(",") for r in rows[1:]]
    errors = [float(r[2]) for r in table]
    assert errors[0] > errors[1] > errors[2]
    # rate column is log2 of consecutive error ratios
    assert abs(float(table[2][3]) - math.log2(errors[1] / errors[2])) < 1e-12


def test_converge_needs_two_levels(tmp_path):
    cfg = {"mesh": {"family": "cartesian", "fluid_rect": [0, 0, 1, 1]},
           "degree": 1, "scheme": "SDIRK34", "dt": 0.05, "final_time": 0.1,
           "scenario": {"type": "manufactured"}}
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["converge", "--config", path, "--out", str(tmp_path),
                     "--levels", "2"])
    assert code == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# the meshes and initial states of the studies

STUDY_CFG = {
    "mesh": {"family": "cartesian", "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
    "degree": 1, "scheme": "ERK2", "cfl": 0.1, "final_time": 0.2,
    "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0},
    "cfl_sweep": {"schemes": ["ERK2"], "level": 1},
    "efficiency": {"schemes": ["ERK2"], "levels": [0, 1]},
}
STUDY_ARGS = {"converge": ["--levels", "0,1"], "cfl": [], "efficiency": []}


@pytest.mark.parametrize("mesh_kind", ["fixture", "msh flag", "nonconforming"])
@pytest.mark.parametrize("command", list(STUDY_ARGS))
def test_study_refuses_a_mesh_without_levels(tmp_path, capsys, command, mesh_kind):
    """A study refines a generated mesh level by level; a mesh it cannot
    refine exits 2 before any output instead of repeating one mesh."""
    from test_mesh import MSH_TWO_TRIANGLES

    cfg = json.loads(json.dumps(STUDY_CFG))
    flags = []
    if mesh_kind == "fixture":
        fixture = tmp_path / "mesh.txt"
        msh.dump_text(cli.build_mesh(dict(cfg["mesh"], level=1)), fixture)
        cfg["mesh"] = {"fixture": str(fixture)}
    elif mesh_kind == "msh flag":
        (tmp_path / "two.msh").write_text(MSH_TWO_TRIANGLES)
        flags = ["--mesh", str(tmp_path / "two.msh")]
    else:
        cfg["mesh"] = {"nonconforming": {
            "fluid": {"family": "cartesian", "level": 2, "fluid_rect": [0, 0, 1, 1]},
            "solid": {"family": "cartesian", "level": 1, "solid_rect": [-1, 0, 0, 1]}}}
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                     *flags, *STUDY_ARGS[command]])
    assert code == cli.EXIT_CONFIG
    kind = {"msh flag": "file"}.get(mesh_kind, mesh_kind)
    assert f"a study refines a generated mesh (mesh family), not a {kind} mesh" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cfl_brackets_start_from_the_configured_scenario(tmp_path):
    tables = []
    for omega in (5.0, 2.0):
        cfg = dict(STUDY_CFG, final_time=1.0,
                   scenario={"type": "manufactured", "omega": omega, "theta": 0.7})
        out = tmp_path / f"omega{omega}"
        code = cli.main(["cfl", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == cli.EXIT_OK
        tables.append((out / "cfl.csv").read_text())
    assert tables[0] != tables[1]
    # a Ricker scenario is bracketed from the Ricker state that `simulate` starts from
    cfg = cli.load_config(None, dict(STUDY_CFG, final_time=1.0, scenario={"type": "ricker"}))
    mesh = cli.build_mesh(dict(cfg["mesh"], level=1))
    system = assemble(mesh, builtin_materials("academic"), StabilizationConfig.explicit(), 1)
    u0, _, _ = cli.build_scenario(cfg, system, system.materials)
    est = cfl_bracket(system, timestep.tableau("ERK2"), cli.mean_h(mesh), u0)
    out = tmp_path / "ricker"
    assert cli.cmd_cfl(cfg, str(out)) == cli.EXIT_OK
    row = (out / "cfl.csv").read_text().strip().splitlines()[1].split(",")
    assert (int(row[7]), int(row[8])) == (est.n_stable, est.n_unstable)


@pytest.mark.parametrize("command,table", [("cfl", "cfl.csv"),
                                           ("efficiency", "efficiency.csv")])
def test_study_runs_without_a_step(tmp_path, command, table):
    """cfl brackets and efficiency takes efficiency.dt0: neither reads dt or
    cfl, and each writes the same table with either or without both."""
    tables = []
    for step in ({"cfl": 0.1}, {"dt": 0.5}, {}):
        cfg = {key: val for key, val in STUDY_CFG.items() if key not in ("dt", "cfl")}
        cfg["efficiency"] = {"schemes": ["ERK2", "SDIRK34"], "levels": [0, 1]}
        out = tmp_path / f"out{len(tables)}"
        code = cli.main([command, "--config", write_cfg(tmp_path, dict(cfg, **step)),
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = [row.split(",") for row in (out / table).read_text().splitlines()]
        # efficiency's last column is its run's cpu_seconds
        tables.append([row[:-1] if command == "efficiency" else row for row in rows])
    assert len(tables[0]) > 1 and tables[0] == tables[1] == tables[2]
    cfg = dict(STUDY_CFG, dt=0.1)           # both still exit 2
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "both")])
    assert code == cli.EXIT_CONFIG and not (tmp_path / "both").exists()


def test_cfl_with_a_zero_scenario_exit_code(tmp_path, capsys):
    cfg = dict(STUDY_CFG, scenario={"type": "zero"})
    out = tmp_path / "out"
    code = cli.main(["cfl", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "initial energy must be positive" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# cfl

def test_cfl_sweep_table(tmp_path):
    cfg = {
        "mesh": {"fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1,
        "scheme": "ERK2",
        "cfl": 0.1,
        "final_time": 1.0,
        "materials": "academic",
        "scenario": {"type": "manufactured", "omega": 5.0},
        "cfl_sweep": {"families": ["cartesian"], "degrees": [1],
                      "schemes": ["ERK2", "ERK3"], "level": 2},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["cfl", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = (out / "cfl.csv").read_text().strip().splitlines()
    table = {(r.split(",")[0], r.split(",")[2]): r.split(",") for r in rows[1:]}
    erk2 = table[("cartesian", "ERK2")]
    erk3 = table[("cartesian", "ERK3")]
    assert float(erk2[5]) < float(erk2[6])      # stable below unstable
    # more stages admit larger steps; ratio column is relative to ERK2
    assert float(erk3[5]) > float(erk2[5])
    assert abs(float(erk3[9]) - float(erk3[5]) / float(erk2[5])) < 1e-12


def test_cfl_csv_reports_seed_and_runs(tmp_path, caplog):
    cfg = {
        "mesh": {"fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1, "scheme": "ERK2", "cfl": 0.1, "final_time": 1.0,
        "scenario": {"type": "manufactured"},
        "cfl_sweep": {"schemes": ["ERK4"], "level": 2},
    }
    out = tmp_path / "out"
    caplog.set_level(logging.INFO, logger="hhowave")
    code = cli.main(["cfl", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    header, row = (out / "cfl.csv").read_text().strip().splitlines()
    entry = dict(zip(header.split(","), row.split(",")))
    assert header.split(",")[-2:] == ["cfl_spectral", "runs"]
    # the seed predicts the stable bound within 15%, and every run is counted
    assert abs(float(entry["cfl_spectral"]) / float(entry["cfl_stable"]) - 1.0) < 0.15
    assert int(entry["runs"]) >= 2
    assert f"{int(entry['runs'])} energy runs" in caplog.text
    assert "spectral seed" in caplog.text
    assert caplog.text.count("ARPACK: 6 eigenvalues of L") == 1


# ---------------------------------------------------------------------------
# efficiency

def test_efficiency_report(tmp_path):
    cfg = {
        "mesh": {"family": "cartesian",
                 "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1,
        "scheme": "ERK2",
        "dt": 0.01,
        "final_time": 0.2,
        "materials": "academic",
        "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0},
        "efficiency": {"schemes": ["ERK2", "SDIRK34"], "levels": [1, 2],
                       "dt0": 0.02},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main(["efficiency", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = (out / "efficiency.csv").read_text().strip().splitlines()
    assert rows[0] == "scheme,level,dt,steps,error,cpu_seconds"
    data = [r.split(",") for r in rows[1:]]
    assert {d[0] for d in data} == {"ERK2", "SDIRK34"}
    # single-level run degenerates to one point per scheme
    for scheme in ("ERK2", "SDIRK34"):
        pts = [d for d in data if d[0] == scheme]
        assert len(pts) == 2
        assert float(pts[1][4]) < float(pts[0][4])  # error drops with refinement


def test_efficiency_computes_one_spectrum_per_level(tmp_path, monkeypatch, caplog):
    cfg = {
        "mesh": {"family": "cartesian",
                 "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1, "scheme": "ERK2", "dt": 0.01, "final_time": 0.1,
        "materials": "academic",
        "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0},
        "efficiency": {"schemes": ["ERK2", "ERK4"], "levels": [1, 2], "dt0": 0.02},
    }
    calls = []
    eigs = hho.spla.eigs
    monkeypatch.setattr(hho.spla, "eigs",
                        lambda op, **kwargs: calls.append(op.shape[0]) or eigs(op, **kwargs))
    caplog.set_level(logging.INFO, logger="hhowave")
    out = tmp_path / "out"
    code = cli.main(["efficiency", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = (out / "efficiency.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    # one ARPACK call on each level's operator, shared by ERK2 and ERK4
    assert len(calls) == 2 and calls[0] < calls[1]
    assert caplog.text.count("ARPACK: 6 eigenvalues of L") == 2


def test_efficiency_caps_explicit_steps_below_the_stability_limit(tmp_path):
    # simplicial cells are less stable than the cartesian ones of Table 2
    cfg = {
        "mesh": {"family": "simplicial",
                 "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1, "scheme": "ERK2", "dt": 0.01, "final_time": 1.0,
        "materials": "academic",
        "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0},
        "efficiency": {"schemes": ["ERK2", "ERK4"], "levels": [2], "dt0": 1.0},
    }
    out = tmp_path / "out"
    code = cli.main(["efficiency", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = [r.split(",") for r in (out / "efficiency.csv").read_text().strip().splitlines()[1:]]
    mesh = cli.build_mesh(dict(cfg["mesh"], level=2))
    system = assemble(mesh, builtin_materials("academic"), StabilizationConfig.explicit(), k=1)
    h = float(np.mean(mesh.cell_diameter))
    for scheme, _, dt, *_ in rows:
        tab = timestep.tableau(scheme)
        # the cap binds: dt0 2^(-level (k+1)/(s+1)) is ten times larger
        assert float(dt) < 0.1 * 2.0 ** (-2 * 2 / (tab.s + 1))
        est = cfl_bracket(system, tab, h, manufactured_state(system), final_time=1.0)
        assert float(dt) <= 1.0 / est.n_stable, scheme


def test_efficiency_honours_stabilization_weights(tmp_path):
    cfg = {
        "mesh": {"family": "cartesian",
                 "fluid_rect": [0, 0, 1, 1], "solid_rect": [-1, 0, 0, 1]},
        "degree": 1, "scheme": "ERK2", "dt": 0.01, "final_time": 0.1,
        "materials": "academic",
        "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0},
        "efficiency": {"schemes": ["ERK2", "SDIRK34"], "levels": [1], "dt0": 0.02},
    }
    errors = []
    for stab in ({}, {"eta_fluid": 2.0}):
        cfg["stabilization"] = stab
        out = tmp_path / f"out{len(errors)}"
        code = cli.main(["efficiency", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = (out / "efficiency.csv").read_text().strip().splitlines()[1:]
        errors.append({r.split(",")[0]: float(r.split(",")[4]) for r in rows})
    for scheme in ("ERK2", "SDIRK34"):
        assert errors[0][scheme] != errors[1][scheme], scheme


def test_benchmark_selftest_passes():
    # the benchmark composes runs from the package's public names (builders,
    # traced functions, BoundSensor.record); a renamed one fails here too
    selftest = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "selftest.py")
    proc = subprocess.run([sys.executable, selftest], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


LEAN_RUN = """
import json, os, sys
from hhowave import cli
from hhowave.mesh import MeshGenSpec, dump_text, generate, load_text, merge_nonconforming

cfg_path, out = sys.argv[1:]
bilayer = generate(MeshGenSpec("cartesian", 2, fluid_rect=(0, 0, 1, 1), solid_rect=(-1, 0, 0, 1)))
dump_text(bilayer, os.path.join(out, "bilayer.txt"))
assert load_text(os.path.join(out, "bilayer.txt")).n_faces == bilayer.n_faces
fine = generate(MeshGenSpec("cartesian", 3, fluid_rect=(0, 0, 1, 1)))
coarse = generate(MeshGenSpec("cartesian", 1, solid_rect=(0, -1, 1, 0)))
merged = merge_nonconforming(fine, coarse)
assert max(merged.cell_offsets[1:] - merged.cell_offsets[:-1]) == 7   # 3 hanging nodes
assert cli.main(["simulate", "--config", cfg_path, "--out", os.path.join(out, "run")]) == 0
loaded = [m for m in ("scipy.spatial", "scipy.special", "scipy.sparse.csgraph") if m in sys.modules]
hexagonal = generate(MeshGenSpec("polygonal-hexagonal", 2, fluid_rect=(0, 0, 1, 1)))
print(json.dumps({"loaded": loaded, "hexagonal_cells": hexagonal.n_cells}))
"""


def test_cartesian_runs_load_no_scipy_spatial(tmp_path):
    # vertex merging and the hanging-node search sort coordinates instead of
    # querying a k-d tree, so building cartesian, loaded and merged meshes and
    # a cartesian run map none of these modules; only the hexagonal and
    # simplicial generators import scipy.spatial (Voronoi, Delaunay)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LEAN_RUN, write_cfg(tmp_path, RICKER_CFG),
                           str(tmp_path)], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    assert result["hexagonal_cells"] > 0
