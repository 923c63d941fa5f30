"""Golden lock of assembled operators, projections, diagnostics and marches.

Each operator case assembles an L2 mesh under one stabilization setting and
reduces every operator and vector to two numbers: its Frobenius norm and a
seeded bilinear form `y @ A @ x` (a seeded dot product `y @ v` for vectors).
The reference values in `golden_operators.json` were computed once with the
per-cell reference implementation; refactors of the integration path must
reproduce them to 1e-12 relative.

The march cases lock time-marching outputs in `golden_march.json`: the traces
and energy of a short `academic_ricker` run, a two-level convergence table,
the error of a 20-step manufactured SDIRK34 march on hexagonal L3, a two-level
efficiency table (its `cpu_seconds` aside) and a two-scheme CFL bracket table;
the names in the last two read as their positions in the study's list. Each column
must match to 1e-12 relative to the largest magnitude in that column, so that
trace samples near zero are held to the accuracy of the signal they belong to.
"""

import json
import math
import os

import numpy as np
import pytest

from hhowave import (MeshGenSpec, StabilizationConfig, assemble,
                     builtin_materials, cli, generate, merge_nonconforming, run_time_loop)
from hhowave.hho import load_moments, project_state
from hhowave.scenarios import (ManufacturedCase, l2_error_dual, manufactured_forcing,
                               manufactured_initial_state)
from hhowave.timestep import ImplicitStepper, tableau

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "golden_operators.json")
MARCH_GOLDEN_PATH = os.path.join(HERE, "golden_march.json")
CONFIG_DIR = os.path.join(HERE, os.pardir, "configs")
RICKER_CONFIG = os.path.join(CONFIG_DIR, "academic_ricker.json")
RTOL = 1e-12
BILAYER = dict(fluid_rect=(0.0, 0.0, 1.0, 1.0), solid_rect=(-1.0, 0.0, 0.0, 1.0))
MESHES = ("cartesian", "simplicial", "polygonal-hexagonal", "nonconforming")
CONFIGS = {
    "explicit-k1": (StabilizationConfig.explicit, 1),
    "implicit-k1": (StabilizationConfig.implicit, 1),
    "explicit-k2": (StabilizationConfig.explicit, 2),
}
MATRICES = ("mass", "k_tt", "k_tf", "k_ft", "k_ff", "k_td")


def golden_mesh(name):
    if name == "nonconforming":
        fluid = generate(MeshGenSpec("cartesian", 2, fluid_rect=(0.0, 0.0, 1.0, 1.0)))
        solid = generate(MeshGenSpec("cartesian", 1, solid_rect=(0.0, -1.0, 1.0, 0.0)))
        return merge_nonconforming(fluid, solid)
    return generate(MeshGenSpec(name, 2, **BILAYER))


def _seeded(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _matrix_pair(mat, seed):
    """Frobenius norm of the operator's CSR and y @ A @ x through the
    operator's own product (the class blocks for a cell operator)."""
    x = _seeded(mat.shape[1], seed)
    y = _seeded(mat.shape[0], seed + 1)
    csr = mat.tocsr()
    return [float(np.sqrt((csr.multiply(csr)).sum())), float(y @ (mat @ x))]


def _vector_pair(vec, seed):
    return [float(np.linalg.norm(vec)), float(_seeded(len(vec), seed) @ vec)]


def fingerprint(mesh_name, config_name):
    """The locked numbers of one (mesh, configuration) case."""
    make_config, k = CONFIGS[config_name]
    mesh = golden_mesh(mesh_name)
    materials = builtin_materials("academic")
    system = assemble(mesh, materials, make_config(), k)
    # omega = 1.3 keeps the boundary traces nonzero (omega = 5 zeroes them)
    case = ManufacturedCase(1.3, np.sqrt(2.0), materials)
    out = {}
    for seed, name in enumerate(MATRICES):
        out[name] = _matrix_pair(getattr(system, name), 10 * seed)
    loads = load_moments(system, fluid_fn=case.fluid_source_profile,
                         solid_fn=case.solid_source_profile)
    state = project_state(system, {
        "pressure": case.pressure_profile,
        "fluid_velocity": case.fluid_velocity_profile,
        "solid_velocity": case.solid_velocity_profile,
        "stress": case.stress_profile,
    })
    dirichlet = system.project_dirichlet(fluid_trace=case.pressure_profile,
                                         solid_trace=case.solid_velocity_profile)
    out["load_moments"] = _vector_pair(loads, 100)
    out["project_state"] = _vector_pair(state, 101)
    out["project_dirichlet"] = _vector_pair(dirichlet, 102)
    out["l2_error_dual"] = [l2_error_dual(state, system, case, 0.3)]
    rows = np.concatenate(cli.cell_average_rows(system))
    out["cell_average_rows"] = _vector_pair(rows, 103)
    return out


with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("mesh_name", MESHES)
def test_golden_operators(mesh_name, config_name):
    want = GOLDEN[f"{mesh_name}/{config_name}"]
    got = fingerprint(mesh_name, config_name)
    assert set(got) == set(want)
    for name, values in want.items():
        assert got[name] == pytest.approx(values, rel=RTOL, abs=0.0), name


# ---------------------------------------------------------------------------
# time-marching outputs

def _read_csv(path, names=()):
    """A CSV table as numbers; a value in `names` reads as its position there."""
    lines = path.read_text().strip().splitlines()
    return {"header": lines[0].split(","),
            "rows": [[names.index(v) if v in names else float(v) for v in line.split(",")]
                     for line in lines[1:]]}


def ricker_outputs(out_dir):
    """traces.csv and energy.csv of 100 SDIRK34 steps of academic_ricker on L3."""
    cfg = cli.load_config(RICKER_CONFIG, {"mesh": {"level": 3}, "dt": 0.0025,
                                          "final_time": 0.25,
                                          "output": {"trace_every": 4, "snapshot_every": 0}})
    assert cli.cmd_simulate(cfg, str(out_dir)) == cli.EXIT_OK
    return {"traces": _read_csv(out_dir / "traces.csv"),
            "energy": _read_csv(out_dir / "energy.csv")}


def converge_table(out_dir):
    """convergence.csv of `hhowave converge` at levels 2 and 3 (cartesian, SDIRK34)."""
    cfg = {"mesh": {"family": "cartesian", "fluid_rect": [0, 0, 1, 1],
                    "solid_rect": [-1, 0, 0, 1]},
           "degree": 1, "scheme": "SDIRK34", "dt": 0.02, "final_time": 0.1,
           "materials": "academic",
           "scenario": {"type": "manufactured", "omega": 1.0, "theta": 1.0}}
    path = out_dir / "converge.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["converge", "--config", str(path), "--out", str(out_dir),
                     "--levels", "2,3"]) == cli.EXIT_OK
    return {"convergence": _read_csv(out_dir / "convergence.csv")}


def efficiency_table(out_dir):
    """efficiency.csv of `configs/efficiency.json` at k=1, levels 1-2, ERK2 and
    SDIRK34, without its `cpu_seconds` column."""
    schemes = ["ERK2", "SDIRK34"]
    cfg = cli.load_config(os.path.join(CONFIG_DIR, "efficiency.json"),
                          {"degree": 1, "efficiency": {"schemes": schemes, "levels": [1, 2]}})
    assert cli.cmd_efficiency(cfg, str(out_dir)) == cli.EXIT_OK
    table = _read_csv(out_dir / "efficiency.csv", schemes)
    assert table["header"][-1] == "cpu_seconds"
    return {"efficiency": {"header": table["header"][:-1],
                           "rows": [row[:-1] for row in table["rows"]]}}


def cfl_table(out_dir):
    """cfl.csv of `configs/cfl_sweep.json` on cartesian L2, k=1, ERK2 and ERK4."""
    sweep = {"families": ["cartesian"], "degrees": [1], "schemes": ["ERK2", "ERK4"], "level": 2}
    cfg = cli.load_config(os.path.join(CONFIG_DIR, "cfl_sweep.json"), {"cfl_sweep": sweep})
    assert cli.cmd_cfl(cfg, str(out_dir)) == cli.EXIT_OK
    return {"cfl": _read_csv(out_dir / "cfl.csv", sweep["families"] + sweep["schemes"])}


def manufactured_hex_l3():
    """l2_error_dual after 20 SDIRK34 steps of the manufactured case on hexagonal L3."""
    mesh = generate(MeshGenSpec("polygonal-hexagonal", 3, **BILAYER))
    materials = builtin_materials("academic")
    system = assemble(mesh, materials, StabilizationConfig.implicit(), 1)
    case = ManufacturedCase(1.3, math.sqrt(2.0), materials)
    dt, n_steps = 0.01, 20
    stepper = ImplicitStepper(system, tableau("SDIRK34"), dt)
    u = run_time_loop(stepper, manufactured_initial_state(system, case), dt, n_steps,
                      forcing=manufactured_forcing(system, case))
    return {"l2_error_dual": {"header": ["error"],
                              "rows": [[l2_error_dual(u, system, case, n_steps * dt)]]}}


with open(MARCH_GOLDEN_PATH, encoding="utf-8") as _fh:
    MARCH_GOLDEN = json.load(_fh)


def assert_tables_match(got, want):
    assert set(got) == set(want)
    for name, table in want.items():
        assert got[name]["header"] == table["header"], name
        assert len(got[name]["rows"]) == len(table["rows"]), name
        cols_got = np.array(got[name]["rows"]).T
        for col, (g, w) in enumerate(zip(cols_got, np.array(table["rows"]).T)):
            label = f"{name}.{table['header'][col]}"
            assert np.array_equal(np.isnan(g), np.isnan(w)), label
            scale = np.max(np.abs(np.nan_to_num(w)))
            err = np.max(np.abs(np.nan_to_num(g - w)))
            assert err <= RTOL * scale, f"{label}: {err:.3e} > {RTOL:.0e} * {scale:.3e}"


def test_ricker_outputs_golden(tmp_path):
    assert_tables_match(ricker_outputs(tmp_path), MARCH_GOLDEN["ricker"])


def test_converge_table_golden(tmp_path):
    assert_tables_match(converge_table(tmp_path), MARCH_GOLDEN["converge"])


def test_efficiency_table_golden(tmp_path):
    assert_tables_match(efficiency_table(tmp_path), MARCH_GOLDEN["efficiency"])


def test_cfl_table_golden(tmp_path):
    assert_tables_match(cfl_table(tmp_path), MARCH_GOLDEN["cfl"])


def test_manufactured_sdirk34_hex_l3_golden():
    assert_tables_match(manufactured_hex_l3(), MARCH_GOLDEN["manufactured"])
