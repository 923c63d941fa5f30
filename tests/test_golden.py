"""Golden lock of assembled operators, projections and diagnostics.

Each case assembles an L2 mesh under one stabilization setting and reduces
every operator and vector to two numbers: its Frobenius norm and a seeded
bilinear form `y @ A @ x` (a seeded dot product `y @ v` for vectors). The
reference values in `golden_operators.json` were computed once with the
per-cell reference implementation; refactors of the integration path must
reproduce them to 1e-12 relative.
"""

import json
import os

import numpy as np
import pytest

from hhowave import (MeshGenSpec, StabilizationConfig, assemble, builtin_materials,
                     cli, generate, merge_nonconforming)
from hhowave.hho import load_moments, project_state
from hhowave.scenarios import ManufacturedCase, l2_error_dual

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_operators.json")
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
    x = _seeded(mat.shape[1], seed)
    y = _seeded(mat.shape[0], seed + 1)
    return [float(np.sqrt((mat.multiply(mat)).sum())), float(y @ (mat @ x))]


def _vector_pair(vec, seed):
    return [float(np.linalg.norm(vec)), float(_seeded(len(vec), seed) @ vec)]


def fingerprint(mesh_name, config_name):
    """The locked numbers of one (mesh, configuration) case."""
    make_config, k = CONFIGS[config_name]
    mesh = golden_mesh(mesh_name)
    materials = builtin_materials("academic")
    system = assemble(mesh, materials, make_config(), k)
    layout = system.layout
    # omega = 1.3 keeps the boundary traces nonzero (omega = 5 zeroes them)
    case = ManufacturedCase(1.3, np.sqrt(2.0), materials)
    out = {}
    for seed, name in enumerate(MATRICES):
        out[name] = _matrix_pair(getattr(system, name), 10 * seed)
    loads = load_moments(mesh, layout, fluid_fn=case.fluid_source_profile,
                         solid_fn=case.solid_source_profile)
    state = project_state(mesh, layout, {
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
