"""Manufactured-case consistency, diagnostics, sensors and CFL bracketing."""

import math
from functools import partial

import numpy as np
import pytest

from hhowave import (ExplicitStepper, ImplicitStepper, MeshGenSpec,
                     StabilizationConfig, assemble, builtin_materials, generate,
                     merge_nonconforming, tableau)
from hhowave import hho, mesh as msh
from hhowave import scenarios
from hhowave.materials import FluidMaterial, SolidMaterial
from hhowave.scenarios import (BoundSensor, CflBracketConfig, CflEstimate,
                               ManufacturedCase, RickerConfig, ScenarioError,
                               SensorSpec, cfl_bracket,
                               coupling_errors, energy, l2_error_dual,
                               manufactured_forcing, manufactured_initial_state,
                               ricker_initial_state, sensor_error)
from hhowave.timestep import run_time_loop

from oracles import (CellBasis, FaceBasis, cell_rows, exact_pressure, exact_solid_velocity,
                     hooke_inv, manufactured_state, point_in_polygon)

ACADEMIC = builtin_materials("academic")
BILAYER = dict(fluid_rect=(0.0, 0.0, 1.0, 1.0), solid_rect=(-1.0, 0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# built-in materials

def test_academic_materials():
    mats = builtin_materials("academic")
    fl, so = mats.by_region["fluid"], mats.by_region["solid"]
    assert fl.rho == 1.0 and so.rho == 1.0
    assert abs(so.c_p - math.sqrt(3.0)) < 1e-14
    assert abs(fl.c_p - 1.0) < 1e-14 and abs(so.c_s - 1.0) < 1e-14


def test_granite_water_materials():
    mats = builtin_materials("granite-water")
    fl, so = mats.by_region["fluid"], mats.by_region["solid"]
    assert (fl.rho, so.rho) == (1025.0, 2690.0)
    assert abs(fl.c_p - 1500.0) < 1e-9
    assert abs(so.c_p - 6000.0) < 1e-9 and abs(so.c_s - 3000.0) < 1e-9


def test_basin_materials():
    mats = builtin_materials("basin")
    atm = mats.by_region["atmosphere"]
    sed = mats.by_region["sediments"]
    bed = mats.by_region["bedrock"]
    assert isinstance(atm, FluidMaterial) and abs(atm.c_p - 343.0) < 1e-9
    assert isinstance(sed, SolidMaterial) and abs(sed.c_s - 900.0) < 1e-9
    assert abs(bed.c_p - 5350.0) < 1e-9 and abs(bed.c_s - 3009.0) < 1e-9
    assert atm.rho == 1.225


def test_unknown_material_set():
    with pytest.raises(ScenarioError):
        builtin_materials("vacuum")


# ---------------------------------------------------------------------------
# manufactured case: closed forms satisfy the governing equations

def fd_time(fn, t, pts, eps=1e-6):
    return (np.asarray(fn(t + eps, pts)) - np.asarray(fn(t - eps, pts))) / (2 * eps)


def fd_grad(fn, t, pts, eps=1e-6):
    ex = np.array([eps, 0.0])
    ey = np.array([0.0, eps])
    gx = (np.asarray(fn(t, pts + ex)) - np.asarray(fn(t, pts - ex))) / (2 * eps)
    gy = (np.asarray(fn(t, pts + ey)) - np.asarray(fn(t, pts - ey))) / (2 * eps)
    return gx, gy


def test_manufactured_acoustic_residuals():
    case = ManufacturedCase(2.0, math.sqrt(2.0), ACADEMIC)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 0.95, (100, 2))
    t = 0.37
    # momentum: d_t m - grad p = 0 (unit fluid density)
    dm = fd_time(case.exact_fluid_velocity, t, pts)
    gpx, gpy = fd_grad(partial(exact_pressure, case), t, pts)
    assert np.max(np.abs(dm[:, 0] - gpx)) < 1e-6
    assert np.max(np.abs(dm[:, 1] - gpy)) < 1e-6
    # continuity: (1/kappa) d_t p - div m = f
    kappa = ACADEMIC.by_region["fluid"].kappa
    dp = fd_time(partial(exact_pressure, case), t, pts)
    mx_x, _ = fd_grad(lambda tt, pp: case.exact_fluid_velocity(tt, pp)[:, 0], t, pts)
    _, my_y = fd_grad(lambda tt, pp: case.exact_fluid_velocity(tt, pp)[:, 1], t, pts)
    f_exact = case.fluid_source_profile(pts) * math.sin(case.theta * math.pi * t)
    res = dp / kappa - (mx_x + my_y) - f_exact
    assert np.max(np.abs(res)) < 1e-5


def test_manufactured_elastic_residuals():
    case = ManufacturedCase(2.0, math.sqrt(2.0), ACADEMIC)
    solid = ACADEMIC.by_region["solid"]
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.95, -0.05, (100, 2))
    pts[:, 1] = rng.uniform(0.05, 0.95, 100)
    t = 0.41
    # constitutive: C^-1 d_t s - sym grad v = 0
    ds = fd_time(case.exact_stress, t, pts)
    vx_x, vx_y = fd_grad(lambda tt, pp: exact_solid_velocity(case, tt, pp)[:, 0], t, pts)
    vy_x, vy_y = fd_grad(lambda tt, pp: exact_solid_velocity(case, tt, pp)[:, 1], t, pts)
    eps_fd = np.column_stack([vx_x, vy_y, 0.5 * (vx_y + vy_x)])
    assert np.max(np.abs(hooke_inv(solid, ds) - eps_fd)) < 1e-5
    # momentum: rho d_t v - div s = f
    dv = fd_time(partial(exact_solid_velocity, case), t, pts)
    sxx_x, _ = fd_grad(lambda tt, pp: case.exact_stress(tt, pp)[:, 0], t, pts)
    _, syy_y = fd_grad(lambda tt, pp: case.exact_stress(tt, pp)[:, 1], t, pts)
    sxy_x, sxy_y = fd_grad(lambda tt, pp: case.exact_stress(tt, pp)[:, 2], t, pts)
    f_exact = case.solid_source_profile(pts) * math.cos(case.theta * math.pi * t)
    res_x = solid.rho * dv[:, 0] - (sxx_x + sxy_y) - f_exact[:, 0]
    res_y = solid.rho * dv[:, 1] - (sxy_x + syy_y) - f_exact[:, 1]
    assert np.max(np.abs(res_x)) < 1e-5
    assert np.max(np.abs(res_y)) < 1e-5


def test_manufactured_interface_compatibility():
    # all fields vanish on the x = 0 interface, so both coupling conditions hold
    case = ManufacturedCase(5.0, math.sqrt(2.0), ACADEMIC)
    ys = np.linspace(0.05, 0.95, 20)
    pts = np.column_stack([np.zeros_like(ys), ys])
    assert np.max(np.abs(exact_pressure(case, 0.3, pts))) < 1e-13
    assert np.max(np.abs(case.exact_fluid_velocity(0.3, pts))) < 1e-13
    assert np.max(np.abs(exact_solid_velocity(case, 0.3, pts))) < 1e-13
    assert np.max(np.abs(case.exact_stress(0.3, pts))) < 1e-13


def test_manufactured_requires_unit_fluid_density():
    bad = builtin_materials("granite-water")
    with pytest.raises(ScenarioError):
        ManufacturedCase(1.0, 1.0, bad)


# ---------------------------------------------------------------------------
# energy

def test_energy_zero_state():
    mesh = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    assert energy(np.zeros(system.n_cell_dofs), system) == 0.0


def test_energy_constant_pressure():
    # single unit fluid cell, rho = kappa = 1, p = 1, m = 0: E = 1/2
    import hhowave.mesh as msh

    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    mesh = msh.PolyMesh(verts, [np.arange(4)], [msh.FLUID])
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    from hhowave.hho import project_state

    u = project_state(system, {"pressure": lambda p: np.ones(len(p))})
    assert abs(energy(u, system) - 0.5) < 1e-13


def test_energy_dissipative_run_sdirk():
    mesh = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    case = ManufacturedCase(2.0, math.sqrt(2.0), ACADEMIC)
    u = manufactured_initial_state(system, case)
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.02)
    energies = [energy(u, system)]
    for n in range(25):
        u = stepper.step(u, n * 0.02, 0.02)
        energies.append(energy(u, system))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-11 * energies[0])


# ---------------------------------------------------------------------------
# error metrics

def test_sensor_error_identical_and_scaled():
    rng = np.random.default_rng(3)
    trace = rng.standard_normal((50, 1))
    assert sensor_error(trace, trace) == 0.0
    # reference scaled by 2 against itself: |x - 2x| / |2x| = 1/2
    v = rng.standard_normal((50, 2))
    assert abs(sensor_error(v, 2 * v) - 0.5) < 1e-12


def test_sensor_error_mismatched_grid():
    ones = np.ones((10, 1))
    with pytest.raises(ScenarioError, match="shapes differ"):
        sensor_error(ones, np.ones((12, 1)))
    with pytest.raises(ScenarioError):
        sensor_error(ones, np.zeros((10, 1)))


def test_l2_error_dual_zero_and_projection_floor():
    mesh = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    case = ManufacturedCase(1.0, 1.0, ACADEMIC)
    zero_vs_zero = l2_error_dual(np.zeros(system.n_cell_dofs), system, case, 0.0)
    # at t = 0 the dual fields vanish (m ~ sin(0), s ~ cos(0) is nonzero though)
    # so compare projected state against the exact one instead
    u = manufactured_initial_state(system, case)
    err = l2_error_dual(u, system, case, 0.0)
    ref = l2_error_dual(np.zeros_like(u), system, case, 0.0)
    assert err < 0.2 * ref  # projection error well below the field norm
    assert zero_vs_zero == ref


# ---------------------------------------------------------------------------
# Ricker

def test_ricker_field_shape():
    cfg = RickerConfig(amplitude=2.0, central_frequency=10.0, center=(0.2, 0.3),
                       sound_speed=1.0)
    assert abs(cfg.wavelength - 0.1) < 1e-15
    val_center = cfg.initial_velocity(np.array([[0.2, 0.3]]))
    assert np.allclose(val_center, 0.0)
    # radial decay
    r1 = np.linalg.norm(cfg.initial_velocity(np.array([[0.22, 0.3]])))
    r2 = np.linalg.norm(cfg.initial_velocity(np.array([[0.30, 0.3]])))
    assert r1 > r2


def test_ricker_initial_state_energy_positive():
    mesh = generate(MeshGenSpec("cartesian", 3, fluid_rect=(-0.5, 0, 0.5, 0.5),
                                solid_rect=(-0.5, -0.5, 0.5, 0)))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    cfg = RickerConfig(1.0, 10.0, (0.0, 0.125), 1.0)
    u0 = ricker_initial_state(system, cfg)
    assert energy(u0, system) > 0


# ---------------------------------------------------------------------------
# sensors

def make_ricker_system(level=3, k=1, mode="implicit"):
    mesh = generate(MeshGenSpec("cartesian", level, fluid_rect=(-0.5, 0, 0.5, 0.5),
                                solid_rect=(-0.5, -0.5, 0.5, 0)))
    config = (StabilizationConfig.implicit() if mode == "implicit"
              else StabilizationConfig.explicit())
    return assemble(mesh, ACADEMIC, config, k=k)


def test_sensor_binding_and_channels():
    system = make_ricker_system()
    s_f = BoundSensor(SensorSpec((-0.2, 0.3), "fluid", "Sf"), system)
    s_s = BoundSensor(SensorSpec((-0.2, -0.2), "solid", "Ss"), system)
    s_i = BoundSensor(SensorSpec((-0.3, 0.0), "interface", "Si"), system)
    assert s_f.channels == ["p", "mx", "my"]
    assert s_s.channels == ["vx", "vy", "sxx", "syy", "sxy"]
    assert len(s_i.channels) == 8
    assert np.allclose(s_i.normal, (0.0, 1.0))


def test_sensors_on_interface_bind_to_their_own_side():
    system = make_ricker_system()
    mesh = system.mesh
    point = (-0.3, 0.0)
    s_f = BoundSensor(SensorSpec(point, "fluid", "Sf"), system)
    s_s = BoundSensor(SensorSpec(point, "solid", "Ss"), system)
    assert mesh.subdomain[s_f.cell] == msh.FLUID and mesh.subdomain[s_s.cell] == msh.SOLID
    # the lowest-numbered cell of the wanted subdomain that holds the point
    for sensor in (s_f, s_s):
        sub = mesh.subdomain[sensor.cell]
        holders = [ci for ci in mesh.cells_of_subdomain(sub)
                   if point_in_polygon(np.array(point),
                                       mesh.vertices[mesh.edge_start[cell_rows(mesh, ci)]],
                                       1e-12 * mesh.length_scale)]
        assert sensor.cell == holders[0]


def test_sensor_outside_mesh_rejected():
    system = make_ricker_system()
    for kind in ("fluid", "solid"):
        with pytest.raises(msh.MeshError, match="outside"):
            BoundSensor(SensorSpec((2.0, 0.2), kind, "far"), system)


def test_sensor_off_interface_rejected():
    system = make_ricker_system()
    with pytest.raises(ScenarioError):
        BoundSensor(SensorSpec((-0.3, 0.21), "interface", "bad"), system)


def test_sensor_records_projected_fields():
    system = make_ricker_system()
    cfg = RickerConfig(1.0, 2.0, (0.0, 0.125), 1.0)  # wide pulse, well resolved
    u0 = ricker_initial_state(system, cfg)
    sensor = BoundSensor(SensorSpec((-0.1, 0.2), "fluid", "Sf"), system)
    rec = sensor.record(u0, None, system.layout)
    exact = cfg.initial_velocity(np.array([[-0.1, 0.2]]))[0]
    assert abs(rec[0]) < 1e-10                      # zero initial pressure
    assert np.max(np.abs(rec[1:] - exact)) < 0.05 * max(1e-12, np.linalg.norm(exact))


# fluid, solid and interface positions on meshes whose interface is x = 0
# (side-by-side bilayer) or y = 0 (hanging-node merge of a 4x4 fluid over a
# 2x2 solid)
SENSOR_CASES = {
    "cartesian": (lambda: generate(MeshGenSpec("cartesian", 2, **BILAYER)),
                  ((0.37, 0.61), (-0.43, 0.29), (0.0, 0.3137))),
    "polygonal-hexagonal": (
        lambda: generate(MeshGenSpec("polygonal-hexagonal", 2, **BILAYER)),
        ((0.37, 0.61), (-0.43, 0.29), (0.0, 0.3137))),
    "nonconforming": (
        lambda: merge_nonconforming(
            generate(MeshGenSpec("cartesian", 2, fluid_rect=(0.0, 0.0, 1.0, 1.0))),
            generate(MeshGenSpec("cartesian", 1, solid_rect=(0.0, -1.0, 1.0, 0.0)))),
        ((0.61, 0.37), (0.29, -0.43), (0.3137, 0.0))),
}


def _faces_through(mesh, point, faces):
    """The faces among `faces` whose segment contains `point`, in id order."""
    hits = []
    for fi in faces:
        a, b = mesh.vertices[mesh.faces[fi]]
        ab, ap = b - a, point - a
        tol = 1e-12 * mesh.length_scale
        if (abs(ab[0] * ap[1] - ab[1] * ap[0]) <= tol * np.hypot(*ab)
                and -tol <= ap @ ab <= ab @ ab + tol):
            hits.append(int(fi))
    return hits


def pointwise_channels(system, spec, u_t, u_f):
    """Sensor channels from the cell and face polynomials evaluated at the point.

    Reads the dof layout from its offsets: a cell block is dual (degree k)
    then primal (degree k'), an interface face block is the fluid trace then
    the solid one, and the components of every block are interleaved.
    """
    mesh, layout = system.mesh, system.layout
    point = np.asarray(spec.position, dtype=float)

    def split(coeff, row):
        n_comp = len(coeff) // len(row)
        return [float(row @ coeff[c::n_comp]) for c in range(n_comp)]

    def cell(ci, part):
        start, mid, stop = (layout.cell_offset[ci],
                            layout.cell_offset[ci] + layout.cell_dual_size[ci],
                            layout.cell_offset[ci + 1])
        coeff, degree = ((u_t[start:mid], layout.k) if part == "dual"
                         else (u_t[mid:stop], layout.k_prime))
        basis = CellBasis(mesh.cell_centroid[ci], mesh.cell_diameter[ci], degree)
        return split(coeff, basis.eval(point)[0])

    def face(fi, side):
        off, fd = layout.face_offset[fi], layout.n_face_scalar
        coeff = u_f[off:off + fd] if side == "fluid" else u_f[off + fd:off + 3 * fd]
        return split(coeff, FaceBasis(*mesh.vertices[mesh.faces[fi]], layout.k).eval(point)[0])

    if spec.kind == "interface":
        fi = _faces_through(mesh, point, mesh.interface_faces)[0]
        pair = (int(mesh.face_owner[fi]), int(mesh.face_neighbor[fi]))
        fluid = next(c for c in pair if mesh.subdomain[c] == msh.FLUID)
        solid = next(c for c in pair if mesh.subdomain[c] == msh.SOLID)
        return (face(fi, "fluid") + cell(fluid, "dual")
                + face(fi, "solid") + cell(solid, "dual"))
    sub = msh.FLUID if spec.kind == "fluid" else msh.SOLID
    ci = mesh.locate_cell(point, subdomain=sub)
    return cell(ci, "primal") + cell(ci, "dual")


@pytest.mark.parametrize("mode", ["equal", "mixed"])
@pytest.mark.parametrize("mesh_name", sorted(SENSOR_CASES))
def test_sensor_records_match_pointwise_reference(mesh_name, mode):
    build, positions = SENSOR_CASES[mesh_name]
    config = StabilizationConfig.explicit() if mode == "equal" else StabilizationConfig.implicit()
    system = assemble(build(), ACADEMIC, config, k=2)
    rng = np.random.default_rng(11)
    for position, kind in zip(positions, ("fluid", "solid", "interface")):
        spec = SensorSpec(position, kind, kind)
        sensor = BoundSensor(spec, system)
        for _ in range(3):
            u_t = rng.standard_normal(system.n_cell_dofs)
            u_f = rng.standard_normal(system.n_face_dofs)
            want = pointwise_channels(system, spec, u_t, u_f)
            got = sensor.record(u_t, u_f if kind == "interface" else None, system.layout)
            assert len(got) == len(want) == len(sensor.channels)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_interface_sensor_on_shared_vertex_binds_to_lower_face():
    system = assemble(generate(MeshGenSpec("cartesian", 2, **BILAYER)), ACADEMIC,
                      StabilizationConfig.explicit(), k=1)
    mesh = system.mesh
    spec = SensorSpec((0.0, 0.5), "interface", "corner")
    lower, upper = _faces_through(mesh, np.array(spec.position), mesh.interface_faces)
    sensor = BoundSensor(spec, system)
    assert np.array_equal(sensor.normal, mesh.face_normal[lower])
    rng = np.random.default_rng(5)
    u_t = rng.standard_normal(system.n_cell_dofs)
    u_f = rng.standard_normal(system.n_face_dofs)
    got = sensor.record(u_t, u_f, system.layout)
    np.testing.assert_allclose(got, pointwise_channels(system, spec, u_t, u_f),
                               rtol=1e-13, atol=1e-13)
    # the upper face's trace differs, so the binding is observable
    fd = system.layout.n_face_scalar
    trace = FaceBasis(*mesh.vertices[mesh.faces[upper]], 1).eval(np.array(spec.position))[0]
    off = system.layout.face_offset[upper]
    assert abs(float(trace @ u_f[off:off + fd]) - got[0]) > 1e-3


def test_coupling_errors_zero_for_consistent_record():
    # matching traces: pF n - s n = 0 and (vF - m) n = 0
    rec = np.array([[2.0, 0.3, 0.7, 0.1, 0.7, 1.0, 2.0, 0.0]])
    kin, dyn = coupling_errors(rec, (0.0, 1.0))
    assert abs(kin[0]) < 1e-15
    assert abs(dyn[0]) < 1e-15


# ---------------------------------------------------------------------------
# CFL bracketing

def test_cfl_bracket_contract():
    mesh = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    est = cfl_bracket(system, tableau("ERK2"), h=mesh.cell_diameter.mean(),
                      u0=manufactured_state(system), final_time=1.0)
    assert est.cfl_stable < est.cfl_unstable
    assert est.n_stable > est.n_unstable
    assert abs(est.c_sharp - math.sqrt(3.0)) < 1e-14
    # determinism: rerunning reproduces the bracket exactly
    est2 = cfl_bracket(system, tableau("ERK2"), h=mesh.cell_diameter.mean(),
                       u0=manufactured_state(system), final_time=1.0)
    assert est2.n_stable == est.n_stable and est2.n_unstable == est.n_unstable


def cfl_system(level):
    mesh = generate(MeshGenSpec("cartesian", level, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    return system, float(mesh.cell_diameter.mean())


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("factor", [0.25, 4.0])
def test_cfl_bracket_survives_a_bad_seed(monkeypatch, level, factor):
    # the spectral seed only chooses where the search starts
    system, h = cfl_system(level)
    want = cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system))
    spectral_dt = scenarios.spectral_dt
    monkeypatch.setattr(scenarios, "spectral_dt",
                        lambda st, h: (factor * spectral_dt(st, h)[0], True))
    got = cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system))
    assert (got.n_stable, got.n_unstable) == (want.n_stable, want.n_unstable)
    assert got.cfl_spectral == pytest.approx(factor * want.cfl_spectral, rel=1e-12)
    assert got.runs > want.runs


def test_cfl_bracket_pair_is_verified_and_within_delta():
    system, h = cfl_system(3)
    config = CflBracketConfig(eps=0.05, delta=0.1)
    est = cfl_bracket(system, tableau("ERK4"), h, manufactured_state(system), config=config)
    stepper = ExplicitStepper(system, tableau("ERK4"))
    u0 = manufactured_initial_state(system, ManufacturedCase(5.0, math.sqrt(2.0), ACADEMIC))
    for n, want in ((est.n_stable, True), (est.n_unstable, False)):
        assert scenarios._energy_stable_run(system, stepper, u0, 1.0 / n, n,
                                            config.eps) is want
    assert 1 <= est.n_stable - est.n_unstable <= max(1, int(config.delta * est.n_stable))
    assert est.runs >= 2


def test_cfl_bracket_falls_back_without_arpack(monkeypatch):
    system, h = cfl_system(2)
    want = cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system))

    def no_convergence(*args, **kwargs):
        raise hho.spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(hho.spla, "eigs", no_convergence)
    # a fresh system: the first one keeps the spectrum it already computed
    system, h = cfl_system(2)
    got = cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system))
    assert system.explicit_spectrum is None
    assert (got.n_stable, got.n_unstable) == (want.n_stable, want.n_unstable)
    assert math.isnan(got.cfl_spectral) and not math.isnan(want.cfl_spectral)


def test_schemes_share_one_operator_and_one_spectrum(monkeypatch):
    fresh = {}
    for scheme in ("ERK2", "ERK4"):
        system, h = cfl_system(3)
        est = cfl_bracket(system, tableau(scheme), h, manufactured_state(system))
        fresh[scheme] = (est.n_stable, est.n_unstable, est.cfl_spectral)
    calls = []
    eigs = hho.spla.eigs
    monkeypatch.setattr(hho.spla, "eigs",
                        lambda op, **kwargs: calls.append(op.shape[0]) or eigs(op, **kwargs))
    system, h = cfl_system(3)
    for scheme in ("ERK2", "ERK4"):
        est = cfl_bracket(system, tableau(scheme), h, manufactured_state(system))
        assert (est.n_stable, est.n_unstable, est.cfl_spectral) == fresh[scheme], scheme
    assert len(calls) == 1
    erk2 = ExplicitStepper(system, tableau("ERK2"))
    assert erk2.op is ExplicitStepper(system, tableau("ERK4")).op
    # and one face elimination per system: both kinds of stepper read the
    # same face values, which P = -K_FF^-1 K_FT as CSR reproduces
    u = np.random.default_rng(0).standard_normal(system.n_cell_dofs)
    u_f = ImplicitStepper(system, tableau("SDIRK34"), 0.01).face_values(u)
    assert np.array_equal(u_f, erk2.face_values(u))
    want = -(system.kff_inverse @ (system.k_ft.tocsr() @ u))
    assert np.linalg.norm(u_f - want) <= 1e-13 * np.linalg.norm(u_f)


def test_implicit_run_builds_no_explicit_operator(monkeypatch):
    # nor any CSR of a cell operator: energy and face values come from the
    # class blocks, and no CSR of M, K_TT, K_TF or K_FT is formed
    def no_csr(*args):
        raise AssertionError("CSR of a cell operator formed")

    monkeypatch.setattr(hho.CellClasses, "matrix", no_csr)
    system = assemble(generate(MeshGenSpec("cartesian", 2, **BILAYER)), ACADEMIC,
                      StabilizationConfig.implicit(), k=1)
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    u = run_time_loop(stepper, np.ones(system.n_cell_dofs), 0.01, 3)
    stepper.face_values(u)
    energy(u, system)
    assert "kff_inverse" in vars(system)
    assert not {"minv", "explicit_op", "explicit_spectrum"} & set(vars(system))


def test_cfl_bracket_raises_when_every_doubling_is_unstable(monkeypatch):
    system, h = cfl_system(1)
    steps = []
    monkeypatch.setattr(scenarios, "_energy_stable_run",
                        lambda *args: steps.append(args[4]) or False)
    with pytest.raises(ScenarioError):
        cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system))
    assert len(steps) == scenarios._MAX_DOUBLINGS + 1
    assert steps == sorted(set(steps))


def test_cfl_bracket_raises_when_no_step_count_is_unstable(monkeypatch):
    system, h = cfl_system(1)
    monkeypatch.setattr(scenarios, "_energy_stable_run", lambda *args: True)
    with pytest.raises(ScenarioError):
        cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system))


def test_cfl_bracket_rejects_implicit():
    mesh = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    with pytest.raises(ScenarioError):
        cfl_bracket(system, tableau("SDIRK23"), h=0.5, u0=manufactured_state(system))


def test_cfl_bracket_config_validation():
    with pytest.raises(ScenarioError):
        CflBracketConfig(delta=0.0)
    with pytest.raises(ScenarioError):
        CflBracketConfig(eps=-1.0)
    with pytest.raises(ScenarioError):
        CflEstimate(0.3, 0.2, 10, 12, 1.0, 0.1)


def test_erk_stable_run_preserves_energy_reasonably():
    mesh = generate(MeshGenSpec("cartesian", 3, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    case = ManufacturedCase(5.0, math.sqrt(2.0), ACADEMIC)
    u0 = manufactured_initial_state(system, case)
    e0 = energy(u0, system)
    stepper = ExplicitStepper(system, tableau("ERK4"))
    dt = 0.25 * 0.205 * mesh.cell_diameter.mean() / math.sqrt(3.0)
    n = int(1.0 / dt)
    u = run_time_loop(stepper, u0, dt, n)
    e = energy(u, system)
    # under-resolved modes dissipate strongly, but energy must never grow
    assert e <= e0 * 1.001
    assert e > 0.0
