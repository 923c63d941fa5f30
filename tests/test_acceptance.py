"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The CFL reproduction
criteria dominate the runtime (several minutes of explicit bracketing runs);
everything else finishes in seconds.
"""

import math

import numpy as np
import pytest

import hhowave.mesh as msh
from hhowave import (CondensedFactorization, DofLayout, ExplicitStepper,
                     ImplicitStepper, MeshGenSpec, StabilizationConfig,
                     assemble, builtin_materials, face_dof_fraction, generate, tableau)
from hhowave.hho import build_cell_blocks
from hhowave.scenarios import (BoundSensor, CflBracketConfig, ManufacturedCase,
                               RickerConfig, SensorSpec, cfl_bracket,
                               coupling_errors, energy, l2_error_dual,
                               manufactured_forcing, manufactured_initial_state,
                               ricker_initial_state)
from hhowave.timestep import run_time_loop

from oracles import CellBasis, grad, manufactured_state, polygon_quadrature
from test_basis import greens_monomial_integral, random_star_polygon
from test_hho import hho_interpolate, reconstruct_fluid_gradient, stab_quadratic_form
from test_timestep import dense_erk_step, dense_sdirk_step, stage_solve

ACADEMIC = builtin_materials("academic")
SIDE_BY_SIDE = dict(fluid_rect=(0.0, 0.0, 1.0, 1.0), solid_rect=(-1.0, 0.0, 0.0, 1.0))
STACKED = dict(fluid_rect=(-0.5, 0.0, 0.5, 0.5), solid_rect=(-0.5, -0.5, 0.5, 0.0))


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. condensation oracle equivalence

def test_criterion_1_condensation_oracles():
    mesh = generate(MeshGenSpec("cartesian", 1, **SIDE_BY_SIDE))
    worst_sdirk = 0.0
    worst_erk = 0.0
    for k in (1, 2):
        # implicit path: one SDIRK(2,3) stage via Schur condensation
        system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=k)
        case = ManufacturedCase(2.0, math.sqrt(2.0), ACADEMIC)
        u0 = manufactured_initial_state(system, case)
        forcing = manufactured_forcing(system, case)
        tab = tableau("SDIRK23")
        dt = 0.02
        fact = CondensedFactorization(system, tab.a_star, dt)
        rng = np.random.default_rng(k)
        b_t = system.mass @ u0 + dt * rng.standard_normal(system.n_cell_dofs)
        b_f = rng.standard_normal(system.n_face_dofs)
        u_t, u_f = stage_solve(fact, b_t, b_f)
        ad = tab.a_star * dt
        big = np.block([[system.mass.tocsr().toarray() + ad * system.k_tt.tocsr().toarray(),
                         ad * system.k_tf.tocsr().toarray()],
                        [ad * system.k_ft.tocsr().toarray(), ad * system.k_ff.toarray()]])
        ref = np.linalg.solve(big, np.concatenate([b_t, b_f]))
        err = (np.linalg.norm(np.concatenate([u_t, u_f]) - ref)
               / np.linalg.norm(ref))
        worst_sdirk = max(worst_sdirk, err)
        # and the full condensed step against the dense stage recursion
        stepper = ImplicitStepper(system, tab, dt)
        u_cond = stepper.step(u0.copy(), 0.0, dt, forcing)
        u_dense = dense_sdirk_step(system, tab, u0.copy(), 0.0, dt, forcing)
        worst_sdirk = max(worst_sdirk,
                          np.linalg.norm(u_cond - u_dense) / np.linalg.norm(u_dense))

        # explicit path: one ERK(2) step via face elimination
        system_x = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=k)
        u0x = manufactured_initial_state(system_x, case)
        forcing_x = manufactured_forcing(system_x, case)
        tab2 = tableau("ERK2")
        u_block = ExplicitStepper(system_x, tab2).step(u0x.copy(), 0.0, 0.005, forcing_x)
        u_ref = dense_erk_step(system_x, tab2, u0x.copy(), 0.0, 0.005, forcing_x)
        worst_erk = max(worst_erk,
                        np.linalg.norm(u_block - u_ref) / np.linalg.norm(u_ref))
    report(1, "condensation equals monolithic solves (k=1,2)",
           worst_sdirk < 1e-9 and worst_erk < 1e-11,
           f"sdirk {worst_sdirk:.2e} < 1e-9, erk {worst_erk:.2e} < 1e-11")


# ---------------------------------------------------------------------------
# 2-3. CFL reproduction (slow: explicit bracketing runs)

CFL_LEVEL = 4
TABLE2 = {(1, "ERK2"): 0.205, (1, "ERK4"): 0.282, (2, "ERK2"): 0.099,
          (3, "ERK4"): 0.087, (3, "ERK2"): 0.063}
TABLE3 = {"polygonal-hexagonal": 0.264, "cartesian": 0.205, "simplicial": 0.191}


@pytest.fixture(scope="module")
def cartesian_cfl():
    mesh = generate(MeshGenSpec("cartesian", CFL_LEVEL, **SIDE_BY_SIDE))
    h = float(np.mean(mesh.cell_diameter))
    values = {}
    # one system per degree: its schemes share one operator and one spectrum
    systems = {}
    for (k, scheme) in TABLE2:
        if k not in systems:
            systems[k] = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(0.8, 1.5), k=k)
        est = cfl_bracket(systems[k], tableau(scheme), h, manufactured_state(systems[k]),
                          final_time=1.0,
                          config=CflBracketConfig(eps=0.05, delta=0.01))
        values[(k, scheme)] = est.cfl_stable
    return values


def test_criterion_2_cfl_table2(cartesian_cfl):
    checks = []
    for (k, scheme) in ((1, "ERK2"), (1, "ERK4"), (2, "ERK2"), (3, "ERK4")):
        got = cartesian_cfl[(k, scheme)]
        want = TABLE2[(k, scheme)]
        checks.append((f"k={k},{scheme}", got, want, abs(got - want) / want))
    ratios = [1.0,
              cartesian_cfl[(2, "ERK2")] / cartesian_cfl[(1, "ERK2")],
              cartesian_cfl[(3, "ERK2")] / cartesian_cfl[(1, "ERK2")]]
    ratio_want = [1.0, 0.48, 0.31]
    ok_vals = all(rel <= 0.15 for _, _, _, rel in checks)
    ok_ratios = all(abs(r - w) <= 0.05 for r, w in zip(ratios, ratio_want))
    detail = "; ".join(f"{name}: {got:.4f} vs {want} ({100*rel:.1f}%)"
                       for name, got, want, rel in checks)
    detail += "; k-ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    report(2, "CFL* matches Table 2 within 15% and k-ratios within 0.05",
           ok_vals and ok_ratios, detail)


def test_criterion_3_cfl_mesh_geometry(cartesian_cfl):
    values = {"cartesian": cartesian_cfl[(1, "ERK2")]}
    for family in ("simplicial", "polygonal-hexagonal"):
        mesh = generate(MeshGenSpec(family, CFL_LEVEL, **SIDE_BY_SIDE))
        h = float(np.mean(mesh.cell_diameter))
        system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(0.8, 1.5), k=1)
        est = cfl_bracket(system, tableau("ERK2"), h, manufactured_state(system),
                          final_time=1.0)
        values[family] = est.cfl_stable
    ordered = (values["polygonal-hexagonal"] > values["cartesian"] > values["simplicial"])
    within = all(abs(values[f] - TABLE3[f]) / TABLE3[f] <= 0.15 for f in values)
    detail = "; ".join(f"{f}: {values[f]:.4f} vs {TABLE3[f]}" for f in
                       ("polygonal-hexagonal", "cartesian", "simplicial"))
    report(3, "CFL* ordering hexagonal > cartesian > simplicial, within 15% of Table 3",
           ordered and within, detail)


# ---------------------------------------------------------------------------
# 4. spatial convergence

def test_criterion_4_spatial_convergence():
    case = ManufacturedCase(5.0, math.sqrt(2.0), ACADEMIC)
    tab = tableau("SDIRK34")
    dt = 0.1 * 2.0 ** -8
    final_time = 0.5
    n_steps = round(final_time / dt)
    results = {}
    for k in (1, 2):
        errs = []
        for level in (2, 3, 4):
            mesh = generate(MeshGenSpec("cartesian", level, **SIDE_BY_SIDE))
            system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=k)
            u0 = manufactured_initial_state(system, case)
            forcing = manufactured_forcing(system, case)
            stepper = ImplicitStepper(system, tab, dt)
            u = run_time_loop(stepper, u0, dt, n_steps, forcing=forcing)
            errs.append(l2_error_dual(u, system, case, final_time))
        rate = math.log2(errs[1] / errs[2])
        results[k] = (errs, rate)
    ok = all(results[k][1] >= k + 0.8
             and results[k][0][0] > results[k][0][1] > results[k][0][2]
             for k in (1, 2))
    detail = "; ".join(f"k={k}: rate {results[k][1]:.2f} (need {k + 0.8})"
                       for k in (1, 2))
    report(4, "dual-variable L2 rates over levels 2..4 reach k+0.8", ok, detail)


# ---------------------------------------------------------------------------
# 5. temporal convergence

def test_criterion_5_temporal_convergence():
    case = ManufacturedCase(1.0, 10.0, ACADEMIC)
    final_time = 0.32
    mesh = generate(MeshGenSpec("cartesian", 2, **SIDE_BY_SIDE))
    targets = {"ERK2": 1.7, "ERK3": 2.7, "ERK4": 3.7, "SDIRK23": 2.7, "SDIRK34": 3.7}
    rates = {}
    for mode, kinds, base in (("explicit", ("ERK2", "ERK3", "ERK4"), 0.008),
                              ("implicit", ("SDIRK23", "SDIRK34"), 0.02)):
        config = (StabilizationConfig.explicit() if mode == "explicit"
                  else StabilizationConfig.implicit())
        system = assemble(mesh, ACADEMIC, config, k=3)
        u0 = manufactured_initial_state(system, case)
        forcing = manufactured_forcing(system, case)

        def run(tab, dt):
            n = round(final_time / dt)
            stepper = (ExplicitStepper(system, tab) if tab.explicit
                       else ImplicitStepper(system, tab, dt))
            return run_time_loop(stepper, u0, dt, n, forcing=forcing)

        ref = run(tableau("SDIRK34"), base / 64)
        for kind in kinds:
            tab = tableau(kind)
            errs = [float(np.sqrt((run(tab, base / 2**j) - ref)
                                  @ (system.mass @ (run(tab, base / 2**j) - ref))))
                    for j in range(4)]
            rates[kind] = math.log2(errs[2] / errs[3])
    ok = all(rates[k] >= targets[k] for k in targets)
    detail = "; ".join(f"{k}: {rates[k]:.2f} (need {targets[k]})" for k in targets)
    report(5, "temporal orders over 3 halvings", ok, detail)


# ---------------------------------------------------------------------------
# 6. energy behavior

def test_criterion_6_energy_behavior():
    ricker = RickerConfig(1.0, 10.0, (0.0, 0.125), 1.0)
    mesh = generate(MeshGenSpec("cartesian", 4, **STACKED))

    # implicit: non-increasing within 10x the solver tolerance per step
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    u = ricker_initial_state(system, ricker)
    e0 = energy(u, system)
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    slack = 10.0 * 1e-12 * e0
    monotone = True
    e_prev = e0
    for n in range(100):
        u = stepper.step(u, n * 0.01, 0.01)
        e = energy(u, system)
        if e - e_prev > slack:
            monotone = False
            break
        e_prev = e

    # explicit: bounded growth at half the critical step over T_f = 1
    system_x = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    u = ricker_initial_state(system_x, ricker)
    e0x = energy(u, system_x)
    h = float(np.mean(mesh.cell_diameter))
    dt = 0.5 * 0.282 * h / math.sqrt(3.0)
    n_steps = math.ceil(1.0 / dt)
    stepper_x = ExplicitStepper(system_x, tableau("ERK4"))
    worst = 0.0
    e_prev = e0x
    for n in range(n_steps):
        u = stepper_x.step(u, n * dt, dt)
        e = energy(u, system_x)
        worst = max(worst, (e - e0x) / e0x, (e - e_prev) / e_prev)
        e_prev = e
    report(6, "SDIRK34 energy non-increasing; ERK4 bounded at half-critical step",
           monotone and worst <= 0.05,
           f"max ERK4 relative increase {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. coupling-condition decay

def test_criterion_7_coupling_decay():
    ricker = RickerConfig(1.0, 10.0, (0.0, 0.125), 1.0)
    dt = 0.1 * 2.0 ** -6
    n_steps = round(1.0 / dt)
    tab = tableau("SDIRK34")

    def max_errors(level, k):
        mesh = generate(MeshGenSpec("cartesian", level, **STACKED))
        system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=k)
        sensor = BoundSensor(SensorSpec((-0.3, 0.0), "interface", "Si"), system)
        u = ricker_initial_state(system, ricker)
        stepper = ImplicitStepper(system, tab, dt)
        recs = [sensor.record(u, stepper.face_values(u), system.layout)]
        for n in range(n_steps):
            u = stepper.step(u, n * dt, dt)
            recs.append(sensor.record(u, stepper.face_values(u), system.layout))
        kin, dyn = coupling_errors(np.array(recs), sensor.normal)
        return kin.max(), dyn.max()

    # mesh refinement at k = 1 (levels in the resolved regime, see ledger)
    seq = [max_errors(level, 1) for level in (4, 5, 6)]
    kin_ok = seq[0][0] > seq[1][0] > seq[2][0]
    dyn_ok = seq[0][1] > seq[1][1] > seq[2][1]
    # polynomial degree at fixed level (seq[1] is the deterministic L5 k=1 run)
    k1 = seq[1]
    k3 = max_errors(5, 3)
    degree_ok = k3[0] < k1[0] and k3[1] < k1[1]
    detail = (f"kin {seq[0][0]:.2e}>{seq[1][0]:.2e}>{seq[2][0]:.2e}; "
              f"dyn {seq[0][1]:.2e}>{seq[1][1]:.2e}>{seq[2][1]:.2e}; "
              f"k=3 vs k=1: {k3[0]:.2e} < {k1[0]:.2e}")
    report(7, "interface coupling errors decay with refinement and degree",
           kin_ok and dyn_ok and degree_ok, detail)


# ---------------------------------------------------------------------------
# 8. dof accounting

def test_criterion_8_dof_accounting():
    exact = (abs(face_dof_fraction(2, "acoustic", "equal", 1) - 0.25) < 1e-15
             and abs(face_dof_fraction(2, "elastic", "equal", 2) - 6.0 / 26.0) < 1e-15
             and abs(face_dof_fraction(3, "elastic", "mixed", 2) - 72.0 / 312.0) < 1e-12)
    mesh = generate(MeshGenSpec("simplicial", 6, fluid_rect=(0, 0, 1, 1)))
    big_enough = mesh.n_cells >= 8000
    layout = DofLayout(mesh, 1, "equal")
    measured = layout.n_face_dofs / (layout.n_face_dofs + layout.n_cell_dofs)
    empirical = abs(measured - 0.25) < 0.02
    quad = generate(MeshGenSpec("cartesian", 6, **SIDE_BY_SIDE))
    mixed = DofLayout(quad, 3, "mixed")
    reduction = 1.0 - mixed.n_face_dofs / (mixed.n_face_dofs + mixed.n_cell_dofs)
    reduction_ok = 0.70 <= reduction <= 0.80
    report(8, "dof fractions exact, empirical within 2%, condensation cuts 70-80%",
           exact and big_enough and empirical and reduction_ok,
           f"measured {measured:.4f} vs 0.25; reduction {reduction:.3f}")


# ---------------------------------------------------------------------------
# 9. operator property suite on randomized polygonal cells

def test_criterion_9_operator_properties():
    rng = np.random.default_rng(2024)
    fluid = ACADEMIC.by_region["fluid"]
    failures = []
    for trial in range(50):
        poly = random_star_polygon(rng)
        k = int(rng.integers(1, 4))
        mode = "equal" if trial % 2 == 0 else "mixed"
        config = (StabilizationConfig.explicit() if mode == "equal"
                  else StabilizationConfig.implicit())
        mesh = msh.PolyMesh(poly, [np.arange(len(poly))], [msh.FLUID])
        layout = DofLayout(mesh, k, mode)
        blocks = build_cell_blocks(mesh, 0, layout, fluid, config)

        # quadrature exactness against the divergence-theorem oracle
        deg = 2 * (layout.k_prime + 1)
        pts, w = polygon_quadrature(poly, deg, center=mesh.cell_centroid[0])
        a = int(rng.integers(0, deg // 2 + 1))
        b = int(rng.integers(0, deg - a + 1)) if deg - a else 0
        got = float(np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b))
        ref = greens_monomial_integral(poly, a, b)
        if abs(got - ref) > 1e-12 * max(1.0, abs(ref)):
            failures.append((trial, "quadrature"))

        # gradient reconstruction consistency for degree k+1 data
        probe = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k + 1)
        coeff = rng.standard_normal(probe.dim)
        q = lambda p: probe.eval(p) @ coeff
        cell_c, face_c = hho_interpolate(mesh, 0, layout, q)
        gx, gy, dual = reconstruct_fluid_gradient(mesh, 0, layout, blocks, cell_c, face_c)
        from oracles import project_cell

        px = project_cell(lambda p: grad(probe, p)[:, :, 0] @ coeff, dual, poly,
                          center=mesh.cell_centroid[0], degree_hint=k + 2)
        py = project_cell(lambda p: grad(probe, p)[:, :, 1] @ coeff, dual, poly,
                          center=mesh.cell_centroid[0], degree_hint=k + 2)
        scale = max(1.0, np.max(np.abs(px)), np.max(np.abs(py)))
        if max(np.max(np.abs(gx - px)), np.max(np.abs(gy - py))) > 1e-9 * scale:
            failures.append((trial, "gradient"))

        # stabilization kernel and positivity
        if mode == "equal":
            member = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k)
            cc = rng.standard_normal(member.dim)
            fn = lambda p: member.eval(p) @ cc
        else:
            fn = q
        cell_k, face_k = hho_interpolate(mesh, 0, layout, fn)
        if abs(stab_quadratic_form(blocks, layout, cell_k, face_k)) > 1e-10:
            failures.append((trial, "stab kernel"))
        rand_c = rng.standard_normal(blocks.stab_cell.shape[0])
        rand_f = [rng.standard_normal(m.shape[1]) for m in blocks.stab_face]
        if stab_quadratic_form(blocks, layout, rand_c, rand_f) < -1e-11:
            failures.append((trial, "stab psd"))

    # assembled-system structure on a coupled polygonal mesh
    mesh2 = generate(MeshGenSpec("polygonal-hexagonal", 2, **SIDE_BY_SIDE))
    system = assemble(mesh2, ACADEMIC, StabilizationConfig.explicit(), k=1)
    k_full = np.block([[system.k_tt.tocsr().toarray(), system.k_tf.tocsr().toarray()],
                       [system.k_ft.tocsr().toarray(), system.k_ff.toarray()]])
    sym = 0.5 * (k_full + k_full.T)
    for ci in range(mesh2.n_cells):
        if np.max(np.abs(sym[system.layout.cell_dofs([ci], "dual")[0], :])) > 1e-11:
            failures.append(("assembled", "skew"))
            break
    rng2 = np.random.default_rng(77)
    for _ in range(10):
        v = rng2.standard_normal(k_full.shape[0])
        if v @ (k_full @ v) < -1e-10 * float(v @ v):
            failures.append(("assembled", "dissipativity"))
            break
    report(9, "operator properties on 50 randomized polygonal cells",
           not failures, f"failures: {failures}" if failures else "all properties hold")
