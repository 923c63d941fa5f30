"""Tableaux, linear solvers, and static-condensation equivalence tests."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hhowave import (CondensedFactorization, ExplicitStepper, ImplicitStepper,
                     InstabilityError, MeshGenSpec, StabilizationConfig,
                     assemble, builtin_materials, generate, merge_nonconforming, tableau)
from hhowave.scenarios import (ManufacturedCase, cfl_bracket, energy, manufactured_forcing,
                               manufactured_initial_state)
from hhowave import hho, mesh as msh, timestep
from hhowave.hho import BlockDiagonal
from hhowave.timestep import FactorizedOperator, Forcing, SolverError, TimestepError

import oracles
from oracles import condensed_stacks, manufactured_state
from test_golden import MESHES, golden_mesh
from test_hho import dense_from_blocks, perturbed_mesh

BILAYER = dict(fluid_rect=(0.0, 0.0, 1.0, 1.0), solid_rect=(-1.0, 0.0, 0.0, 1.0))
ACADEMIC = builtin_materials("academic")
GRANITE_WATER = builtin_materials("granite-water")


def make_system(k=1, level=1, mode="explicit", family="cartesian"):
    mesh = generate(MeshGenSpec(family, level, **BILAYER))
    config = (StabilizationConfig.explicit() if mode == "explicit"
              else StabilizationConfig.implicit())
    return assemble(mesh, ACADEMIC, config, k=k)


def make_case_state(system, omega=2.0, theta=math.sqrt(2.0)):
    case = ManufacturedCase(omega, theta, ACADEMIC)
    u0 = manufactured_initial_state(system, case)
    forcing = manufactured_forcing(system, case)
    return case, u0, forcing


# ---------------------------------------------------------------------------
# dense reference steppers (independent of the blockwise elimination paths)

def dense_erk_step(system, tab, u_t, t, dt, forcing=None):
    mass = system.mass.tocsr().toarray()
    k_tt = system.k_tt.tocsr().toarray()
    k_tf = system.k_tf.tocsr().toarray()
    k_ft = system.k_ft.tocsr().toarray()
    k_ff = system.k_ff.toarray()
    n_f = system.n_face_dofs
    stage_r = []
    u = u_t.copy()
    for i in range(tab.s + 1):
        if i > 0:
            row = tab.b if i == tab.s else tab.a[i]
            acc = sum(row[j] * stage_r[j] for j in range(i))
            u = u_t + dt * np.linalg.solve(mass, acc)
        if i == tab.s:
            break
        u_f = np.linalg.solve(k_ff, -(k_ft @ u)) if n_f else np.zeros(0)
        r = -(k_tt @ u) - (k_tf @ u_f if n_f else 0.0)
        f = oracles.load_at(forcing, t + tab.c[i] * dt)
        if f is not None:
            r = r + f
        stage_r.append(r)
    return u


def dense_sdirk_step(system, tab, u_t, t, dt, forcing=None):
    mass = system.mass.tocsr().toarray()
    k_tt = system.k_tt.tocsr().toarray()
    k_tf = system.k_tf.tocsr().toarray()
    k_ft = system.k_ft.tocsr().toarray()
    k_ff = system.k_ff.toarray()
    n_t, n_f = system.n_cell_dofs, system.n_face_dofs
    ad = tab.a_star * dt
    big = np.block([[mass + ad * k_tt, ad * k_tf],
                    [ad * k_ft, ad * k_ff]]) if n_f else mass + ad * k_tt
    stage_r, stage_w = [], []
    m_u = mass @ u_t
    for i in range(tab.s):
        f_i = oracles.load_at(forcing, t + tab.c[i] * dt)
        b_t = m_u + (ad * f_i if f_i is not None else 0.0)
        b_f = np.zeros(n_f)
        for j in range(i):
            b_t = b_t + dt * tab.a[i, j] * stage_r[j]
            b_f = b_f - dt * tab.a[i, j] * stage_w[j]
        sol = np.linalg.solve(big, np.concatenate([b_t, b_f]) if n_f else b_t)
        u_i, u_fi = sol[:n_t], sol[n_t:]
        r = -(k_tt @ u_i) - (k_tf @ u_fi if n_f else 0.0)
        if f_i is not None:
            r = r + f_i
        stage_r.append(r)
        stage_w.append(k_ft @ u_i + (k_ff @ u_fi if n_f else 0.0))
    acc = sum(tab.b[j] * stage_r[j] for j in range(tab.s))
    return u_t + dt * np.linalg.solve(mass, acc)


# ---------------------------------------------------------------------------
# tableaux

ORDER_CONDITIONS = {
    1: [(lambda a, b, c: b.sum(), 1.0)],
    2: [(lambda a, b, c: b @ c, 0.5)],
    3: [(lambda a, b, c: b @ c**2, 1 / 3),
        (lambda a, b, c: b @ (a[:len(b), :] @ c), 1 / 6)],
    4: [(lambda a, b, c: b @ c**3, 0.25),
        (lambda a, b, c: (b * c) @ (a[:len(b), :] @ c), 1 / 8),
        (lambda a, b, c: b @ (a[:len(b), :] @ c**2), 1 / 12),
        (lambda a, b, c: b @ (a[:len(b), :] @ (a[:len(b), :] @ c)), 1 / 24)],
}


@pytest.mark.parametrize("kind,order", [("ERK2", 2), ("ERK3", 3), ("ERK4", 4),
                                        ("SDIRK23", 3), ("SDIRK34", 4)])
def test_order_conditions(kind, order):
    tab = tableau(kind)
    assert tab.order == order
    a = tab.a[:tab.s, :]
    for p in range(1, order + 1):
        for cond, val in ORDER_CONDITIONS[p]:
            assert abs(cond(a, tab.b, tab.c) - val) < 1e-13, (kind, p)


@pytest.mark.parametrize("kind", ["ERK2", "ERK3", "ERK4", "SDIRK23", "SDIRK34"])
def test_stability_function_matches_exp_to_order(kind):
    # R(z) - exp(z) = O(z^(p+1)): halving |z| divides the error by 2^(p+1)
    tab = tableau(kind)
    assert tab.a.shape == (tab.s, tab.s)
    for angle in (0.0, 0.7, math.pi / 2, 2.5):
        z = np.array([0.02, 0.01]) * np.exp(1j * angle)
        err = np.abs(tab.stability(z) - np.exp(z))
        assert abs(math.log2(err[0] / err[1]) - (tab.order + 1)) < 0.1, (kind, angle)
    assert tab.stability(0.0) == 1.0


def test_erk4_coefficients():
    tab = tableau("ERK4")
    assert np.allclose(tab.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert np.allclose(tab.c, [0.0, 0.5, 0.5, 1.0])


def test_sdirk34_coefficients():
    tab = tableau("SDIRK34")
    nu = math.cos(math.pi / 18.0) / math.sqrt(3.0) + 0.5
    xi = 1.0 / (6.0 * (2.0 * nu - 1.0) ** 2)
    assert abs(nu - 1.06857902130163) < 1e-11
    assert abs(xi - 0.1288864005157204) < 1e-11
    assert abs(tab.a_star - nu) < 1e-15
    assert np.allclose(tab.b, [xi, 1 - 2 * xi, xi])
    assert np.allclose(tab.a[:3, :].sum(axis=1), tab.c)


def test_unknown_tableau():
    with pytest.raises(TimestepError):
        tableau("RK45")


@pytest.mark.parametrize("kind", ["ERK4", "SDIRK34"])
def test_advance_matches_plain_expression_bitwise(kind):
    # the stage states and updates of both steppers come from _advance, so
    # its buffer reuse must leave every bit of u_t + dt sum_j w_j k_j as is
    tab = tableau(kind)
    rng = np.random.default_rng(6)
    u_t = rng.standard_normal(50)
    slopes = [rng.standard_normal(50) for _ in range(tab.s)]
    for dt in (0.013, -0.013):
        for row in [*tab.a, tab.b]:
            acc = None
            for w, k in zip(row, slopes):
                if w != 0.0:
                    acc = w * k if acc is None else acc + w * k
            want = u_t if acc is None else u_t + dt * acc
            assert np.array_equal(timestep._advance(u_t, dt, row, slopes), want)
    assert timestep._advance(u_t, 0.01, tab.a[0, :0], []) is u_t


# ---------------------------------------------------------------------------
# linear solvers

def solve(matrix, rhs):
    return FactorizedOperator(sp.csr_matrix(matrix)).solve(rhs)


def schur_matrix(fact):
    """The Schur complement S of a factorization as CSR, rebuilt from the
    class store: the factorization holds its LU only."""
    return oracles.schur_matrix(fact.system, fact.a_star, fact.dt)


def composed_blocks(fact):
    """The segment blocks of A^-1 and G (`oracles.condensed_stacks`), of M,
    K_TT and K_FT, for one-part class passes (`CellClasses.apply`) to
    compose what a stage applies."""
    store, system = fact.store, fact.system
    stacks = condensed_stacks(system, fact.a_star, fact.dt)
    blocks = {name: store.segment_blocks({shape: c[name] for shape, c in stacks.items()})
              for name in ("a_inv", "g")}
    blocks.update({name: getattr(system, name).blocks for name in ("mass", "k_tt", "k_ft")})
    return blocks


def stage_solve(fact, b_t, b_f):
    """One implicit stage of the condensed system, (M + a* dt K_TT) u +
    a* dt K_TF u_f = b_t and a* dt (K_FT u + K_FF u_f) = b_f, composed from
    class products around the factorization's Schur solve: returns (cell
    unknowns, face unknowns)."""
    store = fact.store
    blocks = composed_blocks(fact)
    ad = fact.a_star * fact.dt
    z, = store.apply(blocks["a_inv"], store.sort(b_t), parts=("cell",))
    u_f = fact.schur_solver.solve(b_f - ad * store.apply(blocks["k_ft"], z, parts=("face",))[0])
    z -= ad * store.apply(blocks["g"], np.append(u_f, 0.0), "face", ("cell",))[0]
    return store.unsort(z), u_f


def test_solver_identity():
    rhs = np.arange(5.0)
    out = solve(sp.eye(5), rhs)
    assert np.allclose(out, rhs)


def test_solvers_agree_on_random_spd():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 50))
    spd = a @ a.T + 50 * np.eye(50)
    rhs = rng.standard_normal(50)
    x_direct = solve(spd, rhs)
    x_dense = np.linalg.solve(spd, rhs)
    assert np.linalg.norm(x_direct - x_dense) < 1e-8 * np.linalg.norm(x_dense)


def test_singular_operator_rejected():
    singular = np.zeros((4, 4))
    singular[0, 0] = 1.0
    with pytest.raises(SolverError):
        solve(singular, np.ones(4))


@pytest.mark.parametrize("threshold,factor", [(10**12, "splu"), (0, "spilu")],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("error", [SystemError("gstrf was called with invalid arguments"),
                                   MemoryError("Unable to allocate 4.00 GiB")])
def test_lu_memory_failure_is_solver_error(error, monkeypatch, threshold, factor):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", threshold)
    monkeypatch.setattr(timestep.spla, factor, fail)
    with pytest.raises(SolverError, match="factorization of 6 face dofs ran out of memory"):
        FactorizedOperator(sp.eye(6, format="csr"))


def _cell_blocks(system, name):
    """The per-cell blocks of the square cell operator `name` ("mass" or
    "k_tt") as a BlockDiagonal: every member's copy of its class block, the
    segments' stacks joined per block size."""
    store = system.cell_classes
    starts = [system.layout.cell_offset[seg.cells] for seg in store.segments]
    blocks = [store.blocks[seg.shape][name][store.rows[seg.cells]] for seg in store.segments]
    stacks = {}
    for size in sorted({b.shape[-1] for b in blocks}):
        parts = [(st, b) for st, b in zip(starts, blocks) if b.shape[-1] == size]
        stacks[size] = tuple(np.concatenate(part) for part in zip(*parts))
    return BlockDiagonal(system.n_cell_dofs, stacks)


def _blocks_by_start(store):
    """(first row, dense block) pairs of a BlockDiagonal, in row order."""
    pairs = [(int(st), blk) for starts, blocks in store.stacks.values()
             for st, blk in zip(starts, blocks)]
    return sorted(pairs, key=lambda pair: pair[0])


def _roundoff_floor(mat, tau=hho.ROUNDOFF_FLOOR):
    """The floor of every entry of a dense block or block-diagonal matrix:
    `tau` (the shipped ROUNDOFF_FLOOR) times the largest magnitude in its
    row or column."""
    mag = np.abs(mat)
    return tau * np.maximum(mag.max(axis=1, keepdims=True), mag.max(axis=0, keepdims=True))


def _assert_stores_floored_blocks(csr, pairs):
    """`csr` holds exactly the blocks' entries above the round-off floor of
    their row and column: every stored entry is exact, every dropped one is
    within the floor, and none above it is dropped."""
    exact = sla.block_diag(*[blk for _, blk in pairs])
    floor = sla.block_diag(*[_roundoff_floor(blk) for _, blk in pairs])
    assert np.array_equal(csr.toarray(), np.where(np.abs(exact) > floor, exact, 0.0))


@pytest.mark.parametrize("mode,k", [("implicit", 1), ("explicit", 2)])
def test_block_diagonal_stores(mode, k):
    system = make_system(k=k, level=2, mode=mode, family="polygonal-hexagonal")
    fd = system.layout.n_face_scalar
    mass_blocks, ktt_blocks = _cell_blocks(system, "mass"), _cell_blocks(system, "k_tt")
    assert len(mass_blocks.stacks) == 2 == len(ktt_blocks.stacks)
    assert sorted(system.kff_blocks.stacks) == [fd, 2 * fd, 3 * fd]
    for store, csr in ((mass_blocks, system.mass.tocsr()), (ktt_blocks, system.k_tt.tocsr()),
                       (system.kff_blocks, system.k_ff)):
        pairs = _blocks_by_start(store)
        # the blocks tile the diagonal and are all the matrix holds
        ends = [st + len(blk) for st, blk in pairs]
        assert [st for st, _ in pairs] == [0] + ends[:-1] and ends[-1] == csr.shape[0]
        _assert_stores_floored_blocks(csr, pairs)
        out = store.tocsr()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(out, attr), getattr(csr, attr))

    ad = 0.3
    condensed = BlockDiagonal(system.n_cell_dofs, {
        size: (starts, blocks + ad * ktt_blocks.stacks[size][1])
        for size, (starts, blocks) in mass_blocks.stacks.items()})
    _assert_stores_floored_blocks(condensed.tocsr(), _blocks_by_start(condensed))
    # M and K_TT are floored apart, so their sum differs from the floored
    # condensed blocks by entries within the floor, not exactly
    summed = system.mass.tocsr() + ad * system.k_tt.tocsr()
    assert abs(condensed.tocsr() - summed).max() <= 1e-14 * abs(summed).max()
    for store in (mass_blocks, system.kff_blocks, condensed):
        pairs = _blocks_by_start(store)
        inv = store.inverse("test")
        inv_pairs = _blocks_by_start(inv)
        assert [st for st, _ in inv_pairs] == [st for st, _ in pairs]
        for (st, blk), (_, blk_inv) in zip(pairs, inv_pairs):
            assert np.array_equal(blk_inv, np.linalg.inv(blk)), st
        _assert_stores_floored_blocks(inv.tocsr(), inv_pairs)
        # a singular block in the middle of each stack is named by its offset
        for size, (starts, blocks) in store.stacks.items():
            bad = blocks.copy()
            mid = len(bad) // 2
            bad[mid] = 0.0
            broken = BlockDiagonal(store.n, {**store.stacks, size: (starts, bad)})
            with pytest.raises(SolverError, match=f"singular test block at offset {starts[mid]}$"):
                broken.inverse("test")
    # M^-1 inverts one block per class: the same CSR, bit for bit, as
    # inverting every cell's copy of it
    per_cell = mass_blocks.inverse("cell mass").tocsr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(system.minv, attr), getattr(per_cell, attr))


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_sparse_operators_store_nonzeros_only(mesh_name, mode):
    """Every CSR built from dense blocks, and every product of them, holds
    only nonzero entries, indexed by int32."""
    mesh = golden_mesh(mesh_name)
    if mode == "explicit":
        system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
        stepper = ExplicitStepper(system, tableau("ERK2"))
        # P = -K_FF^-1 K_FT as `explicit_op` forms it, not kept by the system
        derived = {"minv": stepper.minv, "op": stepper.op,
                   "face_op": -(system.kff_inverse @ system.k_ft.tocsr())}
    else:
        system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
        fact = CondensedFactorization(system, tableau("SDIRK34").a_star, 0.01)
        derived = {"schur": schur_matrix(fact)}
    assert system.k_td is not None
    for name in ("mass", "k_tt", "k_tf", "k_ft", "k_ff", "k_td"):
        derived[name] = getattr(system, name).tocsr()
    for name, mat in derived.items():
        assert mat.nnz > 0 and np.all(mat.data != 0), name
        assert mat.indices.dtype == np.int32, name


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_floor_drops_only_roundoff_coupling_entries(mesh_name, mode, monkeypatch):
    """Against the exact-zero rule, K_TF and K_TD drop only entries within
    the round-off floor of their cell's block, and K_FT drops the same ones."""
    mesh = golden_mesh(mesh_name)
    config = (StabilizationConfig.explicit() if mode == "explicit"
              else StabilizationConfig.implicit())
    floored = assemble(mesh, ACADEMIC, config, k=1)
    tau = hho.ROUNDOFF_FLOOR
    monkeypatch.setattr(hho, "ROUNDOFF_FLOOR", 0.0)
    exact = assemble(mesh, ACADEMIC, config, k=1)
    # a cell's K_TF block spans its K_TF and K_TD rows (Dirichlet faces' columns)
    cell = np.repeat(np.arange(mesh.n_cells), np.diff(floored.layout.cell_offset))
    want = {name: getattr(exact, name).tocsr().toarray() for name in ("k_tf", "k_td")}
    block_max = np.zeros(mesh.n_cells)
    np.maximum.at(block_max, cell, np.abs(np.hstack(list(want.values()))).max(axis=1))
    for name, ref in want.items():
        got = getattr(floored, name).tocsr().toarray()
        kept = got != 0
        assert np.array_equal(got[kept], ref[kept]), name
        dropped = (ref != 0) & ~kept
        bound = tau * np.broadcast_to(block_max[cell][:, None], ref.shape)
        assert np.all(np.abs(ref[dropped]) <= bound[dropped]), name
    assert np.array_equal(abs(floored.k_ft.tocsr()).toarray(),
                          abs(floored.k_tf.tocsr()).toarray().T)


def test_floor_keeps_schur_pattern_and_thins_explicit_operator(monkeypatch):
    # cartesian bilayer: every round-off entry the floor drops from K_FF sits
    # where the cell blocks of the Schur complement hold a large entry
    tau = hho.ROUNDOFF_FLOOR
    facts, ops = [], []
    for floor in (tau, 0.0):
        monkeypatch.setattr(hho, "ROUNDOFF_FLOOR", floor)
        system = make_system(k=1, level=3, mode="implicit")
        facts.append(CondensedFactorization(system, tableau("SDIRK34").a_star, 0.01))
        ops.append(make_system(k=1, level=3).explicit_op)
    floored, exact = facts
    for attr in ("indptr", "indices"):
        assert np.array_equal(getattr(schur_matrix(floored), attr),
                              getattr(schur_matrix(exact), attr))
    assert floored.schur_solver.lu_nnz == exact.schur_solver.lu_nnz

    def smallest_relative_entry(op):
        row_max = np.maximum.reduceat(np.abs(op.data), op.indptr[:-1])
        return (np.abs(op.data) / np.repeat(row_max, np.diff(op.indptr))).min()

    # L has no empty row; without the floor it stores round-off entries
    assert smallest_relative_entry(ops[0]) >= 1e-12 > smallest_relative_entry(ops[1])
    assert ops[0].nnz < ops[1].nnz


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_floor_keeps_si_material_scales(mesh_name, mode, k, monkeypatch):
    """Under granite and water, whose unknowns' scales differ by up to 1e14
    within one cell or interface face block, the floor drops from M, M^-1,
    K_TT and K_FF only entries within the floor of their row and column,
    each row of M, M^-1 and K_FF keeps its action to 1e-12 of its largest
    entry, and the explicit operator L to 1e-11."""
    mesh = golden_mesh(mesh_name)
    config = (StabilizationConfig.explicit() if mode == "explicit"
              else StabilizationConfig.implicit())
    names = ("mass", "minv", "k_tt", "k_ff", "explicit_op")
    floored = assemble(mesh, GRANITE_WATER, config, k=k)
    got = {name: getattr(floored, name).tocsr().toarray() for name in names}
    monkeypatch.setattr(hho, "ROUNDOFF_FLOOR", 0.0)
    exact = assemble(mesh, GRANITE_WATER, config, k=k)
    for name in names:
        ref = getattr(exact, name).tocsr().toarray()
        if name != "explicit_op":
            # block-diagonal: each entry against the floor of its row and column
            kept = got[name] != 0
            assert np.array_equal(got[name][kept], ref[kept]), name
            dropped = (ref != 0) & ~kept
            assert np.all(np.abs(ref[dropped]) <= _roundoff_floor(ref)[dropped]), name
        if name == "k_tt":
            continue            # some rows of K_TT hold round-off only and go whole
        # the change of each row relative to its largest entry (for L, through
        # the floored factors)
        loss = np.abs(got[name] - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert loss.max() <= (1e-11 if name == "explicit_op" else 1e-12), name


@pytest.mark.parametrize("materials", [ACADEMIC, GRANITE_WATER], ids=["academic", "granite-water"])
@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_equilibrated_schur_symmetric_part_is_definite(mesh_name, mode, materials):
    # what makes the Schur LU without pivoting stable: the symmetric part of
    # D S D, D = |diag S|^-1/2, is positive definite, at small and large steps
    config = (StabilizationConfig.explicit() if mode == "explicit"
              else StabilizationConfig.implicit())
    system = assemble(golden_mesh(mesh_name), materials, config, k=1)
    for dt in (0.01, 1.0):
        schur = schur_matrix(CondensedFactorization(system, tableau("SDIRK34").a_star,
                                                    dt)).toarray()
        scale = 1.0 / np.sqrt(np.abs(np.diag(schur)))
        dsd = scale[:, None] * schur * scale
        assert np.linalg.eigvalsh(0.5 * (dsd + dsd.T)).min() > 0.0, dt


# ---------------------------------------------------------------------------
# explicit stepping

def test_zero_state_stays_zero():
    system = make_system()
    tab = tableau("ERK2")
    stepper = ExplicitStepper(system, tab)
    u0 = np.zeros(system.n_cell_dofs)
    u1 = stepper.step(u0, 0.0, 0.01)
    assert np.allclose(u1, 0.0)


@pytest.mark.parametrize("kind", ["ERK2", "ERK3", "ERK4"])
def test_erk_matches_dense_oracle(kind):
    tab = tableau(kind)
    for family, level in (("cartesian", 0), ("polygonal-hexagonal", 1)):
        system = make_system(k=1, level=level, family=family)
        case, u0, forcing = make_case_state(system)
        stepper = ExplicitStepper(system, tab)
        dt = 0.01
        u_block = stepper.step(u0.copy(), 0.0, dt, forcing)
        u_dense = dense_erk_step(system, tab, u0.copy(), 0.0, dt, forcing)
        scale = np.linalg.norm(u_dense)
        assert np.linalg.norm(u_block - u_dense) < 1e-12 * scale, family


def _loads_in_turn(system):
    """Three steps' loads: the manufactured load A, none, then a load B
    with A's time factors and other vectors, which a stepper still holding
    A's mapped parts would get wrong."""
    _, u0, load_a = make_case_state(system)
    vectors = np.random.default_rng(20).standard_normal(load_a.vectors.shape)
    return u0, (load_a, None, Forcing(list(zip(load_a.factors, vectors))))


def test_erk_maps_each_load_it_is_given():
    # one stepper, three steps against the dense stage recursion at the
    # bound of test_erk_matches_dense_oracle
    system = make_system(k=1, level=1, family="polygonal-hexagonal")
    tab, dt = tableau("ERK4"), 0.01
    stepper = ExplicitStepper(system, tab)
    u, loads = _loads_in_turn(system)
    for n, forcing in enumerate(loads):
        want = dense_erk_step(system, tab, u, n * dt, dt, forcing)
        u = stepper.step(u, n * dt, dt, forcing)
        assert np.linalg.norm(u - want) < 1e-12 * np.linalg.norm(want), n


@pytest.mark.parametrize("family", ["cartesian", "polygonal-hexagonal", "simplicial"])
def test_face_eliminated_operator_is_dissipative(family):
    # M L = K_TT - K_TF K_FF^-1 K_FT, whose symmetric part must be PSD: the
    # energy u.M u / 2 of the unforced explicit system never grows in time
    system = make_system(k=1, level=3, family=family)
    stepper = ExplicitStepper(system, tableau("ERK2"))
    k_cond = system.mass.tocsr() @ stepper.op
    ref = system.k_tt.tocsr() - system.k_tf.tocsr() @ (system.kff_inverse
                                                       @ system.k_ft.tocsr())
    assert spla.norm(k_cond - ref) < 1e-12 * spla.norm(ref)
    # H = (M L + (M L)^T) / 2 through a pivoted Cholesky P^T H P = R^T R + S,
    # R = [R11 R12] and S zero outside its trailing block S22 = H22 - R12^T R12:
    # R^T R is PSD, so (Weyl) no eigenvalue of H lies below the smallest of S22
    # by more than ||P^T H P - R^T R - S||, about 1e-16 on these meshes.
    sym = 0.5 * (k_cond + k_cond.T)
    radius = abs(spla.eigsh(sym, k=1, which="LM", return_eigenvectors=False)[0])
    h = sym.toarray()
    chol, piv, rank, info = sla.lapack.dpstrf(h)
    assert info >= 0
    h = h[np.ix_(piv - 1, piv - 1)]
    r12 = sla.solve_triangular(np.triu(chol[:rank, :rank]), h[:rank, rank:], trans="T")
    eig = np.linalg.eigvalsh(h[rank:, rank:] - r12.T @ r12)
    assert rank == len(h) or eig.min() >= -1e-12 * radius


def test_erk_cfl_brackets_golden():
    # (n_stable, n_unstable) at level 3, k=1, from the per-stage face-solve stepper
    golden = {("cartesian", "ERK2"): (45, 44), ("cartesian", "ERK4"): (33, 32),
              ("polygonal-hexagonal", "ERK2"): (48, 47),
              ("polygonal-hexagonal", "ERK4"): (35, 34)}
    for family in ("cartesian", "polygonal-hexagonal"):
        system = make_system(k=1, level=3, family=family)
        h = float(np.mean(system.mesh.cell_diameter))
        for kind in ("ERK2", "ERK4"):
            est = cfl_bracket(system, tableau(kind), h, manufactured_state(system), final_time=1.0)
            assert (est.n_stable, est.n_unstable) == golden[(family, kind)], (family, kind)


def test_erk_face_values_satisfy_face_equations():
    # both steppers: the explicit path and the implicit one (interface sensors)
    for mode, make in (("explicit", lambda sysm: ExplicitStepper(sysm, tableau("ERK2"))),
                       ("implicit", lambda sysm: ImplicitStepper(sysm, tableau("SDIRK34"), 0.01))):
        system = make_system(k=2, level=1, mode=mode)
        stepper = make(system)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(system.n_cell_dofs)
        u_f = stepper.face_values(u)
        res = system.k_ft @ u + system.k_ff @ u_f
        assert np.linalg.norm(res) < 1e-11 * max(1.0, np.linalg.norm(system.k_ft @ u)), mode


def test_erk_instability_detection():
    system = make_system(k=1, level=2)
    tab = tableau("ERK2")
    stepper = ExplicitStepper(system, tab)
    case, u0, _ = make_case_state(system)
    u = u0.copy()
    # grossly unstable step size must blow up within a few hundred steps
    with pytest.raises(InstabilityError):
        for n in range(500):
            u = stepper.step(u, 0.0, 0.5, None, step_index=n)


def test_erk_taylor_first_order_shrinkage():
    system = make_system(k=1, level=1)
    tab = tableau("ERK2")
    stepper = ExplicitStepper(system, tab)
    case, u0, forcing = make_case_state(system)
    d1 = np.linalg.norm(stepper.step(u0.copy(), 0.0, 1e-3, forcing) - u0)
    d2 = np.linalg.norm(stepper.step(u0.copy(), 0.0, 5e-4, forcing) - u0)
    assert abs(d1 / d2 - 2.0) < 0.1


# ---------------------------------------------------------------------------
# implicit stepping and condensation

@pytest.mark.parametrize("kind", ["SDIRK23", "SDIRK34"])
def test_sdirk_matches_dense_oracle(kind):
    tab = tableau(kind)
    dt = 0.02
    for family, n_steps in (("cartesian", 1), ("polygonal-hexagonal", 20)):
        system = make_system(k=1, level=1, mode="implicit", family=family)
        case, u0, forcing = make_case_state(system)
        stepper = ImplicitStepper(system, tab, dt=dt)
        u_cond, u_dense = u0.copy(), u0.copy()
        for n in range(n_steps):
            u_cond = stepper.step(u_cond, n * dt, dt, forcing)
            u_dense = dense_sdirk_step(system, tab, u_dense, n * dt, dt, forcing)
        assert np.linalg.norm(u_cond - u_dense) < 1e-10 * np.linalg.norm(u_dense), family


def test_sdirk_maps_each_load_it_is_given():
    # one stepper, three steps against the dense stage recursion at the
    # bound of test_sdirk_matches_dense_oracle
    system = make_system(k=1, level=1, mode="implicit", family="polygonal-hexagonal")
    tab, dt = tableau("SDIRK34"), 0.02
    stepper = ImplicitStepper(system, tab, dt=dt)
    u, loads = _loads_in_turn(system)
    for n, forcing in enumerate(loads):
        want = dense_sdirk_step(system, tab, u, n * dt, dt, forcing)
        u = stepper.step(u, n * dt, dt, forcing)
        assert np.linalg.norm(u - want) < 1e-10 * np.linalg.norm(want), n


def test_stage_solve_with_zero_face_rhs():
    # the identities ImplicitStepper relies on: with b_f = 0 the stage's face
    # residual vanishes and its cell residual is (M u - b_t) / (a* dt)
    system = make_system(k=1, level=1, mode="implicit", family="polygonal-hexagonal")
    tab = tableau("SDIRK34")
    dt = 0.02
    ad = tab.a_star * dt
    fact = CondensedFactorization(system, tab.a_star, dt)
    rng = np.random.default_rng(5)
    for _ in range(3):
        b_t = rng.standard_normal(system.n_cell_dofs)
        u, u_f = stage_solve(fact, b_t, np.zeros(system.n_face_dofs))
        k_ft_u = system.k_ft @ u
        assert np.linalg.norm(k_ft_u + system.k_ff @ u_f) < 1e-12 * np.linalg.norm(k_ft_u)
        r = -(system.k_tt @ u) - system.k_tf @ u_f
        recovered = (system.mass @ u - b_t) / ad
        assert np.linalg.norm(recovered - r) < 1e-12 * np.linalg.norm(b_t) / ad


def test_condensed_stage_equals_monolithic():
    system = make_system(k=1, level=1, mode="implicit")
    tab = tableau("SDIRK23")
    dt = 0.05
    fact = CondensedFactorization(system, tab.a_star, dt)
    rng = np.random.default_rng(8)
    n_t, n_f = system.n_cell_dofs, system.n_face_dofs
    ad = tab.a_star * dt
    big = np.block([[system.mass.tocsr().toarray() + ad * system.k_tt.tocsr().toarray(),
                     ad * system.k_tf.tocsr().toarray()],
                    [ad * system.k_ft.tocsr().toarray(), ad * system.k_ff.toarray()]])
    for _ in range(3):
        b_t = rng.standard_normal(n_t)
        b_f = rng.standard_normal(n_f)
        u_t, u_f = stage_solve(fact, b_t, b_f)
        ref = np.linalg.solve(big, np.concatenate([b_t, b_f]))
        got = np.concatenate([u_t, u_f])
        assert np.linalg.norm(got - ref) < 1e-9 * np.linalg.norm(ref)


def _class_products(fact, x, f, x_f):
    """The class pass (`CellClasses.apply`) for each part combination and
    source: M x and K_TT x (cell part, from cells), K_FT x (face part, from
    cells), K_TF x_f (cell part, from faces), and the cell and face parts of
    the stage pass on x, the forcing pass on f (both from cells) and the back
    pass on x_f (both from faces). The stage pass's cell part k =
    (A^-1 M - I) x / (a* dt) is given as the A^-1 M x = x + a* dt k it
    recovers, the scale at which a step adds it to the state: k alone
    carries the round-off of x / (a* dt)."""
    store, system = fact.store, fact.system
    out = {"mass": system.mass @ x, "k_tt": system.k_tt @ x, "k_ft": system.k_ft @ x,
           "k_tf": system.k_tf @ x_f}
    for name, arg, side in (("stage", store.sort(x), "cell"), ("forcing", store.sort(f), "cell"),
                            ("back", np.append(x_f, 0.0), "face")):
        cell, out[f"{name}_face"] = store.apply(getattr(fact, f"{name}_blocks"), arg, side)
        out[f"{name}_cell"] = store.unsort(cell)
    out["stage_cell"] = x + fact.a_star * fact.dt * out["stage_cell"]
    return out


def _assert_class_products_match_csr(system, a_star, dt, rtol=1e-13):
    """The class-applied products, the fused passes and the class-built Schur
    matrix against dense products of operators assembled from every cell's
    own blocks (`build_cell_blocks`), with A^-1 inverted cell by cell."""
    ad = a_star * dt
    fact = CondensedFactorization(system, a_star, dt)
    layout = system.layout
    ref = dense_from_blocks(system.mesh, layout, ACADEMIC, system.config)
    a_inv = np.zeros_like(ref["mass"])
    for lo, hi in zip(layout.cell_offset[:-1], layout.cell_offset[1:]):
        a_inv[lo:hi, lo:hi] = np.linalg.inv(ref["mass"][lo:hi, lo:hi]
                                            + ad * ref["k_tt"][lo:hi, lo:hi])
    rng = np.random.default_rng(11)
    x, f = rng.standard_normal((2, system.n_cell_dofs))
    x_f = rng.standard_normal(system.n_face_dofs)
    g_x_f = a_inv @ (ref["k_tf"] @ x_f)
    # K_FF without its interface coupling, the only entries linking the two sides
    sign = layout.face_sign
    same_side = ref["k_ff"] * (sign[:, None] == sign)
    want = {"mass": ref["mass"] @ x, "k_tt": ref["k_tt"] @ x, "k_ft": ref["k_ft"] @ x,
            "k_tf": ref["k_tf"] @ x_f,
            "stage_cell": a_inv @ (ref["mass"] @ x),
            "stage_face": -ad * ref["k_ft"] @ (a_inv @ (ref["mass"] @ x)),
            "forcing_cell": a_inv @ f, "forcing_face": -ad * ad * ref["k_ft"] @ (a_inv @ f),
            "back_cell": g_x_f,
            "back_face": ad * (same_side @ x_f - ad * (ref["k_ft"] @ g_x_f))}
    for name, got in _class_products(fact, x, f, x_f).items():
        assert np.linalg.norm(got - want[name]) <= rtol * np.linalg.norm(want[name]), name
    schur = ad * (ref["k_ff"] - ad * (ref["k_ft"] @ (a_inv @ ref["k_tf"])))
    assert np.linalg.norm(schur_matrix(fact).toarray() - schur) <= rtol * np.linalg.norm(schur)
    coupling = np.zeros_like(ref["k_ff"])
    coupling[fact.coupling_rows] = fact.coupling.toarray()
    want = ad * (ref["k_ff"] - same_side)
    assert np.linalg.norm(coupling - want) <= rtol * np.linalg.norm(want)
    return fact


@pytest.mark.parametrize("min_members", [1, 32, pytest.param(None, id="shipped")])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_class_products_match_csr(mesh_name, k, min_members, monkeypatch):
    # with one member as the threshold every class is applied by its own GEMM;
    # at one fixed threshold for every block size (32) and at the shipped
    # break-even by block size the L2 meshes' small classes run on stacked
    # products
    if min_members is not None:
        monkeypatch.setattr(hho, "gemm_min_members", lambda n: min_members)
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=k)
    fact = _assert_class_products_match_csr(system, tableau("SDIRK34").a_star, 0.01)
    summary = fact.store.summary()
    assert summary["gemm_cells"] + summary["stacked_cells"] == system.mesh.n_cells
    if min_members == 1:
        assert summary["gemm_cells"] == system.mesh.n_cells


@pytest.mark.parametrize("materials", [ACADEMIC, GRANITE_WATER], ids=["academic", "granite-water"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", ["explicit", "implicit"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_cell_operator_views_match_their_csr(mesh_name, mode, k, materials, monkeypatch):
    """M, K_TT, K_TF and K_FT are views over the class store: each counts the
    entries of its CSR without forming it, and its product, the energy and
    the interface face values match their CSR forms."""
    config = (StabilizationConfig.explicit() if mode == "explicit"
              else StabilizationConfig.implicit())
    system = assemble(golden_mesh(mesh_name), materials, config, k=k)
    names = ("mass", "k_tt", "k_tf", "k_ft")
    with monkeypatch.context() as patch:
        patch.setattr(hho.CellClasses, "matrix", lambda *args: pytest.fail("CSR formed"))
        nnz = {name: getattr(system, name).nnz for name in names}
    rng = np.random.default_rng(12)
    for name in names:
        view = getattr(system, name)
        csr = view.tocsr()
        assert view.shape == csr.shape and nnz[name] == csr.nnz > 0, name
        assert view.tocsr() is csr, name
        x = rng.standard_normal(view.shape[1])
        want = csr @ x
        assert np.linalg.norm(view @ x - want) <= 1e-13 * np.linalg.norm(want), name
    u = rng.standard_normal(system.n_cell_dofs)
    want = 0.5 * u @ (system.mass.tocsr() @ u)
    assert abs(energy(u, system) - want) <= 1e-13 * want
    layout = system.layout
    u_f, want = system.face_values(u), -(system.kff_inverse @ (system.k_ft.tocsr() @ u))
    for side in ("fluid", "solid"):
        dofs = np.concatenate([np.arange(layout.n_face_dofs)[layout.face_side_slice(fi, side)]
                               for fi in system.mesh.interface_faces])
        assert (np.linalg.norm(u_f[dofs] - want[dofs])
                <= 1e-13 * np.linalg.norm(want[dofs])), side


def unscaled(fact, factored):
    """What the LU of `fact` factored (CSC), unscaled by its D."""
    scale, out = fact.schur_solver.scale, factored.copy()
    out.data /= scale[out.indices] * np.repeat(scale, np.diff(out.indptr))
    return out


@pytest.mark.parametrize("mesh_name", MESHES)
def test_factorization_holds_one_schur_matrix(mesh_name, monkeypatch):
    # S is assembled once, as an int32 CSR matrix whose arrays the LU reads
    # as the CSC arrays of S^T, with no transposition, and released once
    # factored: no n x n matrix is held after the factor, and the LU is that
    # of D S^T D of the assembled S
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=1)
    n = system.n_face_dofs
    splu, tocsc, factored, transposed = spla.splu, sp.csr_matrix.tocsc, [], []

    def capture(matrix, *args, **kwargs):
        factored.append(matrix.copy())
        return splu(matrix, *args, **kwargs)

    def spy(matrix, *args, **kwargs):
        if matrix.shape == (n, n):
            transposed.append(matrix.nnz)
        return tocsc(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", capture)
    monkeypatch.setattr(sp.csr_matrix, "tocsc", spy)
    fact = CondensedFactorization(system, tableau("SDIRK34").a_star, 0.01)
    monkeypatch.undo()
    assert transposed == []
    assert [(m.format, m.indices.dtype, m.shape) for m in factored] == [("csc", np.int32, (n, n))]
    held = [value for obj in (fact, fact.schur_solver) for value in vars(obj).values()
            if sp.issparse(value) and value.shape == (n, n)]
    assert held == []
    # unscaled by D, what the LU factors is S^T of the rebuilt S, entry for entry
    scale, schur = fact.schur_solver.scale, schur_matrix(fact)
    got, want = unscaled(fact, factored[0]), schur.T.tocsc()
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= 1e-14 * np.max(np.abs(want.data))
    assert fact.schur_solver.matrix_nnz == schur.nnz
    schur = schur.toarray()
    assert np.allclose(np.abs(np.diag(schur)), 1.0 / scale**2, rtol=1e-14, atol=0.0)
    b = np.random.default_rng(13).standard_normal(n)
    x = fact.schur_solver.solve(b)
    assert np.linalg.norm(scale * (schur @ x - b)) <= 1e-8 * np.linalg.norm(scale * b)


def test_gemm_break_even_falls_with_block_size():
    # the measured break-evens, linear between them and held beyond them
    assert [hho.gemm_min_members(n) for n in (9, 12, 15, 21, 30, 40, 60, 70)] == [
        36, 36, 31, 21, 19, 16, 5, 5]


def test_class_members_share_their_representative_blocks():
    mesh = generate(MeshGenSpec("polygonal-hexagonal", 3, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    store = system.cell_classes
    class_of = hho.congruence_classes(mesh)
    assert store.n_classes == class_of.max() + 1 < mesh.n_cells
    for shape, reps in store.blocks.items():
        for row, rep in enumerate(reps["cells"]):
            for ci in np.nonzero(class_of == class_of[rep])[0]:
                b = hho.build_cell_blocks(mesh, ci, system.layout,
                                          ACADEMIC.material(mesh, ci), system.config)
                n = b.mass.shape[0]
                local = {"mass": b.mass, "k_tt": b.k_tt,
                         "k_tf": np.swapaxes(b.k_tf(), 0, 1).reshape(n, -1),
                         "k_ft": b.k_ft().reshape(-1, n)}
                for name, blk in local.items():
                    ref = reps[name][row]
                    assert np.abs(blk - ref).max() <= 1e-12 * np.abs(ref).max(), (ci, name)


def test_perturbed_mesh_runs_on_the_stacked_kernel():
    mesh = perturbed_mesh()
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    fact = _assert_class_products_match_csr(system, tableau("SDIRK34").a_star, 0.01)
    assert fact.store.summary() == {"classes": mesh.n_cells, "gemm_cells": 0,
                                    "stacked_cells": mesh.n_cells}
    # and a condensed step still agrees with the dense stage recursion
    case, u0, forcing = make_case_state(system)
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    u_cond = stepper.step(u0.copy(), 0.0, 0.01, forcing)
    u_dense = dense_sdirk_step(system, tableau("SDIRK34"), u0.copy(), 0.0, 0.01, forcing)
    assert np.linalg.norm(u_cond - u_dense) < 1e-10 * np.linalg.norm(u_dense)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_fused_blocks_equal_composed_class_products(mesh_name, k):
    # the two passes of a stage against the class products they replace: the
    # stage pass on u, with the forcing pass on f (forced) or without it
    # (unforced), recovers the cell solve z = A^-1 (M u + a* dt f) = u + a* dt k
    # and the Schur right-hand side -a* dt K_FT z; the back pass gives G u_f
    # and S u_f but for the interface coupling of K_FF, the entries that link
    # the fluid and solid sides
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=k)
    fact = CondensedFactorization(system, tableau("SDIRK34").a_star, 0.01)
    store, blocks = fact.store, composed_blocks(fact)
    ad = fact.a_star * fact.dt
    rng = np.random.default_rng(14)
    u, f = (store.sort(v) for v in rng.standard_normal((2, system.n_cell_dofs)))
    u_f = rng.standard_normal(system.n_face_dofs)

    def assert_close(got, want, what):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), what

    def cells(name, x, source="cell"):
        return store.apply(blocks[name], x, source, ("cell",))[0]

    for forced in (False, True):
        z = cells("a_inv", cells("mass", u) + (ad * f if forced else 0))
        slope, rhs = store.apply(fact.stage_blocks, u)
        if forced:
            slope_f, rhs_f = store.apply(fact.forcing_blocks, f)
            slope, rhs = slope + slope_f, rhs + rhs_f
        assert_close(u + ad * slope, z, ("cell", forced))
        assert_close(rhs, -ad * store.apply(blocks["k_ft"], z, parts=("face",))[0],
                     ("face", forced))
    g_u_f = cells("g", np.append(u_f, 0.0), "face")
    sign = system.layout.face_sign
    coupling = ad * system.k_ff.toarray() * (sign[:, None] != sign)
    for got, want in zip(store.apply(fact.back_blocks, np.append(u_f, 0.0), "face"),
                         (g_u_f, schur_matrix(fact) @ u_f - coupling @ u_f)):
        assert_close(got, want, "back")


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_step_equals_stage_solve_composition(mesh_name, forced):
    # a step of the stepper against its stage recursion, each stage solved by
    # class products composed around the same Schur LU (`stage_solve`)
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=2)
    tab, dt = tableau("SDIRK34"), 0.01
    ad = tab.a_star * dt
    stepper = ImplicitStepper(system, tab, dt)
    _, u0, forcing = make_case_state(system)
    forcing = forcing if forced else None
    slopes = []
    for i in range(tab.s):
        u_start = u0 + dt * sum(tab.a[i, j] * slopes[j] for j in range(i))
        b_t = system.mass @ u_start
        if forced:
            b_t += ad * oracles.load_at(forcing, tab.c[i] * dt)
        u_i, _ = stage_solve(stepper.fact, b_t, np.zeros(system.n_face_dofs))
        slopes.append((u_i - u_start) / ad)
    want = u0 + dt * sum(b * k for b, k in zip(tab.b, slopes))
    got = stepper.step(u0, 0.0, dt, forcing)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("mesh_name", MESHES)
def test_back_pass_residual_matches_rebuilt_schur(mesh_name):
    # the solve check takes S u_f from the back pass; its residual is the one
    # of the S that `CellClasses.face_matrix` rebuilds, for a solve and for
    # face values 1e-10 off it
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=1)
    fact = CondensedFactorization(system, tableau("SDIRK34").a_star, 0.01)
    solver = fact.schur_solver
    schur, scale = schur_matrix(fact), fact.schur_solver.scale
    rng = np.random.default_rng(15)
    rhs, direction = rng.standard_normal((2, system.n_face_dofs))
    u_f = solver.solve(rhs)
    off = 1e-10 * np.linalg.norm(scale * rhs) / np.linalg.norm(scale * (schur @ direction))
    for x, bound in ((u_f, 1e-12), (u_f + off * direction, 2e-10)):
        solver.max_residual = 0.0
        assert solver.check(x, fact.back_pass(np.append(x, 0.0))[1])
        want = np.linalg.norm(scale * (schur @ x - rhs)) / np.linalg.norm(scale * rhs)
        assert solver.max_residual <= bound and want <= bound
        if bound > 1e-12:
            assert abs(solver.max_residual - want) <= 1e-4 * want


def test_solve_check_refuses_a_perturbed_schur_lu():
    # mutation: the LU of S with one diagonal entry 1% off solves the wrong
    # system, which the back pass's residual against the true S must catch
    system = make_system(k=1, level=2, mode="implicit")
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    _, u0, forcing = make_case_state(system)
    stepper.step(u0, 0.0, 0.01, forcing)
    assert 0.0 < stepper.fact.schur_solver.max_residual <= 1e-12
    schur = schur_matrix(stepper.fact)
    diag = schur.diagonal()
    diag[len(diag) // 2] *= 1.01
    schur.setdiag(diag)
    stepper.fact.schur_solver = FactorizedOperator(schur)
    with pytest.raises(SolverError, match="direct solve residual"):
        stepper.step(u0, 0.0, 0.01, forcing)


def test_solve_check_refuses_a_transposed_lu_of_a_perturbed_coupling():
    # mutation: the LU of S with one fluid-solid entry 1% off solves the
    # perturbed system S' x = b, not the true one; the back pass's residual
    # against the true S must catch it
    system = make_system(k=1, level=2, mode="implicit")
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    _, u0, forcing = make_case_state(system)
    stepper.step(u0, 0.0, 0.01, forcing)
    sign = system.layout.face_sign
    schur = schur_matrix(stepper.fact).tocoo()
    (cross,) = np.nonzero(sign[schur.row] != sign[schur.col])
    schur.data[cross[len(cross) // 2]] *= 1.01
    stepper.fact.schur_solver = FactorizedOperator(schur)
    with pytest.raises(SolverError, match="direct solve residual"):
        stepper.step(u0, 0.0, 0.01, forcing)


@pytest.mark.parametrize("threshold", [10**12, 0], ids=["float64", "float32"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_factorization_solves_a_matrix_that_is_not_j_symmetric(mesh_name, threshold,
                                                               monkeypatch):
    # S' of a golden system with one fluid-solid entry 1% off is not
    # J-symmetric; the transposed solve on the LU of S'^T solves S' x = b
    # itself: to round-off in float64, and to the check after its
    # corrections in float32
    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", threshold)
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=1)
    sign = system.layout.face_sign
    schur = oracles.schur_matrix(system, tableau("SDIRK34").a_star, 0.01).tocoo()
    (cross,) = np.nonzero(sign[schur.row] != sign[schur.col])
    schur.data[cross[len(cross) // 2]] *= 1.01
    perturbed = schur.tocsr()
    j = sp.diags(sign)
    assert spla.norm(perturbed - j @ perturbed.T @ j) > 0
    solver = FactorizedOperator(perturbed.copy())
    b = np.random.default_rng(20).standard_normal(system.n_face_dofs)
    x = solver.solve(b)
    if threshold:
        assert solver.precision == "float64"
        assert np.linalg.norm(perturbed @ x - b) <= 1e-12 * np.linalg.norm(b)
    else:
        assert solver.precision == "float32"
        while not solver.check(x, perturbed @ x):
            solver.correct(x)
        assert 0.0 < solver.max_residual <= 1e-8


def _forced_march(system, materials, n_steps=20):
    """The final state of an SDIRK34 march with a load: the manufactured
    case under academic materials, a seeded state under a seeded cosine
    load otherwise (the manufactured case needs unit fluid density).
    Returns (state, Schur solver)."""
    if materials is ACADEMIC:
        _, u0, forcing = make_case_state(system)
        dt = 1.0 / 640.0
    else:
        u0, load = np.random.default_rng(18).standard_normal((2, system.n_cell_dofs))
        dt = 1e-5       # a Courant number near 0.2 in metres against the SI materials
        forcing = Forcing([(lambda t: math.cos(t / (7.0 * dt)), load)])
    stepper = ImplicitStepper(system, tableau("SDIRK34"), dt)
    u = timestep.run_time_loop(stepper, u0, dt, n_steps, forcing)
    return u, stepper.fact.schur_solver


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("materials", [ACADEMIC, GRANITE_WATER], ids=["academic", "granite-water"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_float32_factor_holds_to_float64(mesh_name, materials, k, monkeypatch):
    # the same march on the float64 LU and, with the threshold at 0, on the
    # dropped float32 LU refined in float64: every float32 solve starts from
    # the last solves, takes at least one correction and passes the 1e-8
    # check; the final states agree to 1e-7 (2.7e-9 measured)
    system = assemble(golden_mesh(mesh_name), materials, StabilizationConfig.implicit(), k=k)
    want, exact = _forced_march(system, materials)
    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", 0)
    got, single = _forced_march(system, materials)
    assert (exact.precision, single.precision) == ("float64", "float32")
    assert exact.corrections == exact.solves == single.solves == 60
    assert single.corrections >= single.solves
    assert 1 <= single.max_corrections <= timestep.MAX_CORRECTIONS
    assert 0.0 < single.max_residual <= 1e-8
    assert single.lu_nnz <= exact.lu_nnz
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)


@pytest.mark.parametrize("materials", [ACADEMIC, GRANITE_WATER], ids=["academic", "granite-water"])
def test_float32_start_from_the_gram_matrix(materials, monkeypatch):
    # every start of a float32 march against the least-squares combination of
    # the history's (n, m) products: under granite-water, whose histories
    # are conditioned near 1e3, the weights agree to 1e-8 (7e-10 measured);
    # under academic materials at dt = 1/640 the history is conditioned
    # near 1e6, its Gram matrix near 1e12, so the weights differ by up to
    # 2.6e-3 and the start's residual exceeds the least-squares one by at
    # most 1e-6 (8e-7 measured). The march takes as many LU solves as the
    # (n, m) start took: 61 and 63 for its 60 solves
    system = assemble(golden_mesh("polygonal-hexagonal"), materials,
                      StabilizationConfig.implicit(), k=1)
    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", 0)
    lstsq, weights, starts = np.linalg.lstsq, [], []

    def spy(a, b, rcond):
        weights.append(lstsq(a, b, rcond=rcond)[0])
        return weights[-1], None, None, None

    def checked_solve(solver, rhs, out=None):
        m = min(solver._accepted, timestep.HISTORY)
        products, b = solver._history[1, :m], solver.scale * rhs
        want = lstsq(products.T, b, rcond=None)[0] if m else None
        x = solve(solver, rhs, out)
        if m:
            got = weights.pop()
            starts.append((np.linalg.norm(got - want) / np.linalg.norm(want),
                           np.linalg.norm(b - got @ products) / np.linalg.norm(b - want @ products)))
        return x

    solve = FactorizedOperator.solve
    monkeypatch.setattr(np.linalg, "lstsq", spy)
    monkeypatch.setattr(FactorizedOperator, "solve", checked_solve)
    _, single = _forced_march(system, materials)
    assert single.precision == "float32" and not weights
    assert len(starts) == single.solves - 1 == 59
    assert single.corrections == (61 if materials is ACADEMIC else 63)
    alpha_error, residual_ratio = np.max(starts, axis=0)
    assert residual_ratio <= 1.0 + 1e-6
    if materials is GRANITE_WATER:
        assert alpha_error <= 1e-8


def test_float32_solve_scales_its_right_hand_side(monkeypatch):
    # b, 2^-140 b and 2^100 b: each float32 LU solve brings its right-hand
    # side to a largest entry of 2^64, so the solutions are the same up to the
    # same exact power of two; a zero right-hand side solves to zeros
    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", 0)
    system = assemble(golden_mesh("simplicial"), GRANITE_WATER,
                      StabilizationConfig.implicit(), k=3)
    schur = oracles.schur_matrix(system, tableau("SDIRK34").a_star, 1e-5)
    solver = FactorizedOperator(schur)
    assert solver.precision == "float32"
    b = np.random.default_rng(19).standard_normal(system.n_face_dofs)
    x = solver.solve(b)
    assert np.all(np.isfinite(x)) and np.any(x)
    for power in (-140, 100):
        assert np.array_equal(solver.solve(np.ldexp(b, power)), np.ldexp(x, power)), power
    assert np.array_equal(solver.solve(np.zeros_like(b)), np.zeros_like(b))


def test_refinement_refuses_a_float32_lu_it_cannot_repair(monkeypatch):
    # mutation: the float32 LU of S with one diagonal entry at a tenth of its
    # value; refinement against the true S diverges (residuals 1.5, 70,
    # 3.4e3, 1.6e5), so the check still fails after MAX_CORRECTIONS of them.
    # The 1% perturbation of the float64 mutation test would be repaired:
    # its first solve passed after 4 corrections, 1.0e-4 -> 1.3e-10
    monkeypatch.setattr(timestep, "SINGLE_MIN_ENTRIES", 0)
    system = make_system(k=1, level=2, mode="implicit")
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    _, u0, forcing = make_case_state(system)
    stepper.step(u0, 0.0, 0.01, forcing)
    assert stepper.fact.schur_solver.precision == "float32"
    assert 0.0 < stepper.fact.schur_solver.max_residual <= 1e-8
    schur = schur_matrix(stepper.fact)
    diag = schur.diagonal()
    diag[len(diag) // 2] *= 0.1
    schur.setdiag(diag)
    stepper.fact.schur_solver = FactorizedOperator(schur)
    with pytest.raises(SolverError, match="direct solve residual .* after 4 float32 LU solves"):
        stepper.step(u0, 0.0, 0.01, forcing)
    assert stepper.fact.schur_solver.corrections == timestep.MAX_CORRECTIONS


@pytest.mark.parametrize("mesh_name", MESHES)
def test_face_sign_is_negative_on_the_solid_side(mesh_name):
    system = assemble(golden_mesh(mesh_name), ACADEMIC, StabilizationConfig.implicit(), k=2)
    layout, mesh = system.layout, system.mesh
    want = np.ones(layout.n_face_dofs)
    for fi in np.nonzero((mesh.face_class == msh.F_INT_SOLID)
                         | (mesh.face_class == msh.F_INTERFACE))[0]:
        want[layout.face_side_slice(fi, "solid")] = -1.0
    assert np.array_equal(layout.face_sign, want)
    assert (want == 1.0).any() and (want == -1.0).any()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("materials", [ACADEMIC, GRANITE_WATER], ids=["academic", "granite-water"])
@pytest.mark.parametrize("mesh_name", MESHES)
def test_schur_complement_is_j_symmetric(mesh_name, materials, k, monkeypatch):
    # S = J S^T J, symmetric within each side of the interface and skew
    # between them, for S and for the D S^T D the LU factors: each class's
    # B_c, symmetric in exact arithmetic, is symmetrized, the form the
    # goldens were locked on. That matrix is S^T of the S rebuilt from K_FF
    # (`oracles.schur_matrix`) within 1e-14 of max |S|; on the cartesian
    # meshes from k=2 and under granite-water up to 14 entries of one are
    # exact zeros in the other, a sum that cancels in one order of summation
    # and leaves a round-off value in the other. The solve agrees with a dense solve of S
    # in the equilibration D of the LU (5.3e-14 measured): unequilibrated,
    # the dense solve's partial pivoting itself errs by up to 8.8e-12 under
    # granite-water, where S is conditioned up to 1.6e19 and D S D 2e4
    system = assemble(golden_mesh(mesh_name), materials, StabilizationConfig.implicit(), k=k)
    splu, factored = spla.splu, []

    def capture(matrix, *args, **kwargs):
        factored.append(matrix.copy())
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", capture)
    fact = CondensedFactorization(system, tableau("SDIRK34").a_star, 0.01)
    sign = sp.diags(system.layout.face_sign)
    schur = schur_matrix(fact)
    assert abs(unscaled(fact, factored[0]) - schur.T).max() <= 1e-14 * abs(schur).max()
    for name, mat in (("S", schur), ("D S^T D", factored[0])):
        assert spla.norm(mat - sign @ mat.T @ sign) <= 1e-14 * spla.norm(mat), name
    rhs = np.random.default_rng(16).standard_normal(system.n_face_dofs)
    scale = fact.schur_solver.scale
    want = scale * np.linalg.solve(scale[:, None] * schur.toarray() * scale, scale * rhs)
    assert np.linalg.norm(fact.schur_solver.solve(rhs) - want) <= 1e-12 * np.linalg.norm(want)


def test_schur_solve_passes_the_check_on_a_large_fill():
    # hexagonal L5 at k=1 factors to about 224 LU entries per face dof, more
    # than the shipped ricker system's 97; a step on it passes the solve check
    system = assemble(generate(MeshGenSpec("polygonal-hexagonal", 5, **BILAYER)), ACADEMIC,
                      StabilizationConfig.implicit(), k=1)
    stepper = ImplicitStepper(system, tableau("SDIRK34"), 0.01)
    stepper.step(np.random.default_rng(17).standard_normal(system.n_cell_dofs), 0.0, 0.01)
    stats = stepper.fact.schur_solver.stats()
    assert stats["lu_nnz_per_dof"] > 200
    assert 0.0 < stats["max_residual"] <= 1e-12


def _fill_mesh(family):
    if family == "nonconforming":
        fluid = generate(MeshGenSpec("cartesian", 3, fluid_rect=(0.0, 0.0, 1.0, 1.0)))
        solid = generate(MeshGenSpec("cartesian", 2, solid_rect=(0.0, -1.0, 1.0, 0.0)))
        return merge_nonconforming(fluid, solid)
    return generate(MeshGenSpec(family, 3, **BILAYER))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("family", ["cartesian", "simplicial", "polygonal-hexagonal",
                                    "nonconforming"])
def test_schur_lu_fill_below_colamd(family, k, monkeypatch):
    # fill is L.nnz + U.nnz of the shipped factorization, captured from its splu call
    system = assemble(_fill_mesh(family), ACADEMIC, StabilizationConfig.implicit(), k=k)
    splu = spla.splu
    shipped = []

    def capture(*args, **kwargs):
        shipped.append(splu(*args, **kwargs))
        return shipped[-1]

    monkeypatch.setattr(spla, "splu", capture)
    tab = tableau("SDIRK34")
    fact = CondensedFactorization(system, tab.a_star, 0.01)
    (lu,) = shipped
    assert fact.schur_solver.lu_nnz == lu.nnz > 0
    colamd = splu(schur_matrix(fact).tocsc(), permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_schur_matvec_matches_triple_product():
    system = make_system(k=2, level=1, mode="implicit")
    a_star, dt = 0.25, 0.03
    fact = CondensedFactorization(system, a_star, dt)
    rng = np.random.default_rng(4)
    ad = a_star * dt
    a_dense = system.mass.tocsr().toarray() + ad * system.k_tt.tocsr().toarray()
    for _ in range(3):
        v = rng.standard_normal(system.n_face_dofs)
        got = schur_matrix(fact) @ v
        inner = np.linalg.solve(a_dense, system.k_tf.tocsr().toarray() @ v)
        ref = ad * (system.k_ff @ v - ad * (system.k_ft @ inner))
        assert np.linalg.norm(got - ref) < 1e-11 * max(1.0, np.linalg.norm(ref))


def test_sdirk_zero_rhs_zero_state():
    system = make_system(mode="implicit")
    tab = tableau("SDIRK23")
    stepper = ImplicitStepper(system, tab, dt=0.1)
    u1 = stepper.step(np.zeros(system.n_cell_dofs), 0.0, 0.1)
    assert np.allclose(u1, 0.0)


def test_sdirk_dt_halving_first_order_change():
    system = make_system(k=1, level=1, mode="implicit")
    tab = tableau("SDIRK34")
    case, u0, forcing = make_case_state(system)
    d1 = np.linalg.norm(ImplicitStepper(system, tab, 1e-3).step(u0.copy(), 0.0, 1e-3, forcing) - u0)
    d2 = np.linalg.norm(ImplicitStepper(system, tab, 5e-4).step(u0.copy(), 0.0, 5e-4, forcing) - u0)
    assert abs(d1 / d2 - 2.0) < 0.1


def test_stale_factorization_rejected():
    system = make_system(mode="implicit")
    tab = tableau("SDIRK23")
    stepper = ImplicitStepper(system, tab, dt=0.01)
    with pytest.raises(TimestepError, match="stale"):
        stepper.step(np.zeros(system.n_cell_dofs), 0.0, 0.02)


def test_single_cell_mesh_reduces_to_cell_solve():
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    mesh = msh.PolyMesh(verts, [np.arange(4)], [msh.FLUID])
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    assert system.n_face_dofs == 0
    tab = tableau("SDIRK23")
    stepper = ImplicitStepper(system, tab, dt=0.01)
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal(system.n_cell_dofs)
    load = rng.standard_normal(system.n_cell_dofs)
    for forcing in (None, Forcing([(math.cos, load)])):
        u1 = stepper.step(u0, 0.0, 0.01, forcing)
        ref = dense_sdirk_step(system, tab, u0, 0.0, 0.01, forcing)
        assert np.linalg.norm(u1 - ref) < 1e-11 * np.linalg.norm(ref)
    assert stepper.face_values(u1).shape == (0,)
    assert stepper.fact.schur_solver.stats()["solves"] == 0
