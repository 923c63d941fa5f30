"""Local operator blocks, global assembly structure and dof accounting."""

import numpy as np
import pytest

import hhowave.hho as hho
import hhowave.mesh as msh
from hhowave import (DofLayout, FluidMaterial, MaterialMap, MeshGenSpec,
                     SolidMaterial, StabilizationConfig, assemble,
                     builtin_materials, face_dof_fraction, generate)
from hhowave import cli
from hhowave.basis import QuadratureError, scalar_cell_dim
from hhowave.hho import ConfigError, build_cell_blocks, coupling_block
from hhowave.scenarios import ManufacturedCase, l2_error_dual

import oracles
from oracles import (CellBasis, FaceBasis, cell_rows, grad, hooke, hooke_inv,
                     polygon_quadrature, project_cell, project_face)
from test_golden import MATRICES, MESHES, golden_mesh

BILAYER = dict(fluid_rect=(0.0, 0.0, 1.0, 1.0), solid_rect=(-1.0, 0.0, 0.0, 1.0))
ACADEMIC = builtin_materials("academic")


def unit_square_mesh(sub=msh.FLUID):
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    return msh.PolyMesh(verts, [np.arange(4)], [sub])


def random_polygon_mesh(rng, sub=msh.FLUID):
    from test_basis import random_star_polygon

    poly = random_star_polygon(rng)
    return msh.PolyMesh(poly, [np.arange(len(poly))], [sub])


def hho_interpolate(mesh, ci, layout, fn):
    """Cell projection onto P^k' plus facewise projections onto P^k."""
    basis = CellBasis(mesh.cell_centroid[ci], mesh.cell_diameter[ci], layout.k_prime)
    cell_coeff = project_cell(fn, basis, mesh.vertices[mesh.edge_start[cell_rows(mesh, ci)]],
                              center=mesh.cell_centroid[ci])
    face_coeff = []
    for fi in mesh.edge_face[cell_rows(mesh, ci)]:
        fb = FaceBasis(*mesh.vertices[mesh.faces[fi]], layout.k)
        face_coeff.append(project_face(fn, fb, degree_hint=layout.k_prime + 2))
    return cell_coeff, face_coeff


# ---------------------------------------------------------------------------
# materials

def test_material_speeds_and_hooke_inverse():
    solid = SolidMaterial.from_speeds(rho=1.0, c_p=np.sqrt(3.0), c_s=1.0)
    assert abs(solid.lam - 1.0) < 1e-14 and abs(solid.mu - 1.0) < 1e-14
    rng = np.random.default_rng(0)
    s = rng.standard_normal((10, 3))
    assert np.allclose(hooke(solid, hooke_inv(solid, s)), s)
    assert np.allclose(hooke_inv(solid, hooke(solid, s)), s)
    fluid = FluidMaterial.from_speeds(rho=1025.0, c_p=1500.0)
    assert abs(fluid.c_p - 1500.0) < 1e-9


def test_material_validation():
    with pytest.raises(Exception):
        FluidMaterial(rho=-1.0, kappa=1.0)
    with pytest.raises(Exception):
        SolidMaterial(rho=1.0, lam=0.0, mu=-2.0)


# ---------------------------------------------------------------------------
# local mass blocks

def test_fluid_vector_mass_is_kron_identity():
    mesh = unit_square_mesh()
    layout = DofLayout(mesh, 1)
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(rho=1.0, kappa=1.0),
                               StabilizationConfig.explicit())
    nd = scalar_cell_dim(1)
    scalar = blocks.mass_dual[0::2, 0::2]
    assert np.allclose(blocks.mass_dual, np.kron(scalar, np.eye(2)))
    np.linalg.cholesky(blocks.mass)


def test_pressure_mass_unit_square_k0():
    mesh = unit_square_mesh()
    layout = DofLayout(mesh, 0)
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(rho=1.0, kappa=2.0),
                               StabilizationConfig.explicit())
    assert blocks.mass_primal.shape == (1, 1)
    assert abs(blocks.mass_primal[0, 0] - 0.5) < 1e-14


def test_compliance_mass_identity_action():
    # lam = 0, mu = 1/2 makes the compliance the identity on symmetric tensors
    mesh = unit_square_mesh(sub=msh.SOLID)
    layout = DofLayout(mesh, 1)
    mat = SolidMaterial(rho=1.0, lam=0.0, mu=0.5)
    blocks = build_cell_blocks(mesh, 0, layout, mat, StabilizationConfig.explicit())
    scalar = blocks.mass_dual[0::3, 0::3]
    expected = np.kron(scalar, np.diag([1.0, 1.0, 2.0]))
    assert np.allclose(blocks.mass_dual, expected)


# ---------------------------------------------------------------------------
# gradient reconstruction

def reconstruct_fluid_gradient(mesh, ci, layout, blocks, cell_coeff, face_coeff):
    rhs = blocks.grad_cell @ cell_coeff
    for j, fc in enumerate(face_coeff):
        rhs = rhs + blocks.grad_face[j] @ np.repeat(fc, 1)  # scalar faces
    dual = CellBasis(mesh.cell_centroid[ci], mesh.cell_diameter[ci], layout.k)
    pts, w = polygon_quadrature(mesh.vertices[mesh.edge_start[cell_rows(mesh, ci)]],
                                2 * (layout.k_prime + 1), center=mesh.cell_centroid[ci])
    phi = dual.eval(pts)
    mass = phi.T @ (w[:, None] * phi)
    gx = np.linalg.solve(mass, rhs[0::2])
    gy = np.linalg.solve(mass, rhs[1::2])
    return gx, gy, dual


@pytest.mark.parametrize("mode", ["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2])
def test_gradient_of_constant_vanishes(mode, k):
    mesh = unit_square_mesh()
    config = (StabilizationConfig.explicit() if mode == "equal"
              else StabilizationConfig.implicit())
    layout = DofLayout(mesh, k, mode)
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(1.0, 1.0), config)
    cell_coeff, face_coeff = hho_interpolate(mesh, 0, layout, lambda p: np.ones(len(p)))
    gx, gy, _ = reconstruct_fluid_gradient(mesh, 0, layout, blocks, cell_coeff, face_coeff)
    assert np.max(np.abs(gx)) < 1e-12 and np.max(np.abs(gy)) < 1e-12


def test_gradient_of_linear_is_exact():
    mesh = unit_square_mesh()
    layout = DofLayout(mesh, 1)
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(1.0, 1.0),
                               StabilizationConfig.explicit())
    cell_coeff, face_coeff = hho_interpolate(mesh, 0, layout, lambda p: p[:, 0])
    gx, gy, dual = reconstruct_fluid_gradient(mesh, 0, layout, blocks, cell_coeff, face_coeff)
    # constant gradient (1, 0)
    assert abs(gx[0] - 1.0) < 1e-13 and np.max(np.abs(gx[1:])) < 1e-12
    assert np.max(np.abs(gy)) < 1e-12


@pytest.mark.parametrize("mode", ["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_commutes_with_projection_fluid(mode, k):
    """Reconstructing the interpolate of q equals projecting grad q (any smooth q)."""
    rng = np.random.default_rng(100 * k + (mode == "mixed"))
    config = (StabilizationConfig.explicit() if mode == "equal"
              else StabilizationConfig.implicit())
    for trial in range(3):
        mesh = random_polygon_mesh(rng)
        layout = DofLayout(mesh, k, mode)
        blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(1.0, 1.0), config)
        # random polynomial of degree k+1
        test_basis_poly = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k + 1)
        coeff = rng.standard_normal(test_basis_poly.dim)
        q = lambda p: test_basis_poly.eval(p) @ coeff
        cell_coeff, face_coeff = hho_interpolate(mesh, 0, layout, q)
        gx, gy, dual = reconstruct_fluid_gradient(mesh, 0, layout, blocks,
                                                  cell_coeff, face_coeff)
        gradq = lambda p: grad(test_basis_poly, p)[:, :, 0] @ coeff
        gradq_y = lambda p: grad(test_basis_poly, p)[:, :, 1] @ coeff
        verts = mesh.vertices[mesh.edge_start[cell_rows(mesh, 0)]]
        px = project_cell(gradq, dual, verts, center=mesh.cell_centroid[0],
                          degree_hint=k + 2)
        py = project_cell(gradq_y, dual, verts, center=mesh.cell_centroid[0],
                          degree_hint=k + 2)
        scale = max(1.0, np.max(np.abs(px)), np.max(np.abs(py)))
        assert np.max(np.abs(gx - px)) < 1e-10 * scale
        assert np.max(np.abs(gy - py)) < 1e-10 * scale


@pytest.mark.parametrize("k", [1, 2])
def test_symmetric_gradient_commutes_with_projection(k):
    rng = np.random.default_rng(7 + k)
    mat = SolidMaterial.from_speeds(1.0, np.sqrt(3.0), 1.0)
    for trial in range(3):
        mesh = random_polygon_mesh(rng, sub=msh.SOLID)
        layout = DofLayout(mesh, k, "mixed")
        blocks = build_cell_blocks(mesh, 0, layout, mat, StabilizationConfig.implicit())
        poly = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k + 1)
        cx = rng.standard_normal(poly.dim)
        cy = rng.standard_normal(poly.dim)
        qx = lambda p: poly.eval(p) @ cx
        qy = lambda p: poly.eval(p) @ cy
        cell_x, faces_x = hho_interpolate(mesh, 0, layout, qx)
        cell_y, faces_y = hho_interpolate(mesh, 0, layout, qy)
        npr = scalar_cell_dim(layout.k_prime)
        cell_coeff = np.empty(2 * npr)
        cell_coeff[0::2] = cell_x
        cell_coeff[1::2] = cell_y
        rhs = blocks.grad_cell @ cell_coeff
        for j in range(len(blocks.face_ids)):
            fd = len(faces_x[j])
            fc = np.empty(2 * fd)
            fc[0::2] = faces_x[j]
            fc[1::2] = faces_y[j]
            rhs = rhs + blocks.grad_face[j] @ fc
        dual = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k)
        verts = mesh.vertices[mesh.edge_start[cell_rows(mesh, 0)]]
        pts, w = polygon_quadrature(verts, 2 * (layout.k_prime + 1),
                                    center=mesh.cell_centroid[0])
        phi = dual.eval(pts)
        mass = phi.T @ (w[:, None] * phi)
        # Frobenius double-count on the shear component
        g_xx = np.linalg.solve(mass, rhs[0::3])
        g_yy = np.linalg.solve(mass, rhs[1::3])
        g_xy = np.linalg.solve(2.0 * mass, rhs[2::3])
        eps_xx = lambda p: grad(poly, p)[:, :, 0] @ cx
        eps_yy = lambda p: grad(poly, p)[:, :, 1] @ cy
        eps_xy = lambda p: 0.5 * (grad(poly, p)[:, :, 1] @ cx + grad(poly, p)[:, :, 0] @ cy)
        for got, exact in ((g_xx, eps_xx), (g_yy, eps_yy), (g_xy, eps_xy)):
            want = project_cell(exact, dual, verts, center=mesh.cell_centroid[0],
                                degree_hint=k + 2)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# stabilization

def stab_quadratic_form(blocks, layout, cell_coeff, face_coeffs):
    val = cell_coeff @ (blocks.stab_cell @ cell_coeff)
    for j, fc in enumerate(face_coeffs):
        val += 2.0 * cell_coeff @ (blocks.stab_face[j] @ fc)
        val += fc @ (blocks.stab_face_face[j] @ fc)
    return val


def test_ls_stabilization_kernel_and_positivity():
    rng = np.random.default_rng(21)
    mesh = random_polygon_mesh(rng)
    k = 2
    layout = DofLayout(mesh, k, "equal")
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(1.0, 1.0),
                               StabilizationConfig.explicit())
    poly = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k)
    coeff = rng.standard_normal(poly.dim)
    fn = lambda p: poly.eval(p) @ coeff
    cell_coeff, face_coeff = hho_interpolate(mesh, 0, layout, fn)
    val = stab_quadratic_form(blocks, layout, cell_coeff, face_coeff)
    assert abs(val) < 1e-12
    # random mismatched traces give a strictly positive value
    bad = [fc + rng.standard_normal(len(fc)) for fc in face_coeff]
    assert stab_quadratic_form(blocks, layout, cell_coeff, bad) > 1e-8


def test_lehrenfeld_schoberl_kernel():
    rng = np.random.default_rng(22)
    mesh = random_polygon_mesh(rng)
    k = 1
    layout = DofLayout(mesh, k, "mixed")
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(1.0, 1.0),
                               StabilizationConfig.implicit())
    poly = CellBasis(mesh.cell_centroid[0], mesh.cell_diameter[0], k + 1)
    coeff = rng.standard_normal(poly.dim)
    fn = lambda p: poly.eval(p) @ coeff
    # faces hold the degree-k projection of the (degree k+1) cell trace
    cell_coeff, face_coeff = hho_interpolate(mesh, 0, layout, fn)
    val = stab_quadratic_form(blocks, layout, cell_coeff, face_coeff)
    assert abs(val) < 1e-12
    # equal-order style exact trace match is NOT in the kernel unless projected
    bad = [np.zeros_like(fc) for fc in face_coeff]
    assert stab_quadratic_form(blocks, layout, cell_coeff, bad) > 1e-10


def test_stabilization_psd_random():
    rng = np.random.default_rng(23)
    for mode, config in (("equal", StabilizationConfig.explicit()),
                         ("mixed", StabilizationConfig.implicit())):
        mesh = random_polygon_mesh(rng)
        layout = DofLayout(mesh, 1, mode)
        blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(1.0, 1.0), config)
        for _ in range(20):
            cc = rng.standard_normal(blocks.stab_cell.shape[0])
            fc = [rng.standard_normal(b.shape[1]) for b in blocks.stab_face]
            assert stab_quadratic_form(blocks, layout, cc, fc) >= -1e-12


def test_tau_values():
    mesh = unit_square_mesh()
    layout = DofLayout(mesh, 1)
    blocks = build_cell_blocks(mesh, 0, layout, FluidMaterial(rho=1.0, kappa=1.0),
                               StabilizationConfig.explicit(eta_fluid=0.8))
    assert abs(blocks.tau - 0.8) < 1e-14
    smesh = unit_square_mesh(sub=msh.SOLID)
    slayout = DofLayout(smesh, 1)
    sblocks = build_cell_blocks(smesh, 0, slayout,
                                SolidMaterial.from_speeds(1.0, np.sqrt(3.0), 1.0),
                                StabilizationConfig.explicit(eta_solid=1.5))
    assert abs(sblocks.tau - 1.5) < 1e-14


# ---------------------------------------------------------------------------
# coupling block

def test_coupling_block_horizontal_face():
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                      (0.0, -1.0), (1.0, -1.0)])
    cells = [np.array([0, 1, 2, 3]), np.array([4, 5, 1, 0])]
    mesh = msh.PolyMesh(verts, cells, [msh.FLUID, msh.SOLID])
    fi = int(mesh.interface_faces[0])
    assert np.allclose(mesh.face_normal[fi], (0.0, 1.0))
    c0 = coupling_block(mesh, fi, k=0)[0]
    assert c0.shape == (1, 2)
    assert abs(c0[0, 1] - 1.0) < 1e-14   # |F| on the y-velocity column
    assert abs(c0[0, 0]) < 1e-14         # x-velocity column vanishes


def test_coupling_block_vertical_face():
    mesh = generate(MeshGenSpec("cartesian", 0, **BILAYER))
    fi = int(mesh.interface_faces[0])
    c1 = coupling_block(mesh, fi, k=1)[0]
    assert np.max(np.abs(c1[:, 1::2])) < 1e-14  # n = (1, 0): y columns vanish
    assert np.max(np.abs(c1[:, 0::2])) > 0


def test_coupling_requires_interface_face():
    mesh = generate(MeshGenSpec("cartesian", 0, **BILAYER))
    bnd = int(mesh.faces_of_class(msh.F_BND_FLUID)[0])
    with pytest.raises(ConfigError):
        coupling_block(mesh, bnd, k=1)


# ---------------------------------------------------------------------------
# global assembly

def dense_from_blocks(mesh, layout, materials, config):
    """Independent dense assembly straight from the one-cell local blocks:
    {name: array} for M, K_TT, K_TF, K_FT, K_FF and K_TD."""
    n_t, n_f, n_d = layout.n_cell_dofs, layout.n_face_dofs, layout.n_dirichlet_dofs
    ops = {"mass": np.zeros((n_t, n_t)), "k_tt": np.zeros((n_t, n_t)),
           "k_tf": np.zeros((n_t, n_f)), "k_ft": np.zeros((n_f, n_t)),
           "k_ff": np.zeros((n_f, n_f)), "k_td": np.zeros((n_t, n_d))}
    fd = layout.n_face_scalar
    for ci in range(mesh.n_cells):
        blocks = build_cell_blocks(mesh, ci, layout, materials.material(mesh, ci), config)
        sl = slice(layout.cell_offset[ci], layout.cell_offset[ci + 1])
        ops["mass"][sl, sl] += blocks.mass
        ops["k_tt"][sl, sl] += blocks.k_tt
        for j, fi in enumerate(blocks.face_ids):
            fi = int(fi)
            if layout.face_size[fi] == 0:
                dirichlet = slice(layout.dirichlet_offset[fi], layout.dirichlet_offset[fi + 1])
                ops["k_td"][sl, dirichlet] += blocks.k_tf()[j]
                continue
            face = layout.face_side_slice(fi, "fluid" if blocks.is_fluid else "solid")
            ops["k_tf"][sl, face] += blocks.k_tf()[j]
            ops["k_ft"][face, sl] += blocks.k_ft()[j]
            ops["k_ff"][face, face] += blocks.stab_face_face[j]
    for fi in mesh.interface_faces:
        c = coupling_block(mesh, int(fi), layout.k)[0]
        off = int(layout.face_offset[fi])
        ops["k_ff"][off:off + fd, off + fd:off + 3 * fd] += c
        ops["k_ff"][off + fd:off + 3 * fd, off:off + fd] -= c.T
    return ops


@pytest.mark.parametrize("mode", ["equal", "mixed"])
def test_assembly_matches_dense_oracle(mode):
    mesh = generate(MeshGenSpec("cartesian", 0, **BILAYER))
    config = (StabilizationConfig.explicit() if mode == "equal"
              else StabilizationConfig.implicit())
    system = assemble(mesh, ACADEMIC, config, k=1)
    ref = dense_from_blocks(mesh, system.layout, ACADEMIC, config)
    K_ref = np.block([[ref["k_tt"], ref["k_tf"]], [ref["k_ft"], ref["k_ff"]]])
    K = np.block([[system.k_tt.tocsr().toarray(), system.k_tf.tocsr().toarray()],
                  [system.k_ft.tocsr().toarray(), system.k_ff.toarray()]])
    scale = np.max(np.abs(K_ref)) or 1.0
    assert np.max(np.abs(system.mass.tocsr().toarray() - ref["mass"])) < 1e-13 * scale
    assert np.max(np.abs(K - K_ref)) < 1e-13 * scale


def perturbed_mesh():
    """Cartesian L2 bilayer with its interior vertices moved at random: no
    two cells are congruent."""
    base = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    verts = base.vertices.copy()
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    inner = np.all((verts > lo) & (verts < hi), axis=1) & (verts[:, 1] != 0.0)
    h = np.min(base.cell_diameter)
    verts[inner] += np.random.default_rng(2).uniform(-0.1, 0.1, (inner.sum(), 2)) * h
    return msh.PolyMesh(verts, base.edge_start, base.subdomain, cell_offsets=base.cell_offsets)


def moved_mesh(mesh, scale, shift):
    """`mesh` scaled by `scale` about the origin, then translated by `shift`."""
    return msh.PolyMesh(mesh.vertices * scale + np.asarray(shift), mesh.edge_start,
                        mesh.subdomain, cell_offsets=mesh.cell_offsets)


MOVES = [(1.0, (0.0, 0.0)), (7.3, (3750.3, -1234.7)), (1000.0, (5e5, 4.2e6)),
         (10.0, (5e5, 4.2e6))]


@pytest.mark.parametrize("scale, shift", MOVES)
@pytest.mark.parametrize("family, level, n_classes", [("cartesian", 4, 6),
                                                      ("polygonal-hexagonal", 4, 48)])
def test_congruence_classes_survive_scaling_and_translation(family, level, n_classes,
                                                            scale, shift):
    # round-off in the coordinates of a moved mesh splits no class
    mesh = moved_mesh(generate(MeshGenSpec(family, level, **BILAYER)), scale, shift)
    assert hho.congruence_classes(mesh).max() + 1 == n_classes


def test_granite_mesh_has_six_classes():
    # subdomain, owned faces and size: 6 cell shapes over 9,409 cells whose
    # coordinates run to 3,750 m
    mesh = generate(MeshGenSpec("cartesian", 5, fluid_rect=(-3750.0, 0.0, 3750.0, 1500.0),
                                solid_rect=(-3750.0, -3750.0, 3750.0, 0.0),
                                n_fluid=(97, 28), n_solid=(97, 69)))
    assert mesh.n_cells == 9409
    assert hho.congruence_classes(mesh).max() + 1 == 6


def test_perturbed_mesh_has_one_class_per_cell():
    mesh = perturbed_mesh()
    assert np.array_equal(np.sort(hho.congruence_classes(mesh)), np.arange(mesh.n_cells))


def test_class_members_match_their_representative_within_the_tolerance():
    mesh = moved_mesh(generate(MeshGenSpec("polygonal-hexagonal", 4, **BILAYER)),
                      1000.0, (5e5, 4.2e6))
    tol = msh.COINCIDENCE_TOL * mesh.length_scale
    class_of = hho.congruence_classes(mesh)
    split = 2 * mesh.region + mesh.subdomain
    for cls in range(class_of.max() + 1):
        cells = np.nonzero(class_of == cls)[0]
        rows = mesh.cell_edges(cells)       # refuses cells of different vertex counts
        assert len(np.unique(split[cells])) == 1
        assert np.all(mesh.edge_orient[rows] == mesh.edge_orient[rows[:1]])
        # every vertex minus the first, against the representative's (the lowest id)
        pts = mesh.vertices[mesh.edge_start[rows]]
        d = pts[:, 1:] - pts[:, :1]
        assert np.abs(d - d[:1]).max() <= 2 * tol, cls


@pytest.mark.parametrize("move, same", [(0.1, True), (10.0, False)])
def test_congruence_tolerance_is_the_coincidence_tolerance(move, same):
    # a vertex moved by less than the tolerance keeps its cells' classes; moved
    # by more, the four cells around it leave theirs
    mesh = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    verts = mesh.vertices.copy()
    inner = np.argmin(np.hypot(*(verts - (0.5, 0.5)).T))
    verts[inner, 0] += move * msh.COINCIDENCE_TOL * mesh.length_scale
    moved = msh.PolyMesh(verts, mesh.edge_start, mesh.subdomain, cell_offsets=mesh.cell_offsets)
    base, got = hho.congruence_classes(mesh), hho.congruence_classes(moved)
    assert got.max() + 1 == 6 + (0 if same else 4)
    assert np.array_equal(got, base) == same


@pytest.mark.parametrize("mode", ["equal", "mixed"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh_name", MESHES + ("perturbed",))
def test_class_built_operators_match_per_cell_assembly(mesh_name, k, mode):
    # assembly forms blocks once per congruence class and scatters them to
    # the members; the reference forms every cell's own blocks
    mesh = perturbed_mesh() if mesh_name == "perturbed" else golden_mesh(mesh_name)
    config = (StabilizationConfig.explicit() if mode == "equal"
              else StabilizationConfig.implicit())
    system = assemble(mesh, ACADEMIC, config, k=k)
    ref = dense_from_blocks(mesh, system.layout, ACADEMIC, config)
    assert set(ref) == set(MATRICES)
    for name in MATRICES:
        got = getattr(system, name).tocsr().toarray()
        assert np.max(np.abs(got - ref[name])) <= 1e-13 * np.max(np.abs(ref[name])), name


def test_unstabilized_part_is_skew():
    """The symmetric part of K is exactly the stabilization (dual rows zero)."""
    mesh = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=1)
    layout = system.layout
    K = np.block([[system.k_tt.tocsr().toarray(), system.k_tf.tocsr().toarray()],
                  [system.k_ft.tocsr().toarray(), system.k_ff.toarray()]])
    sym = 0.5 * (K + K.T)
    # symmetric part never touches dual dofs: gradient blocks are purely skew
    for ci in range(mesh.n_cells):
        dual = layout.cell_dofs([ci], "dual")[0]
        assert np.max(np.abs(sym[dual, :])) < 1e-12
    # and it is positive semidefinite (pure stabilization)
    eigs = np.linalg.eigvalsh(sym)
    assert eigs.min() > -1e-10 * max(1.0, eigs.max())


def test_energy_rate_equals_stabilization():
    """u K u equals the stabilization quadratic form for random states."""
    rng = np.random.default_rng(5)
    mesh = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    config = StabilizationConfig.explicit()
    system = assemble(mesh, ACADEMIC, config, k=1)
    layout = system.layout
    fd = layout.n_face_scalar
    for _ in range(5):
        u_t = rng.standard_normal(layout.n_cell_dofs)
        u_f = rng.standard_normal(layout.n_face_dofs)
        quad = (u_t @ (system.k_tt @ u_t) + u_t @ (system.k_tf @ u_f)
                + u_f @ (system.k_ft @ u_t) + u_f @ (system.k_ff @ u_f))
        stab = 0.0
        for ci in range(mesh.n_cells):
            blocks = build_cell_blocks(mesh, ci, layout,
                                       ACADEMIC.material(mesh, ci), config)
            cc = u_t[layout.cell_dofs([ci], "primal")[0]]
            stab += cc @ (blocks.stab_cell @ cc)
            for j, fi in enumerate(blocks.face_ids):
                fi = int(fi)
                if layout.face_size[fi] == 0:
                    fc = np.zeros(blocks.stab_face[j].shape[1])
                else:
                    side = "fluid" if blocks.is_fluid else "solid"
                    fc = u_f[layout.face_side_slice(fi, side)]
                stab += 2.0 * cc @ (blocks.stab_face[j] @ fc)
                stab += fc @ (blocks.stab_face_face[j] @ fc)
        assert abs(quad - stab) < 1e-10 * max(1.0, abs(stab))
        assert quad >= -1e-10


def test_gamma_block_cancellation():
    rng = np.random.default_rng(9)
    mesh = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.explicit(), k=2)
    kff = system.k_ff.toarray()
    anti = 0.5 * (kff - kff.T)
    for _ in range(10):
        u = rng.standard_normal(kff.shape[0])
        assert abs(u @ (anti @ u)) < 1e-12 * max(1.0, float(u @ u))


def test_grouped_projections_match_per_cell_reference():
    """project_state and project_dirichlet against per-cell/per-face project_cell/_face."""
    mesh = generate(MeshGenSpec("polygonal-hexagonal", 2, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    layout = system.layout
    k, kp = layout.k, layout.k_prime
    wave = lambda p: np.sin(2.0 * p[:, 0] + 1.0) * np.cos(3.0 * p[:, 1])
    vector = lambda p: np.column_stack([wave(p), p[:, 0] * p[:, 1] ** 2])
    tensor = lambda p: np.column_stack([wave(p), p[:, 1] ** 3, np.exp(p[:, 0])])
    fields = {"pressure": wave, "fluid_velocity": vector,
              "solid_velocity": vector, "stress": tensor}
    got = hho.project_state(system, fields)
    want = np.zeros_like(got)
    for ci in range(mesh.n_cells):
        verts = mesh.vertices[mesh.edge_start[cell_rows(mesh, ci)]]
        fluid = mesh.subdomain[ci] == msh.FLUID
        for fn, dofs, degree in (
                (wave if fluid else vector, layout.cell_dofs([ci], "primal")[0], kp),
                (vector if fluid else tensor, layout.cell_dofs([ci], "dual")[0], k)):
            basis = CellBasis(mesh.cell_centroid[ci], mesh.cell_diameter[ci], degree)
            n_comp = np.atleast_2d(fn(verts[:1]).T).shape[0]
            for c in range(n_comp):
                comp = (lambda p, c=c, fn=fn: np.atleast_2d(fn(p).T)[c])
                want[dofs[c::n_comp]] = project_cell(comp, basis, verts,
                                                   center=mesh.cell_centroid[ci],
                                                   degree_hint=2 * kp + 2 - degree)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    got = system.project_dirichlet(fluid_trace=wave, solid_trace=vector)
    want = np.zeros_like(got)
    for fi in layout.boundary_faces:
        fb = FaceBasis(*mesh.vertices[mesh.faces[fi]], k)
        off, size = int(layout.dirichlet_offset[fi]), int(layout.dirichlet_size[fi])
        fn = wave if mesh.face_class[fi] == msh.F_BND_FLUID else vector
        n_comp = size // fb.dim
        for c in range(n_comp):
            comp = (lambda p, c=c, fn=fn: np.atleast_2d(fn(p).T)[c])
            want[off + c:off + size:n_comp] = project_face(comp, fb, degree_hint=k + 4)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", ["equal", "mixed"])
@pytest.mark.parametrize("mesh_name", MESHES + ("perturbed",))
def test_class_rule_integrals_match_per_cell_rules(mesh_name, mode):
    # load moments, projections, L2 errors and snapshot rows read each
    # class's rule shifted to the member; the references build a fan rule
    # for every cell (and divide the rows by the mesh's cell areas)
    mesh = perturbed_mesh() if mesh_name == "perturbed" else golden_mesh(mesh_name)
    config = (StabilizationConfig.explicit() if mode == "equal"
              else StabilizationConfig.implicit())
    system = assemble(mesh, ACADEMIC, config, k=1)
    layout = system.layout
    case = ManufacturedCase(1.3, np.sqrt(2.0), ACADEMIC)
    sources = dict(fluid_fn=case.fluid_source_profile, solid_fn=case.solid_source_profile)
    fields = {"pressure": case.pressure_profile, "fluid_velocity": case.fluid_velocity_profile,
              "solid_velocity": case.solid_velocity_profile, "stress": case.stress_profile}
    state = oracles.project_state(mesh, layout, fields)
    pairs = {
        "load_moments": (hho.load_moments(system, **sources),
                         oracles.load_moments(mesh, layout, **sources)),
        "project_state": (hho.project_state(system, fields), state),
        "l2_error_dual": (l2_error_dual(state, system, case, 0.3),
                          oracles.l2_error_dual(state, system, case, 0.3)),
        "cell_average_rows": (cli.cell_average_rows(system), oracles.cell_average_rows(system)),
    }
    for name, (got, want) in pairs.items():
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_cell_average_rows_constant_row_is_one_on_hexagonal_l6():
    # the rows divide by the rule's own area; the mesh's shoelace areas of
    # congruent cells differ by up to 5.9e-13 relative
    mesh = generate(MeshGenSpec("polygonal-hexagonal", 6, **BILAYER))
    system = assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)
    assert np.max(np.abs(cli.cell_average_rows(system)[:, 0] - 1.0)) <= 1e-15


def test_non_star_shaped_cell_raises_quadrature_error(monkeypatch):
    # mesh validation bypassed, the class store's fan rule refuses the cell
    hook = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (0, 1)]
    monkeypatch.setattr(msh.PolyMesh, "validate", lambda self: None)
    mesh = msh.PolyMesh(hook, [np.arange(6)], [msh.FLUID])
    with pytest.raises(QuadratureError, match="not star-shaped"):
        assemble(mesh, ACADEMIC, StabilizationConfig.implicit(), k=1)


def test_dof_counts_cartesian_l2_k1():
    mesh = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    layout = DofLayout(mesh, 1, "equal")
    n_fluid = int(np.sum(mesh.subdomain == msh.FLUID))
    n_solid = mesh.n_cells - n_fluid
    assert layout.n_cell_dofs == n_fluid * 9 + n_solid * 15
    count = lambda code: mesh.faces_of_class(code).size
    expected_face = (count(msh.F_INT_FLUID) * 2 + count(msh.F_INT_SOLID) * 4
                     + count(msh.F_INTERFACE) * 6)
    assert layout.n_face_dofs == expected_face


def test_solid_needs_k_at_least_one():
    mesh = generate(MeshGenSpec("cartesian", 0, **BILAYER))
    with pytest.raises(ConfigError):
        DofLayout(mesh, 0, "equal")


# ---------------------------------------------------------------------------
# dof fractions (closed forms and empirical counts)

def test_face_dof_fraction_table():
    assert abs(face_dof_fraction(2, "acoustic", "equal", 1) - 0.25) < 1e-15
    assert abs(face_dof_fraction(2, "elastic", "equal", 1) - 6.0 / 21.0) < 1e-15
    for k in (1, 2, 3):
        assert abs(face_dof_fraction(2, "elastic", "equal", k) - 6.0 / (5 * k + 16)) < 1e-15
    assert abs(face_dof_fraction(3, "elastic", "mixed", 2) - 0.23076923076923078) < 1e-12
    assert abs(face_dof_fraction(2, "acoustic", "mixed", 1) - 0.2) < 1e-15
    assert abs(face_dof_fraction(3, "acoustic", "equal", 1) - 3.0 / 11.0) < 1e-15


def test_face_dof_fraction_empirical_triangulation():
    # large pure-acoustic simplicial mesh: measured share within 2 percent
    mesh = generate(MeshGenSpec("simplicial", 6, fluid_rect=(0, 0, 1, 1)))
    assert mesh.n_cells > 8000
    assert np.all(np.diff(mesh.cell_offsets) == 3)
    for k in (1, 2):
        layout = DofLayout(mesh, k, "equal")
        measured = layout.n_face_dofs / (layout.n_face_dofs + layout.n_cell_dofs)
        assert abs(measured - face_dof_fraction(2, "acoustic", "equal", k)) < 0.02


def test_face_dof_fraction_empirical_elastic():
    mesh = generate(MeshGenSpec("simplicial", 6, fluid_rect=None,
                                solid_rect=(0, 0, 1, 1)))
    layout = DofLayout(mesh, 2, "equal")
    measured = layout.n_face_dofs / (layout.n_face_dofs + layout.n_cell_dofs)
    assert abs(measured - face_dof_fraction(2, "elastic", "equal", 2)) < 0.02


def test_condensation_reduction_quadrangular_mixed():
    # implicit-path static condensation removes the cell unknowns
    mesh = generate(MeshGenSpec("cartesian", 6, **BILAYER))
    layout = DofLayout(mesh, 3, "mixed")
    summary = layout.summary()
    reduction = 1.0 - summary["face_dofs"] / summary["total_dofs"]
    assert 0.70 <= reduction <= 0.80
