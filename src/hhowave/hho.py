"""Hybrid high-order operator blocks and global block-system assembly.

The primal variables (fluid pressure, solid velocity) carry cell unknowns of
degree k' and face unknowns of degree k; the dual variables (fluid velocity,
solid stress) are cellwise of degree k. Per cell the semi-discrete system
couples a weighted mass matrix, a gradient-reconstruction block mapping primal
(cell, face) unknowns to dual moments, and a boundary stabilization penalizing
the mismatch between the cell trace and the face unknowns. Interface faces
carry both a pressure and a velocity face unknown, coupled by the normal-flux
pairing; the two off-diagonal coupling blocks enter with opposite signs so
their contribution to the energy balance cancels exactly.

Global storage is block-sparse: the cell-cell stiffness and the mass matrix
are block-diagonal per cell, the face-face stiffness is block-diagonal per
face (interface faces forming one merged block), and the cell-face couplings
only link a cell to its own faces. Homogeneous Dirichlet boundary faces carry
no unknowns; nonhomogeneous data enters through a separate lifting matrix
applied to known face values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import mesh as msh
from .basis import (CellBasis, FaceBasis, polygon_quadrature, scalar_cell_dim,
                    scalar_face_dim, segment_quadrature)
from .materials import FluidMaterial, MaterialMap, SolidMaterial

_I2 = np.eye(2)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class StabilizationConfig:
    """Order mode, stabilization operator and weights.

    Two admissible pairings: the equal-order setting (k' = k) with plain
    least-squares stabilization and an O(1) weight (alpha = 0), used on the
    explicit path; and the mixed-order setting (k' = k+1) with the projected
    (Lehrenfeld-Schoberl) stabilization and an O(1/h) weight (alpha = 1),
    used on the implicit path.
    """

    order_mode: str = "equal"          # 'equal' | 'mixed'
    operator: str = "least-squares"    # 'least-squares' | 'lehrenfeld-schoberl'
    alpha: int = 0
    eta_fluid: float = 0.8
    eta_solid: float = 1.5

    def __post_init__(self):
        if self.order_mode not in ("equal", "mixed"):
            raise ConfigError(f"unknown order mode {self.order_mode!r}")
        if self.operator not in ("least-squares", "lehrenfeld-schoberl"):
            raise ConfigError(f"unknown stabilization operator {self.operator!r}")
        if self.order_mode == "equal" and (self.operator != "least-squares" or self.alpha != 0):
            raise ConfigError("equal-order setting requires least-squares stabilization "
                              "with alpha = 0")
        if self.order_mode == "mixed" and (self.operator != "lehrenfeld-schoberl"
                                           or self.alpha != 1):
            raise ConfigError("mixed-order setting requires Lehrenfeld-Schoberl "
                              "stabilization with alpha = 1")
        if self.eta_fluid <= 0 or self.eta_solid <= 0:
            raise ConfigError("stabilization weights must be positive")

    @classmethod
    def explicit(cls, eta_fluid=0.8, eta_solid=1.5):
        """Equal-order least-squares setting with the tuned explicit-path weights."""
        return cls("equal", "least-squares", 0, eta_fluid, eta_solid)

    @classmethod
    def implicit(cls, eta_fluid=1.0, eta_solid=1.0):
        """Mixed-order Lehrenfeld-Schoberl setting for implicit time stepping."""
        return cls("mixed", "lehrenfeld-schoberl", 1, eta_fluid, eta_solid)


# ---------------------------------------------------------------------------
# dof layout

class DofLayout:
    """Global ordering of cell and face unknowns.

    Cell unknowns come first, cell by cell, each cell block storing the dual
    variable (fluid velocity / solid stress, degree k) before the primal one
    (pressure / solid velocity, degree k'). Face unknowns follow, face by
    face; interface faces store the fluid pressure trace before the solid
    velocity trace. Dirichlet boundary faces carry no unknowns but get a
    parallel index space used for lifting known data.
    """

    def __init__(self, mesh: msh.PolyMesh, k: int, order_mode: str = "equal"):
        if k < 0:
            raise ConfigError("polynomial degree k must be >= 0")
        if k < 1 and np.any(mesh.subdomain == msh.SOLID):
            raise ConfigError("k >= 1 required in the solid subdomain")
        self.mesh = mesh
        self.k = k
        self.k_prime = k + (0 if order_mode == "equal" else 1)
        nd = scalar_cell_dim(k)
        npr = scalar_cell_dim(self.k_prime)
        fd = scalar_face_dim(k)
        self.n_dual_scalar = nd
        self.n_primal_scalar = npr
        self.n_face_scalar = fd

        n_cells = mesh.n_cells
        self.cell_dual_size = np.where(mesh.subdomain == msh.FLUID, 2 * nd, 3 * nd)
        self.cell_primal_size = np.where(mesh.subdomain == msh.FLUID, npr, 2 * npr)
        sizes = self.cell_dual_size + self.cell_primal_size
        self.cell_offset = np.concatenate([[0], np.cumsum(sizes)])
        self.n_cell_dofs = int(self.cell_offset[-1])

        self.face_size = np.zeros(mesh.n_faces, dtype=np.int64)
        self.face_size[mesh.face_class == msh.F_INT_FLUID] = fd
        self.face_size[mesh.face_class == msh.F_INT_SOLID] = 2 * fd
        self.face_size[mesh.face_class == msh.F_INTERFACE] = 3 * fd
        self.face_offset = np.concatenate([[0], np.cumsum(self.face_size)])
        self.n_face_dofs = int(self.face_offset[-1])

        bnd = (mesh.face_class == msh.F_BND_FLUID) | (mesh.face_class == msh.F_BND_SOLID)
        dsize = np.zeros(mesh.n_faces, dtype=np.int64)
        dsize[mesh.face_class == msh.F_BND_FLUID] = fd
        dsize[mesh.face_class == msh.F_BND_SOLID] = 2 * fd
        self.dirichlet_size = dsize
        self.dirichlet_offset = np.concatenate([[0], np.cumsum(dsize)])
        self.n_dirichlet_dofs = int(self.dirichlet_offset[-1])
        self.boundary_faces = np.nonzero(bnd)[0]

    # cell accessors ------------------------------------------------------
    def cell_slice(self, ci):
        return slice(int(self.cell_offset[ci]), int(self.cell_offset[ci + 1]))

    def cell_dual_slice(self, ci):
        off = int(self.cell_offset[ci])
        return slice(off, off + int(self.cell_dual_size[ci]))

    def cell_primal_slice(self, ci):
        off = int(self.cell_offset[ci]) + int(self.cell_dual_size[ci])
        return slice(off, int(self.cell_offset[ci + 1]))

    # face accessors --------------------------------------------------------
    def face_slice(self, fi):
        return slice(int(self.face_offset[fi]), int(self.face_offset[fi + 1]))

    def face_side_slice(self, fi, side):
        """Dof slice of one side of a face: 'fluid' or 'solid'.

        For interface faces the fluid trace block precedes the solid one;
        for single-subdomain faces the full block belongs to that side.
        """
        off = int(self.face_offset[fi])
        fd = self.n_face_scalar
        cls = self.mesh.face_class[fi]
        if cls == msh.F_INTERFACE:
            return slice(off, off + fd) if side == "fluid" else slice(off + fd, off + 3 * fd)
        return self.face_slice(fi)

    def summary(self) -> dict:
        """Dof statistics: per-variable dimensions and condensation counts."""
        mesh = self.mesh
        fluid = mesh.subdomain == msh.FLUID
        nd, npr, fd = self.n_dual_scalar, self.n_primal_scalar, self.n_face_scalar
        n_fc = int(fluid.sum())
        n_sc = int((~fluid).sum())
        fluid_face = ((mesh.face_class == msh.F_INT_FLUID)
                      | (mesh.face_class == msh.F_INTERFACE))
        solid_face = ((mesh.face_class == msh.F_INT_SOLID)
                      | (mesh.face_class == msh.F_INTERFACE))
        dims = {
            "fluid_primal_cell": n_fc * npr,
            "fluid_dual_cell": n_fc * 2 * nd,
            "fluid_face": int(fluid_face.sum()) * fd,
            "solid_primal_cell": n_sc * 2 * npr,
            "solid_dual_cell": n_sc * 3 * nd,
            "solid_face": int(solid_face.sum()) * 2 * fd,
        }
        total = self.n_cell_dofs + self.n_face_dofs
        dims["cell_dofs"] = self.n_cell_dofs
        dims["face_dofs"] = self.n_face_dofs
        dims["total_dofs"] = total
        dims["face_dof_fraction"] = self.n_face_dofs / total if total else 0.0
        return dims


def face_dof_fraction(d: int, case: str, mode: str, k: int) -> float:
    """Asymptotic share of face dofs (closed forms, n·#cells ~ 2·#faces).

    d in {2, 3}; case 'acoustic' or 'elastic'; mode 'equal' or 'mixed'.
    """
    if d not in (2, 3):
        raise ConfigError("dimension must be 2 or 3")
    if case not in ("acoustic", "elastic"):
        raise ConfigError("case must be 'acoustic' or 'elastic'")
    if mode not in ("equal", "mixed"):
        raise ConfigError("mode must be 'equal' or 'mixed'")
    if d == 2:
        if mode == "equal":
            return 1.0 / (k + 3) if case == "acoustic" else 6.0 / (5 * k + 16)
        if case == "acoustic":
            return 3.0 * (k + 1) / (3 * k**2 + 14 * k + 13)
        return 6.0 * (k + 1) / (5 * k**2 + 25 * k + 24)
    if mode == "equal":
        return 3.0 / (2 * k + 9) if case == "acoustic" else 2.0 / (k + 5)
    if case == "acoustic":
        return 6.0 * (k + 1) * (k + 2) / (4 * k**3 + 33 * k**2 + 77 * k + 54)
    return 6.0 * (k + 1) * (k + 2) / (3 * k**3 + 27 * k**2 + 66 * k + 48)


# ---------------------------------------------------------------------------
# local operator blocks

@dataclass
class LocalBlocks:
    """All local matrices of one cell, in local (dual | primal) ordering."""

    ci: int
    is_fluid: bool
    mass: np.ndarray                 # (n, n) weighted block mass
    mass_dual: np.ndarray            # dual-variable weighted mass
    mass_primal: np.ndarray          # primal-variable weighted mass
    grad_cell: np.ndarray            # dual x primal moments of the reconstruction
    grad_face: list                  # per local face: dual x face-dofs (or None)
    stab_cell: np.ndarray            # primal x primal
    stab_face: list                  # per local face: primal x face-dofs (or None)
    stab_face_face: list             # per local face: face x face (or None)
    tau: float
    face_ids: np.ndarray
    k_tt: np.ndarray = field(init=False)

    def __post_init__(self):
        n_dual = self.mass_dual.shape[0]
        n_primal = self.mass_primal.shape[0]
        n = n_dual + n_primal
        k = np.zeros((n, n))
        k[:n_dual, n_dual:] = -self.grad_cell
        k[n_dual:, :n_dual] = self.grad_cell.T
        k[n_dual:, n_dual:] = self.stab_cell
        self.k_tt = k

    def k_tf(self, j):
        """Cell-to-face stiffness blocklet for local face j (rows dual|primal)."""
        g = self.grad_face[j]
        s = self.stab_face[j]
        if g is None:
            return None
        return np.vstack([-g, s])

    def k_ft(self, j):
        """Face-to-cell stiffness blocklet for local face j."""
        g = self.grad_face[j]
        s = self.stab_face[j]
        if g is None:
            return None
        return np.hstack([g.T, s.T])


def _interleave_vector(mat_x, mat_y=None):
    """Expand scalar-mode matrices into interleaved 2-component rows."""
    n, m = mat_x.shape
    out = np.zeros((2 * n, m))
    out[0::2] = mat_x
    out[1::2] = mat_x if mat_y is None else mat_y
    return out


def _kron_i2(mat):
    return np.kron(mat, _I2)


def build_cell_blocks(mesh: msh.PolyMesh, ci: int, layout: DofLayout,
                      material, config: StabilizationConfig,
                      quad_degree: int | None = None) -> LocalBlocks:
    """Assemble the local mass, gradient and stabilization blocks of one cell."""
    k, kp = layout.k, layout.k_prime
    is_fluid = mesh.subdomain[ci] == msh.FLUID
    deg = quad_degree if quad_degree is not None else 2 * (kp + 1)

    verts = mesh.vertices[mesh.cell_vertices[ci]]
    center = mesh.cell_centroid[ci]
    diam = mesh.cell_diameter[ci]
    primal = CellBasis(center, diam, kp)
    dual = CellBasis(center, diam, k)

    pts, w = polygon_quadrature(verts, deg, center=center)
    phi_p = primal.eval(pts)
    gphi_p = primal.grad(pts)
    phi_d = dual.eval(pts)

    mass_p = phi_p.T @ (w[:, None] * phi_p)
    mass_d = phi_d.T @ (w[:, None] * phi_d)
    vol_x = phi_d.T @ (w[:, None] * gphi_p[:, :, 0])   # (dual, primal)
    vol_y = phi_d.T @ (w[:, None] * gphi_p[:, :, 1])

    face_ids = mesh.cell_faces[ci]
    orient = mesh.cell_face_orient[ci]
    n_faces = len(face_ids)
    tr_x = np.zeros_like(vol_x)
    tr_y = np.zeros_like(vol_y)
    face_data = []
    for j in range(n_faces):
        fi = int(face_ids[j])
        v0, v1 = mesh.face_vertices(fi)
        fb = FaceBasis(v0, v1, k)
        fpts, fw = segment_quadrature(v0, v1, deg)
        psi = fb.eval(fpts)
        tphi_p = primal.eval(fpts)
        tphi_d = dual.eval(fpts)
        nrm = mesh.face_normal[fi] * orient[j]
        cross_pd = tphi_d.T @ (fw[:, None] * tphi_p)    # (dual, primal) on face
        tr_x += cross_pd * nrm[0]
        tr_y += cross_pd * nrm[1]
        mass_f = psi.T @ (fw[:, None] * psi)
        b_f = psi.T @ (fw[:, None] * tphi_p)            # (face, primal)
        n_f = tphi_p.T @ (fw[:, None] * tphi_p)         # (primal, primal)
        x_f = tphi_d.T @ (fw[:, None] * psi) * nrm[0]   # (dual, face)
        y_f = tphi_d.T @ (fw[:, None] * psi) * nrm[1]
        face_data.append((fi, mass_f, b_f, n_f, x_f, y_f))

    h_tilde = diam / mesh.length_scale
    if is_fluid:
        mat: FluidMaterial = material
        tau = config.eta_fluid / (mat.rho * mat.c_p) * h_tilde ** (-config.alpha)
        mass_dual = mat.rho * _kron_i2(mass_d)
        mass_primal = mass_p / mat.kappa
        grad_cell = _interleave_vector(vol_x - tr_x, vol_y - tr_y)
    else:
        mat: SolidMaterial = material
        tau = config.eta_solid * (mat.rho * mat.c_s) * h_tilde ** (-config.alpha)
        weight = mat.compliance_weight()
        mass_dual = np.kron(mass_d, weight)
        mass_primal = mat.rho * _kron_i2(mass_p)
        gx, gy = vol_x - tr_x, vol_y - tr_y
        nd, npr = mass_d.shape[0], mass_p.shape[0]
        grad_cell = np.zeros((3 * nd, 2 * npr))
        grad_cell[0::3, 0::2] = gx      # xx row, x component
        grad_cell[1::3, 1::2] = gy      # yy row, y component
        grad_cell[2::3, 0::2] = gy      # xy row (with multiplicity 2 folded in)
        grad_cell[2::3, 1::2] = gx

    stab_cell = np.zeros((mass_primal.shape[0],) * 2)
    grad_face = []
    stab_face = []
    stab_face_face = []
    ls_projected = config.operator == "lehrenfeld-schoberl"
    for j, (fi, mass_f, b_f, n_f, x_f, y_f) in enumerate(face_data):
        if ls_projected:
            s_tt = b_f.T @ np.linalg.solve(mass_f, b_f)
        else:
            s_tt = n_f
        if is_fluid:
            stab_cell += tau * s_tt
            g_face = _interleave_vector(x_f, y_f)
            s_tf = -tau * b_f.T
            s_ff = tau * mass_f
        else:
            stab_cell += tau * _kron_i2(s_tt)
            nd = x_f.shape[0]
            fd = x_f.shape[1]
            g_face = np.zeros((3 * nd, 2 * fd))
            g_face[0::3, 0::2] = x_f
            g_face[1::3, 1::2] = y_f
            g_face[2::3, 0::2] = y_f
            g_face[2::3, 1::2] = x_f
            s_tf = -tau * _kron_i2(b_f.T)
            s_ff = tau * _kron_i2(mass_f)
        grad_face.append(g_face)
        stab_face.append(s_tf)
        stab_face_face.append(s_ff)

    n_dual = mass_dual.shape[0]
    n_primal = mass_primal.shape[0]
    mass = np.zeros((n_dual + n_primal,) * 2)
    mass[:n_dual, :n_dual] = mass_dual
    mass[n_dual:, n_dual:] = mass_primal
    return LocalBlocks(ci=ci, is_fluid=is_fluid, mass=mass, mass_dual=mass_dual,
                       mass_primal=mass_primal, grad_cell=grad_cell,
                       grad_face=grad_face, stab_cell=stab_cell, stab_face=stab_face,
                       stab_face_face=stab_face_face, tau=tau, face_ids=face_ids)


def coupling_block(mesh: msh.PolyMesh, fi: int, k: int) -> np.ndarray:
    """Interface flux block: fluid trace rows vs solid trace columns.

    Entry (i, 2j+a) is the face mass of modes (i, j) times component a of the
    interface normal, realizing the pairing of the solid normal velocity with
    the fluid pressure test trace.
    """
    if mesh.face_class[fi] != msh.F_INTERFACE:
        raise ConfigError(f"face {fi} is not an interface face")
    v0, v1 = mesh.face_vertices(fi)
    fb = FaceBasis(v0, v1, k)
    fpts, fw = segment_quadrature(v0, v1, 2 * k)
    psi = fb.eval(fpts)
    mass_f = psi.T @ (fw[:, None] * psi)
    nrm = mesh.face_normal[fi]
    fd = mass_f.shape[0]
    out = np.zeros((fd, 2 * fd))
    out[:, 0::2] = mass_f * nrm[0]
    out[:, 1::2] = mass_f * nrm[1]
    return out


# ---------------------------------------------------------------------------
# global assembly

class BlockSystem:
    """Assembled semi-discrete system M dU/dt + K U = F in block form.

    Cell rows/columns use the DofLayout cell numbering, face rows/columns the
    face numbering. `mass`, `k_tt` are block-diagonal per cell; `k_ff` is
    block-diagonal per dof-carrying face; `k_td` maps known Dirichlet face
    values to cell equations (lifting of nonhomogeneous boundary data).
    """

    def __init__(self, layout, mass, k_tt, k_tf, k_ft, k_ff, k_td,
                 cell_mass_blocks, cell_ktt_blocks, face_kff_blocks,
                 materials, config):
        self.layout = layout
        self.mesh = layout.mesh
        self.mass = mass
        self.k_tt = k_tt
        self.k_tf = k_tf
        self.k_ft = k_ft
        self.k_ff = k_ff
        self.k_td = k_td
        self.cell_mass_blocks = cell_mass_blocks
        self.cell_ktt_blocks = cell_ktt_blocks
        self.face_kff_blocks = face_kff_blocks
        self.materials = materials
        self.config = config

    @property
    def n_cell_dofs(self):
        return self.layout.n_cell_dofs

    @property
    def n_face_dofs(self):
        return self.layout.n_face_dofs

    def project_dirichlet(self, fluid_trace=None, solid_trace=None) -> np.ndarray:
        """L2-project boundary data onto the Dirichlet face index space.

        fluid_trace(points) -> scalar pressure values; solid_trace(points) ->
        (n, 2) velocity values. Missing callables mean homogeneous data.
        """
        layout = self.layout
        mesh = self.mesh
        out = np.zeros(layout.n_dirichlet_dofs)
        if fluid_trace is None and solid_trace is None:
            return out
        k = layout.k
        for fi in layout.boundary_faces:
            off = int(layout.dirichlet_offset[fi])
            size = int(layout.dirichlet_size[fi])
            v0, v1 = mesh.face_vertices(fi)
            fb = FaceBasis(v0, v1, k)
            fpts, fw = segment_quadrature(v0, v1, 2 * (k + 2))
            psi = fb.eval(fpts)
            mass_f = psi.T @ (fw[:, None] * psi)
            if mesh.face_class[fi] == msh.F_BND_FLUID:
                if fluid_trace is None:
                    continue
                vals = np.asarray(fluid_trace(fpts), dtype=float)
                out[off:off + size] = np.linalg.solve(mass_f, psi.T @ (fw * vals))
            else:
                if solid_trace is None:
                    continue
                vals = np.asarray(solid_trace(fpts), dtype=float)
                coeff_x = np.linalg.solve(mass_f, psi.T @ (fw * vals[:, 0]))
                coeff_y = np.linalg.solve(mass_f, psi.T @ (fw * vals[:, 1]))
                out[off:off + size:2] = coeff_x
                out[off + 1:off + size:2] = coeff_y
        return out

    def dirichlet_lift(self, dirichlet_values: np.ndarray) -> np.ndarray:
        """Cell right-hand-side contribution of known Dirichlet face values."""
        if self.k_td is None or self.layout.n_dirichlet_dofs == 0:
            return np.zeros(self.n_cell_dofs)
        return -(self.k_td @ dirichlet_values)


class _Coo:
    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def add(self, block, r0, c0):
        r, c = np.nonzero(np.ones(block.shape, dtype=bool))
        self.rows.append(r + r0)
        self.cols.append(c + c0)
        self.vals.append(block.ravel())

    def build(self, shape):
        if not self.vals:
            return sp.csr_matrix(shape)
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


def assemble(mesh: msh.PolyMesh, materials: MaterialMap,
             config: StabilizationConfig, k: int) -> BlockSystem:
    """Assemble the global block system for degree k under `config`."""
    layout = DofLayout(mesh, k, config.order_mode)
    n_t, n_f, n_d = layout.n_cell_dofs, layout.n_face_dofs, layout.n_dirichlet_dofs

    mass_coo, ktt_coo, ktf_coo, kft_coo, kff_coo, ktd_coo = (_Coo() for _ in range(6))
    cell_mass_blocks = []
    cell_ktt_blocks = []
    face_kff_blocks: dict[int, np.ndarray] = {
        int(fi): np.zeros((int(layout.face_size[fi]),) * 2)
        for fi in np.nonzero(layout.face_size)[0]
    }

    fd = layout.n_face_scalar
    for ci in range(mesh.n_cells):
        material = materials.material(mesh, ci)
        blocks = build_cell_blocks(mesh, ci, layout, material, config)
        off_t = int(layout.cell_offset[ci])
        mass_coo.add(blocks.mass, off_t, off_t)
        ktt_coo.add(blocks.k_tt, off_t, off_t)
        cell_mass_blocks.append(blocks.mass)
        cell_ktt_blocks.append(blocks.k_tt)
        is_fluid = blocks.is_fluid
        for j, fi in enumerate(blocks.face_ids):
            fi = int(fi)
            cls = mesh.face_class[fi]
            if cls in (msh.F_BND_FLUID, msh.F_BND_SOLID):
                ktd_coo.add(np.vstack([-blocks.grad_face[j], blocks.stab_face[j]]),
                            off_t, int(layout.dirichlet_offset[fi]))
                continue
            off_f = int(layout.face_offset[fi])
            if cls == msh.F_INTERFACE:
                off_f += 0 if is_fluid else fd
            ktf_coo.add(blocks.k_tf(j), off_t, off_f)
            kft_coo.add(blocks.k_ft(j), off_f, off_t)
            s_ff = blocks.stab_face_face[j]
            loc = face_kff_blocks[fi]
            if cls == msh.F_INTERFACE:
                if is_fluid:
                    loc[:fd, :fd] += s_ff
                else:
                    loc[fd:, fd:] += s_ff
            else:
                loc += s_ff

    for fi in mesh.interface_faces:
        c = coupling_block(mesh, int(fi), k)
        loc = face_kff_blocks[int(fi)]
        loc[:fd, fd:] += c
        loc[fd:, :fd] -= c.T

    for fi, block in face_kff_blocks.items():
        kff_coo.add(block, int(layout.face_offset[fi]), int(layout.face_offset[fi]))

    system = BlockSystem(
        layout=layout,
        mass=mass_coo.build((n_t, n_t)),
        k_tt=ktt_coo.build((n_t, n_t)),
        k_tf=ktf_coo.build((n_t, n_f)),
        k_ft=kft_coo.build((n_f, n_t)),
        k_ff=kff_coo.build((n_f, n_f)),
        k_td=ktd_coo.build((n_t, n_d)) if n_d else None,
        cell_mass_blocks=cell_mass_blocks,
        cell_ktt_blocks=cell_ktt_blocks,
        face_kff_blocks=face_kff_blocks,
        materials=materials,
        config=config,
    )
    return system


# ---------------------------------------------------------------------------
# load vectors

def load_moments(mesh: msh.PolyMesh, layout: DofLayout, fluid_fn=None, solid_fn=None,
                 quad_degree: int | None = None) -> np.ndarray:
    """Cell right-hand-side moments of source densities against primal test bases.

    fluid_fn(points) -> scalar values; solid_fn(points) -> (n, 2) values.
    Face entries are identically zero by construction and not represented.
    """
    deg = quad_degree if quad_degree is not None else 2 * (layout.k_prime + 1)
    out = np.zeros(layout.n_cell_dofs)
    for ci in range(mesh.n_cells):
        is_fluid = mesh.subdomain[ci] == msh.FLUID
        fn = fluid_fn if is_fluid else solid_fn
        if fn is None:
            continue
        verts = mesh.vertices[mesh.cell_vertices[ci]]
        center = mesh.cell_centroid[ci]
        primal = CellBasis(center, mesh.cell_diameter[ci], layout.k_prime)
        pts, w = polygon_quadrature(verts, deg, center=center)
        phi = primal.eval(pts)
        sl = layout.cell_primal_slice(ci)
        if is_fluid:
            vals = np.asarray(fn(pts), dtype=float)
            out[sl] = phi.T @ (w * vals)
        else:
            vals = np.asarray(fn(pts), dtype=float)
            mom_x = phi.T @ (w * vals[:, 0])
            mom_y = phi.T @ (w * vals[:, 1])
            block = np.empty(2 * phi.shape[1])
            block[0::2] = mom_x
            block[1::2] = mom_y
            out[sl] = block
    return out


def project_state(mesh: msh.PolyMesh, layout: DofLayout, fields,
                  quad_degree: int | None = None) -> np.ndarray:
    """L2-project initial fields onto the cell unknowns.

    `fields` provides callables over (n, 2) point arrays: pressure(pts),
    fluid_velocity(pts) -> (n, 2), solid_velocity(pts) -> (n, 2),
    stress(pts) -> (n, 3); any may be None for a zero field.
    """
    deg = quad_degree if quad_degree is not None else 2 * (layout.k_prime + 1)
    pressure = fields.get("pressure")
    m_fluid = fields.get("fluid_velocity")
    v_solid = fields.get("solid_velocity")
    stress = fields.get("stress")
    out = np.zeros(layout.n_cell_dofs)
    for ci in range(mesh.n_cells):
        is_fluid = mesh.subdomain[ci] == msh.FLUID
        verts = mesh.vertices[mesh.cell_vertices[ci]]
        center = mesh.cell_centroid[ci]
        diam = mesh.cell_diameter[ci]
        primal = CellBasis(center, diam, layout.k_prime)
        dual = CellBasis(center, diam, layout.k)
        pts, w = polygon_quadrature(verts, deg, center=center)
        phi_p = primal.eval(pts)
        phi_d = dual.eval(pts)
        gram_p = phi_p.T @ (w[:, None] * phi_p)
        gram_d = phi_d.T @ (w[:, None] * phi_d)
        dsl = layout.cell_dual_slice(ci)
        psl = layout.cell_primal_slice(ci)
        if is_fluid:
            if pressure is not None:
                out[psl] = np.linalg.solve(gram_p, phi_p.T @ (w * np.asarray(pressure(pts))))
            if m_fluid is not None:
                vals = np.asarray(m_fluid(pts), dtype=float)
                cx = np.linalg.solve(gram_d, phi_d.T @ (w * vals[:, 0]))
                cy = np.linalg.solve(gram_d, phi_d.T @ (w * vals[:, 1]))
                block = np.empty(2 * len(cx))
                block[0::2] = cx
                block[1::2] = cy
                out[dsl] = block
        else:
            if v_solid is not None:
                vals = np.asarray(v_solid(pts), dtype=float)
                cx = np.linalg.solve(gram_p, phi_p.T @ (w * vals[:, 0]))
                cy = np.linalg.solve(gram_p, phi_p.T @ (w * vals[:, 1]))
                block = np.empty(2 * len(cx))
                block[0::2] = cx
                block[1::2] = cy
                out[psl] = block
            if stress is not None:
                vals = np.asarray(stress(pts), dtype=float)
                coeffs = [np.linalg.solve(gram_d, phi_d.T @ (w * vals[:, c])) for c in range(3)]
                block = np.empty(3 * len(coeffs[0]))
                for c in range(3):
                    block[c::3] = coeffs[c]
                out[dsl] = block
    return out
