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

Local blocks are formed once per congruence class of cells
(`congruence_classes`) by the class store `CellClasses`, which forms one
representative's blocks per class on `basis.cell_groups` and keeps them
with its fan rule; `assemble` scatters the face-face blocks and the
Dirichlet columns of K_TF to every member's own dofs, one block shape
(subdomain, vertex count) at a time. Every other cell integral
(`load_moments`, `project_state`, `scenarios.l2_error_dual` and
`cli.cell_average_rows`) reads the class rules (`ClassRule`), so no cell
gets a rule or a basis of its own. Cartesian meshes have 6 classes,
hexagonal L6 48 over 8,280 cells, and a mesh without congruent cells one
class per cell: cells share a class when their vertices, relative to their
first one, agree within the mesh's `coincidence_tol`, at any scale and
translation of the mesh (6 classes on granite-water up to 103,684 cells).

The class store is the only store of the cell operators M, K_TT, K_TF
and K_FT: the system's `mass`, `k_tt`, `k_tf` and `k_ft` are views over it
(`ClassOperator`) that apply the class blocks, count the entries their CSR
would store, and form that CSR only when the explicit path asks for it.
K_FF, block-diagonal per face, is held as a `BlockDiagonal` grouped by
block size and as CSR. The block inverses are derived from these stacks,
one batched inversion per stack (`inverse_stack`): M^-1 once per class,
K_FF^-1 once per face block. Every CSR matrix built from dense blocks (M,
K_TT, K_TF, K_FT, K_TD, K_FF, M^-1 and K_FF^-1) stores, with int32 indices,
only the entries above a round-off floor: |x| > ROUNDOFF_FLOOR max(row max,
column max), 16 machine epsilons of the largest entry of the entry's own
row or column of its block (`_kept`). Which entries pass is decided once
per class block, or once per block of a `BlockDiagonal`, and gathered to
the members (`_block_entries`). Moments that vanish exactly on symmetric
cells come out of the quadrature as round-off, so the floor halves what the
cartesian operators store; the explicit operator L inherits it through
the sparse products that form it, the face map P among them. What the
explicit path derives from a system (M^-1, L and its extreme eigenvalues)
belongs to the system too: each is built once, on first use, and shared
by every stepper and scheme on that system.

Every cell-local operator is applied by one pass over the segments of the
class store (`CellClasses.apply`): the views M, K_TT, K_TF and K_FT, and
the implicit stage's stacked class blocks formed from the same store
(A = M + a* dt K_TT, A^-1 M and G = A^-1 K_TF stacked over their K_FT
products). The implicit stage assembles its Schur matrix from per-class
dense blocks, keeping every nonzero entry of those
(`CellClasses.face_matrix`). The pass applies a class-ordered cell
vector, or gathered face values, by one GEMM per class of at least
`gemm_min_members(n)` cells, a break-even that falls with the cell block
size n (36 members for 12 x 12 blocks, 21 for 21 x 21, 16 for 40 x 40
and 5 from 60 x 60 on), and one stacked `matmul` per block shape for the
cells of smaller classes. On cartesian meshes the stages therefore run almost entirely on
GEMMs; meshes without congruent cells run on the stacked products alone.
The face unknowns of the interface sensors come from the same pass and
K_FF^-1, inverted from its face blocks, and so does an implicit run's
energy (`scenarios.energy`): an implicit run forms no CSR of a cell
operator.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import mesh as msh
from .basis import (GROUP_CHUNK, CellGroup, cell_group, cell_groups, cell_monomials, face_rule,
                    scalar_cell_dim, scalar_face_dim)
from .materials import FluidMaterial, MaterialMap
from .timestep import inverse_stack

log = logging.getLogger(__name__)

_I2 = np.eye(2)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class StabilizationConfig:
    """Order mode and stabilization weights; the order mode fixes the operator.

    The equal-order setting (k' = k) uses plain least-squares stabilization
    with an O(1) weight (alpha = 0) and serves the explicit path; the
    mixed-order setting (k' = k+1) uses the projected (Lehrenfeld-Schoberl)
    stabilization with an O(1/h) weight (alpha = 1) and serves the implicit
    path.
    """

    order_mode: str                    # 'equal' | 'mixed'
    eta_fluid: float
    eta_solid: float

    def __post_init__(self):
        if self.order_mode not in ("equal", "mixed"):
            raise ConfigError(f"unknown order mode {self.order_mode!r}")
        if self.eta_fluid <= 0 or self.eta_solid <= 0:
            raise ConfigError("stabilization weights must be positive")

    @classmethod
    def explicit(cls, eta_fluid=0.8, eta_solid=1.5):
        """Equal-order least-squares setting with the tuned explicit-path weights."""
        return cls("equal", eta_fluid, eta_solid)

    @classmethod
    def implicit(cls, eta_fluid=1.0, eta_solid=1.0):
        """Mixed-order Lehrenfeld-Schoberl setting for implicit time stepping."""
        return cls("mixed", eta_fluid, eta_solid)


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
    def cell_dofs(self, cells, part):
        """Dof indices (len(cells), size) of the 'dual' or 'primal' part of `cells`.

        All `cells` must lie in one subdomain, so the parts share one size.
        """
        sizes = self.cell_dual_size if part == "dual" else self.cell_primal_size
        start = self.cell_offset[cells] + (0 if part == "dual" else self.cell_dual_size[cells])
        return start[:, None] + np.arange(int(sizes[cells].max(initial=0)))

    # face accessors --------------------------------------------------------
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
        return slice(off, int(self.face_offset[fi + 1]))

    @cached_property
    def face_sign(self) -> np.ndarray:
        """The side of every face dof: -1 on the solid side (the dofs of
        solid faces and the solid trace of interface faces), +1 on the fluid
        side. The interface coupling of K_FF is its entries between dofs of
        opposite sides (`timestep.CondensedFactorization`)."""
        fclass = np.repeat(self.mesh.face_class, self.face_size)
        local = np.arange(self.n_face_dofs) - np.repeat(self.face_offset[:-1], self.face_size)
        solid = (fclass == msh.F_INT_SOLID) | ((fclass == msh.F_INTERFACE)
                                              & (local >= self.n_face_scalar))
        return np.where(solid, -1.0, 1.0)

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
    """Local matrices of one cell, or stacked over a cell group (leading axis g).

    Rows and columns use the local (dual | primal) ordering; face blocks
    carry a local face axis j and `n_side` face dofs (the cell's side of an
    interface face).
    """

    is_fluid: bool
    mass: np.ndarray                 # (g, n, n) weighted block mass
    mass_dual: np.ndarray            # dual-variable weighted mass
    mass_primal: np.ndarray          # primal-variable weighted mass
    grad_cell: np.ndarray            # (g, n_dual, n_primal) moments of the reconstruction
    stab_cell: np.ndarray            # (g, n_primal, n_primal)
    k_tt: np.ndarray                 # (g, n, n) cell-cell stiffness
    grad_face: np.ndarray            # (g, n_v, n_dual, n_side)
    stab_face: np.ndarray            # (g, n_v, n_primal, n_side)
    stab_face_face: np.ndarray       # (g, n_v, n_side, n_side)
    tau: np.ndarray                  # (g,) stabilization weights
    face_ids: np.ndarray             # (g, n_v)

    def k_tf(self):
        """Cell-to-face stiffness blocklets of every local face (rows dual|primal)."""
        return np.concatenate([-self.grad_face, self.stab_face], axis=-2)

    def k_ft(self):
        """Face-to-cell stiffness blocklets of every local face."""
        return np.swapaxes(np.concatenate([self.grad_face, self.stab_face], axis=-2), -1, -2)


def _interleave_vector(mat_x, mat_y):
    """Stack x/y matrices (..., n, m) into interleaved 2-component rows (..., 2n, m)."""
    out = np.zeros(mat_x.shape[:-2] + (2 * mat_x.shape[-2], mat_x.shape[-1]))
    out[..., 0::2, :] = mat_x
    out[..., 1::2, :] = mat_y
    return out


def _symmetric_gradient(mat_x, mat_y):
    """(xx, yy, xy) stress rows against (x, y) velocity columns: (..., 3n, 2m).

    The xy row carries both derivatives (multiplicity 2 folded in).
    """
    n, m = mat_x.shape[-2:]
    out = np.zeros(mat_x.shape[:-2] + (3 * n, 2 * m))
    out[..., 0::3, 0::2] = mat_x
    out[..., 1::3, 1::2] = mat_y
    out[..., 2::3, 0::2] = mat_y
    out[..., 2::3, 1::2] = mat_x
    return out


def _kron(mat, small):
    """Kronecker product of each matrix of the stack `mat` with `small`."""
    (n, m), (p, q) = mat.shape[-2:], small.shape
    return np.einsum("...ij,ab->...iajb", mat, small).reshape(mat.shape[:-2] + (n * p, m * q))


def _group_blocks(mesh: msh.PolyMesh, grp: CellGroup, layout: DofLayout,
                  material, config: StabilizationConfig) -> LocalBlocks:
    """Local blocks of a group of cells sharing vertex count and material.

    `grp` carries the fan rule of degree 2(k'+1); the cells' faces and their
    orientations come from the mesh's edge table, with Gauss rules of the
    same degree.
    """
    k, kp = layout.k, layout.k_prime
    phi_p = grp.basis(kp)
    gphi_p = grp.basis(kp, grad=True)
    phi_d = grp.basis(k)
    mass_p = grp.gram(phi_p, phi_p)
    mass_d = grp.gram(phi_d, phi_d)
    vol_x = grp.gram(phi_d, gphi_p[..., 0])              # (g, dual, primal)
    vol_y = grp.gram(phi_d, gphi_p[..., 1])

    edges = mesh.cell_edges(grp.cells)
    face_ids, orient = mesh.edge_face[edges], mesh.edge_orient[edges]   # (g, n_v)
    rule = face_rule(mesh, face_ids, 2 * (kp + 1))                      # (g, n_v, n_qf)
    g, n_v, n_qf = rule.weights.shape
    psi = rule.basis(k)
    face_pts = rule.points.reshape(g, n_v * n_qf, 2)
    tphi_p = grp.basis(kp, face_pts).reshape(g, n_v, n_qf, -1)
    tphi_d = grp.basis(k, face_pts).reshape(g, n_v, n_qf, -1)
    nrm = (mesh.face_normal[face_ids] * orient[..., None])[..., None, None, :]
    cross_pd = rule.gram(tphi_d, tphi_p)                 # (g, n_v, dual, primal)
    tr_x = (cross_pd * nrm[..., 0]).sum(axis=1)
    tr_y = (cross_pd * nrm[..., 1]).sum(axis=1)
    mass_f = rule.gram(psi, psi)                         # (g, n_v, face, face)
    b_f = rule.gram(psi, tphi_p)                         # (g, n_v, face, primal)
    dual_face = rule.gram(tphi_d, psi)                   # (g, n_v, dual, face)
    mixed = config.order_mode == "mixed"
    if mixed:                                            # Lehrenfeld-Schoberl
        s_tt = np.swapaxes(b_f, -1, -2) @ np.linalg.solve(mass_f, b_f)
    else:
        s_tt = rule.gram(tphi_p, tphi_p)

    h_tilde = mesh.cell_diameter[grp.cells] / mesh.length_scale
    alpha = 1 if mixed else 0                            # weight scale h~^-alpha
    is_fluid = isinstance(material, FluidMaterial)
    if is_fluid:
        tau = config.eta_fluid / (material.rho * material.c_p) * h_tilde ** (-alpha)
        mass_dual = material.rho * _kron(mass_d, _I2)
        mass_primal = mass_p / material.kappa
        gradient, components = _interleave_vector, np.eye(1)
    else:
        tau = config.eta_solid * (material.rho * material.c_s) * h_tilde ** (-alpha)
        mass_dual = _kron(mass_d, material.compliance_weight())
        mass_primal = material.rho * _kron(mass_p, _I2)
        gradient, components = _symmetric_gradient, _I2
    tau_f = tau[:, None, None, None]
    grad_cell = gradient(vol_x - tr_x, vol_y - tr_y)
    stab_cell = _kron((tau_f * s_tt).sum(axis=1), components)
    grad_face = gradient(dual_face * nrm[..., 0], dual_face * nrm[..., 1])
    stab_face = -tau_f * _kron(np.swapaxes(b_f, -1, -2), components)
    stab_face_face = tau_f * _kron(mass_f, components)

    zeros = np.zeros_like(grad_cell)
    mass = np.block([[mass_dual, zeros], [np.swapaxes(zeros, -1, -2), mass_primal]])
    k_tt = np.block([[np.zeros_like(mass_dual), -grad_cell],
                     [np.swapaxes(grad_cell, -1, -2), stab_cell]])
    return LocalBlocks(is_fluid, mass, mass_dual, mass_primal, grad_cell, stab_cell, k_tt,
                       grad_face, stab_face, stab_face_face, tau, face_ids)


def build_cell_blocks(mesh: msh.PolyMesh, ci: int, layout: DofLayout,
                      material, config: StabilizationConfig) -> LocalBlocks:
    """Assemble the local mass, gradient and stabilization blocks of one cell."""
    grp = cell_group(mesh, [ci], 2 * (layout.k_prime + 1))
    blocks = _group_blocks(mesh, grp, layout, material, config)
    return LocalBlocks(blocks.is_fluid, *(getattr(blocks, f.name)[0]
                                          for f in dataclasses.fields(LocalBlocks)[1:]))


def coupling_block(mesh: msh.PolyMesh, fi, k: int) -> np.ndarray:
    """Interface flux block: fluid trace rows vs solid trace columns.

    Entry (i, 2j+a) is the face mass of modes (i, j) times component a of the
    interface normal, realizing the pairing of the solid normal velocity with
    the fluid pressure test trace. Returns the (fd, 2 fd) blocks of the face
    ids `fi`, stacked.
    """
    ids = np.atleast_1d(fi)
    wrong = ids[mesh.face_class[ids] != msh.F_INTERFACE]
    if len(wrong):
        raise ConfigError(f"face {wrong[0]} is not an interface face")
    rule = face_rule(mesh, ids, 2 * k)
    psi = rule.basis(k)
    mass_f = rule.gram(psi, psi)
    return (mass_f[..., None] * mesh.face_normal[ids][:, None, None, :]).reshape(
        len(ids), mass_f.shape[1], -1)


# ---------------------------------------------------------------------------
# global assembly

ROUNDOFF_FLOOR = 16 * np.finfo(float).eps
"""Relative floor below which `_block_entries` drops an entry of a dense
block: about 3.6e-15 of the largest magnitude in the entry's row or column
of that block, whichever is larger.

Moments that vanish exactly on a symmetric cell (odd monomials against even
ones, a normal component along a face parallel to an axis) come out of the
quadrature as round-off of a few ulps of the scale of the terms summed, and
every member of a congruence class inherits them from its representative.
Stored, they are work without effect: on cartesian L4 they are 92,608 of the
177,696 entries of the explicit operator L, each at most 2.7e-16 of its
row's largest entry.

The scale is an entry's row and column, not its whole block, because one
block holds unknowns whose scales differ by orders of magnitude under SI
materials: a granite cell's mass block pairs the stress mass (compliance
about 1e-11) with the velocity mass (density 2,690), and an interface face
block pairs the fluid and solid impedances (6.5e-7 and 8.1e6). Such parts
meet in a row or column only where a coupling links them: the gradient
reconstruction beside the stabilization, whose smallest entries measure
2.6e-12 of the larger scale for granite and water at k=3 on L2 meshes,
three decades above the floor. A row alone gives no more room, since each
coupling entry also sits in a primal row beside the stabilization, and it
keeps too much: the gradient reconstruction cancels cell and face terms of
its columns' scale, and leaves the rows of K_TT of divergence-free dual
modes with round-off entries only.
"""


class BlockDiagonal:
    """Square block-diagonal matrix of order n with its dense blocks stacked by size.

    `stacks` maps a block size s to (starts, blocks): the first row of each
    block of that size (m,) and the blocks themselves (m, s, s).
    """

    def __init__(self, n: int, stacks: dict):
        self.n = n
        self.stacks = stacks

    def tocsr(self) -> sp.csr_matrix:
        """CSR of the blocks, each entry floored against the largest one of
        its row or column in its block (`_block_entries`)."""
        shape = (self.n, self.n)
        entries = []
        for starts, blocks in self.stacks.values():
            dofs = starts[:, None] + np.arange(blocks.shape[-1])
            entries.append(_block_entries(blocks, dofs, dofs, shape))
        return _csr(entries, shape)

    def inverse(self, what: str) -> BlockDiagonal:
        """Block-by-block inverse, one batched inversion per block size.

        Raises SolverError naming the offset of a singular `what` block.
        """
        return BlockDiagonal(self.n, {size: (starts, inverse_stack(blocks, starts, what))
                                      for size, (starts, blocks) in self.stacks.items()})


# ---------------------------------------------------------------------------
# congruence classes

GEMM_BREAK_EVEN = ((12, 36), (21, 21), (40, 16), (60, 5))
"""(cell block size n, members) pairs: the smallest class whose members one
GEMM applies, at the measured block sizes; the cells of smaller classes go
through one stacked `matmul` per block shape.

Measured inside `CellClasses.apply`, with its per-segment work and
contiguous blocks: a class as its own segment beside a stacked segment of
20 cells, against all its cells in that stacked segment, for the n x n mass
pass and the stage pass, on one BLAS thread (`BENCH_28.json`,
`gemm_break_even`). A pair is where both passes put it within their spread
over repeated series; near it the two kernels differ by a few us.
"""


def gemm_min_members(n: int) -> int:
    """The smallest class of n x n cell blocks that one GEMM applies: the
    break-even of `GEMM_BREAK_EVEN`, interpolated linearly in n and held at
    its end values outside the measured sizes."""
    sizes, members = zip(*GEMM_BREAK_EVEN)
    return math.ceil(np.interp(n, sizes, members))


def congruence_classes(mesh: msh.PolyMesh) -> np.ndarray:
    """Congruence class of every cell, numbered from 0: (n_cells,) int64.

    Cells of one class have the same local blocks: the basis, the
    quadrature, the face bases and the stabilization weight of a cell depend
    on its region and subdomain, its vertex count, the orientation signs of
    its faces and its shape, and on nothing else. The first three are
    compared exactly. The shape is the position of every vertex minus the
    cell's first vertex, in local order, and two cells share it when every
    coordinate agrees within the mesh's `coincidence_tol`, the distance
    below which the mesh merges two vertices.
    Each coordinate is clustered on its own by `mesh.coordinate_clusters`,
    the rule that also merges the mesh's vertices: over the cells of one
    vertex count, its values are sorted and a new cluster starts at every
    gap wider than that tolerance (1-D single linkage). Without bin edges,
    copies of one shape that differ only in round-off, at any scale and
    translation of the mesh, share a class.
    """
    split = 2 * mesh.region + mesh.subdomain
    tol = mesh.coincidence_tol
    class_of = np.empty(mesh.n_cells, dtype=np.int64)
    n_classes = 0
    for cells, loops, _, orient in mesh.loops_by_size():
        pts = mesh.vertices[loops]
        shape = (pts[:, 1:] - pts[:, :1]).reshape(len(cells), -1)
        cluster = msh.coordinate_clusters(shape, tol)
        key = np.column_stack([split[cells], orient, cluster])
        _, inverse = np.unique(key, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)      # its shape varies across numpy versions
        class_of[cells] = n_classes + inverse
        n_classes += int(inverse.max()) + 1
    return class_of


@dataclass
class ClassSegment:
    """A run of cells in class order that one kernel applies an operator to.

    A class segment holds the members of one class, and an operator one
    block for all of them, applied by one GEMM. A stacked segment holds the
    cells of the smaller classes of one block shape, and an operator one
    block per cell, applied by one stacked `matmul`.
    """

    shape: tuple             # (subdomain, vertex count): the key of the class stacks
    stacked: bool
    cells: np.ndarray        # (m,) cell ids, ascending
    rows: np.ndarray         # rows of the shape's class stacks: (1,), or (m,) if stacked
    dofs: slice              # the cells' dofs in class order
    faces: slice             # the cells' entries of `CellClasses.face_index`


@dataclass
class ClassRule:
    """The fan rules of a chunk of cells of one block shape, stacked per class
    (`CellClasses.rules`): a member shares its class's weights and basis values,
    and only `sample` sees its own points, its class's shifted to its centroid."""

    subdomain: int
    cells: np.ndarray        # (m,) cell ids, ascending
    member: np.ndarray       # (m,) each cell's class, a row of the stacks below
    reps: np.ndarray         # (u,) the classes' representative cells
    points: np.ndarray       # (u, n_q, 2) relative to the representative's centroid
    weights: np.ndarray      # (u, n_q)
    halves: np.ndarray       # (u,) basis scales, half the representative's diameter
    centers: np.ndarray      # (m, 2) the cells' centroids

    def basis(self, degree: int) -> np.ndarray:
        """Cell monomials of `degree` at each class's points: (u, n_q, dim)."""
        return cell_monomials(self.points, np.zeros(2), self.halves, degree)

    def sample(self, fn) -> np.ndarray:
        """`fn` evaluated once on every cell's points: (m, n_q, n_components)."""
        pts = self.centers[:, None, :] + self.points[self.member]
        return np.asarray(fn(pts.reshape(-1, 2)), dtype=float).reshape(*pts.shape[:-1], -1)

    def moments(self, test, values) -> np.ndarray:
        """Integrals of class functions `test` (u, n_q, dim) against `values` (m, n_q, c)."""
        return np.swapaxes(self.weights[..., None] * test, 1, 2)[self.member] @ values


def _shape_groups(mesh: msh.PolyMesh):
    """The cells of each block shape (subdomain, vertex count): yields
    (shape, cells, faces), `cells` ascending and `faces` (m, n_v) their face
    ids in traversal order."""
    for cells, _, faces, _ in mesh.loops_by_size():
        for sub in (msh.FLUID, msh.SOLID):
            mine = mesh.subdomain[cells] == sub
            if mine.any():
                yield (sub, faces.shape[1]), cells[mine], faces[mine]


class CellClasses:
    """The cell-local operators, stored once per congruence class
    (`congruence_classes`).

    `blocks[shape]` stacks, for the classes of one block shape (subdomain,
    vertex count), one representative cell's local blocks from
    `_group_blocks`: its cell ("cells"), M ("mass"), K_TT ("k_tt"), K_TF
    ("k_tf", n x n_v n_side) and K_FT ("k_ft") over all its faces, the
    face-face stabilization of each of its faces ("k_ff", n_v x n_side x
    n_side), and its fan rule of degree 2(k'+1): points relative to its
    centroid ("points"), weights ("weights") and basis scale ("halves"),
    which `rules` lends to every member. `rows[c]` is the row of cell c's
    class in its shape's stacks. These are the only copy of M, K_TT, K_TF
    and K_FT (the system's `ClassOperator` views apply them, and `matrix`
    forms a CSR of one for the explicit path); `assemble` scatters the
    face-face blocks and the Dirichlet columns of K_TF to every member cell.
    `apply` is the one pass over the segments that applies blocks, those
    of the views and the implicit stage's alike. Cell vectors are applied
    in class order (`sort`, `unsort`), in which the dofs of every segment
    are one contiguous run, so a segment's cell vector is a reshaped view.
    `face_index` lists, cell by cell in class order, the face dof of every
    local face dof; those of a Dirichlet face point to the zero pad slot
    n_face_dofs. `n_dofs` maps a side of an operator, "cell" or "face", to
    its order.
    """

    def __init__(self, layout: DofLayout, materials: MaterialMap,
                 config: StabilizationConfig):
        self.mesh = mesh = layout.mesh
        self.n_cell_dofs, self.n_face_dofs = layout.n_cell_dofs, layout.n_face_dofs
        self.n_dofs = {"cell": self.n_cell_dofs, "face": self.n_face_dofs}
        class_of = congruence_classes(mesh)
        _, reps, members = np.unique(class_of, return_index=True, return_counts=True)
        self.n_classes = len(reps)

        parts, row = {}, np.empty(self.n_classes, dtype=np.int64)
        for grp in cell_groups(mesh, 2 * (layout.k_prime + 1),
                               split=2 * mesh.region + mesh.subdomain, cells=np.sort(reps)):
            cells = grp.cells
            b = _group_blocks(mesh, grp, layout, materials.material(mesh, cells[0]), config)
            g, n = b.mass.shape[:2]
            part = parts.setdefault((int(mesh.subdomain[cells[0]]), b.face_ids.shape[1]), [])
            row[class_of[cells]] = sum(len(p[0]) for p in part) + np.arange(g)
            part.append((cells, b.mass, b.k_tt, np.swapaxes(b.k_tf(), 1, 2).reshape(g, n, -1),
                         b.k_ft().reshape(g, -1, n), b.stab_face_face,
                         grp.points - grp.centers[:, None], grp.weights, grp.halves))
        self.blocks = {shape: dict(zip(("cells", "mass", "k_tt", "k_tf", "k_ft", "k_ff",
                                        "points", "weights", "halves"),
                                       map(np.concatenate, zip(*part))))
                       for shape, part in parts.items()}
        self.rows = row[class_of]

        self.segments, order, face_index = [], [], []
        lo = flo = 0
        for shape, cells, faces in _shape_groups(mesh):
            n = self.blocks[shape]["mass"].shape[-1]
            cls = class_of[cells]
            big = members[cls] >= gemm_min_members(n)
            runs = [(False, cls == c) for c in np.unique(cls[big])]
            runs.append((True, ~big))
            for stacked, run in runs:
                if not run.any():
                    continue
                seg_cells = cells[run]
                dofs = layout.cell_offset[seg_cells][:, None] + np.arange(n)
                fdofs, _ = _local_face_dofs(layout, faces[run], shape[0])
                self.segments.append(ClassSegment(
                    shape, stacked, seg_cells, self.rows[seg_cells if stacked else seg_cells[:1]],
                    slice(lo, lo + dofs.size), slice(flo, flo + fdofs.size)))
                lo, flo = lo + dofs.size, flo + fdofs.size
                order.append(dofs.ravel())
                face_index.append(fdofs.ravel())
        self.order = np.concatenate(order)
        self.inverse_order = np.empty_like(self.order)
        self.inverse_order[self.order] = np.arange(len(self.order))
        self.face_index = np.concatenate(face_index)

    def summary(self) -> dict:
        """Class count and the cells each kernel applies."""
        stacked = sum(len(seg.cells) for seg in self.segments if seg.stacked)
        return {"classes": self.n_classes,
                "gemm_cells": sum(len(seg.cells) for seg in self.segments) - stacked,
                "stacked_cells": stacked}

    def rules(self, subdomains=(msh.FLUID, msh.SOLID)):
        """The class rules of the cells of `subdomains`, one block shape at a
        time, in chunks of at most GROUP_CHUNK cells: yields `ClassRule`."""
        for shape, cells, _ in _shape_groups(self.mesh):
            blk = self.blocks[shape]
            for lo in range(0, len(cells) if shape[0] in subdomains else 0, GROUP_CHUNK):
                chunk = cells[lo:lo + GROUP_CHUNK]
                used, member = np.unique(self.rows[chunk], return_inverse=True)
                per_class = (blk[key][used] for key in ("cells", "points", "weights", "halves"))
                yield ClassRule(shape[0], chunk, member.reshape(-1), *per_class,
                                self.mesh.cell_centroid[chunk])

    def sort(self, v: np.ndarray) -> np.ndarray:
        """A cell vector in class order."""
        return v[self.order]

    def unsort(self, v: np.ndarray) -> np.ndarray:
        """A class-ordered cell vector in the layout's order."""
        return v[self.inverse_order]

    def stack(self, name: str) -> dict:
        """The class stacks {shape: (classes, r, c)} of the local operator `name`."""
        return {shape: blk[name] for shape, blk in self.blocks.items()}

    def segment_blocks(self, stacks: dict) -> list:
        """An operator's blocks for each segment, from its class stacks
        {shape: (classes, r, c)}, as `apply` applies them: a class
        segment's one block transposed, (c, r) and contiguous, so that its
        GEMM reads it row by row; a stacked segment's blocks (m, r, c) as
        they are. The rows r are a cell part, a face part, or a cell part
        stacked over a face part."""
        return [stacks[seg.shape][seg.rows] if seg.stacked
                else np.ascontiguousarray(stacks[seg.shape][seg.rows[0]].T)
                for seg in self.segments]

    def apply(self, blocks: list, x: np.ndarray, source: str = "cell",
              parts: tuple = ("cell", "face")) -> tuple:
        """An operator given by segment blocks (`segment_blocks`) whose rows
        are `parts`: the cell part C onto a cell's n cell dofs ("cell",), the
        face part F onto its L local face dofs ("face",), or both stacked,
        [C; F] ("cell", "face"). The source is a class-ordered cell vector
        (`source` "cell") or face values ("face"), padded with a zero at the
        pad slot n_face_dofs and gathered through `face_index`. This is the
        one pass over the segments that applies class blocks.
        Returns one vector per part: the cell part in class order, and the
        face part added onto the face dofs by one `bincount`.

        A class segment's GEMM writes each part in place, one product per
        part on the column range of its one transposed block; a stacked
        segment's matmul writes one part in place, or both into one
        (m, n + L) array that is copied out. The one-part case is a branch of
        its own, which keeps the per-segment Python work of these small
        products (about 35 us for M on `ricker`) at that of a dedicated loop.
        """
        if source == "face":
            x = x[self.face_index]
        out = [np.empty(self.n_cell_dofs if part == "cell" else len(self.face_index))
               for part in parts]
        for seg, b in zip(self.segments, blocks):
            m = len(seg.cells)
            xs = x[seg.dofs if source == "cell" else seg.faces].reshape(m, -1)
            if len(out) == 1:
                view = out[0][seg.dofs if parts[0] == "cell" else seg.faces].reshape(m, -1)
                if seg.stacked:
                    np.matmul(b, xs[:, :, None], out=view[:, :, None])
                else:
                    np.matmul(xs, b, out=view)
                continue
            cell_part, face_part = out[0][seg.dofs].reshape(m, -1), out[1][seg.faces].reshape(m, -1)
            n = cell_part.shape[1]
            if seg.stacked:
                prod = np.matmul(b, xs[:, :, None])[:, :, 0]
                cell_part[...], face_part[...] = prod[:, :n], prod[:, n:]
            else:
                np.matmul(xs, b[:, :n], out=cell_part)
                np.matmul(xs, b[:, n:], out=face_part)
        if parts[-1] == "face":
            out[-1] = np.bincount(self.face_index, weights=out[-1],
                                  minlength=self.n_face_dofs + 1)[:-1]
        return tuple(out)

    def dofs(self, seg: ClassSegment, side: str) -> np.ndarray:
        """A segment's dofs (m, L) on one side of an operator: its cells'
        "cell" dofs, or their local "face" dofs (n_face_dofs, the pad slot, for
        those of Dirichlet faces)."""
        m = len(seg.cells)
        if side == "cell":
            return self.order[seg.dofs].reshape(m, -1)
        return self.face_index[seg.faces].reshape(m, -1)

    def matrix(self, stacks: dict, sides: tuple) -> sp.csr_matrix:
        """An operator given per class by dense local blocks {shape: (classes,
        r, c)}, from its `sides[1]` dofs to its `sides[0]` dofs (`dofs`), as
        CSR: each segment's classes decide their kept entries once
        (`_block_entries`), placed at every member's dofs; pad slots drop out."""
        shape = tuple(self.n_dofs[side] for side in sides)
        entries = []
        for seg in self.segments:
            used, member_class = np.unique(seg.rows, return_inverse=True)
            entries.append(_block_entries(
                stacks[seg.shape][used], self.dofs(seg, sides[0]), self.dofs(seg, sides[1]),
                shape, np.broadcast_to(member_class.reshape(-1), len(seg.cells))))
        return _csr(entries, shape)

    def count_entries(self, stacks: dict, sides: tuple) -> int:
        """The entries `matrix(stacks, sides)` stores, counted without forming
        it: the kept entries (`_kept`) of every member's class block in rows
        and columns off the pad slots. No two of them share a position, since
        a cell's local dofs are distinct and no two cells share a cell dof."""
        kept = {shape: _kept(blocks) for shape, blocks in stacks.items()}
        count = 0
        for seg in self.segments:
            rows, cols = (self.dofs(seg, side) < self.n_dofs[side] for side in sides)
            count += int(np.count_nonzero(kept[seg.shape][seg.rows]
                                          & rows[:, :, None] & cols[:, None, :]))
        return count

    def face_matrix(self, stacks: dict, base: sp.spmatrix) -> sp.csr_matrix:
        """`base` plus a face-to-face operator given per class by dense local
        blocks {shape: (classes, L, L)} over the cell's local face dofs: every
        cell's block is placed at its face dofs, Dirichlet pad slots and exact
        zeros dropped, in one COO to CSR conversion. The triplets of a
        segment are its int32 face dofs broadcast against each other and its
        blocks, picked by one mask. The implicit stage's S is the face parts
        of its back blocks over the interface coupling of K_FF as `base`
        (`timestep.CondensedFactorization`).

        These blocks keep every nonzero entry (not floored), round-off ones
        included, because the floor costs the factorization more than it
        saves: applied here as well, it takes 27% of the entries of the
        ricker run's Schur complement (cartesian L5, k=1) and 4.4% of
        hexagonal L6's, and minimum-degree ordering of the thinner patterns
        leaves 39% and 35% more LU entries (619,024 -> 860,811 and
        22,937,226 -> 31,063,927).
        """
        n = self.n_face_dofs
        base = base.tocoo()
        entries = [(base.row, base.col, base.data)]
        for seg in self.segments:
            dofs = self.dofs(seg, "face").astype(np.int32)
            rows, cols = dofs[:, :, None], dofs[:, None, :]
            blocks = stacks[seg.shape][seg.rows]
            keep = (blocks != 0) & (rows < n) & (cols < n)
            entries.append(tuple(np.broadcast_to(a, keep.shape)[keep]
                                 for a in (rows, cols, blocks)))
        return _csr(entries, (n, n))


def _local_face_dofs(layout: DofLayout, faces, sub):
    """Face dofs and Dirichlet dofs of the local face dofs of cells of
    subdomain `sub` with faces `faces` (m, n_v): two (m, n_v n_side) arrays.

    The face dofs of a Dirichlet face are the pad slot n_face_dofs; the
    Dirichlet dofs of every other face the pad slot n_dirichlet_dofs.
    """
    mesh, fd = layout.mesh, layout.n_face_scalar
    cls = mesh.face_class[faces]
    dirichlet = ((cls == msh.F_BND_FLUID) | (cls == msh.F_BND_SOLID))[..., None]
    local = np.arange(fd if sub == msh.FLUID else 2 * fd)
    # the solid side of an interface face starts after the fluid trace
    start = layout.face_offset[faces] + np.where(
        (cls == msh.F_INTERFACE) & (sub == msh.SOLID), fd, 0)
    face_dofs = np.where(dirichlet, layout.n_face_dofs, start[..., None] + local)
    dirichlet_dofs = np.where(dirichlet, layout.dirichlet_offset[faces][..., None] + local,
                              layout.n_dirichlet_dofs)
    return face_dofs.reshape(len(faces), -1), dirichlet_dofs.reshape(len(faces), -1)


class ClassOperator:
    """A cell operator of a system, M, K_TT, K_TF or K_FT, as a view over the
    class store (`CellClasses`), whose one block per class is the only copy
    of it.

    `name` picks the operator's class stacks; M and K_TT map cell vectors to
    cell vectors, K_FT cell vectors to face vectors and K_TF face vectors to
    cell vectors (`SIDES`: rows, then columns). `@` applies the class blocks
    to a vector in the layout's order by the store's one pass
    (`CellClasses.apply`), with the row side as the one part, each
    segment's blocks (`blocks`) gathered on first use. `nnz` is
    the count of entries the operator's CSR stores, taken from the class
    blocks' kept entries and the members' non-Dirichlet face dofs without
    forming it. `tocsr()` forms that CSR, floored (`_block_entries`), on its
    first call and keeps it; only the explicit operator
    (`BlockSystem.explicit_op`) and the energy of an equal-order system call
    it. `BlockSystem.minv` forms its CSR from the inverted class blocks
    (`CellClasses.matrix`), not through a view.
    """

    SIDES = {"mass": ("cell", "cell"), "k_tt": ("cell", "cell"),
             "k_tf": ("cell", "face"), "k_ft": ("face", "cell")}

    def __init__(self, store: CellClasses, name: str):
        self.store = store
        self.name = name
        self.sides = self.SIDES[name]
        self.shape = tuple(store.n_dofs[side] for side in self.sides)
        self._csr = None

    @cached_property
    def blocks(self) -> list:
        """The operator's blocks for each segment of the store."""
        return self.store.segment_blocks(self.store.stack(self.name))

    @cached_property
    def nnz(self) -> int:
        return self.store.count_entries(self.store.stack(self.name), self.sides)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        store, (row, col) = self.store, self.sides
        x = np.append(x, 0.0) if col == "face" else store.sort(x)
        y, = store.apply(self.blocks, x, col, (row,))
        return y if row == "face" else store.unsort(y)

    def tocsr(self) -> sp.csr_matrix:
        if self._csr is None:
            self._csr = self.store.matrix(self.store.stack(self.name), self.sides)
        return self._csr


class BlockSystem:
    """Assembled semi-discrete system M dU/dt + K U = F in block form.

    Cell rows/columns use the DofLayout cell numbering, face rows/columns the
    face numbering. The cell operators are held once, as the class store
    `cell_classes` every cell's blocks come from: `mass`, `k_tt`, `k_tf` and
    `k_ft` are views over it (`ClassOperator`), which apply the class blocks
    and form no CSR unless asked for one. K_FF is block-diagonal per
    dof-carrying face: `kff_blocks` holds it as a BlockDiagonal stack and
    `k_ff` as CSR. `k_td` (CSR) maps known Dirichlet face values to cell
    equations (lifting of nonhomogeneous boundary data).

    `kff_inverse` (the CSR of K_FF^-1, a face operator) serves `face_values`,
    the face unknowns a cell state induces. The CSR `minv`, the explicit
    operator `explicit_op` and its `explicit_spectrum` serve the explicit
    path alone. Each of these is built on first use and kept; the face map
    P that L is formed from is not.
    """

    def __init__(self, layout, kff_blocks, k_td, materials, config, cell_classes):
        self.layout = layout
        self.mesh = layout.mesh
        self.cell_classes = cell_classes
        self.kff_blocks = kff_blocks
        self.mass, self.k_tt, self.k_tf, self.k_ft = (
            ClassOperator(cell_classes, name) for name in ("mass", "k_tt", "k_tf", "k_ft"))
        self.k_ff = kff_blocks.tocsr()
        self.k_td = k_td
        self.materials = materials
        self.config = config

    @property
    def n_cell_dofs(self):
        return self.layout.n_cell_dofs

    @property
    def n_face_dofs(self):
        return self.layout.n_face_dofs

    @cached_property
    def kff_inverse(self) -> sp.csr_matrix:
        """K_FF^-1 as CSR, from one batched inversion of its face blocks per
        block size; raises SolverError if a face block is singular."""
        return self.kff_blocks.inverse("face stiffness").tocsr()

    def face_values(self, u_t: np.ndarray) -> np.ndarray:
        """Face unknowns -K_FF^-1 K_FT u_t induced by the cell unknowns: the
        class blocks of K_FT, then K_FF^-1."""
        return -(self.kff_inverse @ (self.k_ft @ u_t))

    @cached_property
    def minv(self) -> sp.csr_matrix:
        """M^-1, inverted once per congruence class (`inverse_stack`) and
        scattered to the members."""
        store = self.cell_classes
        return store.matrix({
            shape: inverse_stack(blk["mass"], self.layout.cell_offset[blk["cells"]], "cell mass")
            for shape, blk in store.blocks.items()}, ("cell", "cell"))

    @cached_property
    def explicit_op(self) -> sp.csr_matrix:
        """L = M^-1 (K_TT + K_TF P): the unforced explicit system is u' = -L u,
        with the face map P = -K_FF^-1 K_FT formed as CSR for L and not kept."""
        face_op = -(self.kff_inverse @ self.k_ft.tocsr())
        return (self.minv @ (self.k_tt.tocsr() + self.k_tf.tocsr() @ face_op)).tocsr()

    @cached_property
    def explicit_spectrum(self) -> np.ndarray | None:
        """The 6 largest-magnitude eigenvalues of `explicit_op`, or None.

        ARPACK starts from a fixed vector, so the eigenvalues are
        deterministic. None when ARPACK does not converge or L is too small
        for it.
        """
        op = self.explicit_op
        n_eig = 6
        if op.shape[0] <= n_eig + 1:
            return None
        v0 = np.random.default_rng(0).standard_normal(op.shape[0])
        t0 = time.perf_counter()
        try:
            lam = spla.eigs(op, k=n_eig, which="LM", tol=1e-3, v0=v0,
                            return_eigenvectors=False)
        except spla.ArpackNoConvergence:
            log.info("ARPACK did not converge on L (%d cell dofs) in %.3f s",
                     op.shape[0], time.perf_counter() - t0)
            return None
        log.info("ARPACK: %d eigenvalues of L (%d cell dofs) in %.3f s, max |lambda| %.6g",
                 n_eig, op.shape[0], time.perf_counter() - t0, np.abs(lam).max())
        return lam

    def project_dirichlet(self, fluid_trace=None, solid_trace=None) -> np.ndarray:
        """L2-project boundary data onto the Dirichlet face index space.

        fluid_trace(points) -> scalar pressure values; solid_trace(points) ->
        (n, 2) velocity values. Missing callables mean homogeneous data.
        """
        layout = self.layout
        mesh = self.mesh
        out = np.zeros(layout.n_dirichlet_dofs)
        for fclass, trace in ((msh.F_BND_FLUID, fluid_trace), (msh.F_BND_SOLID, solid_trace)):
            faces = mesh.faces_of_class(fclass)
            if trace is None or not len(faces):
                continue
            rule = face_rule(mesh, faces, 2 * (layout.k + 2))
            psi = rule.basis(layout.k)
            coeff = np.linalg.solve(rule.gram(psi, psi), rule.gram(psi, rule.sample(trace)))
            coeff = coeff.reshape(len(faces), -1)       # component-interleaved
            out[layout.dirichlet_offset[faces][:, None] + np.arange(coeff.shape[1])] = coeff
        return out

    def dirichlet_lift(self, dirichlet_values: np.ndarray) -> np.ndarray:
        """Cell right-hand-side contribution of known Dirichlet face values."""
        if self.k_td is None or self.layout.n_dirichlet_dofs == 0:
            return np.zeros(self.n_cell_dofs)
        return -(self.k_td @ dirichlet_values)


def _kept(blocks):
    """Which entries of dense blocks (b, r, c) a CSR stores: x_ij with
    |x_ij| > ROUNDOFF_FLOOR * max(max_l |x_il|, max_l |x_lj|) within its
    block. The floor drops the blocks' exact zeros (the zero dual-dual and
    dual-primal blocks, the vector components no entry couples) and their
    round-off entries."""
    mag = np.abs(blocks)
    return mag > ROUNDOFF_FLOOR * np.maximum(mag.max(axis=2, keepdims=True),
                                             mag.max(axis=1, keepdims=True))


def _block_entries(blocks, rows, cols, shape, classes=None):
    """COO triplets, with int32 indices, of the entries of dense blocks that
    rise above a relative round-off floor (`_kept`).

    `blocks` (b, r, c) holds one block per class and `classes` (m,) the
    block of each member, `rows` (m, r) and `cols` (m, c) the members' row
    and column indices; without `classes` every block is its own member's.
    The kept positions are decided once per block and gathered to its
    members. Rows or columns at or past `shape` (the pad slots of Dirichlet
    faces) are dropped too, so no CSR built from the triplets stores any of
    these.
    """
    block, i, j = np.nonzero(_kept(blocks))
    values = blocks[block, i, j]
    if classes is None:
        classes = np.arange(len(blocks))
    count = np.bincount(block, minlength=len(blocks))
    first = np.cumsum(count) - count
    # member e takes its block's kept entries first[b] .. first[b] + count[b]
    per_member = count[classes]
    start = np.cumsum(per_member) - per_member
    pick = np.arange(per_member.sum()) + np.repeat(first[classes] - start, per_member)
    member = np.repeat(np.arange(len(classes)), per_member)
    r = np.take(rows.astype(np.int32), member * rows.shape[1] + i[pick])
    c = np.take(cols.astype(np.int32), member * cols.shape[1] + j[pick])
    inside = (r < shape[0]) & (c < shape[1])
    return r[inside], c[inside], values[pick[inside]]


def _csr(entries, shape):
    """CSR of COO triplets, duplicates summed and exact zeros dropped."""
    if not entries:
        return sp.csr_matrix(shape)
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    out = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    out.eliminate_zeros()
    return out


def assemble(mesh: msh.PolyMesh, materials: MaterialMap,
             config: StabilizationConfig, k: int) -> BlockSystem:
    """Assemble the global block system for degree k under `config`.

    Local blocks are formed once per congruence class (`CellClasses`), which
    holds the cell operators; the face-face blocks and the Dirichlet columns
    of K_TF are scattered to every member cell through its own dofs, one
    block shape (subdomain, vertex count) at a time.
    """
    layout = DofLayout(mesh, k, config.order_mode)
    store = CellClasses(layout, materials, config)
    n_t, n_f, n_d = layout.n_cell_dofs, layout.n_face_dofs, layout.n_dirichlet_dofs
    fd = layout.n_face_scalar
    k_td = []

    # face-face blocks, each stored row-major in one flat buffer; interface
    # blocks hold the fluid trace (fd) before the solid trace (2 fd)
    sizes = layout.face_size
    kff_start = np.concatenate([[0], np.cumsum(sizes ** 2)])
    kff_index, kff_values = [], []

    for shape, cells, faces in _shape_groups(mesh):
        blk, rows = store.blocks[shape], store.rows[cells]
        cell_dofs = layout.cell_offset[cells][:, None] + np.arange(blk["mass"].shape[-1])
        face_dofs, dirichlet_dofs = _local_face_dofs(layout, faces, shape[0])
        bnd = np.any(dirichlet_dofs < n_d, axis=1)
        k_td.append(_block_entries(blk["k_tf"], cell_dofs[bnd], dirichlet_dofs[bnd],
                                   (n_t, n_d), rows[bnd]))
        # each local face's block sits at that face's rows and columns of the
        # cell's side within its face block
        m, n_v = faces.shape
        side = face_dofs.reshape(m, n_v, -1) - layout.face_offset[faces][..., None]
        index = (kff_start[faces][..., None, None] + side[..., :, None]
                 * sizes[faces][..., None, None] + side[..., None, :])
        inner = face_dofs.reshape(m, n_v, -1)[..., 0] < n_f
        kff_index.append(index[inner])
        kff_values.append(blk["k_ff"][rows][inner])

    gamma = mesh.interface_faces
    if len(gamma):
        c = coupling_block(mesh, gamma, k)
        fluid, solid = np.arange(fd), fd + np.arange(2 * fd)
        start = kff_start[gamma][:, None, None]
        kff_index += [start + fluid[:, None] * 3 * fd + solid,
                      start + solid[:, None] * 3 * fd + fluid]
        kff_values += [c, -np.swapaxes(c, -1, -2)]
    kff = np.bincount(np.concatenate([i.ravel() for i in kff_index]),
                      weights=np.concatenate([v.ravel() for v in kff_values]),
                      minlength=kff_start[-1])
    face_sets = {int(s): np.nonzero(sizes == s)[0] for s in np.unique(sizes[sizes > 0])}
    kff_stacks = {s: (layout.face_offset[f], kff[kff_start[f][:, None] + np.arange(s * s)]
                      .reshape(-1, s, s)) for s, f in face_sets.items()}
    return BlockSystem(
        layout=layout,
        kff_blocks=BlockDiagonal(n_f, kff_stacks),
        k_td=_csr(k_td, (n_t, n_d)) if n_d else None,
        materials=materials,
        config=config,
        cell_classes=store,
    )


# ---------------------------------------------------------------------------
# load vectors and projections

def load_moments(system: BlockSystem, fluid_fn=None, solid_fn=None) -> np.ndarray:
    """Cell right-hand-side moments of source densities against primal test bases.

    fluid_fn(points) -> scalar values; solid_fn(points) -> (n, 2) values.
    Face entries are identically zero by construction and not represented.
    The class rules (`CellClasses.rules`) of a subdomain with a source serve.
    """
    layout = system.layout
    out = np.zeros(layout.n_cell_dofs)
    fns = {sub: fn for sub, fn in ((msh.FLUID, fluid_fn), (msh.SOLID, solid_fn))
           if fn is not None}
    for rule in system.cell_classes.rules(fns):
        moments = rule.moments(rule.basis(layout.k_prime), rule.sample(fns[rule.subdomain]))
        out[layout.cell_dofs(rule.cells, "primal")] = moments.reshape(len(rule.cells), -1)
    return out


def project_state(system: BlockSystem, fields) -> np.ndarray:
    """L2-project initial fields onto the cell unknowns, on the class rules
    (`CellClasses.rules`): each class's Gram matrix is inverted once.
    `fields` provides callables over (n, 2) point arrays: pressure(pts),
    fluid_velocity(pts) -> (n, 2), solid_velocity(pts) -> (n, 2),
    stress(pts) -> (n, 3); any may be None for a zero field.
    """
    layout = system.layout
    out = np.zeros(layout.n_cell_dofs)
    for rule in system.cell_classes.rules():
        if rule.subdomain == msh.FLUID:
            primal, dual = fields.get("pressure"), fields.get("fluid_velocity")
        else:
            primal, dual = fields.get("solid_velocity"), fields.get("stress")
        for fn, part, degree in ((primal, "primal", layout.k_prime), (dual, "dual", layout.k)):
            if fn is None:
                continue
            phi = rule.basis(degree)
            inverse = inverse_stack(np.swapaxes(phi, 1, 2) @ (rule.weights[..., None] * phi),
                                    layout.cell_offset[rule.reps], "cell Gram")
            coeff = inverse[rule.member] @ rule.moments(phi, rule.sample(fn))
            out[layout.cell_dofs(rule.cells, part)] = coeff.reshape(len(rule.cells), -1)
    return out
