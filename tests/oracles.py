"""Reference code that only the tests use.

The package integrates through the stacked rules of `hhowave.basis`, the
cell rules built once per congruence class (`hhowave.hho.ClassRule`);
`CellBasis` and `FaceBasis` evaluate the monomials of one cell or face, and
the one-polygon and one-segment quadrature and L2 projections below are the
per-cell forms the tests check those against. `load_moments`,
`project_state`, `l2_error_dual` and `cell_average_rows` are the package's
cell integrals on a fan rule built for every cell (`cell_groups`). The
gradients of one cell's monomials feed the checks of the gradient
reconstruction. The Hooke law, its inverse and the exact
manufactured fields at a time t feed the finite-difference checks of the
manufactured case. A mesh holds its cells as one edge table; `cell_rows`
reads one cell's rows of it, and `point_in_polygon` is the one-cell test
that `PolyMesh.locate_cell` applies to all cells at once;
`chebyshev_clusters` compares every pair of vertices, where the vertex merge
sorts coordinates. The implicit stepper holds fused class blocks and no
Schur matrix; `condensed_stacks` and `schur_matrix` rebuild the class
inverses and S from the class store for the tests to compose and multiply,
S by the COO build (`coo_face_matrix`) that the pattern-first
`CellClasses.face_matrix` replaced.
The steppers scale a load's mapped term vectors; `load_at` sums the load
itself for the dense reference steppers. Assembly sums K_FF's face blocks
per face; `flat_kff_stacks` sums them through one flat index per entry, and
`face_sign` (J) marks the side of every face dof, from which the tests pick
the interface coupling out of K_FF and S. `polygon_diameter_pairs` takes a
cell's diameter over all vertex pairs.
"""

import math

import numpy as np

import hhowave.mesh as msh
from hhowave import hho
from hhowave.basis import (cell_groups, cell_monomials, face_monomials, face_quadrature,
                           fan_quadrature, monomial_exponents, polygon_area, polygon_centroid,
                           scalar_cell_dim)
from hhowave.scenarios import (MANUFACTURED_OMEGA, MANUFACTURED_THETA, ManufacturedCase,
                               manufactured_initial_state)


class CellBasis:
    """Scaled monomial basis of P^k on a 2D cell.

    Basis function i is ((x - xc)/r)^a ((y - yc)/r)^b with r = h_T/2 and
    (a, b) running over `monomial_exponents(k)`.
    """

    def __init__(self, center, diameter: float, degree: int):
        self.center = np.asarray(center, dtype=float)
        self.half = 0.5 * float(diameter)
        self.degree = int(degree)
        self.exponents = monomial_exponents(self.degree)
        self.dim = len(self.exponents)

    def eval(self, points) -> np.ndarray:
        """Values at `points` (n, 2); returns (n, dim)."""
        return cell_monomials(np.atleast_2d(points), self.center, self.half, self.degree)


class FaceBasis:
    """Scaled monomial basis of P^k on a straight face (segment).

    Basis function i is ((x - x_F) . t_F / (|F|/2))^i with t_F the unit
    tangent and x_F the midpoint.
    """

    def __init__(self, v0, v1, degree: int):
        self.v0 = np.asarray(v0, dtype=float)
        self.v1 = np.asarray(v1, dtype=float)
        delta = self.v1 - self.v0
        self.length = float(np.hypot(*delta))
        if self.length <= 0.0:
            raise ValueError("degenerate face")
        self.midpoint = 0.5 * (self.v0 + self.v1)
        self.tangent = delta / self.length
        self.half = 0.5 * self.length
        self.degree = int(degree)
        self.dim = degree + 1

    def eval(self, points) -> np.ndarray:
        return face_monomials(np.atleast_2d(points), self.midpoint, self.tangent,
                              self.half, self.degree)


def load_moments(mesh, layout, fluid_fn=None, solid_fn=None):
    """`hho.load_moments` on a fan rule of every cell."""
    out = np.zeros(layout.n_cell_dofs)
    fns = {sub: fn for sub, fn in ((msh.FLUID, fluid_fn), (msh.SOLID, solid_fn))
           if fn is not None}
    cells = np.nonzero(np.isin(mesh.subdomain, list(fns)))[0]
    for grp in cell_groups(mesh, 2 * (layout.k_prime + 1), split=mesh.subdomain, cells=cells):
        fn = fns[mesh.subdomain[grp.cells[0]]]
        moments = grp.gram(grp.basis(layout.k_prime), grp.sample(fn))
        out[layout.cell_dofs(grp.cells, "primal")] = moments.reshape(len(grp.cells), -1)
    return out


def project_state(mesh, layout, fields):
    """`hho.project_state` on a fan rule of every cell, one Gram solve per cell."""
    out = np.zeros(layout.n_cell_dofs)
    for grp in cell_groups(mesh, 2 * (layout.k_prime + 1), split=mesh.subdomain):
        if mesh.subdomain[grp.cells[0]] == msh.FLUID:
            primal, dual = fields.get("pressure"), fields.get("fluid_velocity")
        else:
            primal, dual = fields.get("solid_velocity"), fields.get("stress")
        for fn, part, degree in ((primal, "primal", layout.k_prime), (dual, "dual", layout.k)):
            if fn is None:
                continue
            phi = grp.basis(degree)
            coeff = np.linalg.solve(grp.gram(phi, phi), grp.gram(phi, grp.sample(fn)))
            out[layout.cell_dofs(grp.cells, part)] = coeff.reshape(len(grp.cells), -1)
    return out


def l2_error_dual(u_t, system, case, t):
    """`scenarios.l2_error_dual` on a fan rule of every cell."""
    mesh = system.mesh
    layout = system.layout
    squares = {msh.FLUID: 0.0, msh.SOLID: 0.0}
    for grp in cell_groups(mesh, 2 * (layout.k_prime + 1), split=mesh.subdomain):
        sub = mesh.subdomain[grp.cells[0]]
        if sub == msh.FLUID:
            exact, weight = case.exact_fluid_velocity, np.ones(2)
        else:
            exact, weight = case.exact_stress, np.array([1.0, 1.0, 2.0])
        coeff = u_t[layout.cell_dofs(grp.cells, "dual")]
        coeff = coeff.reshape(len(grp.cells), -1, len(weight))
        diff = grp.basis(layout.k) @ coeff - grp.sample(lambda pts: exact(t, pts))
        squares[sub] += float(np.sum(grp.weights * (diff ** 2 @ weight)))
    return math.sqrt(squares[msh.FLUID]) + math.sqrt(squares[msh.SOLID])


def cell_average_rows(system):
    """`cli.cell_average_rows` on a fan rule of every cell, over the mesh's cell areas."""
    mesh = system.mesh
    k_prime = system.layout.k_prime
    rows = np.empty((mesh.n_cells, scalar_cell_dim(k_prime)))
    for grp in cell_groups(mesh, k_prime + 1):
        rows[grp.cells] = (np.einsum("gq,gqi->gi", grp.weights, grp.basis(k_prime))
                           / mesh.cell_area[grp.cells][:, None])
    return rows


def cell_rows(mesh, ci):
    """The rows of cell `ci` in the edge table of `mesh`, in traversal order."""
    return slice(mesh.cell_offsets[ci], mesh.cell_offsets[ci + 1])


def chebyshev_clusters(vertices, tol):
    """Reference for the vertex merge (`mesh._vertex_clusters`): every pair of
    vertices within `tol` in both coordinates is linked, and each connected
    component of the links is named by its lowest vertex id. O(n^2)."""
    v = np.asarray(vertices, dtype=float)
    linked = np.all(np.abs(v[:, None, :] - v[None, :, :]) <= tol, axis=2)
    label = np.full(len(v), -1)
    for root in range(len(v)):        # ascending, so a new root is its cluster's lowest id
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            reached = np.flatnonzero(linked[stack.pop()] & (label < 0))
            label[reached] = root
            stack += reached.tolist()
    return label


def point_in_polygon(p, poly, tol):
    """Boundary-inclusive point-in-polygon test (CCW polygon)."""
    n = len(poly)
    inside = True
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol * max(1.0, float(np.hypot(*(b - a)))):
            inside = False
            break
    return inside


def manufactured_state(system):
    """The manufactured case's initial state at its default frequency and angle."""
    case = ManufacturedCase(MANUFACTURED_OMEGA, MANUFACTURED_THETA, system.materials)
    return manufactured_initial_state(system, case)


def segment_quadrature(v0, v1, degree: int):
    """Gauss-Legendre quadrature on the segment [v0, v1], exact for `degree`."""
    rule = face_quadrature(v0, v1, degree)
    return rule.points, rule.weights


def polygon_quadrature(vertices, degree: int, center=None):
    """Quadrature on one polygon via barycentric fan triangulation.

    The polygon must be star-shaped with respect to `center` (defaults to the
    area centroid); raises QuadratureError otherwise.
    """
    verts = np.asarray(vertices, dtype=float)
    if center is None:
        center = polygon_centroid(verts)
    pts, w = fan_quadrature(verts[None], np.asarray(center, dtype=float)[None],
                            [polygon_area(verts)], degree)
    return pts[0], w[0]


def _project(fn, basis, pts, w):
    phi = basis.eval(pts)
    mass = phi.T @ (w[:, None] * phi)
    rhs = phi.T @ (w * np.asarray(fn(pts), dtype=float))
    return np.linalg.solve(mass, rhs)


def project_face(fn, face_basis, degree_hint=None) -> np.ndarray:
    """Coefficients of the L2(F)-orthogonal projection of `fn` onto the face basis.

    `fn` maps an (n, 2) array of points to (n,) values.
    """
    deg = 2 * face_basis.degree if degree_hint is None else face_basis.degree + degree_hint
    return _project(fn, face_basis, *segment_quadrature(face_basis.v0, face_basis.v1, deg))


def project_cell(fn, cell_basis, vertices, center=None, degree_hint=None) -> np.ndarray:
    """Coefficients of the L2(T)-orthogonal projection of `fn` onto the cell basis."""
    deg = 2 * cell_basis.degree if degree_hint is None else cell_basis.degree + degree_hint
    return _project(fn, cell_basis, *polygon_quadrature(vertices, deg, center=center))


def grad(cell_basis, points) -> np.ndarray:
    """Gradients of the monomials of a `CellBasis` at `points`; returns (n, dim, 2)."""
    return cell_monomials(np.atleast_2d(points), cell_basis.center, cell_basis.half,
                          cell_basis.degree, grad=True)


def hooke(solid, sym_grad) -> np.ndarray:
    """Stress components (xx, yy, xy) of a `SolidMaterial` from strain
    components (xx, yy, xy)."""
    e = np.asarray(sym_grad, dtype=float)
    tr = e[..., 0] + e[..., 1]
    out = np.empty_like(e)
    out[..., 0] = 2 * solid.mu * e[..., 0] + solid.lam * tr
    out[..., 1] = 2 * solid.mu * e[..., 1] + solid.lam * tr
    out[..., 2] = 2 * solid.mu * e[..., 2]
    return out


def hooke_inv(solid, stress) -> np.ndarray:
    """Strain components (xx, yy, xy) from stress components: the inverse of
    `hooke`."""
    s = np.asarray(stress, dtype=float)
    beta = 1.0 / (2 * solid.mu)
    gamma = solid.lam / (2 * solid.mu * (2 * solid.lam + 2 * solid.mu))
    tr = s[..., 0] + s[..., 1]
    out = np.empty_like(s)
    out[..., 0] = beta * s[..., 0] - gamma * tr
    out[..., 1] = beta * s[..., 1] - gamma * tr
    out[..., 2] = beta * s[..., 2]
    return out


def exact_pressure(case, t, pts):
    """The manufactured pressure p(t) at `pts`."""
    return case.pressure_profile(pts) * math.cos(case.theta * math.pi * t)


def exact_solid_velocity(case, t, pts):
    """The manufactured solid velocity v(t) at `pts`."""
    return case.solid_velocity_profile(pts) * math.sin(case.theta * math.pi * t)


def condensed_stacks(system, a_star, dt):
    """The class stacks {shape: {"a_inv", "g"}} of the condensed system:
    A^-1 of A = M + a* dt K_TT, inverted class by class, and G = A^-1 K_TF."""
    ad = a_star * dt
    out = {}
    for shape, blk in system.cell_classes.blocks.items():
        a_inv = np.linalg.inv(blk["mass"] + ad * blk["k_tt"])
        out[shape] = {"a_inv": a_inv, "g": a_inv @ blk["k_tf"]}
    return out


def coo_face_matrix(store, stacks, base):
    """`base` plus the face-to-face operator of the class blocks {shape:
    (classes, L, L)} over every cell's local face dofs, as CSR: the blocks'
    nonzero entries off the Dirichlet pad slots as int32 COO triplets, one
    mask per segment, in one COO to CSR conversion that sums duplicates and
    drops exact zeros. `CellClasses.face_matrix` writes the same matrix
    into the arrays of its pattern."""
    n = store.n_face_dofs
    base = base.tocoo()
    entries = [(base.row, base.col, base.data)]
    for seg in store.segments:
        dofs = store.dofs(seg, "face").astype(np.int32)
        rows, cols = dofs[:, :, None], dofs[:, None, :]
        blocks = stacks[seg.shape][seg.rows]
        keep = (blocks != 0) & (rows < n) & (cols < n)
        entries.append(tuple(np.broadcast_to(a, keep.shape)[keep]
                             for a in (rows, cols, blocks)))
    return hho._csr(entries, (n, n))


def schur_matrix(system, a_star, dt):
    """The face Schur complement S = a* dt (K_FF - a* dt K_FT G) as CSR,
    rebuilt from the class store by the COO build (`coo_face_matrix`), each
    class's K_FT,c G_c symmetrized as the factorization does."""
    ad = a_star * dt
    store = system.cell_classes
    stacks = condensed_stacks(system, a_star, dt)
    blocks = {}
    for shape, c in stacks.items():
        k_ft_g = store.blocks[shape]["k_ft"] @ c["g"]
        blocks[shape] = -ad * (0.5 * (k_ft_g + np.swapaxes(k_ft_g, 1, 2)))
    return (ad * coo_face_matrix(store, blocks, system.k_ff)).tocsr()


def load_at(forcing, t):
    """The load sum_j g_j(t) v_j of a `timestep.Forcing` at time t, term by
    term; None without a forcing."""
    if forcing is None:
        return None
    return sum(g(t) * v for g, v in zip(forcing.factors, forcing.vectors))


def polygon_diameter_pairs(vertices):
    """The diameter of each polygon (m, n, 2): the largest distance over all
    n^2 vertex pairs."""
    v = np.asarray(vertices, dtype=float)
    d = v[:, :, None, :] - v[:, None, :, :]
    return np.sqrt((d ** 2).sum(axis=-1)).max(axis=(1, 2))


def face_sign(layout):
    """J, the side of every face dof: -1 on the solid side (the dofs of solid
    faces and the solid trace of interface faces), +1 on the fluid side."""
    fclass = np.repeat(layout.mesh.face_class, layout.face_size)
    local = np.arange(layout.n_face_dofs) - np.repeat(layout.face_offset[:-1], layout.face_size)
    solid = (fclass == msh.F_INT_SOLID) | ((fclass == msh.F_INTERFACE)
                                          & (local >= layout.n_face_scalar))
    return np.where(solid, -1.0, 1.0)


def flat_kff_stacks(system):
    """K_FF's face-block stacks {size: (starts, blocks)}, summed through one
    flat index per entry: every block stored row-major in one buffer, the
    class `k_ff` blocks of every cell and the interface coupling blocks
    c and -c^T added by one `bincount`, then gathered back into stacks."""
    layout, mesh, store = system.layout, system.mesh, system.cell_classes
    fd, n_f, sizes = layout.n_face_scalar, layout.n_face_dofs, layout.face_size
    start = np.concatenate([[0], np.cumsum(sizes ** 2)])
    index, values = [], []
    for shape, cells, faces in hho._shape_groups(mesh):
        face_dofs, _ = hho._local_face_dofs(layout, faces, shape[0])
        m, n_v = faces.shape
        face_dofs = face_dofs.reshape(m, n_v, -1)
        side = face_dofs - layout.face_offset[faces][..., None]
        at = (start[faces][..., None, None] + side[..., :, None]
              * sizes[faces][..., None, None] + side[..., None, :])
        inner = face_dofs[..., 0] < n_f
        index.append(at[inner])
        values.append(store.blocks[shape]["k_ff"][store.rows[cells]][inner])
    gamma = mesh.interface_faces
    if len(gamma):
        c = hho.coupling_block(mesh, gamma, layout.k)
        fluid, solid = np.arange(fd), fd + np.arange(2 * fd)
        first = start[gamma][:, None, None]
        index += [first + fluid[:, None] * 3 * fd + solid, first + solid[:, None] * 3 * fd + fluid]
        values += [c, -np.swapaxes(c, -1, -2)]
    flat = np.bincount(np.concatenate([i.ravel() for i in index]),
                       weights=np.concatenate([v.ravel() for v in values]),
                       minlength=start[-1])
    return {int(s): (layout.face_offset[f], flat[start[f][:, None] + np.arange(s * s)]
                     .reshape(-1, s, s))
            for s in np.unique(sizes[sizes > 0]) for f in [np.nonzero(sizes == s)[0]]}
