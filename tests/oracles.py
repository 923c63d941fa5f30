"""Reference code that only the tests use.

The package integrates and projects through the stacked rules of
`hhowave.basis` (`cell_groups`, `face_rule`); the one-polygon and one-segment
quadrature and L2 projections below are the per-cell forms the tests check
those against, and the gradients of one cell's monomials feed the checks of
the gradient reconstruction. The Hooke law, its inverse and the exact
manufactured fields at a time t feed the finite-difference checks of the
manufactured case. A mesh holds its cells as one edge table; `cell_rows`
reads one cell's rows of it, and `point_in_polygon` is the one-cell test
that `PolyMesh.locate_cell` applies to all cells at once.
"""

import math

import numpy as np

from hhowave.basis import (cell_monomials, face_quadrature, fan_quadrature, polygon_area,
                           polygon_centroid)
from hhowave.scenarios import (MANUFACTURED_OMEGA, MANUFACTURED_THETA, ManufacturedCase,
                               manufactured_initial_state)


def cell_rows(mesh, ci):
    """The rows of cell `ci` in the edge table of `mesh`, in traversal order."""
    return slice(mesh.cell_offsets[ci], mesh.cell_offsets[ci + 1])


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
