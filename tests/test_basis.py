"""Bases, quadrature and projection tests."""

import numpy as np
import pytest

from hhowave import MeshGenSpec, generate, merge_nonconforming
from hhowave.basis import (QuadratureError, cell_groups, monomial_exponents, polygon_area,
                           polygon_centroid, polygon_diameter, scalar_cell_dim)

from oracles import (CellBasis, FaceBasis, cell_rows, grad, polygon_diameter_pairs,
                     polygon_quadrature, project_cell, project_face, segment_quadrature)


def greens_monomial_integral(vertices, a, b):
    """Independent polygon integral of x^a y^b via the divergence theorem.

    Integrates x^(a+1) y^b / (a+1) dy along each edge with a 1D Gauss rule,
    a path independent of the fan triangulation used by the quadrature.
    """
    verts = np.asarray(vertices, dtype=float)
    n = len(verts)
    deg = a + b + 1
    npts = deg // 2 + 1
    xg, wg = np.polynomial.legendre.leggauss(npts)
    total = 0.0
    for i in range(n):
        p0, p1 = verts[i], verts[(i + 1) % n]
        t = 0.5 * (xg + 1.0)
        wt = 0.5 * wg
        x = (1 - t) * p0[0] + t * p1[0]
        y = (1 - t) * p0[1] + t * p1[1]
        dy = p1[1] - p0[1]
        total += float(np.sum(wt * x ** (a + 1) * y**b)) * dy
    return total / (a + 1)


def random_star_polygon(rng, n_min=3, n_max=8, scale=1.0):
    """Random polygon star-shaped with respect to its own centroid."""
    while True:
        n = rng.integers(n_min, n_max + 1)
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        if np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.45:
            continue
        radii = rng.uniform(0.75, 1.0, n) * scale
        verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        verts = verts + rng.uniform(-2, 2, 2)
        c = polygon_centroid(verts)
        area = polygon_area(verts)
        ok = True
        for i in range(n):
            p1, p2 = verts[i], verts[(i + 1) % n]
            tri2 = (p1[0] - c[0]) * (p2[1] - c[1]) - (p1[1] - c[1]) * (p2[0] - c[0])
            if tri2 <= 0.02 * area:
                ok = False
                break
        if ok:
            return verts


# ---------------------------------------------------------------------------
# dimensions

def test_basis_dims():
    for k in range(5):
        assert scalar_cell_dim(k) == (k + 1) * (k + 2) // 2


def test_exponent_ordering():
    exps = monomial_exponents(2)
    assert [tuple(e) for e in exps] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# ---------------------------------------------------------------------------
# basis evaluation

def test_constant_mode():
    basis = CellBasis((0.3, -0.2), 1.7, 0)
    pts = np.array([[0.1, 0.4], [2.0, -3.0]])
    assert np.allclose(basis.eval(pts), 1.0)
    assert np.allclose(grad(basis, pts), 0.0)


def test_only_constant_survives_at_center():
    basis = CellBasis((0.5, 0.5), 1.0, 3)
    vals = basis.eval(np.array([[0.5, 0.5]]))[0]
    assert vals[0] == 1.0
    assert np.allclose(vals[1:], 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    basis = CellBasis((0.2, 0.7), 0.9, 3)
    pts = rng.uniform(-0.5, 0.5, (20, 2)) + np.array([0.2, 0.7])
    grads = grad(basis, pts)
    eps = 1e-6
    for c, e in ((0, np.array([eps, 0.0])), (1, np.array([0.0, eps]))):
        fd = (basis.eval(pts + e) - basis.eval(pts - e)) / (2 * eps)
        assert np.max(np.abs(fd - grads[:, :, c])) < 1e-6


# ---------------------------------------------------------------------------
# quadrature

def test_unit_square_measures():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    pts, w = polygon_quadrature(square, 2)
    assert np.all(w > 0)
    assert abs(np.sum(w) - 1.0) < 1e-14


def test_stacked_polygon_geometry_matches_single_calls():
    rng = np.random.default_rng(7)
    stack = np.array([random_star_polygon(rng, 5, 5) for _ in range(6)])
    for fn in (polygon_area, polygon_centroid, polygon_diameter):
        assert np.array_equal(fn(stack), [fn(poly) for poly in stack])
    assert isinstance(polygon_area(stack[0]), float)


@pytest.mark.parametrize("n", range(3, 9))
def test_polygon_diameter_equals_all_pairs_far_from_origin(n):
    # the offset pass takes the same largest pair distance, bit for bit, as
    # comparing every vertex pair, also where the coordinates dwarf the cells
    rng = np.random.default_rng(n)
    for shift, scale in (((0.0, 0.0), 1.0), ((5e5, 4.2e6), 10.0), ((-3e7, 2e6), 1e-3)):
        stack = np.array([random_star_polygon(rng, n, n, scale) for _ in range(40)]) + shift
        assert np.array_equal(polygon_diameter(stack), polygon_diameter_pairs(stack))


def test_square_x2y2():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    pts, w = polygon_quadrature(square, 4)
    val = float(np.sum(w * pts[:, 0] ** 2 * pts[:, 1] ** 2))
    assert abs(val - 1.0 / 9.0) < 1e-14


def test_segment_cubic_two_points():
    pts, w = segment_quadrature((0.0, 0.0), (1.0, 0.0), 3)
    assert len(w) == 2
    assert abs(float(np.sum(w * pts[:, 0] ** 3)) - 0.25) < 1e-14


def test_quadrature_exactness_random_polygons():
    rng = np.random.default_rng(7)
    for _ in range(100):
        poly = random_star_polygon(rng)
        deg = int(rng.integers(0, 7))
        a = int(rng.integers(0, deg + 1))
        b = deg - a
        pts, w = polygon_quadrature(poly, deg)
        got = float(np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b))
        ref = greens_monomial_integral(poly, a, b)
        scale = max(abs(ref), abs(polygon_area(poly)))
        assert abs(got - ref) < 1e-13 * scale
    # the grouped rule on hybrid meshes: 4-, 5- and 6-vertex hexagonal-family
    # cells, and a nonconforming fluid/solid merge with split solid cells
    hexagonal = generate(MeshGenSpec("polygonal-hexagonal", 2, fluid_rect=(0, 0, 1, 1),
                                     solid_rect=(-1, 0, 0, 1)))
    assert set(np.diff(hexagonal.cell_offsets).tolist()) == {4, 5, 6}
    nonconforming = merge_nonconforming(
        generate(MeshGenSpec("cartesian", 2, fluid_rect=(0, 0, 1, 1))),
        generate(MeshGenSpec("cartesian", 1, solid_rect=(0, -1, 1, 0))))
    for mesh in (hexagonal, nonconforming):
        for deg in range(7):
            seen = []
            for grp in cell_groups(mesh, deg):
                seen.extend(grp.cells)
                x, y = grp.points[..., 0], grp.points[..., 1]
                for a in range(deg + 1):
                    got = np.sum(grp.weights * x ** a * y ** (deg - a), axis=1)
                    for ci, val in zip(grp.cells, got):
                        poly = mesh.vertices[mesh.edge_start[cell_rows(mesh, ci)]]
                        ref = greens_monomial_integral(poly, a, deg - a)
                        scale = max(abs(ref), abs(polygon_area(poly)))
                        assert abs(val - ref) < 1e-13 * scale
            assert sorted(seen) == list(range(mesh.n_cells))


def test_non_star_shaped_rejected():
    # barycentric fan degenerates on this hook-shaped polygon
    hook = [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (0, 1)]
    with pytest.raises(QuadratureError):
        polygon_quadrature(hook, 2)


def test_excessive_degree_rejected():
    with pytest.raises(QuadratureError):
        polygon_quadrature([(0, 0), (1, 0), (0, 1)], 99)


# ---------------------------------------------------------------------------
# projections

def test_face_projection_roundtrip():
    fb = FaceBasis((0.0, 0.0), (2.0, 1.0), 3)
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(4)
    fn = lambda pts: fb.eval(pts) @ coeff
    out = project_face(fn, fb)
    assert np.max(np.abs(out - coeff)) < 1e-12


def test_face_projection_x2_onto_p1():
    # least-squares fit of x^2 on [0, 1] is x - 1/6
    fb = FaceBasis((0.0, 0.0), (1.0, 0.0), 1)
    out = project_face(lambda pts: pts[:, 0] ** 2, fb)
    xs = np.linspace(0, 1, 5)
    vals = fb.eval(np.column_stack([xs, np.zeros_like(xs)])) @ out
    assert np.max(np.abs(vals - (xs - 1.0 / 6.0))) < 1e-12


def test_projection_of_zero_and_idempotence():
    fb = FaceBasis((0.0, 0.0), (1.0, 2.0), 2)
    zero = project_face(lambda pts: np.zeros(len(pts)), fb)
    assert np.allclose(zero, 0.0)
    fn = lambda pts: np.sin(3 * pts[:, 0]) + pts[:, 1]
    once = project_face(fn, fb)
    twice = project_face(lambda pts: fb.eval(pts) @ once, fb)
    assert np.max(np.abs(once - twice)) < 1e-12


def test_cell_projection_roundtrip():
    rng = np.random.default_rng(11)
    poly = random_star_polygon(rng)
    centroid = polygon_centroid(poly)

    cb = CellBasis(centroid, polygon_diameter(poly), 2)
    coeff = rng.standard_normal(cb.dim)
    out = project_cell(lambda pts: cb.eval(pts) @ coeff, cb, poly, center=centroid)
    assert np.max(np.abs(out - coeff)) < 1e-11


def test_cell_mass_spd_on_random_polygons():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        for _ in range(10):
            poly = random_star_polygon(rng)
            centroid = polygon_centroid(poly)

            cb = CellBasis(centroid, polygon_diameter(poly), k)
            pts, w = polygon_quadrature(poly, 2 * k, center=centroid)
            phi = cb.eval(pts)
            mass = phi.T @ (w[:, None] * phi)
            np.linalg.cholesky(mass)  # raises if not SPD
