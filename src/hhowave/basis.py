"""Scaled monomial bases and quadrature on polygonal cells and segment faces.

Cell bases are 2-variate monomials centered at the cell barycenter and scaled
by half the cell diameter; face bases are 1-variate monomials in the arclength
coordinate centered at the face midpoint and scaled by half the face length.
Cell quadrature triangulates the polygon as a fan around the barycenter
(valid for cells star-shaped with respect to it) and applies a collapsed
Gauss-Legendre product rule on each triangle; face quadrature is plain
Gauss-Legendre.

This is the one module that builds rules on cells and faces. The rules and
the monomial evaluators work on stacked arrays with leading cell or face
axes: `cell_groups` yields the fan rule of mesh cells grouped by vertex
count, their loops gathered at once from the mesh's edge table, and
`face_rule` the Gauss rule of any array of mesh faces. Only the class store
`hho.CellClasses` builds cell rules, one per congruence class; every other
cell integral reads them (`hho.ClassRule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_EXACTNESS = 30


class QuadratureError(Exception):
    pass


# ---------------------------------------------------------------------------
# dimensions and exponents

def scalar_cell_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def scalar_face_dim(k: int) -> int:
    return k + 1


@lru_cache(maxsize=None)
def monomial_exponents(k: int) -> np.ndarray:
    """Exponent pairs (a, b) of the 2-variate monomials up to degree k.

    Graded lexicographic ordering: by total degree, then by decreasing a.
    """
    exps = [(d - j, j) for d in range(k + 1) for j in range(d + 1)]
    out = np.array(exps, dtype=np.int64)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# monomial evaluation

def _powers(x, degree: int) -> np.ndarray:
    """[1, x, x^2, ..., x^degree] along a new last axis, by repeated multiplication."""
    out = np.empty(x.shape + (degree + 1,))
    out[..., 0] = 1.0
    for p in range(1, degree + 1):
        np.multiply(out[..., p - 1], x, out=out[..., p])
    return out


def cell_monomials(points, center, half, degree: int, grad: bool = False):
    """Scaled cell monomials at `points` (..., n, 2) of cells with leading axes `...`.

    `center` is (..., 2) and `half` (...) the half diameters. Returns values
    (..., n, dim) or, with `grad`, gradients (..., n, dim, 2).
    """
    half = np.asarray(half, dtype=float)[..., None]
    local = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)[..., None, :]
    pow_x = _powers(local[..., 0] / half, degree)
    pow_y = _powers(local[..., 1] / half, degree)
    a, b = monomial_exponents(degree).T
    if not grad:
        return pow_x[..., a] * pow_y[..., b]
    # d/dx xi^a eta^b = (a/r) xi^(a-1) eta^b; the factor a zeroes the a=0 term
    half = half[..., None]
    gx = a * pow_x[..., np.maximum(a - 1, 0)] * pow_y[..., b] / half
    gy = b * pow_x[..., a] * pow_y[..., np.maximum(b - 1, 0)] / half
    return np.stack([gx, gy], axis=-1)


def face_monomials(points, midpoint, tangent, half, degree: int) -> np.ndarray:
    """Scaled face monomials at `points` (..., n, 2) of faces with leading axes `...`.

    `midpoint`, `tangent` are (..., 2) and `half` (...) the half lengths;
    returns (..., n, degree + 1).
    """
    d = np.asarray(points, dtype=float) - np.asarray(midpoint, dtype=float)[..., None, :]
    t = np.asarray(tangent, dtype=float)[..., None, :]
    s = (d[..., 0] * t[..., 0] + d[..., 1] * t[..., 1]) / np.asarray(half)[..., None]
    return _powers(s, degree)


# ---------------------------------------------------------------------------
# quadrature

@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _reference_triangle_rule(degree: int):
    """Positive-weight rule on the triangle (0,0)-(1,0)-(0,1), exact to `degree`.

    Collapsed (Duffy) Gauss-Legendre product rule: x = u(1-v), y = uv with
    Jacobian u. A monomial of total degree d pulls back to degree d+1 in u,
    so n points per direction with 2n-1 >= degree+1 suffice.
    """
    if degree > MAX_EXACTNESS:
        raise QuadratureError(f"exactness degree {degree} beyond implemented table")
    n = max(1, (degree + 2 + 1) // 2)
    xg, wg = _gauss_legendre(n)
    u = 0.5 * (xg + 1.0)
    wu = 0.5 * wg
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu * u, wu)
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), (uu * vv).ravel()])
    w = ww.ravel()
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def fan_quadrature(polygons, centers, areas, degree: int):
    """Fan rule on stacked polygons with the same vertex count.

    `polygons` is (g, n_v, 2) with counterclockwise vertices, `centers`
    (g, 2) the fan apexes and `areas` (g,) the polygon areas. Each polygon
    is split into the triangles (center, v_i, v_i+1), each carrying the
    collapsed Gauss rule exact to `degree`. Returns points (g, n_q, 2) and
    weights (g, n_q), triangle by triangle. Raises QuadratureError unless
    every polygon is star-shaped with respect to its center.
    """
    ref_pts, ref_w = _reference_triangle_rule(degree)
    p1 = np.asarray(polygons, dtype=float)
    c = np.asarray(centers, dtype=float)[:, None, :]
    e1 = p1 - c
    e2 = np.roll(p1, -1, axis=1) - c
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    if np.any(0.5 * det <= 1e-14 * np.abs(np.asarray(areas, dtype=float))[:, None]):
        raise QuadratureError("polygon not star-shaped with respect to its barycenter")
    pts = (c[:, :, None, :] + ref_pts[:, 0:1] * e1[:, :, None, :]
           + ref_pts[:, 1:2] * e2[:, :, None, :])
    w = ref_w * np.abs(det)[..., None]
    g = len(p1)
    return pts.reshape(g, -1, 2), w.reshape(g, -1)


@dataclass
class _Rule:
    """Stacked quadrature points and weights with leading axes `...`."""

    points: np.ndarray       # (..., n_q, 2)
    weights: np.ndarray      # (..., n_q)

    def sample(self, fn) -> np.ndarray:
        """`fn` evaluated once on all points: (..., n_q, n_components)."""
        vals = np.asarray(fn(self.points.reshape(-1, 2)), dtype=float)
        return vals.reshape(*self.points.shape[:-1], -1)

    def gram(self, left, right) -> np.ndarray:
        """Weighted products sum_q w_q left[q, i] right[q, j]: (..., n_i, n_j)."""
        return np.matmul(np.swapaxes(left, -1, -2), self.weights[..., None] * right)


@dataclass
class CellGroup(_Rule):
    """Stacked fan rule and basis data of cells with the same vertex count."""

    cells: np.ndarray        # (g,) cell ids, ascending
    centers: np.ndarray      # (g, 2) basis centers (cell barycenters)
    halves: np.ndarray       # (g,) basis scales (half cell diameters)

    def basis(self, degree: int, points=None, grad: bool = False) -> np.ndarray:
        """Cell monomials of `degree` at the quadrature points, or at `points` (g, n, 2)."""
        pts = self.points if points is None else points
        return cell_monomials(pts, self.centers, self.halves, degree, grad=grad)


GROUP_CHUNK = 1024   # cells per stacked group: bounds the temporaries' memory


def cell_group(mesh, cells, degree: int) -> CellGroup:
    """Fan rule exact to `degree` on `cells` of `mesh`, all with the same vertex count."""
    cells = np.asarray(cells)
    loops = mesh.edge_start[mesh.cell_edges(cells)]
    pts, w = fan_quadrature(mesh.vertices[loops], mesh.cell_centroid[cells],
                            mesh.cell_area[cells], degree)
    return CellGroup(pts, w, cells, mesh.cell_centroid[cells], 0.5 * mesh.cell_diameter[cells])


def cell_groups(mesh, degree: int, split=None, cells=None):
    """Fan rule exact to `degree` on every cell of `mesh`, grouped for stacking.

    Cells are grouped by vertex count and, when given, by the per-cell key
    `split`; groups are cut into chunks of at most GROUP_CHUNK cells. Yields
    CellGroup records built on the mesh barycenters and diameters. With
    `cells` (ascending ids) only those cells are grouped. Raises
    QuadratureError on a cell that is not star-shaped about its barycenter.
    """
    cells = np.arange(mesh.n_cells) if cells is None else np.asarray(cells)
    n_verts = np.diff(mesh.cell_offsets)[cells]
    key = n_verts if split is None else np.stack([n_verts, np.asarray(split)[cells]])
    _, group_of = np.unique(key, axis=-1, return_inverse=True)
    group_of = group_of.reshape(-1)    # its shape varies across numpy versions
    for gid in range(int(group_of.max(initial=-1)) + 1):
        members = cells[group_of == gid]
        for lo in range(0, len(members), GROUP_CHUNK):
            yield cell_group(mesh, members[lo:lo + GROUP_CHUNK], degree)


@dataclass
class FaceRule(_Rule):
    """Stacked Gauss rule and basis data of segments with leading axes `...`."""

    midpoints: np.ndarray    # (..., 2)
    tangents: np.ndarray     # (..., 2)
    halves: np.ndarray       # (...) half lengths

    def basis(self, degree: int) -> np.ndarray:
        """Face monomials of `degree` at the quadrature points: (..., n_q, degree + 1)."""
        return face_monomials(self.points, self.midpoints, self.tangents, self.halves,
                              degree)


def face_quadrature(v0, v1, degree: int) -> FaceRule:
    """Gauss-Legendre rule exact to `degree` on the segments [v0, v1] (..., 2)."""
    if degree > 2 * MAX_EXACTNESS:
        raise QuadratureError(f"exactness degree {degree} beyond implemented table")
    n = max(1, (degree + 1 + 1) // 2)
    xg, wg = _gauss_legendre(n)
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    mid = 0.5 * (v0 + v1)
    delta = v1 - v0
    length = np.hypot(delta[..., 0], delta[..., 1])
    pts = mid[..., None, :] + xg[:, None] * (0.5 * delta)[..., None, :]
    return FaceRule(pts, wg * 0.5 * length[..., None], mid, delta / length[..., None],
                    0.5 * length)


def face_rule(mesh, faces, degree: int) -> FaceRule:
    """Gauss rule exact to `degree` on mesh faces of any index shape, in owner direction."""
    ends = mesh.vertices[mesh.faces[faces]]
    return face_quadrature(ends[..., 0, :], ends[..., 1, :], degree)


# ---------------------------------------------------------------------------
# polygon geometry helpers

def polygon_area(vertices):
    """Signed area of polygons with vertices (..., n, 2): positive if counterclockwise."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def polygon_centroid(vertices) -> np.ndarray:
    """Area centroids (..., 2) of polygons with vertices (..., n, 2)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return np.stack([cx, cy], axis=-1)


def polygon_diameter(vertices):
    """Largest vertex distance of polygons with vertices (..., n, 2).

    The offsets o = 1..n//2 pair every vertex with the one o places before
    it, which reaches every pair of vertices, so the largest squared distance
    per offset bounds the temporaries to (..., n, 2) instead of the
    (..., n, n, 2) pair tensor. A pair's difference only changes sign with
    its order, so the result is the all-pairs maximum bit for bit.
    """
    v = np.asarray(vertices, dtype=float)
    widest = np.zeros(v.shape[:-2])
    for o in range(1, v.shape[-2] // 2 + 1):
        diff = v - np.roll(v, o, axis=-2)
        np.maximum(widest, (diff ** 2).sum(-1).max(axis=-1), out=widest)
    return np.sqrt(widest)
