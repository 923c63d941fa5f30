"""Polygonal meshes for bilayer fluid/solid domains.

Cells are star-shaped polygons with straight faces, tagged fluid or solid;
the fluid-solid interface is the set of faces whose two neighbors carry
different tags. Hanging nodes are supported by treating the coarse neighbor
as a polygon with extra (collinear) vertices: construction detects unpaired
edges that pass through other mesh vertices and splits them, so nonconforming
inputs (merged submeshes, locally refined MSH files) need no special casing.

A mesh holds its cells once, as one flat table of directed edges: the edges
of cell c are the rows `cell_offsets[c]:cell_offsets[c + 1]`, in
counterclockwise traversal order, and edge i runs from vertex `edge_start[i]`
along face `edge_face[i]`, in the face's stored direction if `edge_orient[i]`
is 1 and against it if -1. Readers gather at the offsets (`cell_edges`) or
take the cells of one vertex count as stacked arrays (`loops_by_size`).
Construction builds the table once from the cell loops, and every step is
an array operation on it:
- vertex deduplication: vertices closer than `coincidence_tol` (COINCIDENCE_TOL
  times the bounding-box diagonal) in the Chebyshev (max-coordinate) distance form
  clusters, taken transitively; each cluster becomes its lowest-index vertex,
  merged vertices keep the order of those indices, and edges that collapse
  to one vertex leave the table. The clusters are found by sorting each
  coordinate (`coordinate_clusters`), the rule that also keys the congruence
  classes of the cells;
- orientation: one stacked signed area per vertex count, clockwise loops
  reversed;
- hanging nodes: unpaired edges (undirected key seen once) are searched for
  vertices lying on them;
- faces: one id per undirected key, numbered by first occurrence in the table.

Face conventions: the stored vertex pair follows the owner cell's
counterclockwise traversal, so the stored unit normal (tangent rotated by
-90 degrees) points out of the owner. Owners are chosen as the lower cell id,
except on interface faces where the solid cell is always the owner; the
stored normal there is the interface normal pointing from solid into fluid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .basis import polygon_area, polygon_centroid, polygon_diameter

FLUID = 0
SOLID = 1

# face classes
F_INT_FLUID = 0
F_INT_SOLID = 1
F_INTERFACE = 2
F_BND_FLUID = 3
F_BND_SOLID = 4

COINCIDENCE_TOL = 1e-12  # relative to the global length scale


def coincidence_tol(vertices) -> float:
    """The distance below which two of `vertices` (n, 2) coincide: COINCIDENCE_TOL times
    their bounding-box diagonal, at least 4 ulps of their largest absolute coordinate."""
    scale = float(np.hypot(*np.ptp(vertices, axis=0))) or 1.0
    return max(COINCIDENCE_TOL * scale, 4 * float(np.spacing(np.abs(vertices).max())))


def coordinate_clusters(values, tol) -> np.ndarray:
    """1-D single linkage of every column of `values` (n, m): (n, m) int64.

    A column's values are sorted, and a new cluster starts at every gap wider
    than `tol`, so two values within `tol` of each other always share their
    cluster, at any scale and translation. Clusters are numbered from 0 in
    ascending order of value, per column. This is the one coincidence rule:
    the vertex merge (`_vertex_clusters`) and the congruence classes of the
    cells (`hho.congruence_classes`) both cluster coordinates with it.
    """
    order = np.argsort(values, axis=0, kind="stable")
    gaps = np.diff(np.take_along_axis(values, order, axis=0), axis=0) > tol
    ranked = np.zeros(values.shape, dtype=np.int64)     # cluster ids in sorted order
    np.cumsum(gaps, axis=0, out=ranked[1:])
    cluster = np.empty_like(ranked)
    np.put_along_axis(cluster, order, ranked, axis=0)
    return cluster


class MeshError(Exception):
    """Invalid mesh topology, geometry or input file."""


FAMILIES = ("cartesian", "simplicial", "polygonal-hexagonal")


@dataclass(frozen=True)
class MeshGenSpec:
    """Built-in mesh generator request.

    family: one of FAMILIES.
    level: refinement level l with target mesh size h = 2**-l.
    fluid_rect / solid_rect: (x0, y0, x1, y1) per subdomain; one may be None
    for a single-subdomain mesh.
    n_fluid / n_solid: optional explicit cartesian cell counts (nx, ny)
    overriding the 2**-l sizing (cartesian and simplicial families only).
    """

    family: str
    level: int = 0
    fluid_rect: tuple | None = None
    solid_rect: tuple | None = None
    n_fluid: tuple | None = None
    n_solid: tuple | None = None


class PolyMesh:
    """Immutable 2D polygonal mesh with fluid/solid cell tags.

    `cell_vertices` is the vertex loop of every cell, a sequence of vertex
    id sequences; with `cell_offsets` it is all loops in one flat array
    instead, cell c's loop being cell_vertices[cell_offsets[c]:cell_offsets[c + 1]].
    """

    def __init__(self, vertices, cell_vertices, subdomain, region=None, region_names=None,
                 cell_offsets=None):
        vertices = np.asarray(vertices, dtype=float)
        if cell_offsets is None:
            cell_offsets = np.cumsum([0, *map(len, cell_vertices)])
            cell_vertices = np.concatenate(cell_vertices) if len(cell_vertices) else []
        start = np.asarray(cell_vertices, dtype=np.int64)
        n_cells = len(cell_offsets) - 1
        subdomain = np.asarray(subdomain, dtype=np.int8)
        if n_cells == 0:
            raise MeshError("mesh has no cells")
        if n_cells != len(subdomain):
            raise MeshError("one subdomain tag per cell required")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("non-finite vertex coordinates")
        size = np.diff(cell_offsets)
        if np.any(size < 3):
            ci = int(np.argmax(size < 3))
            raise MeshError(f"cell {ci} has {size[ci]} vertices; a cell needs at least 3")
        cell = np.repeat(np.arange(n_cells), size)
        unknown = (start < 0) | (start >= len(vertices))
        if np.any(unknown):
            e = int(np.argmax(unknown))
            raise MeshError(f"cell {cell[e]} names vertex {start[e]}; "
                            f"vertex ids run from 0 to {len(vertices) - 1}")
        if region is None:
            region = subdomain.astype(np.int64)
            region_names = {FLUID: "fluid", SOLID: "solid"}
        region = np.asarray(region, dtype=np.int64)
        self.region_names = dict(region_names or {})

        vertices, cell, start = _dedup_vertices(vertices, cell, start, n_cells)
        start = _orient_ccw(vertices, cell, start)
        cell, start = _resolve_hanging_nodes(vertices, cell, start)
        self._edge_cell = cell
        self._edge_end = start[_next_edge(cell)]
        self._cell_size = np.bincount(cell, minlength=n_cells)
        self.edge_start = start
        self.cell_offsets = np.concatenate([[0], np.cumsum(self._cell_size)])

        self.vertices = vertices
        self.subdomain = subdomain
        self.region = region
        self.n_cells = n_cells
        self.n_vertices = len(vertices)

        bbox = vertices.max(axis=0) - vertices.min(axis=0)
        self.length_scale = float(np.hypot(*bbox))
        self.coincidence_tol = coincidence_tol(vertices)

        self._build_faces()
        self._build_geometry()
        self.validate()

    # -- construction -----------------------------------------------------

    def _build_faces(self):
        cell, start, end = self._edge_cell, self.edge_start, self._edge_end
        face, first, count = _first_occurrence_ids(_edge_key(start, end, self.n_vertices))
        if np.any(count > 2):
            e = first[np.argmax(count > 2)]
            key = (int(min(start[e], end[e])), int(max(start[e], end[e])))
            raise MeshError(f"face {key} shared by more than two cells")
        last = np.argsort(face, kind="stable")[np.cumsum(count) - 1]
        c0, c1 = cell[first], cell[last]
        s0, s1 = self.subdomain[c0], self.subdomain[c1]
        boundary = count == 1
        interface = s0 != s1
        # the solid cell owns an interface face, the lower cell id any other
        owner = np.where(interface, np.where(s0 == SOLID, c0, c1), np.minimum(c0, c1))
        neighbor = np.where(boundary, -1, c0 + c1 - owner)
        fluid = self.subdomain[owner] == FLUID
        fclass = np.where(boundary, np.where(fluid, F_BND_FLUID, F_BND_SOLID),
                          np.where(interface, F_INTERFACE,
                                   np.where(fluid, F_INT_FLUID, F_INT_SOLID)))

        # store the vertex pair in the owner's traversal direction
        owned = cell == owner[face]
        stored = np.empty((len(count), 2), dtype=np.int64)
        stored[face[owned]] = np.column_stack([start, end])[owned]

        self.faces = stored
        self.face_owner = owner
        self.face_neighbor = neighbor
        self.face_class = fclass.astype(np.int8)
        self.edge_face = face
        self.edge_orient = np.where(owned, 1, -1).astype(np.int8)
        self.n_faces = len(count)

    def _build_geometry(self):
        self.cell_area = np.empty(self.n_cells)
        self.cell_centroid = np.empty((self.n_cells, 2))
        self.cell_diameter = np.empty(self.n_cells)
        for cells, loops, _, _ in self.loops_by_size():
            pts = self.vertices[loops]
            self.cell_diameter[cells] = polygon_diameter(pts)
            # areas and centroids from the vertices relative to the first one: far
            # from the origin (UTM-like coordinates) the absolute form loses its digits
            rel = pts - pts[:, :1]
            self.cell_area[cells] = polygon_area(rel)
            with np.errstate(invalid="ignore", divide="ignore"):  # validate rejects area 0
                self.cell_centroid[cells] = polygon_centroid(rel) + pts[:, 0]

        d = self.vertices[self.faces[:, 1]] - self.vertices[self.faces[:, 0]]
        self.face_measure = np.hypot(d[:, 0], d[:, 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            t = d / self.face_measure[:, None]
        self.face_normal = np.column_stack([t[:, 1], -t[:, 0]])
        self.face_midpoint = 0.5 * (self.vertices[self.faces[:, 0]]
                                    + self.vertices[self.faces[:, 1]])

    # -- queries -----------------------------------------------------------

    def cell_edges(self, cells):
        """Edge-table rows (len(cells), n) of `cells`, all of vertex count n, in traversal order."""
        n = np.unique(self._cell_size[cells])
        if len(n) > 1:
            raise ValueError("cells of different vertex counts")
        return self.cell_offsets[cells][:, None] + np.arange(n.sum())

    def loops_by_size(self):
        """The cells grouped by vertex count n: yields (cells, loops, faces, orient).

        `cells` is ascending; the other three are (len(cells), n) arrays in
        each cell's traversal order: vertex ids, face ids (local face j runs
        from loops[:, j] to the next vertex) and the signs of `edge_orient`.
        """
        for n in np.unique(self._cell_size):
            cells = np.nonzero(self._cell_size == n)[0]
            rows = self.cell_edges(cells)
            yield cells, self.edge_start[rows], self.edge_face[rows], self.edge_orient[rows]

    def faces_of_class(self, fclass):
        return np.nonzero(self.face_class == fclass)[0]

    @property
    def interface_faces(self):
        return self.faces_of_class(F_INTERFACE)

    def cells_of_subdomain(self, sub):
        return np.nonzero(self.subdomain == sub)[0]

    def locate_cell(self, point, subdomain=None):
        """Id of the lowest-numbered cell, of `subdomain` (FLUID or SOLID) if given,
        that holds `point`: none of its edges has the point to its right by more
        than COINCIDENCE_TOL times the length scale times max(1, edge length)."""
        p = np.asarray(point, dtype=float)
        tol = COINCIDENCE_TOL * self.length_scale
        holds = np.full(self.n_cells, True) if subdomain is None else self.subdomain == subdomain
        on = holds[self._edge_cell]
        a = self.vertices[self.edge_start[on]]
        d = self.vertices[self._edge_end[on]] - a
        cross = d[:, 0] * (p[1] - a[:, 1]) - d[:, 1] * (p[0] - a[:, 0])
        holds[self._edge_cell[on][cross < -tol * np.maximum(1.0, np.hypot(*d.T))]] = False
        if holds.any():
            return int(np.argmax(holds))
        where = "the mesh" if subdomain is None else ("the fluid", "the solid")[subdomain]
        raise MeshError(f"point {point} lies outside {where}")

    def validate(self):
        tol = COINCIDENCE_TOL * self.length_scale
        if np.any(self.face_measure <= tol):
            raise MeshError("degenerate face (zero length)")
        # every edge must see the cell barycenter strictly on its left
        cell = self._edge_cell
        c = self.cell_centroid[cell]
        p1 = self.vertices[self.edge_start] - c
        p2 = self.vertices[self._edge_end] - c
        tri2 = p1[:, 0] * p2[:, 1] - p1[:, 1] * p2[:, 0]
        flat = self.cell_area <= 0
        star = np.bincount(cell[tri2 <= 1e-13 * self.cell_area[cell]],
                           minlength=self.n_cells) > 0
        bad = flat | star    # vertex deduplication refuses cells of fewer than 3 faces
        if np.any(bad):
            ci = int(np.argmax(bad))
            if flat[ci]:
                raise MeshError(f"cell {ci} has non-positive area")
            raise MeshError(f"cell {ci} is not star-shaped w.r.t. its barycenter")
        # interface normals must point from solid into fluid
        iface = self.interface_faces
        own, nb = self.face_owner[iface], self.face_neighbor[iface]
        if np.any((self.subdomain[own] != SOLID) | (self.subdomain[nb] != FLUID)):
            raise MeshError("interface face owner/neighbor tags inconsistent")
        d = self.cell_centroid[nb] - self.cell_centroid[own]
        if np.any(np.sum(d * self.face_normal[iface], axis=1) <= 0):
            raise MeshError("interface normal does not point from solid to fluid")


# ---------------------------------------------------------------------------
# helpers

def _next_edge(cell):
    """Index of the edge that follows each edge in its cell loop.

    `cell` is the cell id of every edge of the table, sorted by cell.
    """
    i = np.arange(len(cell))
    head = np.ones(len(cell), dtype=bool)
    head[1:] = cell[1:] != cell[:-1]
    tail = np.roll(head, -1)
    return np.where(tail, np.maximum.accumulate(np.where(head, i, 0)), i + 1)


def _edge_key(start, end, n_vertices):
    """One integer per undirected edge: lower vertex * n_vertices + higher vertex."""
    return np.minimum(start, end) * n_vertices + np.maximum(start, end)


def _first_occurrence_ids(keys):
    """Ids of the distinct keys numbered in order of first occurrence.

    Returns the id of every entry, the first entry of every id and the
    number of entries of every id.
    """
    _, first, inverse, count = np.unique(keys, return_index=True, return_inverse=True,
                                         return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order], count[order]


def _orient_ccw(vertices, cell, start):
    """Edge table with the loops of clockwise cells reversed."""
    size = np.bincount(cell)[cell]
    start = start.copy()
    for n in np.unique(size):
        rows = size == n
        loops = start[rows].reshape(-1, n)
        cw = polygon_area(vertices[loops]) < 0
        loops[cw] = loops[cw, ::-1]
        start[rows] = loops.ravel()
    return start


def _vertex_clusters(vertices, tol):
    """The cluster of every vertex, named by its lowest vertex id: (n,) int64.

    Two vertices link when they lie within `tol` of each other in both
    coordinates (the Chebyshev distance), and a cluster is a connected
    component of the links. Linked vertices share their cluster of each
    coordinate (`coordinate_clusters`), so only the vertices of one pair of
    x and y clusters, almost always a single vertex, are compared, and the
    lowest id is propagated along their links.
    """
    n = len(vertices)
    xy = coordinate_clusters(vertices, tol)
    key = xy[:, 0] * (xy[:, 1].max() + 1) + xy[:, 1]
    order = np.argsort(key, kind="stable")    # each group ascending by vertex id
    key = key[order]
    same = key[1:] == key[:-1]
    grouped = np.r_[same, False] | np.r_[False, same]
    order, key = order[grouped], key[grouped]
    links = []
    for d in range(1, len(key)):
        pair = np.flatnonzero(key[d:] == key[:-d])
        if not len(pair):
            break
        i, j = order[pair], order[pair + d]
        near = np.all(np.abs(vertices[i] - vertices[j]) <= tol, axis=1)
        links.append((i[near], j[near]))
    label = np.arange(n)
    if not links:
        return label
    a, b = (np.concatenate(ends) for ends in zip(*links))
    while True:
        low = np.minimum(label[a], label[b])
        lower = label.copy()
        np.minimum.at(lower, a, low)
        np.minimum.at(lower, b, low)
        lower = lower[lower]      # every label is a lower id of the same cluster
        if np.array_equal(lower, label):
            return label
        label = lower


def _dedup_vertices(vertices, cell, start, n_cells):
    """Merge coincident vertices, drop the edges that collapse and unused vertices.

    Vertices closer than `coincidence_tol` in the Chebyshev distance join one
    cluster (transitively, `_vertex_clusters`, which compares only vertices
    that share their x and y clusters of `coordinate_clusters`, the rule that
    also keys `hho.congruence_classes`); a cluster becomes its lowest-index
    vertex, and the merged vertices keep the order of those lowest indices.
    Returns the merged vertices and the edge table.
    """
    remap, lowest, _ = _first_occurrence_ids(_vertex_clusters(vertices, coincidence_tol(vertices)))
    mapped = remap[start]
    # an edge whose two ends merge is dropped with its end, the start of the next edge
    nxt = _next_edge(cell)
    keep = np.empty(len(start), dtype=bool)
    keep[nxt] = mapped[nxt] != mapped
    cell, start = cell[keep], mapped[keep]
    if np.any(np.bincount(cell, minlength=n_cells) < 3):
        raise MeshError("cell degenerated during vertex deduplication "
                        "(mesh too fine for the coincidence tolerance)")
    used = np.zeros(len(lowest), dtype=bool)
    used[start] = True
    return vertices[lowest[used]], cell, (np.cumsum(used) - 1)[start]


def _ball_pairs(centers, radius, points):
    """Pairs (i, j) of every center i and every point j within `radius[i]` of it,
    sorted by i, then j: two (pairs,) int64 arrays.

    The points are sorted into square bins whose side is the largest radius,
    so the points of a ball lie in the 3 x 3 bins around its center's bin;
    those are tested one of the nine offsets at a time.
    """
    if not len(centers) or not len(points):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    side = float(radius.max())
    origin = np.minimum(centers.min(axis=0), points.min(axis=0)) - side
    cbin = np.floor((centers - origin) / side).astype(np.int64)
    pbin = np.floor((points - origin) / side).astype(np.int64)
    rows = int(max(cbin[:, 1].max(), pbin[:, 1].max())) + 2     # no bin wraps to the next column
    pkey = pbin[:, 0] * rows + pbin[:, 1]
    order = np.argsort(pkey, kind="stable")
    pkey = pkey[order]
    ckey = cbin[:, 0] * rows + cbin[:, 1]
    found = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            near = ckey + dx * rows + dy
            lo = np.searchsorted(pkey, near, side="left")
            count = np.searchsorted(pkey, near, side="right") - lo
            i = np.repeat(np.arange(len(centers)), count)
            at = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
            j = order[np.repeat(lo, count) + at]
            inside = np.sum((points[j] - centers[i]) ** 2, axis=1) <= radius[i] ** 2
            found.append((i[inside], j[inside]))
    i, j = (np.concatenate(ends) for ends in zip(*found))
    by_center = np.lexsort((j, i))
    return i[by_center], j[by_center]


def _resolve_hanging_nodes(vertices, cell, start):
    """Split unpaired cell edges that pass through other mesh vertices.

    A vertex strictly interior to another cell's edge (a hanging node) is
    inserted into that cell's loop, turning the cell into a polygon with an
    extra face so that edge pairing becomes exact. Returns the edge table.
    """
    end = start[_next_edge(cell)]
    face, _, count = _first_occurrence_ids(_edge_key(start, end, len(vertices)))
    unpaired = np.nonzero(count[face] == 1)[0]
    scale = float(np.hypot(*np.ptp(vertices, axis=0))) or 1.0
    tol = 1e-9 * scale
    lo = np.minimum(start, end)[unpaired]
    hi = np.maximum(start, end)[unpaired]
    pa, pb = vertices[lo], vertices[hi]
    length = np.hypot(*(pb - pa).T)
    tangent = (pb - pa) / length[:, None]
    i, cand = _ball_pairs(0.5 * (pa + pb), 0.5 * length + tol, vertices)
    rel = vertices[cand] - pa[i]
    t = tangent[i]
    s = rel[:, 0] * t[:, 0] + rel[:, 1] * t[:, 1]
    off = np.abs(rel[:, 0] * t[:, 1] - rel[:, 1] * t[:, 0])
    hit = (cand != lo[i]) & (cand != hi[i]) & (off <= tol) & (tol < s) & (s < length[i] - tol)
    i, cand, s = i[hit], cand[hit], s[hit]
    # per edge ordered from the lower vertex id (ties by id), then turned to the
    # edge's direction
    sign = np.where(start[unpaired[i]] == lo[i], 1, -1)
    order = np.lexsort((sign * cand, sign * s, i))
    at = unpaired[i[order]] + 1
    return np.insert(cell, at, cell[at - 1]), np.insert(start, at, cand[order])


# ---------------------------------------------------------------------------
# generators

def generate(spec: MeshGenSpec) -> PolyMesh:
    """Generate a (bilayer) mesh of the requested family at level `spec.level`."""
    if spec.level < 0:
        raise MeshError("refinement level must be >= 0")
    if spec.fluid_rect is None and spec.solid_rect is None:
        raise MeshError("at least one subdomain rectangle required")
    h = 2.0 ** (-spec.level)
    if spec.family == "cartesian":
        return _generate_grid(spec, h, split=False)
    if spec.family == "simplicial":
        return _generate_grid(spec, h, split=True)
    if spec.family == "polygonal-hexagonal":
        return _generate_hex(spec, h)
    raise MeshError(f"unsupported mesh family {spec.family!r}")


def _rect_counts(rect, h, counts):
    x0, y0, x1, y1 = rect
    if counts is not None:
        return int(counts[0]), int(counts[1])
    nx, ny = (x1 - x0) / h, (y1 - y0) / h
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise MeshError(f"rectangle {rect} is not commensurate with h = {h}")
    return max(1, round(nx)), max(1, round(ny))


def _grid_cells(rect, nx, ny):
    x0, y0, x1, y1 = rect
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    cells = np.stack([vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]], axis=-1)
    return verts, cells.reshape(-1, 4)


def _stagger_phase(i, n, full=0.5):
    """Stagger offset of the columns `i` (an array) of n + 1, ramping from 0
    at the walls to `full` in the interior.

    Keeps the cells next to the vertical boundaries at full width; a plain
    half-offset stagger would pinch them to half width, and those small stiff
    cells would dominate explicit stability limits.
    """
    edge = np.minimum(i, n - i)
    return np.where(edge <= 0, 0.0, np.where(edge == 1, 0.5 * full, full))


def _staggered_rows(rect, h, counts):
    """Near-equilateral staggered lattice rows for one rectangle.

    Rows are phased by their global index relative to y = 0 so that two
    rectangles sharing a horizontal or vertical boundary produce matching
    lattices there.
    """
    x0, y0, x1, y1 = rect
    nx, _ = _rect_counts(rect, h, counts)
    a = (x1 - x0) / nx
    row_h_ideal = math.sqrt(3.0) * a / 2.0
    ny = max(1, round((y1 - y0) / row_h_ideal))
    b = (y1 - y0) / ny
    base_row = round(y0 / b)
    i, r = np.arange(nx + 1), np.arange(ny + 1)[:, None]
    xs = x0 + (i + ((base_row + r) % 2) * _stagger_phase(i, nx)) * a
    return np.column_stack([xs.ravel(), np.repeat(y0 + r.ravel() * b, nx + 1)])


def _triangulate_rect(rect, h, counts):
    from scipy.spatial import Delaunay

    points = _staggered_rows(rect, h, counts)
    # Delaunay of a point set in a rectangle covers it exactly (convex domain)
    return points, Delaunay(points).simplices


def _generate_grid(spec, h, split):
    all_verts, all_cells, subdomain, offset = [], [], [], 0
    for rect, counts, sub in ((spec.fluid_rect, spec.n_fluid, FLUID),
                              (spec.solid_rect, spec.n_solid, SOLID)):
        if rect is None:
            continue
        if split:
            verts, cells = _triangulate_rect(rect, h, counts)
        else:
            nx, ny = _rect_counts(rect, h, counts)
            verts, cells = _grid_cells(rect, nx, ny)
        all_verts.append(verts)
        all_cells.append(cells + offset)
        subdomain.append(np.full(len(cells), sub))
        offset += len(verts)
    cells = np.vstack(all_cells)
    return PolyMesh(np.vstack(all_verts), cells.ravel(), np.concatenate(subdomain),
                    cell_offsets=np.arange(0, cells.size + 1, cells.shape[1]))


# Hexagon lattice pitch relative to the level size h, chosen so that one
# hexagonal cell has the same area as one cartesian cell at the same level.
HEX_PITCH_FACTOR = math.sqrt(2.0 / math.sqrt(3.0))


def _hex_seeds(rect, d):
    """Staggered seed lattice strictly inside the rectangle.

    Odd rows ramp their stagger to (nearly) align with the even rows at the
    vertical walls, so the wall-adjacent Voronoi cells keep full width.
    """
    x0, y0, x1, y1 = rect
    width, height = x1 - x0, y1 - y0
    row_h_ideal = math.sqrt(3.0) * d / 2.0
    ny = max(1, round(height / row_h_ideal))
    rh = height / ny
    nx = max(1, round(width / d))
    dx = width / nx
    i, r = np.arange(nx), np.arange(ny)[:, None]
    xs = x0 + (i + 0.5 + (r % 2) * _stagger_phase(i, nx - 1, full=-0.4)) * dx
    return np.column_stack([xs.ravel(), np.repeat(y0 + (r.ravel() + 0.5) * rh, nx)]), max(dx, rh)


def _generate_hex_rect(rect, d):
    """Voronoi tessellation of a staggered lattice, mirrored at the boundary.

    Mirroring the near-boundary seeds across the rectangle edges makes the
    Voronoi interfaces coincide with the edges, so the interior cells tile
    the rectangle exactly: hexagons inside, healthy clipped polygons at the
    boundary, no sliver cells.
    """
    from scipy.spatial import Voronoi

    x0, y0, x1, y1 = rect
    seeds, pitch = _hex_seeds(rect, d)
    margin = 3.0 * pitch
    mirrored = [seeds]     # the seeds lie strictly inside: |seed - wall| is its distance
    for axis, wall in ((0, x0), (0, x1), (1, y0), (1, y1)):
        near = seeds[np.abs(seeds[:, axis] - wall) < margin]
        near[:, axis] = 2 * wall - near[:, axis]
        mirrored.append(near)
    for corner in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
        near = seeds[np.all(np.abs(seeds - corner) < margin, axis=1)]
        mirrored.append(2 * np.array(corner) - near)
    vor = Voronoi(np.vstack(mirrored))
    regions = [vor.regions[r] for r in vor.point_region[:len(seeds)]]
    if any(-1 in region or len(region) < 3 for region in regions):
        raise MeshError("hexagonal tiling failed (unbounded boundary cell)")
    sizes = np.array([len(region) for region in regions])
    polys = [None] * len(seeds)
    snap = 1e-9 * pitch
    # the cells of one vertex count are clipped, snapped and sorted by angle
    # about their seed together, as stacked (m, n, 2) arrays
    for n in np.unique(sizes):
        cells = np.nonzero(sizes == n)[0]
        poly = vor.vertices[np.array([regions[i] for i in cells])]
        for coord, lo, hi in ((poly[..., 0], x0, x1), (poly[..., 1], y0, y1)):
            np.clip(coord, lo, hi, out=coord)
            coord[np.abs(coord - lo) < snap] = lo
            coord[np.abs(coord - hi) < snap] = hi
        ang = np.arctan2(poly[..., 1] - seeds[cells, 1, None], poly[..., 0] - seeds[cells, 0, None])
        poly = np.take_along_axis(poly, np.argsort(ang, axis=1)[..., None], axis=1)
        gap = poly - np.roll(poly, -1, axis=1)
        close = np.hypot(gap[..., 0], gap[..., 1]) < snap
        for i, p, dup in zip(cells, poly, close.any(axis=1)):
            polys[i] = _drop_snapped_duplicates(p, snap) if dup else p
    return [p for p in polys if len(p) >= 3]


def _drop_snapped_duplicates(poly, snap):
    """`poly` without the vertices that snapping moved onto their predecessor.

    Walks the loop once: a kept vertex closer than `snap` to the next one
    drops the next one, so which of a close pair survives depends on order.
    """
    keep = np.ones(len(poly), dtype=bool)
    for j in range(len(poly)):
        nxt = (j + 1) % len(poly)
        if keep[j] and np.hypot(*(poly[j] - poly[nxt])) < snap:
            keep[nxt] = False
    return poly[keep]


def _generate_hex(spec, h):
    rects = [(r, sub) for r, sub in ((spec.fluid_rect, FLUID), (spec.solid_rect, SOLID))
             if r is not None]
    d = HEX_PITCH_FACTOR * h
    polys, subdomain = [], []
    for rect, sub in rects:
        tiles = _generate_hex_rect(rect, d)
        polys += tiles
        subdomain += [sub] * len(tiles)
    if not polys:
        raise MeshError("hexagonal tiling produced no cells (level too coarse)")
    offsets = np.cumsum([0, *map(len, polys)])    # every cell brings its own vertices
    return PolyMesh(np.vstack(polys), np.arange(offsets[-1]), subdomain, cell_offsets=offsets)


# ---------------------------------------------------------------------------
# MSH v2.2 reader

_MSH_2D_TYPES = {2: 3, 3: 4}          # element type -> vertex count
_MSH_SKIP_TYPES = {1, 15}             # lines and points carry no cells
_MSH_3D_TYPES = {4, 5, 6, 7, 11, 17}  # tet, hex, prism, pyramid, ...


def read_msh(path, region_map=None) -> PolyMesh:
    """Read an ASCII MSH v2.2 file with triangles and/or quadrangles.

    Physical tags identify the subdomains. By default a physical name
    containing 'fluid' (or 'acoustic', 'atmosphere', 'water', 'air') maps to
    the fluid subdomain and one containing 'solid' (or 'elastic', 'rock',
    'bedrock', 'sediment') to the solid one; `region_map` can override this
    with an explicit {name_or_tag: 'fluid'|'solid'} mapping. A file that
    cannot be read or parsed raises MeshError naming it and, where it is
    known, the line.
    """
    text = _read_text(path)
    # per section, its non-blank lines and their line numbers in the file
    sections = {m[1]: [(text.count("\n", 0, m.start(2)) + i + 1, line)
                       for i, line in enumerate(m[2].splitlines()) if line.strip()]
                for m in re.finditer(r"\$(\w+)\n(.*?)\$End\1", text, flags=re.S)}
    row = None
    try:
        if "MeshFormat" not in sections:
            raise MeshError("not an MSH file (missing $MeshFormat)")
        version = sections["MeshFormat"][0][1].split() if sections["MeshFormat"] else []
        if not version or not version[0].startswith("2.2"):
            raise MeshError(f"unsupported MSH version {version[:1]}; expected 2.2")

        names = {}
        for row, line in sections.get("PhysicalNames", [])[1:]:
            parts = line.split(maxsplit=2)
            if len(parts) == 3:
                names[int(parts[1])] = parts[2].strip().strip('"')

        if not sections.get("Nodes") or not sections.get("Elements"):
            raise MeshError("missing or empty $Nodes or $Elements section")
        counted = {}
        for name in ("Nodes", "Elements"):
            (row, count), *lines = sections[name]
            if not 0 <= int(count) <= len(lines):
                raise MeshError(f"${name} counts {count} entries and lists {len(lines)}")
            counted[name] = lines[:int(count)]
        coords = np.empty((len(counted["Nodes"]), 2))
        node_id = {}
        for i, (row, line) in enumerate(counted["Nodes"]):
            parts = line.split()
            node_id[int(parts[0])] = i
            x, y, z = float(parts[1]), float(parts[2]), float(parts[3])
            if abs(z) > 1e-12 * (1.0 + abs(x) + abs(y)):
                raise MeshError("unsupported element dimension: nodes with z != 0")
            coords[i] = (x, y)

        cells, cell_region = [], []
        for row, line in counted["Elements"]:
            parts = [int(p) for p in line.split()]
            etype, ntags = parts[1], parts[2]
            tags = parts[3:3 + ntags]
            conn = parts[3 + ntags:]
            if etype in _MSH_SKIP_TYPES:
                continue
            if etype in _MSH_3D_TYPES:
                raise MeshError(f"unsupported element dimension (element type {etype})")
            if etype not in _MSH_2D_TYPES:
                raise MeshError(f"unsupported element type {etype}")
            if len(conn) != _MSH_2D_TYPES[etype]:
                raise MeshError("malformed element connectivity")
            cells.append([node_id[v] for v in conn])
            cell_region.append(tags[0] if tags else 0)
        row = None
        if not cells:
            raise MeshError("no 2D elements found")
    except (MeshError, ValueError, IndexError, KeyError) as exc:
        why = {IndexError: "too few fields",
               KeyError: f"element names undefined node {exc}"}.get(type(exc), exc)
        raise MeshError(f"{path}, line {row}: {why}" if row else f"{path}: {why}") from None
    region = np.asarray(cell_region, dtype=np.int64)
    subdomain = _regions_to_subdomains(region, names, region_map)
    region_names = {tag: names.get(tag, str(tag)) for tag in np.unique(region)}
    return PolyMesh(coords, cells, subdomain, region=region, region_names=region_names)


def _read_text(path):
    """The text of mesh file `path`, or MeshError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {getattr(exc, 'strerror', 0) or exc}"
                        ) from None


_FLUID_WORDS = ("fluid", "acoustic", "atmosphere", "water", "air")
_SOLID_WORDS = ("solid", "elastic", "rock", "bedrock", "sediment", "granite")


def _regions_to_subdomains(region, names, region_map):
    """The subdomain of every cell from its region tag, each distinct tag
    resolved once, in order of first occurrence (the first unknown is named)."""
    lookup = {}
    if region_map:
        for key, val in region_map.items():
            sub = {"fluid": FLUID, "solid": SOLID}.get(str(val).lower())
            if sub is None:
                raise MeshError(f"region map value {val!r} is not 'fluid' or 'solid'")
            lookup[str(key)] = sub
    ids, first, _ = _first_occurrence_ids(region)
    subs = np.empty(len(first), dtype=np.int8)
    for i, tag in enumerate(region[first].tolist()):
        name = names.get(tag, "")
        sub = lookup.get(name, lookup.get(str(tag)))
        if sub is None:
            low = name.lower()
            if any(w in low for w in _FLUID_WORDS):
                sub = FLUID
            elif any(w in low for w in _SOLID_WORDS):
                sub = SOLID
            else:
                raise MeshError(f"unknown physical tag {tag} ({name!r}); "
                                "provide a region map")
        subs[i] = sub
    return subs[ids]


# ---------------------------------------------------------------------------
# nonconforming merge

def merge_nonconforming(fluid: PolyMesh, solid: PolyMesh) -> PolyMesh:
    """Union of a fluid and a solid mesh whose interface traces may differ.

    Both meshes must cover disjoint domains sharing the interface polyline
    geometrically (within the coincidence tolerance). Faces on the interface
    are split at the union of both traces' vertices, so cells adjacent to a
    split face gain faces and are treated as general polygons.
    """
    if np.any(fluid.subdomain != FLUID):
        raise MeshError("first argument must be an all-fluid mesh")
    if np.any(solid.subdomain != SOLID):
        raise MeshError("second argument must be an all-solid mesh")
    _check_trace_consistency(fluid, solid)

    verts = np.vstack([fluid.vertices, solid.vertices])
    loops = np.concatenate([fluid.edge_start, solid.edge_start + fluid.n_vertices])
    offsets = np.concatenate([fluid.cell_offsets, solid.cell_offsets[1:] + len(fluid.edge_start)])
    subdomain = np.concatenate([fluid.subdomain, solid.subdomain])

    # keep region tags from both sides, remapping collisions
    regions_f = fluid.region
    shift = (regions_f.max() + 1) if len(regions_f) else 0
    regions_s = solid.region + shift
    region = np.concatenate([regions_f, regions_s])
    region_names = dict(fluid.region_names)
    for tag, name in solid.region_names.items():
        region_names[tag + shift] = name
    return PolyMesh(verts, loops, subdomain, region=region, region_names=region_names,
                    cell_offsets=offsets)


def _boundary_segments(mesh):
    """End points (n, 2, 2) of the boundary faces."""
    return mesh.vertices[mesh.faces[mesh.face_neighbor < 0]]

def _check_trace_consistency(fluid, solid):
    """The parts of both boundaries that face each other must span equal length."""
    scale = max(fluid.length_scale, solid.length_scale)
    tol = 1e-9 * scale
    f_segs = _boundary_segments(fluid)
    s_segs = _boundary_segments(solid)
    len_f = _covered_length(f_segs, s_segs, tol)
    len_s = _covered_length(s_segs, f_segs, tol)
    if len_f < tol or len_s < tol:
        raise MeshError("meshes do not share an interface polyline")
    if abs(len_f - len_s) > 1e-6 * max(len_f, len_s):
        raise MeshError("interface traces are geometrically inconsistent")


def _covered_length(segs_a, segs_b, tol):
    """Total length of the segments a covered by segments b lying on their lines.

    A segment b counts for a segment a when both its end points lie within
    `tol` of a's line; its projection, clipped to a, is one covered interval,
    and the intervals on each a are merged across gaps of at most `tol`.
    """
    pa = segs_a[:, 0]
    length = np.hypot(*(segs_a[:, 1] - pa).T)
    tangent = (segs_a[:, 1] - pa) / length[:, None]
    len_b = np.hypot(*(segs_b[:, 1] - segs_b[:, 0]).T)
    # only segments whose midpoints are within half their summed lengths overlap
    ia, ib = _ball_pairs(segs_a.mean(axis=1), 0.5 * (length + len_b.max()) + 2.0 * tol,
                         segs_b.mean(axis=1))
    rel = segs_b[ib] - pa[ia, None, :]                           # (pairs, 2 ends, 2)
    along = np.einsum("pej,pj->pe", rel, tangent[ia])
    across = np.einsum("pej,pj->pe", rel, tangent[ia][:, ::-1] * [1.0, -1.0])
    lo = np.maximum(along.min(axis=1), 0.0)
    hi = np.minimum(along.max(axis=1), length[ia])
    keep = np.all(np.abs(across) <= tol, axis=1) & (hi - lo > tol)
    ia, lo, hi = ia[keep], lo[keep], hi[keep]
    if len(ia) == 0:
        return 0.0
    # per segment a, intervals by start; each adds what reaches past the
    # intervals before it, bridging gaps of at most tol
    order = np.lexsort((lo, ia))
    ia, lo, hi = ia[order], lo[order], hi[order]
    first = np.r_[True, ia[1:] != ia[:-1]]
    group = np.cumsum(first) - 1
    pos = np.arange(len(ia)) - np.flatnonzero(first)[group]
    reach = np.full((group[-1] + 1, pos.max() + 1), -np.inf)
    reach[group, pos] = hi
    reach = np.maximum.accumulate(reach, axis=1)
    prev = np.where(pos > 0, reach[group, pos - 1], -np.inf)
    start = np.where(lo <= prev + tol, prev, lo)
    return float(np.maximum(hi - start, 0.0).sum())


# ---------------------------------------------------------------------------
# fixture dump format (line-oriented text)

def dump_text(mesh: PolyMesh, path):
    """Write the mesh in the line-oriented fixture format."""
    tags = sorted({int(t) for t in mesh.region})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("polymesh 1\n")
        fh.write(f"regions {len(tags)}\n")
        for tag in tags:
            sub = mesh.subdomain[mesh.region == tag][0]
            name = mesh.region_names.get(tag, str(tag))
            fh.write(f"{tag} {name} {'fluid' if sub == FLUID else 'solid'}\n")
        fh.write(f"vertices {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"cells {mesh.n_cells}\n")
        offsets, loops = mesh.cell_offsets.tolist(), mesh.edge_start.tolist()
        for c, tag in enumerate(mesh.region.tolist()):
            fh.write(f"{tag} " + " ".join(map(str, loops[offsets[c]:offsets[c + 1]])) + "\n")


def load_text(path) -> PolyMesh:
    """Read a mesh written by `dump_text`; a file that cannot be read or
    parsed raises MeshError naming it and the line."""
    lines = _read_text(path).splitlines()
    row = 0

    def fields():
        nonlocal row
        row += 1
        return lines[row - 1].split()

    try:
        if fields()[:1] != ["polymesh"]:
            raise MeshError("not a polymesh fixture file")
        region_names, region_sub = {}, {}
        for _ in range(int(fields()[1])):
            tag, name, sub = fields()[:3]
            region_names[int(tag)] = name
            region_sub[int(tag)] = FLUID if sub == "fluid" else SOLID
        verts = np.empty((int(fields()[1]), 2))
        for i in range(len(verts)):
            x, y = fields()[:2]
            verts[i] = float(x), float(y)
        cells, region, subdomain = [], [], []
        for _ in range(int(fields()[1])):
            tag, *loop = map(int, fields())
            if not all(0 <= v < len(verts) for v in loop):
                raise MeshError(f"cell names an undefined vertex; there are {len(verts)}")
            subdomain.append(region_sub[tag])
            cells.append(loop)
            region.append(tag)
    except (MeshError, ValueError, IndexError, KeyError) as exc:
        why = {IndexError: "the file ends early" if row > len(lines) else "too few fields",
               KeyError: f"cell of undefined region {exc}"}.get(type(exc), exc)
        raise MeshError(f"{path}, line {row}: {why}") from None
    return PolyMesh(verts, cells, subdomain, region=np.array(region),
                    region_names=region_names)
