"""Mesh generation, file IO, nonconforming merge and classification tests."""

import hashlib
import json
import os

import numpy as np
import pytest

from hhowave import mesh as msh
from hhowave.mesh import (FLUID, SOLID, MeshError, MeshGenSpec, PolyMesh,
                          dump_text, generate, load_text,
                          merge_nonconforming, read_msh)

from oracles import cell_rows, chebyshev_clusters, point_in_polygon
from test_golden import golden_mesh

BILAYER = dict(fluid_rect=(0.0, 0.0, 1.0, 1.0), solid_rect=(-1.0, 0.0, 0.0, 1.0))


def quad_strip(x0, x1, y0, y1, dx, offset=0.0, sub=FLUID):
    """Strip of axis-aligned rectangles with interior x-breaks offset by `offset`."""
    xs = [x0]
    x = x0 + offset if offset > 0 else x0 + dx
    while x < x1 - 1e-12:
        xs.append(x)
        x += dx
    xs.append(x1)
    verts = []
    cells = []
    for i in range(len(xs) - 1):
        base = len(verts)
        verts += [(xs[i], y0), (xs[i + 1], y0), (xs[i + 1], y1), (xs[i], y1)]
        cells.append([base, base + 1, base + 2, base + 3])
    return PolyMesh(np.array(verts, dtype=float), cells, [sub] * len(cells))


# ---------------------------------------------------------------------------
# generators

def test_cartesian_level0():
    m = generate(MeshGenSpec("cartesian", 0, **BILAYER))
    assert m.n_cells == 2
    assert len(m.interface_faces) == 1
    assert len(m.faces_of_class(msh.F_BND_FLUID)) + len(m.faces_of_class(msh.F_BND_SOLID)) == 6
    assert (len(m.faces_of_class(msh.F_INT_FLUID)) == 0
            and len(m.faces_of_class(msh.F_INT_SOLID)) == 0)


def test_cartesian_level2_counts():
    m = generate(MeshGenSpec("cartesian", 2, **BILAYER))
    assert int(np.sum(m.subdomain == FLUID)) == 16
    assert int(np.sum(m.subdomain == SOLID)) == 16
    assert len(m.interface_faces) == 4


def test_cartesian_level1_interface_count():
    m = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    assert len(m.interface_faces) == 2


def test_simplicial_counts():
    m = generate(MeshGenSpec("simplicial", 2, **BILAYER))
    # near-equilateral triangles with area close to the cartesian cell area
    assert np.all(np.diff(m.cell_offsets) == 3)
    assert abs(np.sum(m.cell_area) - 2.0) < 1e-12
    h2 = 0.25**2
    assert 0.3 * h2 < np.median(m.cell_area) < 0.7 * h2
    assert len(m.interface_faces) >= 4
    # interface stays conforming between the two independently meshed layers
    for fi in m.interface_faces:
        assert m.subdomain[m.face_owner[fi]] == SOLID
        assert m.subdomain[m.face_neighbor[fi]] == FLUID


def test_hexagonal_family():
    m = generate(MeshGenSpec("polygonal-hexagonal", 2, **BILAYER))
    sizes = np.diff(m.cell_offsets)
    # hexagon-dominant interior with cut polygons at the boundary
    assert np.sum(sizes == 6) > 0.3 * m.n_cells
    assert sizes.min() >= 3
    assert len(m.interface_faces) > 0
    area = float(np.sum(m.cell_area))
    assert abs(area - 2.0) < 1e-9


def test_snapped_duplicates_drop_in_loop_order():
    snap = 1e-3
    poly = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 4e-4), (1.0, 8e-4), (0.0, 1.0), (0.0, 2e-4)])
    # (1, 4e-4) follows a kept vertex closer than snap and goes; (1, 8e-4)
    # follows a dropped one and stays, though (1, 0) is as close; the last
    # vertex, kept, drops the first
    assert np.array_equal(msh._drop_snapped_duplicates(poly, snap), poly[[1, 3, 4, 5]])


def test_single_subdomain_has_no_interface():
    m = generate(MeshGenSpec("cartesian", 1, fluid_rect=(0, 0, 1, 1)))
    assert len(m.interface_faces) == 0
    assert np.all(m.subdomain == FLUID)


def test_unknown_family_rejected():
    with pytest.raises(MeshError):
        generate(MeshGenSpec("voronoi", 1, **BILAYER))


def test_incommensurate_rectangle_rejected():
    with pytest.raises(MeshError):
        generate(MeshGenSpec("cartesian", 1, fluid_rect=(0, 0, 0.3, 1.0)))


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("family", ["cartesian", "simplicial", "polygonal-hexagonal"])
def test_geometric_invariants(family):
    m = generate(MeshGenSpec(family, 2, **BILAYER))
    # areas sum to the domain measure
    assert abs(np.sum(m.cell_area) - 2.0) < 1e-12 * 2.0
    # closed boundary: sum of measure-weighted outward normals vanishes per cell
    for ci in range(m.n_cells):
        total = np.zeros(2)
        for fi, sign in zip(m.edge_face[cell_rows(m, ci)], m.edge_orient[cell_rows(m, ci)]):
            total += m.face_measure[fi] * m.face_normal[fi] * sign
        assert np.max(np.abs(total)) < 1e-12
    # interior faces adjoin exactly two cells listing them once each
    for fi in range(m.n_faces):
        owner, nb = m.face_owner[fi], m.face_neighbor[fi]
        count = sum(int(fi in m.edge_face[cell_rows(m, ci)]) for ci in (owner, nb) if ci >= 0)
        assert count == (1 if nb == -1 else 2)
    # unit normals
    assert np.max(np.abs(np.hypot(*m.face_normal.T) - 1.0)) < 1e-13
    # interface normals point from solid into fluid
    for fi in m.interface_faces:
        d = m.cell_centroid[m.face_neighbor[fi]] - m.cell_centroid[m.face_owner[fi]]
        assert float(d @ m.face_normal[fi]) > 0


def test_classification_partitions_faces():
    m = generate(MeshGenSpec("simplicial", 3, **BILAYER))
    ids = np.concatenate([m.faces_of_class(code) for code in range(5)])
    assert len(ids) == m.n_faces
    assert len(np.unique(ids)) == m.n_faces


def test_zero_area_cell_rejected():
    collinear = np.array([(0, 0), (1, 0), (2, 0)], dtype=float)
    with pytest.raises(MeshError, match="non-positive area"):
        PolyMesh(collinear, [np.arange(3)], [FLUID])


def test_star_shape_violation_rejected():
    hook = np.array([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (0, 1)], dtype=float)
    with pytest.raises(MeshError):
        PolyMesh(hook, [np.arange(6)], [FLUID])


UNIT_SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)


@pytest.mark.parametrize("vertex", [-1, 4])
def test_unknown_vertex_id_rejected(vertex):
    with pytest.raises(MeshError, match=f"cell 1 names vertex {vertex}; vertex ids run from 0 to 3"):
        PolyMesh(UNIT_SQUARE, [[0, 1, 2, 3], [0, 1, 2, vertex]], [FLUID] * 2)


def test_cell_of_two_vertices_rejected():
    with pytest.raises(MeshError, match="cell 1 has 2 vertices; a cell needs at least 3"):
        PolyMesh(UNIT_SQUARE, [[0, 1, 2, 3], [0, 1]], [FLUID] * 2)


@pytest.mark.parametrize("level, scale", [(4, 10.0), (6, 1000.0)])
def test_centroids_keep_their_digits_far_from_the_origin(level, scale):
    # a hexagonal bilayer scaled and moved to UTM-like coordinates
    base = generate(MeshGenSpec("polygonal-hexagonal", level, **BILAYER))
    shift = np.array([5e5, 4.2e6])
    m = PolyMesh(base.vertices * scale + shift, base.edge_start, base.subdomain,
                 cell_offsets=base.cell_offsets)
    err = np.abs(m.cell_centroid - (base.cell_centroid * scale + shift)).max(axis=1)
    assert np.all(err <= 1e-8 * scale * base.cell_diameter)


@pytest.mark.parametrize("level, scale", [(4, 10.0), (6, 10.0), (6, 1000.0)])
def test_areas_keep_their_digits_far_from_the_origin(level, scale):
    # the same meshes and shift; the shoelace sum of absolute coordinates was
    # off by up to 1.1% of (scale * diameter)^2 on hexagonal L6 x10, and the
    # relative form is off by at most 3.8e-9 of it
    base = generate(MeshGenSpec("polygonal-hexagonal", level, **BILAYER))
    m = PolyMesh(base.vertices * scale + np.array([5e5, 4.2e6]), base.edge_start,
                 base.subdomain, cell_offsets=base.cell_offsets)
    err = np.abs(m.cell_area - base.cell_area * scale ** 2)
    assert np.all(err <= 1e-8 * (scale * base.cell_diameter) ** 2)


# ---------------------------------------------------------------------------
# MSH reader

MSH_TWO_TRIANGLES = """$MeshFormat
2.2 0 8
$EndMeshFormat
$PhysicalNames
2
2 1 "fluid"
2 2 "solid"
$EndPhysicalNames
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
2
1 2 2 1 0 1 3 4
2 2 2 2 0 1 2 3
$EndElements
"""


def test_read_msh_two_triangles(tmp_path):
    path = tmp_path / "two.msh"
    path.write_text(MSH_TWO_TRIANGLES)
    m = read_msh(path)
    assert m.n_cells == 2
    assert set(m.subdomain.tolist()) == {FLUID, SOLID}
    assert len(m.interface_faces) == 1


def test_read_msh_mixed_elements(tmp_path):
    # 3 quads + 2 triangles covering (0,3)x(0,1) fluid over (0,3)x(-1,0) solid
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat",
             "$PhysicalNames", "2", '2 10 "water"', '2 20 "rock"', "$EndPhysicalNames"]
    nodes = []
    coords = {}
    nid = 0
    for y in (1.0, 0.0, -1.0):
        for x in (0.0, 1.0, 2.0, 3.0):
            nid += 1
            coords[(x, y)] = nid
            nodes.append(f"{nid} {x} {y} 0")
    lines += ["$Nodes", str(len(nodes))] + nodes + ["$EndNodes"]
    elems = []

    def quad(tag, pts):
        elems.append(f"{len(elems)+1} 3 2 {tag} 0 " + " ".join(str(coords[p]) for p in pts))

    def tri(tag, pts):
        elems.append(f"{len(elems)+1} 2 2 {tag} 0 " + " ".join(str(coords[p]) for p in pts))

    quad(10, [(0, 0), (1, 0), (1, 1), (0, 1)])
    quad(10, [(1, 0), (2, 0), (2, 1), (1, 1)])
    tri(10, [(2, 0), (3, 0), (3, 1)])
    tri(10, [(2, 0), (3, 1), (2, 1)])
    quad(20, [(0, -1), (1, -1), (1, 0), (0, 0)])
    quad(20, [(1, -1), (3, -1), (3, 0), (1, 0)])
    lines += ["$Elements", str(len(elems))] + elems + ["$EndElements"]
    path = tmp_path / "mixed.msh"
    path.write_text("\n".join(lines) + "\n")
    m = read_msh(path)
    assert m.n_cells == 6
    assert int(np.sum(m.subdomain == FLUID)) == 4
    # hanging node at (2, 0) on the wide solid quad is resolved
    assert len(m.faces_of_class(msh.F_INTERFACE)) == 3
    assert abs(np.sum(m.cell_area) - 6.0) < 1e-12


def test_read_msh_rejects_3d(tmp_path):
    content = MSH_TWO_TRIANGLES.replace('1 2 2 1 0 1 3 4', '1 4 2 1 0 1 2 3 4')
    path = tmp_path / "tet.msh"
    path.write_text(content)
    with pytest.raises(MeshError, match="dimension"):
        read_msh(path)


def test_read_msh_unknown_tag(tmp_path):
    content = MSH_TWO_TRIANGLES.replace('2 1 "fluid"', '2 1 "mystery"')
    path = tmp_path / "bad.msh"
    path.write_text(content)
    with pytest.raises(MeshError, match="physical tag"):
        read_msh(path)
    # an explicit region map resolves it
    m = read_msh(path, region_map={"mystery": "fluid"})
    assert m.n_cells == 2


# ---------------------------------------------------------------------------
# nonconforming merge

def merge_offset_quads():
    """Solid unit squares under fluid cells of width 1/2 offset by 1/4."""
    solid = quad_strip(0, 2, -1, 0, 1.0, sub=SOLID)
    fluid = quad_strip(0, 2, 0, 0.5, 0.5, offset=0.25, sub=FLUID)
    return merge_nonconforming(fluid, solid)


def merge_triangles_over_squares():
    """Solid unit squares under fluid triangles of base 1/2 offset by 1/4."""
    solid = quad_strip(0, 2, -1, 0, 1.0, sub=SOLID)
    verts = [(0.0, 0.0), (0.25, 0.0), (0.75, 0.0), (1.25, 0.0), (1.75, 0.0), (2.0, 0.0),
             (0.0, 0.25), (0.5, 0.25), (1.0, 0.25), (1.5, 0.25), (2.0, 0.25)]
    cells = [
        [0, 1, 7, 6],            # left closing quad
        [1, 2, 7], [7, 2, 8],    # up triangle on [0.25,0.75], down from (0.5,0.25)
        [2, 3, 8], [8, 3, 9],    # base [0.75,1.25] contains x=1 -> gains a node
        [3, 4, 9], [9, 4, 10],
        [4, 5, 10],              # right closing triangle
    ]
    fluid = PolyMesh(np.array(verts), cells, [FLUID] * len(cells))
    return merge_nonconforming(fluid, solid)


def merge_conforming():
    solid = quad_strip(0, 2, -1, 0, 1.0, sub=SOLID)
    fluid = quad_strip(0, 2, 0, 1, 1.0, sub=FLUID)
    return merge_nonconforming(fluid, solid)


def merge_thirds():
    solid = quad_strip(0, 3, -1, 0, 1.0, sub=SOLID)
    fluid = quad_strip(0, 3, 0, 0.5, 1.0 / 3.0, sub=FLUID)
    return merge_nonconforming(fluid, solid)


def test_merge_offset_quads_makes_hexagons():
    # solid unit squares; fluid cells of width 1/2 offset by 1/4: each solid
    # top edge gains two hanging nodes (6 faces), split fluid cells gain one
    merged = merge_offset_quads()
    solid_sizes = sorted(np.diff(merged.cell_offsets)[ci]
                         for ci in merged.cells_of_subdomain(SOLID))
    assert solid_sizes == [6, 6]
    fluid_sizes = [np.diff(merged.cell_offsets)[ci]
                   for ci in merged.cells_of_subdomain(FLUID)]
    assert sorted(set(fluid_sizes)) == [4, 5]
    # every interface face has one fluid and one solid neighbor
    for fi in merged.interface_faces:
        assert merged.subdomain[merged.face_owner[fi]] == SOLID
        assert merged.subdomain[merged.face_neighbor[fi]] == FLUID
    merged.validate()


def test_merge_triangles_over_squares_fig2_pattern():
    # solid squares of edge 1 under fluid triangles of base 1/2 offset by 1/4:
    # squares become hexagons; triangles whose base contains a square corner
    # become quadrilaterals, the others stay triangles
    merged = merge_triangles_over_squares()
    solid_sizes = sorted(np.diff(merged.cell_offsets)[ci]
                         for ci in merged.cells_of_subdomain(SOLID))
    assert solid_sizes == [6, 6]
    tri_sizes = sorted(np.diff(merged.cell_offsets)[ci]
                       for ci in merged.cells_of_subdomain(FLUID))
    # one up-triangle gains the corner hanging node at x=1
    assert tri_sizes.count(4) >= 2 and tri_sizes.count(3) >= 4


def test_merge_conforming_is_identity_like():
    merged = merge_conforming()
    assert merged.n_cells == 4
    assert np.all(np.diff(merged.cell_offsets) == 4)
    assert len(merged.interface_faces) == 2
    # idempotence: re-splitting the merged mesh changes nothing
    remerged = PolyMesh(merged.vertices,
                        [merged.edge_start[cell_rows(merged, ci)] for ci in range(merged.n_cells)],
                        merged.subdomain)
    assert remerged.n_faces == merged.n_faces


def test_merge_thirds_adds_two_nodes():
    merged = merge_thirds()
    for ci in merged.cells_of_subdomain(SOLID):
        assert np.diff(merged.cell_offsets)[ci] == 6  # 4 + 2 hanging nodes
    for fi in merged.interface_faces:
        assert merged.subdomain[merged.face_owner[fi]] == SOLID
        assert merged.subdomain[merged.face_neighbor[fi]] == FLUID


def test_merge_rejects_disjoint_traces():
    solid = quad_strip(0, 2, -1, 0, 1.0, sub=SOLID)
    fluid = quad_strip(5, 7, 0, 1, 1.0, sub=FLUID)
    with pytest.raises(MeshError):
        merge_nonconforming(fluid, solid)


def test_merge_rejects_inconsistent_traces():
    # the solid trace bends up by 3e-9 from x = 0.5: the fluid faces up to
    # x = 0.7 lie within the 1e-9 tolerance of its line, but its end point
    # does not lie within it of theirs, so the fluid sees 0.5 of shared
    # trace and the solid 0.7
    fluid = quad_strip(0, 1, 0, 0.5, 0.1, sub=FLUID)
    verts = [(0.0, -1.0), (0.5, -1.0), (1.0, -1.0), (1.0, 3e-9), (0.5, 0.0), (0.0, 0.0)]
    solid = PolyMesh(np.array(verts), [[0, 1, 4, 5], [1, 2, 3, 4]], [SOLID, SOLID])
    with pytest.raises(MeshError, match="geometrically inconsistent"):
        merge_nonconforming(fluid, solid)


def covered_length_loop(segs_a, segs_b, tol):
    """Reference for `mesh._covered_length`: one segment pair at a time."""
    total = 0.0
    for pa, pb in segs_a:
        length = float(np.hypot(*(pb - pa)))
        t = (pb - pa) / length
        n = np.array([t[1], -t[0]])
        spans = []
        for qa, qb in segs_b:
            if abs(float((qa - pa) @ n)) > tol or abs(float((qb - pa) @ n)) > tol:
                continue
            s0, s1 = float((qa - pa) @ t), float((qb - pa) @ t)
            a, b = max(min(s0, s1), 0.0), min(max(s0, s1), length)
            if b - a > tol:
                spans.append((a, b))
        cur = None
        for a, b in sorted(spans):
            if cur is not None and a <= cur[1] + tol:
                cur[1] = max(cur[1], b)
                continue
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        if cur is not None:
            total += cur[1] - cur[0]
    return total


@pytest.mark.parametrize("fluid_family,solid_family", [
    ("cartesian", "simplicial"), ("polygonal-hexagonal", "cartesian"),
    ("simplicial", "polygonal-hexagonal")])
def test_covered_length_matches_loop_reference(fluid_family, solid_family):
    fluid = generate(MeshGenSpec(fluid_family, 3, fluid_rect=(0.0, 0.0, 1.0, 1.0)))
    solid = generate(MeshGenSpec(solid_family, 2, solid_rect=(-0.25, -1.0, 1.25, 0.0)))
    tol = 1e-9 * max(fluid.length_scale, solid.length_scale)
    rng = np.random.default_rng(5)
    f_segs = msh._boundary_segments(fluid)
    s_segs = msh._boundary_segments(solid)
    assert covered_length_loop(f_segs, s_segs, tol) == pytest.approx(1.0)
    # jitter below and above the tolerance decides which segments count as collinear
    for jitter in (0.0, 0.3 * tol, 3.0 * tol):
        f_jit = f_segs + jitter * rng.standard_normal(f_segs.shape)
        for a, b in ((f_jit, s_segs), (s_segs, f_jit)):
            assert abs(msh._covered_length(a, b, tol) - covered_length_loop(a, b, tol)) < 1e-12


def test_merge_rejects_wrong_subdomains():
    fluid = quad_strip(0, 2, 0, 1, 1.0, sub=FLUID)
    with pytest.raises(MeshError):
        merge_nonconforming(fluid, fluid)


# ---------------------------------------------------------------------------
# construction: topology lock and rejected inputs

TOPOLOGY_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_mesh.json")
TOPOLOGY_MESHES = {
    "cartesian": lambda: generate(MeshGenSpec("cartesian", 2, **BILAYER)),
    "simplicial": lambda: generate(MeshGenSpec("simplicial", 2, **BILAYER)),
    "polygonal-hexagonal": lambda: generate(MeshGenSpec("polygonal-hexagonal", 2, **BILAYER)),
    "merge_offset_quads": merge_offset_quads,
    "merge_triangles_over_squares": merge_triangles_over_squares,
    "merge_conforming": merge_conforming,
    "merge_thirds": merge_thirds,
}


def topology_hashes(m):
    """SHA-256 of dtype, shape and bytes of every topology and area array."""
    arrays = {
        "vertices": m.vertices,
        "faces": m.faces,
        "face_owner": m.face_owner,
        "face_neighbor": m.face_neighbor,
        "face_class": m.face_class,
        "cell_sizes": np.diff(m.cell_offsets),
        "cell_vertices": m.edge_start,
        "cell_faces": m.edge_face,
        "cell_face_orient": m.edge_orient,
        "cell_area": m.cell_area,
    }
    out = {}
    for name, a in arrays.items():
        a = np.ascontiguousarray(a)
        digest = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
        out[name] = digest.hexdigest()
    return out


with open(TOPOLOGY_GOLDEN_PATH, encoding="utf-8") as _fh:
    TOPOLOGY_GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", list(TOPOLOGY_MESHES))
def test_topology_golden(name):
    """Vertices, faces, cell loops and areas are bit-identical to the locked mesh."""
    assert topology_hashes(TOPOLOGY_MESHES[name]()) == TOPOLOGY_GOLDEN[name]


def test_face_shared_by_three_cells_rejected():
    verts = np.array([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)], dtype=float)
    with pytest.raises(MeshError, match="shared by more than two cells"):
        PolyMesh(verts, [[0, 1, 2], [1, 0, 3], [0, 1, 4]], [FLUID] * 3)


def test_cell_collapsing_in_deduplication_rejected():
    # vertex 3 lies within the coincidence tolerance of vertex 1
    verts = np.array([(0, 0), (1, 0), (1, 1), (1, 1e-14), (0, 1)], dtype=float)
    with pytest.raises(MeshError, match="degenerated during vertex deduplication"):
        PolyMesh(verts, [[0, 1, 2, 4], [1, 3, 2]], [FLUID] * 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(bad):
    verts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    verts[2, 0] = bad
    with pytest.raises(MeshError, match="non-finite"):
        PolyMesh(verts, [np.arange(4)], [FLUID])


def test_close_vertices_merge_into_lower_index():
    # vertex 1 and vertex 6 are 1e-13 apart (tolerance 1e-12 * sqrt(5)); the
    # merged vertex keeps the position and place of vertex 1
    verts = np.array([(0, 0), (1 + 1e-13, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 0)],
                     dtype=float)
    m = PolyMesh(verts, [[0, 1, 2, 3], [6, 4, 5, 2]], [FLUID, SOLID])
    assert np.array_equal(m.vertices, verts[:6])
    assert m.edge_start[cell_rows(m, 1)].tolist() == [1, 4, 5, 2]
    assert m.n_faces == 7
    assert len(m.interface_faces) == 1


def planted_cloud(rng, n, tol):
    """Dyadic random vertices plus copies of some moved by 0, tol/2, tol or 3tol/2
    per coordinate: pairs exactly at tol, just past it and chains of both."""
    base = rng.integers(0, 64, size=(n, 2)) * 2.0 ** -6
    copies = base[rng.integers(0, n, size=n)]
    moved = copies + rng.integers(-3, 4, size=copies.shape) * (0.5 * tol)
    return rng.permutation(np.vstack([base, copies, moved]))


@pytest.mark.parametrize("seed", range(4))
def test_vertex_clusters_match_the_pairwise_reference(seed):
    rng = np.random.default_rng(seed)
    tol = 2.0 ** -20        # a power of two: every planted offset is exact
    cloud = planted_cloud(rng, 150, tol)
    assert np.any(msh._vertex_clusters(cloud, tol) != np.arange(len(cloud)))
    # exactly at tol links, and far from the origin the tolerance takes the ulps
    shifted = cloud * 10.0 + np.array([5e5, 4.2e6])
    for v, t in ((cloud, tol), (cloud, 0.999 * tol), (shifted, msh.coincidence_tol(shifted)),
                 (cloud + rng.uniform(-tol, tol, cloud.shape), tol)):
        assert np.array_equal(msh._vertex_clusters(v, t), chebyshev_clusters(v, t))


def test_vertex_clusters_chain_and_split():
    tol = 1e-3
    # three-vertex chains: each link within tol, the ends 1.6 tol apart, along
    # an axis and along the diagonal; the middle vertex comes last
    for step in ((0.8 * tol, 0.0), (0.8 * tol, 0.8 * tol)):
        v = np.array([(0.0, 0.0), (2 * step[0], 2 * step[1]), step])
        assert msh._vertex_clusters(v, tol).tolist() == [0, 0, 0]
        assert msh._vertex_clusters(v[:2], tol).tolist() == [0, 1]
    # vertices 0 and 1 share their x cluster and, through vertex 2, their y
    # cluster, yet lie 2 tol apart in y: their group splits
    v = np.array([(0.0, 0.0), (0.9 * tol, 2 * tol), (5.0, tol)])
    assert msh._vertex_clusters(v, tol).tolist() == [0, 1, 2]
    assert chebyshev_clusters(v, tol).tolist() == [0, 1, 2]


def test_ball_pairs_hold_every_hanging_node_and_overlap():
    # fluid faces of length 1/32 over solid faces of length 1/4: edge lengths
    # that differ 8x, so the bins are sized by the long edges
    fluid = generate(MeshGenSpec("cartesian", 5, fluid_rect=(0.0, 0.0, 1.0, 1.0)))
    solid = generate(MeshGenSpec("cartesian", 2, solid_rect=(0.0, -1.0, 1.0, 0.0)))
    verts = np.vstack([fluid.vertices, solid.vertices])
    segs = np.vstack([msh._boundary_segments(fluid), msh._boundary_segments(solid)])
    tol = 1e-9 * max(fluid.length_scale, solid.length_scale)
    pa, pb = segs[:, 0], segs[:, 1]
    length = np.hypot(*(pb - pa).T)
    t = (pb - pa) / length[:, None]
    # brute force: every vertex strictly inside a segment (the hanging-node test)
    rel = verts[None, :, :] - pa[:, None, :]
    s = np.einsum("evj,ej->ev", rel, t)
    off = np.abs(rel[..., 0] * t[:, None, 1] - rel[..., 1] * t[:, None, 0])
    hits = np.argwhere((off <= tol) & (tol < s) & (s < length[:, None] - tol))
    assert len(hits) == 4 * 7           # 7 fluid vertices inside each solid top face
    pairs = set(zip(*msh._ball_pairs(0.5 * (pa + pb), 0.5 * length + tol, verts)))
    assert set(map(tuple, hits.tolist())) <= pairs
    # brute force: every segment pair that overlaps on a common line (the
    # covered-length test), against the candidates `_covered_length` takes
    f_segs, s_segs = msh._boundary_segments(fluid), msh._boundary_segments(solid)
    for a, b in ((f_segs, s_segs), (s_segs, f_segs)):
        len_a = np.hypot(*(a[:, 1] - a[:, 0]).T)
        ta = (a[:, 1] - a[:, 0]) / len_a[:, None]
        rel = b[None, :, :, :] - a[:, None, None, 0, :]               # (a, b, end, 2)
        along = np.einsum("abej,aj->abe", rel, ta)
        across = np.einsum("abej,aj->abe", rel, ta[:, ::-1] * [1.0, -1.0])
        lo = np.maximum(along.min(axis=2), 0.0)
        hi = np.minimum(along.max(axis=2), len_a[:, None])
        overlap = np.argwhere(np.all(np.abs(across) <= tol, axis=2) & (hi - lo > tol))
        assert len(overlap) > 0
        len_b = np.hypot(*(b[:, 1] - b[:, 0]).T)
        pairs = set(zip(*msh._ball_pairs(a.mean(axis=1), 0.5 * (len_a + len_b.max()) + 2.0 * tol,
                                         b.mean(axis=1))))
        assert set(map(tuple, overlap.tolist())) <= pairs


def test_ball_pairs_match_the_brute_force_ball():
    rng = np.random.default_rng(3)
    centers = rng.uniform(-1.0, 3.0, size=(60, 2))
    points = rng.uniform(0.0, 2.0, size=(300, 2))
    radius = rng.uniform(0.01, 0.4, size=60)
    i, j = msh._ball_pairs(centers, radius, points)
    d2 = np.sum((points[None, :, :] - centers[:, None, :]) ** 2, axis=2)
    ref = np.argwhere(d2 <= radius[:, None] ** 2)        # sorted by center, then point
    assert np.array_equal(np.column_stack([i, j]), ref)


# ---------------------------------------------------------------------------
# fixture dump round-trip

def test_dump_load_roundtrip(tmp_path):
    m = generate(MeshGenSpec("polygonal-hexagonal", 1, **BILAYER))
    path = tmp_path / "mesh.txt"
    dump_text(m, path)
    back = load_text(path)
    assert back.n_cells == m.n_cells
    assert back.n_faces == m.n_faces
    assert np.allclose(np.sort(back.cell_area), np.sort(m.cell_area))
    assert np.array_equal(back.subdomain, m.subdomain)


def test_locate_cell_tie_breaks_low_id():
    m = generate(MeshGenSpec("cartesian", 1, **BILAYER))
    # a shared-edge point: the lowest cell id containing it wins
    ci = m.locate_cell((0.5, 0.5))
    others = [c for c in range(m.n_cells)
              if point_in_polygon(np.array([0.5, 0.5]), m.vertices[m.edge_start[cell_rows(m, c)]],
                                  1e-12)]
    assert ci == min(others)


def oracle_locate(m, point, subdomain):
    """The lowest-id cell holding `point`, by the one-polygon test cell by cell; None if none."""
    tol = msh.COINCIDENCE_TOL * m.length_scale
    cells = range(m.n_cells) if subdomain is None else m.cells_of_subdomain(subdomain)
    for ci in cells:
        if point_in_polygon(np.asarray(point, dtype=float),
                            m.vertices[m.edge_start[cell_rows(m, ci)]], tol):
            return int(ci)
    return None


def locate_points(m):
    """Cell centroids, vertices shared by two or more cells, face midpoints,
    and points just outside the boundary faces and far outside the mesh."""
    shared = np.nonzero(np.bincount(m.edge_start, minlength=m.n_vertices) >= 2)[0]
    bnd = m.face_neighbor < 0
    h = m.face_measure[bnd][:, None]
    out = m.face_midpoint[bnd] + 1e-3 * h * m.face_normal[bnd]   # normals point out of the owner
    lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    far = np.array([lo - 1.0, hi + 1.0, [lo[0] - 1.0, hi[1] + 1.0]])
    return np.vstack([m.cell_centroid, m.vertices[shared], m.face_midpoint, out, far])


@pytest.mark.parametrize("name", [*TOPOLOGY_MESHES, "nonconforming"])
def test_locate_cell_matches_the_cell_by_cell_scan(name):
    """On every locked topology mesh and the nonconforming operator mesh (hanging
    nodes), the vectorized search returns what the lowest-id scan by the
    one-polygon test returns, with and without each subdomain filter, and
    raises where the scan finds no cell."""
    m = golden_mesh(name) if name == "nonconforming" else TOPOLOGY_MESHES[name]()
    points = locate_points(m)
    raised = 0
    for sub in (None, FLUID, SOLID):
        for point in points:
            want = oracle_locate(m, point, sub)
            if want is None:
                raised += 1
                with pytest.raises(MeshError, match="outside"):
                    m.locate_cell(point, subdomain=sub)
            else:
                assert m.locate_cell(point, subdomain=sub) == want, (point, sub)
    # the boundary and far points fall outside every filter
    assert raised >= 3 * (np.sum(m.face_neighbor < 0) + 3)
