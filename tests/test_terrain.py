import logging
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

import slopewatch as sw
import slopewatch.cloud as cloud_mod
from slopewatch import terrain
from slopewatch.errors import CloudFormatError, DegenerateSurface, NoOverlap
from slopewatch.terrain import (DeformationField, Region, build_dtm,
                                closest_point_on_triangles, field_stats,
                                mesh_distance, rate_field, read_deformation,
                                read_mesh, region_volume, significant_regions,
                                write_deformation, write_mesh)

from ply_literals import FIELD, FIELD_PLY, MESH, MESH_NO_FACES_PLY, MESH_PLY

PLANE_Z = (np.array([0.0, 0.0, 1.0]), 0.0)


def plane_cloud(n, lo=0.0, hi=30.0, z=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(lo, hi, n), rng.uniform(lo, hi, n),
                           np.full(n, z)])
    return sw.PointCloud(points=pts)


def grid_cloud(n=10, z=0.0):
    g = np.mgrid[0:n, 0:n].reshape(2, -1).T.astype(float)
    return sw.PointCloud(points=np.column_stack([g, np.full(len(g), z)]))


# ---------------------------------------------------------------------------
# DTM construction
# ---------------------------------------------------------------------------


def test_dtm_three_points_one_triangle():
    cloud = sw.PointCloud(points=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]))
    mesh = build_dtm(cloud)
    assert len(mesh.triangles) == 1


def test_dtm_regular_grid_triangle_count_and_delaunay():
    n = 10
    mesh = build_dtm(grid_cloud(n), max_edge=3.0)
    assert len(mesh.triangles) == 2 * (n - 1) ** 2

    # empty-circumcircle property for interior triangles, brute force
    uv = mesh.project(mesh.vertices)
    tris = mesh.triangles
    interior = []
    for t in tris:
        pts = uv[t]
        if (pts > 0.5).all() and (pts < n - 1.5).all():
            interior.append(t)
    rng = np.random.default_rng(0)
    for t in [interior[i] for i in rng.choice(len(interior), 20)]:
        ax, ay = uv[t[0]]
        bx, by = uv[t[1]]
        cx, cy = uv[t[2]]
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        r = np.hypot(ax - ux, ay - uy)
        inside = np.hypot(uv[:, 0] - ux, uv[:, 1] - uy) < r - 1e-9
        inside[t] = False
        assert not inside.any()


def test_dtm_duplicate_points_dropped_with_warning(caplog):
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 5.0]])
    with caplog.at_level(logging.WARNING, logger="slopewatch.terrain"):
        mesh = build_dtm(sw.PointCloud(points=pts),
                         projection_plane=PLANE_Z, max_edge=10.0)
    assert len(mesh.vertices) == 3
    assert "1 duplicate" in caplog.text


def test_dtm_collinear_raises():
    t = np.linspace(0, 1, 10)
    line = np.column_stack([t, 2 * t, np.zeros(10)])
    with pytest.raises(DegenerateSurface):
        build_dtm(sw.PointCloud(points=line))


def test_dtm_max_edge_preserves_holes():
    cloud = plane_cloud(4000, seed=1)
    keep = np.linalg.norm(cloud.points[:, :2] - 15.0, axis=1) > 5.0
    holed = cloud.subset(np.flatnonzero(keep))
    mesh = build_dtm(holed, projection_plane=PLANE_Z, max_edge=2.0)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    assert (np.linalg.norm(centroids[:, :2] - 15.0, axis=1) > 3.5).all()


def test_dtm_triangles_positive_area():
    cloud, _ = sw.gen_terrain((20, 15), 70.0, 0.4, 20, seed=2)
    mesh = build_dtm(cloud, max_edge=2.0)
    assert (mesh.triangle_projected_areas() > 0).all()


def test_dtm_at_survey_coordinates_has_the_same_triangles():
    """Qhull triangulates the in-plane coordinates less an anchor, so the
    scene moved 4,400 km out gets the triangles it gets near the origin."""
    cloud, _ = sw.gen_terrain((30, 20), 70.0, 0.3, 20.0, seed=4)
    normal, offset = sw.fit_plane(cloud.points)
    shift = np.array([500010.0, 4400010.0, 100.0])
    far = cloud.with_(points=cloud.points + shift)

    def triangle_set(mesh):
        rows = np.sort(mesh.triangles, axis=1)
        return rows[np.lexsort(rows.T[::-1])]

    near_mesh = build_dtm(cloud, (normal, offset), max_edge=1.0)
    far_mesh = build_dtm(far, (normal, offset + normal @ shift), max_edge=1.0)
    np.testing.assert_array_equal(triangle_set(far_mesh), triangle_set(near_mesh))


# ---------------------------------------------------------------------------
# closest point on triangle
# ---------------------------------------------------------------------------


def test_closest_point_analytic_cases():
    a = np.array([[0.0, 0, 0]])
    b = np.array([[2.0, 0, 0]])
    c = np.array([[0.0, 2, 0]])
    # above the face
    cp = closest_point_on_triangles(np.array([[0.5, 0.5, 3.0]]), a, b, c)
    np.testing.assert_allclose(cp, [[0.5, 0.5, 0]], atol=1e-12)
    # nearest to vertex a
    cp = closest_point_on_triangles(np.array([[-1.0, -1.0, 0.0]]), a, b, c)
    np.testing.assert_allclose(cp, [[0, 0, 0]], atol=1e-12)
    # nearest to edge ab
    cp = closest_point_on_triangles(np.array([[1.0, -2.0, 1.0]]), a, b, c)
    np.testing.assert_allclose(cp, [[1, 0, 0]], atol=1e-12)


def test_closest_point_matches_dense_sampling(rng):
    t_edge = np.linspace(0.0, 1.0, 400)[:, None]
    for _ in range(50):
        tri = rng.normal(size=(3, 3)) * 2
        p = rng.normal(size=3) * 3
        cp = closest_point_on_triangles(p[None, :], tri[None, 0], tri[None, 1],
                                        tri[None, 2])[0]
        d_exact = np.linalg.norm(p - cp)
        # sampling oracle: interior draws plus dense edge/vertex samples;
        # no sampled point may be closer than the reported closest point
        w = rng.dirichlet(np.ones(3), size=4000)
        samples = [w @ tri]
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            samples.append(a + t_edge * (b - a))
        samples = np.vstack(samples)
        d_samples = np.linalg.norm(samples - p, axis=1).min()
        assert d_exact <= d_samples + 1e-12
        assert d_exact == pytest.approx(d_samples, abs=0.01)


# ---------------------------------------------------------------------------
# mesh distance
# ---------------------------------------------------------------------------


def test_mesh_distance_identical_meshes():
    mesh = build_dtm(plane_cloud(2000, seed=3), projection_plane=PLANE_Z,
                     max_edge=3.0)
    f = mesh_distance(mesh, mesh, max_dist=5.0, interval_days=10)
    assert f.valid.all()
    np.testing.assert_array_equal(f.values, 0.0)


def test_mesh_distance_parallel_planes():
    ref = build_dtm(plane_cloud(6000, seed=4), projection_plane=PLANE_Z,
                    max_edge=3.0)
    cmp_ = build_dtm(plane_cloud(3000, lo=3, hi=27, z=0.30, seed=5),
                     projection_plane=PLANE_Z, max_edge=3.0)
    f = mesh_distance(cmp_, ref, max_dist=5.0, interval_days=10)
    stats = field_stats(f)
    assert stats.valid_count == len(cmp_.vertices)
    assert stats.mean == pytest.approx(0.300, abs=1e-6)
    assert stats.std < 1e-9
    # erosion sign when the compared surface sits below
    below = build_dtm(plane_cloud(3000, lo=3, hi=27, z=-0.30, seed=6),
                      projection_plane=PLANE_Z, max_edge=3.0)
    f2 = mesh_distance(below, ref, max_dist=5.0, interval_days=10)
    assert field_stats(f2).mean == pytest.approx(-0.300, abs=1e-6)


def test_mesh_distance_hole_guard():
    base = plane_cloud(6000, seed=7)
    keep = np.linalg.norm(base.points[:, :2] - 15.0, axis=1) > 8.0
    ref = build_dtm(base.subset(np.flatnonzero(keep)),
                    projection_plane=PLANE_Z, max_edge=2.5)
    cmp_ = build_dtm(plane_cloud(3000, seed=8), projection_plane=PLANE_Z,
                     max_edge=2.5)
    f = mesh_distance(cmp_, ref, max_dist=5.0, interval_days=10)
    over_hole = np.linalg.norm(cmp_.vertices[:, :2] - 15.0, axis=1) < 7.0
    assert (~f.valid[over_hole]).all()
    assert np.nanmax(np.abs(f.values)) <= 5.0
    regions = significant_regions(cmp_, rate_field(f), 2.0, 10.0)
    assert regions == []


def test_mesh_distance_matches_brute_force(rng):
    ref_cloud, _ = sw.gen_terrain((12, 9), 50.0, 0.5, 12, seed=9)
    ref = build_dtm(ref_cloud, max_edge=2.0)
    cmp_cloud, _ = sw.gen_terrain((12, 9), 50.0, 0.5, 6, seed=10)
    cmp_ = build_dtm(cmp_cloud, projection_plane=(ref.plane_normal, ref.plane_offset),
                     max_edge=2.0)
    f = mesh_distance(cmp_, ref, max_dist=5.0, interval_days=10)
    tris = ref.triangles
    a = ref.vertices[tris[:, 0]]
    b = ref.vertices[tris[:, 1]]
    c = ref.vertices[tris[:, 2]]
    for i in rng.choice(len(cmp_.vertices), 60, replace=False):
        v = cmp_.vertices[i]
        cps = closest_point_on_triangles(
            np.broadcast_to(v, (len(tris), 3)).copy(), a, b, c)
        brute = np.linalg.norm(v - cps, axis=1).min()
        if f.valid[i]:
            assert abs(f.values[i]) == pytest.approx(brute, abs=1e-12)


def test_mesh_distance_ties_go_to_the_lowest_triangle():
    # two faces folding down from a shared ridge edge on the y axis, one at
    # 30 and one at 80 degrees: a vertex beside the ridge is equally near
    # both (closest point on the edge) but above one face and below the
    # other. The sign comes from the plane normal, so it is the same (+,
    # the vertex is above the ridge) whichever tied triangle wins
    edge = [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
    gentle = [-2 * np.cos(np.radians(30)), 0.0, -2 * np.sin(np.radians(30))]
    steep = [2 * np.cos(np.radians(80)), 0.0, -2 * np.sin(np.radians(80))]
    verts = np.array(edge + [gentle, steep])
    vertex = 0.1 * np.array([np.cos(np.radians(20)), 0.0, np.sin(np.radians(20))])
    compared = sw.TriangleMesh(vertices=vertex[None], triangles=np.zeros((0, 3)),
                               plane_normal=PLANE_Z[0], plane_offset=0.0)
    for faces in ([[0, 1, 2], [0, 1, 3]], [[0, 1, 3], [0, 1, 2]]):
        faces = np.array(faces)
        cps = closest_point_on_triangles(
            np.tile(vertex, (2, 1)), verts[faces[:, 0]], verts[faces[:, 1]],
            verts[faces[:, 2]])
        dist = np.linalg.norm(vertex - cps, axis=1)
        assert dist[0] == dist[1]
        reference = sw.TriangleMesh(vertices=verts, triangles=faces,
                                    plane_normal=PLANE_Z[0], plane_offset=0.0)
        f = mesh_distance(compared, reference, max_dist=5.0)
        assert f.valid[0]
        assert f.values[0] == dist[0]


def test_mesh_distance_vertical_reference_face_supports_only_its_segment():
    # a vertical face projects onto a segment of zero area: a vertex beside
    # it has no reference surface under it, one on the segment has
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [2, 0, 0], [2, 1, 0], [2, 0.5, 1.0]], dtype=float)
    reference = sw.TriangleMesh(vertices=verts,
                                triangles=np.array([[0, 1, 2], [3, 4, 5]]),
                                plane_normal=PLANE_Z[0], plane_offset=0.0)
    beside, on_segment, on_flat = [2.3, 0.5, 0.5], [2.0, 0.5, 1.2], [0.25, 0.25, 0.1]
    compared = sw.TriangleMesh(vertices=np.array([beside, on_segment, on_flat]),
                               triangles=np.zeros((0, 3)),
                               plane_normal=PLANE_Z[0], plane_offset=0.0)
    f = mesh_distance(compared, reference, max_dist=5.0)
    np.testing.assert_array_equal(f.valid, [False, True, True])
    assert f.values[1] == pytest.approx(0.2, abs=1e-12)
    assert f.values[2] == pytest.approx(0.1, abs=1e-12)


def _rim_and_shared_edges(mesh):
    t = mesh.triangles
    e = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    edges, counts = np.unique(e, axis=0, return_counts=True)
    return edges[counts == 1], edges[counts == 2]


def test_mesh_distance_hole_mask_matches_brute_force():
    cloud, _ = sw.gen_terrain((12, 9), 50.0, 0.5, 12, seed=22)
    centre = cloud.points.mean(axis=0)
    ref = build_dtm(cloud.subset(np.flatnonzero(
        np.linalg.norm(cloud.points - centre, axis=1) > 2.0)), max_edge=1.2)
    uv = ref.project(ref.vertices)
    assert len(ref.triangles) < len(Delaunay(uv).simplices)   # edges dropped
    cmp_cloud, _ = sw.gen_terrain((12, 9), 50.0, 0.5, 6, seed=23)
    cmp_ = build_dtm(cmp_cloud, projection_plane=(ref.plane_normal, ref.plane_offset),
                     max_edge=1.2)
    rim, shared = _rim_and_shared_edges(ref)
    rv = ref.vertices
    verts = np.vstack([cmp_.vertices,
                       rv,                                   # on vertices
                       (rv[shared[::5, 0]] + rv[shared[::5, 1]]) / 2,
                       (rv[rim[:, 0]] + rv[rim[:, 1]]) / 2])
    compared = sw.TriangleMesh(vertices=verts, triangles=np.zeros((0, 3)),
                               plane_normal=ref.plane_normal,
                               plane_offset=ref.plane_offset)
    max_dist = 0.4
    f = mesh_distance(compared, ref, max_dist=max_dist)

    a, b, c = (rv[ref.triangles[:, k]] for k in range(3))
    ua, ub, uc = (uv[ref.triangles[:, k]] for k in range(3))
    q = ref.project(verts)

    def edge_side(o, d, p):     # signed distance from edge o -> d, left > 0
        e = d - o
        return ((e[:, 0] * (p[:, None, 1] - o[:, 1])
                 - e[:, 1] * (p[:, None, 0] - o[:, 0]))
                / np.linalg.norm(e, axis=1))

    # build_dtm orients every triangle counter-clockwise in the plane, so a
    # point is inside when it lies left of (or on) all three edges
    inside = np.zeros(len(verts), dtype=bool)
    near = np.zeros(len(verts), dtype=bool)
    for s in range(0, len(verts), 100):
        p = q[s:s + 100]
        inside[s:s + 100] = ((edge_side(ua, ub, p) >= -1e-9)
                             & (edge_side(ub, uc, p) >= -1e-9)
                             & (edge_side(uc, ua, p) >= -1e-9)).any(axis=1)
        for i in range(s, min(s + 100, len(verts))):
            pts = np.broadcast_to(verts[i], a.shape).copy()
            d = np.linalg.norm(pts - closest_point_on_triangles(pts, a, b, c),
                               axis=1)
            near[i] = d.min() <= max_dist
    np.testing.assert_array_equal(f.valid, inside & near)
    # every case occurs: valid, over the hole, beyond max_dist
    assert f.valid.any() and (~inside).any() and (inside & ~near).any()
    assert f.valid[len(cmp_.vertices):].all()


def _brute_force_field(verts, reference, max_dist):
    """(values, valid, distance, nearest covers) of ``mesh_distance``,
    triangle by triangle: the sign is taken along ``normal`` from the
    lowest-index nearest triangle's closest point, and the last array says
    whether that triangle covers the vertex in plan."""
    rv, tris, normal = reference.vertices, reference.triangles, reference.plane_normal
    a, b, c = (rv[tris[:, k]] for k in range(3))
    uv = reference.project(rv)
    ua, ub, uc = (uv[tris[:, k]] for k in range(3))
    q = reference.project(verts)
    values = np.full(len(verts), np.nan)
    valid = np.zeros(len(verts), dtype=bool)
    dist = np.zeros(len(verts))
    covers = np.zeros(len(verts), dtype=bool)
    for i, v in enumerate(verts):
        pts = np.broadcast_to(v, a.shape).copy()
        cps = closest_point_on_triangles(pts, a, b, c)
        d = np.linalg.norm(pts - cps, axis=1)
        t = np.flatnonzero(d == d.min())[0]
        qi = np.broadcast_to(q[i], ua.shape).copy()
        plan = np.linalg.norm(qi - closest_point_on_triangles(qi, ua, ub, uc),
                              axis=1)
        dist[i] = d[t]
        covers[i] = plan[t] <= 1e-9
        valid[i] = d[t] <= max_dist and plan.min() <= 1e-9
        side = (v - cps[t]) @ normal
        if valid[i]:
            values[i] = d[t] if side >= 0 else -d[t]
    return values, valid, dist, covers


def _grid_triangles(n, base=0):
    """Two triangles per cell of an n x n vertex grid numbered row by row
    from ``base``."""
    k = base + (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
    return np.vstack([np.column_stack([k, k + n, k + 1]),
                      np.column_stack([k + 1, k + n, k + n + 1])]).tolist()


def _mixed_size_reference():
    """Fine 0.5 m cells beside 2.5 m cells on one wavy surface and one
    20 m apron beyond them: triangles of three sizes, and a few large
    ones that reach far beyond the fine ones."""
    verts, tris = [], []
    for y0, step in ((0.0, 0.5), (10.0, 2.5)):
        n = int(round(10.0 / step)) + 1
        g = np.mgrid[0:n, 0:n].reshape(2, -1).T * step
        tris += _grid_triangles(n, len(verts))
        verts.extend([x, y0 + y, 0.3 * np.sin(x) * np.cos(y0 + y)] for x, y in g)
    verts += [[-5.0, 22.0, 0.0], [15.0, 22.0, 0.0], [5.0, 26.0, 0.0]]
    tris.append([len(verts) - 3, len(verts) - 2, len(verts) - 1])
    return sw.TriangleMesh(vertices=np.array(verts), triangles=np.array(tris),
                           plane_normal=PLANE_Z[0], plane_offset=0.0)


def _overhang_reference():
    """Ground at z = 0 over x in [0, 4] under a shelf at z = 1 over x in
    [2, 6]: beside the shelf's free edge the nearest triangle is the shelf,
    which does not cover the vertex in plan; the ground does up to x = 4."""
    verts = np.array([[2, 0, 1], [6, 0, 1], [6, 4, 1], [2, 4, 1],
                      [0, 0, 0], [4, 0, 0], [4, 4, 0], [0, 4, 0]], dtype=float)
    return sw.TriangleMesh(vertices=verts,
                           triangles=np.array([[0, 1, 2], [0, 2, 3],
                                               [4, 5, 6], [4, 6, 7]]),
                           plane_normal=PLANE_Z[0], plane_offset=0.0)


def _tilted_case():
    """A wavy 0.25 m grid on a plane tilted 60 degrees, and vertices 1 to 3 m
    (4 to 12 grid cells) off it along its normal, some beside it."""
    tilt = np.radians(60.0)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(tilt), -np.sin(tilt)],
                    [0.0, np.sin(tilt), np.cos(tilt)]])
    n = 21
    g = np.mgrid[0:n, 0:n].reshape(2, -1).T * 0.25
    surface = np.column_stack([g, 0.2 * np.sin(2 * g[:, 0]) * np.cos(3 * g[:, 1])])
    reference = sw.TriangleMesh(vertices=surface @ rot.T,
                                triangles=np.array(_grid_triangles(n)),
                                plane_normal=rot[:, 2], plane_offset=0.0)
    rng = np.random.default_rng(41)
    off = rng.uniform(1.0, 3.0, 400) * rng.choice([-1.0, 1.0], 400)
    local = np.column_stack([rng.uniform(-1.0, 6.0, (400, 2)), off])
    return reference, local @ rot.T


def _huge_and_tiny_case():
    """5,000 triangles of a wavy 0.1 m grid under three huge ones: a 2 km
    plate 0.4 m below, a 1 km plate 1 m above the grid's far half, and a
    sliver to a vertex 1e9 m away. The huge ones alone would list in
    billions of 0.1 m cells."""
    n = 51
    g = np.mgrid[0:n, 0:n].reshape(2, -1).T * 0.1
    verts = np.vstack([
        np.column_stack([g, 0.05 * np.sin(4 * g[:, 0]) * np.cos(5 * g[:, 1])]),
        [[-1000.0, -1000.0, -0.4], [1000.0, -1000.0, -0.4], [0.0, 1000.0, -0.4],
         [2.5, -500.0, 1.0], [2.5, 500.0, 1.0], [1000.0, 0.0, 1.0],
         [4.0, 4.0, 0.3], [4.0, 4.2, 0.3], [1e9, 4.1, 0.3]]])
    big = n * n + np.arange(9).reshape(3, 3)
    reference = sw.TriangleMesh(vertices=verts,
                                triangles=np.vstack([_grid_triangles(n), big]),
                                plane_normal=PLANE_Z[0], plane_offset=0.0)
    rng = np.random.default_rng(43)
    return reference, np.column_stack([rng.uniform(-0.5, 5.5, (600, 2)),
                                       rng.uniform(-1.0, 1.5, 600)])


def _brute_force_case(case):
    """(reference, compared) meshes of a brute-force comparison; the
    compared mesh is only its vertices."""
    if case in ("tilted", "huge-and-tiny"):
        reference, verts = (_tilted_case if case == "tilted" else _huge_and_tiny_case)()
        return reference, sw.TriangleMesh(
            vertices=verts, triangles=np.zeros((0, 3)),
            plane_normal=reference.plane_normal, plane_offset=0.0)
    if case == "mixed-sizes":
        reference = _mixed_size_reference()
        rng = np.random.default_rng(31)
        n = 600
        xy = rng.uniform([-1.0, -1.0], [11.0, 21.0], (n, 2))
        z = 0.3 * np.sin(xy[:, 0]) * np.cos(xy[:, 1]) + rng.uniform(-0.7, 0.7, n)
        verts = np.column_stack([xy, z])
    else:
        reference = _overhang_reference()
        verts = np.array([[x, y, z] for x in np.arange(-0.5, 6.75, 0.25)
                          for y in (1.0, 2.3) for z in (0.45, 0.9, 1.1)])
    compared = sw.TriangleMesh(vertices=verts, triangles=np.zeros((0, 3)),
                               plane_normal=PLANE_Z[0], plane_offset=0.0)
    return reference, compared


@pytest.mark.parametrize("case", ["mixed-sizes", "overhang", "tilted",
                                  "huge-and-tiny"])
def test_mesh_distance_equals_brute_force_on_every_vertex(case):
    reference, compared = _brute_force_case(case)
    verts = compared.vertices
    max_dist = 2.5 if case == "tilted" else 0.5
    f = mesh_distance(compared, reference, max_dist=max_dist)
    values, valid, dist, covers = _brute_force_field(verts, reference, max_dist)
    np.testing.assert_array_equal(f.valid, valid)
    np.testing.assert_array_equal(f.values, values)
    near = dist <= max_dist
    assert (valid & covers).any() and (~near).any()
    # near but over a hole, except where the 2 km plate lies under all
    assert (near & ~valid).any() == (case != "huge-and-tiny")
    if case == "overhang":
        assert (valid & ~covers).any()      # supported by another triangle
        assert (~valid & near & (verts[:, 0] > 6)).any()
    if case == "tilted":                    # valid on both sides, many cells off
        assert (valid & (values > 1.0)).any() and (valid & (values < -1.0)).any()
    if case == "huge-and-tiny":             # off the grid, over the 2 km plate
        beside = (verts[:, :2] < 0).any(axis=1) | (verts[:, :2] > 5).any(axis=1)
        assert (valid & beside).any() and (valid & ~beside).any()


def test_mesh_distance_does_not_depend_on_blocks_or_threads(monkeypatch,
                                                          serial_blocks):
    cases = [_brute_force_case(case) for case in ("mixed-sizes", "tilted")]
    want = [mesh_distance(compared, reference, max_dist=2.5)
            for reference, compared in cases]
    serial_blocks()
    # candidate chunks of 5 pairs split vertices' windows and cells' lists
    chunks, real = [], terrain._ragged

    def small_chunks(counts, budget=5):
        for run, offset in real(counts, budget):
            chunks.append(len(run))
            yield run, offset

    monkeypatch.setattr(terrain, "_ragged", small_chunks)
    for (reference, compared), w in zip(cases, want):
        got = mesh_distance(compared, reference, max_dist=2.5)
        np.testing.assert_array_equal(got.values, w.values)
        np.testing.assert_array_equal(got.valid, w.valid)
    assert len(chunks) > 1000


def test_mesh_distance_works_in_bounded_memory(monkeypatch):
    """Two 20,000-point DTMs, the reference of 39,876 triangles: the call
    holds 12.8 MB at the most at once. Traced on one pool thread, since two
    interleave their allocations and the peak would not repeat."""
    def rough(seed, dz):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0.0, [60.0, 40.0], (20_000, 2))
        z = (0.5 * np.sin(xy[:, 0] / 3) * np.cos(xy[:, 1] / 4)
             + rng.normal(0, 0.05, len(xy)))
        return build_dtm(sw.PointCloud(points=np.column_stack([xy, z + dz])),
                         projection_plane=PLANE_Z, max_edge=3.0)

    reference, compared = rough(1, 0.0), rough(2, 0.1)
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(cloud_mod, "_POOL", pool)
        tracemalloc.start()
        try:
            f = mesh_distance(compared, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert f.valid.sum() == 19_890
    assert peak < 15 * 2**20


def test_mesh_distance_plans_only_vertices_their_nearest_triangle_leaves_open(
        monkeypatch):
    builds, searches, real = [], [], terrain._nearest_triangle

    def counting(data):
        builds.append(len(data))
        return cKDTree(data)

    def search(pts, *args):
        searches.append(pts.shape)
        return real(pts, *args)

    monkeypatch.setattr(terrain, "cKDTree", counting)
    monkeypatch.setattr(terrain, "_nearest_triangle", search)
    ref = build_dtm(plane_cloud(6000, seed=4), projection_plane=PLANE_Z,
                    max_edge=3.0)
    above = build_dtm(plane_cloud(3000, lo=3, hi=27, z=0.30, seed=5),
                      projection_plane=PLANE_Z, max_edge=3.0)
    assert mesh_distance(above, ref).valid.all()
    assert builds == [len(ref.triangles)]    # one centroid tree
    assert searches == [above.vertices.shape]          # the 3-D search only
    builds.clear()
    searches.clear()
    base = plane_cloud(6000, seed=7)
    keep = np.linalg.norm(base.points[:, :2] - 15.0, axis=1) > 8.0
    holed = build_dtm(base.subset(np.flatnonzero(keep)),
                      projection_plane=PLANE_Z, max_edge=2.5)
    f = mesh_distance(above, holed)
    assert not f.valid.all()
    assert builds == [len(holed.triangles)]  # the in-plane search adds none
    # and the in-plane search gets only near vertices left open, in 2-D:
    # fewer than the invalid ones, most of which lie beyond max_dist
    assert len(searches) == 2 and searches[1][1] == 2
    assert 0 < searches[1][0] < (~f.valid).sum()


def test_mesh_distance_empty_reference():
    mesh = build_dtm(plane_cloud(100, seed=11), projection_plane=PLANE_Z,
                     max_edge=5.0)
    empty = sw.TriangleMesh(vertices=np.zeros((3, 3)),
                            triangles=np.zeros((0, 3), dtype=int),
                            plane_normal=np.array([0, 0, 1.0]),
                            plane_offset=0.0)
    with pytest.raises(DegenerateSurface, match="no triangles"):
        mesh_distance(mesh, empty, 5.0, 10)


# ---------------------------------------------------------------------------
# field statistics and rates
# ---------------------------------------------------------------------------


def make_field(values, interval=100.0):
    values = np.asarray(values, dtype=float)
    return DeformationField(values=values,
                            valid=np.isfinite(values), interval_days=interval)


def test_field_stats_constant():
    stats = field_stats(make_field(np.full(10, 3.25)))
    assert stats.mean == 3.25 and stats.std == 0.0 and stats.valid_count == 10


def test_field_stats_symmetric():
    stats = field_stats(make_field([-1.0, 1.0]))
    assert stats.mean == 0.0 and stats.std == 1.0


def test_field_stats_matches_two_pass_oracle(rng):
    vals = rng.normal(0.1, 2.0, 10_000)
    stats = field_stats(make_field(vals))
    mean = vals.sum() / len(vals)
    std = np.sqrt(((vals - mean) ** 2).sum() / len(vals))
    assert stats.mean == mean
    assert stats.std == std


def test_field_stats_ignores_invalid():
    vals = np.array([1.0, np.nan, 3.0])
    field = DeformationField(values=vals, valid=np.array([True, False, True]),
                             interval_days=10)
    assert field_stats(field).valid_count == 2
    with pytest.raises(NoOverlap):
        field_stats(DeformationField(values=np.array([np.nan]),
                                     valid=np.array([False]),
                                     interval_days=10))


def test_rate_field_quotient():
    # 30.8 cm over 311 days is 0.99 mm/day
    f = make_field(np.full(5, 0.308), interval=311.0)
    rates = rate_field(f)
    assert rates[0] == pytest.approx(0.99, abs=0.005)


def test_rate_field_zero_and_unit():
    assert rate_field(make_field([0.0], interval=50))[0] == 0.0
    # 2 mm over 1 day sits exactly at a 2 mm/day highlight threshold
    assert rate_field(make_field([0.002], interval=1.0))[0] == pytest.approx(2.0)


def test_rate_field_halves_exactly_when_interval_doubles(rng):
    vals = rng.normal(0, 0.5, 1000)
    r1 = rate_field(make_field(vals, interval=77.0))
    r2 = rate_field(make_field(vals, interval=154.0))
    np.testing.assert_array_equal(r1 / 2.0, r2)


def test_rate_field_magnitude():
    rates = rate_field(make_field([-0.5, 0.5], interval=100))
    np.testing.assert_allclose(rates, [5.0, 5.0])


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def rates_for_patch(mesh, centers, radius, high=5.0, low=0.5):
    uv = mesh.project(mesh.vertices)
    rates = np.full(len(mesh.vertices), low)
    for c in centers:
        inside = np.linalg.norm(uv - np.asarray(c), axis=1) < radius
        rates[inside] = high
    return rates


def test_edge_list_is_the_sorted_unique_edge_rows():
    mesh = build_dtm(plane_cloud(2000, seed=12), projection_plane=PLANE_Z,
                     max_edge=3.0)
    t = mesh.triangles
    e = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    np.testing.assert_array_equal(mesh.edge_list(), np.unique(e, axis=0))


def test_regions_empty_below_threshold():
    mesh = build_dtm(plane_cloud(2000, seed=12), projection_plane=PLANE_Z,
                     max_edge=3.0)
    rates = np.full(len(mesh.vertices), 0.5)
    assert significant_regions(mesh, rates, 2.0, 1.0) == []


def test_regions_injected_patch_area():
    mesh = build_dtm(plane_cloud(30_000, seed=13), projection_plane=PLANE_Z,
                     max_edge=2.0)
    # 20 m x 20 m square patch above threshold
    uv = mesh.project(mesh.vertices)
    rates = np.where(((uv > 5.0) & (uv < 25.0)).all(axis=1), 5.0, 0.5)
    regions = significant_regions(mesh, rates, 2.0, 25.0)
    assert len(regions) == 1
    assert regions[0].area_m2 == pytest.approx(400.0, rel=0.10)


def test_regions_two_disjoint_patches():
    mesh = build_dtm(plane_cloud(20_000, seed=14), projection_plane=PLANE_Z,
                     max_edge=2.0)
    rates = rates_for_patch(mesh, [(7, 7), (22, 22)], radius=3.0)
    regions = significant_regions(mesh, rates, 2.0, 5.0)
    assert len(regions) == 2
    # connectivity oracle: the two vertex sets live around different centers
    uv = mesh.project(mesh.vertices)
    for r in regions:
        centers = np.linalg.norm(uv[r.vertex_set, None, :]
                                 - np.array([[7, 7], [22, 22]])[None], axis=2)
        assert (centers.min(axis=1) < 3.5).all()
        near = centers < 3.5
        assert near[:, 0].all() or near[:, 1].all()


def test_regions_partition_properties():
    mesh = build_dtm(plane_cloud(20_000, seed=15), projection_plane=PLANE_Z,
                     max_edge=2.0)
    rates = rates_for_patch(mesh, [(8, 8), (20, 20)], radius=4.0)
    rates[:50] = np.nan   # invalid vertices never join
    regions = significant_regions(mesh, rates, 2.0, 1.0)
    all_members = np.concatenate([r.vertex_set for r in regions])
    assert len(np.unique(all_members)) == len(all_members)
    with np.errstate(invalid="ignore"):
        assert (rates[all_members] > 2.0).all()
    assert not np.isin(np.arange(50), all_members).any()
    areas = [r.area_m2 for r in regions]
    assert areas == sorted(areas, reverse=True)


def test_regions_sorted_and_numbered():
    mesh = build_dtm(plane_cloud(20_000, seed=16), projection_plane=PLANE_Z,
                     max_edge=2.0)
    rates = rates_for_patch(mesh, [(8, 8)], radius=6.0)
    rates = np.maximum(rates, rates_for_patch(mesh, [(23, 23)], radius=2.5))
    regions = significant_regions(mesh, rates, 2.0, 1.0)
    assert [r.region_id for r in regions] == [None, None]
    assert regions[0].area_m2 > regions[1].area_m2


# ---------------------------------------------------------------------------
# region volume
# ---------------------------------------------------------------------------


def test_region_volume_uniform_patch():
    side = np.linspace(0, 10, 41)
    gx, gy = np.meshgrid(side, side)
    cloud = sw.PointCloud(points=np.column_stack(
        [gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
    mesh = build_dtm(cloud, projection_plane=PLANE_Z, max_edge=1.0)
    field = make_field(np.full(len(mesh.vertices), 0.5))
    region = Region(vertex_set=np.arange(len(mesh.vertices)), area_m2=100.0,
                    mean_rate_mm_day=5.0)
    assert region_volume(region, field, mesh) == pytest.approx(50.0, rel=0.01)


def test_region_volume_zero_displacement():
    mesh = build_dtm(grid_cloud(8), projection_plane=PLANE_Z, max_edge=2.0)
    field = make_field(np.zeros(len(mesh.vertices)))
    region = Region(vertex_set=np.arange(len(mesh.vertices)), area_m2=49.0,
                    mean_rate_mm_day=1.0)
    assert region_volume(region, field, mesh) == 0.0


def test_region_volume_gaussian_bump_quadrature():
    side = np.linspace(0, 20, 101)
    gx, gy = np.meshgrid(side, side)
    cloud = sw.PointCloud(points=np.column_stack(
        [gx.ravel(), gy.ravel(), np.zeros(gx.size)]))
    mesh = build_dtm(cloud, projection_plane=PLANE_Z, max_edge=0.5)
    uv = mesh.project(mesh.vertices)
    r2 = ((uv - 10.0) ** 2).sum(axis=1)
    disp = 0.8 * np.exp(-r2 / (2 * 3.0**2))
    field = make_field(disp)
    region = Region(vertex_set=np.arange(len(mesh.vertices)), area_m2=400.0,
                    mean_rate_mm_day=1.0)
    vol = region_volume(region, field, mesh)

    # fine-grid quadrature oracle
    step = 0.05
    q = np.arange(0, 20, step) + step / 2
    qx, qy = np.meshgrid(q, q)
    qr2 = (qx - 10.0) ** 2 + (qy - 10.0) ** 2
    oracle = (0.8 * np.exp(-qr2 / (2 * 3.0**2))).sum() * step * step
    assert vol == pytest.approx(oracle, rel=0.05)


def test_region_volume_additive_over_disjoint():
    mesh = build_dtm(plane_cloud(20_000, seed=17), projection_plane=PLANE_Z,
                     max_edge=2.0)
    rates = rates_for_patch(mesh, [(8, 8), (22, 22)], radius=4.0)
    field = make_field(np.where(rates > 2.0, 0.4, 0.0))
    regions = significant_regions(mesh, rates, 2.0, 1.0)
    assert len(regions) == 2
    v1 = region_volume(regions[0], field, mesh)
    v2 = region_volume(regions[1], field, mesh)
    merged = Region(vertex_set=np.concatenate([regions[0].vertex_set,
                                               regions[1].vertex_set]),
                    area_m2=regions[0].area_m2 + regions[1].area_m2,
                    mean_rate_mm_day=1.0)
    assert region_volume(merged, field, mesh) == pytest.approx(v1 + v2,
                                                               rel=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_mesh_roundtrip():
    cloud, _ = sw.gen_terrain((15, 10), 60.0, 0.4, 15, seed=18)
    mesh = build_dtm(cloud, max_edge=2.0)
    again, scalars = read_mesh(write_mesh(mesh))
    np.testing.assert_array_equal(again.vertices, mesh.vertices)
    np.testing.assert_array_equal(again.triangles, mesh.triangles)
    np.testing.assert_allclose(again.plane_normal, mesh.plane_normal,
                               atol=1e-12)


def test_deformation_roundtrip():
    ref = build_dtm(plane_cloud(3000, seed=19), projection_plane=PLANE_Z,
                    max_edge=3.0)
    cmp_ = build_dtm(plane_cloud(1500, lo=3, hi=27, z=0.2, seed=20),
                     projection_plane=PLANE_Z, max_edge=3.0)
    f = mesh_distance(cmp_, ref, max_dist=5.0, interval_days=156,
                      compared_epoch="II", reference_epoch="I")
    data = write_deformation(cmp_, f)
    header = data.split(b"end_header")[0]
    for name in (b"displacement_m", b"rate_mm_day", b"valid"):
        assert b"property double " + name in header
    mesh2, f2 = read_deformation(data)
    np.testing.assert_array_equal(f2.valid, f.valid)
    np.testing.assert_allclose(f2.values[f2.valid], f.values[f.valid],
                               atol=1e-12)
    assert f2.interval_days == 156
    assert f2.compared_epoch == "II" and f2.reference_epoch == "I"


def _assert_same_mesh(a, b):
    for name in ("vertices", "triangles", "plane_normal"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.plane_offset == b.plane_offset


@pytest.mark.parametrize("binary", [True, False])
def test_mesh_without_faces_roundtrip(binary):
    mesh = sw.TriangleMesh(vertices=np.eye(3), triangles=np.zeros((0, 3)),
                           plane_normal=PLANE_Z[0], plane_offset=0.0)
    data = write_mesh(mesh) if binary else MESH_NO_FACES_PLY
    assert b"element face 0" in data
    again, _ = read_mesh(data)
    _assert_same_mesh(again, read_mesh(write_mesh(mesh))[0])
    assert again.triangles.shape == (0, 3)
    np.testing.assert_array_equal(again.vertices, np.eye(3))


def test_ascii_mesh_reads_like_binary():
    mesh, scalars = read_mesh(MESH_PLY)
    binary, binary_scalars = read_mesh(write_mesh(MESH))
    _assert_same_mesh(mesh, binary)
    assert scalars == binary_scalars == {}


def test_ascii_field_reads_like_binary():
    mesh, field = read_deformation(FIELD_PLY)
    binary, binary_field = read_deformation(write_deformation(MESH, FIELD))
    _assert_same_mesh(mesh, binary)
    for f in (field, binary_field):
        np.testing.assert_array_equal(f.values, FIELD.values)
        np.testing.assert_array_equal(f.valid, FIELD.valid)
        assert (f.interval_days, f.compared_epoch, f.reference_epoch) == (
            4.0, "II", "I")


def test_read_mesh_requires_faces():
    cloud = plane_cloud(10, seed=21)
    data = sw.write_cloud(cloud)
    with pytest.raises(CloudFormatError):
        read_mesh(data)
