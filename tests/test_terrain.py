import logging

import numpy as np
import pytest

import slopewatch as sw
from slopewatch.errors import CloudFormatError, DegenerateSurface
from slopewatch.terrain import (DeformationField, Region, build_dtm,
                                closest_point_on_triangles, field_stats,
                                mesh_distance, rate_field, read_deformation,
                                read_mesh, region_volume, significant_regions,
                                write_deformation, write_mesh)

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
    cmp_ = build_dtm(cmp_cloud, projection_plane=ref.projection_plane,
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
    # other, so only the tie rule decides its sign
    edge = [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]]
    gentle = [-2 * np.cos(np.radians(30)), 0.0, -2 * np.sin(np.radians(30))]
    steep = [2 * np.cos(np.radians(80)), 0.0, -2 * np.sin(np.radians(80))]
    verts = np.array(edge + [gentle, steep])
    vertex = 0.1 * np.array([np.cos(np.radians(20)), 0.0, np.sin(np.radians(20))])
    compared = sw.TriangleMesh(vertices=vertex[None], triangles=np.zeros((0, 3)),
                               plane_normal=PLANE_Z[0], plane_offset=0.0)
    for faces, sign in (([[0, 1, 2], [0, 1, 3]], -1.0),
                        ([[0, 1, 3], [0, 1, 2]], 1.0)):
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
        assert f.values[0] == sign * dist[0]


def test_mesh_distance_empty_reference():
    mesh = build_dtm(plane_cloud(100, seed=11), projection_plane=PLANE_Z,
                     max_edge=5.0)
    empty = sw.TriangleMesh(vertices=np.zeros((3, 3)),
                            triangles=np.zeros((0, 3), dtype=int),
                            plane_normal=np.array([0, 0, 1.0]),
                            plane_offset=0.0)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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
    assert [r.region_id for r in regions] == [1, 2]
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
    np.testing.assert_allclose(again.vertices + again.origin_shift,
                               mesh.vertices + mesh.origin_shift, atol=1e-9)
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


def test_read_mesh_requires_faces():
    cloud = plane_cloud(10, seed=21)
    data = sw.write_cloud(cloud, "ply")
    with pytest.raises(CloudFormatError):
        read_mesh(data)
