import numpy as np
import pytest

import slopewatch as sw
from slopewatch.cloud import (EpochRecord, SpatialIndex,
                              nearest_neighbors, parse_cloud,
                              validate_epoch_series, write_cloud, write_ply)
from slopewatch.errors import CloudFormatError, CloudParseError


def brute_force_knn(points: np.ndarray, query: np.ndarray, k: int):
    """Exhaustive nearest-neighbor oracle: sorted by (distance, index)."""
    diff = points - query
    dist = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((np.arange(len(points)), dist))[:k]
    return order, dist[order]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_xyz_three_points():
    cloud = parse_cloud(b"0 0 0\n1 0 0\n0 1 0\n", "xyz_ascii")
    assert len(cloud) == 3
    np.testing.assert_allclose(cloud.absolute_points(),
                               [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    # centroid (1/3, 1/3, 0) rounds to whole meters (0, 0, 0)
    np.testing.assert_array_equal(cloud.origin_shift, [0, 0, 0])


def test_parse_xyz_comments_and_intensity():
    text = b"# comment\n1 2 3 42.5\n4 5 6 7\n"
    cloud = parse_cloud(text, "xyz_ascii")
    assert len(cloud) == 2
    np.testing.assert_allclose(cloud.scalars["intensity"], [42.5, 7.0])


def test_parse_xyz_malformed_line_number():
    with pytest.raises(CloudParseError) as err:
        parse_cloud(b"a b c\n", "xyz_ascii")
    assert err.value.line == 1
    with pytest.raises(CloudParseError) as err:
        parse_cloud(b"1 2 3\n\n1 2\n", "xyz_ascii")
    assert err.value.line == 3


def test_parse_xyz_origin_shift_keeps_coordinates_small():
    text = b"500000.5 4000000.25 1200.125\n500010.5 4000020.25 1210.125\n"
    cloud = parse_cloud(text, "xyz_ascii")
    assert np.abs(cloud.points).max() < 100
    np.testing.assert_allclose(
        cloud.absolute_points(),
        [[500000.5, 4000000.25, 1200.125], [500010.5, 4000020.25, 1210.125]])


def test_parse_ply_empty_vertex_element():
    data = write_ply(np.zeros((0, 3)))
    cloud = parse_cloud(data, "ply")
    assert len(cloud) == 0


def test_parse_ply_unsupported_vertex_property():
    header = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
              b"property float x\nproperty float y\nproperty float z\n"
              b"property uchar red\nend_header\n1 2 3 255\n")
    with pytest.raises(CloudFormatError):
        parse_cloud(header, "ply")


def test_parse_ply_not_a_ply():
    with pytest.raises(CloudFormatError):
        parse_cloud(b"definitely not ply", "ply")


# ---------------------------------------------------------------------------
# writing / round trips
# ---------------------------------------------------------------------------


def test_write_empty_cloud_roundtrip():
    empty = sw.PointCloud(points=np.zeros((0, 3)))
    for fmt in ("xyz_ascii", "ply"):
        again = parse_cloud(write_cloud(empty, fmt), fmt)
        assert len(again) == 0


@pytest.mark.parametrize("fmt,binary", [("xyz_ascii", False), ("ply", True),
                                        ("ply", False)])
def test_roundtrip_coordinates(rng, fmt, binary):
    pts = rng.uniform(-50, 50, (64, 3)) + np.array([12345.0, -9876.0, 345.0])
    cloud = sw.PointCloud(points=pts)
    data = write_cloud(cloud, fmt, binary=binary)
    again = parse_cloud(data, fmt)
    assert len(again) == len(cloud)
    np.testing.assert_allclose(again.absolute_points(), cloud.absolute_points(),
                               atol=1e-6)


def test_roundtrip_scalar_exact_double(rng):
    pts = rng.uniform(0, 10, (20, 3))
    disp = rng.normal(0, 0.1, 20)
    cloud = sw.PointCloud(points=pts, scalars={"displacement_m": disp})
    data = write_cloud(cloud, "ply", binary=True, double_precision=True)
    assert b"property double displacement_m" in data.split(b"end_header")[0]
    again = parse_cloud(data, "ply")
    np.testing.assert_array_equal(again.scalars["displacement_m"], disp)


def test_roundtrip_float32_ply_within_declared_precision(rng):
    pts = rng.uniform(0, 10, (20, 3))
    cloud = sw.PointCloud(points=pts)
    again = parse_cloud(write_cloud(cloud, "ply", double_precision=False), "ply")
    np.testing.assert_allclose(again.absolute_points(), pts, atol=1e-5)


def test_roundtrip_preserves_order(rng):
    pts = rng.uniform(0, 10, (100, 3))
    cloud = sw.PointCloud(points=pts)
    for fmt in ("xyz_ascii", "ply"):
        again = parse_cloud(write_cloud(cloud, fmt), fmt)
        np.testing.assert_allclose(again.absolute_points(), pts, atol=1e-6)


def test_include_scalars_flag(rng):
    cloud = sw.PointCloud(points=rng.uniform(0, 1, (5, 3)),
                          scalars={"intensity": np.arange(5.0)})
    data = write_cloud(cloud, "ply", include_scalars=False)
    again = parse_cloud(data, "ply")
    assert "intensity" not in again.scalars


# ---------------------------------------------------------------------------
# invariants of the container
# ---------------------------------------------------------------------------


def test_cloud_rejects_nonfinite():
    with pytest.raises(ValueError):
        sw.PointCloud(points=np.array([[0.0, 0.0, np.inf]]))


def test_cloud_rejects_non_unit_normals():
    with pytest.raises(ValueError):
        sw.PointCloud(points=np.zeros((1, 3)), normals=np.array([[2.0, 0, 0]]))


def test_cloud_rejects_mismatched_scalar():
    with pytest.raises(ValueError):
        sw.PointCloud(points=np.zeros((2, 3)), scalars={"a": np.zeros(3)})


def test_cloud_arrays_immutable(random_cloud):
    with pytest.raises(ValueError):
        random_cloud.points[0, 0] = 99.0


def test_epoch_series_validation():
    import datetime
    a = EpochRecord("I", datetime.date(2013, 3, 14), 6)
    b = EpochRecord("II", datetime.date(2013, 8, 17), 4)
    validate_epoch_series([a, b])
    with pytest.raises(ValueError):
        validate_epoch_series([b, a])
    with pytest.raises(ValueError):
        EpochRecord("X", datetime.date(2020, 1, 1), 0)


# ---------------------------------------------------------------------------
# nearest neighbors
# ---------------------------------------------------------------------------


def test_knn_query_stored_point(random_cloud):
    index = SpatialIndex(random_cloud)
    q = random_cloud.points[17]
    pairs = nearest_neighbors(index, q, 1)
    assert pairs == [(17, 0.0)]


def test_knn_matches_brute_force(rng, random_cloud):
    index = SpatialIndex(random_cloud)
    for q in rng.uniform(0, 10, (100, 3)):
        idx, dist = index.query_knn(q, 5)
        oi, od = brute_force_knn(random_cloud.points, q, 5)
        np.testing.assert_array_equal(idx, oi)
        np.testing.assert_array_equal(dist, od)


def test_knn_k_larger_than_cloud(rng):
    pts = rng.uniform(0, 1, (7, 3))
    index = SpatialIndex(pts)
    idx, dist = index.query_knn(np.array([0.5, 0.5, 0.5]), 20)
    assert len(idx) == 7
    assert np.all(np.diff(dist) >= 0)


def test_knn_tie_break_by_index():
    # symmetric cross: four points at identical distance from the center
    pts = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
    index = SpatialIndex(pts)
    idx, dist = index.query_knn(np.zeros(3), 3)
    np.testing.assert_array_equal(idx, [0, 1, 2])
    np.testing.assert_array_equal(dist, [1, 1, 1])


def test_knn_empty_cloud_errors():
    with pytest.raises(ValueError):
        SpatialIndex(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# normal estimation
# ---------------------------------------------------------------------------


def test_normals_flat_plane(rng):
    pts = np.column_stack([rng.uniform(0, 10, 400), rng.uniform(0, 10, 400),
                           np.zeros(400)])
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=10,
                                viewpoint=(0, 0, 10))
    np.testing.assert_allclose(cloud.normals, np.tile([0, 0, 1], (400, 1)),
                               atol=1e-6)


def test_normals_rotated_plane_matches_eigen_oracle(rng):
    n_true = np.array([0.48, -0.6, 0.64])
    n_true /= np.linalg.norm(n_true)
    u = np.cross(n_true, [0, 0, 1.0])
    u /= np.linalg.norm(u)
    v = np.cross(n_true, u)
    ab = rng.uniform(0, 10, (500, 2))
    pts = ab[:, :1] * u + ab[:, 1:] * v
    vp = 20.0 * n_true
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=12, viewpoint=vp)

    # oracle: eigen-decomposition of one explicit neighborhood
    index = SpatialIndex(pts)
    i0, _ = index.query_knn(pts[0], 12)
    nb = pts[i0]
    cov = np.cov(nb.T, bias=True)
    w, vec = np.linalg.eigh(cov)
    oracle = vec[:, 0]
    if oracle @ (vp - pts[0]) < 0:
        oracle = -oracle
    np.testing.assert_allclose(cloud.normals[0], oracle, atol=1e-9)
    # whole cloud: +-n_true with the sign fixed by the viewpoint
    np.testing.assert_allclose(np.abs(cloud.normals @ n_true), 1.0, atol=1e-6)
    assert np.all((cloud.normals * (vp - pts)).sum(axis=1) >= -1e-12)


def test_normals_k_too_small(random_cloud):
    with pytest.raises(ValueError):
        sw.estimate_normals(random_cloud, k=2, viewpoint=(0, 0, 100))


def test_normals_collinear_flagged_invalid():
    t = np.linspace(0, 1, 30)
    pts = np.column_stack([t, 2 * t, -t])
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=5,
                                viewpoint=(0, 0, 10))
    assert np.isnan(cloud.normals).all()


def test_normals_unit_norm_and_orientation(rng):
    terr, _ = sw.gen_terrain((15, 10), 45, 0.4, 20, seed=3)
    vp = terr.points.mean(axis=0) + np.array([0.0, -20.0, 30.0])
    cloud = sw.estimate_normals(terr, k=12, viewpoint=vp)
    valid = np.all(np.isfinite(cloud.normals), axis=1)
    norms = np.linalg.norm(cloud.normals[valid], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    dots = ((vp - cloud.points[valid]) * cloud.normals[valid]).sum(axis=1)
    assert np.all(dots >= -1e-12)
    assert "curvature" in cloud.scalars


# ---------------------------------------------------------------------------
# voxel downsampling
# ---------------------------------------------------------------------------


def test_voxel_cube_collapses_to_centroid():
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                        for z in (0, 1)], dtype=float)
    out = sw.voxel_downsample(sw.PointCloud(points=corners), 10.0)
    assert len(out) == 1
    np.testing.assert_allclose(out.points[0], [0.5, 0.5, 0.5])


def test_voxel_sparser_than_cell_is_identity_count(rng):
    pts = rng.uniform(0, 100, (50, 3))
    out = sw.voxel_downsample(sw.PointCloud(points=pts), 0.5)
    assert len(out) == 50


def test_voxel_matches_hash_grid_oracle(rng):
    pts = rng.uniform(-5, 5, (2000, 3))
    cell = 0.8
    out = sw.voxel_downsample(sw.PointCloud(points=pts), cell)

    # direct grouping oracle, first-occurrence cell order
    keys = [tuple(k) for k in np.floor(pts / cell).astype(np.int64)]
    seen = {}
    for i, k in enumerate(keys):
        seen.setdefault(k, []).append(i)
    order = sorted(seen.values(), key=lambda idx: idx[0])
    oracle = np.array([pts[idx].sum(axis=0) / len(idx) for idx in order])
    np.testing.assert_array_equal(out.points, oracle)


def test_voxel_idempotent(rng):
    pts = rng.uniform(0, 20, (3000, 3))
    once = sw.voxel_downsample(sw.PointCloud(points=pts), 1.3)
    twice = sw.voxel_downsample(once, 1.3)
    np.testing.assert_array_equal(once.points, twice.points)


def test_voxel_rejects_bad_cell(random_cloud):
    with pytest.raises(ValueError):
        sw.voxel_downsample(random_cloud, 0.0)
