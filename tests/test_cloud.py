from concurrent.futures import ThreadPoolExecutor
from threading import current_thread, main_thread

import numpy as np
import pytest
from scipy.spatial import cKDTree

import slopewatch as sw
import slopewatch.cloud as cloud_mod
from slopewatch.cloud import (EpochRecord, parse_cloud, plane_basis,
                              remove_outliers, surface_spacing, write_cloud,
                              write_ply)
from slopewatch.errors import CloudFormatError, DegenerateSurface
from slopewatch.terrain import read_mesh

from ply_literals import CLOUD, CLOUD_PLY, CLOUD_XYZ


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
    np.testing.assert_allclose(cloud.points,
                               [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_parse_xyz_comments_and_intensity():
    text = b"# comment\n1 2 3 42.5\n4 5 6 7\n"
    cloud = parse_cloud(text, "xyz_ascii")
    assert len(cloud) == 2
    np.testing.assert_allclose(cloud.scalars["intensity"], [42.5, 7.0])


def test_parse_xyz_malformed_line_number():
    with pytest.raises(CloudFormatError, match=r"\(record 1\)"):
        parse_cloud(b"a b c\n", "xyz_ascii")
    with pytest.raises(CloudFormatError, match=r"\(record 3\)"):
        parse_cloud(b"1 2 3\n\n1 2\n", "xyz_ascii")


def test_parse_xyz_keeps_survey_coordinates_exact():
    text = b"500000.123 4000000.987 1200.001\n500010.5 4000020.25 1210.125\n"
    cloud = parse_cloud(text, "xyz_ascii")
    np.testing.assert_array_equal(
        cloud.points,
        [[500000.123, 4000000.987, 1200.001], [500010.5, 4000020.25, 1210.125]])


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


_XYZ = "property float x\nproperty float y\nproperty float z\n"
_FACE = "element face 1\nproperty list uchar int vertex_indices\n"


@pytest.mark.parametrize("reader,text", [
    ("cloud", "format ascii 1.0\nelement vertex 3\n" + _XYZ
     + "end_header\n0 0 0\n1 1 1\n"),                     # body too short
    ("cloud", "format ascii 1.0\nelement vertex abc\n" + _XYZ + "end_header\n"),
    ("cloud", "format ascii 1.0\nelement vertex\n" + _XYZ + "end_header\n"),
    ("cloud", "format\nelement vertex 0\n" + _XYZ + "end_header\n"),
    ("cloud", "format ascii 1.0\nelement vertex 1\nproperty float\n"
     "end_header\n0\n"),
    ("cloud", "format ascii 1.0\nelement vertex 1\n" + _XYZ
     + "end_header\n0 abc 0\n"),
    ("cloud", "format binary_little_endian 1.0\nelement vertex -1\n" + _XYZ
     + "end_header\n" + "\0" * 24),
    ("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ
     + "element face 2\nproperty list uchar int vertex_indices\nend_header\n"
     "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n"),          # short face row
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ
                 + "element face 1\nend_header\n0 0 0\n1 0 0\n0 1 0\n",
                 id="mesh-face-without-property"),
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ + _FACE
                 + "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n",
                 id="mesh-face-index-past-vertex-count"),
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ + _FACE
                 + "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -1\n",
                 id="mesh-negative-face-index"),
    pytest.param("mesh", "format binary_little_endian 1.0\nelement vertex 3\n"
                 + _XYZ + "element face 1\nproperty list char int vertex_indices\n"
                 "end_header\n" + "\0" * 36 + "\xff" + "\0" * 12,
                 id="mesh-negative-binary-list-count"),
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ
                 + "element face 1\nproperty uchar flags\nend_header\n"
                 "0 0 0\n1 0 0\n0 1 0\n1\n", id="mesh-face-without-list"),
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ + _FACE
                 + "property list uchar int more_indices\nend_header\n"
                 "0 0 0\n1 0 0\n0 1 0\n3 0 1 2 3 0 1 2\n", id="mesh-face-two-lists"),
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ
                 + "element face 2\nproperty list uchar int vertex_indices\n"
                 "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n4 0 1 2 0\n",
                 id="mesh-non-uniform-face-lists"),
    pytest.param("mesh", "format binary_little_endian 1.0\nelement vertex 3\n"
                 + _XYZ + "element face 2\nproperty list uchar int vertex_indices\n"
                 "end_header\n" + "\0" * 36 + "\3" + "\0" * 12 + "\4" + "\0" * 16,
                 id="mesh-non-uniform-binary-face-lists"),
    pytest.param("mesh", "format ascii 1.0\nelement vertex 3\n" + _XYZ
                 + "element face 1\nproperty list uchar float vertex_indices\n"
                 "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
                 id="mesh-float-face-indices"),
    pytest.param("mesh", "format binary_little_endian 1.0\nelement vertex 3\n"
                 + _XYZ + "element face 1\nproperty list uchar float vertex_indices\n"
                 "end_header\n" + "\0" * 36 + "\3" + "\0" * 4
                 + "\0\0\x80\x3f" + "\0\0\0\x40",
                 id="mesh-float-binary-face-indices"),
])
def test_malformed_ply_raises_format_error(reader, text):
    data = ("ply\n" + text).encode("latin-1")
    with pytest.raises(CloudFormatError):
        if reader == "cloud":
            parse_cloud(data, "ply")
        else:
            read_mesh(data)


# ---------------------------------------------------------------------------
# writing / round trips
# ---------------------------------------------------------------------------


def test_write_empty_cloud_roundtrip():
    empty = sw.PointCloud(points=np.zeros((0, 3)))
    assert len(parse_cloud(write_cloud(empty), "ply")) == 0
    assert len(parse_cloud(b"", "xyz_ascii")) == 0


@pytest.mark.parametrize("fmt,binary", [("xyz_ascii", False), ("ply", True),
                                        ("ply", False)])
def test_roundtrip_coordinates(fmt, binary):
    """The same cloud reads to the same values from binary PLY (written)
    and from ASCII PLY and XYZ (literals)."""
    data = write_cloud(CLOUD) if binary else {"ply": CLOUD_PLY,
                                              "xyz_ascii": CLOUD_XYZ}[fmt]
    again = parse_cloud(data, fmt)
    np.testing.assert_array_equal(again.points, CLOUD.points)
    assert again.scalars.keys() == {"intensity"}
    np.testing.assert_array_equal(again.scalars["intensity"],
                                  CLOUD.scalars["intensity"])


@pytest.mark.parametrize("name", ["c.xyz", "c.txt", "c.ply"])
def test_read_cloud_knows_ply_by_name_or_magic(tmp_path, name):
    """Binary PLY reads as PLY under any name."""
    (tmp_path / name).write_bytes(write_cloud(CLOUD))
    again = sw.read_cloud(tmp_path / name)
    np.testing.assert_array_equal(again.points, CLOUD.points)


def test_read_cloud_reads_xyz_text(tmp_path):
    (tmp_path / "c.xyz").write_bytes(CLOUD_XYZ)
    again = sw.read_cloud(tmp_path / "c.xyz")
    np.testing.assert_array_equal(again.points, CLOUD.points)
    np.testing.assert_array_equal(again.scalars["intensity"],
                                  CLOUD.scalars["intensity"])


def test_roundtrip_scalar_exact_double(rng):
    pts = rng.uniform(0, 10, (20, 3))
    disp = rng.normal(0, 0.1, 20)
    cloud = sw.PointCloud(points=pts, scalars={"displacement_m": disp})
    data = write_cloud(cloud)
    assert b"property double displacement_m" in data.split(b"end_header")[0]
    again = parse_cloud(data, "ply")
    np.testing.assert_array_equal(again.scalars["displacement_m"], disp)


def test_roundtrip_preserves_order(rng):
    pts = rng.uniform(-50, 50, (100, 3)) + np.array([12345.0, -9876.0, 345.0])
    again = parse_cloud(write_cloud(sw.PointCloud(points=pts)), "ply")
    np.testing.assert_array_equal(again.points, pts)


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
    """The date order of a series is checked where its intervals are
    computed (``interval_days``, in the pipeline's ``configure`` stage);
    a record itself needs a station."""
    import datetime
    EpochRecord("I", datetime.date(2013, 3, 14), 6)
    with pytest.raises(ValueError):
        EpochRecord("X", datetime.date(2020, 1, 1), 0)


# ---------------------------------------------------------------------------
# neighbor index and geometry helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("normal", [[0.48, -0.6, 0.64], [0.95, 0.1, -0.3]])
def test_plane_basis_orthonormal_right_handed(normal):
    n = np.asarray(normal) / np.linalg.norm(normal)
    u, v = plane_basis(n)
    frame = np.column_stack([u, v, n])
    np.testing.assert_allclose(frame.T @ frame, np.eye(3), atol=1e-12)
    assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)
    # the expression every caller used to inline, bit for bit
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u_ref = helper - (helper @ n) * n
    u_ref /= np.linalg.norm(u_ref)
    np.testing.assert_array_equal(u, u_ref)
    np.testing.assert_array_equal(v, np.cross(n, u_ref))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_surface_spacing_small_cloud_is_nearest_neighbor_median(rng, n):
    pts = rng.uniform(0, 10, (n, 3))
    d, _ = cKDTree(pts).query(pts, k=2)
    assert surface_spacing(sw.PointCloud(points=pts)) == float(np.median(d[:, 1]))
    assert surface_spacing(sw.PointCloud(points=pts[:1])) == 0.0


def test_one_tree_serves_every_neighbor_query_of_a_cloud(monkeypatch, rng):
    built = []

    def counting(data, *args, **kwargs):
        built.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr(cloud_mod, "cKDTree", counting)
    cloud = sw.estimate_normals(sw.PointCloud(points=rng.uniform(0, 10, (500, 3))),
                                k=10, viewpoint=(0, 0, 50))
    remove_outliers(cloud)
    surface_spacing(cloud)
    assert built == [500]


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
    i0, _ = brute_force_knn(pts, pts[0], 12)
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


@pytest.mark.parametrize("case", ["two points", "collinear", "coincident"])
def test_fit_plane_refuses_point_sets_with_no_plane(case):
    t = np.linspace(0.0, 10.0, 50)
    points = {"two points": [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
              "collinear": np.column_stack([t, 2 * t, 0.5 * t]),
              "coincident": np.ones((5, 3))}[case]
    with pytest.raises(DegenerateSurface, match="^the points define no plane: "):
        sw.fit_plane(points)


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


def test_normals_and_outliers_do_not_depend_on_blocks_or_threads(serial_blocks):
    terr, _ = sw.gen_terrain((15, 10), 45, 0.4, 20, seed=3)
    vp = terr.points.mean(axis=0) + np.array([0.0, -20.0, 30.0])
    want_normals = sw.estimate_normals(terr, k=12, viewpoint=vp)
    want_kept = remove_outliers(terr, k=4, std_ratio=1.0)
    assert len(terr) > 7 * 100 and 0 < len(want_kept) < len(terr)
    serial_blocks()
    fresh = sw.PointCloud(points=terr.points)
    got_normals = sw.estimate_normals(fresh, k=12, viewpoint=vp)
    np.testing.assert_array_equal(got_normals.normals, want_normals.normals)
    np.testing.assert_array_equal(got_normals.scalars["curvature"],
                                  want_normals.scalars["curvature"])
    got_kept = remove_outliers(sw.PointCloud(points=terr.points), k=4,
                               std_ratio=1.0)
    np.testing.assert_array_equal(got_kept.points, want_kept.points)


# ---------------------------------------------------------------------------
# row blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, cloud_mod.ROW_BLOCK, cloud_mod.ROW_BLOCK + 1],
                         ids=["no-rows", "one-row", "one-block",
                              "one-block-and-a-row"])
def test_by_rows_concatenates_blocks_in_row_order(n):
    sizes, threads = [], set()

    def kernel(block):
        sizes.append(len(block))
        threads.add(current_thread())
        return 2.0 * block, block[:, 0].astype(np.int64)

    rows = np.arange(3.0 * n).reshape(n, 3)
    doubled, first = cloud_mod._by_rows(kernel, rows)
    np.testing.assert_array_equal(doubled, 2.0 * rows)
    assert doubled.shape == (n, 3) and first.dtype == np.int64
    np.testing.assert_array_equal(first, 3 * np.arange(n))
    if n > cloud_mod.ROW_BLOCK:
        # equal blocks, as many per worker, none over ROW_BLOCK, all pooled
        workers = cloud_mod._POOL._max_workers
        assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
        assert len(sizes) % workers == 0 and max(sizes) <= cloud_mod.ROW_BLOCK
        assert main_thread() not in threads
    else:
        assert sizes == [n] and threads == {main_thread()}


BLOCK = cloud_mod.ROW_BLOCK


@pytest.mark.parametrize("workers, n, blocks", [
    (1, 2 * BLOCK + 3827, 3), (2, 2 * BLOCK + 3827, 4), (2, 2 * BLOCK, 2),
    (3, 2 * BLOCK + 1, 3), (3, 3 * BLOCK + 1, 6), (4, BLOCK + 1, 4)])
def test_by_rows_splits_rows_into_equal_blocks_per_worker(monkeypatch, workers,
                                                          n, blocks):
    """The fewest blocks of at most ROW_BLOCK rows, as many per worker,
    equal to within a row; none runs on the calling thread."""
    sizes, on_main = [], []

    def kernel(block):
        sizes.append(len(block))
        on_main.append(current_thread() is main_thread())
        return (block,)

    with ThreadPoolExecutor(workers) as pool:
        monkeypatch.setattr(cloud_mod, "_POOL", pool)
        got, = cloud_mod._by_rows(kernel, np.arange(n))
    np.testing.assert_array_equal(got, np.arange(n))
    assert len(sizes) == blocks and max(sizes) - min(sizes) <= 1
    assert max(sizes) <= cloud_mod.ROW_BLOCK and not any(on_main)


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


@pytest.mark.parametrize("rows", [
    np.random.default_rng(1).integers(-3, 3, size=(500, 3)),
    np.random.default_rng(2).integers(-2, 2, size=(400, 2)),
    np.round(np.random.default_rng(3).normal(size=(300, 2)), 1),
    np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 1.0]]),
    np.array([[-0.0, 2.0], [0.0, 2.0]]),
    np.array([[7, -1, 4]]),
    np.zeros((0, 3), dtype=np.int64),
], ids=["int3", "int2", "float2", "signed-zero", "signed-zero-first",
        "one-row", "no-rows"])
def test_unique_rows_matches_numpy(rows):
    got = cloud_mod._unique_rows(rows)
    want = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)
    # -0.0 and 0.0 are one value, and the first occurrence's sign stays
    np.testing.assert_array_equal(np.signbit(got[0]), np.signbit(want[0]))
