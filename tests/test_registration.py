import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import slopewatch as sw
from slopewatch import cloud as cloud_mod, registration as reg
from slopewatch.cloud import _kdtree, surface_spacing
from slopewatch.errors import (DegenerateCorrespondences, DegenerateSurface,
                               DisconnectedViews, InsufficientGeometry,
                               NoOverlap)
from slopewatch.rigid import RigidTransform


def make_terrain(seed=0, extent=(40, 25), density=8.0, roughness=0.5):
    cloud, truth = sw.gen_terrain(extent, 70.0, roughness, density, seed=seed)
    return cloud, truth


def assert_proper_rotation(t: RigidTransform):
    r = t.rotation
    assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9
    assert np.linalg.det(r) > 0


# ---------------------------------------------------------------------------
# RigidTransform
# ---------------------------------------------------------------------------


def test_rigid_compose_and_inverse(rng):
    a = RigidTransform.rotation_about_axis(rng.normal(size=3), 0.7)
    a = RigidTransform(a.rotation, rng.normal(size=3))
    b = RigidTransform.rotation_about_axis(rng.normal(size=3), -0.3)
    b = RigidTransform(b.rotation, rng.normal(size=3))
    p = rng.normal(size=(10, 3))
    np.testing.assert_allclose(a.compose(b).apply(p), a.apply(b.apply(p)),
                               atol=1e-12)
    np.testing.assert_allclose(a.compose(a.inverse()).apply(p), p, atol=1e-12)
    assert_proper_rotation(a.compose(b))


def test_rigid_rejects_improper_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(2 * np.eye(3), np.zeros(3))


def test_rotation_between_antipodal():
    t = RigidTransform.rotation_between([0, 0, 1.0], [0, 0, -1.0])
    np.testing.assert_allclose(t.apply(np.array([0, 0, 1.0])), [0, 0, -1],
                               atol=1e-12)
    assert_proper_rotation(t)


# ---------------------------------------------------------------------------
# fit_rigid
# ---------------------------------------------------------------------------


def test_fit_rigid_identity(rng):
    pts = rng.uniform(0, 5, (12, 3))
    t = sw.fit_rigid(pts, pts)
    np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(t.translation, 0, atol=1e-12)


def test_fit_rigid_recovers_known_transform():
    src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
    truth = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(30))
    truth = RigidTransform(truth.rotation, np.array([1.0, 2.0, 3.0]))
    t = sw.fit_rigid(src, truth.apply(src))
    resid = np.abs(t.apply(src) - truth.apply(src)).max()
    assert resid < 1e-9
    np.testing.assert_allclose(t.rotation, truth.rotation, atol=1e-12)


def test_fit_rigid_too_few_pairs():
    with pytest.raises(DegenerateCorrespondences):
        sw.fit_rigid(np.zeros((2, 3)), np.zeros((2, 3)))


def test_fit_rigid_collinear_pairs():
    t = np.linspace(0, 1, 5)
    line = np.column_stack([t, t, t])
    with pytest.raises(DegenerateCorrespondences):
        sw.fit_rigid(line, line + 1.0)


def test_fit_rigid_corrects_reflection(rng):
    src = rng.normal(size=(20, 3))
    mirrored = src * np.array([1.0, 1.0, -1.0])
    t = sw.fit_rigid(src, mirrored)
    assert np.linalg.det(t.rotation) > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), angle=st.floats(-3.0, 3.0),
       scale=st.floats(0.1, 50.0))
def test_fit_rigid_property_recovery(seed, angle, scale):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(8, 3)) * scale
    axis = rng.normal(size=3)
    if np.linalg.norm(axis) < 1e-6:
        axis = np.array([0.0, 0.0, 1.0])
    truth = RigidTransform.rotation_about_axis(axis, angle)
    truth = RigidTransform(truth.rotation, rng.normal(size=3) * scale)
    try:
        t = sw.fit_rigid(src, truth.apply(src))
    except DegenerateCorrespondences:
        return  # hypothesis found a (near) collinear draw, correctly rejected
    assert_proper_rotation(t)
    assert np.abs(t.apply(src) - truth.apply(src)).max() < 1e-8 * max(scale, 1)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------


def test_icp_source_equals_target():
    cloud, _ = make_terrain(seed=1, extent=(20, 15))
    result = sw.icp(cloud, cloud)
    assert result.converged
    assert result.iterations == 1
    assert result.rmse < 1e-9
    np.testing.assert_allclose(result.transform.rotation, np.eye(3), atol=1e-9)


def test_icp_small_offset_recovery():
    cloud, _ = make_terrain(seed=2, extent=(30, 20))
    diam = sw.diameter(cloud)
    off = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(5))
    off = RigidTransform(off.rotation, np.array([0.1 * diam, 0.0, 0.0]))
    moved = off.apply_cloud(cloud)
    result = sw.icp(moved, cloud, sw.IcpParams(max_pair_dist=0.5 * diam))
    ev = sw.evaluate_registration(result, off.inverse(), diam, 1e-4 * diam)
    assert ev.success
    assert_proper_rotation(result.transform)


def test_icp_no_overlap():
    cloud, _ = make_terrain(seed=3, extent=(10, 10))
    diam = sw.diameter(cloud)
    far = RigidTransform(np.eye(3), np.array([10 * diam, 0, 0]))
    with pytest.raises(NoOverlap):
        sw.icp(far.apply_cloud(cloud), cloud,
               sw.IcpParams(max_pair_dist=0.1 * diam))


def test_icp_rmse_sequence_non_increasing():
    for seed in range(4):
        cloud, _ = make_terrain(seed=seed, extent=(20, 15), density=6)
        diam = sw.diameter(cloud)
        rng = np.random.default_rng(seed)
        off = RigidTransform.rotation_about_axis(rng.normal(size=3),
                                                 np.radians(8))
        off = RigidTransform(off.rotation, rng.normal(size=3) * 0.05 * diam)
        result = sw.icp(off.apply_cloud(cloud), cloud,
                        sw.IcpParams(max_pair_dist=0.5 * diam))
        seq = np.asarray(result.rmse_sequence)
        assert np.all(np.diff(seq) <= 1e-12)
        assert result.rmse <= seq[0] + 1e-12


def _slide_pair(seed=31):
    """A terrain and its copy with a 1 m deep slide over 30% of the area."""
    base, truth0 = sw.gen_terrain((40, 25), 70.0, 0.5, 8, seed=seed)
    frame = truth0.frame
    radius = np.sqrt(0.3 * 40 * 25 / np.pi)
    center = 20 * frame.axis_u + 12 * frame.axis_v
    spec = sw.LandslideSpec(center=tuple(center), radius_along=radius,
                            radius_across=radius, depth_m=1.0, azimuth_deg=45)
    changed, _ = sw.apply_landslide(base, spec, frame=frame)
    return changed, base


def _noisy_offset_pair(seed):
    """A terrain and a noisy copy of it under a small random offset."""
    cloud, _ = make_terrain(seed=seed, extent=(30, 20))
    rng = np.random.default_rng(seed)
    noisy = sw.PointCloud(points=cloud.points
                          + rng.normal(0, 0.01, cloud.points.shape))
    off = RigidTransform.rotation_about_axis(rng.normal(size=3),
                                             np.radians(rng.uniform(1, 8)))
    off = RigidTransform(off.rotation, rng.normal(size=3) * 0.5)
    return off.apply_cloud(noisy), cloud


def test_icp_converges_on_fall_within_tolerance():
    source, target = _noisy_offset_pair(0)
    params = sw.IcpParams()
    result = sw.icp(source, target, params)
    seq = result.rmse_sequence
    assert result.converged
    assert result.iterations == len(seq) < params.max_iter
    assert 0 <= seq[-2] - seq[-1] <= reg.ICP_CONVERGENCE_EPS * seq[-2]
    assert result.rmse == seq[-1] > 0.005   # noise floor, not exact data


def _stops_on_rise(monkeypatch, eps):
    # at seed 20 the RMSE falls by 74%, then rises by about 1e-3 of itself
    source, target = _noisy_offset_pair(20)
    before = sw.icp(source, target, sw.IcpParams(max_iter=2))
    monkeypatch.setattr(reg, "ICP_CONVERGENCE_EPS", eps)
    result = sw.icp(source, target)
    assert result.iterations == 3
    assert result.rmse_sequence == before.rmse_sequence
    assert result.rmse == before.rmse
    np.testing.assert_array_equal(result.transform.matrix(),
                                  before.transform.matrix())
    return result


def test_icp_rise_within_tolerance_converges_on_previous_pose(monkeypatch):
    assert _stops_on_rise(monkeypatch, 1e-2).converged


def test_icp_rise_beyond_tolerance_stops_unconverged_on_previous_pose(monkeypatch):
    assert not _stops_on_rise(monkeypatch, 1e-4).converged


def test_icp_ignores_changed_surface():
    # a 1 m deep slide over 30% of the area would drag a least-squares fit
    changed, base = _slide_pair()
    diam = sw.diameter(base)
    off = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(3))
    off = RigidTransform(off.rotation, np.array([0.5, -0.3, 0.2]))
    result = sw.icp(off.apply_cloud(changed), base)
    ev = sw.evaluate_registration(result, off.inverse(), diam, 1e-6 * diam)
    assert result.converged
    assert ev.success


def test_icp_tangential_shift_on_smooth_slope_converges_fast():
    # the case a point-to-point fit crawls on: about 100 iterations here
    cloud, truth = sw.gen_terrain((40, 30), 70.0, 0.05, 8.0, seed=4)
    diam = sw.diameter(cloud)
    off = RigidTransform(np.eye(3), 1.0 * truth.frame.axis_u
                         + 0.5 * truth.frame.axis_v)
    result = sw.icp(off.apply_cloud(cloud), cloud)
    ev = sw.evaluate_registration(result, off.inverse(), diam, 1e-3 * diam)
    assert result.converged
    assert result.iterations <= 10
    assert ev.success


def test_icp_estimates_missing_target_normals():
    cloud, _ = make_terrain(seed=5, extent=(30, 20))
    off = RigidTransform.rotation_about_axis([0.3, 0, 1.0], np.radians(4))
    off = RigidTransform(off.rotation, np.array([0.8, -0.4, 0.3]))
    moved = off.apply_cloud(cloud)
    assert cloud.normals is None
    bare = sw.icp(moved, cloud)
    prepared = sw.icp(moved, reg._ensure_normals(cloud))
    np.testing.assert_allclose(bare.transform.matrix(),
                               prepared.transform.matrix(), rtol=0, atol=1e-9)


def test_normals_estimated_once_per_cloud(monkeypatch):
    cloud, _ = make_terrain(seed=5, extent=(30, 20))
    off = RigidTransform.rotation_about_axis([0.3, 0, 1.0], np.radians(4))
    off = RigidTransform(off.rotation, np.array([0.8, -0.4, 0.3]))
    source = reg._ensure_normals(off.apply_cloud(cloud))
    estimated = []
    real = reg.estimate_normals

    def counting(c, *args, **kwargs):
        estimated.append(c)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(reg, "estimate_normals", counting)
    sw.icp(source, cloud)
    sw.icp(source, cloud)
    sw.coarse_register(source, cloud)
    sw.register_global_hybrid(source, cloud)
    # the raw target once; the source already has normals
    assert len(estimated) == 1 and estimated[0] is cloud
    prepared = reg._ensure_normals(cloud)
    assert reg._ensure_normals(prepared) is prepared
    assert _kdtree(prepared) is _kdtree(cloud)
    # new points make a new cloud, and it gets its own normals
    lifted = cloud.with_(points=cloud.points + [0.0, 0.0, 1.0])
    sw.icp(source, lifted)
    assert len(estimated) == 2 and estimated[1] is lifted
    assert reg._ensure_normals(lifted) is not prepared


def test_coarse_features_prepared_once_per_cloud(monkeypatch):
    cloud, _ = make_terrain(seed=5, extent=(30, 20))
    off = RigidTransform.rotation_about_axis([0.0, 0.0, 1.0], np.radians(30))
    off = RigidTransform(off.rotation, np.array([2.0, -1.0, 0.5]))
    source = off.apply_cloud(cloud)
    # the same methods on fresh copies, each method on its own copies
    fresh_coarse = sw.coarse_register(source.with_(), cloud.with_())
    fresh_hybrid = sw.register_global_hybrid(source.with_(), cloud.with_())

    calls = {name: [] for name in ("estimate_normals", "surface_spacing",
                                   "select_keypoints", "extract_descriptors")}
    for name, seen in calls.items():
        def counting(c, *args, _real=getattr(reg, name), _seen=seen, **kwargs):
            _seen.append(c)
            return _real(c, *args, **kwargs)
        monkeypatch.setattr(reg, name, counting)

    coarse = sw.coarse_register(source, cloud)
    hybrid = sw.register_global_hybrid(source, cloud)
    # estimate_normals sees the raw clouds, the feature steps their
    # prepared copies: once per cloud each
    assert [id(c) for c in calls["estimate_normals"]] == [id(source), id(cloud)]
    prepared = [reg._ensure_normals(source), reg._ensure_normals(cloud)]
    for name in ("surface_spacing", "select_keypoints", "extract_descriptors"):
        assert sorted(map(id, calls[name])) == sorted(map(id, prepared)), name
    np.testing.assert_array_equal(coarse.matrix(), fresh_coarse.matrix())
    np.testing.assert_array_equal(hybrid.transform.matrix(),
                                  fresh_hybrid.transform.matrix())
    assert hybrid.rmse_sequence == fresh_hybrid.rmse_sequence

    # new points make a new cloud with entries of its own
    lifted = cloud.with_(points=cloud.points + [0.0, 0.0, 1.0])
    sw.coarse_register(source, lifted)
    assert calls["estimate_normals"][-1] is lifted
    for name in ("surface_spacing", "select_keypoints", "extract_descriptors"):
        assert len(calls[name]) == 3, name
        assert calls[name][-1] is reg._ensure_normals(lifted), name


def test_icp_ignores_pairs_without_target_normal():
    cloud, _ = make_terrain(seed=5, extent=(30, 20))
    target = reg._ensure_normals(cloud)
    normals = target.normals.copy()
    normals[::3] = np.nan
    holed = target.with_(normals=normals)
    off = RigidTransform(np.eye(3), np.array([0.3, 0.2, -0.1]))
    result = sw.icp(off.apply_cloud(cloud), holed)
    ev = sw.evaluate_registration(result, off.inverse(), sw.diameter(cloud),
                                  1e-3 * sw.diameter(cloud))
    assert ev.success
    assert result.inlier_count <= np.isfinite(normals[:, 0]).sum()


def test_icp_stops_on_singular_plane_system():
    # on a plane the normals leave in-plane motion unconstrained
    rng = np.random.default_rng(8)
    plane = sw.PointCloud(points=np.column_stack(
        [rng.uniform(0, 20, 1500), rng.uniform(0, 20, 1500), np.zeros(1500)]))
    off = RigidTransform(np.eye(3), np.array([0.5, 0.0, 0.2]))
    result = sw.icp(off.apply_cloud(plane), plane)
    assert not result.converged
    assert result.rmse_sequence == []
    np.testing.assert_array_equal(result.transform.matrix(), np.eye(4))


def test_icp_rejects_empty():
    cloud, _ = make_terrain(seed=1, extent=(10, 10))
    empty = sw.PointCloud(points=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        sw.icp(empty, cloud)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def _plane_patch(center, n=300, seed=0):
    rng = np.random.default_rng(seed)
    ab = rng.uniform(-1.5, 1.5, (n, 2))
    pts = np.column_stack([ab, np.zeros(n)]) + np.asarray(center, float)
    return pts


def test_descriptor_identical_patches_match():
    pts = np.vstack([_plane_patch((0, 0, 0)), _plane_patch((50, 0, 0))])
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=10,
                                viewpoint=(25, 0, 100))
    feats = sw.extract_descriptors(cloud, [0, 300], radius=1.0)
    assert len(feats.keypoint_indices) == 2
    hamming = (feats.descriptors[0] != feats.descriptors[1]).sum()
    assert hamming == 0


def test_descriptor_corner_differs_more_than_plane():
    rng = np.random.default_rng(5)
    n = 800
    # two independently sampled flat patches, keypoint at each center
    plane_a = np.vstack([[0.0, 0.0, 0.0], _plane_patch((0, 0, 0), n, seed=1)])
    plane_b = np.vstack([[50.0, 0.0, 0.0], _plane_patch((50, 0, 0), n, seed=2)])
    # right-angle corner: horizontal half-plane meets a vertical wall at x=0,
    # keypoint on the crease
    s = rng.uniform(-1.5, 1.5, n)
    y = rng.uniform(-1.5, 1.5, n)
    corner = np.where(s[:, None] >= 0,
                      np.column_stack([s, y, np.zeros(n)]),
                      np.column_stack([np.zeros(n), y, -s]))
    corner = np.vstack([[0.0, 0.0, 0.0], corner]) + np.array([100.0, 0, 0])
    pts = np.vstack([plane_a, plane_b, corner])
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=10,
                                viewpoint=(50, 0, 200))
    keypoints = [0, n + 1, 2 * (n + 1)]
    feats = sw.extract_descriptors(cloud, keypoints, radius=1.0)
    d = reg.hamming_matrix(feats, feats)
    assert d[0, 2] > d[0, 1]


def test_descriptor_rotation_invariance():
    cloud, _ = make_terrain(seed=7, extent=(20, 15), density=12)
    vp = cloud.points.mean(axis=0) + np.array([0.0, -30.0, 30.0])
    cloud = sw.estimate_normals(cloud, k=14, viewpoint=vp)
    kp = sw.select_keypoints(cloud, 40,
                             reg.KEYPOINT_GAP_SPACINGS * surface_spacing(cloud))
    feats = sw.extract_descriptors(cloud, kp, radius=1.5)
    t = RigidTransform.rotation_about_axis([0.2, -0.4, 0.9], np.radians(75))
    t = RigidTransform(t.rotation, np.array([5.0, -3.0, 8.0]))
    feats_rot = sw.extract_descriptors(t.apply_cloud(cloud), kp, radius=1.5)
    assert len(feats.keypoint_indices) == len(feats_rot.keypoint_indices)
    mismatches = (feats.descriptors != feats_rot.descriptors).sum()
    assert mismatches == 0


def test_descriptor_sparse_keypoints_dropped():
    pts = np.vstack([_plane_patch((0, 0, 0)), [[500.0, 0, 0]]])
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=10,
                                viewpoint=(0, 0, 100))
    feats = sw.extract_descriptors(cloud, [0, 300], radius=1.0)
    assert list(feats.keypoint_indices) == [0]


def reference_descriptors(cloud, keypoints, radius):
    """Per-keypoint descriptor loop: the definition the blocked
    ``extract_descriptors`` must reproduce bit for bit."""
    min_neighbors = reg.DESCRIPTOR_MIN_NEIGHBORS
    keypoints = np.asarray(keypoints, dtype=np.int64)
    pts = cloud.points
    n_az, n_rad, n_el = reg.DESCRIPTOR_BINS
    kept, rows, dropped = [], [], 0
    lists = cKDTree(pts).query_ball_point(pts[keypoints], r=radius)
    for kp, neighbors in zip(keypoints, lists):
        idx = np.asarray(neighbors, dtype=np.int64)
        z = cloud.normals[kp]
        if len(idx) < min_neighbors or not np.all(np.isfinite(z)):
            dropped += 1
            continue
        local = pts[idx] - pts[kp]
        _, vecs = np.linalg.eigh(local.T @ local / len(idx))
        x = None
        for col in (2, 1, 0):
            cand = vecs[:, col] - (vecs[:, col] @ z) * z
            if np.linalg.norm(cand) > 1e-9:
                x = cand / np.linalg.norm(cand)
                break
        if x is None:
            dropped += 1
            continue
        if (local @ x).sum() < 0:
            x = -x
        lx, ly, lz = local @ x, local @ np.cross(z, x), local @ z
        az = np.arctan2(ly, lx)
        i_az = np.clip(((az + np.pi) / (2 * np.pi) * n_az).astype(int), 0,
                       n_az - 1)
        i_rad = np.clip((np.hypot(lx, ly) / radius * n_rad).astype(int), 0,
                        n_rad - 1)
        i_el = np.clip(((lz + radius) / (2 * radius) * n_el).astype(int), 0,
                       n_el - 1)
        counts = np.bincount((i_az * n_rad + i_rad) * n_el + i_el,
                             minlength=reg.DESCRIPTOR_BITS)
        rows.append((counts > np.median(counts)).astype(np.uint8))
        kept.append(int(kp))
    return kept, np.asarray(rows, np.uint8).reshape(-1, reg.DESCRIPTOR_BITS), dropped


def reference_keypoints(cloud, count, min_spacing):
    """Greedy hash-grid suppression in curvature order."""
    curv = cloud.scalars["curvature"]
    taken, picked = set(), []
    for i in np.lexsort((np.arange(len(curv)), -curv)):
        key = tuple(np.floor(cloud.points[i] / min_spacing).astype(np.int64))
        if key not in taken:
            taken.add(key)
            picked.append(int(i))
            if len(picked) >= count:
                break
    return picked


def assert_matches_reference(cloud, keypoints, radius):
    feats = sw.extract_descriptors(cloud, keypoints, radius)
    kept, desc, dropped = reference_descriptors(cloud, keypoints, radius)
    np.testing.assert_array_equal(feats.keypoint_indices, kept)
    np.testing.assert_array_equal(feats.descriptors, desc)
    assert feats.descriptors.shape == (len(kept), reg.DESCRIPTOR_BITS)
    assert feats.descriptors.dtype == np.uint8
    assert len(keypoints) - len(feats.keypoint_indices) == dropped
    return feats


@pytest.mark.parametrize("row_block", [cloud_mod.ROW_BLOCK, 7])
def test_descriptors_match_per_keypoint_reference(monkeypatch, row_block):
    # a small block splits the keypoints into many blocks run on the pool
    monkeypatch.setattr(cloud_mod, "ROW_BLOCK", row_block)
    cloud, _ = make_terrain(seed=3, extent=(30, 20))
    cloud = reg._ensure_normals(cloud)
    spacing = surface_spacing(cloud)
    keypoints = sw.select_keypoints(cloud, 300,
                                    reg.KEYPOINT_GAP_SPACINGS * spacing)
    for radius in (4.0 * spacing, 10.0 * spacing):
        assert_matches_reference(cloud, keypoints, radius)
    # isolated keypoints fall under the neighbor floor and are dropped
    monkeypatch.setattr(reg, "DESCRIPTOR_MIN_NEIGHBORS", 6)
    feats = assert_matches_reference(cloud, keypoints, 1.5 * spacing)
    assert 0 < len(feats.keypoint_indices) < len(keypoints)


def test_descriptors_edge_cases():
    pts = np.vstack([_plane_patch((0, 0, 0)), [[500.0, 0, 0]],
                     _plane_patch((20, 0, 0))])
    cloud = sw.estimate_normals(sw.PointCloud(points=pts), k=10,
                                viewpoint=(10, 0, 100))
    normals = cloud.normals.copy()
    normals[301] = np.nan
    holed = cloud.with_(normals=normals)
    empty = sw.extract_descriptors(holed, [], radius=1.0)
    assert empty.descriptors.shape == (0, reg.DESCRIPTOR_BITS)
    # keypoints none of which is usable bin one empty block
    none = sw.extract_descriptors(holed, [300, 301], radius=1.0)
    assert none.keypoint_indices.shape == (0,)
    assert none.descriptors.shape == (0, reg.DESCRIPTOR_BITS)
    assert none.descriptors.dtype == np.uint8
    # a lone point (too few neighbors), a NaN normal, and plain patches
    feats = assert_matches_reference(holed, [0, 300, 301, 450, 0], 1.0)
    assert list(feats.keypoint_indices) == [0, 450, 0]


def test_descriptors_x_axis_falls_back_when_eigenvector_is_the_normal(monkeypatch):
    # points on the three axes, spread most along z: the covariance is
    # diagonal, its dominant eigenvector is the normal and projects to
    # nothing, so the x axis comes from column 1; a lone point
    # (a neighbor floor of 1) has a zero covariance
    t = np.linspace(-1, 1, 21)
    star = np.unique(np.vstack([np.outer(t, [0, 0, 1.0]),
                                np.outer(0.5 * t[::4], [0, 1.0, 0]),
                                np.outer(0.2 * t[::5], [1.0, 0, 0])]), axis=0)
    pts = np.vstack([[[-20.0, 0, 0]], star])
    cloud = sw.PointCloud(points=pts,
                          normals=np.tile([0.0, 0.0, 1.0], (len(pts), 1)))
    centre = int(np.flatnonzero(~pts.any(axis=1))[0])
    _, vecs = np.linalg.eigh(star.T @ star / len(star))
    np.testing.assert_array_equal(np.abs(vecs[:, 2]), [0, 0, 1.0])
    monkeypatch.setattr(reg, "DESCRIPTOR_MIN_NEIGHBORS", 1)
    feats = assert_matches_reference(cloud, [0, centre], 1.5)
    assert len(feats.keypoint_indices) == 2


def test_select_keypoints_matches_greedy_reference():
    cloud, _ = make_terrain(seed=3, extent=(30, 20))
    cloud = reg._ensure_normals(cloud)
    spacing = surface_spacing(cloud)
    for count, min_spacing in ((500, 2 * spacing), (40, 2 * spacing),
                               (10_000, 0.7 * spacing), (200, 9.0)):
        got = sw.select_keypoints(cloud, count, min_spacing)
        np.testing.assert_array_equal(
            got, reference_keypoints(cloud, count, min_spacing))
    order = np.lexsort((np.arange(len(cloud)), -cloud.scalars["curvature"]))
    np.testing.assert_array_equal(sw.select_keypoints(cloud, 25, 0.0),
                                  order[:25])


def test_hamming_matrix_matches_boolean_definition(rng):
    def feats(n, bits=reg.DESCRIPTOR_BITS):
        desc = rng.integers(0, 2, (n, bits)).astype(np.uint8)
        return reg.FeatureSet(np.arange(n), desc)

    for a, b in ((feats(37), feats(23)), (feats(0), feats(5)),
                 (feats(4), feats(0)), (feats(6, 13), feats(3, 13))):
        d = reg.hamming_matrix(a, b)
        want = (a.descriptors[:, None, :] != b.descriptors[None, :, :]).sum(axis=2)
        assert d.shape == want.shape
        assert d.dtype == np.int64
        np.testing.assert_array_equal(d, want)
    with pytest.raises(ValueError):
        reg.hamming_matrix(feats(2), feats(2, 64))


def test_hamming_matrix_matches_byte_wise_counting(rng):
    """The 64-bit word count equals the count over packed bytes, also for
    lengths that leave a partial word or byte."""
    for na, nb, bits in ((500, 480, reg.DESCRIPTOR_BITS), (9, 7, 1), (9, 7, 7),
                         (9, 7, 63), (9, 7, 64), (9, 7, 65), (9, 7, 130),
                         (0, 3, 70)):
        a, b = (reg.FeatureSet(np.arange(n), rng.integers(0, 2, (n, bits),
                                                          dtype=np.uint8))
                for n in (na, nb))
        pa, pb = (np.packbits(f.descriptors, axis=1) for f in (a, b))
        want = np.bitwise_count(pa[:, None, :] ^ pb[None, :, :]).sum(
            axis=2, dtype=np.int64)
        got = reg.hamming_matrix(a, b)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def reference_consistent_subset(src, tgt, pairs, tolerance):
    """Each match in rank order kept when it agrees with every kept one."""
    ps, pt = src[pairs[:, 0]], tgt[pairs[:, 1]]
    ds = np.linalg.norm(ps[:, None, :] - ps[None, :, :], axis=2)
    dt = np.linalg.norm(pt[:, None, :] - pt[None, :, :], axis=2)
    compat = np.abs(ds - dt) <= tolerance
    np.fill_diagonal(compat, True)
    order = np.lexsort((np.arange(len(pairs)), -compat.sum(axis=1)))
    members = [int(order[0])]
    for cand in order[1:]:
        if compat[cand, members].all():
            members.append(int(cand))
    return np.sort(members)


def test_consistent_match_subset_matches_greedy_reference(rng):
    for m, moved_share, tolerance in ((400, 0.5, 0.3), (60, 0.9, 1.0),
                                      (25, 0.0, 0.05), (1, 0.0, 0.1)):
        src = rng.uniform(0.0, 30.0, (m, 3))
        tgt = src + rng.normal(0.0, 0.05, (m, 3))
        moved = rng.random(m) < moved_share
        tgt[moved] = rng.uniform(0.0, 30.0, (int(moved.sum()), 3))
        order = rng.permutation(m)
        pairs = np.column_stack([order, order])
        got = reg.consistent_match_subset(src, tgt, pairs, tolerance)
        np.testing.assert_array_equal(
            got, reference_consistent_subset(src, tgt, pairs, tolerance))
        assert got.dtype == np.int64
    empty = reg.consistent_match_subset(src, tgt, np.zeros((0, 2), np.int64), 1.0)
    assert empty.dtype == np.int64 and len(empty) == 0


# ---------------------------------------------------------------------------
# coarse registration
# ---------------------------------------------------------------------------


def test_coarse_identity():
    cloud, _ = make_terrain(seed=4, extent=(30, 20))
    diam = sw.diameter(cloud)
    t = sw.coarse_register(cloud, cloud)
    corners = np.array([[0, 0, 0], [30, 0, 0], [0, 7, 19], [30, 7, 19.0]])
    assert np.abs(t.apply(corners) - corners).max() < 1e-3 * diam


def test_coarse_plus_icp_succeeds_where_icp_fails():
    cloud, _ = make_terrain(seed=6, extent=(40, 25))
    diam = sw.diameter(cloud)
    off = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(45))
    off = RigidTransform(off.rotation, diam * np.array([0.6, -0.64, 0.48]))
    moved = off.apply_cloud(cloud)
    truth = off.inverse()
    params = sw.IcpParams(max_pair_dist=0.25 * diam)
    try:
        plain = sw.icp(moved, cloud, params)
        plain_ok = sw.evaluate_registration(plain, truth, diam, 1.0).success
    except NoOverlap:
        plain_ok = False
    assert not plain_ok
    t0 = sw.coarse_register(moved, cloud)
    refined = sw.icp(moved, cloud, params, init=t0)
    ev = sw.evaluate_registration(refined, truth, diam, 1.0)
    assert ev.success


def test_coarse_featureless_plane_raises():
    def sample_plane(seed):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(0, 30, 2500),
                               rng.uniform(0, 30, 2500), np.zeros(2500)])
        return sw.PointCloud(points=pts)
    with pytest.raises(InsufficientGeometry):
        sw.coarse_register(sample_plane(8), sample_plane(9))


# ---------------------------------------------------------------------------
# multi-view
# ---------------------------------------------------------------------------


def test_multiview_single_cloud():
    cloud, _ = make_terrain(seed=1, extent=(10, 10))
    out = sw.register_multiview([cloud])
    assert len(out) == 1
    np.testing.assert_allclose(out[0].matrix(), np.eye(4), atol=1e-12)


def test_multiview_three_stations_recover_poses(monkeypatch):
    scene, _ = sw.gen_terrain((40, 25), 70.0, 0.5, 12, seed=9)
    poses = sw.stations_facing_slope(scene, 3, standoff=50.0)
    sigma = 0.006
    scans = sw.simulate_stations(scene, poses, noise_sigma_m=sigma, seed=3)
    prepared = [sw.estimate_normals(s, k=16, viewpoint=(0, 0, 0))
                for s in scans]
    coarse_calls = []
    real_coarse = reg.coarse_register

    def coarse(*args):
        coarse_calls.append(args)
        return real_coarse(*args)

    monkeypatch.setattr(reg, "coarse_register", coarse)
    transforms = sw.register_multiview(prepared)
    assert len(coarse_calls) == 2   # one per merge, through the public fit

    for i in (1, 2):
        # truth: station-i locals into station-0 locals
        truth = poses[0].inverse().compose(poses[i])
        src_idx = prepared[i].scalars["source_index"].astype(int)
        ref_idx = prepared[0].scalars["source_index"].astype(int)
        common = np.intersect1d(src_idx, ref_idx)
        sel = np.isin(src_idx, common)
        pts = prepared[i].points[sel]
        err = transforms[i].apply(pts) - truth.apply(pts)
        rmse = np.sqrt(np.mean((err ** 2).sum(axis=1)))
        assert rmse < 2 * sigma


def test_multiview_views_read_from_files_register_as_in_memory():
    """Views far apart register from their files exactly as in memory: a
    file keeps a cloud's coordinates, so the merged group holds each view
    where its transform puts it."""
    scene, _ = sw.gen_terrain((90, 25), 70.0, 0.5, 12.0, seed=9)
    poses = sw.stations_facing_slope(scene, 3, standoff=30.0)
    scans = sw.simulate_stations(scene, poses, noise_sigma_m=0.006,
                                 max_range_m=60.0, seed=3)
    offsets = [np.zeros(3), np.array([1000.3, -500.7, 20.2]),
               np.array([-2000.4, 300.1, -10.5])]
    views = [RigidTransform(np.eye(3), o).apply_cloud(s)
             for s, o in zip(scans, offsets)]

    def register(clouds):
        return sw.register_multiview([sw.estimate_normals(c, k=16, viewpoint=o)
                                      for c, o in zip(clouds, offsets)])

    in_memory = register(views)
    from_files = register([sw.parse_cloud(sw.write_cloud(v), "ply") for v in views])
    for a, b in zip(in_memory, from_files):
        np.testing.assert_array_equal(a.matrix(), b.matrix())
    for i in (1, 2):
        # truth: view i into view 0, through the stations' poses
        truth = (RigidTransform(np.eye(3), offsets[0])
                 .compose(poses[0].inverse()).compose(poses[i])
                 .compose(RigidTransform(np.eye(3), -offsets[i])))
        err = in_memory[i].apply(views[i].points) - truth.apply(views[i].points)
        assert np.median(np.linalg.norm(err, axis=1)) < 0.02


@pytest.mark.parametrize("case", ["collinear", "two points"])
def test_multiview_view_with_no_plane_has_no_link(case):
    a, _ = make_terrain(seed=10, extent=(20, 15))
    t = np.linspace(0.0, 10.0, 50)
    points = np.column_stack([t, 2 * t, 0.5 * t])
    bad = sw.PointCloud(points=points[:2] if case == "two points" else points)
    with pytest.raises(DisconnectedViews) as err:
        sw.register_multiview([a, bad, a.with_()])
    assert sorted(map(sorted, err.value.components)) == [[0, 2], [1]]


def test_multiview_views_without_surface_spacing_have_no_link():
    # every point six times over: the median 4th neighbor is the point itself
    a, _ = make_terrain(seed=10, extent=(20, 15))
    stacked = sw.PointCloud(points=np.repeat(a.points, 6, axis=0))
    with pytest.raises(DegenerateSurface, match="no surface spacing"):
        sw.coarse_register(stacked, stacked.with_())
    with pytest.raises(DisconnectedViews):
        sw.register_multiview([stacked, stacked.with_()])


def test_multiview_disconnected_views():
    a, _ = make_terrain(seed=10, extent=(20, 15))
    b, _ = make_terrain(seed=11, extent=(20, 15))
    far = RigidTransform(np.eye(3), np.array([4000.0, 0.0, 0.0]))
    with pytest.raises(DisconnectedViews) as err:
        sw.register_multiview([a, far.apply_cloud(b)])
    assert sorted(map(sorted, err.value.components)) == [[0], [1]]


def _range_cropped_stations(seed: int, max_range_m: float):
    """(station poses, their scans with normals) of three stations 30 m
    from a 90 m x 25 m slope, each seeing only what lies within
    ``max_range_m``."""
    scene, _ = sw.gen_terrain((90, 25), 70.0, 0.5, 12.0, seed=seed)
    poses = sw.stations_facing_slope(scene, 3, standoff=30.0)
    scans = sw.simulate_stations(scene, poses, noise_sigma_m=0.006,
                                 max_range_m=max_range_m, seed=3)
    return poses, [sw.estimate_normals(s, k=16, viewpoint=(0, 0, 0))
                   for s in scans]


def test_multiview_pair_the_merge_cannot_fit_is_no_link():
    """A pair links only when ``coarse_register`` accepts it in the
    direction the merge registers. Seed 10's stations at 40 m have pairs
    strong enough to link whose fit that way keeps too few consistent
    matches: they are disconnected views, not an ``InsufficientGeometry``
    from the merge."""
    _, prepared = _range_cropped_stations(10, 40.0)
    with pytest.raises(DisconnectedViews):
        sw.register_multiview(prepared)


def test_multiview_range_cropped_stations_register():
    poses, prepared = _range_cropped_stations(9, 45.0)
    transforms = sw.register_multiview(prepared)
    for i in (1, 2):
        truth = poses[0].inverse().compose(poses[i])
        err = (transforms[i].apply(prepared[i].points)
               - truth.apply(prepared[i].points))
        assert np.median(np.linalg.norm(err, axis=1)) < 0.02


# ---------------------------------------------------------------------------
# global hybrid
# ---------------------------------------------------------------------------


def test_hybrid_identity():
    cloud, _ = make_terrain(seed=12, extent=(25, 18))
    result = sw.register_global_hybrid(cloud, cloud)
    assert result.rmse < 1e-6
    np.testing.assert_allclose(result.transform.matrix(), np.eye(4), atol=1e-6)


def test_hybrid_succeeds_on_large_offset_with_change():
    # seed picked so plain ICP lands in a wrong minimum on this pose offset
    # (it does at seed 31 with point-to-point and point-to-plane ICP alike)
    seed = 31
    changed, base = _slide_pair(seed)
    diam = sw.diameter(base)
    rng = np.random.default_rng(seed + 500)
    tdir = rng.normal(size=3)
    tdir /= np.linalg.norm(tdir)
    off = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(60))
    off = RigidTransform(off.rotation, 0.5 * diam * tdir)
    moved = off.apply_cloud(changed)
    truth = off.inverse()

    try:
        plain = sw.icp(moved, base, sw.IcpParams(max_pair_dist=0.25 * diam))
        icp_ok = sw.evaluate_registration(plain, truth, diam, 1.0).success
    except NoOverlap:
        icp_ok = False
    hybrid = sw.register_global_hybrid(moved, base)
    ev = sw.evaluate_registration(hybrid, truth, diam, 1.0)
    assert ev.success
    assert not icp_ok


def test_hybrid_runs_one_icp_from_the_assignment_pose(monkeypatch):
    """One ICP from the assignment fit; no start from the identity."""
    cloud, _ = make_terrain(seed=12, extent=(25, 18))
    moved = RigidTransform.rotation_about_axis([0, 0, 1.0], np.radians(10)
                                               ).apply_cloud(cloud)
    inits = []
    original = reg.icp

    def recording(source, target, params=None, init=None):
        inits.append(init)
        return original(source, target, params, init)

    monkeypatch.setattr(reg, "icp", recording)
    sw.register_global_hybrid(moved, cloud)
    assert len(inits) == 1
    assert inits[0] is not None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def recovered(transform: RigidTransform) -> sw.RegistrationResult:
    """A registration result that recovered ``transform``."""
    return sw.RegistrationResult(transform, rmse=0.0, iterations=1,
                                 converged=True, inlier_count=0)


def test_evaluate_exact_recovery():
    t = RigidTransform.rotation_about_axis([1, 1, 0.0], 0.3)
    ev = sw.evaluate_registration(recovered(t), t, diameter_m=10.0,
                                  success_threshold=0.5)
    assert ev.success and ev.pose_rmse == 0.0


def test_evaluate_threshold_inclusive():
    truth = RigidTransform.identity()
    off = RigidTransform(np.eye(3), np.array([0.25, 0.0, 0.0]))
    ev = sw.evaluate_registration(recovered(off), truth, diameter_m=10.0,
                                  success_threshold=0.25)
    assert ev.pose_rmse == pytest.approx(0.25)
    assert ev.success


def test_evaluate_batch_matches_recount(rng):
    truth = RigidTransform.identity()
    threshold = 0.3
    outcomes = []
    for _ in range(20):
        shift = rng.uniform(0, 0.6, 3)
        t = RigidTransform(np.eye(3), shift)
        outcomes.append(sw.evaluate_registration(recovered(t), truth, 10.0, threshold))
    rate = sum(e.success for e in outcomes) / len(outcomes)
    oracle = sum(1 for e in outcomes if e.pose_rmse <= threshold) / len(outcomes)
    assert rate == oracle
