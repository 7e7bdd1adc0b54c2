import numpy as np
import pytest
from scipy.spatial import cKDTree

import slopewatch as sw
from slopewatch import synth
from slopewatch.cloud import PointClass, fit_plane, plane_basis
from slopewatch.errors import DegenerateSurface
from slopewatch.rigid import RigidTransform
from slopewatch.synth import (LandslideSpec, add_vegetation, apply_landslide,
                              gen_terrain, leveled_station_pose,
                              simulate_stations, stations_facing_slope,
                              terrain_frame)


# ---------------------------------------------------------------------------
# terrain generation
# ---------------------------------------------------------------------------


def test_gen_terrain_density_point_count():
    cloud, _ = gen_terrain((10, 10), 70.0, 0.3, 154.0, seed=0)
    assert abs(len(cloud) - 15400) <= 0.05 * 15400


def test_gen_terrain_zero_roughness_on_plane():
    cloud, truth = gen_terrain((20, 12), 55.0, 0.0, 20.0, seed=1)
    n = truth.frame.normal
    offsets = cloud.points @ n
    assert np.abs(offsets).max() < 1e-9


def test_gen_terrain_deterministic():
    a, _ = gen_terrain((15, 10), 70.0, 0.4, 30.0, seed=42)
    b, _ = gen_terrain((15, 10), 70.0, 0.4, 30.0, seed=42)
    np.testing.assert_array_equal(a.points, b.points)
    c, _ = gen_terrain((15, 10), 70.0, 0.4, 30.0, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_gen_terrain_roughness_scale():
    cloud, truth = gen_terrain((30, 20), 70.0, 0.5, 30.0, seed=2)
    offsets = cloud.points @ truth.frame.normal
    rms = np.sqrt(np.mean((offsets - offsets.mean()) ** 2))
    assert rms == pytest.approx(0.5, rel=0.25)


def test_terrain_frame_axes_are_the_plane_basis_of_its_normal():
    for slope in np.linspace(0.0, 90.0, 19):
        frame = terrain_frame(slope)
        u, v = plane_basis(frame.normal)
        np.testing.assert_array_equal(frame.axis_u, u)
        np.testing.assert_array_equal(frame.axis_v, v)
        # the slope rises along axis_v
        theta = np.radians(slope)
        np.testing.assert_allclose(frame.axis_v,
                                   [0.0, np.cos(theta), np.sin(theta)],
                                   rtol=0, atol=1e-15)


def test_gen_terrain_rejects_bad_density():
    with pytest.raises(ValueError):
        gen_terrain((10, 10), 70.0, 0.3, 0.0)


@pytest.mark.parametrize("slope, roughness", [(95.0, 0.3), (-1.0, 0.3),
                                              (float("nan"), 0.3), (70.0, -0.1)])
def test_gen_terrain_rejects_bad_slope_and_roughness(slope, roughness):
    with pytest.raises(ValueError):
        gen_terrain((10, 10), slope, roughness, 1.0)


# ---------------------------------------------------------------------------
# vegetation
# ---------------------------------------------------------------------------


def test_vegetation_zero_coverage_unchanged():
    cloud, _ = gen_terrain((15, 10), 70.0, 0.3, 20.0, seed=3)
    out, _ = add_vegetation(cloud, 0.0, seed=4)
    np.testing.assert_array_equal(out.points, cloud.points)
    assert (out.labels == PointClass.GROUND).all()


def test_vegetation_zero_coverage_labels_an_unlabeled_cloud_ground():
    cloud, _ = gen_terrain((15, 10), 70.0, 0.3, 20.0, seed=3)
    for coverage in (0.0, 0.1):
        out, _ = add_vegetation(sw.PointCloud(points=cloud.points), coverage)
        assert (out.labels[:len(cloud)] == PointClass.GROUND).all()
        assert (out.labels[len(cloud):] == PointClass.VEGETATION).all()


def test_vegetation_coverage_fraction():
    cloud, _ = gen_terrain((20, 15), 70.0, 0.3, 40.0, seed=5)
    out, _ = add_vegetation(cloud, 0.15, seed=6)
    frac = (out.labels == PointClass.VEGETATION).mean()
    assert frac == pytest.approx(0.15, abs=0.03)


def test_vegetation_min_height_above_local_ground():
    cloud, _ = gen_terrain((20, 15), 70.0, 0.4, 40.0, seed=7)
    support_radius = synth.VEG_SUPPORT_RADIUS_M
    h_min = 0.5
    out, _ = add_vegetation(cloud, 0.10, (h_min, 2.0), seed=8)
    ground = out.points[out.labels == PointClass.GROUND]
    veg = out.points[out.labels == PointClass.VEGETATION]
    normal, _ = fit_plane(ground)
    helper = np.array([1.0, 0, 0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1, 0])
    u = helper - (helper @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    from scipy.spatial import cKDTree
    plan_g = np.column_stack([ground @ u, ground @ v])
    plan_v = np.column_stack([veg @ u, veg @ v])
    tree = cKDTree(plan_g)
    s_g = ground @ normal
    s_v = veg @ normal
    for i, neighbors in enumerate(tree.query_ball_point(plan_v, r=support_radius)):
        local = s_g[neighbors].max() if neighbors else -np.inf
        assert s_v[i] - local >= h_min - 1e-9


def ball_query_max(points, values, queries, radius):
    """The reference: the largest value over each query's scipy ball list."""
    lists = cKDTree(points).query_ball_point(queries, r=radius)
    return np.array([values[lst].max() if lst else -np.inf for lst in lists])


def test_support_max_matches_ball_query_lists():
    # integer grid and queries: many neighbours sit exactly on the radius
    rng = np.random.default_rng(4)
    grid = np.stack(np.meshgrid(np.arange(30.0), np.arange(20.0)), -1)
    plan = grid.reshape(-1, 2)
    values = rng.normal(size=len(plan))
    queries = np.vstack([rng.integers(-3, 33, (400, 2)).astype(float),
                         rng.uniform(-5, 35, (400, 2))])
    want = ball_query_max(plan, values, queries, 2.0)
    got = synth._max_within(plan, values, queries, 2.0)
    # cells have side radius / 2: the queries fall in several hundred
    assert len(np.unique(np.floor(queries / 1.0), axis=0)) > 300
    assert np.isneginf(want).any()
    np.testing.assert_array_equal(got, want)


def test_support_max_on_points_at_the_radius_follows_the_ball_query():
    # float points placed at distance r from each query: rounding puts each
    # just inside or just outside, and only the squared rule sorts them as
    # scipy does
    rng = np.random.default_rng(11)
    r = synth.VEG_SUPPORT_RADIUS_M
    queries = (np.stack(np.meshgrid(np.arange(40.0), np.arange(30.0)), -1)
               .reshape(-1, 2) * 10.0 + rng.uniform(0, 1, (1200, 2)))
    angle = rng.uniform(0, 2 * np.pi, (len(queries), 4))
    plan = (queries[:, None, :] + r * np.stack([np.cos(angle), np.sin(angle)],
                                               -1)).reshape(-1, 2)
    values = rng.normal(size=len(plan))
    want = ball_query_max(plan, values, queries, r)
    np.testing.assert_array_equal(synth._max_within(plan, values, queries, r),
                                  want)
    # the case is sharp: a rule on sqrt(d2) <= r keeps other points
    d = plan.reshape(len(queries), 4, 2) - queries[:, None, :]
    by_sqrt = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) <= r
    sqrt_max = np.where(by_sqrt, values.reshape(-1, 4), -np.inf).max(axis=1)
    assert np.isneginf(want).any() and np.isfinite(want).any()
    assert not np.array_equal(sqrt_max, want)


def test_support_max_cell_tests_leave_the_edge_cases_to_the_point_test():
    # cells have side 1 from the origin (0, 0); the first query sits one
    # ulp below x = 1, so x + r rounds to 3.0, three cells over, yet
    # dx * dx is exactly r * r; for the second query, the next cell along x
    # has its far corner 2e-7 cells outside the disc, and its only point
    # sits in that corner
    tx = 2.0 - np.sqrt(3.75 + 8e-7)
    plan = np.array([[0.0, 0.0], [3.0, 5.5], [12 - 1e-9, 11 - 1e-9]])
    values = np.array([-10.0, 1.0, 2.0])
    queries = np.array([[np.nextafter(1.0, 0.0), 5.5], [10.0 + tx, 10.5]])
    want = ball_query_max(plan, values, queries, 2.0)
    np.testing.assert_array_equal(want, [1.0, -np.inf])
    np.testing.assert_array_equal(synth._max_within(plan, values, queries, 2.0),
                                  want)


def test_support_max_for_queries_outside_the_ground():
    rng = np.random.default_rng(12)
    plan = rng.uniform(0, 10, (3000, 2))
    values = rng.normal(size=len(plan))
    queries = np.vstack([rng.uniform(-4, 14, (2000, 2)),
                         rng.uniform(-1e4, 1e4, (50, 2))])
    want = ball_query_max(plan, values, queries, 2.0)
    assert np.isneginf(want).sum() > 100 and np.isfinite(want).sum() > 1000
    np.testing.assert_array_equal(synth._max_within(plan, values, queries, 2.0),
                                  want)


def test_support_max_over_two_patches_100_km_apart():
    # a dense grid over the plan extent would hold 4.8e9 cells; only the
    # occupied ones are indexed
    rng = np.random.default_rng(13)
    patch = rng.uniform(0, 8, (2000, 2))
    plan = np.vstack([patch, patch[::-1] + [60e3, 80e3]])
    values = rng.normal(size=len(plan))
    queries = np.vstack([rng.uniform(-3, 11, (1000, 2)),
                         rng.uniform(-3, 11, (1000, 2)) + [60e3, 80e3],
                         rng.uniform(0, 1, (20, 2)) * [60e3, 80e3]])
    want = ball_query_max(plan, values, queries, 2.0)
    assert np.isfinite(want[:2000]).sum() > 1000
    np.testing.assert_array_equal(synth._max_within(plan, values, queries, 2.0),
                                  want)


def test_support_max_on_a_paper_density_terrain_patch():
    cloud, truth = gen_terrain((12, 9), 70.0, 0.3, 154.0, seed=14)
    u, v, n = truth.frame.axis_u, truth.frame.axis_v, truth.frame.normal
    plan = np.column_stack([cloud.points @ u, cloud.points @ v])
    heights = cloud.points @ n
    rng = np.random.default_rng(15)
    queries = (plan[rng.integers(0, len(plan), 3000)]
               + np.clip(rng.normal(size=(3000, 2)), -3, 3))
    want = ball_query_max(plan, heights, queries,
                          synth.VEG_SUPPORT_RADIUS_M)
    np.testing.assert_array_equal(
        synth._max_within(plan, heights, queries, synth.VEG_SUPPORT_RADIUS_M),
        want)


@pytest.mark.parametrize("case", ["collinear", "two points", "no ground"])
def test_generators_refuse_degenerate_ground(case):
    t = np.linspace(0.0, 10.0, 50)
    points = np.column_stack([t, 2 * t, 0.5 * t])
    if case == "two points":
        points = points[:2]
    labels = None
    if case == "no ground":
        points = np.column_stack([t, np.cos(t), np.zeros(50)])
        labels = np.full(50, np.uint8(PointClass.VEGETATION))
    cloud = sw.PointCloud(points=points, labels=labels)
    with pytest.raises(DegenerateSurface):
        add_vegetation(cloud, 0.5)
    if case != "no ground":
        # without labeled ground, a slide rides on the plane of all points
        spec = LandslideSpec(center=(0, 0, 0), radius_along=5,
                             radius_across=5, depth_m=0.5, azimuth_deg=0)
        with pytest.raises(DegenerateSurface):
            apply_landslide(cloud, spec)
        with pytest.raises(DegenerateSurface):
            stations_facing_slope(cloud, 2, 60.0)


def test_vegetation_rejects_bad_coverage():
    cloud, _ = gen_terrain((10, 10), 70.0, 0.3, 10.0, seed=9)
    with pytest.raises(ValueError):
        add_vegetation(cloud, 1.0)


# ---------------------------------------------------------------------------
# landslide injection
# ---------------------------------------------------------------------------


def make_slide_scene(depth=0.5, seed=10, radii=(8.0, 4.0)):
    cloud, truth = gen_terrain((40, 30), 70.0, 0.2, 30.0, seed=seed)
    frame = truth.frame
    center = 20 * frame.axis_u + 15 * frame.axis_v
    spec = LandslideSpec(center=tuple(center), radius_along=radii[0],
                         radius_across=radii[1], depth_m=depth,
                         azimuth_deg=90.0)
    moved, slide_truth = apply_landslide(cloud, spec, frame=frame)
    return cloud, moved, slide_truth, spec, frame


def test_landslide_peak_and_outside():
    cloud, moved, truth, spec, frame = make_slide_scene()
    disp = truth.true_displacement
    assert np.abs(disp).max() <= 0.5 + 1e-12
    assert np.abs(disp).max() > 0.49  # dense sampling hits near the center
    center = np.asarray(spec.center)
    w = cloud.points - center
    a = (w @ frame.axis_v) / spec.radius_along
    b = (w @ np.cross(frame.normal, frame.axis_v)) / spec.radius_across
    outside = np.hypot(a, b) >= 1.0
    assert np.abs(disp[outside]).max() == 0.0
    np.testing.assert_array_equal(moved.points[outside], cloud.points[outside])


def test_landslide_requires_nonzero_depth():
    with pytest.raises(ValueError):
        LandslideSpec(center=(0, 0, 0), radius_along=5, radius_across=5,
                      depth_m=0.0, azimuth_deg=0)


def test_landslide_integral_matches_quadrature():
    cloud, moved, truth, spec, frame = make_slide_scene(seed=11)
    density = len(cloud) / (40.0 * 30.0)
    integral = np.abs(truth.true_displacement).sum() / density

    # quadrature of the analytic taper over the ellipse
    step = 0.02
    rho_a = np.arange(-1, 1, step)
    ga, gb = np.meshgrid(rho_a, rho_a)
    rho = np.hypot(ga, gb)
    taper = np.where(rho < 1, 0.5 * (1 + np.cos(np.pi * np.clip(rho, 0, 1))), 0.0)
    oracle = (abs(spec.depth_m) * taper.sum() * step * step
              * spec.radius_along * spec.radius_across)
    assert integral == pytest.approx(oracle, rel=0.05)


def test_landslide_disjoint_specs_add_disjointly():
    cloud, truth = gen_terrain((40, 30), 70.0, 0.2, 20.0, seed=12)
    frame = truth.frame
    s1 = LandslideSpec(center=tuple(10 * frame.axis_u + 10 * frame.axis_v),
                       radius_along=4, radius_across=3, depth_m=0.4,
                       azimuth_deg=0.0)
    s2 = LandslideSpec(center=tuple(30 * frame.axis_u + 20 * frame.axis_v),
                       radius_along=4, radius_across=3, depth_m=-0.6,
                       azimuth_deg=90.0)
    c1, t1 = apply_landslide(cloud, s1, frame=frame)
    c2, t2 = apply_landslide(c1, s2, frame=frame)
    active1 = np.abs(t1.true_displacement) > 0
    active2 = np.abs(t2.true_displacement) > 0
    assert not (active1 & active2).any()
    combined = t1.true_displacement + t2.true_displacement
    assert np.abs(combined).max() <= 0.6 + 1e-12


# ---------------------------------------------------------------------------
# station simulation
# ---------------------------------------------------------------------------


def test_simulate_identity_station_noise_free():
    cloud, _ = gen_terrain((15, 10), 70.0, 0.3, 20.0, seed=13)
    scans = simulate_stations(cloud, [RigidTransform.identity()],
                              noise_sigma_m=0.0)
    np.testing.assert_array_equal(scans[0].points, cloud.points)
    np.testing.assert_array_equal(
        scans[0].scalars["source_index"], np.arange(len(cloud)))


def test_simulate_noise_free_is_exact_rigid_transform():
    cloud, _ = gen_terrain((15, 10), 70.0, 0.3, 20.0, seed=14)
    pose = leveled_station_pose([5.0, -30.0, 10.0], cloud.points.mean(axis=0))
    scans = simulate_stations(cloud, [pose], noise_sigma_m=0.0)
    np.testing.assert_allclose(scans[0].points,
                               pose.inverse().apply(cloud.points), atol=1e-12)


def test_simulate_noise_statistics():
    cloud, _ = gen_terrain((30, 22), 70.0, 0.2, 160.0, seed=15)
    assert len(cloud) > 100_000
    sigma = 0.006
    scans = simulate_stations(cloud, [RigidTransform.identity()],
                              noise_sigma_m=sigma, seed=16)
    noise = scans[0].points - cloud.points
    for axis in range(3):
        assert np.std(noise[:, axis]) == pytest.approx(sigma, rel=0.10)


def test_simulate_max_range_crop():
    cloud, _ = gen_terrain((15, 10), 70.0, 0.3, 20.0, seed=17)
    pose = leveled_station_pose(cloud.points.mean(axis=0) + [0, -20.0, 0],
                                cloud.points.mean(axis=0))
    scans = simulate_stations(cloud, [pose], noise_sigma_m=0.0,
                              max_range_m=22.0)
    assert 0 < len(scans[0]) < len(cloud)
    assert np.linalg.norm(scans[0].points, axis=1).max() <= 22.0


def test_simulate_occlusion_drops_hidden_points(monkeypatch):
    # a near wall fully hides a far wall behind it
    monkeypatch.setattr(synth, "OCCLUSION_BIN_DEG", 1.0)
    n = 40
    g = np.linspace(-2, 2, n)
    gx, gz = np.meshgrid(g, g)
    near = np.column_stack([gx.ravel(), np.full(n * n, 10.0), gz.ravel()])
    far = np.column_stack([gx.ravel() * 0.8, np.full(n * n, 30.0),
                           gz.ravel() * 0.8])
    cloud = sw.PointCloud(points=np.vstack([near, far]))
    station = leveled_station_pose([0.0, 0.0, 0.0], [0.0, 10.0, 0.0])
    scans = simulate_stations(cloud, [station], noise_sigma_m=0.0,
                              occlusion=True)
    kept = scans[0].scalars["source_index"].astype(int)
    assert (kept < n * n).all()


def test_simulate_two_stations_closes_with_multiview():
    scene, _ = gen_terrain((30, 20), 70.0, 0.5, 12.0, seed=18)
    poses = stations_facing_slope(scene, 2, standoff=40.0)
    sigma = 0.006
    scans = simulate_stations(scene, poses, noise_sigma_m=sigma, seed=19)
    prepared = [sw.estimate_normals(s, k=16, viewpoint=(0, 0, 0))
                for s in scans]
    transforms = sw.register_multiview(prepared)
    truth = poses[0].inverse().compose(poses[1])
    pts = prepared[1].points
    err = transforms[1].apply(pts) - truth.apply(pts)
    rmse = np.sqrt(np.mean((err ** 2).sum(axis=1)))
    assert rmse < 2 * sigma


def test_simulate_requires_pose():
    cloud, _ = gen_terrain((10, 10), 70.0, 0.3, 10.0, seed=20)
    with pytest.raises(ValueError):
        simulate_stations(cloud, [])


def test_leveled_pose_keeps_vertical():
    pose = leveled_station_pose([3.0, -7.0, 2.0], [10.0, 5.0, 30.0])
    np.testing.assert_allclose(pose.rotation[:, 2], [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(pose.rotation), 1.0, atol=1e-12)


def test_generators_pure_functions_of_seed():
    cloud, _ = gen_terrain((12, 8), 70.0, 0.3, 20.0, seed=21)
    v1, _ = add_vegetation(cloud, 0.1, seed=22)
    v2, _ = add_vegetation(cloud, 0.1, seed=22)
    np.testing.assert_array_equal(v1.points, v2.points)
    pose = leveled_station_pose([0, -30.0, 5.0], cloud.points.mean(axis=0))
    s1 = simulate_stations(cloud, [pose], noise_sigma_m=0.004, seed=23)
    s2 = simulate_stations(cloud, [pose], noise_sigma_m=0.004, seed=23)
    np.testing.assert_array_equal(s1[0].points, s2[0].points)


def test_terrain_frame_orthonormal():
    frame = terrain_frame(70.0)
    for v in (frame.axis_u, frame.axis_v, frame.normal):
        assert np.linalg.norm(v) == pytest.approx(1.0)
    assert frame.axis_u @ frame.axis_v == pytest.approx(0.0)
    assert np.cross(frame.axis_u, frame.axis_v) @ frame.normal == pytest.approx(1.0)
