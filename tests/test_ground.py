import numpy as np
import pytest

import slopewatch as sw
from slopewatch.cloud import PointClass
from slopewatch.errors import CloudFormatError, NoConvergence, TooSparse
from slopewatch.ground import (ClothParams, apply_mask_overrides, csf_classify,
                               filter_vegetation, level_points,
                               partition_subslopes)


def flat_cloud(n=2000, extent=20.0, seed=0, z=0.0):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, extent, n), rng.uniform(0, extent, n),
                           np.full(n, z)])
    return sw.PointCloud(points=pts)


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------


def test_partition_levels_a_collinear_cell_horizontally():
    t = np.linspace(0.0, 5.0, 40)
    pts = np.column_stack([t, 0.5 * t, 2.0 + 3.0 * t])
    subs = partition_subslopes(sw.PointCloud(points=pts), 100.0)
    assert len(subs) == 1
    np.testing.assert_array_equal(subs[0].plane_normal, [0.0, 0.0, 1.0])
    assert subs[0].plane_offset == pts[:, 2].mean()
    np.testing.assert_array_equal(subs[0].level_rotation.rotation, np.eye(3))
    np.testing.assert_allclose(level_points(subs[0], pts), pts, atol=1e-12)


def test_partition_single_cell_flat_plane():
    cloud = flat_cloud()
    subs = partition_subslopes(cloud, cell_size=100.0)
    assert len(subs) == 1
    np.testing.assert_allclose(subs[0].plane_normal, [0, 0, 1], atol=1e-6)
    assert len(subs[0].member_indices) == len(cloud)


def test_partition_two_tier_terrace():
    rng = np.random.default_rng(1)
    n = 3000
    # flat tier on x in [0, 10); 40-degree ramp on x in [10, 20)
    x = rng.uniform(0, 20, n)
    y = rng.uniform(0, 10, n)
    z = np.where(x < 10, 0.0, (x - 10) * np.tan(np.radians(40)))
    cloud = sw.PointCloud(points=np.column_stack([x, y, z]))
    subs = partition_subslopes(cloud, cell_size=10.0)
    assert len(subs) >= 2
    for sub in subs:
        member_x = cloud.points[sub.member_indices, 0]
        expected = 0.0 if member_x.mean() < 10 else 40.0
        # per-cell plane-fit oracle
        pts = cloud.points[sub.member_indices]
        centered = pts - pts.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        oracle_normal = vt[2] if vt[2, 2] > 0 else -vt[2]
        inclination = np.degrees(np.arccos(np.clip(sub.plane_normal[2], -1, 1)))
        oracle_deg = np.degrees(np.arccos(np.clip(oracle_normal[2], -1, 1)))
        assert inclination == pytest.approx(oracle_deg, abs=1e-9)
        assert abs(inclination - expected) < 1.0


def test_partition_empty_interior_cell_absent():
    rng = np.random.default_rng(2)
    left = np.column_stack([rng.uniform(0, 5, 500), rng.uniform(0, 5, 500),
                            np.zeros(500)])
    right = left + np.array([20.0, 0.0, 0.0])
    cloud = sw.PointCloud(points=np.vstack([left, right]))
    subs = partition_subslopes(cloud, cell_size=5.0)
    cells = [{tuple(c) for c in np.floor(cloud.points[s.member_indices, :2]
                                         / 5.0).astype(int)} for s in subs]
    assert cells == [{(0, 0)}, {(4, 0)}]


def test_partition_sparse_cells_merge_to_neighbor():
    rng = np.random.default_rng(3)
    dense = np.column_stack([rng.uniform(0, 5, 500), rng.uniform(0, 5, 500),
                             np.zeros(500)])
    stray = np.array([[7.0, 2.0, 0.0]])
    cloud = sw.PointCloud(points=np.vstack([dense, stray]))
    subs = partition_subslopes(cloud, cell_size=5.0)
    assert len(subs) == 1
    assert len(subs[0].member_indices) == 501


def test_partition_too_sparse():
    with pytest.raises(TooSparse):
        partition_subslopes(sw.PointCloud(points=np.zeros((5, 3))),
                            cell_size=1.0)


# ---------------------------------------------------------------------------
# leveling
# ---------------------------------------------------------------------------


def test_level_horizontal_is_identity():
    cloud = flat_cloud(seed=4)
    sub = partition_subslopes(cloud, 100.0)[0]
    np.testing.assert_allclose(sub.level_rotation.rotation, np.eye(3),
                               atol=1e-9)
    np.testing.assert_allclose(sub.level_rotation.translation, 0.0)


@pytest.mark.parametrize("incline_deg", [70.0, 90.0])
def test_level_incline(incline_deg):
    rng = np.random.default_rng(5)
    theta = np.radians(incline_deg)
    ab = rng.uniform(0, 10, (1500, 2))
    axis_u = np.array([1.0, 0.0, 0.0])
    axis_v = np.array([0.0, np.cos(theta), np.sin(theta)])
    pts = ab[:, :1] * axis_u + ab[:, 1:] * axis_v
    normal = np.cross(axis_u, axis_v)
    spread = rng.normal(0, 0.05, 1500)
    # keep the noisy patch strictly inside one grid cell
    pts = pts + spread[:, None] * normal + np.array([5.0, 5.0, 0.0])
    cloud = sw.PointCloud(points=pts)
    subs = partition_subslopes(cloud, 1000.0)
    leveled = level_points(subs[0], pts[subs[0].member_indices])
    # leveled plane is horizontal: z-spread equals plane-orthogonal spread
    from slopewatch.cloud import fit_plane
    n_leveled, _ = fit_plane(leveled)
    np.testing.assert_allclose(np.abs(n_leveled[2]), 1.0, atol=1e-6)
    z_spread = np.std(leveled[:, 2])
    ortho = (pts - pts.mean(axis=0)) @ subs[0].plane_normal
    assert z_spread == pytest.approx(np.std(ortho), rel=1e-9)
    # and the fitted normal stays within a degree of the construction
    assert abs(subs[0].plane_normal @ normal) > np.cos(np.radians(1.0))


# ---------------------------------------------------------------------------
# cloth simulation
# ---------------------------------------------------------------------------


def test_csf_flat_plane_all_ground():
    labeling = csf_classify(flat_cloud(seed=7), ClothParams())
    assert (labeling.labels == PointClass.GROUND).all()


def test_csf_blobs_above_plane():
    rng = np.random.default_rng(8)
    ground = flat_cloud(4000, extent=30.0, seed=8)
    n_veg = 600
    centers = rng.uniform(3, 27, (8, 2))
    which = rng.integers(0, 8, n_veg)
    veg_xy = centers[which] + rng.normal(0, 0.7, (n_veg, 2))
    veg_z = rng.uniform(0.5, 2.0, n_veg)
    pts = np.vstack([ground.points,
                     np.column_stack([veg_xy, veg_z])])
    truth = np.concatenate([np.full(len(ground), PointClass.GROUND),
                            np.full(n_veg, PointClass.VEGETATION)])
    labeling = csf_classify(sw.PointCloud(points=pts), ClothParams())
    accuracy = (labeling.labels == truth).mean()
    assert accuracy >= 0.95


def test_csf_infinite_threshold_all_ground():
    cloud, _ = sw.gen_terrain((15, 10), 30.0, 0.5, 15, seed=9)
    params = ClothParams(class_threshold=np.inf)
    labeling = csf_classify(cloud, params)
    assert (labeling.labels == PointClass.GROUND).all()


def test_csf_deterministic():
    cloud, _ = sw.gen_terrain((15, 10), 20.0, 0.4, 15, seed=10)
    a = csf_classify(cloud, ClothParams())
    b = csf_classify(cloud, ClothParams())
    np.testing.assert_array_equal(a.labels, b.labels)


def test_csf_threshold_monotonicity():
    rng = np.random.default_rng(11)
    pts = flat_cloud(2000, seed=11).points.copy()
    lift = rng.uniform(0, 1.5, len(pts))
    pts[:, 2] += lift
    cloud = sw.PointCloud(points=pts)
    low = csf_classify(cloud, ClothParams(class_threshold=0.3))
    high = csf_classify(cloud, ClothParams(class_threshold=0.9))
    moved_to_veg = ((low.labels == PointClass.GROUND)
                    & (high.labels == PointClass.VEGETATION))
    assert not moved_to_veg.any()


def test_csf_no_convergence_reports_residual():
    cloud, _ = sw.gen_terrain((15, 10), 30.0, 0.8, 15, seed=12)
    params = ClothParams(max_iterations=1, settle_tolerance=1e-9)
    with pytest.raises(NoConvergence) as err:
        csf_classify(cloud, params)
    assert err.value.residual > 0


def test_cloth_params_validation():
    with pytest.raises(ValueError):
        ClothParams(rigidness=4)
    with pytest.raises(ValueError):
        ClothParams(grid_resolution=0.0)


# ---------------------------------------------------------------------------
# full vegetation filter
# ---------------------------------------------------------------------------


def test_filter_vegetation_free_slope():
    cloud, _ = sw.gen_terrain((40, 25), 70.0, 0.3, 25, seed=13)
    ground, removed, labeling = filter_vegetation(cloud, cell_size=15.0)
    assert (labeling.labels == PointClass.GROUND).mean() >= 0.99
    assert len(ground) + len(removed) == len(cloud)


def test_filter_vegetation_steep_slope_with_cover():
    terr, _ = sw.gen_terrain((40, 25), 70.0, 0.3, 40, seed=14)
    cloud, _ = sw.add_vegetation(terr, 0.15, (0.5, 2.0), seed=15)
    ground, removed, labeling = filter_vegetation(cloud, cell_size=15.0)
    accuracy = (labeling.labels == cloud.labels).mean()
    assert accuracy >= 0.95
    assert len(ground) + len(removed) == len(cloud)


def test_filter_partition_property():
    terr, _ = sw.gen_terrain((25, 18), 70.0, 0.3, 20, seed=16)
    cloud, _ = sw.add_vegetation(terr, 0.1, seed=17)
    ground, removed, labeling = filter_vegetation(cloud, cell_size=12.0)
    assert len(ground) + len(removed) == len(cloud)
    assert len(labeling.labels) == len(cloud)
    assert (labeling.labels == PointClass.GROUND).sum() == len(ground)
    assert (labeling.labels == PointClass.VEGETATION).sum() == len(removed)


def test_filter_invariant_under_subslope_permutation(monkeypatch):
    terr, _ = sw.gen_terrain((25, 18), 70.0, 0.3, 20, seed=21)
    cloud, _ = sw.add_vegetation(terr, 0.1, seed=22)
    _, _, forward = filter_vegetation(cloud, cell_size=12.0)

    import slopewatch.ground as ground_mod
    original = ground_mod.partition_subslopes
    monkeypatch.setattr(ground_mod, "partition_subslopes",
                        lambda *a, **k: list(reversed(original(*a, **k))))
    _, _, reversed_ = filter_vegetation(cloud, cell_size=12.0)
    np.testing.assert_array_equal(forward.labels, reversed_.labels)


def test_mask_overrides():
    labeling = sw.ground.GroundLabeling(
        labels=np.full(5, np.uint8(PointClass.GROUND)))
    out = apply_mask_overrides(labeling, ["-0", "-3", "# note", "+3"])
    assert out.labels[0] == PointClass.VEGETATION
    assert out.labels[3] == PointClass.GROUND
    for line in ("7", "+99", "+abc", "-5"):
        with pytest.raises(CloudFormatError):
            apply_mask_overrides(labeling, [line])
