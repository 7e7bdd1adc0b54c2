"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime when it completes;
pytest -s (or the failure report) shows them. Numbered to match the
project acceptance list; every tolerance is pinned here.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import slopewatch as sw
from slopewatch.bench import BenchmarkConfig, TrialConfig, run_table2_benchmark
from slopewatch.cli import main as cli_main
from slopewatch.rigid import RigidTransform
from slopewatch.terrain import (build_dtm, field_stats, mesh_distance,
                                rate_field, significant_regions)

PLANE_Z = (np.array([0.0, 0.0, 1.0]), 0.0)


class Timer:
    def __init__(self, limit_s):
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self, label):
        assert self.elapsed < self.limit_s, (
            f"{label} took {self.elapsed:.1f}s, limit {self.limit_s}s")


def report_pass(num, label, timer):
    print(f"ACCEPTANCE {num:2d} PASS ({timer.elapsed:6.2f}s): {label}")


def test_criterion_01_error_budget(capsys):
    with Timer(1.0) as t:
        code = cli_main(["budget", "--tls", "6", "--mreg", "30",
                         "--treg", "60", "--veg", "10", "--mesh", "10"])
        out = capsys.readouterr().out.strip()
    assert code == 0
    assert abs(float(out) - 76.0) <= 0.05
    t.check("budget")
    with capsys.disabled():
        report_pass(1, f"error budget prints {out} mm", t)


def test_criterion_02_shape_classification():
    rows = [((31.1, 56.0), "L"), ((9.9, 16.5), "L"), ((16.4, 44.8), "VL"),
            ((20.9, 32.1), "L"), ((24.3, 52.1), "L")]
    with Timer(1.0) as t:
        got = [sw.classify_shape(sw.shape_angle(W, L)).value
               for (W, L), _ in rows]
    assert got == [cls for _, cls in rows]
    t.check("shape classification")
    report_pass(2, "five width/length rows classify exactly", t)


def test_criterion_03_relative_error_range():
    with Timer(1.0) as t:
        low = sw.relative_error(76.0, 10.0)
        high = sw.relative_error(76.0, 2.0)
    assert low == pytest.approx(0.0076)
    assert high == pytest.approx(0.038)
    assert round(low * 100, 1) == 0.8 and round(high * 100, 0) == 4.0
    t.check("relative error")
    report_pass(3, "relative error brackets 0.76% to 3.8%", t)


def test_criterion_04_interval_days():
    pairs = [("2013-03-14", "2013-08-17", 156),
             ("2013-08-17", "2013-11-06", 81),
             ("2013-11-06", "2014-09-13", 311),
             ("2014-09-13", "2015-01-09", 118)]
    with Timer(1.0) as t:
        got = [sw.interval_days(a, b) for a, b, _ in pairs]
    assert got == [d for _, _, d in pairs]
    t.check("interval days")
    report_pass(4, "calendar intervals 156/81/311/118 exact", t)


def test_criterion_05_registration_recovery():
    with Timer(120.0) as t:
        # part 1: 20 seeded noise-free pairs inside the ICP basin
        basin_failures = []
        for seed in range(20):
            rng = np.random.default_rng([11, seed])
            cloud, _ = sw.gen_terrain((40, 30), 70.0, 0.5, 8.0, seed=seed)
            diam = sw.diameter(cloud)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot = RigidTransform.rotation_about_axis(
                axis, np.radians(rng.uniform(1.0, 10.0)))
            tdir = rng.normal(size=3)
            tdir /= np.linalg.norm(tdir)
            offset = RigidTransform(rot.rotation,
                                    rng.uniform(0.02, 0.2) * diam * tdir)
            moved = offset.apply_cloud(cloud)
            result = sw.icp(moved, cloud, sw.IcpParams(max_pair_dist=0.5 * diam))
            ev = sw.evaluate_registration(result, offset.inverse(), diam,
                                          1e-3 * diam)
            if not ev.success:
                basin_failures.append((seed, ev.pose_rmse / diam))
        assert basin_failures == []

        # part 2: large-displacement / local-change suite ordering
        config = BenchmarkConfig(
            trials=5, seed=0, extent_m=(60.0, 40.0), density_pts_m2=8.0,
            roughness=0.5, success_threshold_m=1.0,
            methods=("icp", "hybrid"),
            configurations=[
                TrialConfig("small-offset", rotation_deg=5.0,
                            translation_frac=0.1),
                TrialConfig("large-offset-local-change", rotation_deg=60.0,
                            translation_frac=0.5, change_fraction=0.3),
            ])
        report = run_table2_benchmark(config)
        strict = False
        for cfg in report["configurations"]:
            rates = {row["method"]: row["success_rate"] for row in cfg["rows"]}
            assert rates["hybrid"] >= rates["icp"], cfg["name"]
            if rates["hybrid"] > rates["icp"]:
                strict = True
            # per-trial superset: hybrid succeeds wherever plain ICP does
            for rec in cfg["trial_records"]:
                if rec["icp"].get("success"):
                    assert rec["hybrid"].get("success"), (cfg["name"], rec)
        assert strict
    t.check("registration recovery")
    report_pass(5, "basin pose RMSE < 1e-3 diameter; hybrid >= plain "
                   "with strict gain on the hard suite", t)


def test_criterion_06_multiview_closure():
    sigma = 0.006
    with Timer(120.0) as t:
        scene, _ = sw.gen_terrain((40, 25), 70.0, 0.5, 12.0, seed=9)
        poses = sw.stations_facing_slope(scene, 3, standoff=50.0)
        scans = sw.simulate_stations(scene, poses, noise_sigma_m=sigma, seed=3)
        prepared = [sw.estimate_normals(s, k=16, viewpoint=(0, 0, 0))
                    for s in scans]
        transforms = sw.register_multiview(prepared)
        worst = 0.0
        for i in (1, 2):
            truth = poses[0].inverse().compose(poses[i])
            src_idx = prepared[i].scalars["source_index"].astype(int)
            ref_idx = prepared[0].scalars["source_index"].astype(int)
            sel = np.isin(src_idx, np.intersect1d(src_idx, ref_idx))
            pts = prepared[i].points[sel]
            err = transforms[i].apply(pts) - truth.apply(pts)
            rmse = float(np.sqrt(np.mean((err ** 2).sum(axis=1))))
            worst = max(worst, rmse)
        assert worst < 2 * sigma
    t.check("multi-view closure")
    report_pass(6, f"3-station closure RMSE {worst*1000:.2f} mm < 12 mm", t)


def test_criterion_07_vegetation_filter():
    with Timer(60.0) as t:
        terr, _ = sw.gen_terrain((60, 40), 70.0, 0.3, 60.0, seed=5)
        cloud, _ = sw.add_vegetation(terr, 0.15, (0.5, 2.0), seed=7)
        assert len(cloud) <= 1_000_000
        _, _, labeling = sw.filter_vegetation(cloud, cell_size=15.0)
        accuracy = float((labeling.labels == cloud.labels).mean())
        assert accuracy >= 0.95
    t.check("vegetation filter")
    report_pass(7, f"filter accuracy {accuracy:.3f} on a 70-degree slope "
                   f"({len(cloud)} points)", t)


def test_criterion_08_dtm_differencing():
    rng = np.random.default_rng(21)
    with Timer(60.0) as t:
        ref_pts = np.column_stack([rng.uniform(0, 30, 8000),
                                   rng.uniform(0, 30, 8000), np.zeros(8000)])
        cmp_pts = np.column_stack([rng.uniform(3, 27, 4000),
                                   rng.uniform(3, 27, 4000),
                                   np.full(4000, 0.30)])
        ref = build_dtm(sw.PointCloud(points=ref_pts),
                        projection_plane=PLANE_Z, max_edge=3.0)
        cmp_ = build_dtm(sw.PointCloud(points=cmp_pts),
                         projection_plane=PLANE_Z, max_edge=3.0)
        field = mesh_distance(cmp_, ref, max_dist=5.0, interval_days=100)
        stats = field_stats(field)
        assert stats.mean == pytest.approx(0.300, abs=1e-6)
        assert stats.std < 1e-9

        # occlusion hole with the distance mask: no region may survive
        keep = np.linalg.norm(ref_pts[:, :2] - 15.0, axis=1) > 8.0
        ref_holed = build_dtm(sw.PointCloud(points=ref_pts[keep]),
                              projection_plane=PLANE_Z, max_edge=2.5)
        cmp_full = build_dtm(sw.PointCloud(points=ref_pts),
                             projection_plane=PLANE_Z, max_edge=2.5)
        hole_field = mesh_distance(cmp_full, ref_holed, max_dist=5.0,
                                   interval_days=100)
        regions = significant_regions(cmp_full, rate_field(hole_field),
                                      2.0, 10.0)
        assert regions == []
    t.check("DTM differencing")
    report_pass(8, "0.300 m offset exact; hole artifacts fully masked", t)


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "run"
    config = sw.default_config(out_dir=str(out))
    started = time.perf_counter()
    result = sw.run_pipeline(config)
    elapsed = time.perf_counter() - started
    return config, result, elapsed


def test_criterion_09_end_to_end(end_to_end):
    config, result, elapsed = end_to_end
    with Timer(300.0) as t:
        pass
    t.elapsed = elapsed

    spec = config.epochs[1].landslides[0]
    assert spec.depth_m == 0.5
    assert config.rate_threshold_mm_day == 2.0
    assert result.report["epoch_pairs"][0]["interval_days"] == 180.0

    # exactly one significant region
    assert len(result.regions) == 1
    region = result.regions[0]

    # recovered displacement against generator truth, sampled at the
    # region's vertices through the ground cloud's source indices
    mesh = result.truths["meshes"][1]
    ground = result.truths["ground_clouds"][1]
    field = result.fields[0]
    truth_disp = result.truths["scene_truths"][1].true_displacement
    src_idx = ground.scalars["source_index"].astype(int)
    tree = cKDTree(ground.points)
    _, nearest = tree.query(mesh.vertices[region.vertex_set])
    truth_mean = float(np.abs(truth_disp[src_idx[nearest]]).mean())
    recovered_mean = float(np.abs(field.values[region.vertex_set]).mean())
    mean_err = abs(recovered_mean - truth_mean) / truth_mean
    assert mean_err <= 0.10

    # volume against the truth field integrated over the same triangles
    member = np.zeros(len(mesh.vertices), dtype=bool)
    member[region.vertex_set] = True
    tris = mesh.triangles
    inside = member[tris].all(axis=1)
    areas = mesh.triangle_projected_areas()[inside]
    _, nearest_all = tree.query(mesh.vertices)
    truth_all = np.abs(truth_disp[src_idx[nearest_all]])
    truth_volume = float((areas * truth_all[tris[inside]].mean(axis=1)).sum())
    vol_err = abs(region.volume_m3 - truth_volume) / truth_volume
    assert vol_err <= 0.15

    # shape class equals the class of the constructed aspect
    constructed_theta = sw.shape_angle(2 * spec.radius_across,
                                       2 * spec.radius_along)
    expected_class = sw.classify_shape(constructed_theta).value
    assert result.report["regions"][0]["shape_class"] == expected_class

    t.check("end-to-end pipeline")
    report_pass(9, f"one region; mean err {mean_err:.1%}, volume err "
                   f"{vol_err:.1%}, class {expected_class}", t)


def test_criterion_10_determinism(end_to_end):
    config, _, _ = end_to_end
    first = (Path(config.out_dir) / "report.json").read_bytes()
    with Timer(300.0) as t:
        sw.run_pipeline(config)
        second = (Path(config.out_dir) / "report.json").read_bytes()
    assert first == second
    report_pass(10, "byte-identical report on re-run", t)
