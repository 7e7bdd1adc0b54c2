"""Each correctness check of the benchmark rejects a wrong output.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The surface and pipeline checks run on one small four-epoch scene (40
pts/m2 over 14 x 10 m) built by the surface workload with shrunken
constants; every test first confirms the untouched output passes.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import workloads
from slopewatch.errors import NoOverlap
from slopewatch.registration import RegistrationResult
from slopewatch.rigid import RigidTransform


@pytest.fixture(scope="module")
def surface():
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "SURFACE_EXTENT", (14.0, 10.0))
    patch.setattr(workloads, "SURFACE_DENSITY", 40.0)
    patch.setattr(workloads, "MIN_REGION_AREA_M2", 3.0)
    patch.setattr(workloads, "SURFACE_EPOCHS", [
        ("I", "2013-03-14", []),
        ("II", "2013-08-17", [(4.5, 5.0, 3.0, 2.5, 0.7)]),
        ("III", "2013-11-06", [(10.0, 5.0, 3.0, 2.5, 0.5)]),
        ("IV", "2014-09-13", []),
    ])
    wl = workloads.SurfacePaperDensity()
    epochs, _ = wl.setup(7)
    out = wl.run(epochs)
    patch.undo()
    assert not out.failed
    assert wl.check(epochs, out) == []
    return wl, epochs, out


def rerun_check(surface, **changes):
    wl, epochs, out = surface
    results = dict(out.results, **changes)
    return wl.check(epochs, dataclasses.replace(out, results=results))


def scaled_field(f, factor):
    return dataclasses.replace(f, values=f.values * factor)


@pytest.mark.parametrize("factor", [-1.0, 1.2, 0.8])
def test_region_check_rejects_flipped_or_scaled_field(surface, factor):
    fields = list(surface[2].results["fields"])
    fields[0] = scaled_field(fields[0], factor)
    problems = rerun_check(surface, fields=fields)
    assert any("pair I-II region 1: mean displacement" in p for p in problems)


def test_region_check_rejects_wrong_volume(surface):
    regions = [list(r) for r in surface[2].results["regions"]]
    regions[1] = [dataclasses.replace(r, volume_m3=r.volume_m3 * 1.2)
                  for r in regions[1]]
    problems = rerun_check(surface, regions=regions)
    assert any("pair II-III region 1: volume" in p for p in problems)


def test_no_movement_pair_must_yield_no_region(surface):
    regions = [list(r) for r in surface[2].results["regions"]]
    regions[2] = list(regions[1])
    problems = rerun_check(surface, regions=regions)
    assert "pair III-IV: 1 regions, want 0" in problems


def test_moving_pair_must_yield_its_region(surface):
    regions = [list(r) for r in surface[2].results["regions"]]
    regions[0] = []
    problems = rerun_check(surface, regions=regions)
    assert "pair I-II: 0 regions, want 1" in problems


def test_stable_ground_rejects_an_offset(surface):
    fields = list(surface[2].results["fields"])
    f = fields[2]
    fields[2] = dataclasses.replace(f, values=f.values + 0.03)
    problems = rerun_check(surface, fields=fields)
    assert any(p.startswith("pair III-IV: stable ground") for p in problems)


def test_ground_accuracy_rejects_vegetation_marked_ground(surface):
    wl, epochs, out = surface
    labelings = list(out.results["labelings"])
    all_ground = np.zeros_like(epochs[1].scan.labels)   # PointClass.GROUND
    assert (epochs[1].scan.labels != all_ground).mean() > 0.05
    labelings[1] = SimpleNamespace(labels=all_ground)
    problems = rerun_check(surface, labelings=labelings)
    assert any(p.startswith("epoch II: ground-filter accuracy")
               for p in problems)


def test_interval_check_rejects_a_wrong_day_count(surface):
    report = dict(surface[2].results["report"])
    report["epoch_pairs"] = [dict(r) for r in report["epoch_pairs"]]
    report["epoch_pairs"][1]["interval_days"] += 1
    problems = rerun_check(surface, report=report)
    assert "pair II-III: interval 82.0, want 81" in problems


# -- pipeline_default's scene check, on the same small scene -----------------

def pipeline_result(surface, field_factor=1.0, shape_class="L"):
    """The II-III pair shaped like a two-epoch run_pipeline result."""
    _, epochs, out = surface
    res = out.results
    field = scaled_field(res["fields"][1], field_factor)
    truth = SimpleNamespace(true_displacement=epochs[2].truth)
    return SimpleNamespace(
        report={"epoch_pairs": [{"interval_days": 81.0}],
                "regions": [{"shape_class": shape_class}]},
        regions=[res["regions"][1][0]], fields=[field],
        truths={"meshes": [None, res["meshes"][2]],
                "ground_clouds": [None, res["grounds"][2]],
                "scene_truths": [None, truth]})


def pipeline_config(surface):
    spec = surface[1][2].slides[0]
    return SimpleNamespace(epochs=[
        SimpleNamespace(date="2013-08-17", landslides=[]),
        SimpleNamespace(date="2013-11-06", landslides=[spec])])


def test_pipeline_check_accepts_the_truth(surface):
    cfg = pipeline_config(surface)
    spec = cfg.epochs[1].landslides[0]
    want = checks.shape_class(2 * spec.radius_across, 2 * spec.radius_along)
    res = pipeline_result(surface, shape_class=want)
    assert workloads.PipelineDefault._check_scene("scene", cfg, res) == []


@pytest.mark.parametrize("factor", [-1.0, 1.2])
def test_pipeline_check_rejects_a_wrong_field(surface, factor):
    cfg = pipeline_config(surface)
    spec = cfg.epochs[1].landslides[0]
    want = checks.shape_class(2 * spec.radius_across, 2 * spec.radius_along)
    res = pipeline_result(surface, factor, shape_class=want)
    problems = workloads.PipelineDefault._check_scene("scene", cfg, res)
    assert any("mean displacement" in p for p in problems)


def test_pipeline_check_rejects_shape_class_count_and_interval(surface):
    cfg = pipeline_config(surface)
    res = pipeline_result(surface, shape_class="VW")
    problems = workloads.PipelineDefault._check_scene("scene", cfg, res)
    assert any("shape class VW" in p for p in problems)
    res.report["epoch_pairs"][0]["interval_days"] = 180.0
    res.regions = res.regions * 2
    problems = workloads.PipelineDefault._check_scene("scene", cfg, res)
    assert "scene: interval 180.0 days, want 81" in problems
    assert "scene: 2 regions, want 1" in problems


def test_shape_class_bins():
    # the paper's table rows (W, L) -> class
    rows = [((31.1, 56.0), "L"), ((9.9, 16.5), "L"), ((16.4, 44.8), "VL"),
            ((20.9, 32.1), "L"), ((24.3, 52.1), "L"), ((10.0, 5.0), "W"),
            ((10.0, 1.0), "VW")]
    assert [checks.shape_class(w, l) for (w, l), _ in rows] == [
        c for _, c in rows]


# -- registration_pairs --------------------------------------------------------

def rotation_z(deg):
    return workloads._rotation_z(math.radians(deg))


def trial(kind, diameter=36.0):
    threshold = (workloads.FAR_THRESHOLD_M if kind == "large"
                 else workloads.BASIN_THRESHOLD * diameter)
    rot = rotation_z(60.0 if kind == "large" else 5.0)
    trans = np.array([3.0, -2.0, 1.0])
    return workloads.PairTrial(kind, None, None, rot.T, -(rot.T @ trans),
                               diameter, threshold)


def result(t, extra_deg=0.0):
    rot = rotation_z(extra_deg) @ t.truth_rotation
    return RegistrationResult(RigidTransform(rot, t.truth_translation),
                              rmse=0.0, iterations=1, converged=True,
                              inlier_count=1)


def judge(t, row):
    wl = workloads.RegistrationPairs()
    out = workloads.Outcome(results=[row])
    return wl.check([t], out), wl.layer_metrics([t], out)


def test_pose_error_is_zero_for_the_truth_and_grows_with_rotation():
    t = trial("small")
    assert checks.pose_error(t.truth_rotation, t.truth_translation,
                             t.truth_rotation, t.truth_translation, 36.0) == 0.0
    off = result(t, 1.0).transform
    err = checks.pose_error(off.rotation, off.translation, t.truth_rotation,
                            t.truth_translation, 36.0)
    # corners of a 36 m cube sit 25.5 m from the z axis
    assert err == pytest.approx(2 * 18 * math.sqrt(2) * math.sin(
        math.radians(0.5)), rel=1e-9)


def test_pairs_accept_exact_poses():
    t = trial("small")
    row = {m: result(t) for m in workloads.METHODS}
    problems, layer = judge(t, row)
    assert problems == []
    assert layer == {"pairs.icp_misses": 0, "pairs.coarse_icp_misses": 0,
                     "pairs.hybrid_misses": 0}


def test_hybrid_off_by_one_degree_where_icp_succeeds_is_rejected():
    t = trial("small")
    row = {m: result(t) for m in workloads.METHODS}
    row["hybrid"] = result(t, 1.0)
    problems, layer = judge(t, row)
    assert problems == ["trial 0 (small): hybrid misses where icp succeeds"]
    assert layer["pairs.hybrid_misses"] == 1


def test_hybrid_miss_on_a_large_offset_is_rejected():
    t = trial("large")
    for bad in (result(t, 5.0), NoOverlap("far")):
        row = {"icp": NoOverlap("far"), "coarse+icp": result(t),
               "hybrid": bad}
        problems, _ = judge(t, row)
        assert problems == ["trial 0 (large): hybrid misses a large offset"]


def test_plain_icp_misses_are_counted_not_rejected():
    t = trial("large")
    row = {"icp": NoOverlap("far"), "coarse+icp": result(t, 10.0),
           "hybrid": result(t, 0.5)}
    problems, layer = judge(t, row)
    assert problems == []
    assert layer == {"pairs.icp_misses": 1, "pairs.coarse_icp_misses": 1,
                     "pairs.hybrid_misses": 0}


def test_truth_at_vertices_follows_source_index():
    ground = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    source = np.array([5.0, 3.0, 4.0])
    truth = np.arange(6) / 10.0
    got = checks.truth_at_vertices(np.array([[1.9, 0, 0], [0.1, 0, 0]]),
                                   ground, source, truth)
    np.testing.assert_allclose(got, [0.4, 0.5])
