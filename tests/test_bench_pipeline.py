import dataclasses
import datetime
import gc
import json
import logging
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import slopewatch as sw
from slopewatch import cloud as cloud_mod, pipeline as pipeline_mod
from slopewatch import registration as reg
from slopewatch.bench import BenchmarkConfig, TrialConfig, run_table2_benchmark
from slopewatch.cli import main
from slopewatch.errors import DisconnectedViews, PipelineStageError
from slopewatch.pipeline import PipelineConfig, default_config, run_pipeline
from slopewatch.synth import LandslideSpec


def small_bench(trials=3, configurations=None):
    return BenchmarkConfig(
        trials=trials,
        seed=7,
        extent_m=(30.0, 20.0),
        density_pts_m2=6.0,
        configurations=configurations or [
            TrialConfig("null", rotation_deg=0.0, translation_frac=0.0),
        ],
    )


def test_benchmark_zero_displacement_all_succeed():
    report = run_table2_benchmark(small_bench())
    rows = report["configurations"][0]["rows"]
    assert {r["method"] for r in rows} == set(sw.bench.METHODS)
    for row in rows:
        assert row["success_rate"] == 1.0


def test_benchmark_row_count_matches_methods():
    config = small_bench(trials=2)
    config.methods = ("icp", "hybrid")
    report = run_table2_benchmark(config)
    assert len(report["configurations"][0]["rows"]) == 2


def test_benchmark_success_rate_matches_trial_recount():
    config = small_bench(trials=3, configurations=[
        TrialConfig("offset", rotation_deg=20.0, translation_frac=0.2),
    ])
    config.methods = ("icp",)
    report = run_table2_benchmark(config)
    cfg = report["configurations"][0]
    recount = sum(rec["icp"].get("success", False)
                  for rec in cfg["trial_records"]) / config.trials
    assert cfg["rows"][0]["success_rate"] == recount


def test_benchmark_deterministic():
    a = run_table2_benchmark(small_bench())
    b = run_table2_benchmark(small_bench())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# pipeline configuration
# ---------------------------------------------------------------------------


def test_stage_logs_its_wall_and_cpu_seconds_when_it_ends(caplog):
    with caplog.at_level(logging.INFO, logger="slopewatch.pipeline"):
        with pipeline_mod._stage("busy"):
            np.linalg.eigh(np.ones((50_000, 3, 3)))
        with pytest.raises(PipelineStageError):
            with pipeline_mod._stage("broken"):
                raise ValueError("bad input")
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0::2] == ["pipeline stage: busy", "pipeline stage: broken"]
    ends = [re.fullmatch(r"stage (\w+) took (\d+\.\d{3}) s wall, "
                         r"(\d+\.\d{3}) s cpu", m) for m in messages[1::2]]
    assert [m[1] for m in ends] == ["busy", "broken"]
    assert float(ends[0][3]) > 0.0


def test_pipeline_config_json_roundtrip(tmp_path):
    cfg = default_config(out_dir=str(tmp_path / "r"))
    text = cfg.to_json()
    again = PipelineConfig.from_json(text)
    assert again.to_json() == text
    assert again.epochs[1].landslides[0].depth_m == 0.5
    assert isinstance(again.cloth, sw.ClothParams)


def test_pipeline_stage_error_names_stage(tmp_path):
    cfg = default_config(out_dir=str(tmp_path / "r"))
    cfg.epochs[1].date = cfg.epochs[0].date  # breaks the epoch ordering
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "configure"


def test_pipeline_refuses_an_unserializable_date_before_any_stage(tmp_path):
    # a date object passes the interval check but not config.json
    cfg = default_config(out_dir=str(tmp_path / "r"))
    cfg.epochs[1].date = datetime.date(2013, 9, 10)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "configure"
    assert not list((tmp_path / "r").glob("*.ply"))


@pytest.mark.parametrize("epoch, epoch_id", [
    (1, "I"),                  # repeated: epoch II would overwrite I's files
    (1, "II b"),               # whitespace: the field header reads back "II"
    (0, ""),                   # empty: the field header reads back no epoch
    (1, "x/../../escaped"),    # a path separator leaves the output directory
])
def test_pipeline_refuses_a_bad_epoch_id_in_configure(tmp_path, capsys,
                                                      epoch, epoch_id):
    cfg = default_config(density_pts_m2=8, out_dir=str(tmp_path / "r"))
    cfg.epochs[epoch].epoch_id = epoch_id
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "stage 'configure' failed" in err[0]
    assert repr(epoch_id) in err[0]
    assert list(tmp_path.rglob("*.ply")) == []


def test_default_config_refuses_an_unknown_override():
    with pytest.raises(TypeError):
        default_config(densty_pts_m2=8)


def fast_config(tmp_path, **overrides):
    cfg = default_config(out_dir=str(tmp_path / "run"))
    cfg.density_pts_m2 = 8.0
    cfg.extent_m = (40.0, 30.0)
    cfg.veg_coverage = 0.03
    cfg.epochs[1].landslides = [LandslideSpec(
        center=(20.0, 5.13, 14.1), radius_along=8.0, radius_across=5.0,
        depth_m=0.6, azimuth_deg=90.0)]
    return dataclasses.replace(cfg, **overrides)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = fast_config(tmp)
    return cfg, run_pipeline(cfg)


def test_pipeline_produces_expected_artifacts(pipeline_run):
    cfg, result = pipeline_run
    out = Path(cfg.out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    for name, stage in manifest.items():
        assert (out / name).exists(), name
    stages = set(manifest.values())
    assert {"register_epochs", "filter_vegetation", "build_dtm", "deform",
            "analyze", "report"} <= stages
    assert "report.json" in manifest
    assert (out / "regions.json").exists()


def test_pipeline_finds_injected_slide(pipeline_run):
    _, result = pipeline_run
    assert len(result.regions) == 1
    row = result.report["regions"][0]
    assert row["shape_class"] in ("L", "VL", "W", "VW")
    assert result.report["epoch_pairs"][0]["interval_days"] == 180.0


def test_pipeline_report_parses_back(pipeline_run):
    cfg, result = pipeline_run
    text = (Path(cfg.out_dir) / "report.json").read_text()
    assert json.loads(text) == result.report


def test_regions_cli_writes_the_pipeline_rows(pipeline_run, tmp_path):
    cfg, _ = pipeline_run
    out = Path(cfg.out_dir)
    assert main(["regions", "--field", str(out / "field_I_II.ply"),
                 "--threshold", str(cfg.rate_threshold_mm_day),
                 "--min-area", str(cfg.min_region_area_m2),
                 "--out", str(tmp_path / "regions.json")]) == 0
    want = json.loads((out / "regions.json").read_text())
    got = json.loads((tmp_path / "regions.json").read_text())
    assert got.keys() == want.keys()
    assert got["threshold_mm_day"] == want["threshold_mm_day"]
    assert got["min_area_m2"] == want["min_area_m2"]
    assert len(got["regions"]) == len(want["regions"]) == 1
    for g, w in zip(got["regions"], want["regions"]):
        assert g.keys() == w.keys()
        for key in ("id", "epoch_pair", "vertex_set"):
            assert g[key] == w[key]
        for key in ("area_m2", "mean_rate_mm_day", "volume_m3", "W_m", "L_m"):
            assert g[key] == pytest.approx(w[key], rel=1e-9)


def test_pipeline_reports_a_region_without_width_or_length(tmp_path):
    # no area floor and a low threshold leave a one-vertex region beside
    # the slide; it has no shape, which nulls its row instead of the run
    cfg = fast_config(tmp_path, min_region_area_m2=0.01,
                      rate_threshold_mm_day=0.5)
    result = run_pipeline(cfg)
    rows = result.report["regions"]
    assert rows[0]["shape_class"] == "L"
    shapeless = [k for k, r in enumerate(result.regions)
                 if len(r.vertex_set) == 1]
    assert shapeless
    doc = json.loads((Path(cfg.out_dir) / "regions.json").read_text())
    for k in shapeless:
        assert [rows[k][key] for key in ("W_m", "L_m", "theta_deg",
                                         "shape_class", "type")] == [None] * 5
        assert doc["regions"][k]["W_m"] is doc["regions"][k]["L_m"] is None


def test_pipeline_identical_epochs_no_regions(tmp_path):
    cfg = fast_config(tmp_path, out_dir=str(tmp_path / "null"))
    cfg.epochs[1].landslides = []
    result = run_pipeline(cfg)
    assert result.regions == []
    mean_cm = result.report["epoch_pairs"][0]["mean_cm"]
    sigma_mm = result.report["error_budget"]["sigma_mm"]
    assert abs(mean_cm) * 10 < sigma_mm


# ---------------------------------------------------------------------------
# generator scenes: default_config(density_pts_m2=8) with one change each
# ---------------------------------------------------------------------------


def scene_config(tmp_path, **overrides):
    return default_config(density_pts_m2=8, out_dir=str(tmp_path / "run"),
                          **overrides)


def region_pairs(result):
    return [(row["epoch_pair"], row["shape_class"])
            for row in result.report["regions"]]


def test_pipeline_scene_with_station_occlusion(tmp_path):
    result = run_pipeline(scene_config(tmp_path, station_occlusion=True))
    assert region_pairs(result) == [("I,II", "L")]


def test_pipeline_scene_with_station_occlusion_and_range_crop(tmp_path,
                                                             monkeypatch):
    # 72 m crops every station's far slope (its scene reaches past 77 m)
    # but leaves the two views of each epoch linked
    farthest = []

    def scan(scene, poses, **kwargs):
        farthest.extend(np.linalg.norm(scene.points - p.translation,
                                       axis=1).max() for p in poses)
        return sw.simulate_stations(scene, poses, **kwargs)

    monkeypatch.setattr(pipeline_mod, "simulate_stations", scan)
    result = run_pipeline(scene_config(tmp_path, station_occlusion=True,
                                       station_max_range_m=72.0))
    assert len(farthest) == 4 and min(farthest) > 75.0
    assert region_pairs(result) == [("I,II", "L")]


def test_pipeline_scene_with_erosion(tmp_path):
    cfg = scene_config(tmp_path)
    slide = cfg.epochs[1].landslides[0]
    cfg.epochs[1].landslides = [dataclasses.replace(slide, depth_m=-0.5)]
    result = run_pipeline(cfg)
    assert region_pairs(result) == [("I,II", "L")]
    assert result.report["epoch_pairs"][0]["mean_cm"] == pytest.approx(
        -1.09, abs=0.01)


def test_pipeline_scene_with_erosion_beside_deposition(tmp_path):
    cfg = scene_config(tmp_path)
    cfg.epochs[1].landslides.append(LandslideSpec(
        center=(48.0, 6.84, 18.79), radius_along=8.0, radius_across=5.0,
        depth_m=-0.5, azimuth_deg=90.0))
    result = run_pipeline(cfg)
    assert region_pairs(result) == [("I,II", "L")] * 2
    signs = sorted(np.sign(np.mean(result.fields[0].values[r.vertex_set]))
                   for r in result.regions)
    assert signs == [-1.0, 1.0]


def test_pipeline_scene_with_a_third_epoch_without_slide(tmp_path):
    cfg = scene_config(tmp_path)
    cfg.epochs.append(sw.EpochSpec(epoch_id="III", date="2014-03-09",
                                   station_count=2))
    result = run_pipeline(cfg)
    assert [(p["reference_epoch"], p["compared_epoch"])
            for p in result.report["epoch_pairs"]] == [("I", "II"),
                                                        ("II", "III")]
    assert region_pairs(result) == [("I,II", "L")]


def test_pipeline_releases_each_epoch_before_scanning_the_next(tmp_path,
                                                             monkeypatch):
    # an epoch's scene and scans are garbage once merged: before it is
    # filtered and before the next epoch is scanned
    refs, alive = [], []

    def watch(name, tracked):
        real = getattr(pipeline_mod, name)

        def call(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            result = real(*args, **kwargs)
            refs.extend(weakref.ref(c) for c in tracked(args, result))
            return result
        monkeypatch.setattr(pipeline_mod, name, call)

    watch("simulate_stations", lambda args, scans: [args[0], *scans])
    watch("register_multiview", lambda args, _: args[0])
    watch("filter_vegetation", lambda args, _: [])
    cfg = scene_config(tmp_path)
    cfg.epochs.append(sw.EpochSpec(epoch_id="III", date="2014-03-09",
                                   station_count=2))
    result = run_pipeline(cfg)
    assert alive == [0] * 9
    assert len(refs) == 15   # per epoch: scene, 2 scans, 2 with normals
    assert region_pairs(result) == [("I,II", "L")]


def test_pipeline_scene_with_three_stations_and_a_third_epoch_slide(tmp_path):
    cfg = scene_config(tmp_path)
    for epoch in cfg.epochs:
        epoch.station_count = 3
    cfg.epochs.append(sw.EpochSpec(
        epoch_id="III", date="2014-03-09", station_count=3,
        landslides=[LandslideSpec(center=(12.0, 6.84, 18.79), radius_along=8.0,
                                  radius_across=5.0, depth_m=0.5,
                                  azimuth_deg=90.0)]))
    result = run_pipeline(cfg)
    assert region_pairs(result) == [("I,II", "L"), ("II,III", "L")]


def test_pipeline_scene_with_stations_out_of_range(tmp_path):
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(scene_config(tmp_path, station_max_range_m=65.0))
    assert err.value.stage == "register_multiview"
    assert isinstance(err.value.__cause__, DisconnectedViews)


@pytest.fixture(scope="module")
def traced_default_run(tmp_path_factory):
    """``default_config(density_pts_m2=8)`` with every ICP result, every
    epoch registration call with its arguments beyond the two clouds, and
    its kd-tree builds on the reference."""
    icp_results, hybrid_calls = [], []
    real_icp, real_hybrid = reg.icp, reg.register_global_hybrid
    real_tree = cloud_mod.cKDTree

    def icp(*args, **kwargs):
        result = real_icp(*args, **kwargs)
        icp_results.append(result)
        return result

    def hybrid(source, target, *args, **kwargs):
        call = {"reference": target.points, "reference_trees": 0,
                "extra_args": (args, kwargs)}
        hybrid_calls.append(call)
        try:
            return real_hybrid(source, target, *args, **kwargs)
        finally:
            call["done"] = True

    def tree(data, *args, **kwargs):
        for call in hybrid_calls:
            if "done" not in call and np.array_equal(data, call["reference"]):
                call["reference_trees"] += 1
        return real_tree(data, *args, **kwargs)

    cfg = default_config(density_pts_m2=8,
                         out_dir=str(tmp_path_factory.mktemp("traced")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reg, "icp", icp)
        mp.setattr(pipeline_mod, "register_global_hybrid", hybrid)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("slopewatch.")
                    and getattr(mod, "cKDTree", None) is real_tree):
                mp.setattr(mod, "cKDTree", tree)
        result = run_pipeline(cfg)
    return cfg, result, icp_results, hybrid_calls


def test_pipeline_icp_calls_all_converge(traced_default_run):
    _, result, icp_results, _ = traced_default_run
    assert len(result.regions) == 1
    # two multi-view merges, then one ICP from the hybrid start per pair
    assert len(icp_results) == 3
    assert all(r.converged for r in icp_results)


def test_pipeline_registers_each_epoch_pair_once(traced_default_run):
    cfg, _, _, hybrid_calls = traced_default_run
    assert len(hybrid_calls) == len(cfg.epochs) - 1
    assert [c["reference_trees"] for c in hybrid_calls] == [1] * len(hybrid_calls)


def test_pipeline_registers_epochs_with_the_hybrid_defaults(traced_default_run):
    """The pipeline's epoch call is ``register --method hybrid``'s: the
    two clouds and nothing else."""
    _, _, _, hybrid_calls = traced_default_run
    assert [c["extra_args"] for c in hybrid_calls] == [((), {})] * len(hybrid_calls)


def _surface_chain(clouds, cfg, shift):
    """``filter_vegetation`` -> ``dtm_from_ground`` -> ``mesh_distance`` ->
    ``significant_regions`` on two epochs' aligned clouds moved by ``shift``."""
    labels, meshes = [], []
    for cloud in clouds:
        ground, _, labeling = sw.filter_vegetation(
            cloud.with_(points=cloud.points + shift),
            cell_size=cfg.filter_cell_m, cloth=cfg.cloth)
        labels.append(labeling.labels)
        meshes.append(sw.dtm_from_ground(ground, meshes[0] if meshes else None,
                                         cfg.dtm_max_edge_m))
    field = sw.mesh_distance(meshes[1], meshes[0],
                             max_dist=cfg.deform_max_dist_m, interval_days=180.0)
    regions = sw.significant_regions(meshes[1], sw.rate_field(field),
                                     cfg.rate_threshold_mm_day,
                                     cfg.min_region_area_m2)
    return labels, meshes, field, regions


def test_surface_chain_does_not_depend_on_where_the_cloud_sits(
        traced_default_run):
    """The run's aligned clouds moved off the sub-slope cell grid (7 m) and
    to survey coordinates give the same labels, DTMs, signs and regions."""
    cfg = traced_default_run[0]
    clouds = [sw.read_cloud(Path(cfg.out_dir) / f"epoch_{e}_aligned.ply")
              for e in ("I", "II")]
    labels, meshes, field, regions = _surface_chain(clouds, cfg, np.zeros(3))
    assert len(regions) == 1
    for shift in ((7.0, 0.0, 0.0), (500007.0, 4400003.0, 100.0)):
        moved = _surface_chain(clouds, cfg, np.array(shift))
        for a, b in zip(labels, moved[0]):
            np.testing.assert_array_equal(a, b)
        assert ([len(m.vertices) for m in meshes]
                == [len(m.vertices) for m in moved[1]])
        np.testing.assert_array_equal(field.valid, moved[2].valid)
        valid = field.valid
        np.testing.assert_array_equal(np.sign(field.values[valid]),
                                      np.sign(moved[2].values[valid]))
        np.testing.assert_allclose(moved[2].values[valid], field.values[valid],
                                   rtol=0, atol=1e-8)
        assert ([sorted(r.vertex_set) for r in regions]
                == [sorted(r.vertex_set) for r in moved[3]])


def test_epoch_registration_lands_within_half_the_scan_noise(tmp_path):
    """Epoch II's stable ground lies where epoch I's frame puts the
    generator's terrain: fitting each epoch's stable ground points to
    their noise-free scene points, the two fits move epoch II's points by
    under 3 mm RMS, half the 6 mm scan noise. Seed 3 is the worst seed
    measured."""
    cfg = default_config(density_pts_m2=8, rng_seed=3, out_dir=str(tmp_path))
    result = run_pipeline(cfg)
    terrain, _ = sw.gen_terrain(cfg.extent_m, cfg.mean_slope_deg,
                                cfg.roughness_m, cfg.density_pts_m2,
                                seed=cfg.rng_seed)
    fits = []
    for ground, truth in zip(result.truths["ground_clouds"],
                             result.truths["scene_truths"]):
        src = ground.scalars["source_index"].astype(int)
        stable = ground.labels == sw.PointClass.GROUND
        stable[stable] = truth.true_displacement[src[stable]] == 0.0
        points = ground.points[stable]
        fits.append(sw.fit_rigid(points, terrain.points[src[stable]]))
    err = fits[1].apply(points) - fits[0].apply(points)
    assert np.sqrt(np.mean((err ** 2).sum(axis=1))) < 0.003
