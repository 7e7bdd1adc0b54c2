import dataclasses
import json
import logging
import re
import sys
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


def fast_config(tmp_path, **overrides):
    cfg = default_config(out_dir=str(tmp_path / "run"))
    cfg.density_pts_m2 = 8.0
    cfg.extent_m = (40.0, 30.0)
    cfg.veg_coverage = 0.03
    cfg.epochs[1].landslides = [LandslideSpec(
        center=(20.0, 5.13, 14.1), radius_along=8.0, radius_across=5.0,
        depth_m=0.6, azimuth_deg=90.0)]
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


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
    epoch registration call and its kd-tree builds on the reference."""
    icp_results, hybrid_calls = [], []
    real_icp, real_hybrid = reg.icp, reg.register_global_hybrid
    real_tree = cloud_mod.cKDTree

    def icp(*args, **kwargs):
        result = real_icp(*args, **kwargs)
        icp_results.append(result)
        return result

    def hybrid(source, target, *args, **kwargs):
        call = {"reference": target.points, "reference_trees": 0}
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
    # two multi-view merges, then the hybrid start and the polish per pair
    assert len(icp_results) == 4
    assert all(r.converged for r in icp_results)


def test_pipeline_registers_each_epoch_pair_once(traced_default_run):
    cfg, _, _, hybrid_calls = traced_default_run
    assert len(hybrid_calls) == len(cfg.epochs) - 1
    assert [c["reference_trees"] for c in hybrid_calls] == [1] * len(hybrid_calls)
