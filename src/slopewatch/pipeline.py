"""End-to-end monitoring pipeline over synthetic epochs.

One pass per epoch, in date order: generate the epoch's scene, simulate
its station scans, register the stations to each other, register the
merged cloud to the first epoch, filter vegetation, build the DTM on the
first epoch's projection plane (``dtm_from_ground``), and difference it
against the previous epoch's DTM into a deformation field with its
significant regions and shape classes. Only the first epoch's merged
cloud and what the result returns, every DTM among it, outlive an
epoch. A report plus a manifest of every artifact close the run.
Deterministic for a fixed configuration: rerunning yields a
byte-identical report.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .analysis import (DEFAULT_BUDGET_MM, ShapeMeasure, build_report,
                       error_budget, interval_days, measure_regions,
                       regions_document, report_to_json)
from .cloud import (EpochRecord, PointCloud, concat_clouds,
                    estimate_normals, write_cloud)
from .errors import CloudFormatError, PipelineStageError
from .ground import ClothParams, filter_vegetation
from .registration import (NORMALS_K, register_global_hybrid,
                           register_multiview)
from .synth import (DEFAULT_NOISE_SIGMA_M, DEFAULT_SLOPE_DEG,
                    LandslideSpec, SceneTruth, add_vegetation,
                    apply_landslide, gen_terrain, stations_facing_slope,
                    simulate_stations)
from .terrain import (DeformationField, Region, dtm_from_ground,
                      mesh_distance, rate_field, significant_regions,
                      write_deformation, write_mesh)

logger = logging.getLogger(__name__)


@dataclass
class EpochSpec:
    """One acquisition campaign of the synthetic scene.

    ``landslides`` lists the displacement patches that occurred since the
    previous epoch; the scene accumulates them over time.
    """

    epoch_id: str
    date: str                      # ISO date
    station_count: int = 2
    landslides: list = field(default_factory=list)   # list[LandslideSpec]


@dataclass
class PipelineConfig:
    """The settable values of the pipeline; JSON round-trips losslessly.
    Values no caller varies are module constants."""

    rng_seed: int = 0
    out_dir: str = "runs/default"
    extent_m: tuple = (60.0, 40.0)
    mean_slope_deg: float = DEFAULT_SLOPE_DEG
    roughness_m: float = 0.12
    density_pts_m2: float = 30.0
    veg_coverage: float = 0.05
    veg_height_range_m: tuple = (0.5, 2.0)
    veg_seed: int = 77
    station_standoff_m: float = 60.0
    station_noise_sigma_m: float = DEFAULT_NOISE_SIGMA_M
    station_max_range_m: float | None = None
    station_occlusion: bool = False
    epochs: list = field(default_factory=list)       # list[EpochSpec]
    filter_cell_m: float = 15.0
    cloth: ClothParams = field(default_factory=ClothParams)
    dtm_max_edge_m: float = 2.0
    deform_max_dist_m: float = 5.0
    rate_threshold_mm_day: float = 2.0
    min_region_area_m2: float = 10.0
    budget_mm: tuple = DEFAULT_BUDGET_MM

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        def default(o):
            if isinstance(o, np.ndarray):
                return o.tolist()
            raise TypeError(f"not JSON-serializable: {o!r}")
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=default)

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        d = dict(d)
        d["epochs"] = [
            EpochSpec(**{**e, "landslides": [
                LandslideSpec(**{**s, "center": tuple(s["center"])})
                for s in e.get("landslides", [])]})
            for e in d.get("epochs", [])
        ]
        if isinstance(d.get("cloth"), dict):
            d["cloth"] = ClothParams(**d["cloth"])
        for key in ("extent_m", "veg_height_range_m", "budget_mm"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return PipelineConfig(**d)

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        """``CloudFormatError`` when ``text`` is not JSON or does not
        describe a ``PipelineConfig`` (an unknown or missing key)."""
        try:
            return PipelineConfig.from_dict(json.loads(text))
        except (ValueError, TypeError, KeyError) as exc:
            raise CloudFormatError(f"malformed pipeline config: {exc}") from exc


@dataclass
class PipelineResult:
    report: dict
    out_dir: Path
    manifest: dict
    regions: list
    fields: list
    truths: dict


@contextmanager
def _stage(name: str):
    """Run a stage: failures become ``PipelineStageError(name)``, and its
    wall and process-CPU seconds are logged when it ends (CPU above wall
    means it ran on more than one core), with the process's peak resident
    memory so far: the first stage whose line shows the run's peak set it."""
    logger.info("pipeline stage: %s", name)
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc
    finally:
        logger.info("stage %s took %.3f s wall, %.3f s cpu, peak rss %.1f MB",
                    name, time.perf_counter() - wall, time.process_time() - cpu,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def default_config(**overrides) -> PipelineConfig:
    """Two-epoch configuration with one injected landslide."""
    cfg = PipelineConfig(
        epochs=[
            EpochSpec(epoch_id="I", date="2013-03-14", station_count=2),
            EpochSpec(epoch_id="II", date="2013-09-10", station_count=2,
                      landslides=[LandslideSpec(center=(30.0, 6.84, 18.79),
                                                radius_along=9.0,
                                                radius_across=6.0,
                                                depth_m=0.5,
                                                azimuth_deg=90.0)]),
        ],
    )
    return dataclasses.replace(cfg, **overrides)


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the full monitoring chain and write all artifacts.

    Any stage failure aborts with ``PipelineStageError`` naming the stage;
    the artifacts written before it stay, and no manifest is written.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}

    def emit(name: str, data: bytes, stage: str):
        path = out_dir / name
        path.write_bytes(data)
        manifest[name] = stage

    with _stage("configure"):
        if len(config.epochs) < 1:
            raise ValueError("config needs at least one epoch")
        # an epoch id names its files and the field header comments
        ids = [e.epoch_id for e in config.epochs]
        for eid in ids:
            if ids.count(eid) > 1 or not eid or any(
                    c.isspace() or c in "/\\" for c in eid):
                raise ValueError(f"epoch id {eid!r} is repeated, empty, or "
                                 f"holds whitespace or a path separator")
        config_json = config.to_json()
        epochs_meta = [EpochRecord(epoch_id=e.epoch_id,
                                   acquisition_date=date.fromisoformat(e.date),
                                   station_count=e.station_count)
                       for e in config.epochs]
        days = [interval_days(a.acquisition_date, b.acquisition_date)
                for a, b in zip(epochs_meta, epochs_meta[1:])]

    # outlive an epoch: the terrain the slides accumulate on, epoch I's
    # cloud, and what the result returns (meshes[0] is epoch I's DTM,
    # whose plane every DTM shares, and meshes[-2] the previous one)
    terrain = reference = None
    scene_truths: list[SceneTruth] = []
    ground_clouds: list[PointCloud] = []
    meshes = []
    fields: list[DeformationField] = []
    all_regions: list[Region] = []
    all_shapes: list[ShapeMeasure | None] = []
    for i, espec in enumerate(config.epochs):
        with _stage("generate"):
            if terrain is None:
                terrain, truth0 = gen_terrain(
                    config.extent_m, config.mean_slope_deg, config.roughness_m,
                    config.density_pts_m2, seed=config.rng_seed)
            pair_disp = np.zeros(len(terrain))
            for spec in espec.landslides:
                terrain, t = apply_landslide(terrain, spec, frame=truth0.frame)
                pair_disp = pair_disp + t.true_displacement
            scene, _ = add_vegetation(
                terrain.with_(epoch_id=espec.epoch_id), config.veg_coverage,
                config.veg_height_range_m, seed=config.veg_seed)
            scene_truths.append(SceneTruth(
                true_displacement=np.concatenate(
                    [pair_disp, np.zeros(len(scene) - len(terrain))]),
                frame=truth0.frame))

        with _stage("scan"):
            jitter = np.random.default_rng([config.rng_seed, 101, i])
            poses = stations_facing_slope(scene, espec.station_count,
                                          config.station_standoff_m,
                                          jitter_rng=jitter)
            scans = simulate_stations(
                scene, poses,
                noise_sigma_m=config.station_noise_sigma_m,
                max_range_m=config.station_max_range_m,
                occlusion=config.station_occlusion,
                seed=int(np.random.default_rng([config.rng_seed, 202, i])
                         .integers(0, 2**31 - 1)))
            del scene

        with _stage("register_multiview"):
            scans = [estimate_normals(s, k=min(NORMALS_K, len(s)),
                                      viewpoint=(0.0, 0.0, 0.0))
                     for s in scans]
            transforms = register_multiview(scans)
            merged = concat_clouds([t.apply_cloud(s) for t, s
                                    in zip(transforms, scans)]
                                   ).with_(epoch_id=espec.epoch_id)
            del scans

        with _stage("register_epochs"):
            if reference is None:
                reference = aligned = merged
            else:
                result = register_global_hybrid(merged, reference)
                aligned = result.transform.apply_cloud(merged)
                logger.info("epoch %s -> %s rmse %.4f m (%d inliers)",
                            espec.epoch_id, config.epochs[0].epoch_id,
                            result.rmse, result.inlier_count)
            del merged
            emit(f"epoch_{espec.epoch_id}_aligned.ply",
                 write_cloud(aligned), "register_epochs")

        with _stage("filter_vegetation"):
            ground, removed, _ = filter_vegetation(
                aligned, cell_size=config.filter_cell_m, cloth=config.cloth)
            logger.info("epoch %s: %d ground / %d removed", espec.epoch_id,
                        len(ground), len(removed))
            del aligned, removed
            ground_clouds.append(ground)
            emit(f"epoch_{espec.epoch_id}_ground.ply",
                 write_cloud(ground), "filter_vegetation")

        with _stage("build_dtm"):
            mesh = dtm_from_ground(ground, meshes[0] if meshes else None,
                                   config.dtm_max_edge_m)
            meshes.append(mesh)
            emit(f"epoch_{espec.epoch_id}_dtm.ply", write_mesh(mesh),
                 "build_dtm")
        if i == 0:
            continue

        with _stage("deform"):
            f = mesh_distance(mesh, meshes[-2],
                              max_dist=config.deform_max_dist_m,
                              interval_days=days[i - 1],
                              compared_epoch=espec.epoch_id,
                              reference_epoch=config.epochs[i - 1].epoch_id)
            fields.append(f)
            emit(f"field_{f.reference_epoch}_{f.compared_epoch}.ply",
                 write_deformation(mesh, f), "deform")

        with _stage("analyze"):
            regions = significant_regions(mesh, rate_field(f),
                                          config.rate_threshold_mm_day,
                                          config.min_region_area_m2)
            all_shapes += measure_regions(regions, f, mesh,
                                          first_id=len(all_regions) + 1)
            all_regions += regions

    with _stage("report"):
        # regions.json lists the regions of every pair, so it waits for
        # the last one; the regions themselves come from "analyze"
        regions_doc = regions_document(all_regions, all_shapes,
                                       config.rate_threshold_mm_day,
                                       config.min_region_area_m2)
        emit("regions.json", report_to_json(regions_doc).encode(), "analyze")
        budget = error_budget(*config.budget_mm)
        report = build_report(epochs=epochs_meta, fields=fields,
                              regions=all_regions, shapes=all_shapes,
                              annotations=[], budget=budget,
                              parameters=json.loads(config_json))
        emit("report.json", report_to_json(report).encode(), "report")
        emit("config.json", config_json.encode(), "report")
        emit("manifest.json",
             json.dumps(manifest, indent=2, sort_keys=True).encode(), "report")

    truths = {
        "scene_truths": scene_truths,
        "ground_clouds": ground_clouds,
        "meshes": meshes,
    }
    return PipelineResult(report=report, out_dir=out_dir, manifest=manifest,
                          regions=all_regions, fields=fields, truths=truths)
