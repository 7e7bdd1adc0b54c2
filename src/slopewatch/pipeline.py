"""End-to-end monitoring pipeline over synthetic epochs.

Generates the scene for every epoch, simulates station scans, registers
stations within each epoch and epochs against the first one, filters
vegetation, builds per-epoch DTMs on a shared projection plane, differences
adjacent DTMs, extracts significant regions with shape classes, and writes
a report plus a manifest of every artifact. Deterministic for a fixed
configuration: rerunning yields a byte-identical report.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import (DEFAULT_BUDGET_MM, ShapeMeasure, build_report,
                       error_budget, interval_days, measure_regions,
                       regions_document, report_to_json)
from .cloud import (EpochRecord, PointCloud, concat_clouds,
                    estimate_normals, fit_plane, remove_outliers,
                    voxel_downsample, write_cloud)
from .errors import CloudFormatError, PipelineStageError
from .ground import ClothParams, filter_vegetation
from .registration import (NORMALS_K, register_global_hybrid,
                           register_multiview)
from .synth import (DEFAULT_NOISE_SIGMA_M, DEFAULT_SLOPE_DEG,
                    LandslideSpec, SceneTruth, add_vegetation,
                    apply_landslide, gen_terrain, stations_facing_slope,
                    simulate_stations)
from .terrain import (DeformationField, Region, build_dtm, mesh_distance,
                      rate_field, significant_regions, write_deformation,
                      write_mesh)

logger = logging.getLogger(__name__)

# stable-area polish of each epoch registration: pairs beyond this gate
# (deforming surface) are ignored so a landslide cannot drag the alignment
EPOCH_REFINE_PAIR_M = 0.2
DTM_VOXEL_M = 0.1   # ground thinning before triangulation


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
    means it ran on more than one core)."""
    logger.info("pipeline stage: %s", name)
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc
    finally:
        logger.info("stage %s took %.3f s wall, %.3f s cpu", name,
                    time.perf_counter() - wall, time.process_time() - cpu)


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
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the full monitoring chain and write all artifacts.

    Any stage failure aborts with ``PipelineStageError`` naming the stage.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, str] = {}

    def emit(name: str, data: bytes, stage: str):
        path = out_dir / name
        path.write_bytes(data)
        manifest[name] = stage

    epochs_meta: list[EpochRecord] = []
    with _stage("configure"):
        if len(config.epochs) < 1:
            raise ValueError("config needs at least one epoch")
        for e in config.epochs:
            epochs_meta.append(EpochRecord(
                epoch_id=e.epoch_id,
                acquisition_date=analysis._coerce_date(e.date),
                station_count=e.station_count,
            ))
        days = [interval_days(a.acquisition_date, b.acquisition_date)
                for a, b in zip(epochs_meta, epochs_meta[1:])]

    # -- scene generation -------------------------------------------------
    scene_clouds: list[PointCloud] = []
    scene_truths: list[SceneTruth] = []
    with _stage("generate"):
        base, truth0 = gen_terrain(config.extent_m, config.mean_slope_deg,
                                   config.roughness_m, config.density_pts_m2,
                                   seed=config.rng_seed)
        frame = truth0.frame
        current = base
        for espec in config.epochs:
            pair_disp = np.zeros(len(base))
            for spec in espec.landslides:
                current, t = apply_landslide(current, spec, frame=frame)
                pair_disp = pair_disp + t.true_displacement
            cloud_e, _ = add_vegetation(
                current.with_(epoch_id=espec.epoch_id), config.veg_coverage,
                config.veg_height_range_m, seed=config.veg_seed)
            scene_clouds.append(cloud_e)
            scene_truths.append(SceneTruth(
                true_displacement=np.concatenate(
                    [pair_disp, np.zeros(len(cloud_e) - len(base))]),
                frame=frame))

    # -- station simulation ------------------------------------------------
    station_clouds: list[list[PointCloud]] = []
    with _stage("scan"):
        for i, espec in enumerate(config.epochs):
            jitter = np.random.default_rng([config.rng_seed, 101, i])
            poses = stations_facing_slope(scene_clouds[i], espec.station_count,
                                          config.station_standoff_m,
                                          jitter_rng=jitter)
            scans = simulate_stations(
                scene_clouds[i], poses,
                noise_sigma_m=config.station_noise_sigma_m,
                max_range_m=config.station_max_range_m,
                occlusion=config.station_occlusion,
                seed=int(np.random.default_rng([config.rng_seed, 202, i])
                         .integers(0, 2**31 - 1)))
            station_clouds.append(scans)

    # -- single-epoch multi-view registration ------------------------------
    merged: list[PointCloud] = []
    with _stage("register_multiview"):
        for i, scans in enumerate(station_clouds):
            prepared = [estimate_normals(s, k=min(NORMALS_K, len(s)),
                                         viewpoint=(0.0, 0.0, 0.0))
                        for s in scans]
            transforms = register_multiview(prepared)
            aligned = [t.apply_cloud(s) for t, s in zip(transforms, prepared)]
            merged.append(concat_clouds(aligned).with_(
                epoch_id=config.epochs[i].epoch_id))

    # -- multi-epoch registration ------------------------------------------
    aligned_epochs: list[PointCloud] = []
    with _stage("register_epochs"):
        reference = merged[0]
        aligned_epochs.append(reference)
        for k in range(1, len(merged)):
            result = register_global_hybrid(
                merged[k], reference, refine_pair_m=EPOCH_REFINE_PAIR_M)
            aligned_epochs.append(result.transform.apply_cloud(merged[k]))
            logger.info("epoch %s -> %s rmse %.4f m (%d inliers)",
                        config.epochs[k].epoch_id, config.epochs[0].epoch_id,
                        result.rmse, result.inlier_count)
        for c in aligned_epochs:
            emit(f"epoch_{c.epoch_id}_aligned.ply",
                 write_cloud(c), "register_epochs")

    # -- vegetation filtering ----------------------------------------------
    ground_clouds: list[PointCloud] = []
    with _stage("filter_vegetation"):
        for c in aligned_epochs:
            ground, removed, labeling = filter_vegetation(
                c, cell_size=config.filter_cell_m, cloth=config.cloth)
            ground_clouds.append(ground)
            logger.info("epoch %s: %d ground / %d removed", c.epoch_id,
                        len(ground), len(removed))
            emit(f"epoch_{c.epoch_id}_ground.ply",
                 write_cloud(ground), "filter_vegetation")

    # -- DTM construction ----------------------------------------------------
    meshes = []
    with _stage("build_dtm"):
        thinned = [voxel_downsample(remove_outliers(c), DTM_VOXEL_M)
                   for c in ground_clouds]
        plane = fit_plane(thinned[0].points)
        for c in thinned:
            mesh = build_dtm(c, projection_plane=plane,
                             max_edge=config.dtm_max_edge_m)
            meshes.append(mesh)
            emit(f"epoch_{c.epoch_id}_dtm.ply", write_mesh(mesh), "build_dtm")

    # -- deformation fields ---------------------------------------------------
    fields: list[DeformationField] = []
    with _stage("deform"):
        for k in range(1, len(meshes)):
            f = mesh_distance(meshes[k], meshes[k - 1],
                              max_dist=config.deform_max_dist_m,
                              interval_days=days[k - 1],
                              compared_epoch=config.epochs[k].epoch_id,
                              reference_epoch=config.epochs[k - 1].epoch_id)
            fields.append(f)
            emit(f"field_{f.reference_epoch}_{f.compared_epoch}.ply",
                 write_deformation(meshes[k], f), "deform")

    # -- regions, shapes, report ----------------------------------------------
    all_regions: list[Region] = []
    all_shapes: list[ShapeMeasure | None] = []
    with _stage("analyze"):
        for k, f in enumerate(fields):
            mesh = meshes[k + 1]
            regions = significant_regions(mesh, rate_field(f),
                                          config.rate_threshold_mm_day,
                                          config.min_region_area_m2)
            all_shapes += measure_regions(regions, f, mesh,
                                          first_id=len(all_regions) + 1)
            all_regions += regions
        regions_doc = regions_document(all_regions, all_shapes,
                                       config.rate_threshold_mm_day,
                                       config.min_region_area_m2)
        emit("regions.json", report_to_json(regions_doc).encode(), "analyze")

    report: dict = {}
    with _stage("report"):
        budget = error_budget(*config.budget_mm)
        report = build_report(epochs=epochs_meta, fields=fields,
                              regions=all_regions, shapes=all_shapes,
                              annotations=[], budget=budget,
                              parameters=json.loads(config.to_json()))
        emit("report.json", report_to_json(report).encode(), "report")
        emit("config.json", config.to_json().encode(), "report")
        emit("manifest.json",
             json.dumps(manifest, indent=2, sort_keys=True).encode(), "report")

    truths = {
        "scene_truths": scene_truths,
        "ground_clouds": ground_clouds,
        "meshes": meshes,
    }
    return PipelineResult(report=report, out_dir=out_dir, manifest=manifest,
                          regions=all_regions, fields=fields, truths=truths)
