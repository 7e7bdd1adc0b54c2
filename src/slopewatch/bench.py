"""Registration benchmark over seeded synthetic epoch pairs.

Each trial builds a terrain, optionally deforms part of it (temporal
change), displaces it by a known rigid transform, and asks each method to
recover the pose. Success is pose RMSE at or under a configured threshold.
Per-trial seeds derive from the master seed, so results do not depend on
execution order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import diameter
from .errors import SlopewatchError
from .registration import (IcpParams, RegistrationResult, coarse_register,
                           evaluate_registration, icp, register_global_hybrid)
from .rigid import RigidTransform
from .synth import LandslideSpec, apply_landslide, gen_terrain

logger = logging.getLogger(__name__)

METHODS = ("icp", "coarse+icp", "hybrid")
CHANGE_DEPTH_M = 1.0   # peak surface change of a trial's deformed patch


@dataclass
class TrialConfig:
    """One benchmark configuration: pose offset and local surface change."""

    name: str
    rotation_deg: float
    translation_frac: float        # of the cloud diameter
    change_fraction: float = 0.0   # surface area fraction locally deformed


@dataclass
class BenchmarkConfig:
    trials: int = 10
    seed: int = 0
    extent_m: tuple = (60.0, 40.0)
    mean_slope_deg: float = 70.0
    roughness: float = 0.5
    density_pts_m2: float = 8.0
    success_threshold_m: float = 1.0
    configurations: list = field(default_factory=lambda: [
        TrialConfig("small-offset", rotation_deg=5.0, translation_frac=0.1),
        TrialConfig("large-offset-local-change", rotation_deg=60.0,
                    translation_frac=0.5, change_fraction=0.3),
    ])
    methods: tuple = METHODS


def _random_offset(rng, rotation_deg: float, translation_frac: float,
                   diam: float) -> RigidTransform:
    angle = math.radians(rotation_deg) * rng.choice([-1.0, 1.0])
    rot = RigidTransform.rotation_about_axis(np.array([0.0, 0.0, 1.0]), angle)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return RigidTransform(rot.rotation, translation_frac * diam * direction)


def run_method(method: str, source, target, icp_params: IcpParams) -> RegistrationResult:
    """Register ``source`` into ``target``'s frame by one of ``METHODS``."""
    if method == "icp":
        return icp(source, target, icp_params)
    if method == "coarse+icp":
        t0 = coarse_register(source, target)
        return icp(source, target, icp_params, init=t0)
    if method == "hybrid":
        return register_global_hybrid(source, target, icp_params)
    raise ValueError(f"unknown method {method!r}")


def run_table2_benchmark(config: BenchmarkConfig) -> dict:
    """Success rate and mean pose RMSE per method per configuration."""
    report = {"configurations": [], "trials": config.trials,
              "success_threshold_m": config.success_threshold_m}
    for ci, trial_cfg in enumerate(config.configurations):
        per_method = {m: {"successes": 0, "rmse": []}
                      for m in config.methods}
        trial_records = []
        for t in range(config.trials):
            rng = np.random.default_rng([config.seed, ci, t])
            terrain_seed = int(rng.integers(0, 2**31 - 1))
            target, truth0 = gen_terrain(config.extent_m, config.mean_slope_deg,
                                         config.roughness, config.density_pts_m2,
                                         seed=terrain_seed)
            moved = target
            if trial_cfg.change_fraction > 0:
                ex, ey = config.extent_m
                radius = math.sqrt(trial_cfg.change_fraction * ex * ey / math.pi)
                center_uv = rng.uniform([radius, radius],
                                        [ex - radius, ey - radius])
                frame = truth0.frame
                center = (center_uv[0] * frame.axis_u
                          + center_uv[1] * frame.axis_v)
                spec = LandslideSpec(center=tuple(center), radius_along=radius,
                                     radius_across=radius,
                                     depth_m=CHANGE_DEPTH_M,
                                     azimuth_deg=float(rng.uniform(0, 360)))
                moved, _ = apply_landslide(target, spec, frame=frame)
            diam = diameter(target)
            offset = _random_offset(rng, trial_cfg.rotation_deg,
                                    trial_cfg.translation_frac, diam)
            source = offset.apply_cloud(moved)
            truth = offset.inverse()

            record = {"trial": t, "terrain_seed": terrain_seed}
            for m in config.methods:
                try:
                    result = run_method(m, source, target, IcpParams())
                    ev = evaluate_registration(result, truth, diam,
                                               config.success_threshold_m)
                    per_method[m]["successes"] += int(ev.success)
                    per_method[m]["rmse"].append(ev.pose_rmse)
                    record[m] = {"success": bool(ev.success),
                                 "pose_rmse_m": float(ev.pose_rmse)}
                except SlopewatchError as exc:
                    per_method[m]["rmse"].append(float("inf"))
                    record[m] = {"success": False, "error": str(exc)}
                    logger.info("trial %d method %s errored: %s", t, m, exc)
            trial_records.append(record)

        rows = []
        for m in config.methods:
            rmse = [r for r in per_method[m]["rmse"] if np.isfinite(r)]
            rows.append({
                "method": m,
                "success_rate": per_method[m]["successes"] / config.trials,
                "mean_pose_rmse_m": float(np.mean(rmse)) if rmse else None,
                "trials": config.trials,
            })
        report["configurations"].append({
            "name": trial_cfg.name,
            "rotation_deg": trial_cfg.rotation_deg,
            "translation_frac": trial_cfg.translation_frac,
            "change_fraction": trial_cfg.change_fraction,
            "rows": rows,
            "trial_records": trial_records,
        })
    return report
