"""Landslide shape classification, error budgeting and report assembly.

The shape angle arctan(L/W) splits regions into very-long / long / wide /
very-wide classes on 22.5-degree intervals with inclusive lower bounds.
The displacement error budget propagates five independent components with
fixed multiplicities; geotechnical motion types are accepted as external
annotations, never inferred.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum

import numpy as np

from .cloud import EpochRecord
from .errors import UndefinedMotionVector
from .terrain import DeformationField, Region, TriangleMesh, field_stats

CRUDEN_TYPES = ("FA", "TO", "S", "SP", "FL", "RS", "TS")

# (multiplicity, component) layout of the displacement error budget
ERROR_MULTIPLICITIES = (2, 2, 1, 2, 1)
DEFAULT_BUDGET_MM = (6.0, 30.0, 60.0, 10.0, 10.0)


class ShapeClass(str, Enum):
    VL = "VL"   # very long
    L = "L"     # long
    W = "W"     # wide
    VW = "VW"   # very wide


@dataclass(frozen=True)
class ShapeMeasure:
    """Width/length footprint of a region along its motion direction."""

    W_m: float
    L_m: float
    theta_deg: float
    motion_vector: tuple   # unit 2-vector in the DTM plane basis

    def __post_init__(self):
        if self.W_m <= 0 or self.L_m <= 0:
            raise ValueError("W and L must be positive")
        if not (0.0 < self.theta_deg < 90.0):
            raise ValueError("theta must lie in (0, 90) degrees")


@dataclass(frozen=True)
class ErrorBudget:
    m_TLS: float
    m_mreg: float
    m_treg: float
    m_veg: float
    m_mesh: float
    multiplicities: tuple = ERROR_MULTIPLICITIES
    sigma_mm: float = 0.0

    def __post_init__(self):
        comps = (self.m_TLS, self.m_mreg, self.m_treg, self.m_veg, self.m_mesh)
        if any(c < 0 for c in comps):
            raise ValueError("error components must be non-negative")
        sigma = math.sqrt(sum(k * c * c for k, c in zip(self.multiplicities, comps)))
        object.__setattr__(self, "sigma_mm", sigma)


@dataclass(frozen=True)
class MotionAnnotation:
    """External geotechnical motion-type tag for a region (pass-through)."""

    region_id: int
    cruden_type: str | None = None

    def __post_init__(self):
        if self.cruden_type is not None and self.cruden_type not in CRUDEN_TYPES:
            raise ValueError(
                f"cruden_type must be one of {CRUDEN_TYPES}, got {self.cruden_type!r}"
            )


# ---------------------------------------------------------------------------
# Shape measurement and classification
# ---------------------------------------------------------------------------


def region_extent(
    region: Region,
    field_: DeformationField,
    mesh: TriangleMesh,
    motion_azimuth_deg: float | None = None,
    fallback_ratio: float = 0.15,
) -> ShapeMeasure:
    """Width and length of a region along its motion direction.

    The motion direction is the in-plane component of the displacement-
    weighted mean motion (per-vertex signed value times the local surface
    normal). When that component is negligible (displacement is a pure
    offset along the projection normal) it falls back to the steepest-
    descent direction of the projection plane; a horizontal plane with no
    motion has no direction at all and raises ``UndefinedMotionVector``.
    ``motion_azimuth_deg`` (degrees from the first in-plane basis vector)
    overrides the estimate.

    L is the extent of the projected region vertices along the motion
    direction, W the extent along the in-plane perpendicular.
    """
    members = region.vertex_set
    if len(members) == 0:
        raise ValueError("region has no vertices")
    u, v = mesh.plane_basis()
    n = mesh.plane_normal

    if motion_azimuth_deg is not None:
        az = math.radians(motion_azimuth_deg)
        direction2 = np.array([math.cos(az), math.sin(az)])
    else:
        vertex_normals = mesh.vertex_normals()[members]
        vals = field_.values[members]
        vals = np.where(np.isfinite(vals), vals, 0.0)
        motion = (vals[:, None] * vertex_normals).mean(axis=0)
        in_plane = motion - (motion @ n) * n
        norm_motion = np.linalg.norm(motion)
        if np.linalg.norm(in_plane) > fallback_ratio * max(norm_motion, 1e-300):
            direction2 = np.array([in_plane @ u, in_plane @ v])
        else:
            downhill = np.array([0.0, 0.0, -1.0])
            steepest = downhill - (downhill @ n) * n
            if np.linalg.norm(steepest) < 1e-9:
                raise UndefinedMotionVector(
                    "no in-plane motion and the projection plane is horizontal"
                )
            direction2 = np.array([steepest @ u, steepest @ v])
        direction2 /= np.linalg.norm(direction2)

    uv = mesh.project(mesh.vertices[members])
    along = uv @ direction2
    across = uv @ np.array([-direction2[1], direction2[0]])
    L = float(along.max() - along.min())
    W = float(across.max() - across.min())
    if L <= 0 or W <= 0:
        raise ValueError("degenerate region extent")
    return ShapeMeasure(W_m=W, L_m=L, theta_deg=shape_angle(W, L),
                        motion_vector=(float(direction2[0]), float(direction2[1])))


def shape_angle(W_m: float, L_m: float) -> float:
    """Shape angle arctan(L/W) in degrees, in (0, 90)."""
    if W_m <= 0 or L_m <= 0:
        raise ValueError("W and L must be positive")
    theta = math.degrees(math.atan(L_m / W_m))
    if L_m < W_m:
        # L a few ulps below W rounds to exactly 45 degrees, the long side
        theta = min(theta, math.nextafter(45.0, 0.0))
    return theta


def classify_shape(theta_deg: float) -> ShapeClass:
    """Angle class on 22.5-degree intervals, lower bounds inclusive."""
    if not (0.0 < theta_deg < 90.0):
        raise ValueError(f"theta must lie in (0, 90) degrees, got {theta_deg}")
    if theta_deg >= 67.5:
        return ShapeClass.VL
    if theta_deg >= 45.0:
        return ShapeClass.L
    if theta_deg >= 22.5:
        return ShapeClass.W
    return ShapeClass.VW


# ---------------------------------------------------------------------------
# Error budget and intervals
# ---------------------------------------------------------------------------


def error_budget(m_TLS: float, m_mreg: float, m_treg: float,
                 m_veg: float, m_mesh: float) -> ErrorBudget:
    """Propagated displacement error, all components in millimeters."""
    return ErrorBudget(m_TLS=m_TLS, m_mreg=m_mreg, m_treg=m_treg,
                       m_veg=m_veg, m_mesh=m_mesh)


def relative_error(sigma_mm: float, displacement_m: float) -> float:
    """Propagated error over observed displacement, as a fraction."""
    if displacement_m <= 0:
        raise ValueError("displacement must be positive")
    if sigma_mm < 0:
        raise ValueError("sigma must be non-negative")
    return (sigma_mm / 1000.0) / displacement_m


def _coerce_date(d) -> date:
    if isinstance(d, datetime):
        return d.date()
    if isinstance(d, date):
        return d
    return date.fromisoformat(str(d))


def interval_days(date_a, date_b) -> int:
    """Exact calendar-day difference (Gregorian, leap-aware)."""
    a = _coerce_date(date_a)
    b = _coerce_date(date_b)
    if b <= a:
        raise ValueError(f"second date must come after the first ({a} -> {b})")
    return (b - a).days


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _json_float(x) -> float:
    return float(x)


def build_report(
    epochs: list[EpochRecord],
    fields: list[DeformationField],
    regions: list[Region],
    shapes: list[ShapeMeasure | None],
    annotations: list[MotionAnnotation],
    budget: ErrorBudget,
    parameters: dict | None = None,
) -> dict:
    """Assemble one JSON-serializable monitoring report.

    ``shapes`` aligns positionally with ``regions``; annotations refer to
    region ids and must all resolve. The document carries per-epoch-pair
    rows (interval, mean, std), per-region rows (W, L, volume, class,
    optional motion-type annotation) and the error budget, plus the
    parameter provenance handed in.
    """
    if len(shapes) != len(regions):
        raise ValueError("regions and shapes must align")
    region_ids = {r.region_id for r in regions}
    ann_by_id: dict[int, str | None] = {}
    for ann in annotations:
        if ann.region_id not in region_ids:
            raise ValueError(f"annotation for unknown region id {ann.region_id}")
        ann_by_id[ann.region_id] = ann.cruden_type

    epoch_rows = []
    for e in epochs:
        epoch_rows.append({
            "epoch_id": e.epoch_id,
            "date": e.acquisition_date.isoformat(),
            "station_count": int(e.station_count),
        })

    pair_rows = []
    for f in fields:
        stats = field_stats(f)
        pair_rows.append({
            "compared_epoch": f.compared_epoch,
            "reference_epoch": f.reference_epoch,
            "interval_days": _json_float(f.interval_days),
            "mean_cm": _json_float(stats.mean * 100.0),
            "std_cm": _json_float(stats.std * 100.0),
            "valid_count": int(stats.valid_count),
        })

    region_rows = []
    for r, s in zip(regions, shapes):
        cruden = ann_by_id.get(r.region_id)
        row = {
            "id": int(r.region_id) if r.region_id is not None else None,
            "epoch_pair": r.epoch_pair,
            "area_m2": _json_float(r.area_m2),
            "mean_rate_mm_day": _json_float(r.mean_rate_mm_day),
            "volume_m3": _json_float(r.volume_m3),
            "W_m": None if s is None else _json_float(s.W_m),
            "L_m": None if s is None else _json_float(s.L_m),
            "theta_deg": None if s is None else _json_float(s.theta_deg),
            "shape_class": None if s is None else classify_shape(s.theta_deg).value,
            "cruden_type": cruden,
        }
        if row["shape_class"] is not None:
            row["type"] = row["shape_class"] + (f"-{cruden}" if cruden else "")
        else:
            row["type"] = None
        region_rows.append(row)

    return {
        "epochs": epoch_rows,
        "epoch_pairs": pair_rows,
        "regions": region_rows,
        "error_budget": {
            "m_TLS_mm": _json_float(budget.m_TLS),
            "m_mreg_mm": _json_float(budget.m_mreg),
            "m_treg_mm": _json_float(budget.m_treg),
            "m_veg_mm": _json_float(budget.m_veg),
            "m_mesh_mm": _json_float(budget.m_mesh),
            "multiplicities": [int(k) for k in budget.multiplicities],
            "sigma_mm": _json_float(budget.sigma_mm),
        },
        "parameters": parameters or {},
    }


def report_to_json(report: dict) -> str:
    """Deterministic serialization (sorted keys, fixed indentation)."""
    return json.dumps(report, indent=2, sort_keys=True)


def parse_report(text: str) -> dict:
    return json.loads(text)


def render_report_text(report: dict) -> str:
    """Aligned-column text rendering of the report tables."""
    lines = []
    lines.append("epoch pairs")
    lines.append(f"{'pair':<12}{'days':>8}{'mean_cm':>12}{'std_cm':>12}{'valid':>10}")
    for row in report.get("epoch_pairs", []):
        pair = f"{row.get('reference_epoch')},{row.get('compared_epoch')}"
        lines.append(
            f"{pair:<12}{row['interval_days']:>8.0f}{row['mean_cm']:>12.1f}"
            f"{row['std_cm']:>12.1f}{row['valid_count']:>10d}"
        )
    lines.append("")
    lines.append("regions")
    lines.append(f"{'id':<4}{'W_m':>8}{'L_m':>8}{'volume_m3':>12}{'type':>8}")
    for row in report.get("regions", []):
        w = "-" if row["W_m"] is None else f"{row['W_m']:.1f}"
        l = "-" if row["L_m"] is None else f"{row['L_m']:.1f}"
        lines.append(
            f"{row['id']:<4}{w:>8}{l:>8}{row['volume_m3']:>12.1f}"
            f"{(row['type'] or '-'):>8}"
        )
    lines.append("")
    sig = report["error_budget"]["sigma_mm"]
    lines.append(f"error budget sigma_mm {sig:.1f}")
    return "\n".join(lines) + "\n"
