"""Landslide shape classification, error budgeting and report assembly.

A region's width W and length L are measured along its motion direction:
the fall line of the projection plane, unless an azimuth is given. The
shape angle arctan(L/W) splits regions into very-long / long / wide /
very-wide classes on 22.5-degree intervals with inclusive lower bounds.
The displacement error budget propagates five independent components with
fixed multiplicities; geotechnical motion types are accepted as external
annotations, never inferred.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from datetime import date, datetime
from enum import Enum

import numpy as np

from .cloud import EpochRecord, plane_basis
from .errors import DegenerateSurface, UndefinedMotionVector
from .terrain import (DeformationField, Region, TriangleMesh, field_stats,
                      region_volume)

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

    def __post_init__(self):
        if any(c < 0 for c in astuple(self)):
            raise ValueError("error components must be non-negative")

    @property
    def sigma_mm(self) -> float:
        """The propagated displacement error of the five components."""
        return math.sqrt(sum(k * c * c for k, c in
                             zip(ERROR_MULTIPLICITIES, astuple(self))))


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
) -> ShapeMeasure:
    """Width and length of a region along its motion direction.

    The motion direction is the fall line (steepest descent) of the
    projection plane, or ``motion_azimuth_deg`` (degrees from the first
    in-plane basis vector) when given. A horizontal plane has no fall line,
    so without an azimuth it raises ``UndefinedMotionVector``. ``field_`` is
    not read: a distance field measured along the normal cannot see the
    tangential motion of a slide. It stays in the signature for callers
    that pass it positionally.

    L is the extent of the projected region vertices along the motion
    direction, W the extent along the in-plane perpendicular. A region
    without width or length (one vertex, or vertices on one line) raises
    ``DegenerateSurface``.
    """
    members = region.vertex_set
    if len(members) == 0:
        raise ValueError("region has no vertices")

    if motion_azimuth_deg is not None:
        az = math.radians(motion_azimuth_deg)
        direction2 = np.array([math.cos(az), math.sin(az)])
    else:
        n = mesh.plane_normal
        u, v = plane_basis(n)
        downhill = np.array([0.0, 0.0, -1.0])
        steepest = downhill - (downhill @ n) * n
        if np.linalg.norm(steepest) < 1e-9:
            raise UndefinedMotionVector(
                "the projection plane is horizontal and has no fall line; "
                "give a motion azimuth")
        direction2 = np.array([steepest @ u, steepest @ v])
        direction2 /= np.linalg.norm(direction2)

    uv = mesh.project(mesh.vertices[members])
    along = uv @ direction2
    across = uv @ np.array([-direction2[1], direction2[0]])
    L = float(along.max() - along.min())
    W = float(across.max() - across.min())
    if L <= 0 or W <= 0:
        raise DegenerateSurface("degenerate region extent")
    return ShapeMeasure(W_m=W, L_m=L, theta_deg=shape_angle(W, L))


def measure_regions(regions: list[Region], field_: DeformationField,
                    mesh: TriangleMesh,
                    first_id: int = 1) -> list[ShapeMeasure | None]:
    """Number ``regions`` of one field from ``first_id``, set their volume
    and epoch pair, and return their shapes, aligned with ``regions``.

    The epoch pair is ``"reference,compared"`` when the field names both
    epochs, else None. A region without width or length, or every region
    when the projection plane is horizontal and so has no fall line, has
    the shape None.
    """
    pair = None
    if field_.reference_epoch is not None and field_.compared_epoch is not None:
        pair = f"{field_.reference_epoch},{field_.compared_epoch}"
    shapes = []
    for region_id, r in enumerate(regions, start=first_id):
        r.volume_m3 = region_volume(r, field_, mesh)
        r.region_id = region_id
        r.epoch_pair = pair
        try:
            shapes.append(region_extent(r, field_, mesh))
        except (UndefinedMotionVector, DegenerateSurface):
            shapes.append(None)
    return shapes


def regions_document(regions: list[Region], shapes: list[ShapeMeasure | None],
                     threshold_mm_day: float, min_area_m2: float) -> dict:
    """The ``regions.json`` document: one row per region with its vertices
    and the ``_region_row`` fields, plus the extraction settings."""
    rows = [{**_region_row(r, s), "vertex_set": [int(v) for v in r.vertex_set]}
            for r, s in zip(regions, shapes, strict=True)]
    return {"regions": rows, "threshold_mm_day": threshold_mm_day,
            "min_area_m2": min_area_m2}


def _region_row(region: Region, shape: ShapeMeasure | None) -> dict:
    """The fields ``regions.json`` and the report share for a region: its
    id, epoch pair, area, mean rate, volume, and the W and L of its aligned
    shape (None without one)."""
    return {"id": None if region.region_id is None else int(region.region_id),
            "epoch_pair": region.epoch_pair,
            "area_m2": float(region.area_m2),
            "mean_rate_mm_day": float(region.mean_rate_mm_day),
            "volume_m3": float(region.volume_m3),
            "W_m": None if shape is None else float(shape.W_m),
            "L_m": None if shape is None else float(shape.L_m)}


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
            "interval_days": float(f.interval_days),
            "mean_cm": float(stats.mean * 100.0),
            "std_cm": float(stats.std * 100.0),
            "valid_count": int(stats.valid_count),
        })

    region_rows = []
    for r, s in zip(regions, shapes):
        cruden = ann_by_id.get(r.region_id)
        shape_class = None if s is None else classify_shape(s.theta_deg).value
        region_rows.append({
            **_region_row(r, s),
            "theta_deg": None if s is None else float(s.theta_deg),
            "shape_class": shape_class,
            "cruden_type": cruden,
            "type": (None if shape_class is None
                     else shape_class + (f"-{cruden}" if cruden else "")),
        })

    return {
        "epochs": epoch_rows,
        "epoch_pairs": pair_rows,
        "regions": region_rows,
        "error_budget": {
            "m_TLS_mm": float(budget.m_TLS),
            "m_mreg_mm": float(budget.m_mreg),
            "m_treg_mm": float(budget.m_treg),
            "m_veg_mm": float(budget.m_veg),
            "m_mesh_mm": float(budget.m_mesh),
            "multiplicities": [int(k) for k in ERROR_MULTIPLICITIES],
            "sigma_mm": float(budget.sigma_mm),
        },
        "parameters": parameters or {},
    }


def report_to_json(report: dict) -> str:
    """Standard JSON (sorted keys, fixed indentation, no NaN or infinity)
    of a report or a regions document."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
