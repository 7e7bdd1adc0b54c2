"""Synthetic slope scenes with ground truth.

Generates fractal terrain on an inclined base plane, clustered vegetation
blobs, smoothly tapered landslide displacements, and per-station scan
simulation (range crop, angular z-buffer occlusion, Gaussian noise). Every
generator is a pure function of its parameters and seed. Defaults mirror a
survey-grade terrestrial scanner: 6 mm noise, 154 points per square meter,
a slope standing near 70 degrees.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cloud import (PointClass, PointCloud, diameter, fit_plane, plane_basis,
                    _unique_rows)
from .errors import DegenerateSurface
from .rigid import RigidTransform

logger = logging.getLogger(__name__)

DEFAULT_NOISE_SIGMA_M = 0.006
DEFAULT_DENSITY_PTS_M2 = 154.0
DEFAULT_SLOPE_DEG = 70.0
VEG_SUPPORT_RADIUS_M = 2.0  # plan-view reach of the ground under vegetation
# z-buffer occlusion: angular bin side, and how far behind the nearest
# return in its bin a point may lie and stay visible
OCCLUSION_BIN_DEG = 0.05
OCCLUSION_TOL_M = 0.1


@dataclass(frozen=True)
class TerrainFrame:
    """Base-plane frame: point = u * axis_u + v * axis_v + h * normal."""

    axis_u: np.ndarray
    axis_v: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class LandslideSpec:
    """Elliptical displacement patch riding on the base plane.

    ``depth_m`` is the peak signed surface change along the plane normal
    (positive deposition, negative erosion). An equal tangential drift of
    peak ``|depth_m|`` along ``azimuth_deg`` carries material downslope, so
    the total displacement direction is the normal-plus-azimuth diagonal.
    """

    center: tuple
    radius_along: float
    radius_across: float
    depth_m: float
    azimuth_deg: float

    def __post_init__(self):
        if self.depth_m == 0:
            raise ValueError("depth must be nonzero")
        if self.radius_along <= 0 or self.radius_across <= 0:
            raise ValueError("radii must be positive")


@dataclass
class SceneTruth:
    """Ground truth accompanying a generated cloud."""

    true_displacement: np.ndarray | None = None
    frame: TerrainFrame | None = None


def _value_noise(u: np.ndarray, v: np.ndarray, extent: tuple, rng,
                 octaves: int = 4) -> np.ndarray:
    """Multi-octave bilinear value noise, RMS roughly 1."""
    out = np.zeros_like(u)
    base = max(extent) / 4.0
    for o in range(octaves):
        cell = max(base / (2 ** o), 1e-6)
        amp = 0.5 ** o
        nx = int(np.ceil(extent[0] / cell)) + 2
        ny = int(np.ceil(extent[1] / cell)) + 2
        lattice = rng.standard_normal((nx, ny))
        fx = np.clip(u / cell, 0, nx - 1 - 1e-9)
        fy = np.clip(v / cell, 0, ny - 1 - 1e-9)
        i0 = fx.astype(np.int64)
        j0 = fy.astype(np.int64)
        tx = fx - i0
        ty = fy - j0
        smooth_x = tx * tx * (3 - 2 * tx)
        smooth_y = ty * ty * (3 - 2 * ty)
        val = ((1 - smooth_x) * (1 - smooth_y) * lattice[i0, j0]
               + smooth_x * (1 - smooth_y) * lattice[i0 + 1, j0]
               + (1 - smooth_x) * smooth_y * lattice[i0, j0 + 1]
               + smooth_x * smooth_y * lattice[i0 + 1, j0 + 1])
        out += amp * val
    rms = float(np.sqrt(np.mean(out ** 2)))
    return out / rms if rms > 0 else out


def terrain_frame(slope_deg: float) -> TerrainFrame:
    theta = math.radians(slope_deg)
    return TerrainFrame(
        axis_u=np.array([1.0, 0.0, 0.0]),
        axis_v=np.array([0.0, math.cos(theta), math.sin(theta)]),
        normal=np.array([0.0, -math.sin(theta), math.cos(theta)]),
    )


def gen_terrain(
    extent_m: tuple,
    mean_slope_deg: float,
    roughness: float,
    density_pts_m2: float,
    seed: int = 0,
) -> tuple[PointCloud, SceneTruth]:
    """Fractal-noise height field over an inclined base plane.

    ``roughness`` is the RMS height of the relief perpendicular to the
    base plane, meters; zero puts every sample exactly on the plane. The
    sample count is ``round(area * density)``; identical seeds give
    bitwise-identical clouds.
    """
    if density_pts_m2 <= 0:
        raise ValueError("density must be positive")
    if not 0.0 <= mean_slope_deg <= 90.0:
        raise ValueError("mean slope must be in [0, 90] degrees")
    if not roughness >= 0.0:
        raise ValueError("roughness must not be negative")
    rng = np.random.default_rng(seed)
    ex, ey = float(extent_m[0]), float(extent_m[1])
    n = int(round(ex * ey * density_pts_m2))
    u = rng.uniform(0.0, ex, n)
    v = rng.uniform(0.0, ey, n)
    if roughness > 0:
        h = roughness * _value_noise(u, v, (ex, ey), rng)
    else:
        h = np.zeros(n)
    frame = terrain_frame(mean_slope_deg)
    pts = (u[:, None] * frame.axis_u + v[:, None] * frame.axis_v
           + h[:, None] * frame.normal)
    labels = np.full(n, np.uint8(PointClass.GROUND))
    cloud = PointCloud(points=pts, labels=labels)
    truth = SceneTruth(true_displacement=np.zeros(n), frame=frame)
    return cloud, truth


def add_vegetation(
    cloud: PointCloud,
    coverage_fraction: float,
    height_range_m: tuple = (0.5, 2.0),
    seed: int = 0,
) -> tuple[PointCloud, SceneTruth]:
    """Clustered above-surface blobs labeled vegetation, scattered in plan
    about their anchor ground points (1 m standard deviation, clipped at 3 m).

    ``coverage_fraction`` is the vegetation share of the output cloud.
    Blob points sit at least ``height_range_m[0]`` above the highest ground
    point within ``VEG_SUPPORT_RADIUS_M`` in plan view (measured along the
    best-fit plane normal, found exactly by ``_max_within``), so no
    vegetation point hugs the local surface. ``DegenerateSurface`` when the
    points labeled ground define no plane.
    """
    if not (0.0 <= coverage_fraction < 1.0):
        raise ValueError("coverage must lie in [0, 1)")
    n_ground = len(cloud)
    labels_in = cloud.labels if cloud.labels is not None else np.full(
        n_ground, np.uint8(PointClass.GROUND))
    n_veg = int(round(coverage_fraction / (1.0 - coverage_fraction) * n_ground))
    if n_veg == 0:
        truth = SceneTruth(true_displacement=np.zeros(n_ground))
        return cloud.with_(labels=labels_in), truth

    rng = np.random.default_rng(seed)
    ground_idx = np.flatnonzero(labels_in == PointClass.GROUND)
    if len(ground_idx) == 0:
        raise DegenerateSurface("no point is labeled ground")
    ground_pts = cloud.points[ground_idx]
    normal = fit_plane(ground_pts)[0]
    axis_u, axis_v = plane_basis(normal)

    plan = np.column_stack([ground_pts @ axis_u, ground_pts @ axis_v])
    s_ground = ground_pts @ normal

    n_clusters = max(1, n_veg // 50)
    anchors = rng.choice(len(ground_idx), size=n_clusters, replace=True)
    assign = rng.integers(0, n_clusters, size=n_veg)
    jitter = np.clip(rng.normal(0.0, 1.0, size=(n_veg, 2)), -3.0, 3.0)
    heights = rng.uniform(height_range_m[0], height_range_m[1], size=n_veg)

    plan_q = plan[anchors[assign]] + jitter
    s_base = _max_within(plan, s_ground, plan_q, VEG_SUPPORT_RADIUS_M)
    bare = np.isneginf(s_base)
    s_base[bare] = s_ground[anchors[assign[bare]]]
    veg_pts = (plan_q[:, 0, None] * axis_u + plan_q[:, 1, None] * axis_v
               + (s_base + heights)[:, None] * normal)

    points = np.vstack([cloud.points, veg_pts])
    labels = np.concatenate([labels_in,
                             np.full(n_veg, np.uint8(PointClass.VEGETATION))])
    scalars = {k: np.concatenate([v, np.zeros(n_veg)])
               for k, v in cloud.scalars.items()}
    out = PointCloud(points=points, scalars=scalars, labels=labels,
                     epoch_id=cloud.epoch_id)
    truth = SceneTruth(true_displacement=np.zeros(len(points)))
    return out, truth


# cell offsets, in cells of radius / 2, that can meet a disc of the radius
# about a point of the centre cell: the 5 x 5 block, and the middle three
# cells of each side one further out, which only a point within rounding
# of the radius can reach
_STENCIL = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
            if max(abs(a), abs(b)) <= 2 or min(abs(a), abs(b)) <= 1]
_CELL_TOL = 1e-6   # relative slack of the cell tests against rounding


def _max_within(points: np.ndarray, values: np.ndarray, queries: np.ndarray,
                radius: float) -> np.ndarray:
    """Per query, the largest of ``values`` over the plan ``points`` within
    ``radius`` (inclusive), or -inf where there is none.

    A point is within when ``dx*dx + dy*dy <= radius*radius``, the rule of
    scipy's ball queries, so the result is exact. The points are binned
    into square cells of side ``radius / 2``; only occupied cells are
    indexed (sorted keys and ``searchsorted``), so memory follows the point
    count and not the plan extent. A cell wholly inside a query's disc
    gives its highest value outright. A cell the disc only partly covers
    is scanned highest point first, while its values beat the query's best
    so far, and its first point inside the disc ends the scan. The cell
    tests keep a relative slack of ``_CELL_TOL``, so rounding can only send
    a cell to the exact point test.
    """
    best = np.full(len(queries), -np.inf)
    if len(points) == 0 or len(queries) == 0:
        return best
    side = radius / 2.0
    origin = points.min(axis=0)
    cell = np.floor((points - origin) / side).astype(np.int64)
    top_cell = cell.max(axis=0)
    stride = top_cell[1] + 1
    key = cell[:, 0] * stride + cell[:, 1]
    # by cell, highest value first inside each (ties in any order)
    order = np.argsort(-values)
    order = order[np.argsort(key[order], kind="stable")]
    x, y, value = points[order, 0], points[order, 1], values[order]
    cell_keys, start, count = np.unique(key[order], return_index=True,
                                        return_counts=True)

    # per axis and offset: squared nearest and farthest distance from the
    # query to the cell column (or row), in cells, and whether it exists
    in_cells = (queries - origin) / side
    q_cell = np.floor(in_cells).astype(np.int64)
    frac = in_cells - q_cell
    near2, far2, exists = {}, {}, {}
    for axis in range(2):
        for off in range(-3, 4):
            lo, hi = off - frac[:, axis], off + 1 - frac[:, axis]
            near2[axis, off] = np.maximum(np.maximum(lo, -hi), 0.0) ** 2
            far2[axis, off] = np.maximum(np.abs(lo), np.abs(hi)) ** 2
            c = q_cell[:, axis] + off
            exists[axis, off] = (c >= 0) & (c <= top_cell[axis])
    q_key = q_cell[:, 0] * stride + q_cell[:, 1]

    scan_q, scan_cell = [], []
    for a, b in _STENCIL:
        # the disc's radius is 2 cells
        q = np.flatnonzero((near2[0, a] + near2[1, b] <= 4.0 * (1 + _CELL_TOL))
                           & exists[0, a] & exists[1, b])
        c_key = q_key[q] + (a * stride + b)
        pos = np.minimum(np.searchsorted(cell_keys, c_key), len(cell_keys) - 1)
        occupied = cell_keys[pos] == c_key
        q, pos = q[occupied], pos[occupied]
        whole = far2[0, a][q] + far2[1, b][q] <= 4.0 * (1 - _CELL_TOL)
        full = q[whole]
        best[full] = np.maximum(best[full], value[start[pos[whole]]])
        scan_q.append(q[~whole])
        scan_cell.append(pos[~whole])

    q = np.concatenate(scan_q)
    cells = np.concatenate(scan_cell)
    beats = value[start[cells]] > best[q]
    q, cells = q[beats], cells[beats]
    at, end = start[cells], start[cells] + count[cells]
    qx, qy = queries[:, 0], queries[:, 1]
    r2 = radius * radius
    while len(q):
        v = value[at]
        dx, dy = x[at] - qx[q], y[at] - qy[q]
        hit = dx * dx + dy * dy <= r2
        np.maximum.at(best, q[hit], v[hit])
        # a miss scans on while its next value may still beat the best
        go = ~hit & (v > best[q]) & (at + 1 < end)
        q, at, end = q[go], at[go] + 1, end[go]
    return best


def apply_landslide(
    cloud: PointCloud,
    region_spec: LandslideSpec,
    frame: TerrainFrame | None = None,
) -> tuple[PointCloud, SceneTruth]:
    """Displace points inside an elliptical patch by a cosine-tapered field.

    The taper is 0.5 * (1 + cos(pi * rho)) on the normalized elliptical
    radius rho, so the surface change peaks at ``depth_m`` in the center
    and falls smoothly to zero on the rim. ``true_displacement`` records
    the signed change along the plane normal per point. Without ``frame``
    the patch rides on the best plane of the ground points (of all points
    when none is labeled ground); ``DegenerateSurface`` when they define
    none.
    """
    pts = cloud.points
    if frame is not None:
        normal = frame.normal
        axis_u = frame.axis_u
        axis_v = frame.axis_v
    else:
        if cloud.labels is not None and (cloud.labels == PointClass.GROUND).any():
            base = pts[cloud.labels == PointClass.GROUND]
        else:
            base = pts
        normal = fit_plane(base)[0]
        axis_u, axis_v = plane_basis(normal)

    az = math.radians(region_spec.azimuth_deg)
    t_along = math.cos(az) * axis_u + math.sin(az) * axis_v
    t_across = np.cross(normal, t_along)

    center = np.asarray(region_spec.center, dtype=np.float64)
    w = pts - center
    a = (w @ t_along) / region_spec.radius_along
    b = (w @ t_across) / region_spec.radius_across
    rho = np.hypot(a, b)
    inside = rho < 1.0
    taper = np.zeros(len(pts))
    taper[inside] = 0.5 * (1.0 + np.cos(np.pi * rho[inside]))

    normal_change = region_spec.depth_m * taper
    drift = abs(region_spec.depth_m) * taper
    displacement = normal_change[:, None] * normal + drift[:, None] * t_along
    moved = pts + displacement

    out = cloud.with_(points=moved)
    truth = SceneTruth(true_displacement=normal_change)
    return out, truth


def leveled_station_pose(position, target) -> RigidTransform:
    """Station pose (local -> world) that keeps the instrument leveled.

    Survey scanners run dual-axis compensated, so the local +z axis is the
    world vertical; only the yaw points the +y axis at the horizontal
    direction of ``target``. A leveled frame keeps gravity meaningful in
    station coordinates (slope leveling, downhill directions).
    """
    position = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - position
    fwd[2] = 0.0
    norm = np.linalg.norm(fwd)
    fwd = np.array([0.0, 1.0, 0.0]) if norm < 1e-12 else fwd / norm
    right = np.array([fwd[1], -fwd[0], 0.0])
    rot = np.column_stack([right, fwd, np.array([0.0, 0.0, 1.0])])
    return RigidTransform(rot, position)


def stations_facing_slope(cloud: PointCloud, count: int, standoff: float,
                          jitter_rng=None) -> list[RigidTransform]:
    """Deterministic station poses on a line facing the cloud's best plane,
    spread evenly over half the cloud's diameter; ``DegenerateSurface``
    when the cloud defines no plane."""
    normal = fit_plane(cloud.points)[0]
    center = cloud.points.mean(axis=0)
    axis_u, _ = plane_basis(normal)
    spread = 0.5 * diameter(cloud)
    offsets = np.linspace(-spread / 2.0, spread / 2.0, count) if count > 1 else [0.0]
    poses = []
    for off in offsets:
        pos = center + normal * standoff + axis_u * off
        if jitter_rng is not None:
            pos = pos + jitter_rng.normal(0.0, 0.05 * standoff, 3)
        poses.append(leveled_station_pose(pos, center))
    return poses


def simulate_stations(
    cloud: PointCloud,
    station_poses: list[RigidTransform],
    noise_sigma_m: float = DEFAULT_NOISE_SIGMA_M,
    max_range_m: float | None = None,
    occlusion: bool = False,
    seed: int = 0,
) -> list[PointCloud]:
    """Per-station scans of the scene, in station-local frames.

    Each station transforms the scene into its own frame, drops points
    beyond ``max_range_m``, optionally drops points hidden behind nearer
    surface (z-buffer over ``OCCLUSION_BIN_DEG`` angular bins, with
    ``OCCLUSION_TOL_M`` of depth tolerance), and adds isotropic Gaussian
    noise. With zero noise and no cropping the output is exactly the rigid
    transform of the input. A ``source_index`` channel maps each output
    point back to the scene point it samples.
    """
    if len(station_poses) == 0:
        raise ValueError("need at least one station pose")
    rng = np.random.default_rng(seed)
    out = []
    for pose in station_poses:
        local = pose.inverse().apply(cloud.points)
        keep = np.arange(len(local))
        if max_range_m is not None:
            rad = np.linalg.norm(local, axis=1)
            keep = keep[rad <= max_range_m]
        if occlusion and len(keep):
            pts = local[keep]
            rad = np.linalg.norm(pts, axis=1)
            az = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
            el = np.degrees(np.arctan2(pts[:, 2], np.hypot(pts[:, 0], pts[:, 1])))
            bins = np.floor(np.column_stack([az, el]) / OCCLUSION_BIN_DEG)
            uniq, _, inv = _unique_rows(bins.astype(np.int64))
            nearest = np.full(len(uniq), np.inf)
            np.minimum.at(nearest, inv, rad)
            visible = rad <= nearest[inv] + OCCLUSION_TOL_M
            keep = keep[visible]
        pts = local[keep]
        if noise_sigma_m > 0:
            pts = pts + rng.normal(0.0, noise_sigma_m, pts.shape)
        scalars = {k: v[keep] for k, v in cloud.scalars.items()}
        scalars["source_index"] = keep.astype(np.float64)
        out.append(PointCloud(
            points=pts,
            scalars=scalars,
            labels=None if cloud.labels is None else cloud.labels[keep],
            epoch_id=cloud.epoch_id,
        ))
    return out
