"""Vegetation removal on steep slopes.

The primary path rasterizes the cloud into sub-slopes, rotates each to a
rough horizontal plane, settles a simulated cloth over the inverted points,
and classifies by point-to-cloth distance. Leveling first is what makes the
cloth usable on terrain standing near vertical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud, PointClass, fit_plane, _unique_rows
from .errors import CloudFormatError, NoConvergence, TooSparse
from .rigid import RigidTransform

logger = logging.getLogger(__name__)

# fall of a free particle per step: gravity 9.8 m/s^2 times a 0.2 s step
# squared, in simulation units
CLOTH_DROP_M = 9.8 * 0.2**2
SUBSLOPE_MIN_POINTS = 30   # a raster cell with fewer joins its nearest neighbor


@dataclass(frozen=True)
class SubSlope:
    """One raster cell of the slope with its fitted plane and leveling rotation."""

    cell_id: tuple
    member_indices: np.ndarray
    plane_normal: np.ndarray
    plane_offset: float
    centroid: np.ndarray
    level_rotation: RigidTransform   # zero translation; maps plane normal to +z


@dataclass
class ClothParams:
    grid_resolution: float = 0.5      # particle spacing, meters
    rigidness: int = 2                # 1..3, internal-spring passes per step
    class_threshold: float = 0.5      # point-to-cloth distance gate, meters
    max_iterations: int = 500
    settle_tolerance: float = 5e-3    # max particle displacement per step

    def __post_init__(self):
        for name in ("grid_resolution", "class_threshold", "max_iterations",
                     "settle_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rigidness not in (1, 2, 3):
            raise ValueError("rigidness must be 1, 2 or 3")


@dataclass
class GroundLabeling:
    labels: np.ndarray    # uint8 PointClass per point


# ---------------------------------------------------------------------------
# Slope partitioning and leveling
# ---------------------------------------------------------------------------


def partition_subslopes(cloud: PointCloud, cell_size: float) -> list[SubSlope]:
    """Bucket the cloud on a horizontal grid and fit one plane per cell.

    Cells under ``SUBSLOPE_MIN_POINTS`` are merged into the nearest
    populated cell (by cell-center distance, ties broken
    lexicographically). Raises ``TooSparse`` when the whole cloud is below
    the minimum.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    pts = cloud.points
    if len(pts) < SUBSLOPE_MIN_POINTS:
        raise TooSparse(f"{len(pts)} points; need at least {SUBSLOPE_MIN_POINTS}")

    keys = np.floor(pts[:, :2] / cell_size).astype(np.int64)
    uniq, _, inverse = _unique_rows(keys)
    counts = np.bincount(inverse, minlength=len(uniq))
    populated = counts >= SUBSLOPE_MIN_POINTS
    if not populated.any():
        # every cell sparse: collapse everything into the densest cell
        densest = int(np.argmax(counts))
        populated = np.zeros(len(uniq), dtype=bool)
        populated[densest] = True

    pop_idx = np.flatnonzero(populated)
    centers = (uniq[pop_idx] + 0.5) * cell_size
    assign = np.empty(len(uniq), dtype=np.int64)
    assign[pop_idx] = pop_idx
    sparse_idx = np.flatnonzero(~populated)
    if len(sparse_idx):
        sparse_centers = (uniq[sparse_idx] + 0.5) * cell_size
        d = np.linalg.norm(sparse_centers[:, None, :] - centers[None, :, :], axis=2)
        assign[sparse_idx] = pop_idx[np.argmin(d, axis=1)]

    z_axis = np.array([0.0, 0.0, 1.0])
    subslopes = []
    order = np.lexsort((uniq[pop_idx, 1], uniq[pop_idx, 0]))
    for cell in pop_idx[order]:
        members = np.flatnonzero(assign[inverse] == cell)
        member_pts = pts[members]
        try:
            normal, offset = fit_plane(member_pts)
        except ValueError:
            # collinear cell content: treat as horizontal
            normal, offset = z_axis.copy(), float(member_pts[:, 2].mean())
        rot = RigidTransform.rotation_between(normal, z_axis)
        subslopes.append(SubSlope(
            cell_id=(int(uniq[cell, 0]), int(uniq[cell, 1])),
            member_indices=members,
            plane_normal=normal,
            plane_offset=offset,
            centroid=member_pts.mean(axis=0),
            level_rotation=rot,
        ))
    return subslopes


def level_points(sub: SubSlope, points: np.ndarray) -> np.ndarray:
    """``points`` rotated about the sub-slope centroid so the fitted plane
    becomes horizontal."""
    r = sub.level_rotation.rotation
    return (points - sub.centroid) @ r.T + sub.centroid


# ---------------------------------------------------------------------------
# Cloth simulation classification
# ---------------------------------------------------------------------------


def _fill_empty_cells(height: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """Nearest-populated fill so the cloth always has terrain below it."""
    if occupied.all():
        return height
    filled = height.copy()
    occ_idx = np.argwhere(occupied)
    empty_idx = np.argwhere(~occupied)
    tree = cKDTree(occ_idx.astype(np.float64))
    _, nearest = tree.query(empty_idx.astype(np.float64), k=1, workers=-1)
    filled[tuple(empty_idx.T)] = height[tuple(occ_idx[nearest].T)]
    return filled


def _settle_cloth(inv_z: np.ndarray, xy: np.ndarray, params: ClothParams):
    """Drop a constrained particle grid onto the inverted surface.

    Returns (grid_origin, cloth_heights). Gravity lowers unpinned
    particles each step; collision against the inverted height field pins
    them; ``rigidness`` relaxation passes act as internal springs.
    """
    res = params.grid_resolution
    lo = xy.min(axis=0) - res
    hi = xy.max(axis=0) + res
    nx = int(np.ceil((hi[0] - lo[0]) / res)) + 1
    ny = int(np.ceil((hi[1] - lo[1]) / res)) + 1

    ci = np.clip(((xy[:, 0] - lo[0]) / res).astype(np.int64), 0, nx - 1)
    cj = np.clip(((xy[:, 1] - lo[1]) / res).astype(np.int64), 0, ny - 1)
    terrain = np.full((nx, ny), -np.inf)
    np.maximum.at(terrain, (ci, cj), inv_z)
    occupied = np.isfinite(terrain)
    terrain = _fill_empty_cells(terrain, occupied)

    z = np.full((nx, ny), terrain.max() + 1.0)
    pinned = np.zeros((nx, ny), dtype=bool)

    def clamp():
        nonlocal z, pinned
        below = z <= terrain
        z = np.where(below, terrain, z)
        pinned |= below

    residual = np.inf
    for iteration in range(params.max_iterations):
        before = z.copy()
        z = np.where(pinned, z, z - CLOTH_DROP_M)
        clamp()
        for _ in range(params.rigidness):
            padded = np.pad(z, 1, mode="edge")
            neighbor_mean = (padded[:-2, 1:-1] + padded[2:, 1:-1]
                             + padded[1:-1, :-2] + padded[1:-1, 2:]) / 4.0
            z = np.where(pinned, z, z + 0.5 * (neighbor_mean - z))
            clamp()
        residual = float(np.max(np.abs(z - before)))
        if residual < params.settle_tolerance:
            return lo, z
    raise NoConvergence(residual=residual, iterations=params.max_iterations)


def _bilinear(grid: np.ndarray, lo: np.ndarray, res: float,
              xy: np.ndarray) -> np.ndarray:
    nx, ny = grid.shape
    fx = np.clip((xy[:, 0] - lo[0]) / res, 0, nx - 1 - 1e-9)
    fy = np.clip((xy[:, 1] - lo[1]) / res, 0, ny - 1 - 1e-9)
    i0 = fx.astype(np.int64)
    j0 = fy.astype(np.int64)
    tx = fx - i0
    ty = fy - j0
    return ((1 - tx) * (1 - ty) * grid[i0, j0]
            + tx * (1 - ty) * grid[i0 + 1, j0]
            + (1 - tx) * ty * grid[i0, j0 + 1]
            + tx * ty * grid[i0 + 1, j0 + 1])


def csf_classify(cloud: PointCloud, params: ClothParams | None = None) -> GroundLabeling:
    """Cloth-simulation ground extraction on a (roughly leveled) cloud.

    The cloud is inverted, a particle grid settles onto it under gravity
    with spring constraints, and points within ``class_threshold`` of the
    cloth are ground, the rest vegetation. Deterministic for fixed params.

    Raises ``NoConvergence`` when the per-step displacement never drops
    below the tolerance within ``max_iterations``.
    """
    params = params or ClothParams()
    if len(cloud) == 0:
        raise ValueError("cloud must be non-empty")
    pts = cloud.points
    inv_z = -pts[:, 2]
    xy = pts[:, :2]
    lo, cloth = _settle_cloth(inv_z, xy, params)
    cloth_at = _bilinear(cloth, lo, params.grid_resolution, xy)
    dist = np.abs(inv_z - cloth_at)
    labels = np.where(dist <= params.class_threshold,
                      np.uint8(PointClass.GROUND),
                      np.uint8(PointClass.VEGETATION))
    return GroundLabeling(labels=labels)


# ---------------------------------------------------------------------------
# Full vegetation filter
# ---------------------------------------------------------------------------


def filter_vegetation(
    cloud: PointCloud,
    cell_size: float = 10.0,
    cloth: ClothParams | None = None,
) -> tuple[PointCloud, PointCloud, GroundLabeling]:
    """Partition -> level -> cloth-classify -> merge, over the whole cloud.

    Each sub-slope classifies its members plus a 1 m apron borrowed from
    neighboring cells; a point seen by several cells takes the label from
    the cell whose fitted plane it matches best, so the outcome does not
    depend on processing order. Returns (ground cloud,
    removed cloud, per-point labeling); the two clouds partition the input.
    """
    cloth = cloth or ClothParams()
    subslopes = partition_subslopes(cloud, cell_size)
    pts = cloud.points
    n = len(pts)
    best_dist = np.full(n, np.inf)
    best_rank = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    labels = np.full(n, np.uint8(PointClass.UNKNOWN))

    # ties broken by cell id, not processing position, so the outcome is
    # invariant under any permutation of the sub-slope order
    cell_rank = {sub.cell_id: i for i, sub in
                 enumerate(sorted(subslopes, key=lambda s: s.cell_id))}

    for sub in subslopes:
        rank = cell_rank[sub.cell_id]
        member_xy = pts[sub.member_indices, :2]
        lo = member_xy.min(axis=0) - 1.0
        hi = member_xy.max(axis=0) + 1.0
        in_box = np.flatnonzero(
            (pts[:, 0] >= lo[0]) & (pts[:, 0] <= hi[0])
            & (pts[:, 1] >= lo[1]) & (pts[:, 1] <= hi[1])
        )
        work = np.union1d(in_box, sub.member_indices)
        leveled = level_points(sub, pts[work])
        part = csf_classify(cloud.subset(work).with_(points=leveled), cloth)

        plane_dist = np.abs(pts[work] @ sub.plane_normal - sub.plane_offset)
        better = (plane_dist < best_dist[work]) | (
            (plane_dist == best_dist[work]) & (rank < best_rank[work]))
        target = work[better]
        best_dist[target] = plane_dist[better]
        best_rank[target] = rank
        labels[target] = part.labels[better]

    labeling = GroundLabeling(labels=labels)
    ground_idx = np.flatnonzero(labels == PointClass.GROUND)
    removed_idx = np.flatnonzero(labels != PointClass.GROUND)
    return cloud.subset(ground_idx), cloud.subset(removed_idx), labeling


def apply_mask_overrides(labeling: GroundLabeling, mask_lines) -> GroundLabeling:
    """Force labels from a manual mask: '+i' => ground, '-i' => vegetation.

    A line that is not of that form, or names no point of the labeling,
    raises ``CloudFormatError``.
    """
    labels = labeling.labels.copy()
    for raw in mask_lines:
        s = str(raw).strip()
        if not s or s.startswith("#"):
            continue
        if s[0] not in "+-":
            raise CloudFormatError(f"mask line must start with '+' or '-': {s!r}")
        try:
            idx = int(s[1:])
        except ValueError as exc:
            raise CloudFormatError(f"mask index is not an integer: {s!r}") from exc
        if not (0 <= idx < len(labels)):
            raise CloudFormatError(f"mask index {idx} out of range")
        labels[idx] = PointClass.GROUND if s[0] == "+" else PointClass.VEGETATION
    return GroundLabeling(labels=labels)
