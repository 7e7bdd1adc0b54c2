"""DTM construction, model-to-model deformation fields, rates and regions.

DTMs are 2.5D triangulated irregular networks built over a shared
projection plane so epochs stay comparable. Deformation is the signed
vertex-to-mesh distance (deposition positive, erosion negative); a
maximum-distance mask keeps occlusion holes from masquerading as change.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import Delaunay, QhullError, cKDTree
from scipy.sparse.csgraph import connected_components

from .cloud import (PointCloud, fit_plane, plane_basis, write_ply, _by_rows,
                    _ply_vertices, _read_ply, _unique_rows, _working_frame)
from .errors import CloudFormatError, DegenerateSurface, NoOverlap

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Triangulated terrain surface with its 2.5D projection plane."""

    vertices: np.ndarray          # (n, 3) float64, working frame
    triangles: np.ndarray         # (m, 3) int64
    plane_normal: np.ndarray      # unit vector
    plane_offset: float
    origin_shift: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        t = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        n = np.asarray(self.plane_normal, dtype=np.float64)
        n = n / np.linalg.norm(n)
        shift = self.origin_shift
        shift = np.zeros(3) if shift is None else np.asarray(shift, dtype=np.float64)
        for a in (v, t, n, shift):
            a.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "plane_normal", n)
        object.__setattr__(self, "origin_shift", shift)

    def project(self, points: np.ndarray) -> np.ndarray:
        """In-plane 2D coordinates of ``points`` on ``plane_basis``."""
        u, v = plane_basis(self.plane_normal)
        pts = np.asarray(points, dtype=np.float64)
        return np.column_stack([pts @ u, pts @ v])

    def triangle_projected_areas(self) -> np.ndarray:
        uv = self.project(self.vertices)
        a = uv[self.triangles[:, 0]]
        b = uv[self.triangles[:, 1]]
        c = uv[self.triangles[:, 2]]
        return 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                            - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))

    def vertex_projected_areas(self) -> np.ndarray:
        """One third of every incident triangle's projected area."""
        areas = self.triangle_projected_areas()
        share = np.zeros(len(self.vertices))
        for k in range(3):
            np.add.at(share, self.triangles[:, k], areas / 3.0)
        return share

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted vertex normals oriented along the projection normal."""
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        tn = np.cross(b - a, c - a)
        flip = tn @ self.plane_normal < 0
        tn[flip] *= -1.0
        out = np.zeros_like(self.vertices)
        for k in range(3):
            np.add.at(out, self.triangles[:, k], tn)
        norms = np.linalg.norm(out, axis=1)
        fallback = norms < 1e-300
        out[fallback] = self.plane_normal
        norms[fallback] = 1.0
        return out / norms[:, None]

    def edge_list(self) -> np.ndarray:
        """Unique undirected edges as an (e, 2) array."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        # one int64 key per edge sorts like the (i, j) rows it encodes
        n = len(self.vertices)
        key = np.unique(e[:, 0] * n + e[:, 1])
        return np.column_stack([key // n, key % n])


@dataclass
class DeformationField:
    """Per-vertex signed displacement: deposition positive, erosion negative."""

    values: np.ndarray        # meters; NaN where invalid
    valid: np.ndarray         # bool mask
    interval_days: float
    compared_epoch: str | None = None
    reference_epoch: str | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.valid, dtype=bool)
        if v.shape != m.shape:
            raise ValueError("values and valid mask must align")
        if self.interval_days <= 0:
            raise ValueError("interval_days must be positive")
        if not np.all(np.isfinite(v[m])):
            raise ValueError("values must be finite where valid")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "valid", m)


@dataclass
class Region:
    """Connected area of significant deformation on the compared mesh."""

    vertex_set: np.ndarray
    area_m2: float
    mean_rate_mm_day: float
    volume_m3: float = 0.0
    region_id: int | None = None
    epoch_pair: str | None = None

    def __post_init__(self):
        if self.area_m2 <= 0:
            raise ValueError("region area must be positive")
        object.__setattr__(self, "vertex_set",
                           np.asarray(self.vertex_set, dtype=np.int64))


@dataclass
class FieldStats:
    mean: float
    std: float
    valid_count: int


# ---------------------------------------------------------------------------
# DTM construction
# ---------------------------------------------------------------------------


def build_dtm(
    ground: PointCloud,
    projection_plane: tuple | None = None,
    max_edge: float = 2.0,
) -> TriangleMesh:
    """Delaunay TIN over the points projected onto ``projection_plane``.

    The default plane is the best fit of the cloud itself; passing the
    reference epoch's plane keeps multi-epoch DTMs comparable. Triangles
    with any 3D edge longer than ``max_edge`` are discarded, which
    preserves scan holes instead of bridging them. Duplicate projected
    points are dropped (later occurrence loses) with a logged count.
    """
    pts = ground.points
    if len(pts) < 3:
        raise DegenerateSurface("need at least 3 points")
    if projection_plane is None:
        try:
            projection_plane = fit_plane(pts)
        except ValueError as exc:
            raise DegenerateSurface(str(exc)) from exc
    normal = np.asarray(projection_plane[0], dtype=np.float64)
    normal = normal / np.linalg.norm(normal)
    offset = float(projection_plane[1])

    shell = TriangleMesh(vertices=np.zeros((3, 3)), triangles=np.zeros((0, 3), int),
                         plane_normal=normal, plane_offset=offset)
    uv = shell.project(pts)

    _, first_idx, _ = _unique_rows(uv)
    keep = np.sort(first_idx)
    dropped = len(pts) - len(keep)
    if dropped:
        logger.warning("build_dtm dropped %d duplicate projected points", dropped)
    uv_u = uv[keep]
    verts = pts[keep]

    try:
        tri = Delaunay(uv_u)
    except QhullError as exc:
        raise DegenerateSurface(f"projected points are degenerate: {exc}") from exc
    simplices = tri.simplices.astype(np.int64)

    a = verts[simplices[:, 0]]
    b = verts[simplices[:, 1]]
    c = verts[simplices[:, 2]]
    edge_ok = (
        (np.linalg.norm(a - b, axis=1) <= max_edge)
        & (np.linalg.norm(b - c, axis=1) <= max_edge)
        & (np.linalg.norm(c - a, axis=1) <= max_edge)
    )
    ua = uv_u[simplices[:, 0]]
    ub = uv_u[simplices[:, 1]]
    uc = uv_u[simplices[:, 2]]
    signed = 0.5 * ((ub[:, 0] - ua[:, 0]) * (uc[:, 1] - ua[:, 1])
                    - (uc[:, 0] - ua[:, 0]) * (ub[:, 1] - ua[:, 1]))
    keep_tri = edge_ok & (np.abs(signed) > 1e-12)
    simplices = simplices[keep_tri]
    flip = signed[keep_tri] < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]

    if len(simplices) == 0:
        raise DegenerateSurface("no triangle under the edge-length limit")
    return TriangleMesh(vertices=verts, triangles=simplices,
                        plane_normal=normal, plane_offset=offset,
                        origin_shift=ground.origin_shift)


# ---------------------------------------------------------------------------
# Point-to-triangle distance
# ---------------------------------------------------------------------------


def closest_point_on_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray,
                               c: np.ndarray) -> np.ndarray:
    """Exact closest point on each triangle (a, b, c) to each point p.

    Vectorized region-based test (vertex / edge / face) over aligned rows.
    """
    p = np.atleast_2d(p)
    ab = b - a
    ac = c - a
    ap = p - a

    def dot(x, y):
        return np.einsum("ij,ij->i", x, y)

    d1 = dot(ab, ap)
    d2 = dot(ac, ap)
    bp = p - b
    d3 = dot(ab, bp)
    d4 = dot(ac, bp)
    cp = p - c
    d5 = dot(ab, cp)
    d6 = dot(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, value):
        nonlocal done
        use = mask & ~done
        out[use] = value[use]
        done |= use

    settle((d1 <= 0) & (d2 <= 0), a)
    settle((d3 >= 0) & (d4 <= d3), b)
    settle((d6 >= 0) & (d5 <= d6), c)

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v_ab[:, None] * ab)
        w_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w_ac[:, None] * ac)
        den_bc = (d4 - d3) + (d5 - d6)
        w_bc = np.where(den_bc != 0, (d4 - d3) / den_bc, 0.0)
        settle((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
               b + w_bc[:, None] * (c - b))
        denom = va + vb + vc
        denom = np.where(denom != 0, denom, 1.0)
        v = vb / denom
        w = vc / denom
        settle(np.ones(len(p), dtype=bool), a + v[:, None] * ab + w[:, None] * ac)
    return out


# in-plane distance, metres, within which a reference triangle supports a
# compared vertex: a vertex on a triangle's edge or corner is supported
_SUPPORT_EPS = 1e-9


def _nearest_triangle(verts: np.ndarray, a: np.ndarray, b: np.ndarray,
                      c: np.ndarray, cap: float):
    """Exact nearest reference triangle per vertex.

    Points and triangle corners share one dimension, 2 or 3: in-plane
    projections answer projection support, 3D coordinates the distance.
    Distances above ``cap`` may be overestimates (the vertex is invalid
    either way); at or below ``cap`` the distance, triangle index and
    closest point are exact. Of equally near triangles the one with the
    lowest index wins, so the result depends only on the meshes, not on
    the search order. Triangles split into a small and a large size group,
    each with its own centroid tree. A k-NN query per group (k = 24 for
    the small, 4 for the few large ones) gives the candidates; the first
    column of the small group's query seeds every vertex, and the other
    rows are dropped before any triangle is gathered when their centroid
    distance rules them out. A ball query falls back where the k-th
    centroid cannot rule out closer or equally near triangles.

    Centroids, radii, size groups and both group trees are built once on
    the calling thread; the searches run per block of ``ROW_BLOCK``
    vertices on every core (``cloud._by_rows``), which also bounds the
    ball query's working memory. A vertex's search reads no other
    vertex, so the result is the same for any core count.
    """
    centroids = (a + b + c) / 3.0
    r_tri = np.maximum.reduce([
        np.linalg.norm(a - centroids, axis=1),
        np.linalg.norm(b - centroids, axis=1),
        np.linalg.norm(c - centroids, axis=1),
    ])
    limit = 2.0 * float(np.median(r_tri)) + 1e-12
    small = r_tri <= limit        # never empty: it holds the median triangle
    # the small group's nearest centroid seeds best_d, so the other columns
    # prune against a finite distance
    groups = [(group, cKDTree(centroids[group]), min(k_max, len(group)),
               float(r_tri[group].max()), columns)
              for group, k_max, columns in (
                  (np.flatnonzero(small), 24, (slice(0, 1), slice(1, None))),
                  (np.flatnonzero(~small), 4, (slice(None),)))
              if len(group)]

    def kernel(pts: np.ndarray):
        nv = len(pts)
        best_d = np.full(nv, np.inf)
        best_tri = np.zeros(nv, dtype=np.int64)
        best_cp = np.zeros_like(pts)

        def consider(flat: np.ndarray, owner: np.ndarray):
            if len(flat) == 0:
                return
            dc = np.linalg.norm(centroids[flat] - pts[owner], axis=1)
            improving = dc - r_tri[flat] <= best_d[owner]
            flat = flat[improving]
            owner = owner[improving]
            if len(flat) == 0:
                return
            cps = closest_point_on_triangles(pts[owner], a[flat], b[flat], c[flat])
            dd = np.linalg.norm(pts[owner] - cps, axis=1)
            # per vertex the nearest candidates, held one included, and of
            # those the lowest triangle index; an owner never lists a
            # triangle twice, so one candidate per updated vertex wins
            nearest = best_d.copy()
            np.minimum.at(nearest, owner, dd)
            at_min = dd == nearest[owner]
            lowest = np.where(nearest == best_d, best_tri, len(centroids))
            np.minimum.at(lowest, owner[at_min], flat[at_min])
            win = at_min & (flat == lowest[owner])
            upd = owner[win]
            best_d[upd] = dd[win]
            best_tri[upd] = flat[win]
            best_cp[upd] = cps[win]

        for group, g_tree, k, g_rmax, columns in groups:
            gd, gi = g_tree.query(pts, k=k, workers=1)
            gd = gd.reshape(nv, k)
            gi = group[gi.reshape(nv, k)]
            for cols in columns:
                # the tree's centroid distance with a relative slack, so rows
                # kept here are a superset of those consider() admits
                keep = (gd[:, cols] * (1.0 - 1e-12) - r_tri[gi[:, cols]]
                        <= best_d[:, None])
                owner, col = np.nonzero(keep)
                consider(gi[:, cols][owner, col], owner)
            pending = np.flatnonzero(gd[:, -1] <= np.minimum(best_d, cap) + g_rmax)
            if len(pending) == 0:
                continue
            radius = np.minimum(best_d[pending], cap) + g_rmax
            lists = g_tree.query_ball_point(pts[pending], r=radius, workers=1)
            counts = np.fromiter((len(l) for l in lists), dtype=np.int64,
                                 count=len(pending))
            if counts.sum() == 0:
                continue
            flat = group[np.concatenate(
                [np.asarray(l, dtype=np.int64) for l in lists if l])]
            consider(flat, np.repeat(pending, counts))
        return best_d, best_tri, best_cp

    return _by_rows(kernel, verts)


def mesh_distance(
    compared: TriangleMesh,
    reference: TriangleMesh,
    max_dist: float = 5.0,
    interval_days: float = 1.0,
    compared_epoch: str | None = None,
    reference_epoch: str | None = None,
) -> DeformationField:
    """Signed distance from every compared vertex to the reference surface.

    The sign follows the reference surface's orientation normal (the side
    the projection normal faces): positive is deposition, negative erosion.
    A vertex is invalid when it is farther than ``max_dist`` from every
    reference triangle, or when no projected reference triangle lies
    within ``_SUPPORT_EPS`` (1e-9 m) of its in-plane projection (scan hole
    or missing coverage). Without the second guard a vertex over a hole
    would report its lateral distance to the hole rim as deformation.

    Support is read from the 3-D search first: a vertex within
    ``max_dist`` is supported when its own nearest triangle, projected,
    covers its projection. Only the near vertices it does not cover go
    to a second, in-plane nearest-triangle search; a vertex beyond
    ``max_dist`` is invalid without either test.
    """
    if len(reference.triangles) == 0:
        raise ValueError("reference mesh has no triangles")
    verts = compared.vertices + (compared.origin_shift - reference.origin_shift)
    tris = reference.triangles
    rv = reference.vertices
    a, b, c = rv[tris[:, 0]], rv[tris[:, 1]], rv[tris[:, 2]]
    best_d, best_tri, best_cp = _nearest_triangle(verts, a, b, c, cap=max_dist)

    tn = np.cross(b[best_tri] - a[best_tri], c[best_tri] - a[best_tri])
    norms = np.linalg.norm(tn, axis=1)
    degenerate = norms < 1e-300
    tn[degenerate] = reference.plane_normal
    norms[degenerate] = 1.0
    tn /= norms[:, None]
    flip = tn @ reference.plane_normal < 0
    tn[flip] *= -1.0
    side = np.einsum("ij,ij->i", verts - best_cp, tn)
    values = np.where(side >= 0, best_d, -best_d)

    uv = reference.project(rv)
    ua, ub, uc = uv[tris[:, 0]], uv[tris[:, 1]], uv[tris[:, 2]]
    q = reference.project(verts)
    near = np.flatnonzero(best_d <= max_dist)
    t = best_tri[near]
    own_d = np.linalg.norm(
        q[near] - closest_point_on_triangles(q[near], ua[t], ub[t], uc[t]), axis=1)
    valid = np.zeros(len(verts), dtype=bool)
    valid[near] = own_d <= _SUPPORT_EPS
    open_ = near[~valid[near]]
    if len(open_):
        plan_d, _, _ = _nearest_triangle(q[open_], ua, ub, uc, cap=_SUPPORT_EPS)
        valid[open_] = plan_d <= _SUPPORT_EPS
    values = np.where(valid, values, np.nan)
    return DeformationField(values=values, valid=valid,
                            interval_days=interval_days,
                            compared_epoch=compared_epoch,
                            reference_epoch=reference_epoch)


# ---------------------------------------------------------------------------
# Field statistics, rates, regions
# ---------------------------------------------------------------------------


def field_stats(field_: DeformationField) -> FieldStats:
    """Mean and population standard deviation over valid vertices;
    ``NoOverlap`` when no vertex is valid."""
    vals = field_.values[field_.valid]
    if len(vals) == 0:
        raise NoOverlap("no valid vertex in the deformation field")
    mean = float(np.mean(vals))
    std = float(np.sqrt(np.mean((vals - mean) ** 2)))
    return FieldStats(mean=mean, std=std, valid_count=int(len(vals)))


def rate_field(field_: DeformationField) -> np.ndarray:
    """Per-vertex magnitude rate in mm/day; NaN on invalid vertices."""
    if field_.interval_days <= 0:
        raise ValueError("interval_days must be positive")
    return 1000.0 * np.abs(field_.values) / field_.interval_days


def significant_regions(
    mesh: TriangleMesh,
    rates: np.ndarray,
    threshold_mm_day: float,
    min_area_m2: float,
) -> list[Region]:
    """Mesh-connected components of vertices whose rate exceeds the threshold.

    Components below ``min_area_m2`` (projected area share) are dropped;
    output is sorted by area descending and numbered from 1. NaN rates
    (invalid vertices) never join a region.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if len(rates) != len(mesh.vertices):
        raise ValueError("rates must align with mesh vertices")
    with np.errstate(invalid="ignore"):
        selected = rates > threshold_mm_day
    if not selected.any():
        return []
    edges = mesh.edge_list()
    both = selected[edges[:, 0]] & selected[edges[:, 1]]
    e = edges[both]
    n = len(mesh.vertices)
    graph = sparse.coo_matrix(
        (np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n)
    )
    n_comp, comp = connected_components(graph, directed=False)
    vertex_area = mesh.vertex_projected_areas()

    regions = []
    sel_idx = np.flatnonzero(selected)
    comp_ids = np.unique(comp[sel_idx])
    for cid in comp_ids:
        members = np.flatnonzero(selected & (comp == cid))
        area = float(vertex_area[members].sum())
        if area < min_area_m2 or area <= 0:
            continue
        regions.append(Region(
            vertex_set=np.sort(members),
            area_m2=area,
            mean_rate_mm_day=float(np.mean(rates[members])),
        ))
    regions.sort(key=lambda r: (-r.area_m2, int(r.vertex_set[0])))
    for i, r in enumerate(regions, start=1):
        r.region_id = i
    return regions


def region_volume(region: Region, field_: DeformationField,
                  mesh: TriangleMesh) -> float:
    """Displaced volume: sum of projected triangle area times the mean
    vertex displacement magnitude, over triangles fully inside the region."""
    member = np.zeros(len(mesh.vertices), dtype=bool)
    member[region.vertex_set] = True
    tris = mesh.triangles
    inside = member[tris].all(axis=1)
    if not inside.any():
        return 0.0
    areas = mesh.triangle_projected_areas()[inside]
    disp = np.abs(field_.values)[tris[inside]].mean(axis=1)
    return float((areas * disp).sum())


# ---------------------------------------------------------------------------
# Mesh / field serialization (PLY)
# ---------------------------------------------------------------------------


def _write_surface(mesh: TriangleMesh, scalars: dict, comments=()) -> bytes:
    """PLY of ``mesh`` in absolute coordinates; the header's first comment
    names the projection plane, the given ``comments`` follow it."""
    n = mesh.plane_normal
    off_abs = mesh.plane_offset + float(n @ mesh.origin_shift)
    plane = "projection_plane %.17g %.17g %.17g %.17g" % (n[0], n[1], n[2], off_abs)
    return write_ply(mesh.vertices + mesh.origin_shift, scalars=scalars,
                     faces=mesh.triangles, comments=[plane, *comments])


def _read_surface(data: bytes) -> tuple[TriangleMesh, dict, list]:
    """(mesh, vertex scalar channels, header comments) of a mesh PLY.

    Applies the same rounded-centroid origin shift policy as cloud parsing.
    """
    parsed, _, comments = _read_ply(data)
    if "face" not in parsed:
        raise CloudFormatError("mesh PLY needs vertex and face elements")
    pts, scalars = _ply_vertices(parsed)
    faces = next(iter(parsed["face"].values()), None)
    if faces is None or faces.ndim != 2 or faces.shape[1] != 3:
        raise CloudFormatError("mesh PLY faces must be one list of 3 indices")
    if len(faces) and (faces.min() < 0 or faces.max() >= len(pts)):
        raise CloudFormatError("mesh PLY face index out of range")

    plane = None
    for tokens in comments:
        if len(tokens) == 5 and tokens[0] == "projection_plane":
            try:
                plane = np.array([float(t) for t in tokens[1:]])
            except ValueError as exc:
                raise CloudFormatError(
                    f"malformed comment {' '.join(tokens)!r}") from exc
    work, shift = _working_frame(pts)
    if plane is not None:
        norm = np.linalg.norm(plane[:3])
        if not (np.isfinite(plane).all() and norm > 0):
            raise CloudFormatError("projection_plane needs a finite non-zero normal")
        normal = plane[:3] / norm
        offset = float(plane[3] - normal @ shift)
    elif len(work) >= 3:
        try:
            normal, offset = fit_plane(work)
        except ValueError as exc:
            raise DegenerateSurface(f"mesh PLY names no projection plane: {exc}") from exc
    else:
        normal, offset = np.array([0.0, 0.0, 1.0]), 0.0
    mesh = TriangleMesh(vertices=work, triangles=faces, plane_normal=normal,
                        plane_offset=offset, origin_shift=shift)
    return mesh, scalars, comments


def write_mesh(mesh: TriangleMesh) -> bytes:
    """PLY with vertices (absolute coordinates) and faces."""
    return _write_surface(mesh, {})


def read_mesh(data: bytes) -> tuple[TriangleMesh, dict]:
    """Inverse of ``write_mesh``: (mesh, vertex scalar channels)."""
    mesh, scalars, _ = _read_surface(data)
    return mesh, scalars


def write_deformation(mesh: TriangleMesh, field_: DeformationField) -> bytes:
    """Field PLY: the compared mesh with displacement_m / rate_mm_day / valid."""
    rates = rate_field(field_)
    scalars = {
        "displacement_m": np.where(field_.valid, field_.values, 0.0),
        "rate_mm_day": np.where(field_.valid, rates, 0.0),
        "valid": field_.valid.astype(np.float64),
    }
    comments = ["interval_days %.17g" % field_.interval_days]
    if field_.compared_epoch:
        comments.append(f"compared_epoch {field_.compared_epoch}")
    if field_.reference_epoch:
        comments.append(f"reference_epoch {field_.reference_epoch}")
    return _write_surface(mesh, scalars, comments)


def read_deformation(data: bytes) -> tuple[TriangleMesh, DeformationField]:
    """Inverse of ``write_deformation``."""
    mesh, scalars, comments = _read_surface(data)
    for need in ("displacement_m", "valid"):
        if need not in scalars:
            raise CloudFormatError(f"field PLY missing '{need}' channel")
    interval = 1.0
    compared_epoch = reference_epoch = None
    try:
        for tokens in comments:
            if len(tokens) >= 2:
                if tokens[0] == "interval_days":
                    interval = float(tokens[1])
                elif tokens[0] == "compared_epoch":
                    compared_epoch = tokens[1]
                elif tokens[0] == "reference_epoch":
                    reference_epoch = tokens[1]
        if not np.isfinite(interval):
            raise CloudFormatError("field PLY interval_days must be finite")
        valid = scalars["valid"] > 0.5
        values = np.where(valid, scalars["displacement_m"], np.nan)
        field_ = DeformationField(values=values, valid=valid, interval_days=interval,
                                  compared_epoch=compared_epoch,
                                  reference_epoch=reference_epoch)
    except ValueError as exc:
        raise CloudFormatError(f"malformed field PLY: {exc}") from exc
    return mesh, field_
