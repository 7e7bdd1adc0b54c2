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

from .cloud import PointCloud, fit_plane, write_ply, _read_ply
from .errors import CloudFormatError, DegenerateSurface

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

    @property
    def projection_plane(self) -> tuple[np.ndarray, float]:
        return self.plane_normal, self.plane_offset

    def plane_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic in-plane orthonormal basis (u, v)."""
        n = self.plane_normal
        helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = helper - (helper @ n) * n
        u /= np.linalg.norm(u)
        return u, np.cross(n, u)

    def project(self, points: np.ndarray) -> np.ndarray:
        """In-plane 2D coordinates of ``points``."""
        u, v = self.plane_basis()
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
        return np.unique(e, axis=0)


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
    W_m: float | None = None
    L_m: float | None = None
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

    _, first_idx = np.unique(uv, axis=0, return_index=True)
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


def _projection_supported(reference: TriangleMesh, verts: np.ndarray,
                          eps: float = 1e-9) -> np.ndarray:
    """True where some reference triangle contains the vertex's in-plane
    projection (within ``eps`` of the edges).

    Triangles are split into a typical-size group (k-NN candidate lookup)
    and the rare oversized boundary group (own small tree), so the search
    radius is never inflated by sliver triangles.
    """
    uv = reference.project(reference.vertices)
    tris = reference.triangles
    ta, tb, tc = uv[tris[:, 0]], uv[tris[:, 1]], uv[tris[:, 2]]
    cent2 = (ta + tb + tc) / 3.0
    r2 = np.maximum.reduce([
        np.linalg.norm(ta - cent2, axis=1),
        np.linalg.norm(tb - cent2, axis=1),
        np.linalg.norm(tc - cent2, axis=1),
    ])
    q = reference.project(verts)
    nq = len(q)
    out = np.zeros(nq, dtype=bool)

    def cross2(o, u, v):
        return (u[:, 0] - o[:, 0]) * (v[:, 1] - o[:, 1]) \
            - (u[:, 1] - o[:, 1]) * (v[:, 0] - o[:, 0])

    def test(flat: np.ndarray, owner: np.ndarray):
        near = np.linalg.norm(cent2[flat] - q[owner], axis=1) <= r2[flat] + eps
        flat = flat[near]
        owner = owner[near]
        if len(flat) == 0:
            return
        p = q[owner]
        a2, b2, c2 = ta[flat], tb[flat], tc[flat]
        area = cross2(a2, b2, c2)
        tol = eps * np.maximum(np.abs(area), 1.0)
        s0 = cross2(a2, b2, p) * np.sign(area)
        s1 = cross2(b2, c2, p) * np.sign(area)
        s2 = cross2(c2, a2, p) * np.sign(area)
        inside = (s0 >= -tol) & (s1 >= -tol) & (s2 >= -tol)
        np.logical_or.at(out, owner[inside], True)

    limit = 2.0 * float(np.median(r2)) + eps
    for group in (np.flatnonzero(r2 <= limit), np.flatnonzero(r2 > limit)):
        if len(group) == 0:
            continue
        g_rmax = float(r2[group].max()) + eps
        g_tree = cKDTree(cent2[group])
        k = min(16, len(group))
        gd, gi = g_tree.query(q, k=k)
        gd = gd.reshape(nq, k)
        gi = gi.reshape(nq, k)
        test(group[gi.ravel()], np.repeat(np.arange(nq), k))
        pending = np.flatnonzero(gd[:, -1] < g_rmax)
        for start in range(0, len(pending), 8192):
            sub = pending[start:start + 8192]
            lists = g_tree.query_ball_point(q[sub], r=g_rmax)
            counts = np.fromiter((len(l) for l in lists), dtype=np.int64,
                                 count=len(sub))
            if counts.sum() == 0:
                continue
            flat = group[np.concatenate(
                [np.asarray(l, dtype=np.int64) for l in lists if l])]
            test(flat, np.repeat(sub, counts))
    return out


def _nearest_triangle(verts: np.ndarray, a: np.ndarray, b: np.ndarray,
                      c: np.ndarray, cap: float):
    """Exact nearest reference triangle per vertex.

    Distances above ``cap`` may be overestimates (the vertex is invalid
    either way); at or below ``cap`` the distance, triangle index and
    closest point are exact. Of equally near triangles the one with the
    lowest index wins, so the result depends only on the meshes, not on
    the search order. Candidates come from a k-NN fast path per size group
    with a ball-query fallback where the k-th centroid cannot rule out
    closer or equally near triangles.
    """
    centroids = (a + b + c) / 3.0
    r_tri = np.maximum.reduce([
        np.linalg.norm(a - centroids, axis=1),
        np.linalg.norm(b - centroids, axis=1),
        np.linalg.norm(c - centroids, axis=1),
    ])
    nv = len(verts)
    best_d = np.full(nv, np.inf)
    best_tri = np.zeros(nv, dtype=np.int64)
    best_cp = np.zeros((nv, 3))

    def consider(flat: np.ndarray, owner: np.ndarray):
        if len(flat) == 0:
            return
        dc = np.linalg.norm(centroids[flat] - verts[owner], axis=1)
        improving = dc - r_tri[flat] <= best_d[owner]
        flat = flat[improving]
        owner = owner[improving]
        if len(flat) == 0:
            return
        cps = closest_point_on_triangles(verts[owner], a[flat], b[flat], c[flat])
        dd = np.linalg.norm(verts[owner] - cps, axis=1)
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

    tree_all = cKDTree(centroids)
    _, seed = tree_all.query(verts, k=1)
    consider(np.atleast_1d(seed).astype(np.int64), np.arange(nv))

    limit = 2.0 * float(np.median(r_tri)) + 1e-12
    for group in (np.flatnonzero(r_tri <= limit), np.flatnonzero(r_tri > limit)):
        if len(group) == 0:
            continue
        g_rmax = float(r_tri[group].max())
        g_tree = cKDTree(centroids[group])
        k = min(24, len(group))
        gd, gi = g_tree.query(verts, k=k)
        gd = gd.reshape(nv, k)
        gi = gi.reshape(nv, k)
        consider(group[gi.ravel()], np.repeat(np.arange(nv), k))
        pending = np.flatnonzero(gd[:, -1] <= np.minimum(best_d, cap) + g_rmax)
        for start in range(0, len(pending), 4096):
            sub = pending[start:start + 4096]
            radius = np.minimum(best_d[sub], cap) + g_rmax
            lists = g_tree.query_ball_point(verts[sub], r=radius)
            counts = np.fromiter((len(l) for l in lists), dtype=np.int64,
                                 count=len(sub))
            if counts.sum() == 0:
                continue
            flat = group[np.concatenate(
                [np.asarray(l, dtype=np.int64) for l in lists if l])]
            consider(flat, np.repeat(sub, counts))
    return best_d, best_tri, best_cp


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
    reference triangle, or when no reference triangle lies under its
    in-plane projection (scan hole or missing coverage). Without the
    second guard a vertex over a hole would report its lateral distance
    to the hole rim as deformation.
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

    supported = _projection_supported(reference, verts)
    valid = (best_d <= max_dist) & supported
    values = np.where(valid, values, np.nan)
    return DeformationField(values=values, valid=valid,
                            interval_days=interval_days,
                            compared_epoch=compared_epoch,
                            reference_epoch=reference_epoch)


# ---------------------------------------------------------------------------
# Field statistics, rates, regions
# ---------------------------------------------------------------------------


def field_stats(field_: DeformationField) -> FieldStats:
    """Mean and population standard deviation over valid vertices."""
    vals = field_.values[field_.valid]
    if len(vals) == 0:
        raise ValueError("no valid vertex in the deformation field")
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


def write_mesh(mesh: TriangleMesh, scalars: dict | None = None,
               binary: bool = True) -> bytes:
    """PLY with vertices (absolute coordinates), faces, optional scalars."""
    n = mesh.plane_normal
    off_abs = mesh.plane_offset + float(n @ mesh.origin_shift)
    comments = [
        "projection_plane %.17g %.17g %.17g %.17g" % (n[0], n[1], n[2], off_abs),
    ]
    return write_ply(mesh.vertices + mesh.origin_shift, scalars=scalars or {},
                     faces=mesh.triangles, binary=binary, double_precision=True,
                     comments=comments)


def read_mesh(data: bytes) -> tuple[TriangleMesh, dict]:
    """Inverse of ``write_mesh``: (mesh, vertex scalar channels).

    Applies the same rounded-centroid origin shift policy as cloud parsing.
    """
    parsed = _read_ply(data)
    if "vertex" not in parsed or "face" not in parsed:
        raise CloudFormatError("mesh PLY needs vertex and face elements")
    cols = parsed["vertex"]
    pts = np.column_stack([cols["x"], cols["y"], cols["z"]])
    faces = next(iter(parsed["face"].values()))
    if faces.ndim != 2 or (len(faces) and faces.shape[1] != 3):
        raise CloudFormatError("only triangle faces are supported")
    scalars = {k: v for k, v in cols.items() if k not in ("x", "y", "z")}

    plane = None
    for line in data[: data.find(b"end_header")].decode("ascii", "replace").splitlines():
        tokens = line.split()
        if len(tokens) == 6 and tokens[0] == "comment" and tokens[1] == "projection_plane":
            plane = np.array([float(t) for t in tokens[2:]])
    shift = np.round(pts.mean(axis=0)) if len(pts) else np.zeros(3)
    work = pts - shift
    if plane is not None:
        normal = plane[:3] / np.linalg.norm(plane[:3])
        offset = float(plane[3] - normal @ shift)
    else:
        normal, offset = fit_plane(work) if len(work) >= 3 else (np.array([0.0, 0.0, 1.0]), 0.0)
    mesh = TriangleMesh(vertices=work, triangles=faces, plane_normal=normal,
                        plane_offset=offset, origin_shift=shift)
    return mesh, scalars


def write_deformation(mesh: TriangleMesh, field_: DeformationField,
                      binary: bool = True) -> bytes:
    """Field PLY: the compared mesh with displacement_m / rate_mm_day / valid."""
    rates = rate_field(field_)
    scalars = {
        "displacement_m": np.where(field_.valid, field_.values, 0.0),
        "rate_mm_day": np.where(field_.valid, rates, 0.0),
        "valid": field_.valid.astype(np.float64),
    }
    n = mesh.plane_normal
    off_abs = mesh.plane_offset + float(n @ mesh.origin_shift)
    comments = [
        "projection_plane %.17g %.17g %.17g %.17g" % (n[0], n[1], n[2], off_abs),
        "interval_days %.17g" % field_.interval_days,
    ]
    if field_.compared_epoch:
        comments.append(f"compared_epoch {field_.compared_epoch}")
    if field_.reference_epoch:
        comments.append(f"reference_epoch {field_.reference_epoch}")
    return write_ply(mesh.vertices + mesh.origin_shift, scalars=scalars,
                     faces=mesh.triangles, binary=binary, double_precision=True,
                     comments=comments)


def read_deformation(data: bytes) -> tuple[TriangleMesh, DeformationField]:
    """Inverse of ``write_deformation``."""
    mesh, scalars = read_mesh(data)
    for need in ("displacement_m", "valid"):
        if need not in scalars:
            raise CloudFormatError(f"field PLY missing '{need}' channel")
    interval = 1.0
    compared_epoch = reference_epoch = None
    for line in data[: data.find(b"end_header")].decode("ascii", "replace").splitlines():
        tokens = line.split()
        if len(tokens) >= 3 and tokens[0] == "comment":
            if tokens[1] == "interval_days":
                interval = float(tokens[2])
            elif tokens[1] == "compared_epoch":
                compared_epoch = tokens[2]
            elif tokens[1] == "reference_epoch":
                reference_epoch = tokens[2]
    valid = scalars["valid"] > 0.5
    values = np.where(valid, scalars["displacement_m"], np.nan)
    field_ = DeformationField(values=values, valid=valid, interval_days=interval,
                              compared_epoch=compared_epoch,
                              reference_epoch=reference_epoch)
    return mesh, field_
