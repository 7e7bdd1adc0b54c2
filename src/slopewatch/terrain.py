"""DTM construction, model-to-model deformation fields, rates and regions.

DTMs are 2.5D triangulated irregular networks built over a shared
projection plane so epochs stay comparable. Deformation is the signed
vertex-to-mesh distance (deposition positive, erosion negative); a
maximum-distance mask keeps occlusion holes from masquerading as change.
Meshes and fields keep their clouds' absolute coordinates; only the
Delaunay triangulation works on shifted coordinates (``build_dtm``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import Delaunay, QhullError, cKDTree
from scipy.sparse.csgraph import connected_components

from .cloud import (PointCloud, fit_plane, plane_basis, remove_outliers,
                    voxel_downsample, write_ply, _by_rows, _finite_coordinates,
                    _ply_vertices, _read_ply, _unique_rows)
from .errors import CloudFormatError, DegenerateSurface, NoOverlap

logger = logging.getLogger(__name__)

# ``build_dtm`` triangulates in-plane coordinates less the multiple of this
# many metres nearest their mean. Qhull loses precision far from the origin:
# a 12,000-point scene gave 23,973 simplices near it and 16,509 moved by
# (500010, 4400010, 100) m. A shift that is 0 within 2,048 m of the origin
# leaves the triangles of scenes there as they were
DTM_ANCHOR_M = 4096.0
DTM_VOXEL_M = 0.1   # ground thinning before triangulation (dtm_from_ground)


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Triangulated terrain surface with its 2.5D projection plane."""

    vertices: np.ndarray          # (n, 3) float64
    triangles: np.ndarray         # (m, 3) int64
    plane_normal: np.ndarray      # unit vector
    plane_offset: float

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
        for name, a in (("vertices", v), ("triangles", t), ("plane_normal", n)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def project(self, points: np.ndarray) -> np.ndarray:
        """In-plane 2D coordinates of ``points`` on ``plane_basis``."""
        u, v = plane_basis(self.plane_normal)
        pts = np.asarray(points, dtype=np.float64)
        return np.column_stack([pts @ u, pts @ v])

    def triangle_projected_areas(self) -> np.ndarray:
        return np.abs(_signed_areas(self.project(self.vertices), self.triangles))

    def vertex_projected_areas(self) -> np.ndarray:
        """One third of every incident triangle's projected area."""
        areas = self.triangle_projected_areas()
        share = np.zeros(len(self.vertices))
        for k in range(3):
            np.add.at(share, self.triangles[:, k], areas / 3.0)
        return share

    def edge_list(self) -> np.ndarray:
        """Unique undirected edges as an (e, 2) array."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        # one int64 key per edge sorts like the (i, j) rows it encodes; a
        # sort and a neighbour test find the distinct keys many times faster
        # than np.unique, which hashes integers
        n = len(self.vertices)
        key = np.sort(e[:, 0] * n + e[:, 1])
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        key = key[first]
        return np.column_stack([key // n, key % n])


def _signed_areas(uv: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed area of each triangle over the 2-D points ``uv``: positive
    where its corners run counter-clockwise."""
    a, b, c = uv[triangles[:, 0]], uv[triangles[:, 1]], uv[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


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
    Qhull gets the in-plane coordinates less the multiple of
    ``DTM_ANCHOR_M`` nearest their mean, so the triangles of a scene at
    survey coordinates are those of the same scene near the origin.
    """
    pts = ground.points
    if len(pts) < 3:
        raise DegenerateSurface("need at least 3 points")
    if projection_plane is None:
        projection_plane = fit_plane(pts)
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
    uv_u -= DTM_ANCHOR_M * np.round(uv_u.mean(axis=0) / DTM_ANCHOR_M)
    verts = pts[keep]

    try:
        tri = Delaunay(uv_u)
    except QhullError as exc:
        raise DegenerateSurface(f"projected points are degenerate: {exc}") from exc
    simplices = tri.simplices.astype(np.int64)

    a, b, c = (verts[simplices[:, k]] for k in range(3))
    edge_ok = (
        (np.linalg.norm(a - b, axis=1) <= max_edge)
        & (np.linalg.norm(b - c, axis=1) <= max_edge)
        & (np.linalg.norm(c - a, axis=1) <= max_edge)
    )
    signed = _signed_areas(uv_u, simplices)
    keep_tri = edge_ok & (np.abs(signed) > 1e-12)
    simplices = simplices[keep_tri]
    flip = signed[keep_tri] < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]

    if len(simplices) == 0:
        raise DegenerateSurface("no triangle under the edge-length limit")
    return TriangleMesh(vertices=verts, triangles=simplices,
                        plane_normal=normal, plane_offset=offset)


def dtm_from_ground(ground: PointCloud, reference: TriangleMesh | None,
                    max_edge: float) -> TriangleMesh:
    """The DTM step of the monitoring chain, for ``run_pipeline`` and
    ``slopewatch dtm`` alike: ``remove_outliers``, ``voxel_downsample`` at
    ``DTM_VOXEL_M``, then ``build_dtm`` on ``reference``'s projection
    plane, or on the thinned cloud's own plane when ``reference`` is None
    (the first epoch, whose DTM is every later epoch's reference).
    """
    thinned = voxel_downsample(remove_outliers(ground), DTM_VOXEL_M)
    plane = (None if reference is None
             else (reference.plane_normal, reference.plane_offset))
    return build_dtm(thinned, projection_plane=plane, max_edge=max_edge)


# ---------------------------------------------------------------------------
# Point-to-triangle distance
# ---------------------------------------------------------------------------


def closest_point_on_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray,
                               c: np.ndarray) -> np.ndarray:
    """Exact closest point on each triangle (a, b, c) to each point p.

    Vectorized region-based test (vertex / edge / face) over aligned rows.
    Only the dot products and barycentric terms span every row; each
    region's arithmetic runs on the rows it settles.
    """
    p = np.atleast_2d(p)
    ab, ac = b - a, c - a

    def dot(x, y):
        return np.einsum("ij,ij->i", x, y)

    rel = p - a                     # p - a, then p - b, then p - c
    d1, d2 = dot(ab, rel), dot(ac, rel)
    np.subtract(p, b, out=rel)
    d3, d4 = dot(ab, rel), dot(ac, rel)
    np.subtract(p, c, out=rel)
    d5, d6 = dot(ab, rel), dot(ac, rel)
    del rel
    vc, vb, va = d1 * d4 - d3 * d2, d5 * d2 - d1 * d6, d3 * d6 - d5 * d4

    out = np.empty_like(p)
    todo = np.ones(len(p), dtype=bool)

    def settle(mask, value):        # rows of mask not yet settled get value(rows)
        rows = np.flatnonzero(mask & todo)
        out[rows] = value(rows)
        todo[rows] = False

    def along(num, den):            # num / den along an edge, 0 where den is 0
        return np.where(den != 0, num / den, 0.0)[:, None]

    settle((d1 <= 0) & (d2 <= 0), lambda i: a[i])
    settle((d3 >= 0) & (d4 <= d3), lambda i: b[i])
    settle((d6 >= 0) & (d5 <= d6), lambda i: c[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        settle((vc <= 0) & (d1 >= 0) & (d3 <= 0),
               lambda i: a[i] + along(d1[i], d1[i] - d3[i]) * ab[i])
        settle((vb <= 0) & (d2 >= 0) & (d6 <= 0),
               lambda i: a[i] + along(d2[i], d2[i] - d6[i]) * ac[i])
        d43, d56 = d4 - d3, d5 - d6
        settle((va <= 0) & (d43 >= 0) & (d56 >= 0),
               lambda i: b[i] + along(d43[i], d43[i] + d56[i]) * (c[i] - b[i]))

        def face(i):
            denom = va[i] + vb[i] + vc[i]
            denom = np.where(denom != 0, denom, 1.0)
            return (a[i] + (vb[i] / denom)[:, None] * ab[i]
                    + (vc[i] / denom)[:, None] * ac[i])

        settle(todo, face)
    return out


# in-plane distance, metres, within which a reference triangle supports a
# compared vertex: a vertex on a triangle's edge or corner is supported
_SUPPORT_EPS = 1e-9


def _ragged(counts: np.ndarray, budget: int = 1 << 14):
    """(run, offset) of the items of consecutive runs of ``counts`` items,
    in chunks of at most ``budget`` items, so working memory stays bounded:
    a chunk of candidate pairs becomes about 15 arrays of its length in
    ``closest_point_on_triangles``, on each pool thread. Against the
    16,384 items here, on the 42,460-triangle DTM of the 8 pts/m² default
    run on 2 cores, 65,536 raised ``mesh_distance``'s resident memory by
    17 MB more at the same speed, and 4,096 by 5 MB less in 45% more time."""
    ends = np.cumsum(counts)
    starts, total = ends - counts, int(ends[-1:].sum())
    for s in range(0, total, budget):
        e = min(s + budget, total)
        i, j = np.searchsorted(ends, [s, e - 1], "right") + [0, 1]
        run = np.repeat(np.arange(i, j), np.minimum(ends[i:j], e) - np.maximum(starts[i:j], s))
        yield run, np.arange(s, e) - starts[run]


def _near(xo, lo, hi, r2) -> np.ndarray:
    """Whether, row by row, ``xo`` lies within sqrt(``r2``) of the box from
    ``lo`` to ``hi`` over the columns of ``xo``."""
    d = xo.shape[1]
    g = np.maximum(lo[:, :d] - xo, xo - hi[:, :d])
    np.maximum(g, 0.0, out=g)
    return np.einsum("ij,ij->i", g, g) <= r2


def _plan_grid(uvh: np.ndarray, tris: np.ndarray):
    """Plan-view grid of triangles ``tris`` on vertices ``uvh`` (u, v on
    ``plane_basis``, height along the normal): a triangle is listed in each
    cell its (u, v) box overlaps, a cell keeps its triangles' height range.
    The side starts at the median (u, v) box side and doubles until there
    are at most 8 listings and 8 cells per triangle, bounding memory and
    cell keys. ``pairs(x, r)`` yields, in bounded chunks, each (row of
    ``x``, triangle) pair once whose box distance over the columns of ``x``
    is at most ``r`` of the row, plus 1e-9 of the coordinates for rounding.
    The listing is built in chunks too; beside it the search keeps the
    triangles' boxes and cell spans and each cell's height range, and
    works out a cell's plan square from its key.
    """
    lo = np.take(uvh, tris[:, 0], axis=0)
    hi = lo.copy()
    for k in (1, 2):
        corner = np.take(uvh, tris[:, k], axis=0)
        np.minimum(lo, corner, out=lo)
        np.maximum(hi, corner, out=hi)
    del corner
    origin, limit = lo[:, :2].min(axis=0), 8 * len(tris)
    side = (float(np.median((hi - lo)[:, :2].max(axis=1)))
            or float((hi[:, :2] - origin).max()) or 1.0)
    while True:
        first, last = (np.floor((e[:, :2] - origin) / side) for e in (lo, hi))
        shape = last.max(axis=0) + 1
        if max((last - first + 1).prod(axis=1).sum(), shape.prod()) <= limit:
            break
        side *= 2.0
    first, last, shape = (e.astype(np.int64) for e in (first, last, shape))

    def key(low, span, run, k):     # cell key of item k of box ``run``
        return (low[run, 0] + k // span[run, 1]) * shape[1] + low[run, 1] + k % span[run, 1]

    # each listing as one sort key, cell then triangle: with at most 8
    # cells per triangle, cell * m + triangle < 8 m² fits in int64 up to
    # 1e9 triangles
    span, m = last - first + 1, len(tris)
    count = span.prod(axis=1)
    listed = np.empty(int(count.sum()), np.int64)
    c_lo, c_hi = np.full(shape.prod(), np.inf), np.full(shape.prod(), -np.inf)
    at = 0
    for tri, k in _ragged(count):
        c = key(first, span, tri, k)
        np.minimum.at(c_lo, c, np.take(lo[:, 2], tri))
        np.maximum.at(c_hi, c, np.take(hi[:, 2], tri))
        listed[at:at + len(c)] = c * m + tri
        at += len(c)
    listed.sort()
    start = np.searchsorted(listed, np.arange(len(c_lo) + 1) * m)
    np.remainder(listed, m, out=listed)
    size = float(np.maximum(-lo, hi).max())

    def pairs(x: np.ndarray, r: np.ndarray):
        r = r + 1e-9 * (1.0 + size + np.abs(x).max(axis=1, initial=0.0))
        r2 = r * r
        w0, w1, home = (np.clip(np.floor((x[:, :2] + s * r[:, None] - origin) / side),
                                0, shape - 1).astype(np.int64) for s in (-1, 1, 0))
        for own, k in _ragged((w1 - w0 + 1).prod(axis=1)):
            c = key(w0, w1 - w0 + 1, own, k)
            corner = origin + side * np.column_stack(np.divmod(c, shape[1]))
            near = _near(np.take(x, own, axis=0),
                         np.column_stack([corner, c_lo[c]]),
                         np.column_stack([corner + side, c_hi[c]]), np.take(r2, own))
            own, c = own[near], c[near]
            for j, k in _ragged(start[c + 1] - start[c]):
                o, t, cj = own[j], listed[start[c[j]] + k], c[j]
                near = _near(np.take(x, o, axis=0), np.take(lo, t, axis=0),
                             np.take(hi, t, axis=0), np.take(r2, o))
                o, t, cj = o[near], t[near], cj[near]
                # a pair comes only from the cell holding the point of the
                # triangle's box nearest in plan, so it comes once
                h = np.minimum(np.maximum(np.take(home, o, 0), np.take(first, t, 0)),
                               np.take(last, t, 0))
                once = h[:, 0] * shape[1] + h[:, 1] == cj
                yield o[once], t[once]

    return pairs


def _corners(verts: np.ndarray, tris: np.ndarray, t: np.ndarray) -> list:
    """The three corners of triangles ``t``, one array of rows of ``verts``
    per corner, gathered for ``t`` alone."""
    return [np.take(verts, np.take(tris[:, k], t), axis=0) for k in range(3)]


def _nearest_triangle(pts: np.ndarray, verts: np.ndarray, tris: np.ndarray,
                      pairs, x: np.ndarray, cap: float,
                      seeds: cKDTree | None = None):
    """Exact nearest triangle per point: (distance, index, closest point).

    Points and ``verts`` share one dimension, 3D or in-plane; ``x`` holds
    the points on the axes of ``pairs``, a ``_plan_grid`` search. The nearest
    centroid in ``seeds`` (else triangle 0) gives each point an exact seed
    distance d0; only triangles within min(d0, ``cap``) by box distance are
    then tested, so at or below ``cap`` the result is exact. Of equally
    near triangles the lowest index wins. Blocks of points run on every
    core (``cloud._by_rows``), each point on its own, and each chunk of
    candidate pairs gathers the corners it tests.
    """
    def kernel(rows: np.ndarray):
        p = pts[rows]
        best_tri = np.zeros(len(p), np.int64) if seeds is None else seeds.query(p)[1]
        best_cp = closest_point_on_triangles(p, *_corners(verts, tris, best_tri))
        best_d = np.linalg.norm(p - best_cp, axis=1)
        for owner, flat in pairs(x[rows], np.minimum(best_d, cap)):
            po = np.take(p, owner, axis=0)
            cps = closest_point_on_triangles(po, *_corners(verts, tris, flat))
            dd = np.linalg.norm(po - cps, axis=1)
            # per point the nearest candidates, held one included, and of
            # those the lowest triangle index; a point gets each triangle
            # once, so one candidate per updated point wins
            nearest = best_d.copy()
            np.minimum.at(nearest, owner, dd)
            at_min = dd == nearest[owner]
            lowest = np.where(nearest == best_d, best_tri, len(tris))
            np.minimum.at(lowest, owner[at_min], flat[at_min])
            win = at_min & (flat == lowest[owner])
            upd = owner[win]
            best_d[upd] = dd[win]
            best_tri[upd] = flat[win]
            best_cp[upd] = cps[win]
        return best_d, best_tri, best_cp

    return _by_rows(kernel, np.arange(len(pts)))


def mesh_distance(
    compared: TriangleMesh,
    reference: TriangleMesh,
    max_dist: float = 5.0,
    interval_days: float = 1.0,
    compared_epoch: str | None = None,
    reference_epoch: str | None = None,
) -> DeformationField:
    """Signed distance from every compared vertex to the reference surface.

    The sign is that of ``(vertex - nearest point) . plane_normal``, the
    projection normal every DTM of a run shares: positive is deposition,
    negative erosion. So a nearest point on an edge or a vertex shared by
    tied triangles gets one sign whichever triangle wins.
    A vertex is invalid when it is farther than ``max_dist`` from every
    reference triangle, or when no projected reference triangle lies
    within ``_SUPPORT_EPS`` (1e-9 m) of its in-plane projection (scan hole
    or missing coverage). Without the second guard a vertex over a hole
    would report its lateral distance to the hole rim as deformation.

    Both searches prune on one plan-view grid whose cells keep height
    ranges (``_plan_grid``; Cignoni, Rocchini & Scopigno 1998, "Metro"): a
    box distance on orthonormal axes never exceeds the true distance, so
    the result stays exact. A near vertex is supported when its nearest
    triangle covers its projection; only those it leaves open go to the
    in-plane search, heights ignored. Beside the grid, the centroid tree
    and a few arrays per vertex, every step works on blocks of vertices and
    chunks of candidate pairs, gathering the corners each chunk tests.
    """
    if len(reference.triangles) == 0:
        raise DegenerateSurface("reference mesh has no triangles")
    verts = compared.vertices
    tris, rv, n = reference.triangles, reference.vertices, reference.plane_normal
    a, b, c = _corners(rv, tris, np.arange(len(tris)))
    seeds = cKDTree((a + b + c) / 3.0)
    del a, b, c                     # the searches gather corners per chunk
    uv, q = reference.project(rv), reference.project(verts)
    pairs = _plan_grid(np.column_stack([uv, rv @ n]), tris)
    best_d, best_tri, best_cp = _nearest_triangle(
        verts, rv, tris, pairs, np.column_stack([q, verts @ n]), max_dist, seeds)
    del seeds

    values = np.where((verts - best_cp) @ n >= 0, best_d, -best_d)

    def own_d(rows):                # in-plane distance to the own triangle
        qr = q[rows]
        cp = closest_point_on_triangles(qr, *_corners(uv, tris, best_tri[rows]))
        return (np.linalg.norm(qr - cp, axis=1),)

    near = np.flatnonzero(best_d <= max_dist)
    valid = np.zeros(len(verts), dtype=bool)
    valid[near] = _by_rows(own_d, near)[0] <= _SUPPORT_EPS
    open_ = near[~valid[near]]
    if len(open_):
        plan_d = _nearest_triangle(q[open_], uv, tris, pairs, q[open_], _SUPPORT_EPS)[0]
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
    output is sorted by area descending, unnumbered (``measure_regions``
    numbers them). NaN rates (invalid vertices) never join a region.
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
    graph = sparse.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    vertex_area = mesh.vertex_projected_areas()

    # the selected vertices grouped by component, each group ascending
    grouped = np.flatnonzero(selected)
    grouped = grouped[np.argsort(comp[grouped], kind="stable")]
    regions = []
    for members in np.split(grouped, np.flatnonzero(np.diff(comp[grouped])) + 1):
        area = float(vertex_area[members].sum())
        if area < min_area_m2 or area <= 0:
            continue
        regions.append(Region(vertex_set=np.sort(members), area_m2=area,
                              mean_rate_mm_day=float(np.mean(rates[members]))))
    regions.sort(key=lambda r: (-r.area_m2, int(r.vertex_set[0])))
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
    """PLY of ``mesh``; the header's first comment names the projection
    plane, the given ``comments`` follow it."""
    n = mesh.plane_normal
    plane = "projection_plane %.17g %.17g %.17g %.17g" % (n[0], n[1], n[2],
                                                        mesh.plane_offset)
    return write_ply(mesh.vertices, scalars=scalars,
                     faces=mesh.triangles, comments=[plane, *comments])


def _read_surface(data: bytes) -> tuple[TriangleMesh, dict, list]:
    """(mesh, vertex scalar channels, header comments) of a mesh PLY,
    with coordinates kept as read, as cloud parsing keeps them."""
    parsed, _, comments = _read_ply(data)
    if "face" not in parsed:
        raise CloudFormatError("mesh PLY needs vertex and face elements")
    pts, scalars = _ply_vertices(parsed)
    lists = [v for v in parsed["face"].values() if v.ndim == 2]
    if len(lists) != 1 or lists[0].shape[1] != 3:
        raise CloudFormatError("mesh PLY faces must be one list of 3 indices")
    faces = lists[0]
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
    pts = _finite_coordinates(pts)
    if plane is not None:
        norm = np.linalg.norm(plane[:3])
        if not (np.isfinite(plane).all() and norm > 0):
            raise CloudFormatError("projection_plane needs a finite non-zero normal")
        normal = plane[:3] / norm
        offset = float(plane[3])
    elif len(pts) >= 3:
        try:
            normal, offset = fit_plane(pts)
        except DegenerateSurface as exc:
            raise DegenerateSurface(f"mesh PLY names no projection plane: {exc}") from exc
    else:
        normal, offset = np.array([0.0, 0.0, 1.0]), 0.0
    mesh = TriangleMesh(vertices=pts, triangles=faces, plane_normal=normal,
                        plane_offset=offset)
    return mesh, scalars, comments


def write_mesh(mesh: TriangleMesh) -> bytes:
    """PLY with vertices and faces."""
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
    # the last comment of a key wins
    meta = {tokens[0]: tokens[1] for tokens in comments if len(tokens) >= 2}
    if "interval_days" not in meta:
        raise CloudFormatError("field PLY missing 'interval_days' comment")
    try:
        interval = float(meta["interval_days"])
        if not np.isfinite(interval):
            raise CloudFormatError("field PLY interval_days must be finite")
        valid = scalars["valid"] > 0.5
        values = np.where(valid, scalars["displacement_m"], np.nan)
        field_ = DeformationField(values=values, valid=valid, interval_days=interval,
                                  compared_epoch=meta.get("compared_epoch"),
                                  reference_epoch=meta.get("reference_epoch"))
    except ValueError as exc:
        raise CloudFormatError(f"malformed field PLY: {exc}") from exc
    return mesh, field_
