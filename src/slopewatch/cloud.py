"""Point cloud data model, XYZ/PLY I/O, neighbor index, normals, downsampling.

Coordinates are stored as read, in absolute 64-bit reals: float64
resolves about 1 nm at 4,400 km, so survey coordinates need no working
frame, and a file written and read back gives the same coordinates bit
for bit. All containers are immutable after construction; every
operation is a pure function of its inputs.

Files are written as binary little-endian PLY with ``double`` properties
(``write_ply``, the one writer for clouds, meshes and fields); the readers
accept ASCII or binary little-endian PLY and ASCII XYZ.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import date
from enum import IntEnum

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudFormatError, DegenerateSurface

logger = logging.getLogger(__name__)

SPACING_K = 4           # surface_spacing's neighbor rank
SPACING_SAMPLE = 2000   # surface_spacing probes about this many points
# rows per block of a per-row kernel run by ``_by_rows``; it bounds the
# kernels' working memory. 2,048 to 16,384 ran equally fast; up to this
# many rows stay on the calling thread
ROW_BLOCK = 8192
# one thread per usable core: the kernels spend their time in numpy,
# LAPACK and kd-tree queries, which release the interpreter lock
_POOL = ThreadPoolExecutor(
    max_workers=(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1),
    thread_name_prefix="slopewatch-rows")


class PointClass(IntEnum):
    """Per-point class tag."""

    UNKNOWN = 0
    GROUND = 1
    VEGETATION = 2


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Epoch-tagged 3D points with optional normals, scalar channels and labels.

    Attributes
    ----------
    points : (n, 3) float64
        Coordinates in meters, as read or generated.
    normals : (n, 3) float64 or None
        Unit vectors; rows of NaN mark points whose normal could not be
        estimated (degenerate neighborhood).
    scalars : dict of name -> (n,) float64
        Named per-point channels.
    labels : (n,) uint8 or None
        ``PointClass`` values.
    epoch_id : str or None
        Acquisition campaign identifier.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    scalars: dict = field(default_factory=dict)
    labels: np.ndarray | None = None
    epoch_id: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "points", _readonly(pts))

        n = len(pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=np.float64)
            if nrm.shape != (n, 3):
                raise ValueError("normals must match point count")
            valid = np.all(np.isfinite(nrm), axis=1)
            norms = np.linalg.norm(nrm[valid], axis=1)
            if valid.any() and not np.allclose(norms, 1.0, atol=1e-6):
                raise ValueError("normals must be unit length within 1e-6")
            object.__setattr__(self, "normals", _readonly(nrm))

        chans = {}
        for name, vals in dict(self.scalars).items():
            v = np.asarray(vals, dtype=np.float64)
            if v.shape != (n,):
                raise ValueError(f"scalar channel '{name}' must have length {n}")
            chans[name] = _readonly(v)
        object.__setattr__(self, "scalars", chans)

        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.uint8)
            if lab.shape != (n,):
                raise ValueError("labels must match point count")
            object.__setattr__(self, "labels", _readonly(lab))

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, indices) -> "PointCloud":
        """New cloud restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices)
        return PointCloud(
            points=self.points[idx],
            normals=None if self.normals is None else self.normals[idx],
            scalars={k: v[idx] for k, v in self.scalars.items()},
            labels=None if self.labels is None else self.labels[idx],
            epoch_id=self.epoch_id,
        )

    def with_(self, **kwargs) -> "PointCloud":
        """``dataclasses.replace`` with validation re-run."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EpochRecord:
    """One acquisition campaign."""

    epoch_id: str
    acquisition_date: date
    station_count: int

    def __post_init__(self):
        if self.station_count < 1:
            raise ValueError("station_count must be a positive integer")


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_PLY_DTYPES = {
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2",
    "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4",
    "uint": "<u4", "uint32": "<u4",
}
_FLOAT_PLY_TYPES = {"float", "float32", "double", "float64"}


def _finite_coordinates(points: np.ndarray) -> np.ndarray:
    """``points``, or ``CloudFormatError`` when a coordinate or the
    centroid is not finite: a centroid that overflows leaves no plane or
    mean to compute downstream."""
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = points.mean(axis=0) if len(points) else np.zeros(3)
    if not (np.isfinite(points).all() and np.isfinite(centroid).all()):
        raise CloudFormatError("coordinates and their centroid must be finite")
    return points


def _parse_xyz_ascii(data: bytes) -> tuple[np.ndarray, dict]:
    """ASCII 'x y z [intensity ...]' lines; '#' comments skipped."""
    text = data.decode("utf-8", errors="replace")
    coords: list[tuple[float, float, float]] = []
    intensity: list[float] = []
    has_intensity = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) < 3:
            raise CloudFormatError(f"expected at least 3 fields (record {lineno})")
        try:
            x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise CloudFormatError(f"non-numeric coordinate in {s!r} (record {lineno})")
        if len(parts) >= 4:
            try:
                intensity.append(float(parts[3]))
            except ValueError:
                raise CloudFormatError(f"non-numeric extra field in {s!r} (record {lineno})")
            has_intensity = True
        else:
            intensity.append(0.0)
        coords.append((x, y, z))
    pts = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    scalars = {"intensity": np.asarray(intensity)} if has_intensity else {}
    return pts, scalars


def _parse_ply_header(data: bytes):
    """Returns (format, elements, comments, header_end_offset).

    ``elements`` is a list of (name, count, props) where props entries are
    ('scalar', prop_name, type_name) or ('list', prop_name, count_type, item_type).
    ``comments`` holds the tokens after ``comment`` of each comment line,
    in file order, read up to the ``end_header`` keyword.
    """
    end = data.find(b"end_header")
    if not data.startswith(b"ply") or end < 0:
        raise CloudFormatError("not a PLY stream")
    stop = data.find(b"\n", end) + 1
    header = data[:stop].decode("ascii", errors="replace")
    comments = [tokens[1:] for tokens in map(str.split, header[:end].splitlines())
                if tokens[:1] == ["comment"]]
    fmt = None
    elements = []
    try:
        for line in header.splitlines():
            tokens = line.strip().split()
            if not tokens:
                continue
            if tokens[0] == "format":
                if tokens[1] == "ascii":
                    fmt = "ascii"
                elif tokens[1] == "binary_little_endian":
                    fmt = "binary_little_endian"
                else:
                    raise CloudFormatError(f"unsupported PLY format {tokens[1]!r}")
            elif tokens[0] == "element":
                count = int(tokens[2])
                if count < 0:
                    raise CloudFormatError(f"negative PLY element count in {line!r}")
                elements.append((tokens[1], count, []))
            elif tokens[0] == "property":
                if not elements:
                    raise CloudFormatError("property before element in PLY header")
                if tokens[1] == "list":
                    if any(t not in _PLY_DTYPES or t in _FLOAT_PLY_TYPES
                           for t in tokens[2:4]):
                        raise CloudFormatError(f"unsupported PLY list types in {line!r}")
                    prop = ("list", tokens[4], tokens[2], tokens[3])
                else:
                    if tokens[1] not in _PLY_DTYPES:
                        raise CloudFormatError(f"unsupported PLY property type {tokens[1]!r}")
                    prop = ("scalar", tokens[2], tokens[1])
                if any(p[1] == prop[1] for p in elements[-1][2]):
                    raise CloudFormatError(f"duplicate PLY property in {line!r}")
                elements[-1][2].append(prop)
    except (IndexError, ValueError) as exc:
        raise CloudFormatError(f"malformed PLY header line {line!r}") from exc
    if fmt is None:
        raise CloudFormatError("PLY header missing format line")
    return fmt, elements, comments, stop


def _read_ply(data: bytes) -> tuple[dict, list, list]:
    """Parse a PLY stream into ({element_name: {prop_name: array}},
    elements, comments), the last two as ``_parse_ply_header`` gives them.

    ASCII and binary bodies go through the one decoder, ``_read_element``,
    and accept the same elements: scalar and list properties in any order,
    each list with one length over all rows of its element. Scalars come
    back as float64 arrays, lists as (count, length) int64 arrays.
    """
    fmt, elements, comments, offset = _parse_ply_header(data)
    body = (np.array(data[offset:].split(), dtype=object) if fmt == "ascii"
            else np.frombuffer(data, dtype=np.uint8, offset=offset))
    out: dict[str, dict[str, np.ndarray]] = {}
    pos = 0
    for name, count, props in elements:
        try:
            out[name], pos = _read_element(body, pos, count, props)
        except (ValueError, OverflowError) as exc:
            raise CloudFormatError(f"PLY element '{name}': {exc}") from exc
    return out, elements, comments


def _read_element(body: np.ndarray, pos: int, count: int, props: list):
    """({prop_name: array}, position after the rows) of the ``count`` rows
    of one PLY element at ``pos`` in ``body``: an array of ASCII tokens, or
    of bytes for a binary body, so a value takes one token or its type's
    size. The first row fixes the layout, each list with the length it has
    there; every row must repeat it. An element without rows gives empty
    scalars and (0, 3) lists. A truncated body, a negative or non-uniform
    list count and a value that does not parse raise ``ValueError`` or
    ``OverflowError``, which ``_read_ply`` turns into a ``CloudFormatError``
    naming the element."""
    text = body.dtype == object

    def size(ptype: str) -> int:
        return 1 if text else np.dtype(_PLY_DTYPES[ptype]).itemsize

    def values(block: np.ndarray, ptype: str, kind) -> np.ndarray:
        """(rows, values) of one property's columns, cast as float() or
        int() does in text, or from the little-endian type in binary."""
        if text:
            read = float if kind is np.float64 else int
            flat = np.fromiter(map(read, block.ravel()), dtype=kind, count=block.size)
            return flat.reshape(block.shape)
        return np.ascontiguousarray(block).view(_PLY_DTYPES[ptype]).astype(kind)

    if count == 0:
        return {p[1]: np.zeros(0) if p[0] == "scalar"
                else np.zeros((0, 3), dtype=np.int64) for p in props}, pos
    layout, width = [], 0    # (prop, first unit in the row, list length)
    for p in props:
        if p[0] == "scalar":
            layout.append((p, width, None))
            width += size(p[2])
            continue
        head = body[pos + width:pos + width + size(p[2])]
        if len(head) < size(p[2]):
            raise ValueError("truncated")
        m = int(values(head[None], p[2], np.int64)[0, 0])
        if m < 0:
            raise ValueError("negative list count")
        layout.append((p, width, m))
        width += size(p[2]) + m * size(p[3])
    if len(body) - pos < width * count:
        raise ValueError("truncated")
    rows = body[pos:pos + width * count].reshape(count, width)
    out = {}
    for p, at, m in layout:
        if m is None:
            out[p[1]] = values(rows[:, at:at + size(p[2])], p[2], np.float64)[:, 0]
            continue
        start = at + size(p[2])
        if not (values(rows[:, at:start], p[2], np.int64) == m).all():
            raise ValueError("non-uniform list lengths")
        out[p[1]] = values(rows[:, start:start + m * size(p[3])], p[3], np.int64)
    return out, pos + width * count


def parse_cloud(data: bytes, fmt: str) -> PointCloud:
    """Decode a byte stream into a PointCloud.

    Parameters
    ----------
    data : bytes
        File content.
    fmt : {'xyz_ascii', 'ply'}
        Declared format.

    Coordinates are kept as read and input record order is preserved.
    """
    if fmt == "xyz_ascii":
        pts, scalars = _parse_xyz_ascii(data)
    elif fmt == "ply":
        parsed, elements, _ = _read_ply(data)
        pts, scalars = _ply_vertices(parsed)
        for name, _count, props in elements:
            if name != "vertex":
                continue
            for p in props:
                if p[0] != "scalar" or p[2] not in _FLOAT_PLY_TYPES:
                    raise CloudFormatError(
                        f"unsupported PLY vertex property type for {p[1]!r}"
                    )
    else:
        raise ValueError(f"unknown cloud format {fmt!r}")

    return PointCloud(points=_finite_coordinates(pts), scalars=scalars)


def _ply_vertices(parsed: dict) -> tuple[np.ndarray, dict]:
    """((n, 3) coordinates, other channels) of a parsed PLY
    stream's vertex element, whose properties must all be scalars."""
    cols = parsed.get("vertex")
    if cols is None:
        raise CloudFormatError("PLY stream has no vertex element")
    for axis in ("x", "y", "z"):
        if axis not in cols:
            raise CloudFormatError(f"PLY vertex element missing '{axis}'")
    if any(v.ndim != 1 for v in cols.values()):
        raise CloudFormatError("PLY vertex element has a list property")
    n = len(cols["x"])
    pts = np.column_stack([cols["x"], cols["y"], cols["z"]]) if n else np.zeros((0, 3))
    return pts, {k: v for k, v in cols.items() if k not in ("x", "y", "z")}


def write_cloud(cloud: PointCloud) -> bytes:
    """Binary PLY of the coordinates and the scalar channels;
    ``parse_cloud(write_cloud(c), "ply")`` gives both back exactly."""
    return write_ply(cloud.points, scalars=cloud.scalars)


def write_ply(
    points: np.ndarray,
    scalars: dict | None = None,
    faces: np.ndarray | None = None,
    comments: list[str] | None = None,
) -> bytes:
    """The one PLY writer: binary little-endian, ``double`` x, y, z and then
    ``scalars`` by sorted name, and an optional triangle face list."""
    scalars = scalars or {}
    names = sorted(scalars)
    header = ["ply", "format binary_little_endian 1.0"]
    header += [f"comment {c}" for c in comments or []]
    header.append(f"element vertex {len(points)}")
    header += [f"property double {name}" for name in ("x", "y", "z", *names)]
    if faces is not None:
        header += [f"element face {len(faces)}",
                   "property list uchar int vertex_indices"]
    header.append("end_header")
    cols = np.column_stack([np.asarray(points, dtype=np.float64).reshape(-1, 3)]
                           + [np.asarray(scalars[n], dtype=np.float64) for n in names])
    body = cols.astype("<f8").tobytes()
    if faces is not None:
        rows = np.empty(len(faces), dtype=[("n", "u1"), ("v", "<i4", (3,))])
        rows["n"] = 3
        rows["v"] = faces
        body += rows.tobytes()
    return ("\n".join(header) + "\n").encode("ascii") + body


def read_cloud(path) -> PointCloud:
    """Read a cloud file: PLY when the name ends in ``.ply`` or the bytes
    start with the ``ply`` magic (no XYZ record can), XYZ text otherwise."""
    p = str(path)
    with open(p, "rb") as fh:
        data = fh.read()
    fmt = ("ply" if p.lower().endswith(".ply") or data.startswith(b"ply")
           else "xyz_ascii")
    return parse_cloud(data, fmt)


# ---------------------------------------------------------------------------
# Neighbor index
# ---------------------------------------------------------------------------


def _kept(cloud: PointCloud, key, make):
    """``make()``, computed on the first call for ``cloud`` and ``key`` and
    kept with the cloud for every later call. A cloud is immutable, so an
    entry never goes stale as long as ``key`` names every setting the value
    depends on; a new cloud (``with_``, ``subset``) starts empty."""
    memo = cloud.__dict__.setdefault("_kept", {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _kdtree(cloud: PointCloud) -> cKDTree:
    """The kd-tree over ``cloud.points``, built on first use and kept with
    the cloud."""
    return _kept(cloud, "kdtree", lambda: cKDTree(cloud.points))


def _by_rows(kernel, rows) -> tuple:
    """``kernel`` over ``rows`` cut into contiguous blocks of ``ROW_BLOCK``
    rows, run on the module's thread pool; the arrays of each block's result
    tuple are concatenated in block order. One block (zero rows make one
    empty block, so the result keeps its column shapes) runs on the calling
    thread: a pool thread would only hand it over, and would keep its
    memory in a malloc arena of its own. The pool runs all of the package's
    work that leaves the calling thread, in five kernels: the normals of
    ``estimate_normals``, the neighbour distances of ``remove_outliers``,
    the pairing query of ``registration.icp``, the descriptors of
    ``registration.extract_descriptors`` and the nearest-triangle search
    of ``terrain.mesh_distance``.

    A kernel must compute each row on its own, so the result does not depend
    on the block size or the thread count. It runs on a pool thread, so it
    builds no ``cKDTree`` and calls neither ``_kept`` (an unlocked memo)
    nor ``_by_rows`` (it would wait on its own pool), nor a function that
    ``perfbench/tracing.py`` wraps: the tracer counts kd-tree builds and
    calls on one span stack. A kernel sets any ``np.errstate`` it needs
    itself; the caller's does not reach the pool threads.
    """
    blocks = [rows[s:s + ROW_BLOCK] for s in range(0, max(len(rows), 1), ROW_BLOCK)]
    parts = [kernel(blocks[0])] if len(blocks) == 1 else list(_POOL.map(kernel, blocks))
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``
    of a 2-D array: the distinct rows in lexicographic order, the index of
    each one's first occurrence and, per row, the index of its distinct
    row. One stable ``lexsort`` over the columns (first column primary),
    with group boundaries where adjacent sorted rows differ, so ``-0.0``
    and ``0.0`` are one value, as in ``np.unique``."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    first = order[new]
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return rows[first], first, inverse


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


def diameter(cloud: PointCloud) -> float:
    """Length of the bounding-box diagonal."""
    if len(cloud) == 0:
        return 0.0
    pts = cloud.points
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def surface_spacing(cloud: PointCloud) -> float:
    """Robust surface sampling scale: median k-th neighbor distance over a
    deterministic subsample of about ``SPACING_SAMPLE`` points, scaled by
    1/sqrt(k), with k = ``SPACING_K``.

    Unlike the nearest-neighbor spacing this barely moves when several
    scans of the same surface coincide point-for-point, so it is the right
    scale for deriving neighborhood radii on merged clouds. A cloud of at
    most k points falls back to its median nearest-neighbor distance
    (k = 1); fewer than two points have no spacing (0).
    """
    n = len(cloud)
    if n < 2:
        return 0.0
    k = SPACING_K if n > SPACING_K else 1
    probe = cloud.points[::max(1, n // SPACING_SAMPLE)]
    d, _ = _kdtree(cloud).query(probe, k=k + 1)
    return float(np.median(d[:, k]) / np.sqrt(k))


def _orient_deterministic(normal: np.ndarray) -> np.ndarray:
    """Flip so z >= 0, tie-broken by the first nonzero component positive."""
    n = normal
    if n[2] < 0:
        return -n
    if n[2] == 0:
        for c in n:
            if c != 0:
                return n if c > 0 else -n
    return n


def fit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through ``points``: (unit normal, offset).

    Satisfies ``normal @ p ~= offset``; normal oriented upward with a
    deterministic tie rule for vertical planes. ``DegenerateSurface`` when
    the points define no plane: fewer than 3, or collinear.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 3:
        raise DegenerateSurface("the points define no plane: need at least 3 points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] <= max(s[0], 1e-300) * 1e-12:
        raise DegenerateSurface(
            "the points define no plane: points are collinear; plane undefined")
    normal = _orient_deterministic(vt[2])
    return normal, float(normal @ centroid)


def plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane basis (u, v) of a unit ``normal``.

    ``u`` is the x axis (the y axis when the normal lies near x) with its
    normal component removed, and ``v = normal x u``, so (u, v, normal) is
    right-handed.
    """
    helper = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = helper - (helper @ normal) * normal
    u /= np.linalg.norm(u)
    return u, np.cross(normal, u)


def concat_clouds(clouds: list[PointCloud]) -> PointCloud:
    """Concatenate clouds in order, with the first cloud's epoch.

    A channel (normals, labels, scalar) survives only if every input has it.
    """
    if not clouds:
        raise ValueError("no clouds to concatenate")
    base = clouds[0]
    points = np.vstack([c.points for c in clouds])

    normals = None
    if all(c.normals is not None for c in clouds):
        normals = np.vstack([c.normals for c in clouds])
    labels = None
    if all(c.labels is not None for c in clouds):
        labels = np.concatenate([c.labels for c in clouds])
    common = set(base.scalars)
    for c in clouds[1:]:
        common &= set(c.scalars)
    scalars = {k: np.concatenate([c.scalars[k] for c in clouds]) for k in sorted(common)}
    return PointCloud(points=points, normals=normals, scalars=scalars,
                      labels=labels, epoch_id=base.epoch_id)


# ---------------------------------------------------------------------------
# Normal estimation and downsampling
# ---------------------------------------------------------------------------


def remove_outliers(cloud: PointCloud, k: int = 8,
                    std_ratio: float = 2.0) -> PointCloud:
    """Statistical outlier removal.

    Drops points whose mean distance to their k nearest neighbors exceeds
    the cloud-wide mean by ``std_ratio`` standard deviations; isolated
    spikes (residual vegetation returns) go, surface points stay.
    """
    n = len(cloud)
    if n <= k:
        return cloud
    tree = _kdtree(cloud)

    def kernel(block):
        d, _ = tree.query(block, k=k + 1)
        return (d[:, 1:].mean(axis=1),)

    mean_d, = _by_rows(kernel, cloud.points)
    keep = mean_d <= mean_d.mean() + std_ratio * mean_d.std()
    return cloud.subset(np.flatnonzero(keep))


def estimate_normals(cloud: PointCloud, k: int, viewpoint) -> PointCloud:
    """Per-point normals from the k-neighborhood covariance.

    The normal is the smallest-eigenvalue direction, oriented to face
    ``viewpoint``. Degenerate (collinear) neighborhoods get a NaN normal.
    A ``curvature`` scalar channel (smallest eigenvalue over the trace)
    is attached for downstream keypoint selection.

    The kd-tree is built (or taken from the cloud) on the calling thread;
    query, covariance, ``eigh``, orientation and curvature run per block
    of ``ROW_BLOCK`` points on every core (``_by_rows``). Each point is
    computed on its own, so the result is the same for any core count.

    Parameters
    ----------
    cloud : PointCloud
    k : int
        Neighborhood size, >= 3; the cloud must hold at least k points.
    viewpoint : (3,) array-like
        Position the normals should face, in the cloud's coordinates.
    """
    if k < 3:
        raise ValueError("normal estimation needs k >= 3")
    n = len(cloud)
    if n < k:
        raise ValueError(f"cloud has {n} points, fewer than k={k}")
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    pts = cloud.points
    tree = _kdtree(cloud)

    def kernel(block):
        _, idx = tree.query(block, k=k)
        nb = pts[idx]                                # (m, k, 3)
        mean = nb.mean(axis=1, keepdims=True)
        centered = nb - mean
        cov = np.einsum("mki,mkj->mij", centered, centered) / k
        w, v = np.linalg.eigh(cov)                   # ascending eigenvalues
        nrm = v[:, :, 0]
        degenerate = w[:, 1] <= np.maximum(w[:, 2], 1e-300) * 1e-9
        flip = np.einsum("mi,mi->m", nrm, vp - block) < 0
        nrm[flip] *= -1.0
        nrm[degenerate] = np.nan
        trace = w.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(trace > 0, w[:, 0] / np.where(trace > 0, trace, 1.0), 0.0)
        c[degenerate] = 0.0
        return nrm, c

    normals, curvature = _by_rows(kernel, pts)
    scalars = dict(cloud.scalars)
    scalars["curvature"] = curvature
    out = cloud.with_(normals=normals, scalars=scalars)
    _kept(out, "kdtree", lambda: tree)   # same points, same tree
    return out


def voxel_downsample(cloud: PointCloud, cell: float) -> PointCloud:
    """One centroid per occupied cubic cell of side ``cell``.

    Output cells are ordered by first point occurrence, which makes the
    operation idempotent: re-running with the same cell size returns the
    identical points. Scalar channels are averaged per cell; normals and
    labels are dropped.
    """
    if cell <= 0:
        raise ValueError("cell size must be positive")
    pts = cloud.points
    if len(pts) == 0:
        return PointCloud(points=pts, epoch_id=cloud.epoch_id)
    keys = np.floor(pts / cell).astype(np.int64)
    # cells come sorted lexicographically; recover first-occurrence order
    _, first, inverse = _unique_rows(keys)
    ncell = len(first)
    rank = np.empty(ncell, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(ncell)
    cell_of = rank[inverse]

    counts = np.bincount(cell_of, minlength=ncell).astype(np.float64)
    centroids = np.column_stack([
        np.bincount(cell_of, weights=pts[:, a], minlength=ncell) for a in range(3)
    ]) / counts[:, None]
    scalars = {
        name: np.bincount(cell_of, weights=vals, minlength=ncell) / counts
        for name, vals in cloud.scalars.items()
    }
    return PointCloud(points=centroids, scalars=scalars, epoch_id=cloud.epoch_id)
