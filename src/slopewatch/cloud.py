"""Point cloud data model, XYZ/PLY I/O, exact spatial indexing, normals, downsampling.

Coordinates are stored as 64-bit reals in a working frame obtained by
subtracting an origin shift (the input centroid rounded to whole meters),
so millimeter differencing stays well conditioned even for large survey
coordinates. All containers are immutable after construction; every
operation is a pure function of its inputs.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field, replace
from datetime import date
from enum import IntEnum

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudFormatError, CloudParseError

logger = logging.getLogger(__name__)


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
        Working-frame coordinates in meters (``absolute = points + origin_shift``).
    normals : (n, 3) float64 or None
        Unit vectors; rows of NaN mark points whose normal could not be
        estimated (degenerate neighborhood).
    scalars : dict of name -> (n,) float64
        Named per-point channels.
    labels : (n,) uint8 or None
        ``PointClass`` values.
    epoch_id : str or None
        Acquisition campaign identifier.
    origin_shift : (3,) float64
        Offset subtracted from the input coordinates, whole meters.
    """

    points: np.ndarray
    normals: np.ndarray | None = None
    scalars: dict = field(default_factory=dict)
    labels: np.ndarray | None = None
    epoch_id: str | None = None
    origin_shift: np.ndarray = None  # type: ignore[assignment]

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

        shift = self.origin_shift
        shift = np.zeros(3) if shift is None else np.asarray(shift, dtype=np.float64)
        if shift.shape != (3,):
            raise ValueError("origin_shift must be a 3-vector")
        object.__setattr__(self, "origin_shift", _readonly(shift))

    def __len__(self) -> int:
        return len(self.points)

    def absolute_points(self) -> np.ndarray:
        """Coordinates with the origin shift added back."""
        return self.points + self.origin_shift

    def subset(self, indices) -> "PointCloud":
        """New cloud restricted to ``indices`` (order preserved)."""
        idx = np.asarray(indices)
        return PointCloud(
            points=self.points[idx],
            normals=None if self.normals is None else self.normals[idx],
            scalars={k: v[idx] for k, v in self.scalars.items()},
            labels=None if self.labels is None else self.labels[idx],
            epoch_id=self.epoch_id,
            origin_shift=self.origin_shift,
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


def validate_epoch_series(epochs: list[EpochRecord]) -> None:
    """Raise if acquisition dates do not strictly increase."""
    for a, b in zip(epochs, epochs[1:]):
        if b.acquisition_date <= a.acquisition_date:
            raise ValueError(
                f"epoch dates must strictly increase: {a.epoch_id} -> {b.epoch_id}"
            )


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


def _centroid_shift(points: np.ndarray) -> np.ndarray:
    if len(points) == 0:
        return np.zeros(3)
    return np.round(points.mean(axis=0))


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
            raise CloudParseError("expected at least 3 fields", line=lineno)
        try:
            x, y, z = float(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise CloudParseError(f"non-numeric coordinate in {s!r}", line=lineno)
        if len(parts) >= 4:
            try:
                intensity.append(float(parts[3]))
            except ValueError:
                raise CloudParseError(f"non-numeric extra field in {s!r}", line=lineno)
            has_intensity = True
        else:
            intensity.append(0.0)
        coords.append((x, y, z))
    pts = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    scalars = {"intensity": np.asarray(intensity)} if has_intensity else {}
    return pts, scalars


def _parse_ply_header(data: bytes):
    """Returns (format, elements, header_end_offset).

    ``elements`` is a list of (name, count, props) where props entries are
    ('scalar', prop_name, type_name) or ('list', prop_name, count_type, item_type).
    """
    end = data.find(b"end_header")
    if not data.startswith(b"ply") or end < 0:
        raise CloudFormatError("not a PLY stream")
    end = data.find(b"\n", end) + 1
    header = data[:end].decode("ascii", errors="replace")
    fmt = None
    elements = []
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
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise CloudFormatError("property before element in PLY header")
            if tokens[1] == "list":
                if tokens[2] not in _PLY_DTYPES or tokens[3] not in _PLY_DTYPES:
                    raise CloudFormatError(f"unsupported PLY list types in {line!r}")
                elements[-1][2].append(("list", tokens[4], tokens[2], tokens[3]))
            else:
                if tokens[1] not in _PLY_DTYPES:
                    raise CloudFormatError(f"unsupported PLY property type {tokens[1]!r}")
                elements[-1][2].append(("scalar", tokens[2], tokens[1]))
    if fmt is None:
        raise CloudFormatError("PLY header missing format line")
    return fmt, elements, end


def _read_ply(data: bytes) -> dict:
    """Parse a PLY stream into {element_name: {prop_name: array}}.

    List properties come back as (count, m) int arrays and require a uniform
    count per element (true for triangle faces, the only list we emit).
    """
    fmt, elements, offset = _parse_ply_header(data)
    out: dict[str, dict[str, np.ndarray]] = {}

    if fmt == "ascii":
        tokens = data[offset:].split()
        pos = 0
        for name, count, props in elements:
            cols: dict[str, list] = {p[1]: [] for p in props}
            for _ in range(count):
                for p in props:
                    if p[0] == "scalar":
                        cols[p[1]].append(float(tokens[pos])); pos += 1
                    else:
                        m = int(tokens[pos]); pos += 1
                        cols[p[1]].append([int(tokens[pos + j]) for j in range(m)])
                        pos += m
            parsed = {}
            for p in props:
                if p[0] == "scalar":
                    parsed[p[1]] = np.asarray(cols[p[1]], dtype=np.float64)
                else:
                    rows = cols[p[1]]
                    if rows and len({len(r) for r in rows}) != 1:
                        raise CloudFormatError("non-uniform PLY list lengths")
                    parsed[p[1]] = np.asarray(rows, dtype=np.int64).reshape(count, -1)
            out[name] = parsed
        return out

    buf = data[offset:]
    pos = 0
    for name, count, props in elements:
        if all(p[0] == "scalar" for p in props):
            dtype = np.dtype([(p[1], _PLY_DTYPES[p[2]]) for p in props])
            need = dtype.itemsize * count
            if len(buf) - pos < need:
                raise CloudFormatError(f"PLY element '{name}' truncated")
            rec = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
            pos += need
            out[name] = {p[1]: rec[p[1]].astype(np.float64) for p in props}
        elif len(props) == 1 and props[0][0] == "list":
            _, pname, ctype, itype = props[0]
            cdt, idt = np.dtype(_PLY_DTYPES[ctype]), np.dtype(_PLY_DTYPES[itype])
            if count == 0:
                out[name] = {pname: np.zeros((0, 3), dtype=np.int64)}
                continue
            m = int(np.frombuffer(buf, dtype=cdt, count=1, offset=pos)[0])
            row = np.dtype([("n", cdt), ("v", idt, (m,))])
            need = row.itemsize * count
            if len(buf) - pos < need:
                raise CloudFormatError(f"PLY element '{name}' truncated")
            rec = np.frombuffer(buf, dtype=row, count=count, offset=pos)
            if not np.all(rec["n"] == m):
                raise CloudFormatError("non-uniform PLY list lengths")
            pos += need
            out[name] = {pname: rec["v"].astype(np.int64)}
        else:
            raise CloudFormatError(
                f"PLY element '{name}' mixes list and scalar properties"
            )
    return out


def parse_cloud(data: bytes, fmt: str) -> PointCloud:
    """Decode a byte stream into a PointCloud.

    Parameters
    ----------
    data : bytes
        File content.
    fmt : {'xyz_ascii', 'ply'}
        Declared format.

    The centroid rounded to whole meters is stored as ``origin_shift`` and
    subtracted from the coordinates; input record order is preserved.
    """
    if fmt == "xyz_ascii":
        pts, scalars = _parse_xyz_ascii(data)
    elif fmt == "ply":
        parsed = _read_ply(data)
        if "vertex" not in parsed:
            raise CloudFormatError("PLY stream has no vertex element")
        cols = parsed["vertex"]
        for axis in ("x", "y", "z"):
            if axis not in cols:
                raise CloudFormatError(f"PLY vertex element missing '{axis}'")
        # reject non-float vertex payloads up front
        _, elements, _ = _parse_ply_header(data)
        for name, _count, props in elements:
            if name != "vertex":
                continue
            for p in props:
                if p[0] != "scalar" or p[2] not in _FLOAT_PLY_TYPES:
                    raise CloudFormatError(
                        f"unsupported PLY vertex property type for {p[1]!r}"
                    )
        n = len(cols["x"])
        pts = np.column_stack([cols["x"], cols["y"], cols["z"]]) if n else np.zeros((0, 3))
        scalars = {k: v for k, v in cols.items() if k not in ("x", "y", "z")}
    else:
        raise ValueError(f"unknown cloud format {fmt!r}")

    shift = _centroid_shift(pts)
    return PointCloud(points=pts - shift, scalars=scalars, origin_shift=shift)


def write_cloud(
    cloud: PointCloud,
    fmt: str,
    include_scalars: bool = True,
    binary: bool = True,
    double_precision: bool = True,
) -> bytes:
    """Serialize a cloud; absolute (unshifted) coordinates go to the file.

    ``parse_cloud(write_cloud(c))`` reproduces coordinates within 1e-6 m
    (exactly, for double-precision PLY) and scalar channels at the written
    precision.
    """
    pts = cloud.absolute_points()
    scalars = cloud.scalars if include_scalars else {}
    if fmt == "xyz_ascii":
        out = io.StringIO()
        intensity = scalars.get("intensity")
        for i in range(len(pts)):
            row = f"{pts[i, 0]:.8f} {pts[i, 1]:.8f} {pts[i, 2]:.8f}"
            if intensity is not None:
                row += f" {intensity[i]:.8f}"
            out.write(row + "\n")
        return out.getvalue().encode("ascii")
    if fmt == "ply":
        return write_ply(pts, scalars=scalars, binary=binary,
                         double_precision=double_precision)
    raise ValueError(f"unknown cloud format {fmt!r}")


def write_ply(
    points: np.ndarray,
    scalars: dict | None = None,
    faces: np.ndarray | None = None,
    binary: bool = True,
    double_precision: bool = True,
    comments: list[str] | None = None,
) -> bytes:
    """Low-level PLY writer shared by cloud and mesh serialization."""
    points = np.asarray(points, dtype=np.float64)
    scalars = scalars or {}
    ftype = "double" if double_precision else "float"
    np_ftype = "<f8" if double_precision else "<f4"

    header = ["ply"]
    header.append("format binary_little_endian 1.0" if binary else "format ascii 1.0")
    for c in comments or []:
        header.append(f"comment {c}")
    header.append(f"element vertex {len(points)}")
    for axis in ("x", "y", "z"):
        header.append(f"property {ftype} {axis}")
    names = sorted(scalars)
    for name in names:
        header.append(f"property {ftype} {name}")
    if faces is not None:
        header.append(f"element face {len(faces)}")
        header.append("property list uchar int vertex_indices")
    header.append("end_header")
    head = ("\n".join(header) + "\n").encode("ascii")

    cols = [points[:, 0], points[:, 1], points[:, 2]] + [scalars[n] for n in names]
    if binary:
        vert = np.empty(len(points), dtype=np.dtype([(f"c{i}", np_ftype) for i in range(len(cols))]))
        for i, c in enumerate(cols):
            vert[f"c{i}"] = np.asarray(c, dtype=np_ftype)
        body = vert.tobytes()
        if faces is not None:
            faces = np.asarray(faces, dtype=np.int64)
            frow = np.empty(len(faces), dtype=np.dtype([("n", "u1"), ("v", "<i4", (3,))]))
            frow["n"] = 3
            frow["v"] = faces.astype("<i4")
            body += frow.tobytes()
        return head + body

    out = io.StringIO()
    digit = ".17g" if double_precision else ".9g"
    stacked = np.column_stack([np.asarray(c, dtype=np_ftype).astype(np.float64) for c in cols]) \
        if cols and len(points) else np.zeros((0, 0))
    for row in stacked:
        out.write(" ".join(format(v, digit) for v in row) + "\n")
    if faces is not None:
        for f in np.asarray(faces, dtype=np.int64):
            out.write(f"3 {f[0]} {f[1]} {f[2]}\n")
    return head + out.getvalue().encode("ascii")


def read_cloud(path) -> PointCloud:
    """Read a cloud file, picking the format from the extension."""
    p = str(path)
    with open(p, "rb") as fh:
        data = fh.read()
    fmt = "ply" if p.lower().endswith(".ply") else "xyz_ascii"
    return parse_cloud(data, fmt)


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------


class SpatialIndex:
    """Exact nearest-neighbor index over an immutable snapshot of points.

    Queries return the same indices and distances as an exhaustive scan,
    with ties broken by ascending point index. Safe for concurrent queries.
    """

    def __init__(self, points):
        if isinstance(points, PointCloud):
            points = points.points
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if len(pts) == 0:
            raise ValueError("cannot index an empty cloud")
        self._points = pts
        self._tree = cKDTree(pts)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def query_knn(self, query, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest points to ``query``: (indices, distances), ascending.

        ``k`` larger than the cloud returns every point sorted by distance.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64).reshape(3)
        n = len(self._points)
        kk = min(k, n)
        d, _ = self._tree.query(q, k=kk)
        dmax = float(np.max(np.atleast_1d(d)))
        radius = dmax * (1.0 + 1e-12) + 1e-300
        cand = np.asarray(self._tree.query_ball_point(q, r=radius), dtype=np.int64)
        diff = self._points[cand] - q
        dist = np.sqrt((diff * diff).sum(axis=1))
        order = np.lexsort((cand, dist))[:kk]
        return cand[order], dist[order]

    def query_knn_many(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Plain cKDTree batch query (fast path; no exact tie-break)."""
        d, i = self._tree.query(np.asarray(queries, dtype=np.float64), k=k)
        return i, d

    def query_ball(self, center, radius: float) -> np.ndarray:
        """Indices within ``radius`` of ``center``, ascending."""
        idx = self._tree.query_ball_point(np.asarray(center, dtype=np.float64), r=radius)
        return np.sort(np.asarray(idx, dtype=np.int64))


def nearest_neighbors(index: SpatialIndex, query, k: int) -> list[tuple[int, float]]:
    """The k closest indexed points to ``query`` as (index, distance) pairs."""
    idx, dist = index.query_knn(query, k)
    return [(int(i), float(d)) for i, d in zip(idx, dist)]


def _kdtree(cloud: PointCloud) -> cKDTree:
    """The kd-tree over ``cloud.points``, built on first use and kept with
    the cloud; a cloud is immutable, so the tree never goes stale."""
    tree = cloud.__dict__.get("_kdtree")
    if tree is None:
        tree = cKDTree(cloud.points)
        object.__setattr__(cloud, "_kdtree", tree)
    return tree


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


def bounding_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points)
    return pts.min(axis=0), pts.max(axis=0)


def diameter(points_or_cloud) -> float:
    """Length of the bounding-box diagonal."""
    pts = points_or_cloud.points if isinstance(points_or_cloud, PointCloud) else points_or_cloud
    if len(pts) == 0:
        return 0.0
    lo, hi = bounding_box(pts)
    return float(np.linalg.norm(hi - lo))


def median_spacing(points_or_cloud, sample: int = 2000) -> float:
    """Median nearest-neighbor distance over a deterministic subsample."""
    pts = points_or_cloud.points if isinstance(points_or_cloud, PointCloud) else points_or_cloud
    n = len(pts)
    if n < 2:
        return 0.0
    step = max(1, n // sample)
    probe = pts[::step]
    tree = cKDTree(pts)
    d, _ = tree.query(probe, k=2)
    return float(np.median(d[:, 1]))


def surface_spacing(points_or_cloud, k: int = 4, sample: int = 2000) -> float:
    """Robust surface sampling scale: median k-th neighbor distance over a
    deterministic subsample, scaled by 1/sqrt(k).

    Unlike the nearest-neighbor spacing this barely moves when several
    scans of the same surface coincide point-for-point, so it is the right
    scale for deriving neighborhood radii on merged clouds.
    """
    pts = points_or_cloud.points if isinstance(points_or_cloud, PointCloud) else points_or_cloud
    n = len(pts)
    if n <= k:
        return median_spacing(points_or_cloud, sample)
    step = max(1, n // sample)
    probe = pts[::step]
    tree = (_kdtree(points_or_cloud) if isinstance(points_or_cloud, PointCloud)
            else cKDTree(pts))
    d, _ = tree.query(probe, k=k + 1)
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
    deterministic tie rule for vertical planes.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a plane")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] <= max(s[0], 1e-300) * 1e-12:
        raise ValueError("points are collinear; plane undefined")
    normal = _orient_deterministic(vt[2])
    return normal, float(normal @ centroid)


def concat_clouds(clouds: list[PointCloud]) -> PointCloud:
    """Concatenate clouds into the first cloud's working frame.

    Differing origin shifts are rebased onto the first cloud's shift. A
    channel (normals, labels, scalar) survives only if every input has it.
    """
    if not clouds:
        raise ValueError("no clouds to concatenate")
    base = clouds[0]
    pts = [base.points]
    for c in clouds[1:]:
        pts.append(c.points + (c.origin_shift - base.origin_shift))
    points = np.vstack(pts)

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
                      labels=labels, epoch_id=base.epoch_id,
                      origin_shift=base.origin_shift)


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
    tree = cKDTree(cloud.points)
    d, _ = tree.query(cloud.points, k=k + 1)
    mean_d = d[:, 1:].mean(axis=1)
    keep = mean_d <= mean_d.mean() + std_ratio * mean_d.std()
    return cloud.subset(np.flatnonzero(keep))


def estimate_normals(cloud: PointCloud, k: int, viewpoint) -> PointCloud:
    """Per-point normals from the k-neighborhood covariance.

    The normal is the smallest-eigenvalue direction, oriented to face
    ``viewpoint``. Degenerate (collinear) neighborhoods get a NaN normal.
    A ``curvature`` scalar channel (smallest eigenvalue over the trace)
    is attached for downstream keypoint selection.

    Parameters
    ----------
    cloud : PointCloud
    k : int
        Neighborhood size, >= 3; the cloud must hold at least k points.
    viewpoint : (3,) array-like
        Position the normals should face, in the cloud's working frame.
    """
    if k < 3:
        raise ValueError("normal estimation needs k >= 3")
    n = len(cloud)
    if n < k:
        raise ValueError(f"cloud has {n} points, fewer than k={k}")
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    pts = cloud.points
    tree = _kdtree(cloud)

    normals = np.empty((n, 3))
    curvature = np.zeros(n)
    chunk = 200_000
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        _, idx = tree.query(pts[start:stop], k=k)
        nb = pts[idx]                                # (m, k, 3)
        mean = nb.mean(axis=1, keepdims=True)
        centered = nb - mean
        cov = np.einsum("mki,mkj->mij", centered, centered) / k
        w, v = np.linalg.eigh(cov)                   # ascending eigenvalues
        nrm = v[:, :, 0]
        degenerate = w[:, 1] <= np.maximum(w[:, 2], 1e-300) * 1e-9
        flip = np.einsum("mi,mi->m", nrm, vp - pts[start:stop]) < 0
        nrm[flip] *= -1.0
        nrm[degenerate] = np.nan
        normals[start:stop] = nrm
        trace = w.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(trace > 0, w[:, 0] / np.where(trace > 0, trace, 1.0), 0.0)
        c[degenerate] = 0.0
        curvature[start:stop] = c

    scalars = dict(cloud.scalars)
    scalars["curvature"] = curvature
    out = cloud.with_(normals=normals, scalars=scalars)
    object.__setattr__(out, "_kdtree", tree)   # same points, same tree
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
        return PointCloud(points=pts, epoch_id=cloud.epoch_id,
                          origin_shift=cloud.origin_shift)
    keys = np.floor(pts / cell).astype(np.int64)
    # np.unique(axis=0) sorts lexicographically; recover first-occurrence order
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    ncell = len(uniq)
    first_seen = np.full(ncell, len(pts), dtype=np.int64)
    np.minimum.at(first_seen, inverse, np.arange(len(pts)))
    order = np.argsort(first_seen, kind="stable")
    rank = np.empty(ncell, dtype=np.int64)
    rank[order] = np.arange(ncell)
    cell_of = rank[inverse]

    counts = np.bincount(cell_of, minlength=ncell).astype(np.float64)
    centroids = np.column_stack([
        np.bincount(cell_of, weights=pts[:, a], minlength=ncell) for a in range(3)
    ]) / counts[:, None]
    scalars = {
        name: np.bincount(cell_of, weights=vals, minlength=ncell) / counts
        for name, vals in cloud.scalars.items()
    }
    return PointCloud(points=centroids, scalars=scalars,
                      epoch_id=cloud.epoch_id, origin_shift=cloud.origin_shift)
