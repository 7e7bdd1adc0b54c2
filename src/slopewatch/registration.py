"""Pairwise, multi-view, and multi-epoch rigid registration.

Three alignment paths share one fine-alignment step:

* point-to-plane ICP for fine alignment, on the target's normals, with a
  robust residual gate so surface that changed between epochs does not
  drag the pose,
* descriptor matching with a geometric-consistency filter and a
  closed-form rigid fit for coarse alignment of overlapping station scans,
* a coarse-to-fine global matcher for epoch pairs that blends feature and
  Euclidean distances in a minimum-cost bipartite matching loop, then
  refines with one ICP from the assignment pose. The blend weight starts
  feature-dominated and decays to pure Euclidean, which tolerates large
  pose offsets and local surface change between epochs.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .cloud import (PointCloud, concat_clouds, diameter, estimate_normals,
                    fit_plane, surface_spacing, _by_rows, _kdtree, _kept,
                    _orient_deterministic, _unique_rows)
from .errors import (DegenerateCorrespondences, DegenerateSurface,
                     DisconnectedViews, InsufficientGeometry, NoOverlap)
from .rigid import RigidTransform

logger = logging.getLogger(__name__)

DESCRIPTOR_BINS = (8, 4, 4)  # azimuth x radial x elevation occupancy grid
DESCRIPTOR_BITS = int(np.prod(DESCRIPTOR_BINS))
ICP_RMSE_FLOOR_M = 1e-10   # an ICP residual this small is exact data: stop
ICP_RESIDUAL_GATE = 3.0    # robust sigmas; pairs beyond are off the common surface
# an RMSE change, up or down, within this share of the previous RMSE is
# ICP convergence
ICP_CONVERGENCE_EPS = 1e-2
MAD_TO_SIGMA = 1.4826      # median absolute deviation -> Gaussian sigma
DESCRIPTOR_MIN_NEIGHBORS = 10  # points within the radius a descriptor needs
NORMALS_K = 16             # neighbors per normal estimate
KEYPOINT_COUNT = 500       # keypoints per cloud for coarse matching
# coarse front-end scales, in multiples of the pair's surface spacing
DESCRIPTOR_RADIUS_SPACINGS = 10.0
CONSISTENCY_TOL_SPACINGS = 3.0    # pairwise-distance agreement of matches
KEYPOINT_GAP_SPACINGS = 2.0       # minimum keypoint separation (per cloud)
# genuine overlap keeps most matches pairwise-distance-consistent;
# featureless or disjoint geometry keeps only a few percent
MIN_CONSISTENCY_RATIO = 0.2
MIN_LINK_MATCHES = 8       # consistent pairs needed for a multi-view graph edge
# hybrid matching rounds: feature weight decays linearly to pure Euclidean
HYBRID_ALPHAS = np.linspace(0.8, 0.0, 5)


# ---------------------------------------------------------------------------
# Parameter and result records
# ---------------------------------------------------------------------------


@dataclass
class IcpParams:
    max_iter: int = 150
    max_pair_dist: float | None = None  # default: 0.25 * target diameter


@dataclass
class FeatureSet:
    """Binary descriptors over a keypoint subset of one cloud."""

    keypoint_indices: np.ndarray        # (m,) indices into the owning cloud
    descriptors: np.ndarray             # (m, bits) uint8 in {0, 1}

    def __post_init__(self):
        if len(self.keypoint_indices) != len(self.descriptors):
            raise ValueError("one descriptor per keypoint required")


@dataclass
class RegistrationResult:
    """Outcome of an ICP run. ``rmse`` is the point-to-plane residual (the
    paired distance along the target normal) over the pairs the last step
    kept, in meters; ``inlier_count`` counts the pairs within the distance
    gate."""

    transform: RigidTransform
    rmse: float
    iterations: int
    converged: bool
    inlier_count: int
    rmse_sequence: list = field(default_factory=list, repr=False)


@dataclass
class EvaluationResult:
    success: bool
    pose_rmse: float


# ---------------------------------------------------------------------------
# Closed-form rigid fit
# ---------------------------------------------------------------------------


def fit_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform minimizing sum ||R s + t - d||^2.

    Standard SVD solution with the reflection corrected so the rotation is
    proper. Needs at least three pairs that are not all collinear.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ValueError("source and target pair counts differ")
    if len(src) < 3:
        raise DegenerateCorrespondences(f"{len(src)} pairs; need at least 3")
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= max(s[0], 1e-300) * 1e-9:
        raise DegenerateCorrespondences("pairs are collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, dc - r @ sc)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------


def icp(
    source: PointCloud,
    target: PointCloud,
    params: IcpParams | None = None,
    init: RigidTransform | None = None,
) -> RegistrationResult:
    """Point-to-plane ICP from ``source`` into ``target``'s frame.

    Each iteration pairs every source point with its nearest target point,
    rejects pairs beyond ``max_pair_dist`` and pairs whose target normal is
    NaN, and counts the rest as inliers. Of those it keeps the pairs whose
    residual along the target normal is within ``ICP_RESIDUAL_GATE`` robust
    standard deviations (from the median absolute residual), so changed
    surface between epochs does not drag the pose, and takes the
    linearised point-to-plane least-squares step on them (Chen & Medioni
    1992). A target without normals gets them first. The RMSE is the
    residual along the target normals of the kept pairs after the step.

    Stops as converged when the RMSE changes by at most
    ``ICP_CONVERGENCE_EPS`` of the previous RMSE, up or down, or reaches
    ``ICP_RMSE_FLOOR_M``. A larger rise stops as not converged. Either
    kind of rise keeps the previous transform, so the RMSE sequence never
    increases. Also stops, not converged, when fewer than six pairs or a
    singular system remain, or at ``max_iter``.

    Raises
    ------
    NoOverlap
        If no pair survives the distance gate on the first iteration.
    """
    if len(source) == 0 or len(target) == 0:
        raise ValueError("both clouds must be non-empty")
    params = params or IcpParams()
    if target.normals is None:
        target = _ensure_normals(target)
    max_pair = params.max_pair_dist
    if max_pair is None:
        max_pair = 0.25 * diameter(target)
    src = source.points
    tgt = target.points
    normals = target.normals
    has_normal = np.all(np.isfinite(normals), axis=1)
    tree = _kdtree(target)

    t = init or RigidTransform.identity()
    prev_rmse = np.inf
    iterations = 0
    converged = False
    inliers = 0
    history: list[float] = []

    for it in range(1, params.max_iter + 1):
        moved = t.apply(src)
        dist, idx = _by_rows(tree.query, moved)
        mask = dist <= max_pair
        if it == 1 and not mask.any():
            raise NoOverlap(
                f"no source point within {max_pair:.3f} m of the target"
            )
        mask &= has_normal[idx]
        count = int(mask.sum())
        if count < 6:
            break
        p, q, n = moved[mask], tgt[idx[mask]], normals[idx[mask]]
        off = np.abs(np.einsum("ij,ij->i", p - q, n))
        keep = off <= ICP_RESIDUAL_GATE * MAD_TO_SIGMA * np.median(off)
        if keep.sum() < 6:
            break
        p, q, n = p[keep], q[keep], n[keep]
        try:
            step = _point_to_plane_step(p, q, n)
        except DegenerateCorrespondences:
            break
        resid = np.einsum("ij,ij->i", step.apply(p) - q, n)
        rmse = float(np.sqrt(np.mean(resid * resid)))
        iterations = it
        settled = rmse <= ICP_RMSE_FLOOR_M or (
            np.isfinite(prev_rmse)
            and abs(rmse - prev_rmse) <= ICP_CONVERGENCE_EPS * prev_rmse)
        if rmse > prev_rmse:
            converged = settled   # keep the previous, better transform
            break
        t = step.compose(t)
        inliers = count
        history.append(rmse)
        prev_rmse = rmse
        if settled:
            converged = True
            break

    rmse_out = prev_rmse if np.isfinite(prev_rmse) else 0.0
    return RegistrationResult(transform=t, rmse=rmse_out,
                              iterations=max(iterations, 1), converged=converged,
                              inlier_count=inliers, rmse_sequence=history)


def _point_to_plane_step(p: np.ndarray, q: np.ndarray,
                         n: np.ndarray) -> RigidTransform:
    """Rigid step minimising the linearised sum of ``((R p + t - q) . n)^2``.

    Solves the 6x6 normal equations for a rotation vector and a translation,
    rotating about the centroid of ``p`` for conditioning, and builds the
    rotation exactly from the rotation vector. Raises
    ``DegenerateCorrespondences`` when the system is singular (the normals
    leave a motion unconstrained, as on a plane).
    """
    c = p.mean(axis=0)
    a = np.hstack([np.cross(p - c, n), n])
    b = np.einsum("ij,ij->i", q - p, n)
    h = a.T @ a
    w = np.linalg.eigvalsh(h)
    if w[0] <= w[-1] * 1e-12:
        raise DegenerateCorrespondences("point-to-plane system is singular")
    x = np.linalg.solve(h, a.T @ b)
    angle = float(np.linalg.norm(x[:3]))
    r = (RigidTransform.rotation_about_axis(x[:3], angle).rotation
         if angle > 0 else np.eye(3))
    return RigidTransform(r, c + x[3:] - r @ c)


# ---------------------------------------------------------------------------
# Binary shape descriptors
# ---------------------------------------------------------------------------


def select_keypoints(cloud: PointCloud, count: int,
                     min_spacing: float) -> np.ndarray:
    """Curvature-ranked keypoints with a minimum spacing between picks.

    Requires the ``curvature`` channel written by ``estimate_normals``.
    Deterministic: stable sort on (-curvature, index), then the first point
    of each ``min_spacing`` hash cell in that order, which is what a greedy
    pass suppressing occupied cells would pick; a ``min_spacing`` of 0 or
    less takes the first ``count`` in that order.
    """
    if "curvature" not in cloud.scalars:
        raise ValueError("cloud lacks a 'curvature' channel; run estimate_normals")
    curv = cloud.scalars["curvature"]
    order = np.lexsort((np.arange(len(curv)), -curv))
    if min_spacing <= 0:
        return order[:count]
    cells = np.floor(cloud.points[order] * (1.0 / min_spacing)).astype(np.int64)
    _, first, _ = _unique_rows(cells)
    return order[np.sort(first)[:count]]


def extract_descriptors(cloud: PointCloud, keypoints,
                        radius: float) -> FeatureSet:
    """Binary occupancy descriptors on a local reference frame per keypoint.

    The frame takes the stored normal as its z axis; the x axis is the
    dominant covariance direction projected into the tangent plane, sign
    fixed by the majority of neighbor projections. The neighborhood is
    binned on an azimuth x radial x elevation cylindrical grid and
    thresholded at the per-descriptor median occupancy. Descriptor distance
    is Hamming distance, so the representation is rotation invariant up to
    the frame-sign rule.

    Keypoints with fewer than ``DESCRIPTOR_MIN_NEIGHBORS`` points inside
    ``radius``, or without a finite normal or a local frame, are dropped;
    the ``FeatureSet`` lists the kept ones in their input order.

    The ball query runs on the calling thread; gathering and binning the
    neighborhoods run per block of ``cloud.ROW_BLOCK`` keypoints on the
    package's one pool (``cloud._by_rows``). Each keypoint is binned on its
    own, so the result is the same for any block size or core count.
    """
    if cloud.normals is None:
        raise ValueError("descriptors need normals; run estimate_normals first")
    if radius <= 0:
        raise ValueError("descriptor radius must be positive")
    keypoints = np.asarray(keypoints, dtype=np.int64)
    lists = _kdtree(cloud).query_ball_point(cloud.points[keypoints], r=radius)
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    usable = np.flatnonzero(
        (sizes >= DESCRIPTOR_MIN_NEIGHBORS)
        & np.all(np.isfinite(cloud.normals[keypoints]), axis=1))

    def kernel(block):
        neighbors = np.fromiter(
            itertools.chain.from_iterable(lists[i] for i in block),
            dtype=np.int64, count=int(sizes[block].sum()))
        return _bin_neighborhoods(cloud, keypoints[block], neighbors,
                                  sizes[block], radius)

    framed, desc = _by_rows(kernel, usable)
    return FeatureSet(keypoint_indices=keypoints[usable[framed]],
                      descriptors=desc[framed])


def _bin_neighborhoods(cloud: PointCloud, keypoints: np.ndarray,
                       neighbors: np.ndarray, sizes: np.ndarray,
                       radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors of keypoints whose neighbor lists lie back to back in
    ``neighbors`` (``sizes[i]`` entries each, all at least one). Returns a
    mask of keypoints with a local frame and one uint8 descriptor row each;
    rows without a frame are meaningless."""
    n_az, n_rad, n_el = DESCRIPTOR_BINS
    m = len(keypoints)
    owner = np.repeat(np.arange(m), sizes)
    starts = np.cumsum(sizes) - sizes
    local = cloud.points[neighbors] - cloud.points[keypoints][owner]
    cov = np.add.reduceat(local[:, :, None] * local[:, None, :], starts)
    _, vecs = np.linalg.eigh(cov / sizes[:, None, None])
    z = cloud.normals[keypoints]
    # x axis: eigenvector columns 2, 1, 0 projected into the tangent plane,
    # the first one that does not vanish
    cand = np.swapaxes(vecs[:, :, ::-1], 1, 2)
    cand = cand - np.einsum("mcj,mj->mc", cand, z)[:, :, None] * z[:, None, :]
    length = np.linalg.norm(cand, axis=2)
    pick = np.argmax(length > 1e-9, axis=1)
    rows = np.arange(m)
    length = length[rows, pick]
    framed = length > 1e-9
    x = np.zeros((m, 3))
    x[framed] = cand[rows, pick][framed] / length[framed, None]
    lx = np.einsum("ij,ij->i", local, x[owner])
    flip = np.add.reduceat(lx, starts) < 0
    x[flip] *= -1.0
    lx[flip[owner]] *= -1.0
    ly = np.einsum("ij,ij->i", local, np.cross(z, x)[owner])
    lz = np.einsum("ij,ij->i", local, z[owner])

    # + 0.0 turns -0.0 into +0.0: a point on the frame's axis (the keypoint
    # itself) keeps one azimuth bin whatever the signs of the frame axes
    az = np.arctan2(ly + 0.0, lx + 0.0)           # [-pi, pi]
    rad = np.hypot(lx, ly)
    i_az = np.clip(((az + np.pi) / (2 * np.pi) * n_az).astype(int), 0, n_az - 1)
    i_rad = np.clip((rad / radius * n_rad).astype(int), 0, n_rad - 1)
    i_el = np.clip(((lz + radius) / (2 * radius) * n_el).astype(int), 0, n_el - 1)
    flat = (i_az * n_rad + i_rad) * n_el + i_el
    counts = np.bincount(owner * DESCRIPTOR_BITS + flat,
                         minlength=m * DESCRIPTOR_BITS).reshape(m, DESCRIPTOR_BITS)
    return framed, (counts > np.median(counts, axis=1, keepdims=True)).astype(np.uint8)


def hamming_matrix(a: FeatureSet, b: FeatureSet) -> np.ndarray:
    """Pairwise Hamming distances, shape (len(a), len(b)): the bits packed
    into 64-bit words, counted one word column at a time."""
    if a.descriptors.shape[1] != b.descriptors.shape[1]:
        raise ValueError("descriptor lengths differ")
    pa, pb = (np.packbits(f.descriptors, axis=1) for f in (a, b))
    pa, pb = (np.pad(p, ((0, 0), (0, -p.shape[1] % 8))).view(np.uint64)
              for p in (pa, pb))
    d = np.zeros((len(pa), len(pb)), dtype=np.int64)
    for k in range(pa.shape[1]):
        d += np.bitwise_count(pa[:, k, None] ^ pb[None, :, k])
    return d


def match_descriptors(a: FeatureSet, b: FeatureSet) -> np.ndarray:
    """Mutual-nearest descriptor matches (ties go to the lowest index), as
    a (k, 2) int64 array of (row in ``a``, row in ``b``).

    A match survives only when its best distance beats the second best by
    at least one bit; featureless geometry (all descriptors alike)
    therefore produces no matches instead of arbitrary ones.
    """
    if len(a.keypoint_indices) == 0 or len(b.keypoint_indices) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    d = hamming_matrix(a, b)
    best_b = np.argmin(d, axis=1)
    best_a = np.argmin(d, axis=0)
    rows = np.arange(len(best_b))
    mutual = best_a[best_b] == rows
    if d.shape[1] > 1:
        part = np.partition(d, 1, axis=1)
        mutual &= part[:, 1] > part[:, 0]
    return np.column_stack([rows[mutual], best_b[mutual]]).astype(np.int64)


def consistent_match_subset(src_pts: np.ndarray, tgt_pts: np.ndarray,
                            pairs: np.ndarray, tolerance: float) -> np.ndarray:
    """Greedy largest subset of matches preserving pairwise distances.

    A retained set is mutually consistent: for every two kept matches the
    source-side and target-side separations agree within ``tolerance``.
    Seeded from the match with the most consistent partners, then sweeps
    the rest in that order; deterministic.
    """
    ps = src_pts[pairs[:, 0]]
    pt = tgt_pts[pairs[:, 1]]
    ds = np.linalg.norm(ps[:, None, :] - ps[None, :, :], axis=2)
    dt = np.linalg.norm(pt[:, None, :] - pt[None, :, :], axis=2)
    compat = np.abs(ds - dt) <= tolerance
    np.fill_diagonal(compat, True)
    order = np.lexsort((np.arange(len(pairs)), -compat.sum(axis=1)))
    kept = np.zeros(len(pairs), dtype=bool)
    fits = np.ones(len(pairs), dtype=bool)   # consistent with every kept match
    for cand in order:
        if fits[cand]:
            kept[cand] = True
            fits &= compat[cand]
    return np.flatnonzero(kept)


def _ensure_normals(cloud: PointCloud) -> PointCloud:
    """The cloud with normals and a ``curvature`` channel: itself when it
    has both, else an estimate with an up-facing default viewpoint.

    The estimate is kept with the cloud (``cloud._kept``), like its
    kd-tree, so every registration of one cloud estimates its normals once.
    """
    if cloud.normals is not None and "curvature" in cloud.scalars:
        return cloud

    def estimate():
        k = min(NORMALS_K, len(cloud))
        normal, _ = fit_plane(cloud.points)
        vp = cloud.points.mean(axis=0) + _orient_deterministic(normal) * (
            2.0 * max(diameter(cloud), 1.0))
        logger.debug("estimating normals (k=%d) with default viewpoint", k)
        return estimate_normals(cloud, k=k, viewpoint=vp)

    return _kept(cloud, ("with_normals", NORMALS_K), estimate)


def _spacing(cloud: PointCloud) -> float:
    """``surface_spacing(cloud)``, kept with the cloud."""
    return _kept(cloud, "surface_spacing", lambda: surface_spacing(cloud))


def _features(cloud: PointCloud, radius: float) -> FeatureSet:
    """Descriptors at ``radius`` on the cloud's ``KEYPOINT_COUNT`` keypoints,
    picked ``KEYPOINT_GAP_SPACINGS`` surface spacings apart. The keypoints
    and each radius's ``FeatureSet`` are kept with the cloud, keyed by every
    setting they depend on."""
    gap = KEYPOINT_GAP_SPACINGS * _spacing(cloud)
    keypoints = _kept(cloud, ("keypoints", KEYPOINT_COUNT, gap),
                      lambda: select_keypoints(cloud, KEYPOINT_COUNT, gap))
    return _kept(cloud, ("descriptors", KEYPOINT_COUNT, gap, radius),
                 lambda: extract_descriptors(cloud, keypoints, radius))


def _prepare_pair(source: PointCloud, target: PointCloud):
    """Shared-radius descriptor extraction for a cloud pair: (source and
    target with normals, their feature sets, the pair's spacing).

    Both sides must bin their neighborhoods at the same support radius or
    the descriptors are not comparable (merged clouds sample denser than
    single scans). Normals, spacing, keypoints and descriptors are kept
    with each cloud, so every method run on one pair (coarse+icp, the
    hybrid) and every multi-view round that rescores an unchanged group
    reuses them; the results are those of computing them afresh.
    ``DegenerateSurface`` when neither cloud has a surface spacing (most
    of their points coincide), which leaves no descriptor radius.
    """
    source = _ensure_normals(source)
    target = _ensure_normals(target)
    spacing = max(_spacing(source), _spacing(target))
    if spacing <= 0:
        raise DegenerateSurface("the clouds have no surface spacing")
    radius = DESCRIPTOR_RADIUS_SPACINGS * spacing
    return (source, target, _features(source, radius),
            _features(target, radius), spacing)


def _consistent_matches(source: PointCloud, target: PointCloud,
                        fs: FeatureSet, ft: FeatureSet, spacing: float):
    """Mutual descriptor matches of a prepared pair and the indices of its
    geometrically consistent subset."""
    matches = match_descriptors(fs, ft)
    keep = consistent_match_subset(source.points[fs.keypoint_indices],
                                   target.points[ft.keypoint_indices],
                                   matches, CONSISTENCY_TOL_SPACINGS * spacing)
    return matches, keep


def coarse_register(source: PointCloud, target: PointCloud) -> RigidTransform:
    """Descriptor matching + geometric consistency + closed-form fit.

    Raises ``InsufficientGeometry`` when fewer than three matches survive
    the consistency filter (featureless or non-overlapping geometry).
    """
    source, target, fs, ft, spacing = _prepare_pair(source, target)
    matches, keep = _consistent_matches(source, target, fs, ft, spacing)
    if len(matches) < 3:
        raise InsufficientGeometry(f"only {len(matches)} mutual descriptor matches")
    required = max(3, int(np.ceil(MIN_CONSISTENCY_RATIO * len(matches))))
    if len(keep) < required:
        raise InsufficientGeometry(
            f"only {len(keep)} of {len(matches)} matches are "
            f"geometrically consistent (need {required})"
        )
    pairs = matches[keep]
    try:
        return fit_rigid(source.points[fs.keypoint_indices[pairs[:, 0]]],
                         target.points[ft.keypoint_indices[pairs[:, 1]]])
    except DegenerateCorrespondences as exc:
        raise InsufficientGeometry(str(exc)) from exc


def _strongest_link(groups: list) -> tuple | None:
    """(link strength, ia, ib, coarse pose of group ib into group ia) of
    the strongest linked pair of ``groups``, or None when no pair links.

    A pair's strength is its count of geometrically consistent descriptor
    matches, ia to ib; ties go to the pair first in order. A pair links
    when its strength reaches ``MIN_LINK_MATCHES`` and ``coarse_register``
    accepts it in the direction the merge registers, ib onto ia.
    """
    links = []   # (-strength, ia, ib): strongest first, then pair order
    for ia, ib in itertools.combinations(range(len(groups)), 2):
        try:
            pair = _prepare_pair(groups[ia][0], groups[ib][0])
        except DegenerateSurface:
            continue   # a pair that cannot be prepared has no link
        strength = len(_consistent_matches(*pair)[1])
        if strength >= MIN_LINK_MATCHES:
            links.append((-strength, ia, ib))
    for neg_strength, ia, ib in sorted(links):
        try:
            init = coarse_register(groups[ib][0], groups[ia][0])
        except InsufficientGeometry:
            continue   # the merge could not fit ib onto ia
        return -neg_strength, ia, ib, init
    return None


def register_multiview(clouds: list[PointCloud]) -> list[RigidTransform]:
    """Hierarchical multi-view registration into the first cloud's frame.

    Scores every pair of current groups by descriptor-set overlap (matches
    surviving geometric consistency), registers and merges the strongest
    linked pair (``coarse_register`` + ICP; the features scored are kept
    with the clouds, so the fit reuses them), and repeats until one cloud
    remains. A pair links when its strength reaches ``MIN_LINK_MATCHES``
    and ``coarse_register`` accepts it in the direction the merge
    registers. Returns one transform per input cloud; the first cloud maps
    to identity.

    Raises ``DisconnectedViews`` naming the components when no remaining
    pair links.
    """
    if len(clouds) == 0:
        raise ValueError("need at least one cloud")
    if len(clouds) == 1:
        return [RigidTransform.identity()]

    # (merged cloud, {member index: pose into that cloud's frame})
    groups = [(c, {i: RigidTransform.identity()}) for i, c in enumerate(clouds)]
    while len(groups) > 1:
        link = _strongest_link(groups)
        if link is None:
            raise DisconnectedViews([sorted(g[1]) for g in groups])
        strength, ia, ib, init = link
        (a, poses_a), (b, poses_b) = groups[ia], groups[ib]
        logger.info("merging views %s <- %s (link strength %d)",
                    list(poses_a), list(poses_b), strength)
        t = icp(b, a, init=init).transform
        poses = dict(poses_a)
        poses.update((m, t.compose(tm)) for m, tm in poses_b.items())
        groups = [g for k, g in enumerate(groups) if k not in (ia, ib)]
        groups.append((concat_clouds([a, t.apply_cloud(b)]), poses))

    final = groups[0][1]
    rebase = final[0].inverse()
    return [rebase.compose(final[i]) for i in range(len(clouds))]


# ---------------------------------------------------------------------------
# Global hybrid (multi-epoch) registration
# ---------------------------------------------------------------------------


def _pair_diameter(a: np.ndarray, b: np.ndarray) -> float:
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    hi = np.maximum(a.max(axis=0), b.max(axis=0))
    return float(np.linalg.norm(hi - lo))


def register_global_hybrid(source: PointCloud, target: PointCloud,
                           icp_params: IcpParams | None = None) -> RegistrationResult:
    """Global epoch-to-epoch registration with a hybrid matching cost.

    Each outer step matches source and target keypoints by minimum-cost
    bipartite assignment under ``sqrt(alpha * d_feat^2 + (1-alpha) * d_euc^2)``
    with the feature distance normalized by descriptor bit length and the
    Euclidean distance by the current cloud-pair diameter, then refits the
    transform. ``alpha`` steps through ``HYBRID_ALPHAS`` down to zero, after
    which one ICP with ``icp_params`` refines the pose from the assignment
    fit. Its robust residual gate keeps deforming surface out of the fit,
    and a ``NoOverlap`` from the assignment pose propagates. Normals,
    keypoints and descriptors come from ``_prepare_pair``, so clouds
    already coarse-registered to each other reuse the ones kept with them.
    """
    icp_params = icp_params or IcpParams()
    source, target, fs, ft, _ = _prepare_pair(source, target)
    if len(fs.keypoint_indices) < 3 or len(ft.keypoint_indices) < 3:
        raise InsufficientGeometry("too few keypoints with descriptors")

    pa = source.points[fs.keypoint_indices]
    pb = target.points[ft.keypoint_indices]
    d_feat = hamming_matrix(fs, ft) / float(DESCRIPTOR_BITS)

    t = RigidTransform.identity()
    for alpha in HYBRID_ALPHAS:
        moved = t.apply(pa)
        scale = _pair_diameter(moved, pb)
        d_euc = cdist(moved, pb) / max(scale, 1e-12)
        cost = np.sqrt(alpha * d_feat**2 + (1.0 - alpha) * d_euc**2)
        rows, cols = linear_sum_assignment(cost)
        try:
            t = fit_rigid(pa[rows], pb[cols])
        except DegenerateCorrespondences:
            continue

    return icp(source, target, icp_params, init=t)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_registration(result: RegistrationResult, truth: RigidTransform,
                          diameter_m: float,
                          success_threshold: float) -> EvaluationResult:
    """Pose RMSE between the transform a result recovered and the true one.

    Displacement is measured over a fixed evaluation set, the eight corners
    of the cube of side ``diameter_m`` centered at the origin. Success is
    inclusive at the threshold.
    """
    if diameter_m <= 0:
        raise ValueError("diameter must be positive")
    half = diameter_m / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-half, half)
                        for sy in (-half, half) for sz in (-half, half)])
    disp = result.transform.apply(corners) - truth.apply(corners)
    pose_rmse = float(np.sqrt(np.mean(np.einsum("ij,ij->i", disp, disp))))
    return EvaluationResult(success=pose_rmse <= success_threshold,
                            pose_rmse=pose_rmse)
