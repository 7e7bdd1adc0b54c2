"""Correctness checks on benchmark outputs, independent of the program.

Every check compares an output with the generator's truth or with a
property the method must have, and returns a list of problems (empty when
the output passes). Nothing here compares against a stored copy of an
earlier output. The registration pose error is computed here from plain
matrices, not with ``slopewatch.evaluate_registration``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

MEAN_TOL = 0.10      # region mean displacement, relative to the truth
VOLUME_TOL = 0.15    # region volume, relative to the truth
MIN_GROUND_ACCURACY = 0.95


def truth_at_vertices(vertices: np.ndarray, ground_points: np.ndarray,
                      source_index: np.ndarray,
                      truth_displacement: np.ndarray) -> np.ndarray:
    """Signed generator displacement at each mesh vertex.

    Each vertex takes the truth of the nearest ground point, through that
    point's ``source_index`` back into the generated scene.
    """
    _, nearest = cKDTree(ground_points).query(vertices)
    return truth_displacement[source_index[nearest].astype(np.int64)]


def projected_areas(vertices: np.ndarray, triangles: np.ndarray,
                    normal: np.ndarray) -> np.ndarray:
    """Triangle areas projected onto the plane with unit ``normal``."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return 0.5 * np.abs(np.cross(b - a, c - a) @ np.asarray(normal))


def check_region(label: str, vertex_set: np.ndarray, volume_m3: float,
                 field_values: np.ndarray, truth: np.ndarray,
                 triangles: np.ndarray, areas: np.ndarray) -> list[str]:
    """Region mean displacement and volume against the truth.

    ``truth`` holds the signed truth per mesh vertex and ``areas`` the
    projected area per triangle. The signed means must agree within
    MEAN_TOL, which also rejects a field of the wrong sign; the volume is
    the truth integrated over the region's own triangles, as
    ``region_volume`` integrates the field, within VOLUME_TOL.
    """
    problems = []
    truth_mean = float(truth[vertex_set].mean())
    got_mean = float(field_values[vertex_set].mean())
    if truth_mean == 0.0:
        return [f"{label}: region lies where the truth has no displacement"]
    mean_err = abs(got_mean - truth_mean) / abs(truth_mean)
    if not mean_err <= MEAN_TOL:
        problems.append(f"{label}: mean displacement {got_mean:.4f} m vs "
                        f"truth {truth_mean:.4f} m ({mean_err:.1%})")
    member = np.zeros(len(truth), dtype=bool)
    member[vertex_set] = True
    inside = member[triangles].all(axis=1)
    truth_volume = float((areas[inside]
                          * np.abs(truth[triangles[inside]]).mean(axis=1)).sum())
    if truth_volume <= 0.0:
        return problems + [f"{label}: region covers no triangle"]
    vol_err = abs(volume_m3 - truth_volume) / truth_volume
    if not vol_err <= VOLUME_TOL:
        problems.append(f"{label}: volume {volume_m3:.3f} m3 vs truth "
                        f"{truth_volume:.3f} m3 ({vol_err:.1%})")
    return problems


def check_ground_accuracy(label: str, labels: np.ndarray,
                          truth_labels: np.ndarray) -> list[str]:
    accuracy = float((np.asarray(labels) == np.asarray(truth_labels)).mean())
    if not accuracy >= MIN_GROUND_ACCURACY:
        return [f"{label}: ground-filter accuracy {accuracy:.4f} "
                f"< {MIN_GROUND_ACCURACY}"]
    return []


def check_stable(label: str, values: np.ndarray, stable: np.ndarray,
                 limit_m: float) -> list[str]:
    """The 95th percentile of |change| over stable vertices must stay
    under ``limit_m``."""
    vals = np.abs(values[stable])
    vals = vals[np.isfinite(vals)]
    if len(vals) < 100:
        return [f"{label}: only {len(vals)} valid stable vertices"]
    p95 = float(np.percentile(vals, 95))
    if not p95 < limit_m:
        return [f"{label}: stable ground changes {p95 * 1000:.1f} mm "
                f"(95th percentile) >= {limit_m * 1000:.1f} mm"]
    return []


def cube_corners(diameter_m: float) -> np.ndarray:
    half = diameter_m / 2.0
    return np.array([[x, y, z] for x in (-half, half) for y in (-half, half)
                     for z in (-half, half)])


def pose_error(rotation: np.ndarray, translation: np.ndarray,
               truth_rotation: np.ndarray, truth_translation: np.ndarray,
               diameter_m: float) -> float:
    """RMS displacement between two poses over the evaluation cube's
    corners (side ``diameter_m``, centred at the origin)."""
    corners = cube_corners(diameter_m)
    got = corners @ np.asarray(rotation).T + np.asarray(translation)
    want = corners @ np.asarray(truth_rotation).T + np.asarray(truth_translation)
    return float(np.sqrt(np.mean(np.sum((got - want) ** 2, axis=1))))


def shape_class(width_m: float, length_m: float) -> str:
    """The paper's shape class of the angle arctan(L/W), 22.5-degree bins."""
    theta = math.degrees(math.atan2(length_m, width_m))
    for bound, cls in ((67.5, "VL"), (45.0, "L"), (22.5, "W")):
        if theta >= bound:
            return cls
    return "VW"


def outside_ellipse(points: np.ndarray, center: np.ndarray, axis_a: np.ndarray,
                    axis_b: np.ndarray, radius_a: float,
                    radius_b: float) -> np.ndarray:
    """Points whose in-plane offset from ``center`` lies outside the
    ellipse with the given unit axes and radii."""
    w = points - center
    return np.hypot((w @ axis_a) / radius_a, (w @ axis_b) / radius_b) > 1.0
