"""Rigid-body transforms: proper rotation plus translation.

Transforms act on a cloud's coordinates as stored (see
``cloud.PointCloud``), so a transform found on clouds read from files maps
the files' coordinates; composition and inversion stay within the
orthonormality tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import plane_basis

ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Maps source-frame points into a reference frame: ``p -> R p + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        err = np.linalg.norm(r.T @ r - np.eye(3))
        if err >= ORTHONORMALITY_TOL:
            raise ValueError(f"rotation not orthonormal (|R'R - I| = {err:.2e})")
        if np.linalg.det(r) <= 0:
            raise ValueError("rotation must be proper (det +1)")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    def apply_cloud(self, cloud):
        """Transformed copy of a cloud (normals rotated, channels kept)."""
        normals = None if cloud.normals is None else cloud.normals @ self.rotation.T
        return cloud.with_(points=self.apply(cloud.points), normals=normals)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """``self`` after ``other``: ``(self ∘ other)(p) = self(other(p))``."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def rotation_about_axis(axis, angle_rad: float) -> "RigidTransform":
        """Rodrigues rotation about a (not necessarily unit) axis."""
        a = np.asarray(axis, dtype=np.float64)
        norm = np.linalg.norm(a)
        if norm == 0:
            raise ValueError("rotation axis must be nonzero")
        a = a / norm
        k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        r = np.eye(3) + np.sin(angle_rad) * k + (1 - np.cos(angle_rad)) * (k @ k)
        return RigidTransform(_renormalize(r), np.zeros(3))

    @staticmethod
    def rotation_between(a, b) -> "RigidTransform":
        """Minimal rotation taking unit direction ``a`` onto unit ``b``.

        Antipodal inputs rotate 180 degrees about a deterministic
        perpendicular axis.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        a = a / np.linalg.norm(a)
        b = b / np.linalg.norm(b)
        c = float(a @ b)
        axis = np.cross(a, b)
        s = np.linalg.norm(axis)
        if s < 1e-15:
            if c > 0:
                return RigidTransform.identity()
            # antipodal: any perpendicular axis works; pick deterministically
            _, axis = plane_basis(a)
            return RigidTransform.rotation_about_axis(axis, np.pi)
        angle = np.arctan2(s, c)
        return RigidTransform.rotation_about_axis(axis / s, angle)


def _renormalize(r: np.ndarray) -> np.ndarray:
    """Project a near-rotation onto SO(3) via SVD (keeps tolerance margins)."""
    u, _, vt = np.linalg.svd(r)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt
