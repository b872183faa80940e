"""Rigid transforms and the elementary rotation/translation builders.

All rotations are plain 3x3 matrices constructed exclusively through
``rot_x``/``rot_y``/``rot_z`` and products thereof, so orthonormality is
testable rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

ORTHONORMALITY_TOL = 1e-9


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RigidTransform:
    """A rotation (3x3, det +1) plus a translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray
    _skip_checks: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        if self._skip_checks:
            return
        if rotation.shape != (3, 3):
            raise InvalidParameterError(f"rotation must be 3x3, got {rotation.shape}")
        _check_finite("rotation", rotation)
        _check_finite("translation", translation)
        err = rotation.T @ rotation - np.eye(3)
        if np.max(np.abs(err)) > ORTHONORMALITY_TOL:
            raise InvalidParameterError("rotation is not orthonormal")
        if abs(np.linalg.det(rotation) - 1.0) > ORTHONORMALITY_TOL:
            raise InvalidParameterError("rotation determinant is not +1")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3), _skip_checks=True)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "RigidTransform":
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix[:3, :3], matrix[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous form."""
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self applied after other in the usual left-to-right product."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
            _skip_checks=True,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        rot_t = self.rotation.T
        return RigidTransform(rot_t, -rot_t @ self.translation, _skip_checks=True)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point or an (..., 3) array of points."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


def rot_x(angle: float) -> np.ndarray:
    _check_finite("angle", angle)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    _check_finite("angle", angle)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    _check_finite("angle", angle)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_angle(rotation: np.ndarray):
    """Geodesic angle of a rotation matrix, or of each in a stack, in radians."""
    cos_a = (np.trace(rotation, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arccos(np.clip(cos_a, -1.0, 1.0))
