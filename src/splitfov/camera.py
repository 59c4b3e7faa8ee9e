"""Camera pose, stereo rig, and the scripted orbit camera path.

Poses are stored in float32 so that a pose survives the wire format
(3x f32 position, 4x f32 quaternion) bit-exactly: the pixels the server
shades from a received pose match the pixels the client would shade from
its own copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unit-quaternion tolerance: a float64-normalized quaternion rounded to
# float32 stays well inside this, so re-normalization is never triggered
# for well-formed poses and their bits are preserved.
QUAT_NORM_TOL = 1e-6
_F32_MAX = float(np.finfo(np.float32).max)


def _float32s(values, n: int, name: str) -> np.ndarray:
    """`values` as n float32s; a NaN, or a value float32 cannot hold, raises ValueError."""
    v = np.asarray(values, dtype=np.float64).reshape(n)
    if not (np.abs(v) <= _F32_MAX).all():
        raise ValueError(f"{name} must be finite in float32, got {v}")
    return v.astype(np.float32)


@dataclass(frozen=True)
class Pose:
    """Camera position (meters) and orientation (unit quaternion x, y, z, w)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _float32s(self.position, 3, "position"))
        object.__setattr__(self, "orientation", _float32s(self.orientation, 4, "orientation"))
        n = float(np.linalg.norm(self.orientation.astype(np.float64)))
        if not (math.isfinite(n) and abs(n - 1.0) <= QUAT_NORM_TOL):
            raise ValueError(f"quaternion norm {n!r} deviates from 1 by more than {QUAT_NORM_TOL}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return (
            self.position.tobytes() == other.position.tobytes()
            and self.orientation.tobytes() == other.orientation.tobytes()
        )

    def __hash__(self):
        return hash((self.position.tobytes(), self.orientation.tobytes()))


def normalize_quat(q) -> np.ndarray:
    """Returns `q` scaled to unit length (float64 math, float32 result).

    Leaves already-unit float32 quaternions bit-identical: within
    QUAT_NORM_TOL the input is returned unchanged.
    """
    q32 = _float32s(q, 4, "quaternion")
    n = float(np.linalg.norm(q32.astype(np.float64)))
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    if abs(n - 1.0) <= QUAT_NORM_TOL:
        return q32
    return (q32.astype(np.float64) / n).astype(np.float32)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (3x3 float32) from a unit quaternion (x, y, z, w)."""
    x, y, z, w = (float(v) for v in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ],
        dtype=np.float32,
    )


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) from a rotation matrix, float64 math."""
    m = np.asarray(m, dtype=np.float64)
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    q = np.array([x, y, z, w], dtype=np.float64)
    return (q / np.linalg.norm(q)).astype(np.float32)


def look_at_quat(position, target) -> np.ndarray:
    """Orientation quaternion for a camera at `position` facing `target`,
    with world +y up.

    Camera space follows the usual convention: looks along -z, +x right,
    +y up. Falls back to the world x axis as "right" when the view
    direction is (anti)parallel to +y.
    """
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    fwd = target - position
    n = np.linalg.norm(fwd)
    if n == 0.0:
        raise ValueError("camera position coincides with look-at target")
    fwd = fwd / n
    right = np.cross(fwd, (0.0, 1.0, 0.0))
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        right = np.array([1.0, 0.0, 0.0])
        rn = 1.0
    right = right / rn
    cam_up = np.cross(right, fwd)
    # Columns map camera axes to world: x->right, y->cam_up, z->-fwd.
    m = np.column_stack([right, cam_up, -fwd])
    return quat_from_matrix(m)


@dataclass(frozen=True)
class CameraRig:
    """Stereo eye geometry: eyes sit at +-ipd/2 along the camera's right axis."""

    ipd: float = 0.064
    horizontal_fov: float = 90.0
    near: float = 0.1

    def __post_init__(self):
        # `eye_origin` and the renderer cast ipd and near to float32.
        if not 0 <= self.ipd <= _F32_MAX:
            raise ValueError(f"ipd must be non-negative and finite in float32, got {self.ipd}")
        if not 0 < self.horizontal_fov < 180:
            raise ValueError(f"horizontal_fov must be in (0, 180), got {self.horizontal_fov}")
        if not 0 < self.near <= _F32_MAX:
            raise ValueError(f"near must be positive and finite in float32, got {self.near}")


@dataclass(frozen=True)
class CameraPath:
    """An orbit around the origin; frame k of `frame_count` maps to one Pose."""

    radius: float = 3.0
    height: float = 1.2
    frame_count: int = 1000

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be at least 1, got {self.frame_count}")
        if not 0 < self.radius <= _F32_MAX:
            raise ValueError(f"radius must be positive and finite in float32, got {self.radius}")
        if not abs(self.height) <= _F32_MAX:
            raise ValueError(f"height must be finite in float32, got {self.height}")


def pose_at(path: CameraPath, frame_id: int) -> Pose:
    """Pose for `frame_id` on `path`; pure and deterministic.

    The orbit circles the origin once over the whole path:
    position = (radius*cos t, height, radius*sin t) with
    t = 2*pi*frame_id/frame_count, camera facing the origin.
    """
    if not 0 <= frame_id < path.frame_count:
        raise ValueError(f"frame_id {frame_id} out of range for path of {path.frame_count} frames")
    theta = 2.0 * math.pi * frame_id / path.frame_count
    position = np.array(
        [path.radius * math.cos(theta), path.height, path.radius * math.sin(theta)],
        dtype=np.float64,
    )
    orientation = look_at_quat(position, np.zeros(3))
    return Pose(position, orientation)


def eye_origin(pose: Pose, rig: CameraRig, eye: int) -> np.ndarray:
    """World-space ray origin for one eye (0 = left, 1 = right), float32."""
    rot = quat_to_matrix(pose.orientation)
    right = rot[:, 0]
    offset = np.float32(rig.ipd) * np.float32(0.5)
    sign = np.float32(-1.0) if eye == 0 else np.float32(1.0)
    return (pose.position + sign * offset * right).astype(np.float32)
