"""Deterministic CPU raycaster over small procedural scenes.

Every output pixel is shaded independently: one ray through the pixel
center, intersected against a checkerboard ground plane and a handful of
spheres, Lambert-lit by a single directional light. Because shading is a
pure elementwise function of the pixel's absolute framebuffer coordinate,
rendering any sub-rectangle is byte-identical to cropping a full-frame
render -- the property the foveal/peripheral merge relies on.

All shading math is float32 with a fixed operation order, so repeated
calls within one build are bit-identical. Channels are quantized as
floor(c * 255 + 0.5) clamped to [0, 255].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .camera import CameraRig, Pose, eye_origin, quat_to_matrix
from .image import GeometryError, Rect
from .partition import Eye, scaled_dims


class SceneId(IntEnum):
    """Built-in procedural scenes (wire-stable values)."""

    EMPTY = 0
    SPHERES = 1


# Color of every ray that hits nothing, in every scene. The hello carries
# only the scene id, so the server can draw no other.
BACKGROUND = (12, 14, 24)


@dataclass(frozen=True)
class SceneConfig:
    scene_id: SceneId = SceneId.SPHERES

    def __post_init__(self):
        if not isinstance(self.scene_id, SceneId):
            object.__setattr__(self, "scene_id", SceneId(self.scene_id))


_FAR = np.float32(120.0)
_PLANE_Y = np.float32(-1.0)
_AMBIENT = np.float32(0.18)

_CHECKER_LIGHT = np.array([0.82, 0.80, 0.76], dtype=np.float32)
_CHECKER_DARK = np.array([0.22, 0.24, 0.30], dtype=np.float32)

_SPHERE_CENTERS = np.array(
    [
        [0.00, -0.35, 0.00],
        [0.95, -0.60, -0.55],
        [-0.85, -0.62, 0.60],
        [0.15, -0.78, 1.05],
    ],
    dtype=np.float32,
)
_SPHERE_RADII = np.array([0.65, 0.40, 0.38, 0.22], dtype=np.float32)
_SPHERE_ALBEDOS = np.array(
    [
        [0.85, 0.22, 0.18],
        [0.20, 0.45, 0.88],
        [0.90, 0.75, 0.20],
        [0.25, 0.75, 0.35],
    ],
    dtype=np.float32,
)

_LIGHT = np.array([0.35, 0.85, 0.40], dtype=np.float64)
_LIGHT_DIR = (_LIGHT / np.linalg.norm(_LIGHT)).astype(np.float32)


def quantize(channels: np.ndarray) -> np.ndarray:
    """floor(c * 255 + 0.5) clamped to [0, 255], as uint8."""
    v = np.floor(channels.astype(np.float32) * np.float32(255.0) + np.float32(0.5))
    return np.clip(v, 0.0, 255.0).astype(np.uint8)


def _shade_grid(
    scene: SceneConfig,
    rig: CameraRig,
    pose: Pose,
    eye: int,
    eye_dims: tuple[float, float],
    fx: np.ndarray,
    fy: np.ndarray,
) -> np.ndarray:
    """Shades the grid of rays through continuous eye-local coordinates.

    `fx` (len w) and `fy` (len h) hold pixel-center coordinates in the
    eye's full-resolution framebuffer; the result is an (h, w, 3) uint8
    image. This single code path serves full-rate region rendering and
    reduced-rate peripheral rendering, which is what makes the two
    bit-compatible.
    """
    ew, eh = float(eye_dims[0]), float(eye_dims[1])
    tan_h = np.float32(math.tan(math.radians(rig.horizontal_fov) / 2.0))
    tan_v = np.float32(tan_h * np.float32(eh / ew))

    ndc_x = fx.astype(np.float32) / np.float32(ew) * np.float32(2.0) - np.float32(1.0)
    ndc_y = np.float32(1.0) - fy.astype(np.float32) / np.float32(eh) * np.float32(2.0)
    dir_x_row = ndc_x * tan_h  # (w,)
    dir_y_col = ndc_y * tan_v  # (h,)

    rot = quat_to_matrix(pose.orientation)
    # World-space direction d = R @ (dx, dy, -1); broadcast rows x cols.
    dx = dir_x_row[None, :]
    dy = dir_y_col[:, None]
    d0 = rot[0, 0] * dx + rot[0, 1] * dy - rot[0, 2]
    d1 = rot[1, 0] * dx + rot[1, 1] * dy - rot[1, 2]
    d2 = rot[2, 0] * dx + rot[2, 1] * dy - rot[2, 2]

    o = eye_origin(pose, rig, eye)
    h, w = len(fy), len(fx)
    background = np.array(BACKGROUND, dtype=np.uint8)

    if scene.scene_id == SceneId.EMPTY:
        return np.broadcast_to(background, (h, w, 3)).copy()

    near = np.float32(rig.near)
    t_best = np.full((h, w), np.inf, dtype=np.float32)
    kind = np.zeros((h, w), dtype=np.uint8)  # 0 miss, 1 plane, 2+i sphere i

    # Ground plane y = _PLANE_Y.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plane = (_PLANE_Y - o[1]) / d1
    hit = np.isfinite(t_plane) & (t_plane >= near) & (t_plane <= _FAR) & (t_plane < t_best)
    t_best = np.where(hit, t_plane, t_best)
    kind = np.where(hit, np.uint8(1), kind)

    # Spheres, in fixed order (ties broken by order for determinism).
    a = d0 * d0 + d1 * d1 + d2 * d2
    for i in range(len(_SPHERE_RADII)):
        c = _SPHERE_CENTERS[i]
        r = _SPHERE_RADII[i]
        ocx, ocy, ocz = o[0] - c[0], o[1] - c[1], o[2] - c[2]
        half_b = ocx * d0 + ocy * d1 + ocz * d2
        cc = np.float32(ocx * ocx + ocy * ocy + ocz * ocz) - r * r
        disc = half_b * half_b - a * cc
        sq = np.sqrt(np.maximum(disc, np.float32(0.0)))
        t1 = (-half_b - sq) / a
        t2 = (-half_b + sq) / a
        t = np.where(t1 >= near, t1, t2)
        hit = (disc >= 0) & (t >= near) & (t <= _FAR) & (t < t_best)
        t_best = np.where(hit, t, t_best)
        kind = np.where(hit, np.uint8(2 + i), kind)

    any_hit = kind > 0
    t_eff = np.where(any_hit, t_best, np.float32(1.0))
    px = o[0] + t_eff * d0
    py = o[1] + t_eff * d1
    pz = o[2] + t_eff * d2

    albedo = np.zeros((h, w, 3), dtype=np.float32)
    lam = np.zeros((h, w), dtype=np.float32)

    plane_mask = kind == 1
    if plane_mask.any():
        parity = (np.floor(px[plane_mask]) + np.floor(pz[plane_mask])) % np.float32(2.0)
        albedo[plane_mask] = np.where(parity[:, None] == 0, _CHECKER_LIGHT, _CHECKER_DARK)
        lam[plane_mask] = _LIGHT_DIR[1]  # plane normal is +y

    for i in range(len(_SPHERE_RADII)):
        m = kind == 2 + i
        if not m.any():
            continue
        c = _SPHERE_CENTERS[i]
        inv_r = np.float32(1.0) / _SPHERE_RADII[i]
        nx = (px[m] - c[0]) * inv_r
        ny = (py[m] - c[1]) * inv_r
        nz = (pz[m] - c[2]) * inv_r
        ndotl = nx * _LIGHT_DIR[0] + ny * _LIGHT_DIR[1] + nz * _LIGHT_DIR[2]
        lam[m] = np.maximum(ndotl, np.float32(0.0))
        albedo[m] = _SPHERE_ALBEDOS[i]

    shade = _AMBIENT + (np.float32(1.0) - _AMBIENT) * lam
    out = quantize(albedo * shade[:, :, None])
    out[~any_hit] = background
    return out


def render_region(
    scene: SceneConfig,
    rig: CameraRig,
    pose: Pose,
    eye: int,
    full_eye_dims: tuple[int, int],
    region: Rect,
) -> np.ndarray:
    """Renders a sub-rectangle of one eye's full-resolution frame.

    Output pixel (i, j) is the shading of full-frame pixel
    (region.x + i, region.y + j), so rendering a sub-rectangle equals
    cropping a full-frame render byte-for-byte.
    """
    w, h = full_eye_dims
    if w < 1 or h < 1:
        raise GeometryError(f"eye dims must be at least 1x1, got {full_eye_dims}")
    if region.w < 1 or region.h < 1:
        raise GeometryError(f"region size must be at least 1x1, got {region}")
    if region.x < 0 or region.y < 0 or region.x + region.w > w or region.y + region.h > h:
        raise GeometryError(f"region {region} out of bounds for eye dims {full_eye_dims}")
    fx = np.arange(region.x, region.x + region.w, dtype=np.float32) + np.float32(0.5)
    fy = np.arange(region.y, region.y + region.h, dtype=np.float32) + np.float32(0.5)
    return _shade_grid(scene, rig, pose, eye, (w, h), fx, fy)


def render_scaled(
    scene: SceneConfig,
    rig: CameraRig,
    pose: Pose,
    eye_pair_dims: tuple[int, int],
    scale: float,
) -> np.ndarray:
    """Renders the side-by-side stereo frame at a reduced sampling rate.

    Reduced pixel (i, j) casts the ray through full-frame coordinate
    ((i + 0.5) / scale, (j + 0.5) / scale); columns mapping left of the
    stereo midline belong to the left eye. Output dimensions are
    `scaled_dims` (round(w * scale) x round(h * scale), at least 1x1), so
    scale = 1.0 reproduces the full-rate stereo render exactly.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    full_w, full_h = eye_pair_dims
    if full_w < 1 or full_h < 1:
        raise GeometryError(f"frame dims must be at least 1x1, got {eye_pair_dims}")
    rw, rh = scaled_dims(full_w, full_h, scale)
    s = np.float32(scale)
    fx = (np.arange(rw, dtype=np.float32) + np.float32(0.5)) / s
    fy = (np.arange(rh, dtype=np.float32) + np.float32(0.5)) / s
    eye_w = np.float32(full_w) / np.float32(2.0)
    split = int(np.searchsorted(fx, eye_w, side="left"))
    eye_dims = (full_w / 2.0, float(full_h))
    parts = []
    if split > 0:
        parts.append(_shade_grid(scene, rig, pose, Eye.LEFT, eye_dims, fx[:split], fy))
    if split < rw:
        parts.append(_shade_grid(scene, rig, pose, Eye.RIGHT, eye_dims, fx[split:] - eye_w, fy))
    return parts[0] if len(parts) == 1 else np.hstack(parts)


def render_stereo(
    scene: SceneConfig, rig: CameraRig, pose: Pose, eye_dims: tuple[int, int]
) -> np.ndarray:
    """Full-rate side-by-side stereo render (both eyes, full sampling)."""
    w, h = eye_dims
    full = Rect(0, 0, w, h)
    left = render_region(scene, rig, pose, Eye.LEFT, eye_dims, full)
    right = render_region(scene, rig, pose, Eye.RIGHT, eye_dims, full)
    return np.hstack([left, right])
