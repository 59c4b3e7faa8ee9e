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
from .partition import Eye, Holes, reduced_rays


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
    v = np.multiply(channels, np.float32(255.0), dtype=np.float32)
    v += np.float32(0.5)
    np.floor(v, out=v)
    return np.clip(v, 0.0, 255.0, out=v).astype(np.uint8)


def _lambert(lam):
    """Ambient plus diffuse light for the cosine `lam`, in float32."""
    return _AMBIENT + (np.float32(1.0) - _AMBIENT) * lam


# The floor has one normal (+y), so it shades to exactly two colours; each
# pixel picks background, light or dark checker from this palette. Its rows
# are 4-byte RGBX pixels (fourth byte 0), and every grid gathers them whole:
# a gather of 3-byte items costs about 2.5 times as much per pixel. An RGB
# grid gathers into an RGBX band buffer and copies out its first three bytes.
_FLOOR_PALETTE = np.zeros((3, 4), dtype=np.uint8)
_FLOOR_PALETTE[:, :3] = np.vstack([BACKGROUND,
                                   quantize(np.stack([_CHECKER_LIGHT, _CHECKER_DARK]) * _lambert(_LIGHT_DIR[1]))])

# Hull rows whose checker parity and palette indices `_gather_palette` takes
# at a time. A take copies its uint8 indices to 8-byte intp first, so one
# band bounds that copy: 0.2 MB at 768 columns, against 2.0 MB for a 768x322
# hull at once; the parity's two float32 grids are 0.1 MB each per band.
_PALETTE_BAND_ROWS = 32


class DirectionCache:
    """The world-space ray directions of one grid, kept between the
    `_shade_grid` calls of one draw.

    Both eyes' foveal rects have the same eye-local pixel centres and the
    eyes share one orientation, so their directions are bitwise equal: the
    first eye computes the rows it shades and the second slices them when
    they cover its own. The cache holds the grid's key (rotation and ray
    coordinates) and computes afresh on any other grid, so a stale grid can
    never shade. It should live no longer than one draw: its three float32
    grids are the size of the rows they cover.
    """

    def __init__(self):
        self.key: bytes | None = None
        self.rows = slice(0, 0)
        self.grids: tuple[np.ndarray, ...] = ()


def _lit_normal_term(t, d, o, c, inv_r, light):
    """One axis's term of n . l: (o + t * d - c) * inv_r * light, in float32
    and in that order, in one buffer."""
    n = t * d
    n += o
    n -= c
    n *= inv_r
    n *= light
    return n


def _shade_grid(
    scene: SceneConfig,
    rig: CameraRig,
    pose: Pose,
    eye: int,
    eye_dims: tuple[float, float],
    fx: np.ndarray,
    fy: np.ndarray,
    rgbx: bool = False,
    directions: DirectionCache | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Shades the grid of rays through continuous eye-local coordinates.

    `fx` (len w) and `fy` (len h) hold pixel-center coordinates in the
    eye's full-resolution framebuffer; the result is an (h, w, 3) uint8
    RGB image, or with `rgbx` an (h, w, 4) one whose fourth byte is 0 and
    whose first three equal the RGB image. This single code path serves
    both layouts, full-rate region rendering and reduced-rate peripheral
    rendering, which is what makes them bit-compatible. With `directions`,
    the ray directions are taken from, and kept in, that cache. With `out`,
    an array of the result's shape, the pixels are written there and `out`
    is returned.
    """
    h, w = len(fy), len(fx)
    frame = np.empty((h, w, 4 if rgbx else 3), dtype=np.uint8) if out is None else out
    if scene.scene_id == SceneId.EMPTY:
        _fill_background(frame)
        return frame

    ew, eh = float(eye_dims[0]), float(eye_dims[1])
    tan_h = np.float32(math.tan(math.radians(rig.horizontal_fov) / 2.0))
    tan_v = np.float32(tan_h * np.float32(eh / ew))

    ndc_x = fx.astype(np.float32) / np.float32(ew) * np.float32(2.0) - np.float32(1.0)
    ndc_y = np.float32(1.0) - fy.astype(np.float32) / np.float32(eh) * np.float32(2.0)
    dir_x_row = ndc_x * tan_h  # (w,)
    dir_y_col = ndc_y * tan_v  # (h,)

    rot = quat_to_matrix(pose.orientation)
    o = eye_origin(pose, rig, eye)
    near = np.float32(rig.near)

    # Each sphere's screen box and the floor's rows bound every ray that can
    # hit anything, so the rows outside their hull are all background and
    # everything below runs on the hull's rows only, in its own row frame.
    ocs = [(o[0] - c[0], o[1] - c[1], o[2] - c[2]) for c in _SPHERE_CENTERS]
    reach = _grid_reach(dir_x_row, dir_y_col)
    bounds = [_sphere_bound(rot, oc, r, dir_x_row, dir_y_col, reach) for oc, r in zip(ocs, _SPHERE_RADII)]
    rows = _hull([_floor_rows(rot, _PLANE_Y - o[1], near, dir_x_row, dir_y_col)]
                 + [b[0] for b in bounds if b is not None])

    d0, d1, d2 = _directions(rot, dir_x_row, dir_y_col, rows, directions)

    # Ground plane y = _PLANE_Y. kind: 0 miss, 1 plane, 2+i sphere i.
    # A d1 of 0, or one so small that the quotient overflows, gives an
    # infinite t, which misses.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_best = (_PLANE_Y - o[1]) / d1
        hit = t_best >= near
        hit &= t_best <= _FAR  # false on inf and NaN
    np.copyto(t_best, np.float32(np.inf), where=~hit)
    kind = hit.view(np.uint8)

    # Spheres, in fixed order (ties broken by order for determinism). Only
    # rays with disc >= 0 can hit, and every such ray lies inside the
    # sphere's bound, so the disc, the root and the update run on that box
    # alone, and so does the shading below; `boxes[i]` keeps the box in the
    # hull's rows.
    boxes = [None if b is None else _rows_from(b, rows.start) for b in bounds]
    for i, box in enumerate(boxes):
        if box is None:
            continue
        r = _SPHERE_RADII[i]
        ocx, ocy, ocz = ocs[i]
        e0, e1, e2, tb = d0[box], d1[box], d2[box], t_best[box]
        a = e0 * e0
        a += e1 * e1
        a += e2 * e2
        half_b = ocx * e0
        half_b += ocy * e1
        half_b += ocz * e2
        cc = np.float32(ocx * ocx + ocy * ocy + ocz * ocz) - r * r
        disc = half_b * half_b
        disc -= a * cc
        hit = disc >= 0
        np.maximum(disc, np.float32(0.0), out=disc)
        sq = np.sqrt(disc, out=disc)
        t1 = -half_b
        t2 = t1 + sq
        t1 -= sq
        t1 /= a
        t2 /= a
        np.copyto(t2, t1, where=t1 >= near)  # t: the near root if ahead, else the far
        hit &= t2 >= near
        hit &= t2 <= _FAR
        hit &= t2 < tb
        np.copyto(tb, t2, where=hit)
        np.copyto(kind[box], np.uint8(2 + i), where=hit)

    _fill_background(frame[: rows.start])
    _fill_background(frame[rows.stop :])
    content = frame[rows]
    _gather_palette(kind, t_best, d0, d2, o, content)

    # Each sphere shades its whole box, then pastes by mask: the box's plane
    # and missed rays are shaded too and dropped, which costs less than
    # gathering the sphere's rays out of the box and scattering them back.
    for i, box in enumerate(boxes):
        if box is None:
            continue
        m = kind[box] == 2 + i
        if not m.any():
            continue
        c = _SPHERE_CENTERS[i]
        inv_r = np.float32(1.0) / _SPHERE_RADII[i]
        t = t_best[box]
        # A missed ray's t is inf, so its normal and shade are inf or NaN;
        # the mask drops them.
        with np.errstate(invalid="ignore"):
            ndotl = _lit_normal_term(t, d0[box], o[0], c[0], inv_r, _LIGHT_DIR[0])
            ndotl += _lit_normal_term(t, d1[box], o[1], c[1], inv_r, _LIGHT_DIR[1])
            ndotl += _lit_normal_term(t, d2[box], o[2], c[2], inv_r, _LIGHT_DIR[2])
            shade = _lambert(np.maximum(ndotl, np.float32(0.0), out=ndotl))
            for ch, albedo in enumerate(_SPHERE_ALBEDOS[i]):
                np.copyto(content[box][:, :, ch], quantize(albedo * shade), where=m)
    return frame


def _gather_palette(kind: np.ndarray, t_best: np.ndarray, d0: np.ndarray, d2: np.ndarray,
                    o: np.ndarray, content: np.ndarray) -> None:
    """Writes each hull pixel's `_FLOOR_PALETTE` colour into the (n, w, 4)
    or (n, w, 3) `content`, `_PALETTE_BAND_ROWS` rows at a time: index 0
    where `kind` is not the floor (1), else 1 (light) or 2 (dark) by the
    checker parity of the hit point o + t_best * d. So the parity's grids
    and the indices are one band's size. RGBX rows take each band straight;
    RGB rows take it into one reused RGBX band buffer, then copy it out one
    channel at a time, as a 4-to-3-byte slice copy runs pixel by pixel,
    several times slower. Every index is in range, so "clip" changes none,
    and unlike "raise" it writes a contiguous `out` unbuffered; strided
    rows, such as one eye's columns of the server's side-by-side rows, go
    through numpy's band-sized copy."""
    rgb = content.shape[2] == 3
    band = np.empty((min(_PALETTE_BAND_ROWS, len(kind)), kind.shape[1], 4), dtype=np.uint8) if rgb else None
    with np.errstate(invalid="ignore"):  # inf * 0 on missed rays
        for b0 in range(0, len(kind), _PALETTE_BAND_ROWS):
            rows = slice(b0, b0 + _PALETTE_BAND_ROWS)
            t = t_best[rows]
            cell = t * d0[rows]
            cell += o[0]
            np.floor(cell, out=cell)
            pz = t * d2[rows]
            pz += o[2]
            np.floor(pz, out=pz)
            cell += pz
            # An odd integer sum: exact, and much cheaper than `cell % 2 != 0`.
            half = np.multiply(cell, np.float32(0.5), out=pz)
            np.floor(half, out=half)
            half *= np.float32(2.0)
            dark = (half != cell).view(np.uint8)
            idx = (kind[rows] == 1).view(np.uint8)
            dark &= idx
            idx += dark
            out = band[: len(idx)] if rgb else content[rows]
            np.take(_FLOOR_PALETTE, idx, axis=0, out=out, mode="clip")
            if rgb:
                for ch in range(3):
                    content[rows, :, ch] = out[:, :, ch]


def _fill_background(rows: np.ndarray) -> None:
    """Fills the (n, w, 3) or (n, w, 4) `rows` with the background colour
    (fourth byte 0). Assigning one tiled row copies whole rows, where
    assigning the one pixel would loop per pixel, about 30 times slower."""
    rows[:] = np.tile(_FLOOR_PALETTE[0, : rows.shape[2]], (rows.shape[1], 1))


def _directions(
    rot: np.ndarray,
    dir_x_row: np.ndarray,
    dir_y_col: np.ndarray,
    rows: slice,
    cache: DirectionCache | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The world-space direction d = R @ (dx, dy, -1) of each ray of the
    grid's rows `rows`, broadcast rows x cols: three float32 grids. Each
    element depends on its own dx and dy alone, so a slice of a grid of
    more rows is bitwise equal to a grid of fewer; with `cache`, rows it
    covers are sliced from it, and rows it does not are computed and
    replace it."""
    if cache is not None:
        key = rot.tobytes() + dir_x_row.tobytes() + dir_y_col.tobytes()
        if cache.key == key and cache.rows.start <= rows.start and rows.stop <= cache.rows.stop:
            local = slice(rows.start - cache.rows.start, rows.stop - cache.rows.start)
            return tuple(d[local] for d in cache.grids)
        cache.key, cache.grids = None, ()  # free the old grids before the new
    dx = dir_x_row[None, :]
    dy = dir_y_col[rows, None]
    d0 = rot[0, 0] * dx + rot[0, 1] * dy
    d0 -= rot[0, 2]
    d1 = rot[1, 0] * dx + rot[1, 1] * dy
    d1 -= rot[1, 2]
    d2 = rot[2, 0] * dx + rot[2, 1] * dy
    d2 -= rot[2, 2]
    if cache is not None:
        cache.key, cache.rows, cache.grids = key, rows, (d0, d1, d2)
    return d0, d1, d2


def _hull(spans: list[slice | None]) -> slice:
    """The smallest slice holding every non-None slice; empty if there is none."""
    spans = [s for s in spans if s is not None]
    if not spans:
        return slice(0, 0)
    return slice(min(s.start for s in spans), max(s.stop for s in spans))


def _rows_from(box: tuple[slice, slice], r0: int) -> tuple[slice, slice]:
    """`box` with its rows counted from row `r0`."""
    rows, cols = box
    return slice(rows.start - r0, rows.stop - r0), cols


# The screen-space sphere bound tests the sphere grown to r * 1.01 + 1e-4.
# The float32 disc of a ray differs from its exact value by under
# 4 * 2**-23 * |oc|^2 * |d|^2 (measured 3.5 over random rotations, cameras
# and rays), while growing the radius raises the exact disc by
# (r_big^2 - r^2) * |d|^2. So wherever |oc|^2 * 2**-19 stays below
# r_big^2 - r^2 (a margin of 4x over that error), every ray whose float32
# disc is >= 0 passes within r_big of the centre; farther cameras get the
# full grid. The pad of 2 pixels on each side of the box is a further margin
# for the float64 arithmetic of the bound itself, which is exact on the
# float32 inputs only up to a few ulps.
_BOUND_GROW = 1.01
_BOUND_SLACK = 1e-4
_BOUND_REACH = 2.0**-19
_BOUND_PAD = 2


def _sphere_bound(
    rot: np.ndarray,
    oc: tuple[np.float32, np.float32, np.float32],
    r: np.float32,
    dir_x_row: np.ndarray,
    dir_y_col: np.ndarray,
    reach: tuple[float, float],
) -> tuple[slice, slice] | None:
    """A conservative (rows, cols) box of the rays whose float32 disc
    against the sphere of radius `r` at `-oc` from the eye can be >= 0.
    `reach` is the grid's `_grid_reach`, taken once for all the spheres.

    Camera-space ray (x, y, -1) with x = dir_x_row[col], y = dir_y_col[row]
    has world direction d = rot @ (x, y, -1), and its line passes within
    r_big of the centre iff (oc . d)^2 - |d|^2 (|oc|^2 - r_big^2) >= 0: a
    quadratic form v^T m v >= 0 in v = (x, y, -1). With the eye outside the
    sphere and the sphere wholly in front of or behind the eye's plane, that
    set of (x, y) is an ellipse, and the box covers its x and y extents plus
    the pad. Otherwise the box is the full grid. None: the box holds no ray.
    """
    h, w = len(dir_y_col), len(dir_x_row)
    q = np.array(oc, dtype=np.float64)
    r = float(r)
    r_big = r * _BOUND_GROW + _BOUND_SLACK
    qq = float(q @ q)
    if qq * _BOUND_REACH >= r_big * r_big - r * r:
        return slice(0, h), slice(0, w)
    rot64 = rot.astype(np.float64)
    m = rot64.T @ (np.outer(q, q) - (qq - r_big * r_big) * np.eye(3)) @ rot64
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
    det = m00 * m11 - m01 * m01
    # An ellipse needs a negative definite (x, y) part; m00 < 0 also needs
    # the eye outside the grown sphere.
    if not (m00 < 0.0 and det > 0.0):
        return slice(0, h), slice(0, w)
    # Some y has v^T m v >= 0 iff x satisfies the first quadratic; likewise
    # for y and the second.
    xs = _nonneg_interval(-det, m11 * m02 - m01 * m12, m12 * m12 - m11 * m22)
    ys = _nonneg_interval(-det, m00 * m12 - m01 * m02, m02 * m02 - m00 * m22)
    if xs is None or ys is None:
        return None
    reach_x, reach_y = reach
    c0, c1 = _padded_range(dir_x_row, *xs, reach_x)
    r0, r1 = _padded_range(-dir_y_col, -ys[1], -ys[0], reach_y)  # dir_y_col descends
    if c0 >= c1 or r0 >= r1:
        return None
    return slice(r0, r1), slice(c0, c1)


# The floor bound. A ray meets the floor at float32 t = c / d1, where
# c = _PLANE_Y - o_y and d1 = r10 x + r11 y - r12, and hits it when
# near <= t <= _FAR. As near > 0, that needs d1 of c's sign (c = 0 never
# hits) and |d1| >= |c| / _FAR, up to rounding: the float32 quotient is over
# _FAR once the exact one is over _FAR * (1 + 2**-24), and the float32 d1 (two
# products, a sum and a difference) is within 3 * 2**-24 * (|r10 x| + |r11 y|
# + |r12|) of the exact one. A slack of 2**-20 times both terms covers both
# with a margin of 4x, at any fov. The exact d1 is linear in x, so a row's
# extremes lie at its end columns. The pad covers the float64 arithmetic of
# the bound, as for the spheres.
_FLOOR_SLACK = 2.0**-20


def _floor_rows(
    rot: np.ndarray,
    c: np.float32,
    near: np.float32,
    dir_x_row: np.ndarray,
    dir_y_col: np.ndarray,
) -> slice | None:
    """A conservative range of the rows holding every ray whose float32
    plane t, `c / d1`, lies in [near, _FAR]. None: no row holds one."""
    h = len(dir_y_col)
    if not near > 0:  # a rig nearer than float32 can carry: t = 0 would hit
        return slice(0, h)
    c = float(c)
    if c == 0.0:
        return None
    r10, r11, r12 = rot[1].astype(np.float64).tolist()
    y = dir_y_col.astype(np.float64)
    ends = np.array([dir_x_row[0], dir_x_row[-1]], dtype=np.float64)
    d1 = r10 * ends[:, None] + r11 * y - r12  # (2, h): each row's end columns
    edge = c / float(_FAR)
    slack = _FLOOR_SLACK * (abs(r10) * np.abs(ends).max() + np.abs(r11 * y) + abs(r12) + abs(edge))
    if c < 0:
        can = d1.min(axis=0) <= edge + slack
    else:
        can = d1.max(axis=0) >= edge - slack
    hits = np.flatnonzero(can)
    if len(hits) == 0:
        return None
    return slice(max(int(hits[0]) - _BOUND_PAD, 0), min(int(hits[-1]) + 1 + _BOUND_PAD, h))


def _nonneg_interval(a: float, half_b: float, c: float) -> tuple[float, float] | None:
    """Where a t^2 + 2 half_b t + c >= 0 for a < 0, None if nowhere."""
    disc = half_b * half_b - a * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    return (-half_b + sq) / a, (-half_b - sq) / a


def _pad_reach(coords: np.ndarray) -> float:
    """The pad in coordinates on the ascending `coords`: _BOUND_PAD of the
    grid's median steps (the upper median for an even count), or inf for a
    single coordinate. A grid that skips the holes' rays has one gap, which
    would widen a mean step but does not move the median. The steps are
    sorted whole: a grid's steps take a few values, on which numpy's
    partition ran several times slower than its sort."""
    if len(coords) < 2:
        return math.inf
    steps = coords[1:] - coords[:-1]
    steps.sort()
    return _BOUND_PAD * float(steps[len(steps) // 2])


def _grid_reach(dir_x_row: np.ndarray, dir_y_col: np.ndarray) -> tuple[float, float]:
    """The pads on a grid's columns and on its (descending) rows, as
    `_sphere_bound` takes them: `_pad_reach` of `dir_x_row` and of
    `-dir_y_col`."""
    return _pad_reach(dir_x_row), _pad_reach(-dir_y_col)


def _padded_range(coords: np.ndarray, lo: float, hi: float, reach: float) -> tuple[int, int]:
    """The index range of the ascending `coords` in [lo, hi] widened by
    `reach` (the grid's `_pad_reach`) on both sides; empty when no
    coordinate lies within it. As the pad is taken in coordinates, a grid
    concatenated from two runs of rays (a periphery eye's grids, which skip
    the holes) gives an interval that falls in its gap no index, where a
    pad in indices would give the rays at the seam. The compares are in
    float64."""
    i0 = int(np.searchsorted(coords, np.float64(lo - reach), side="left"))
    i1 = int(np.searchsorted(coords, np.float64(hi + reach), side="right"))
    return i0, i1


def render_region(
    scene: SceneConfig,
    rig: CameraRig,
    pose: Pose,
    eye: int,
    full_eye_dims: tuple[int, int],
    region: Rect,
    rgbx: bool = False,
    directions: DirectionCache | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Renders a sub-rectangle of one eye's full-resolution frame.

    Output pixel (i, j) is the shading of full-frame pixel
    (region.x + i, region.y + j), so rendering a sub-rectangle equals
    cropping a full-frame render byte-for-byte. The result is RGB8 by
    default, and RGBX8 (fourth byte 0) with `rgbx`, the layout `encode`
    takes with no repacking. `directions` shares the ray directions
    between calls that shade the same rect at the same pose (both eyes'
    foveae, see `DirectionCache`); the pixels are the same without it.
    With `out`, a uint8 array of the result's shape, which may be a view
    such as some columns of a wider image, the pixels are written there
    and `out` is returned.
    """
    w, h = full_eye_dims
    if w < 1 or h < 1:
        raise GeometryError(f"eye dims must be at least 1x1, got {full_eye_dims}")
    if region.w < 1 or region.h < 1:
        raise GeometryError(f"region size must be at least 1x1, got {region}")
    if region.x < 0 or region.y < 0 or region.x + region.w > w or region.y + region.h > h:
        raise GeometryError(f"region {region} out of bounds for eye dims {full_eye_dims}")
    shape = (region.h, region.w, 4 if rgbx else 3)
    if out is not None and (out.shape != shape or out.dtype != np.uint8):
        raise GeometryError(f"out is a {out.dtype} array of shape {out.shape}, the region wants uint8 {shape}")
    fx = np.arange(region.x, region.x + region.w, dtype=np.float32) + np.float32(0.5)
    fy = np.arange(region.y, region.y + region.h, dtype=np.float32) + np.float32(0.5)
    return _shade_grid(scene, rig, pose, eye, (w, h), fx, fy, rgbx, directions, out)


def render_scaled(
    scene: SceneConfig,
    rig: CameraRig,
    pose: Pose,
    eye_pair_dims: tuple[int, int],
    scale: float,
    holes: Holes | None = None,
) -> np.ndarray:
    """Renders the side-by-side stereo frame at a reduced sampling rate.

    Reduced pixel (i, j) casts the ray through full-frame coordinate
    ((i + 0.5) / scale, (j + 0.5) / scale); columns mapping left of the
    stereo midline belong to the left eye. Output dimensions are
    `scaled_dims` (round(w * scale) x round(h * scale), at least 1x1), so
    scale = 1.0 reproduces the full-rate stereo render exactly. With
    `holes` (`partition.periphery_holes`), the holes' pixels are the
    background and cast no ray; every other pixel is the same. Each eye is
    then at most two grids: the rows outside the holes across all of its
    columns, and the holes' rows across its other columns.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    full_w, full_h = eye_pair_dims
    if full_w < 1 or full_h < 1:
        raise GeometryError(f"frame dims must be at least 1x1, got {eye_pair_dims}")
    fx, fy, split = reduced_rays(full_w, full_h, scale)
    eye_w = np.float32(full_w) / np.float32(2.0)
    eye_dims = (full_w / 2.0, float(full_h))
    frame = np.empty((len(fy), len(fx), 3), dtype=np.uint8)
    r0, r1 = (0, 0) if holes is None else holes.rows
    for eye, (c0, c1) in ((Eye.LEFT, (0, split)), (Eye.RIGHT, (split, len(fx)))):
        if c0 == c1:
            continue
        ex = fx[c0:c1] - eye_w if eye == Eye.RIGHT else fx[c0:c1]
        h0, h1 = (0, 0) if holes is None else holes.cols[eye]
        if r0 == r1 or h0 == h1:
            frame[:, c0:c1] = _shade_grid(scene, rig, pose, eye, eye_dims, ex, fy)
            continue
        if r1 - r0 < len(fy):
            outside = _shade_grid(scene, rig, pose, eye, eye_dims, ex, np.concatenate([fy[:r0], fy[r1:]]))
            frame[:r0, c0:c1] = outside[:r0]
            frame[r1:, c0:c1] = outside[r0:]
        if h1 - h0 < c1 - c0:
            band = _shade_grid(scene, rig, pose, eye, eye_dims,
                               np.concatenate([ex[: h0 - c0], ex[h1 - c0 :]]), fy[r0:r1])
            frame[r0:r1, c0:h0] = band[:, : h0 - c0]
            frame[r0:r1, h1:c1] = band[:, h0 - c0 :]
        _fill_background(frame[r0:r1, h0:h1])
    return frame
