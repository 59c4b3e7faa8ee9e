"""Image-space split geometry: centered foveal rect, reduced peripheral dims.

The stereo frame is two side-by-side eye viewports. Each eye gets a
centered foveal rectangle rendered at full sampling rate; everything else
is peripheral and rendered into a buffer scaled down by `periph_scale`.
Odd centering remainders floor toward the top-left. A reduced pixel whose
every upsampled pixel lies inside a foveal rect is a hole (`periphery_holes`):
no displayed pixel shows it, so it is not shaded. The server draws the top
`server_rows` rows of each foveal rect and the client draws the rest, which
splits the rays a frame shades about evenly wherever the foveae hold more
than half of them. The server sends its rows in the row bands of
`subframe_bands`, each band both eyes' rows side by side.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .image import GeometryError, Rect
from .wire import DEFAULT_MAX_FRAME, MAX_DIM, SUBFRAME_HEADER


def _float32(x: float) -> float:
    """`x` rounded to the nearest float32, as the hello's f32 carries it."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


# The least peripheral scale: 1/MAX_DIM as the hello's f32 carries it, so a
# scale the client accepts stays accepted on the server. Below 1/MAX_DIM
# every frame the wire can carry has a one-pixel periphery, and far below
# it the renderer's float32 shading overflows.
MIN_SCALE = _float32(1 / MAX_DIM)


class Eye(IntEnum):
    """Wire-stable eye indices."""

    LEFT = 0
    RIGHT = 1


class PartitionError(ValueError):
    """A PartitionSpec violates its invariants."""


@dataclass(frozen=True)
class PartitionSpec:
    """Dimensions of the foveal/peripheral split, valid by construction.

    full_w, full_h: the stereo frame; fov_w, fov_h: the foveal rectangle
    per eye; periph_scale: sampling-rate fraction for the peripheral
    buffer. One eye's viewport is the left or right half of the frame, and
    the RAW subframe of the largest of `subframe_bands(server_rows(spec))`,
    both eyes' rows side by side, must fit the wire's frame cap.
    Construction raises PartitionError listing every violated invariant;
    the frame cap is checked once every other invariant holds, as the
    bands follow from a valid geometry. A valid spec holds its scale as the
    f32 the hello carries, so both sides split alike.
    """

    full_w: int
    full_h: int
    fov_w: int
    fov_h: int
    periph_scale: float

    def __post_init__(self):
        violations = []
        for name in ("full_w", "full_h", "eye_w", "eye_h", "fov_w", "fov_h"):
            if getattr(self, name) < 1:
                violations.append(f"{name} must be at least 1")
            elif getattr(self, name) > MAX_DIM:
                violations.append(f"{name} must be at most {MAX_DIM}, the wire's u16 limit")
        if self.full_w % 2:
            violations.append("full width must be even")
        if self.fov_w > self.eye_w:
            violations.append("foveal width exceeds eye width")
        if self.fov_h > self.eye_h:
            violations.append("foveal height exceeds eye height")
        if not 0.0 < self.periph_scale <= 1.0:
            violations.append("peripheral scale must be in (0, 1]")
        elif self.periph_scale < MIN_SCALE:
            violations.append(f"peripheral scale must be at least 1/{MAX_DIM}")
        if violations:
            raise PartitionError("; ".join(violations))
        object.__setattr__(self, "periph_scale", _float32(self.periph_scale))
        rows = max(hi - lo for lo, hi in subframe_bands(server_rows(self)))
        raw_frame = 3 * 2 * self.fov_w * rows + SUBFRAME_HEADER
        if raw_frame > DEFAULT_MAX_FRAME:
            raise PartitionError(f"the largest band's RAW subframe is a {raw_frame}-byte frame,"
                                 f" above the wire's frame cap of {DEFAULT_MAX_FRAME} bytes")

    @property
    def eye_w(self) -> int:
        return self.full_w // 2

    @property
    def eye_h(self) -> int:
        return self.full_h

    @classmethod
    def from_full(cls, full_w: int, full_h: int, fov_w: int, fov_h: int, periph_scale: float) -> "PartitionSpec":
        return cls(full_w, full_h, fov_w, fov_h, periph_scale)


def foveal_rect(spec: PartitionSpec, eye: Eye) -> Rect:
    """The eye's centered foveal rectangle in per-eye coordinates."""
    Eye(eye)
    return Rect(
        (spec.eye_w - spec.fov_w) // 2,
        (spec.eye_h - spec.fov_h) // 2,
        spec.fov_w,
        spec.fov_h,
    )


def foveal_rect_stereo(spec: PartitionSpec, eye: Eye) -> Rect:
    """Same rectangle in stereo-frame coordinates (right eye shifted by eye_w)."""
    r = foveal_rect(spec, eye)
    if Eye(eye) == Eye.RIGHT:
        return Rect(r.x + spec.eye_w, r.y, r.w, r.h)
    return r


def scaled_dims(full_w: int, full_h: int, scale: float) -> tuple[int, int]:
    """A frame's dimensions sampled at `scale`: round(full * scale) per
    axis (Python's round, ties to even), clamped to at least 1."""
    return max(1, round(full_w * scale)), max(1, round(full_h * scale))


def reduced_dims(spec: PartitionSpec) -> tuple[int, int]:
    """Peripheral buffer dimensions, as the renderer sizes its reduced
    buffer."""
    return scaled_dims(spec.full_w, spec.full_h, spec.periph_scale)


def nearest_map(full: int, reduced: int) -> np.ndarray:
    """Along one axis of `full` pixels, the reduced pixel each copies in a
    nearest upsample from `reduced` pixels: pixel i copies (i * reduced) //
    full. For reduced <= full every reduced pixel is copied, in order."""
    return (np.arange(full) * reduced) // full


def reduced_rays(full_w: int, full_h: int, scale: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The rays of the reduced frame of a `full_w` x `full_h` stereo frame
    sampled at `scale`: the float32 full-frame coordinates of each reduced
    column's and row's pixel centre, (i + 0.5) / scale, and the first column
    whose ray lies right of the stereo midline, which the right eye shades."""
    rw, rh = scaled_dims(full_w, full_h, scale)
    s = np.float32(scale)
    fx = (np.arange(rw, dtype=np.float32) + np.float32(0.5)) / s
    fy = (np.arange(rh, dtype=np.float32) + np.float32(0.5)) / s
    split = int(np.searchsorted(fx, np.float32(full_w) / np.float32(2.0), side="left"))
    return fx, fy, split


@dataclass(frozen=True)
class Holes:
    """The reduced pixels that no displayed pixel shows: rows [lo, hi) of
    the reduced frame (`rows`) by, for each eye, reduced stereo columns
    [lo, hi) (`cols[eye]`) that the eye shades. Every full pixel that the
    nearest upsample copies from one of them lies inside that eye's foveal
    rect, so the fovea overwrites it. A range with lo == hi is empty."""

    rows: tuple[int, int]
    cols: tuple[tuple[int, int], tuple[int, int]]

    @property
    def rays(self) -> int:
        return (self.rows[1] - self.rows[0]) * sum(hi - lo for lo, hi in self.cols)


def _covered(mapping: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """The reduced pixels [a, b) whose every full pixel under the nearest
    `mapping` lies in [lo, hi); (0, 0) if there is none. The mapping
    ascends, so they are one range: a reduced pixel is out when a full
    pixel outside [lo, hi) copies it."""
    a = int(mapping[lo]) + int(lo > 0 and mapping[lo - 1] == mapping[lo])
    b = int(mapping[hi - 1]) + 1 - int(hi < len(mapping) and mapping[hi] == mapping[hi - 1])
    return (a, b) if a < b else (0, 0)


def periphery_holes(spec: PartitionSpec) -> Holes:
    """The spec's reduced periphery pixels that a fovea hides (`Holes`).
    Both foveae span the same rows, so their holes share rows; each eye's
    columns are clipped to the columns that eye shades."""
    rw, rh = reduced_dims(spec)
    _, _, split = reduced_rays(spec.full_w, spec.full_h, spec.periph_scale)
    left = foveal_rect_stereo(spec, Eye.LEFT)
    rows = _covered(nearest_map(spec.full_h, rh), left.y, left.y + spec.fov_h)
    xs = nearest_map(spec.full_w, rw)
    cols = []
    for eye, (first, last) in ((Eye.LEFT, (0, split)), (Eye.RIGHT, (split, rw))):
        r = foveal_rect_stereo(spec, eye)
        lo, hi = _covered(xs, r.x, r.x + r.w)
        lo, hi = max(lo, first), min(hi, last)
        cols.append((lo, hi) if lo < hi and rows[0] < rows[1] else (0, 0))
    return Holes(rows, tuple(cols))


def frame_rays(spec: PartitionSpec) -> int:
    """The rays a frame shades: both full-rate foveae and the reduced
    periphery but for its holes."""
    rw, rh = reduced_dims(spec)
    return 2 * spec.fov_w * spec.fov_h + rw * rh - periphery_holes(spec).rays


def server_rows(spec: PartitionSpec) -> int:
    """The k top rows of each foveal rect that the server draws; the client
    draws rows [k, fov_h) itself. k is the fewest rows whose rays
    (2 * fov_w * k) are at least half of `frame_rays`, and at most fov_h,
    so always at least 1. Both sides derive it from the hello's geometry."""
    return min(spec.fov_h, -(-frame_rays(spec) // (4 * spec.fov_w)))


def subframe_bands(k: int) -> list[tuple[int, int]]:
    """The row bands [lo, hi) of the server's k foveal rows, one subframe
    each, in order: the top ceil(k / 2) rows, then the rest, or the one
    band [0, 1) when k = 1. A band's subframe carries rows [lo, hi) of both
    eyes side by side, a 2 * fov_w x (hi - lo) image, left eye first."""
    mid = -(-k // 2)
    return [(0, mid), (mid, k)] if k > 1 else [(0, k)]


def server_dims(spec: PartitionSpec) -> str:
    """The rect the server draws per eye, as WxH."""
    return f"{spec.fov_w}x{server_rows(spec)}"


def foveal_rows(rect: Rect, rows: tuple[int, int]) -> Rect:
    """Rows [lo, hi) of a foveal rect, in the rect's own coordinates."""
    lo, hi = rows
    if not 0 <= lo < hi <= rect.h:
        raise GeometryError(f"rows [{lo}, {hi}) are not a band of a {rect.h}-row fovea")
    return Rect(rect.x, rect.y + lo, rect.w, hi - lo)


# The dimensions the system defaults to: 2400x1080 stereo (1200x1080 per
# eye), 512x360 fovea per eye, periphery sampled at 0.6 into 1440x648.
DEFAULT_SPEC = PartitionSpec(2400, 1080, 512, 360, 0.6)
