"""Image-space split geometry: centered foveal rect, reduced peripheral dims.

The stereo frame is two side-by-side eye viewports. Each eye gets a
centered foveal rectangle rendered at full sampling rate; everything else
is peripheral and rendered into a buffer scaled down by `periph_scale`.
Odd centering remainders floor toward the top-left. The server draws the
top `server_rows` rows of each foveal rect and the client draws the rest,
which splits the frame's rays about evenly wherever the foveae hold more
than half of them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .image import GeometryError, Rect
from .wire import DEFAULT_MAX_FRAME, MAX_DIM, SUBFRAME_HEADER

# The least peripheral scale: 1/MAX_DIM as the hello's f32 carries it, so a
# scale the client accepts stays accepted on the server. Below 1/MAX_DIM
# every frame the wire can carry has a one-pixel periphery, and far below
# it the renderer's float32 shading overflows.
MIN_SCALE = struct.unpack("<f", struct.pack("<f", 1 / MAX_DIM))[0]


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
    one eye's RAW subframe must fit the wire's frame cap. Construction
    raises PartitionError listing every violated invariant.
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
        raw_frame = 3 * self.fov_w * self.fov_h + SUBFRAME_HEADER
        if raw_frame > DEFAULT_MAX_FRAME:
            violations.append(f"one eye's RAW subframe is a {raw_frame}-byte frame, above the"
                              f" wire's frame cap of {DEFAULT_MAX_FRAME} bytes")
        if violations:
            raise PartitionError("; ".join(violations))

    @property
    def eye_w(self) -> int:
        return self.full_w // 2

    @property
    def eye_h(self) -> int:
        return self.full_h

    @classmethod
    def from_full(cls, full_w: int, full_h: int, fov_w: int, fov_h: int, periph_scale: float) -> "PartitionSpec":
        return cls(full_w, full_h, fov_w, fov_h, periph_scale)


# The dimensions the system defaults to: 2400x1080 stereo (1200x1080 per
# eye), 512x360 fovea per eye, periphery sampled at 0.6 into 1440x648.
DEFAULT_SPEC = PartitionSpec(2400, 1080, 512, 360, 0.6)


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


def frame_rays(spec: PartitionSpec) -> int:
    """The rays a frame shades: both full-rate foveae and the reduced periphery."""
    rw, rh = reduced_dims(spec)
    return 2 * spec.fov_w * spec.fov_h + rw * rh


def server_rows(spec: PartitionSpec) -> int:
    """The k top rows of each foveal rect that the server draws; the client
    draws rows [k, fov_h) itself. k is the fewest rows whose rays
    (2 * fov_w * k) are at least half of `frame_rays`, and at most fov_h,
    so always at least 1. Both sides derive it from the hello's geometry."""
    return min(spec.fov_h, -(-frame_rays(spec) // (4 * spec.fov_w)))


def server_dims(spec: PartitionSpec) -> str:
    """The rect the server draws per eye, as WxH."""
    return f"{spec.fov_w}x{server_rows(spec)}"


def foveal_rows(rect: Rect, rows: tuple[int, int]) -> Rect:
    """Rows [lo, hi) of a foveal rect, in the rect's own coordinates."""
    lo, hi = rows
    if not 0 <= lo < hi <= rect.h:
        raise GeometryError(f"rows [{lo}, {hi}) are not a band of a {rect.h}-row fovea")
    return Rect(rect.x, rect.y + lo, rect.w, hi - lo)
