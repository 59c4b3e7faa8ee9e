"""RGB8 framebuffer helpers.

Images are numpy arrays of shape (height, width, 3), dtype uint8, row-major.
All geometry uses a top-left origin with x growing right and y growing down.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np


class GeometryError(ValueError):
    """An image, rectangle, or dimension pair does not fit its contract."""


class Rect(NamedTuple):
    """Axis-aligned pixel rectangle: top-left origin (x, y), size (w, h)."""

    x: int
    y: int
    w: int
    h: int


def validate_image(img: np.ndarray) -> np.ndarray:
    """Checks that `img` is an RGB8 framebuffer and returns it unchanged."""
    if not isinstance(img, np.ndarray):
        raise GeometryError(f"image must be a numpy array, got {type(img).__name__}")
    if img.dtype != np.uint8:
        raise GeometryError(f"image dtype must be uint8, got {img.dtype}")
    if img.ndim != 3 or img.shape[2] != 3:
        raise GeometryError(f"image shape must be (h, w, 3), got {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise GeometryError(f"image must be at least 1x1, got {img.shape}")
    return img


def crop(img: np.ndarray, rect: Rect) -> np.ndarray:
    """Copies the `rect` subregion out of `img`.

    Raises GeometryError if the rectangle does not lie fully inside the image.
    """
    validate_image(img)
    h, w = img.shape[:2]
    if rect.w < 1 or rect.h < 1:
        raise GeometryError(f"rect size must be at least 1x1, got {rect}")
    if rect.x < 0 or rect.y < 0 or rect.x + rect.w > w or rect.y + rect.h > h:
        raise GeometryError(f"rect {rect} out of bounds for {w}x{h} image")
    return img[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].copy()


def images_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-for-byte equality including shape."""
    return a.shape == b.shape and bool(np.array_equal(a, b))


def write_ppm(path: str, img: np.ndarray) -> None:
    """Writes a binary PPM (P6, maxval 255) to the file at `path`."""
    validate_image(img)
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


_PPM_HEADER = re.compile(rb"^P6\s+(\d+)\s+(\d+)\s+255\s")


def read_ppm(path: str) -> np.ndarray:
    """Reads a binary PPM written by `write_ppm` (plain P6, no comments, at least 1x1)."""
    with open(path, "rb") as f:
        data = f.read()
    m = _PPM_HEADER.match(data)
    if m is None:
        raise GeometryError("not a supported P6 PPM file")
    w, h = int(m.group(1)), int(m.group(2))
    body = data[m.end() : m.end() + w * h * 3]
    if len(body) != w * h * 3:
        raise GeometryError(f"PPM body truncated: expected {w * h * 3} bytes, got {len(body)}")
    return validate_image(np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).copy())
