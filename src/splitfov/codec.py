"""Lossless intra-frame image codecs for streamed subframes.

Two codecs share a wire-stable id: RAW ships pixel bytes verbatim;
PRED_DEFLATE subtracts a left-neighbor prediction per channel (first
column predicted from the row above, the top-left pixel from zero) and
sends only the pixels the prediction missed. Its payload is one raw
DEFLATE stream (RFC 1951) of two parts, for an image of n pixels:

    bitmap      ceil(n/8) bytes, np.packbits of "residual is nonzero" per
                pixel in row-major order; padding bits are zero
    residuals   3 bytes (mod-256 r, g, b) for each set bit, in pixel order

Most rendered pixels equal their left neighbor, so DEFLATE never sees their
zero residuals. Payloads are self-describing given (codec, width, height);
both codecs round-trip every image exactly, and each image has exactly one
PRED_DEFLATE payload per build: the decoder refuses a corrupt, truncated,
oversized or trailing-garbage stream, a stream shorter than its bitmap, a
residual part that is not 3 bytes per set bit, and a set padding bit.
"""

from __future__ import annotations

import zlib
from enum import IntEnum

import numpy as np

from .image import validate_image

# One fixed level keeps encode output byte-stable within a build. On the
# gated foveae (512x360 and 768x540 per eye), level 6 took about 1.8x level
# 5's time for payloads about 10% smaller, and level 4 saved about 1 ms for
# payloads about 10% larger.
_DEFLATE_LEVEL = 5


class CodecId(IntEnum):
    """Wire-stable codec identifiers."""

    RAW = 0
    PRED_DEFLATE = 1


class CodecError(RuntimeError):
    """Payload cannot be decoded: truncated, corrupt, or mis-sized."""


def _predict_residuals(img: np.ndarray) -> np.ndarray:
    res = img.copy()
    res[:, 1:, :] = img[:, 1:, :] - img[:, :-1, :]  # uint8 wraps mod 256
    res[1:, 0, :] = img[1:, 0, :] - img[:-1, 0, :]
    return res


def _unpredict_residuals(res: np.ndarray) -> np.ndarray:
    """Turns residuals back into pixels in place and returns `res`."""
    np.add.accumulate(res[:, 0, :], axis=0, dtype=np.uint8, out=res[:, 0, :])
    return np.add.accumulate(res, axis=1, dtype=np.uint8, out=res)


def encode(codec: CodecId, img: np.ndarray) -> bytes:
    """Encodes an RGB8 image; deterministic for equal inputs."""
    validate_image(img)
    try:
        codec = CodecId(codec)
    except ValueError:
        raise CodecError(f"unknown codec id {codec!r}") from None
    if codec == CodecId.RAW:
        return img.tobytes()
    res = _predict_residuals(img).reshape(-1, 3)
    mask = (res[:, 0] | res[:, 1] | res[:, 2]) != 0
    missed = np.flatnonzero(mask)
    compressor = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = compressor.compress(np.packbits(mask))
    body += compressor.compress(np.take(res, missed, axis=0))
    return body + compressor.flush()


def decode(codec: CodecId, data: bytes, w: int, h: int) -> np.ndarray:
    """Decodes `data` into a w x h RGB8 image.

    Never returns a partial image: a payload that is not the one encoding
    of some w x h image raises CodecError.
    """
    try:
        codec = CodecId(codec)
    except ValueError:
        raise CodecError(f"unknown codec id {codec!r}") from None
    if w < 1 or h < 1:
        raise CodecError(f"image dims must be at least 1x1, got {w}x{h}")
    n = w * h
    if codec == CodecId.RAW:
        if len(data) != 3 * n:
            raise CodecError(f"RAW payload is {len(data)} bytes, expected {3 * n}")
        return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()

    bitmap_len = -(-n // 8)
    decomp = zlib.decompressobj(-zlib.MAX_WBITS)
    try:
        # Cap output one byte past the largest body so corrupt streams cannot balloon.
        raw = decomp.decompress(data, bitmap_len + 3 * n + 1)
    except zlib.error as e:
        raise CodecError(f"DEFLATE stream corrupt: {e}") from None
    if len(raw) < bitmap_len:
        raise CodecError(f"decompressed to {len(raw)} bytes, shorter than the {bitmap_len}-byte bitmap")
    bits = np.frombuffer(raw, dtype=np.uint8, count=bitmap_len)
    if n % 8 and bits[-1] & (0xFF >> n % 8):
        raise CodecError("bitmap sets a padding bit past the last pixel")
    missed = np.flatnonzero(np.unpackbits(bits, count=n).view(np.bool_))
    expected = bitmap_len + 3 * len(missed)
    if len(raw) != expected:
        raise CodecError(
            f"decompressed to {len(raw)} bytes, expected {expected} "
            f"(a {bitmap_len}-byte bitmap and 3 bytes for each of its {len(missed)} set bits)"
        )
    if not decomp.eof:
        raise CodecError("DEFLATE stream truncated or oversized")
    if decomp.unused_data:
        raise CodecError(f"{len(decomp.unused_data)} trailing bytes after DEFLATE stream")
    img = np.zeros((h, w, 3), dtype=np.uint8)
    # One 3-byte item per pixel scatters each residual triple as one copy.
    img.reshape(-1).view("V3")[missed] = np.frombuffer(raw, dtype="V3", offset=bitmap_len)
    return _unpredict_residuals(img)
