"""Lossless intra-frame image codecs for streamed subframes.

Two codecs share a wire-stable id: RAW ships pixel bytes verbatim;
PRED_DEFLATE subtracts a left-neighbor prediction per channel (first
column predicted from the row above, the top-left pixel from zero) and
sends only the pixels the prediction missed, most of them in one byte. Its
payload is one raw DEFLATE stream (RFC 1951) of three parts, for an image
of n pixels, each of the first two ended by a Z_BLOCK flush so that each
part gets its own Huffman codes:

    bitmap      ceil(n/8) bytes, np.packbits of "residual is nonzero" per
                pixel in row-major order; padding bits are zero
    symbols     1 byte for each set bit, in pixel order: a residual whose
                r, g and b all lie in [-2, 2] as int8 is coded as
                1 + 25(r+2) + 5(g+2) + (b+2), any other as ESCAPE (126)
    escapes     3 bytes (mod-256 r, g, b) for each ESCAPE symbol, in pixel
                order

Most rendered pixels equal their left neighbor, so DEFLATE never sees their
zero residuals, and most of the rest differ from it by a shade or two.
`encode` takes RGB8 (h, w, 3) or RGBX8 (h, w, 4) images, the latter being
the server's layout, down one code path; the fourth byte is ignored, so
both give the same body, and `decode` returns RGB8.
Payloads are self-describing given (codec, width, height); both codecs
round-trip every image exactly, and each image has exactly one
PRED_DEFLATE body: the decoder refuses a corrupt, truncated, oversized or
trailing-garbage stream, a stream shorter than its bitmap, a set padding
bit, a symbol outside the alphabet (0, the zero residual 63, 127-255), an
escaped residual the alphabet could code, and a body that is not the
bitmap, one symbol per set bit and 3 bytes per escape.
"""

from __future__ import annotations

import zlib
from enum import IntEnum

import numpy as np

from .image import validate_image

# One fixed level keeps encode output byte-stable within a build. On the
# server's rows of the gated foveae (512x360 and 768x346 per eye), against
# level 5: level 4 gave payloads 4% larger in 0.78-0.85 of the encode time,
# level 6 3% smaller in 1.41-1.46 of it, and level 7 3.5% smaller in 2.1-2.2.
_DEFLATE_LEVEL = 5

# A residual whose r, g and b all lie in [-2, 2] as int8 is the one symbol
# 1 + 25(r+2) + 5(g+2) + (b+2), in [1, 125]; any other is _ESCAPE, then its
# 3 bytes. _ZERO is the zero residual's symbol, which the bitmap excludes.
_ESCAPE = 126
_ZERO = 63


def _symbol_tables() -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Per channel, each residual byte's share of the symbol (_ESCAPE if it
    does not fit), whose sum, capped at _ESCAPE, is the symbol; each
    symbol's residual triple as a 256-entry "V3" table (zero for _ESCAPE
    and the invalid symbols); and which bytes may appear as symbols. Built
    in plain Python: building them with numpy routines that nothing else
    calls mapped about 0.4 MB more of numpy's code into each process."""
    digits = [(b if b < 128 else b - 256) + 2 for b in range(256)]
    shares = [np.array([weight * d + one if 0 <= d <= 4 else _ESCAPE for d in digits], dtype=np.uint16)
              for weight, one in ((25, 0), (5, 0), (1, 1))]
    triples = bytearray(3)  # symbol 0
    for code in range(125):
        triples += bytes((d - 2) & 0xFF for d in (code // 25, code // 5 % 5, code % 5))
    triples += bytes(3 * (256 - 126))
    valid = np.array([1 <= s <= _ESCAPE and s != _ZERO for s in range(256)])
    return shares, np.frombuffer(bytes(triples), dtype="V3"), valid


_SYMBOL_SHARES, _SYMBOL_TRIPLE, _SYMBOL_VALID = _symbol_tables()

# An RGBX pixel's r, g and b bits as one uint32, built from bytes so that it
# holds in either byte order.
_RGB_BITS = np.frombuffer(b"\xff\xff\xff\x00", dtype=np.uint32)[0]


class CodecId(IntEnum):
    """Wire-stable codec identifiers."""

    RAW = 0
    PRED_DEFLATE = 1


class CodecError(RuntimeError):
    """Payload cannot be decoded: truncated, corrupt, or mis-sized."""


def _predict_residuals(img: np.ndarray) -> np.ndarray:
    """Each byte minus its left neighbour's (the first column's minus the
    row above's, the top-left pixel's minus 0), mod 256, in a fresh
    C-contiguous array of `img`'s shape; subtracted in place, with no
    temporary."""
    res = np.empty_like(img, order="C")
    np.subtract(img[:, 1:], img[:, :-1], out=res[:, 1:])  # uint8 wraps mod 256
    np.subtract(img[1:, 0], img[:-1, 0], out=res[1:, 0])
    res[0, 0] = img[0, 0]
    return res


def _unpredict_residuals(res: np.ndarray) -> np.ndarray:
    """Turns residuals back into pixels in place and returns `res`."""
    np.add.accumulate(res[:, 0, :], axis=0, dtype=np.uint8, out=res[:, 0, :])
    return np.add.accumulate(res, axis=1, dtype=np.uint8, out=res)


def _symbols(residuals: np.ndarray) -> np.ndarray:
    """Each row's symbol byte for the (m, 3) or (m, 4) uint8 `residuals`,
    from the first three bytes of each row: three table lookups and two
    adds, _ESCAPE where a channel does not fit."""
    symbols = np.take(_SYMBOL_SHARES[0], residuals[:, 0])
    symbols += np.take(_SYMBOL_SHARES[1], residuals[:, 1])
    symbols += np.take(_SYMBOL_SHARES[2], residuals[:, 2])
    return np.minimum(symbols, _ESCAPE, out=symbols).astype(np.uint8)


def encode(codec: CodecId, img: np.ndarray) -> bytes:
    """Encodes an RGB8 (h, w, 3) or RGBX8 (h, w, 4) image; deterministic
    for equal inputs. An RGBX image's fourth byte is ignored: its body is
    byte-identical to that of its RGB image `img[..., :3]`."""
    rgbx = isinstance(img, np.ndarray) and img.ndim == 3 and img.shape[2] == 4
    validate_image(img[..., :3] if rgbx else img)
    try:
        codec = CodecId(codec)
    except ValueError:
        raise CodecError(f"unknown codec id {codec!r}") from None
    if codec == CodecId.RAW:
        return img[..., :3].tobytes()
    res = _predict_residuals(img).reshape(-1, img.shape[2])
    if rgbx:
        # One uint32 compare per pixel, once the fourth byte is cleared.
        items = res.view(np.uint32).reshape(-1)
        items &= _RGB_BITS
        mask = items != 0
    else:
        mask = (res[:, 0] | res[:, 1] | res[:, 2]) != 0
    # The missed pixels' residuals, gathered as whole rows; only the few
    # escapes among them are cut to 3 bytes.
    missed = np.take(res, np.flatnonzero(mask), axis=0)
    symbols = _symbols(missed)
    escapes = np.compress(symbols == _ESCAPE, missed, axis=0)[:, :3]
    compressor = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = compressor.compress(np.packbits(mask)) + compressor.flush(zlib.Z_BLOCK)
    body += compressor.compress(symbols) + compressor.flush(zlib.Z_BLOCK)
    body += compressor.compress(escapes.tobytes())
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
        # Cap output one byte past the largest body (every pixel escaped) so
        # corrupt streams cannot balloon.
        raw = decomp.decompress(data, bitmap_len + 4 * n + 1)
    except zlib.error as e:
        raise CodecError(f"DEFLATE stream corrupt: {e}") from None
    if len(raw) < bitmap_len:
        raise CodecError(f"decompressed to {len(raw)} bytes, shorter than the {bitmap_len}-byte bitmap")
    bits = np.frombuffer(raw, dtype=np.uint8, count=bitmap_len)
    if n % 8 and bits[-1] & (0xFF >> n % 8):
        raise CodecError("bitmap sets a padding bit past the last pixel")
    missed = np.unpackbits(bits, count=n).view(np.bool_)
    m = int(np.count_nonzero(missed))
    symbols = np.frombuffer(raw, dtype=np.uint8, count=min(m, len(raw) - bitmap_len), offset=bitmap_len)
    valid = np.take(_SYMBOL_VALID, symbols)
    if not valid.all():
        raise CodecError(f"symbol {symbols[np.argmin(valid)]} is outside the alphabet")
    escaped = symbols == _ESCAPE
    n_escaped = int(np.count_nonzero(escaped))
    expected = bitmap_len + m + 3 * n_escaped
    if len(raw) != expected:
        raise CodecError(
            f"decompressed to {len(raw)} bytes, expected {expected} (a {bitmap_len}-byte bitmap, "
            f"a symbol for each of its {m} set bits and 3 bytes for each of {n_escaped} escapes)"
        )
    if not decomp.eof:
        raise CodecError("DEFLATE stream truncated or oversized")
    if decomp.unused_data:
        raise CodecError(f"{len(decomp.unused_data)} trailing bytes after DEFLATE stream")
    escapes = np.frombuffer(raw, dtype=np.uint8, offset=bitmap_len + m).reshape(-1, 3)
    if (_symbols(escapes) != _ESCAPE).any():
        raise CodecError("an escaped residual fits the one-byte alphabet")
    residuals = np.take(_SYMBOL_TRIPLE, symbols)
    residuals[escaped] = escapes.reshape(-1).view("V3")
    img = np.zeros((h, w, 3), dtype=np.uint8)
    # One 3-byte item per pixel scatters each residual triple as one copy.
    img.reshape(-1).view("V3")[missed] = residuals
    return _unpredict_residuals(img)
