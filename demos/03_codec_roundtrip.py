"""
Lossless subframe compression
=============================

The foveal subframes cross the link losslessly. The default codec runs a
left-neighbor prediction filter per channel and deflates three parts: a
bitmap of the pixels the prediction missed, one symbol byte per missed
pixel, and the 3 residual bytes of each missed pixel whose symbol is the
escape. Rendered content compresses well because most of its pixels equal
their left neighbor, so DEFLATE never sees their zero residuals, and most
of the rest differ from it by at most 2 per channel, which one symbol codes.
"""

import zlib

import numpy as np

from splitfov import (
    CameraPath, CameraRig, CodecError, CodecId, Rect, SceneConfig,
    decode, encode, pose_at, render_region,
)

#%%
# The filter by hand on a tiny image: each residual is the pixel minus its
# left neighbor (mod 256), so a flat row costs almost nothing.
row = np.array([[[10, 10, 10], [30, 20, 30], [30, 20, 30]]], dtype=np.uint8)
raw = encode(CodecId.RAW, row)
packed = encode(CodecId.PRED_DEFLATE, row)
print("RAW bytes:         ", len(raw))
print("PRED_DEFLATE bytes:", len(packed))

#%%
# On this rendered fovea the payload is about 10x smaller than RAW. Noise, by
# contrast, has no structure to predict: nearly every pixel is in the bitmap,
# which deflates to almost nothing, and the payload stays near 1x.
scene, rig = SceneConfig(), CameraRig()
pose = pose_at(CameraPath(frame_count=8), 3)
fovea = render_region(scene, rig, pose, 0, (600, 270), Rect(236, 90, 128, 90))
noise = np.random.default_rng(0).integers(0, 256, size=fovea.shape, dtype=np.uint8)

for name, img in (("rendered fovea", fovea), ("uniform noise", noise)):
    plain = len(encode(CodecId.RAW, img))
    packed = len(encode(CodecId.PRED_DEFLATE, img))
    print(f"{name}: {plain} -> {packed} bytes ({plain / packed:.2f}x)")

#%%
# Where the bytes go: inflate each payload and split its body into the
# bitmap (one bit per pixel), the symbols (one byte per set bit; 126 is the
# escape) and the escaped pixels' residual triples. The rendered fovea's
# symbols are mostly one-byte codes; noise escapes nearly every pixel.
for name, img in (("rendered fovea", fovea), ("uniform noise", noise)):
    payload = encode(CodecId.PRED_DEFLATE, img)
    body = zlib.decompress(payload, -zlib.MAX_WBITS)
    bitmap_len = -(-img.shape[0] * img.shape[1] // 8)
    n_symbols = int(np.unpackbits(np.frombuffer(body[:bitmap_len], dtype=np.uint8)).sum())
    n_escapes = body[bitmap_len : bitmap_len + n_symbols].count(126)
    print(f"{name}: bitmap {bitmap_len} bytes, {n_symbols} symbols, "
          f"{n_escapes / max(n_symbols, 1):.1%} escaped, deflated to {len(payload)} bytes")

#%%
# Round trips are exact. Not close: exact.
out = decode(CodecId.PRED_DEFLATE, encode(CodecId.PRED_DEFLATE, fovea), 128, 90)
assert out.tobytes() == fovea.tobytes()
print("round trip: byte-identical")

#%%
# The decoder is strict. A truncated payload raises instead of returning a
# partial image, and a payload for the wrong dimensions raises too.
payload = encode(CodecId.PRED_DEFLATE, fovea)
for bad_case, args in (
    ("truncated payload", (CodecId.PRED_DEFLATE, payload[:50], 128, 90)),
    ("wrong dimensions", (CodecId.PRED_DEFLATE, payload, 64, 90)),
):
    try:
        decode(*args)
    except CodecError as e:
        print(f"{bad_case}: CodecError: {e}")
