import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitfov.camera import CameraPath, pose_at
from splitfov.codec import (
    CodecError,
    CodecId,
    _predict_residuals,
    _unpredict_residuals,
    decode,
    encode,
)
from splitfov.image import Rect
from splitfov.render import render_region

POSE = pose_at(CameraPath(frame_count=9), 2)


def random_image(rng, w, h):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def deflate(body: bytes, level: int = 9) -> bytes:
    compressor = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    return compressor.compress(body) + compressor.flush()


# A 3x2 image whose predictor misses only pixels 0 and 2 (row-major): the
# top-left is predicted from zero, pixel 2 differs from its left neighbour by
# (1, 0, 0), and row 1 repeats row 0 (its first column is predicted from above).
TINY = np.array([[[10, 20, 30], [10, 20, 30], [11, 20, 30]],
                 [[10, 20, 30], [10, 20, 30], [10, 20, 30]]], dtype=np.uint8)
TINY_BITMAP = bytes([0b1010_0000])  # 6 pixel bits, then 2 padding bits
TINY_RESIDUALS = bytes([10, 20, 30, 1, 0, 0])


class TestPredictor:
    def test_hand_computed_residuals(self):
        # first column predicted from the pixel above (top-left from 0),
        # everything else from its left neighbor
        img = np.array([[10, 20, 30], [40, 60, 90]], dtype=np.uint8)[..., None].repeat(3, axis=2)
        want = np.array([[10, 10, 10], [30, 20, 30]], dtype=np.uint8)
        res = _predict_residuals(img)
        for c in range(3):
            assert np.array_equal(res[..., c], want)

    def test_wraparound_residuals(self):
        img = np.array([[5, 250, 5]], dtype=np.uint8)[..., None].repeat(3, axis=2)
        assert _predict_residuals(img)[0, :, 0].tolist() == [5, 245, 11]

    def test_inverse(self):
        rng = np.random.default_rng(3)
        for w, h in ((1, 1), (1, 7), (7, 1), (13, 11), (64, 64)):
            img = random_image(rng, w, h)
            assert np.array_equal(_unpredict_residuals(_predict_residuals(img)), img)

    def test_constant_image_residuals_mostly_zero(self):
        img = np.full((8, 8, 3), 77, dtype=np.uint8)
        res = _predict_residuals(img)
        assert res[0, 0, 0] == 77
        assert res.sum() == 77 * 3  # every other residual is 0


class TestRoundTrip:
    @pytest.mark.parametrize("codec", [CodecId.RAW, CodecId.PRED_DEFLATE])
    def test_random_images(self, codec):
        rng = np.random.default_rng(int(codec) + 10)
        for _ in range(60):
            w = int(rng.integers(1, 90))
            h = int(rng.integers(1, 70))
            img = random_image(rng, w, h)
            assert np.array_equal(decode(codec, encode(codec, img), w, h), img)

    @pytest.mark.parametrize("codec", [CodecId.RAW, CodecId.PRED_DEFLATE])
    def test_rendered_content(self, scene, rig, codec):
        img = render_region(scene, rig, POSE, 0, (80, 60), Rect(10, 5, 48, 40))
        out = decode(codec, encode(codec, img), 48, 40)
        assert out.tobytes() == img.tobytes()

    def test_extreme_sizes(self):
        rng = np.random.default_rng(0)
        for w, h in ((1, 1), (257, 1), (1, 129), (257, 129)):
            img = random_image(rng, w, h)
            for codec in (CodecId.RAW, CodecId.PRED_DEFLATE):
                assert np.array_equal(decode(codec, encode(codec, img), w, h), img)

    def test_encode_deterministic(self, scene, rig):
        img = render_region(scene, rig, POSE, 0, (64, 48), Rect(0, 0, 64, 48))
        assert encode(CodecId.PRED_DEFLATE, img) == encode(CodecId.PRED_DEFLATE, img)


class TestPayloads:
    def test_raw_is_row_major_bytes(self):
        img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        assert encode(CodecId.RAW, img) == img.tobytes()

    def test_deflate_compresses_rendered_content(self, scene, rig):
        img = render_region(scene, rig, POSE, 0, (128, 96), Rect(0, 0, 128, 96))
        assert len(encode(CodecId.PRED_DEFLATE, img)) < len(encode(CodecId.RAW, img))

    def test_unknown_codec_rejected(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        with pytest.raises(CodecError):
            encode(7, img)  # type: ignore[arg-type]
        with pytest.raises(CodecError):
            decode(7, b"\x00" * 12, 2, 2)  # type: ignore[arg-type]


class TestLayout:
    def test_hand_computed_body(self):
        payload = encode(CodecId.PRED_DEFLATE, TINY)
        assert zlib.decompress(payload, -zlib.MAX_WBITS) == TINY_BITMAP + TINY_RESIDUALS
        assert np.array_equal(decode(CodecId.PRED_DEFLATE, payload, 3, 2), TINY)

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.integers(1, 48),
        h=st.integers(1, 32),
        palette=st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=1, max_size=4),
        run=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_few_colour_round_trip(self, w, h, palette, run, seed):
        # Runs of one palette colour: one colour leaves only the top-left pixel
        # in the mask, runs of 1 over several colours fill most of it.
        rng = np.random.default_rng(seed)
        runs = rng.integers(0, len(palette), size=(h, -(-w // run)))
        img = np.array(palette, dtype=np.uint8)[runs[:, np.arange(w) // run]]
        payload = encode(CodecId.PRED_DEFLATE, img)
        assert np.array_equal(decode(CodecId.PRED_DEFLATE, payload, w, h), img)
        res = _predict_residuals(img)
        n_missed = int(np.count_nonzero(res.any(axis=2)))
        assert len(zlib.decompress(payload, -zlib.MAX_WBITS)) == -(-w * h // 8) + 3 * n_missed

    @pytest.mark.parametrize("w, h, bound", [(128, 90, 0.005), (768, 540, 0.001)])
    def test_noise_barely_grows(self, w, h, bound):
        # Nearly every noise pixel is in the mask; DEFLATE shrinks the all-ones
        # bitmap to almost nothing. Measured growth over deflating the whole
        # residual stream at level 6: +0.13% at 128x90, +0.02% at 768x540.
        img = random_image(np.random.default_rng(0), w, h)
        whole_stream = len(deflate(_predict_residuals(img).tobytes(), level=6))
        assert len(encode(CodecId.PRED_DEFLATE, img)) <= whole_stream * (1 + bound)


class TestStrictDecode:
    def test_raw_wrong_length(self):
        with pytest.raises(CodecError):
            decode(CodecId.RAW, b"\x00" * 11, 2, 2)
        with pytest.raises(CodecError):
            decode(CodecId.RAW, b"\x00" * 13, 2, 2)

    def test_truncated_deflate(self):
        img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        payload = encode(CodecId.PRED_DEFLATE, img)
        with pytest.raises(CodecError):
            decode(CodecId.PRED_DEFLATE, payload[:-1], 4, 4)

    def test_trailing_garbage_rejected(self):
        img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        payload = encode(CodecId.PRED_DEFLATE, img)
        with pytest.raises(CodecError):
            decode(CodecId.PRED_DEFLATE, payload + b"\x01", 4, 4)

    def test_dims_mismatch(self):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        payload = encode(CodecId.PRED_DEFLATE, img)  # a 2-byte bitmap, no residuals
        with pytest.raises(CodecError, match="^decompressed to 2 bytes, shorter than the 3-byte bitmap"):
            decode(CodecId.PRED_DEFLATE, payload, 4, 5)

    @pytest.mark.parametrize("residuals", [TINY_RESIDUALS[:3], TINY_RESIDUALS + bytes(3),
                                           TINY_RESIDUALS[:-1], b""],
                             ids=["one-triple", "three-triples", "one-byte-short", "none"])
    def test_residuals_not_three_bytes_per_set_bit(self, residuals):
        with pytest.raises(CodecError, match="decompressed to .* set bits"):
            decode(CodecId.PRED_DEFLATE, deflate(TINY_BITMAP + residuals), 3, 2)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_set_padding_bit(self, extra):
        # The padding bit would otherwise give TINY a second payload (extra=0)
        # or name a seventh pixel (extra=1).
        padded = bytes([TINY_BITMAP[0] | 0b01])
        with pytest.raises(CodecError, match="padding bit"):
            decode(CodecId.PRED_DEFLATE, deflate(padded + TINY_RESIDUALS + bytes(3 * extra)), 3, 2)

    def test_bad_dims(self):
        with pytest.raises(CodecError):
            decode(CodecId.RAW, b"", 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_garbage_never_crashes(self, blob):
        # arbitrary payloads must either decode (only the exact raw length
        # can) or raise CodecError; anything else is a bug
        for codec in (CodecId.RAW, CodecId.PRED_DEFLATE):
            try:
                out = decode(codec, blob, 3, 3)
                assert out.shape == (3, 3, 3)
            except CodecError:
                pass
