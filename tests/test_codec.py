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
from splitfov.image import GeometryError, Rect
from splitfov.render import render_region

POSE = pose_at(CameraPath(frame_count=9), 2)


def random_image(rng, w, h):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def deflate(body: bytes, level: int = 9) -> bytes:
    compressor = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS)
    return compressor.compress(body) + compressor.flush()


def deflate_parts(parts: list[bytes]) -> list[bytes]:
    """The prefixes of one level-5 raw DEFLATE stream of `parts` that end
    each part: a Z_BLOCK flush after each part but the last, then the end."""
    compressor = zlib.compressobj(5, zlib.DEFLATED, -zlib.MAX_WBITS)
    stream, prefixes = b"", []
    for i, part in enumerate(parts):
        stream += compressor.compress(part)
        stream += compressor.flush(zlib.Z_BLOCK if i < len(parts) - 1 else zlib.Z_FINISH)
        prefixes.append(stream)
    return prefixes


def definitional_body(img: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """The three parts of `img`'s PRED_DEFLATE body, by the format's
    definition: the bitmap, then per missed pixel 1 + 25(r+2) + 5(g+2) +
    (b+2) for int8 residuals in [-2, 2] or 126, then the escapes' bytes."""
    res = _predict_residuals(img).reshape(-1, 3)
    missed = res[res.any(axis=1)]
    signed = missed.view(np.int8).astype(np.int64)
    fits = (np.abs(signed) <= 2).all(axis=1)
    symbols = np.where(fits, 1 + (signed + 2) @ np.array([25, 5, 1]), 126)
    return (np.packbits(res.any(axis=1)).tobytes(), symbols.astype(np.uint8).tobytes(),
            missed[~fits].tobytes())


# A 3x2 image whose predictor misses only pixels 0 and 2 (row-major): the
# top-left is predicted from zero, pixel 2 differs from its left neighbour by
# (1, 0, 0), and row 1 repeats row 0 (its first column is predicted from above).
TINY = np.array([[[10, 20, 30], [10, 20, 30], [11, 20, 30]],
                 [[10, 20, 30], [10, 20, 30], [10, 20, 30]]], dtype=np.uint8)
TINY_BITMAP = bytes([0b1010_0000])  # 6 pixel bits, then 2 padding bits
# Pixel 0's (10, 20, 30) does not fit the alphabet and is escaped; pixel 2's
# (1, 0, 0) is 1 + 25 * 3 + 5 * 2 + 2 = 88.
TINY_SYMBOLS = bytes([126, 88])
TINY_ESCAPES = bytes([10, 20, 30])


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


def with_fourth_byte(rgb: np.ndarray, fourth: np.ndarray | int = 0) -> np.ndarray:
    """`rgb` as an (h, w, 4) RGBX image with the given fourth byte."""
    rgbx = np.empty(rgb.shape[:2] + (4,), dtype=np.uint8)
    rgbx[..., :3] = rgb
    rgbx[..., 3] = fourth
    return rgbx


@st.composite
def rgb_images(draw):
    """Images of 1x1, 1xN, Nx1 or random size, of noise, of few colours in
    runs (mostly zero residuals), or of shades at the alphabet's edge."""
    shape = draw(st.sampled_from(["1x1", "1xN", "Nx1", "random"]))
    w = {"1x1": 1, "Nx1": 1}.get(shape) or draw(st.integers(1, 90))
    h = {"1x1": 1, "1xN": 1}.get(shape) or draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "runs", "edge"]))
    if kind == "noise":
        return random_image(rng, w, h)
    if kind == "runs":
        palette = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
        return palette[np.repeat(rng.integers(0, 3, size=w * h // 4 + 1), 4)[: w * h]].reshape(h, w, 3)
    steps = rng.integers(-3, 4, size=(h, w, 3)).astype(np.uint8)
    return np.add.accumulate(steps, axis=1, dtype=np.uint8)


class TestRgbxInput:
    """`encode` takes the server's RGBX rows as drawn: an RGBX image's body
    is byte-identical to its RGB image's, for both codecs. Its fourth byte
    is ignored, whatever it holds."""

    @settings(max_examples=200, deadline=None)
    @given(img=rgb_images(), codec=st.sampled_from(CodecId), seed=st.integers(0, 2**32 - 1),
           fourth=st.sampled_from(["zero", "constant", "noise"]))
    def test_body_equals_the_rgb_body(self, img, codec, seed, fourth):
        rng = np.random.default_rng(seed)
        x = {"zero": 0, "constant": 0xFF,
             "noise": rng.integers(0, 256, size=img.shape[:2], dtype=np.uint8)}[fourth]
        assert encode(codec, with_fourth_byte(img, x)) == encode(codec, img)

    @pytest.mark.parametrize("codec", [CodecId.RAW, CodecId.PRED_DEFLATE])
    def test_rendered_rows(self, scene, rig, codec):
        rect = Rect(10, 5, 48, 40)
        rgb = render_region(scene, rig, POSE, 0, (80, 60), rect)
        rgbx = render_region(scene, rig, POSE, 0, (80, 60), rect, rgbx=True)
        body = encode(codec, rgbx)
        assert body == encode(codec, rgb)
        assert decode(codec, body, rect.w, rect.h).tobytes() == rgb.tobytes()

    def test_a_strided_view_encodes_as_its_copy(self):
        rgbx = with_fourth_byte(random_image(np.random.default_rng(3), 40, 30), 7)
        view = rgbx[::2, 1::3]
        for codec in CodecId:
            assert encode(codec, view) == encode(codec, np.ascontiguousarray(view[..., :3]))

    @pytest.mark.parametrize("shape", [(4, 4, 2), (4, 4, 5), (4, 4), (0, 4, 4), (4, 0, 4)])
    def test_other_shapes_are_refused(self, shape):
        for codec in CodecId:
            with pytest.raises(GeometryError):
                encode(codec, np.zeros(shape, dtype=np.uint8))

    def test_an_rgbx_image_of_another_dtype_is_refused(self):
        with pytest.raises(GeometryError):
            encode(CodecId.PRED_DEFLATE, np.zeros((2, 2, 4), dtype=np.uint16))


class TestLayout:
    def test_hand_computed_body(self):
        payload = encode(CodecId.PRED_DEFLATE, TINY)
        assert zlib.decompress(payload, -zlib.MAX_WBITS) == TINY_BITMAP + TINY_SYMBOLS + TINY_ESCAPES
        # One stream, a Z_BLOCK flush after each of the first two parts.
        assert payload == deflate_parts([TINY_BITMAP, TINY_SYMBOLS, TINY_ESCAPES])[-1]
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
        res = _predict_residuals(img).reshape(-1, 3)
        missed = res[res.any(axis=1)].view(np.int8)
        n_escaped = int(np.count_nonzero((np.abs(missed.astype(np.int64)) > 2).any(axis=1)))
        body = zlib.decompress(payload, -zlib.MAX_WBITS)
        assert len(body) == -(-w * h // 8) + len(missed) + 3 * n_escaped
        assert body == b"".join(definitional_body(img))

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.integers(1, 40),
        h=st.integers(1, 24),
        kind=st.sampled_from(["edges", "no-escape", "all-escape"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residuals_at_the_alphabet_edge_round_trip(self, w, h, kind, seed):
        # Residuals (as int8) of 0, +-1, +-2 fit a symbol; +-3, -128 and 127
        # escape, and 0/255 pixels make them wrap around mod 256.
        rng = np.random.default_rng(seed)
        fit, escape = [0, 1, 2, 254, 255], [3, 253, 127, 128]
        res = rng.choice(fit + escape if kind == "edges" else fit, size=(h, w, 3)).astype(np.uint8)
        if kind == "all-escape":
            res[..., rng.integers(0, 3)] = rng.choice(escape, size=(h, w))
        img = _unpredict_residuals(res.copy())
        if kind == "edges":
            img[rng.random((h, w)) < 0.2] = rng.choice([0, 255], size=3)
        payload = encode(CodecId.PRED_DEFLATE, img)
        assert np.array_equal(decode(CodecId.PRED_DEFLATE, payload, w, h), img)
        bitmap, symbols, escapes = definitional_body(img)
        assert zlib.decompress(payload, -zlib.MAX_WBITS) == bitmap + symbols + escapes
        if kind == "no-escape":
            assert escapes == b""
        if kind == "all-escape":
            assert symbols == bytes([126]) * (w * h) and len(escapes) == 3 * w * h

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

    # After the bitmap, TINY's body is 2 symbols and 1 escaped triple. The
    # cases: the triple alone (read as symbols 10 and 20, which escape
    # nothing, and a stray byte), the body and a second triple, the body one
    # byte short, and the symbols with no triple.
    @pytest.mark.parametrize("residuals", [TINY_ESCAPES, TINY_SYMBOLS + TINY_ESCAPES + bytes(3),
                                           TINY_SYMBOLS + TINY_ESCAPES[:-1], TINY_SYMBOLS],
                             ids=["one-triple", "three-triples", "one-byte-short", "none"])
    def test_residuals_not_three_bytes_per_set_bit(self, residuals):
        with pytest.raises(CodecError, match="decompressed to .* set bits and 3 bytes for each of [01] escapes"):
            decode(CodecId.PRED_DEFLATE, deflate(TINY_BITMAP + residuals), 3, 2)

    @pytest.mark.parametrize("symbols", [TINY_SYMBOLS[:1], TINY_SYMBOLS + bytes([88])],
                             ids=["one-short", "one-extra"])
    def test_symbols_not_one_per_set_bit(self, symbols):
        with pytest.raises(CodecError, match="decompressed to .* set bits"):
            decode(CodecId.PRED_DEFLATE, deflate(TINY_BITMAP + symbols + TINY_ESCAPES), 3, 2)

    @pytest.mark.parametrize("symbol", [0, 63, 127, 128, 200, 255])
    def test_symbol_outside_the_alphabet(self, symbol):
        # 63 is the zero triple, which the bitmap already excludes.
        with pytest.raises(CodecError, match=f"^symbol {symbol} is outside the alphabet"):
            decode(CodecId.PRED_DEFLATE, deflate(TINY_BITMAP + bytes([126, symbol]) + TINY_ESCAPES), 3, 2)

    @pytest.mark.parametrize("triple", [(1, 0, 0), (254, 2, 0), (0, 0, 0), (2, 2, 2)])
    def test_escaped_triple_that_fits(self, triple):
        # Pixel 2 escaped, although its triple has a one-byte symbol.
        body = TINY_BITMAP + bytes([126, 126]) + TINY_ESCAPES + bytes(triple)
        with pytest.raises(CodecError, match="escaped residual fits"):
            decode(CodecId.PRED_DEFLATE, deflate(body), 3, 2)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_set_padding_bit(self, extra):
        # The padding bit would otherwise give TINY a second payload (extra=0)
        # or name a seventh pixel (extra=1).
        padded = bytes([TINY_BITMAP[0] | 0b01])
        body = padded + TINY_SYMBOLS + bytes([88]) * extra + TINY_ESCAPES
        with pytest.raises(CodecError, match="padding bit"):
            decode(CodecId.PRED_DEFLATE, deflate(body), 3, 2)

    def test_truncated_at_each_part_boundary(self):
        img = np.array([[[10, 20, 30], [11, 20, 30], [40, 0, 0], [40, 0, 0]]], dtype=np.uint8)
        parts = definitional_body(img)
        assert all(parts)  # a bitmap, symbols and escapes
        prefixes = deflate_parts(list(parts))
        payload = encode(CodecId.PRED_DEFLATE, img)
        assert payload == prefixes[-1]
        ends = (len(prefixes[0]), len(prefixes[1]), len(payload) - 1)
        for cut in sorted({min(end + d, len(payload) - 1) for end in ends for d in (-1, 0, 1)}):
            with pytest.raises(CodecError):
                decode(CodecId.PRED_DEFLATE, payload[:cut], 4, 1)

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
