import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splitfov import partition
from splitfov.image import GeometryError, Rect
from splitfov.partition import (
    DEFAULT_SPEC,
    Eye,
    PartitionError,
    PartitionSpec,
    foveal_rect,
    foveal_rect_stereo,
    foveal_rows,
    nearest_map,
    periphery_holes,
    reduced_dims,
    server_dims,
    server_rows,
    subframe_bands,
)
from splitfov.wire import DEFAULT_MAX_FRAME, MAX_DIM, SUBFRAME_HEADER


def spec_strategy():
    """Valid specs: even stereo width, fovea fits inside one eye."""

    @st.composite
    def build(draw):
        eye_w = draw(st.integers(2, 600))
        full_h = draw(st.integers(2, 600))
        fov_w = draw(st.integers(1, eye_w))
        fov_h = draw(st.integers(1, full_h))
        scale = draw(st.floats(min_value=0.05, max_value=1.0,
                               allow_nan=False, allow_infinity=False))
        return PartitionSpec.from_full(2 * eye_w, full_h, fov_w, fov_h, scale)

    return build()


class TestDefaults:
    def test_default_dimensions(self):
        s = DEFAULT_SPEC
        assert (s.full_w, s.full_h) == (2400, 1080)
        assert (s.eye_w, s.eye_h) == (1200, 1080)
        assert (s.fov_w, s.fov_h) == (512, 360)
        assert s.periph_scale == float(np.float32(0.6))  # the f32 the hello carries

    def test_default_reduced_buffer(self):
        assert reduced_dims(DEFAULT_SPEC) == (1440, 648)

    def test_default_is_valid(self):
        assert PartitionSpec(*dataclasses.astuple(DEFAULT_SPEC)) == DEFAULT_SPEC

    def test_default_foveal_rects(self):
        assert foveal_rect(DEFAULT_SPEC, Eye.LEFT) == Rect(344, 360, 512, 360)
        assert foveal_rect_stereo(DEFAULT_SPEC, Eye.RIGHT) == Rect(1544, 360, 512, 360)


class TestValidate:
    """A spec is valid by construction: building one that breaks an
    invariant raises PartitionError listing every violation."""

    @staticmethod
    def violations(*fields):
        with pytest.raises(PartitionError) as e:
            PartitionSpec(*fields)
        return str(e.value).split("; ")

    def test_oversized_fovea_message(self):
        assert self.violations(2400, 1080, 1300, 360, 0.6) == ["foveal width exceeds eye width"]

    def test_all_violations_reported(self):
        assert self.violations(2400, 1080, 1300, 1200, 1.5) == [
            "foveal width exceeds eye width",
            "foveal height exceeds eye height",
            "peripheral scale must be in (0, 1]",
        ]

    def test_odd_stereo_width(self):
        assert self.violations(2401, 1080, 512, 360, 0.6) == ["full width must be even"]

    def test_dimensions_beyond_the_wire(self):
        # the hello carries dimensions as u16
        PartitionSpec.from_full(2 * 32767, 65535, 16, 16, 0.5)
        msgs = self.violations(140000, 32, 16, 16, 0.5)
        assert "full_w must be at most 65535, the wire's u16 limit" in msgs
        assert "eye_w must be at most 65535, the wire's u16 limit" in msgs
        assert self.violations(2, 65536, 1, 1, 0.5) == [
            "full_h must be at most 65535, the wire's u16 limit",
            "eye_h must be at most 65535, the wire's u16 limit",
        ]

    def test_scale_bounds(self):
        PartitionSpec.from_full(100, 100, 10, 10, 1.0)
        for bad in (0.0, -0.5, 1.0000001, float("nan")):
            assert self.violations(100, 100, 10, 10, bad) == ["peripheral scale must be in (0, 1]"]

    def test_scale_lower_bound(self):
        # Below 1/65535 every frame the wire carries has a one-pixel
        # periphery, and 1e-20 overflows the renderer's float32 shading.
        for bad in (1e-20, 1e-46):
            assert self.violations(100, 100, 10, 10, bad) == [
                "peripheral scale must be at least 1/65535"
            ]
        PartitionSpec(100, 100, 10, 10, 1 / MAX_DIM)
        # the hello carries the scale as f32, which rounds 1/65535 down
        hello_scale = struct.unpack("<f", struct.pack("<f", 1 / MAX_DIM))[0]
        assert hello_scale < 1 / MAX_DIM
        PartitionSpec(100, 100, 10, 10, hello_scale)

    def test_raw_subframe_beyond_the_frame_cap(self):
        # k = 4000, so the first band is 2000 rows of both 12000-column eyes:
        # 3 * 24000 * 2000 payload bytes + 14 header bytes
        assert self.violations(24000, 8000, 12000, 8000, 0.5) == [
            "the largest band's RAW subframe is a 144000014-byte frame, above the wire's"
            " frame cap of 67108864 bytes"
        ]
        # half the size fits: k = 2000, so its bands of 1000 rows are 36 MB
        assert server_rows(PartitionSpec(12000, 4000, 6000, 4000, 0.5)) == 2000

    def test_largest_fovea_within_the_frame_cap(self):
        # Foveae as large as their eyes: at 2560 rows k = 1281, so the first
        # band is 641 rows, and 3 * 2 * 17449 * 641 + 14 is 64 MiB and 4
        # bytes; at 2559 rows k = 1280, and its bands of 640 rows fit
        assert 3 * 2 * 17449 * 641 + SUBFRAME_HEADER == DEFAULT_MAX_FRAME + 4
        assert server_rows(PartitionSpec(2 * 17449, 2559, 17449, 2559, 0.5)) == 1280
        assert self.violations(2 * 17449, 2560, 17449, 2560, 0.5) == [
            "the largest band's RAW subframe is a 67108868-byte frame, above the wire's"
            " frame cap of 67108864 bytes"
        ]

    def test_dimensions_at_least_one(self):
        assert self.violations(0, 0, 0, 0, 0.5) == [
            "full_w must be at least 1", "full_h must be at least 1", "eye_w must be at least 1",
            "eye_h must be at least 1", "fov_w must be at least 1", "fov_h must be at least 1",
        ]


class TestFovealRect:
    @given(spec_strategy())
    def test_centered_within_eye(self, spec):
        for eye in (Eye.LEFT, Eye.RIGHT):
            r = foveal_rect(spec, eye)
            assert r.w == spec.fov_w and r.h == spec.fov_h
            assert 0 <= r.x and r.x + r.w <= spec.eye_w
            assert 0 <= r.y and r.y + r.h <= spec.eye_h
            # floor-centered: left margin never exceeds right margin
            assert r.x == (spec.eye_w - spec.fov_w) // 2
            assert r.y == (spec.eye_h - spec.fov_h) // 2

    @given(spec_strategy())
    def test_stereo_right_is_shifted_left_rect(self, spec):
        left = foveal_rect_stereo(spec, Eye.LEFT)
        right = foveal_rect_stereo(spec, Eye.RIGHT)
        assert left == foveal_rect(spec, Eye.LEFT)
        assert right == Rect(left.x + spec.eye_w, left.y, left.w, left.h)
        assert right.x + right.w <= spec.full_w

    def test_exact_fit_fovea(self):
        s = PartitionSpec.from_full(64, 32, 32, 32, 0.5)
        assert foveal_rect(s, Eye.LEFT) == Rect(0, 0, 32, 32)


class TestReducedDims:
    @given(spec_strategy())
    def test_bounds_and_rounding(self, spec):
        rw, rh = reduced_dims(spec)
        assert 1 <= rw <= spec.full_w
        assert 1 <= rh <= spec.full_h
        assert rw == max(1, round(spec.full_w * spec.periph_scale))
        assert rh == max(1, round(spec.full_h * spec.periph_scale))

    def test_unit_scale_identity(self):
        s = PartitionSpec.from_full(600, 270, 64, 64, 1.0)
        assert reduced_dims(s) == (600, 270)

    def test_clamps_to_one(self):
        s = PartitionSpec.from_full(4, 4, 1, 1, 0.05)
        assert reduced_dims(s) == (1, 1)

    def test_desk_scale(self, desk_spec):
        assert reduced_dims(desk_spec) == (360, 162)


def brute_holes(spec: PartitionSpec) -> dict[Eye, tuple[list[int], list[int]]]:
    """Each eye's hole rows and columns, one reduced index at a time: an
    index is a hole when no full pixel outside the eye's foveal rect copies
    it, (i * reduced) // full, and a column only of the eye whose ray it
    casts (left of the midline is the left eye's)."""
    rw, rh = reduced_dims(spec)
    xs = [i * rw // spec.full_w for i in range(spec.full_w)]
    ys = [i * rh // spec.full_h for i in range(spec.full_h)]
    centre = [float(np.float32(np.float32(c) + np.float32(0.5)) / np.float32(spec.periph_scale))
              for c in range(rw)]
    holes = {}
    for eye in (Eye.LEFT, Eye.RIGHT):
        r = foveal_rect_stereo(spec, eye)
        out_cols = {xs[i] for i in range(spec.full_w) if not r.x <= i < r.x + r.w}
        out_rows = {ys[i] for i in range(spec.full_h) if not r.y <= i < r.y + r.h}
        cols = [c for c in range(rw) if c not in out_cols
                and (centre[c] >= spec.full_w / 2) == (eye == Eye.RIGHT)]
        holes[eye] = ([j for j in range(rh) if j not in out_rows], cols)
    return holes


def frame_rays(spec: PartitionSpec) -> int:
    rw, rh = reduced_dims(spec)
    hidden = sum(len(rows) * len(cols) for rows, cols in brute_holes(spec).values())
    return 2 * spec.fov_w * spec.fov_h + rw * rh - hidden


class TestServerRows:
    @pytest.mark.parametrize("spec, k", [
        (DEFAULT_SPEC, 360),
        (PartitionSpec(600, 270, 128, 90, 0.6), 90),
        (PartitionSpec(2400, 1080, 768, 540, 0.3), 322),
        (PartitionSpec(160, 80, 80, 80, 0.25), 40),
    ], ids=["default", "desk", "fovea", "split"])
    def test_gated_and_fixture_geometries(self, spec, k):
        assert server_rows(spec) == k
        assert server_dims(spec) == f"{spec.fov_w}x{k}"

    @given(spec_strategy())
    def test_fewest_rows_holding_half_the_rays(self, spec):
        k = server_rows(spec)
        total = frame_rays(spec)
        assert partition.frame_rays(spec) == total
        assert 1 <= k <= spec.fov_h
        # One row fewer would leave the server less than half of the rays.
        assert 2 * (2 * spec.fov_w * (k - 1)) < total
        if k < spec.fov_h:
            assert 2 * (2 * spec.fov_w * k) >= total


class TestSubframeBands:
    @given(st.integers(1, 2 * MAX_DIM))
    def test_bands_cover_the_server_rows_in_order(self, k):
        """Non-empty bands, in order, that tile [0, k): two exactly when
        k >= 2, the first the larger by at most a row."""
        bands = subframe_bands(k)
        assert len(bands) == (2 if k >= 2 else 1)
        assert [lo for lo, _ in bands] == [0] + [hi for _, hi in bands[:-1]]
        assert bands[-1][1] == k
        assert all(lo < hi for lo, hi in bands)
        assert bands[0][1] - bands[0][0] == -(-k // 2)

    def test_gated_geometries(self):
        assert subframe_bands(server_rows(DEFAULT_SPEC)) == [(0, 180), (180, 360)]
        assert subframe_bands(server_rows(PartitionSpec(2400, 1080, 768, 540, 0.3))) == [(0, 161), (161, 322)]
        assert subframe_bands(1) == [(0, 1)]


class TestHoles:
    @given(spec_strategy())
    def test_holes_are_the_pixels_no_displayed_pixel_copies(self, spec):
        holes = periphery_holes(spec)
        for eye, (rows, cols) in brute_holes(spec).items():
            if rows and cols:
                assert holes.rows == (rows[0], rows[-1] + 1)
                assert holes.cols[eye] == (cols[0], cols[-1] + 1)
            else:
                assert holes.cols[eye][0] == holes.cols[eye][1]
        assert partition.frame_rays(spec) == frame_rays(spec)

    def test_gated_and_fixture_geometries(self):
        # 14.2% of the periphery at the default geometry and 31.9% at the
        # fovea one; a fovea as wide and tall as its eye hides all of it.
        assert periphery_holes(DEFAULT_SPEC).rays == 216 * 2 * 307
        assert periphery_holes(PartitionSpec(2400, 1080, 768, 540, 0.3)).rays == 162 * 2 * 230
        assert periphery_holes(PartitionSpec(160, 80, 80, 80, 0.25)).rays == 40 * 20

    def test_a_fovea_covering_no_whole_reduced_row_has_none(self):
        # one full row at scale 0.5 is half of a reduced row
        spec = PartitionSpec(64, 32, 20, 1, 0.5)
        assert periphery_holes(spec).rays == 0
        assert partition.frame_rays(spec) == 2 * 20 + 32 * 16

    def test_nearest_map(self):
        assert nearest_map(5, 2).tolist() == [0, 0, 0, 1, 1]
        assert nearest_map(4, 4).tolist() == [0, 1, 2, 3]


class TestFovealRows:
    def test_a_band_of_the_rect(self):
        assert foveal_rows(Rect(10, 20, 30, 40), (5, 12)) == Rect(10, 25, 30, 7)
        assert foveal_rows(Rect(10, 20, 30, 40), (0, 40)) == Rect(10, 20, 30, 40)

    @pytest.mark.parametrize("rows", [(-1, 3), (3, 3), (4, 3), (0, 41)])
    def test_rows_outside_the_rect_are_refused(self, rows):
        with pytest.raises(GeometryError, match="not a band of a 40-row fovea"):
            foveal_rows(Rect(10, 20, 30, 40), rows)
