import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splitfov.camera import CameraPath, Pose, normalize_quat, pose_at
from splitfov.client import (
    CollectSink,
    PpmSink,
    ffr_frame,
    merge,
    run_native,
    upsample_nearest,
)
from splitfov.image import GeometryError, crop, read_ppm
from splitfov.partition import Eye, foveal_rect_stereo, reduced_dims
from splitfov.render import render_scaled, render_stereo

POSE = pose_at(CameraPath(frame_count=12), 5)


def random_pose(rng) -> Pose:
    q = normalize_quat(rng.normal(size=4).astype(np.float32))
    return Pose(position=rng.uniform(-3, 3, size=3), orientation=q)


def rgb(r, g, b, w, h):
    return np.tile(np.array([r, g, b], dtype=np.uint8), (h, w, 1))


class TestUpsample:
    def test_two_by_two_doubling(self):
        reduced = np.array([[[1, 1, 1], [2, 2, 2]],
                            [[3, 3, 3], [4, 4, 4]]], dtype=np.uint8)
        out = upsample_nearest(reduced, (4, 4))
        want = np.array([[1, 1, 2, 2],
                         [1, 1, 2, 2],
                         [3, 3, 4, 4],
                         [3, 3, 4, 4]], dtype=np.uint8)
        assert np.array_equal(out[..., 0], want)

    def test_identity_when_same_size(self):
        img = rgb(9, 8, 7, 5, 4)
        img[2, 3] = (1, 2, 3)
        assert np.array_equal(upsample_nearest(img, (5, 4)), img)

    def test_index_map_property(self):
        rng = np.random.default_rng(2)
        reduced = rng.integers(0, 256, size=(7, 11, 3), dtype=np.uint8)
        W, H = 29, 17
        out = upsample_nearest(reduced, (W, H))
        for y in (0, 5, 16):
            for x in (0, 13, 28):
                assert np.array_equal(out[y, x], reduced[(y * 7) // H, (x * 11) // W])

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
        lambda wh: st.tuples(st.just(wh[0]), st.just(wh[1]),
                             st.integers(1, wh[0]), st.integers(1, wh[1]))))
    @example(dims=(1, 9, 1, 4))  # width 1
    @example(dims=(17, 6, 17, 3))  # rw == W
    @example(dims=(2400, 1080, 1440, 648))  # default geometry
    @example(dims=(2400, 1080, 720, 324))  # fovea geometry
    def test_equals_the_definitional_gather(self, dims):
        W, H, rw, rh = dims
        rng = np.random.default_rng(rw * 4099 + rh)
        reduced = rng.integers(0, 256, size=(rh, rw, 3), dtype=np.uint8)
        out = upsample_nearest(reduced, (W, H))
        xs = (np.arange(W) * rw) // W
        ys = (np.arange(H) * rh) // H
        want = reduced[ys[:, None], xs[None, :]]
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert out.flags.c_contiguous and out.flags.owndata

    def test_rejects_upside_down_scaling(self):
        with pytest.raises(GeometryError):
            upsample_nearest(rgb(0, 0, 0, 8, 8), (4, 4))


class TestMerge:
    def test_each_pixel_from_exactly_one_source(self, desk_spec):
        spec = desk_spec
        periph = rgb(10, 10, 10, spec.full_w, spec.full_h)
        foveal = {Eye.LEFT: rgb(50, 0, 0, spec.fov_w, spec.fov_h),
                  Eye.RIGHT: rgb(0, 60, 0, spec.fov_w, spec.fov_h)}
        out = merge(periph, foveal, spec)
        left = foveal_rect_stereo(spec, Eye.LEFT)
        right = foveal_rect_stereo(spec, Eye.RIGHT)
        mask = np.zeros((spec.full_h, spec.full_w), dtype=bool)
        for r, color in ((left, (50, 0, 0)), (right, (0, 60, 0))):
            region = out[r.y : r.y + r.h, r.x : r.x + r.w]
            assert (region == np.array(color, dtype=np.uint8)).all()
            mask[r.y : r.y + r.h, r.x : r.x + r.w] = True
        assert (out[~mask] == 10).all()

    def test_input_not_mutated(self, desk_spec):
        spec = desk_spec
        periph = rgb(9, 9, 9, spec.full_w, spec.full_h)
        before = periph.copy()
        merge(periph, {Eye.LEFT: rgb(1, 1, 1, spec.fov_w, spec.fov_h),
                       Eye.RIGHT: rgb(2, 2, 2, spec.fov_w, spec.fov_h)}, spec)
        assert np.array_equal(periph, before)

    def test_dim_mismatches_rejected(self, desk_spec):
        spec = desk_spec
        good = {Eye.LEFT: rgb(0, 0, 0, spec.fov_w, spec.fov_h),
                Eye.RIGHT: rgb(0, 0, 0, spec.fov_w, spec.fov_h)}
        with pytest.raises(GeometryError):
            merge(rgb(0, 0, 0, spec.full_w - 1, spec.full_h), good, spec)
        bad = dict(good)
        bad[Eye.RIGHT] = rgb(0, 0, 0, spec.fov_w + 1, spec.fov_h)
        with pytest.raises(GeometryError):
            merge(rgb(0, 0, 0, spec.full_w, spec.full_h), bad, spec)


class TestComposedFrame:
    """The merged frame against monolithic renders, region by region."""

    def test_fovea_matches_full_render_periphery_matches_upsample(
        self, desk_spec, scene, rig
    ):
        spec = desk_spec
        rng = np.random.default_rng(20)
        for _ in range(3):
            pose = random_pose(rng)
            merged = ffr_frame(scene, rig, pose, spec)
            full = render_stereo(scene, rig, pose, (spec.eye_w, spec.eye_h))
            up = upsample_nearest(
                render_scaled(scene, rig, pose, (spec.full_w, spec.full_h), spec.periph_scale),
                (spec.full_w, spec.full_h),
            )
            mask = np.zeros((spec.full_h, spec.full_w), dtype=bool)
            for eye in (Eye.LEFT, Eye.RIGHT):
                r = foveal_rect_stereo(spec, eye)
                assert np.array_equal(crop(merged, r), crop(full, r))
                mask[r.y : r.y + r.h, r.x : r.x + r.w] = True
            assert np.array_equal(merged[~mask], up[~mask])

    def test_deterministic(self, desk_spec, scene, rig):
        a = ffr_frame(scene, rig, POSE, desk_spec)
        b = ffr_frame(scene, rig, POSE, desk_spec)
        assert a.tobytes() == b.tobytes()


class TestNative:
    def test_records_and_frames(self, desk_spec, scene, rig):
        sink = CollectSink()
        path = CameraPath(frame_count=4)
        records = run_native(desk_spec, scene, rig, path, display=sink)
        assert len(records) == 4
        assert [r.frame_id for r in records] == [0, 1, 2, 3]
        for r in records:
            assert r.network_ms == 0.0
            assert r.decode_ms == 0.0
            assert r.bytes_received == 0
            assert r.total_ms > 0.0
            assert r.draw_ms > 0.0
        for k, frame in enumerate(sink.frames):
            assert np.array_equal(frame, ffr_frame(scene, rig, pose_at(path, k), desk_spec))


class TestSinks:
    def test_ppm_sink_every_k(self, tmp_path, desk_spec, scene, rig):
        sink = PpmSink(str(tmp_path / "frames"), every=2)
        run_native(desk_spec, scene, rig, CameraPath(frame_count=4), display=sink)
        files = sorted(p.name for p in (tmp_path / "frames").iterdir())
        assert files == ["frame_000000.ppm", "frame_000002.ppm"]
        img = read_ppm(str(tmp_path / "frames" / "frame_000000.ppm"))
        assert img.shape == (desk_spec.full_h, desk_spec.full_w, 3)

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            PpmSink(str(tmp_path), every=0)
