import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splitfov import client, render
from splitfov.camera import CameraPath, Pose, normalize_quat, pose_at
from splitfov.client import (
    CollectSink,
    PpmSink,
    draw_client_part,
    ffr_frame,
    merge,
    run_native,
    upsample_nearest,
)
from splitfov.codec import CodecId
from splitfov.image import GeometryError, Rect, crop, read_ppm
from splitfov.partition import (
    DEFAULT_SPEC,
    Eye,
    PartitionSpec,
    foveal_rect,
    foveal_rect_stereo,
    foveal_rows,
    frame_rays,
    reduced_dims,
    server_rows,
)
from splitfov.render import render_region, render_scaled
from splitfov.server import draw_foveae
from splitfov.sim import run_sim_wall

POSE = pose_at(CameraPath(frame_count=12), 5)


def random_pose(rng) -> Pose:
    q = normalize_quat(rng.normal(size=4).astype(np.float32))
    return Pose(position=rng.uniform(-3, 3, size=3), orientation=q)


def rgb(r, g, b, w, h):
    return np.tile(np.array([r, g, b], dtype=np.uint8), (h, w, 1))


def render_full(scene, rig, pose, eye_dims):
    """Both eyes rendered whole at the full rate, side by side."""
    whole = Rect(0, 0, *eye_dims)
    return np.hstack([render_region(scene, rig, pose, eye, eye_dims, whole) for eye in (Eye.LEFT, Eye.RIGHT)])


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

    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(st.integers(0, 3), min_size=1, max_size=30), rw=st.integers(1, 20),
           grow=st.tuples(st.integers(0, 30), st.integers(0, 60)))
    @example(runs=[0], rw=1, grow=(0, 0))  # one pixel
    @example(runs=[2], rw=9, grow=(7, 0))  # one row
    @example(runs=[0] * 12, rw=16, grow=(20, 30))  # constant
    @example(runs=[0, 1, 0, 1], rw=5, grow=(3, 9))  # rows a byte apart
    def test_runs_of_equal_rows_equal_the_definitional_gather(self, runs, rw, grow):
        """Images made of runs of equal rows, among them one-row and
        constant images: row 1 differs from row 0 in its last byte only."""
        rng = np.random.default_rng(rw * 31 + len(runs))
        rows = rng.integers(0, 256, size=(4, rw, 3), dtype=np.uint8)
        rows[1] = rows[0]
        rows[1, -1, -1] ^= 1
        rows[3] = rows[2, 0]
        reduced = rows[runs]
        rh = len(runs)
        W, H = rw + grow[0], rh + grow[1]
        out = upsample_nearest(reduced, (W, H))
        xs = (np.arange(W) * rw) // W
        ys = (np.arange(H) * rh) // H
        want = np.take(np.take(reduced, xs, axis=1), ys, axis=0)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()

    def test_expands_each_run_of_equal_rows_once(self, monkeypatch):
        """The column gather, pixel by pixel, runs on one row per run of
        equal reduced rows: five runs here, over ten rows."""
        reduced = rgb(1, 2, 3, 6, 10)
        reduced[3:5] = (4, 5, 6)
        reduced[6:] = (7, 8, 9)
        reduced[7:, 2] = (0, 0, 0)
        gathered = []

        def recorded(a, indices, axis=None, _inner=np.take, **kwargs):
            if axis == 1:
                gathered.append(a.shape[0])
            return _inner(a, indices, axis=axis, **kwargs)

        monkeypatch.setattr(np, "take", recorded)
        out = upsample_nearest(reduced, (12, 20))
        assert gathered == [5]
        assert np.array_equal(out, reduced.repeat(2, axis=0).repeat(2, axis=1))

    @settings(max_examples=40, deadline=None)
    @given(band=st.sampled_from([1, 2, 3]), runs=st.lists(st.integers(1, 7), min_size=1, max_size=8),
           rw=st.integers(1, 9), grow=st.tuples(st.integers(0, 12), st.integers(0, 20)))
    @example(band=2, runs=[5, 1, 2], rw=4, grow=(3, 7))  # a run longer than a band
    @example(band=3, runs=[1, 1, 1, 1], rw=3, grow=(0, 5))  # a last partial band
    @example(band=1, runs=[1], rw=6, grow=(2, 0))  # one row
    @example(band=2, runs=[9], rw=5, grow=(4, 11))  # constant
    def test_bands_equal_the_definitional_gather(self, band, runs, rw, grow):
        """Runs of equal rows straddle bands of 1, 2 and 3 runs: the output
        is still the gather, and each run's columns are gathered once."""
        rng = np.random.default_rng(band * 97 + rw * 13 + len(runs))
        rows = rng.integers(0, 256, size=(len(runs), rw, 3), dtype=np.uint8)
        rows[:, -1, -1] = np.arange(len(runs)) % 2  # neighbouring runs differ
        reduced = np.repeat(rows, runs, axis=0)
        rh = len(reduced)
        W, H = rw + grow[0], rh + grow[1]
        gathered = []

        def recorded(a, indices, axis=None, _inner=np.take, **kwargs):
            if axis == 1:
                gathered.append(a.shape[0])
            return _inner(a, indices, axis=axis, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(client, "_BAND_ROWS", band)
            mp.setattr(np, "take", recorded)
            out = upsample_nearest(reduced, (W, H))
        xs = (np.arange(W) * rw) // W
        ys = (np.arange(H) * rh) // H
        want = reduced[ys][:, xs]
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert sum(gathered) == len(runs) and max(gathered) <= band

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

    def test_pastes_into_the_frame_it_is_given(self, desk_spec):
        """merge writes the foveae into its input and returns that array;
        every pixel outside the foveal rects keeps its value."""
        spec = desk_spec
        rng = np.random.default_rng(15)
        frame = rng.integers(0, 256, size=(spec.full_h, spec.full_w, 3), dtype=np.uint8)
        before = frame.copy()
        foveal = {eye: rng.integers(0, 256, size=(spec.fov_h, spec.fov_w, 3), dtype=np.uint8)
                  for eye in (Eye.LEFT, Eye.RIGHT)}
        assert merge(frame, foveal, spec) is frame
        mask = np.zeros((spec.full_h, spec.full_w), dtype=bool)
        for eye, img in foveal.items():
            r = foveal_rect_stereo(spec, eye)
            assert np.array_equal(crop(frame, r), img)
            mask[r.y : r.y + r.h, r.x : r.x + r.w] = True
        assert np.array_equal(frame[~mask], before[~mask])

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


    def test_pastes_only_the_rows_it_is_given(self, split_spec):
        spec, rows = split_spec, (43, 80)
        rng = np.random.default_rng(17)
        frame = rng.integers(0, 256, size=(spec.full_h, spec.full_w, 3), dtype=np.uint8)
        before = frame.copy()
        band = {eye: rng.integers(0, 256, size=(37, spec.fov_w, 3), dtype=np.uint8)
                for eye in (Eye.LEFT, Eye.RIGHT)}
        assert merge(frame, band, spec, rows) is frame
        mask = np.zeros((spec.full_h, spec.full_w), dtype=bool)
        for eye, img in band.items():
            r = foveal_rows(foveal_rect_stereo(spec, eye), rows)
            assert np.array_equal(crop(frame, r), img)
            mask[r.y : r.y + r.h, r.x : r.x + r.w] = True
        assert np.array_equal(frame[~mask], before[~mask])

    @pytest.mark.parametrize("rows", [(0, 43), (0, 80), (1, 44)])
    def test_images_must_have_exactly_the_rows(self, split_spec, rows):
        spec = split_spec
        images = {eye: rgb(0, 0, 0, spec.fov_w, 42) for eye in (Eye.LEFT, Eye.RIGHT)}
        with pytest.raises(GeometryError, match="foveal image is 80x42"):
            merge(rgb(0, 0, 0, spec.full_w, spec.full_h), images, spec, rows)


class TestRowSplit:
    """The server's rows and the client's rows of a fovea are the rows of
    the whole fovea, so the split frame is the native frame."""

    def test_row_bands_are_rows_of_the_whole_fovea(self, split_spec, scene, rig):
        k = server_rows(split_spec)
        whole = draw_foveae(scene, rig, POSE, split_spec)
        top = draw_foveae(scene, rig, POSE, split_spec, (0, k))
        bottom = draw_foveae(scene, rig, POSE, split_spec, (k, split_spec.fov_h))
        for eye in (Eye.LEFT, Eye.RIGHT):
            assert top[eye].shape == (k, split_spec.fov_w, 3)
            assert top[eye].tobytes() == whole[eye][:k].tobytes()
            assert bottom[eye].tobytes() == whole[eye][k:].tobytes()

    def test_client_part_and_server_rows_make_the_native_frame(self, split_spec, scene, rig):
        k = server_rows(split_spec)
        frame = draw_client_part(scene, rig, POSE, split_spec, k)
        served = draw_foveae(scene, rig, POSE, split_spec, (0, k))
        merged = merge(frame, served, split_spec, (0, k))
        assert merged.tobytes() == ffr_frame(scene, rig, POSE, split_spec).tobytes()

    def test_every_split_line_gives_the_native_frame(self, split_spec, scene, rig):
        """For every k in [1, fov_h] the client's part plus the server's
        rows, and at k = 0 `ffr_frame`, equal a frame built here: the
        upsampled periphery with each eye's whole region render sliced in."""
        spec = split_spec
        full = (spec.full_w, spec.full_h)
        want = upsample_nearest(render_scaled(scene, rig, POSE, full, spec.periph_scale), full)
        for eye in (Eye.LEFT, Eye.RIGHT):
            r = foveal_rect_stereo(spec, eye)
            want[r.y : r.y + r.h, r.x : r.x + r.w] = render_region(
                scene, rig, POSE, int(eye), (spec.eye_w, spec.eye_h), foveal_rect(spec, eye))
        assert ffr_frame(scene, rig, POSE, spec).tobytes() == want.tobytes()
        for k in range(1, spec.fov_h + 1):
            frame = draw_client_part(scene, rig, POSE, spec, k)
            merged = merge(frame, draw_foveae(scene, rig, POSE, spec, (0, k)), spec, (0, k))
            assert merged.tobytes() == want.tobytes(), f"split line k = {k}"


def composed(scene, rig, pose, spec, k):
    """The split frame at split line k, composed here from parts that skip
    no ray: the whole reduced periphery upsampled, then both whole foveae
    pasted over it, the client's rows [k, fov_h) and the server's [0, k)."""
    full = (spec.full_w, spec.full_h)
    frame = upsample_nearest(render_scaled(scene, rig, pose, full, spec.periph_scale), full)
    for rows in ((k, spec.fov_h), (0, k)):
        if rows[0] < rows[1]:
            merge(frame, draw_foveae(scene, rig, pose, spec, rows), spec, rows)
    return frame


def split_frame(scene, rig, pose, spec, k):
    """The client's part at split line k with the server's rows merged in."""
    frame = draw_client_part(scene, rig, pose, spec, k)
    return merge(frame, draw_foveae(scene, rig, pose, spec, (0, k)), spec, (0, k)) if k else frame


@st.composite
def small_specs(draw):
    eye_w, full_h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return PartitionSpec(2 * eye_w, full_h, draw(st.integers(1, eye_w)), draw(st.integers(1, full_h)),
                         draw(st.floats(0.05, 1.0)))


class TestHoles:
    """The client shades no periphery ray whose pixels a fovea covers
    (`partition.periphery_holes`), and the frame on display does not move."""

    @settings(max_examples=15, deadline=None)
    @given(k=st.floats(0, 1), frame_id=st.integers(0, 11))
    @pytest.mark.parametrize("spec", [
        PartitionSpec(160, 80, 80, 80, 0.25),  # each fovea as wide and tall as its eye: no periphery ray
        PartitionSpec(12, 10, 6, 6, 0.6),  # a right-eye hole column whose ray falls left of the midline
        PartitionSpec(64, 32, 20, 1, 0.5),  # a fovea covering no whole reduced row: no hole
        PartitionSpec(96, 48, 30, 20, 1.0),  # scale 1.0
        PartitionSpec(600, 270, 128, 90, 0.6),  # desk
    ], ids=["fovea-as-wide-as-its-eye", "midline-column", "no-whole-row", "scale-1", "desk"])
    def test_every_split_line_gives_the_frame_composed_without_holes(self, spec, scene, rig, k, frame_id):
        k = round(k * spec.fov_h)
        pose = pose_at(CameraPath(frame_count=12), frame_id)
        assert split_frame(scene, rig, pose, spec, k).tobytes() == composed(scene, rig, pose, spec, k).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(spec=small_specs(), k=st.floats(0, 1), frame_id=st.integers(0, 11))
    def test_any_small_geometry(self, scene, rig, spec, k, frame_id):
        k = round(k * spec.fov_h)
        pose = pose_at(CameraPath(frame_count=12), frame_id)
        assert split_frame(scene, rig, pose, spec, k).tobytes() == composed(scene, rig, pose, spec, k).tobytes()

    @pytest.mark.parametrize("spec", [
        DEFAULT_SPEC, PartitionSpec(2400, 1080, 768, 540, 0.3), PartitionSpec(600, 270, 128, 90, 0.6),
        PartitionSpec(160, 80, 80, 80, 0.25), PartitionSpec(160, 80, 32, 24, 0.5),
        PartitionSpec(12, 10, 6, 6, 0.6),
    ], ids=["default", "fovea", "desk", "split", "tiny", "midline-column"])
    def test_a_native_frame_shades_frame_rays(self, spec, scene, rig, monkeypatch):
        grids = []

        def counted(scene, rig, pose, eye, eye_dims, fx, fy, *args, _inner=render._shade_grid):
            assert len(fx) > 0 and len(fy) > 0
            assert np.all(np.diff(fx) > 0) and np.all(np.diff(fy) > 0)
            grids.append(len(fx) * len(fy))
            return _inner(scene, rig, pose, eye, eye_dims, fx, fy, *args)

        monkeypatch.setattr(render, "_shade_grid", counted)
        ffr_frame(scene, rig, POSE, spec)
        assert sum(grids) == frame_rays(spec)
        # At most two periphery grids per eye, and one per fovea.
        assert len(grids) <= 6


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
            full = render_full(scene, rig, pose, (spec.eye_w, spec.eye_h))
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

    def test_ffr_frame_returns_a_fresh_frame_each_call(self, desk_spec, scene, rig):
        """ffr_frame pastes into its own upsampled frame, not a copy of it:
        a display that keeps frames by reference still gets a new plain
        array each time, with the same pixels as upsample then merge."""
        spec = desk_spec
        full = (spec.full_w, spec.full_h)
        kept = [ffr_frame(scene, rig, POSE, spec) for _ in range(2)]
        reduced = render_scaled(scene, rig, POSE, full, spec.periph_scale)
        want = merge(upsample_nearest(reduced, full), draw_foveae(scene, rig, POSE, spec), spec)
        for frame in kept:
            assert type(frame) is np.ndarray
            assert np.array_equal(frame, want)
        assert not np.shares_memory(kept[0], kept[1])


class TestDisplayedFrames:
    """A display may keep every frame it is shown: each is a plain
    C-contiguous array of its own, never an ndarray subclass, and shares no memory
    with another displayed frame."""

    @staticmethod
    def assert_plain_and_apart(frames):
        for frame in frames:
            assert type(frame) is np.ndarray and frame.flags.c_contiguous
        for k, frame in enumerate(frames):
            for later in frames[k + 1:]:
                assert not np.shares_memory(frame, later)

    def test_split_session(self, tiny_spec, scene, rig):
        sink = CollectSink()
        run_sim_wall(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3),
                     display=sink)
        assert len(sink.frames) == 3
        self.assert_plain_and_apart(sink.frames)

    def test_native(self, tiny_spec, scene, rig):
        sink = CollectSink()
        run_native(tiny_spec, scene, rig, CameraPath(frame_count=3), display=sink)
        assert len(sink.frames) == 3
        self.assert_plain_and_apart(sink.frames)


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

    def test_no_frame_is_held_while_the_next_is_drawn(self, desk_spec, scene, rig, monkeypatch):
        # A displayed frame still alive at the next draw adds a whole frame
        # to the peak memory.
        displayed = []
        draw = client.ffr_frame

        def checked_draw(*args):
            assert [ref() is None for ref in displayed] == [True] * len(displayed)
            frame = draw(*args)
            displayed.append(weakref.ref(frame))
            return frame

        monkeypatch.setattr(client, "ffr_frame", checked_draw)
        run_native(desk_spec, scene, rig, CameraPath(frame_count=3))
        assert len(displayed) == 3


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
