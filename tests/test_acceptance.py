"""Acceptance gate: one test per shipped guarantee, one printed verdict line
each. Run with `pytest tests/test_acceptance.py -s` to see the verdicts."""

import io
import time
from contextlib import contextmanager

import numpy as np
import pytest

from splitfov.camera import CameraPath, CameraRig, Pose, normalize_quat, pose_at
from splitfov.client import CollectSink, draw_client_part, ffr_frame, run_native, upsample_nearest
from splitfov.codec import CodecError, CodecId, decode, encode
from splitfov.image import Rect, crop
from splitfov.metrics import fps_display, improvement_pct, mbps, median, render_profile
from splitfov.partition import Eye, PartitionSpec, foveal_rect_stereo, reduced_dims, server_rows
from splitfov.render import SceneConfig, render_region, render_scaled
from splitfov.sim import ZERO_NET, check_lockstep, loopback_session, run_sim_virtual
from splitfov.wire import EndMsg, HelloMsg, PoseUpdateMsg, SubframeMsg, read_msg, write_msg

SPEC = PartitionSpec.from_full(600, 270, 128, 90, 0.6)
SCENE = SceneConfig()
RIG = CameraRig()


@contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def random_pose(rng) -> Pose:
    q = normalize_quat(rng.normal(size=4).astype(np.float32))
    return Pose(position=rng.uniform(-3.0, 3.0, size=3), orientation=q)


def render_full(scene, rig, pose, eye_dims):
    """Both eyes rendered whole at the full rate, side by side."""
    whole = Rect(0, 0, *eye_dims)
    return np.hstack([render_region(scene, rig, pose, eye, eye_dims, whole) for eye in (Eye.LEFT, Eye.RIGHT)])


class OneByteStream:
    def __init__(self, data):
        self.data, self.pos = data, 0

    def read(self, n):
        out = self.data[self.pos : self.pos + 1]
        self.pos += len(out)
        return out


def test_split_native_equivalence():
    """32 simulated frames with a free link display byte-identical frames
    to the single-device baseline, in under 30 seconds."""
    with verdict("split/native equivalence (32 frames, byte-identical, <30s)"):
        t0 = time.perf_counter()
        path = CameraPath(frame_count=32)
        sim_sink, native_sink = CollectSink(), CollectSink()
        run_sim_virtual(SPEC, CodecId.PRED_DEFLATE, SCENE, RIG, path,
                        net=ZERO_NET, display=sim_sink)
        run_native(SPEC, SCENE, RIG, path, display=native_sink)
        elapsed = time.perf_counter() - t0
        assert len(sim_sink.frames) == 32 and len(native_sink.frames) == 32
        for a, b in zip(sim_sink.frames, native_sink.frames):
            assert a.tobytes() == b.tobytes()
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_merge_region_oracle():
    """For 8 random poses: inside each foveal rect the merged frame equals
    the monolithic full-rate render; outside it equals the upsampled
    reduced render. Zero tolerance."""
    with verdict("merge-region oracle (8 random poses, zero tolerance)"):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            pose = random_pose(rng)
            merged = ffr_frame(SCENE, RIG, pose, SPEC)
            full = render_full(SCENE, RIG, pose, (SPEC.eye_w, SPEC.eye_h))
            up = upsample_nearest(
                render_scaled(SCENE, RIG, pose, (SPEC.full_w, SPEC.full_h),
                              SPEC.periph_scale),
                (SPEC.full_w, SPEC.full_h),
            )
            mask = np.zeros((SPEC.full_h, SPEC.full_w), dtype=bool)
            for eye in (Eye.LEFT, Eye.RIGHT):
                r = foveal_rect_stereo(SPEC, eye)
                assert np.array_equal(crop(merged, r), crop(full, r))
                mask[r.y : r.y + r.h, r.x : r.x + r.w] = True
            assert np.array_equal(merged[~mask], up[~mask])


def test_codec_losslessness_and_fuzz():
    """1000 random-plus-rendered images from 1x1 to 257x129 round-trip both
    codecs exactly; >=10^4 fuzz cases: truncations always raise CodecError,
    same-length corruptions never crash and never yield a mis-shaped image."""
    with verdict("codec losslessness (1000 images) + fuzz (10^4 cases)"):
        rng = np.random.default_rng(7)
        base = render_region(SCENE, RIG, pose_at(CameraPath(frame_count=2), 0),
                             0, (257, 129), Rect(0, 0, 257, 129))
        images = []
        for i in range(1000):
            w = int(rng.integers(1, 258))
            h = int(rng.integers(1, 130))
            if i % 5 == 0:  # rendered content, random crop
                x = int(rng.integers(0, 258 - w))
                y = int(rng.integers(0, 130 - h))
                images.append(crop(base, Rect(x, y, w, h)))
            else:
                images.append(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
        for img in images:
            h, w = img.shape[:2]
            for codec in (CodecId.RAW, CodecId.PRED_DEFLATE):
                out = decode(codec, encode(codec, img), w, h)
                assert out.tobytes() == img.tobytes()

        img = np.ascontiguousarray(base[:12, :16])
        h, w = img.shape[:2]
        payloads = {c: encode(c, img) for c in (CodecId.RAW, CodecId.PRED_DEFLATE)}
        cases = 0
        for codec, payload in payloads.items():
            for _ in range(3000):  # truncation: must always error
                cut = int(rng.integers(0, len(payload)))
                with pytest.raises(CodecError):
                    decode(codec, payload[:cut], w, h)
                cases += 1
            for _ in range(2000):  # corruption: full image or CodecError
                corrupt = bytearray(payload)
                for _ in range(int(rng.integers(1, 4))):
                    corrupt[int(rng.integers(0, len(corrupt)))] ^= int(rng.integers(1, 256))
                try:
                    out = decode(codec, bytes(corrupt), w, h)
                    assert out.shape == (h, w, 3)
                except CodecError:
                    pass
                cases += 1
        assert cases >= 10_000


def test_wire_robustness():
    """1000 randomized messages of every type round-trip exactly, including
    through a stream that yields one byte per read."""
    with verdict("wire round-trip (1000 messages) + 1-byte segmentation"):
        rng = np.random.default_rng(13)

        def rand_msg(i):
            kind = i % 4
            if kind == 0:
                return HelloMsg(int(rng.integers(0, 2**16)), *(int(rng.integers(0, 2**16)) for _ in range(4)),
                                float(np.float32(rng.uniform(0, 2))),
                                int(rng.integers(0, 256)), int(rng.integers(0, 256)),
                                *rng.uniform(0, 180, size=3).tolist())
            if kind == 1:
                vals = [float(np.float32(v)) for v in rng.normal(size=7) * 100]
                return PoseUpdateMsg(int(rng.integers(0, 2**64, dtype=np.uint64)),
                                     tuple(vals[:3]), tuple(vals[3:]))
            if kind == 2:
                payload = rng.integers(0, 256, size=int(rng.integers(0, 400)),
                                       dtype=np.uint8).tobytes()
                return SubframeMsg(int(rng.integers(0, 2**64, dtype=np.uint64)),
                                   int(rng.integers(0, 256)), payload)
            return EndMsg(int(rng.integers(0, 2**64, dtype=np.uint64)))

        msgs = [rand_msg(i) for i in range(1000)]
        for m in msgs:
            assert read_msg(io.BytesIO(write_msg(m))) == m

        chunked = OneByteStream(b"".join(write_msg(m) for m in msgs[:60]))
        for m in msgs[:60]:
            assert read_msg(chunked) == m
        assert read_msg(chunked) is None


def test_lockstep_trace():
    """100 virtual-clock frames: every server draw follows its pose receipt
    and every pose follows the prior display. Zero violations."""
    with verdict("lockstep trace check (100 frames, 0 violations)"):
        res = run_sim_virtual(SPEC, CodecId.PRED_DEFLATE, SCENE, RIG,
                              CameraPath(frame_count=100))
        violations = check_lockstep(res.trace, 100)
        assert violations == [], violations


def test_evaluation_arithmetic():
    """The headline summary arithmetic: improvement percentage, rounded
    frame rates, and link rate from bytes over a window."""
    with verdict("evaluation arithmetic (23.04%, 31/38 fps, 707.8 Mbps)"):
        assert improvement_pct(32.2, 26.17) == pytest.approx(23.04, abs=0.05)
        assert fps_display(32.2) == 31
        assert fps_display(26.17) == 38
        assert mbps(441509, 0.00499) == pytest.approx(707.8, abs=0.1)


def test_workload_reduction():
    """Peripheral draw at scale 0.6 shades exactly 0.36x the rays of a
    full-rate stereo draw; measured split-mode client draw time beats the
    native draw of the same pose on the same machine (directional)."""
    with verdict("workload reduction (0.36x exact + faster split draw)"):
        for full_w, full_h in ((2400, 1080), (600, 270)):
            spec = PartitionSpec.from_full(full_w, full_h, 16, 16, 0.6)
            rw, rh = reduced_dims(spec)
            assert rw * rh == 0.36 * (full_w * full_h)

        def draw_ms(draw, *args):
            t0 = time.perf_counter()
            draw(*args)
            return (time.perf_counter() - t0) * 1000.0

        def native_draw(pose):
            return draw_ms(ffr_frame, SCENE, RIG, pose, SPEC)

        def split_draw(pose):
            return draw_ms(draw_client_part, SCENE, RIG, pose, SPEC, server_rows(SPEC))

        # 16 pairs, each a native and a split draw of one pose taken back
        # to back, alternating which arm goes first: a shift in host speed
        # then hits both draws of a pair.
        savings = []
        for i in range(16):
            pose = pose_at(CameraPath(radius=3.0 + 0.1 * i, frame_count=1), 0)
            if i % 2 == 0:
                native, split = native_draw(pose), split_draw(pose)
            else:
                split, native = split_draw(pose), native_draw(pose)
            savings.append(native - split)
        assert median(savings) > 0.0, savings


def test_own_hardware_numbers_in_table_shape():
    """Absolute stage timings are hardware-specific and deliberately not
    pinned; the tools report this machine's numbers in the standard table
    shape instead."""
    with verdict("hardware timings reported, not pinned"):
        res = loopback_session(SPEC, CodecId.PRED_DEFLATE, SCENE, RIG, CameraPath(frame_count=8))
        table = render_profile(res.client_records, res.server_records,
                               f"{SPEC.fov_w}x{SPEC.fov_h}")
        assert "fps" in table and "Network" in table and "Mbps" in table
        assert "Draw Time" in table and "Encode Time" in table
        assert median([r.total_ms for r in res.client_records]) > 0.0
