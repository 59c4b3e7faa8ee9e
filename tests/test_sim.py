import itertools
import math
import random
import threading
import time

import numpy as np
import pytest

from splitfov import client, codec, server, sim, wire
from splitfov.camera import CameraPath, CameraRig, pose_at
from splitfov.client import ClientFrameRecord, CollectSink, ffr_frame, run_native
from splitfov.codec import CodecError, CodecId
from splitfov.partition import PartitionSpec
from splitfov.render import SceneConfig
from splitfov.server import ServerSession
from splitfov.trace import RECV, SEND, Trace, now_ms
from splitfov.wire import ConnectionClosedError, ProtocolError
from splitfov.sim import (
    CostModel,
    NetModel,
    SimplexPipe,
    ZERO_NET,
    _Link,
    check_lockstep,
    run_native_virtual,
    run_sim_virtual,
    run_sim_wall,
)

FIG_COST = CostModel(server_draw=5.0, encode=3.0, client_draw=6.0, decode=4.0, merge=1.0)
LAT2 = NetModel(latency_ms=2.0, bandwidth_mbps=math.inf)


def offsets(trace, frame_id):
    """Event times for one frame relative to its pose send."""
    t0 = trace.find("client", "send", "pose", frame_id).t_ms
    pick = lambda a, k, n: trace.find(a, k, n, frame_id).t_ms - t0
    return {
        "pose_recv": pick("server", "recv", "pose"),
        "sdraw_end": pick("server", "end", "draw"),
        "enc_end": pick("server", "end", "encode"),
        "arrive": pick("client", "recv", "subframe1"),
        "dec_end": pick("client", "end", "decode"),
        "merge_begin": pick("client", "begin", "merge"),
        "merge_end": pick("client", "end", "merge"),
        "cdraw_end": pick("client", "end", "draw"),
    }


class TestNetModel:
    def test_tx_time(self):
        assert NetModel(0.0, 8.0).tx_ms(1_000_000) == 1000.0
        assert ZERO_NET.tx_ms(10**9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetModel(latency_ms=-1.0)
        with pytest.raises(ValueError):
            NetModel(bandwidth_mbps=0.0)

    @pytest.mark.parametrize("latency", [math.nan, math.inf])
    def test_latency_must_be_finite(self, latency):
        with pytest.raises(ValueError, match="latency_ms must be non-negative and finite"):
            NetModel(latency_ms=latency)
        assert math.isinf(NetModel(bandwidth_mbps=math.inf).bandwidth_mbps)

    def test_link_is_fifo(self):
        link = _Link(NetModel(latency_ms=1.0, bandwidth_mbps=8.0))
        f0, l0 = link.schedule(0.0, 1000)  # tx 1 ms
        f1, l1 = link.schedule(0.0, 1000)  # queued behind the first
        assert (f0, l0) == (1.0, 2.0)
        assert (f1, l1) == (2.0, 3.0)


class TestCostModel:
    @pytest.mark.parametrize("field", ["decode", "us_per_ray"])
    @pytest.mark.parametrize("value", [-20.0, math.nan, math.inf])
    def test_rejects_costs_it_cannot_schedule(self, field, value):
        with pytest.raises(ValueError, match=f"cost {field} must be non-negative and finite"):
            CostModel(**{field: value})

    def test_zero_costs_are_allowed(self):
        assert CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0,
                         merge=0.0).server_draw_ms(10) == 0.0


class TestVirtualTimeline:
    """The analytic timeline against hand-computed stage boundaries."""

    def test_reference_frame_timing(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig,
                              CameraPath(frame_count=2), net=LAT2, cost=FIG_COST)
        o = offsets(res.trace, 0)
        assert o["pose_recv"] == pytest.approx(2.0)
        assert o["sdraw_end"] == pytest.approx(7.0)
        assert o["enc_end"] == pytest.approx(10.0)
        assert o["arrive"] == pytest.approx(12.0)
        assert o["dec_end"] == pytest.approx(16.0)
        assert o["cdraw_end"] == pytest.approx(6.0)
        # decode finishes after the overlapped peripheral draw, so it gates
        assert o["merge_begin"] == pytest.approx(16.0)
        assert o["merge_end"] == pytest.approx(17.0)
        assert res.client_records[0].total_ms == pytest.approx(17.0)
        assert res.client_records[1].total_ms == pytest.approx(17.0)

    def test_draw_bound_frame(self, tiny_spec, scene, rig):
        cost = CostModel(server_draw=5.0, encode=3.0, client_draw=20.0, decode=4.0, merge=1.0)
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig,
                              CameraPath(frame_count=1), net=LAT2, cost=cost)
        o = offsets(res.trace, 0)
        assert o["merge_begin"] == pytest.approx(20.0)
        assert res.client_records[0].total_ms == pytest.approx(21.0)

    def test_stage_durations_in_records(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig,
                              CameraPath(frame_count=3), net=LAT2, cost=FIG_COST)
        for r in res.client_records:
            assert r.draw_ms == pytest.approx(6.0)
            assert r.decode_ms == pytest.approx(4.0)
            assert r.merge_ms == pytest.approx(1.0)
            assert r.network_ms == pytest.approx(0.0)  # infinite bandwidth
        for s in res.server_records:
            assert s.draw_ms == pytest.approx(5.0)
            assert s.encode_ms == pytest.approx(3.0)
            assert s.bytes_sent == 2 * tiny_spec.fov_w * tiny_spec.fov_h * 3

    def test_only_a_stage_that_sent_waits_for_its_link(self, tiny_spec, scene, rig):
        # At 10 Mbps the pose takes 0.033 ms to transmit, and the two RAW
        # subframes (payload plus two 14-byte headers) 3.7 ms. The client's
        # free draw does not wait for its pose; the server's send stage
        # lasts until the link has taken both subframes.
        net = NetModel(latency_ms=5.0, bandwidth_mbps=10.0)
        free = CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0, merge=0.0)
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2),
                              net=net, cost=free)
        assert [c.draw_ms for c in res.client_records] == [0.0, 0.0]
        send_ms = net.tx_ms(2 * 32 * 24 * 3 + 28)
        assert [s.send_ms for s in res.server_records] == [pytest.approx(send_ms)] * 2

    def test_network_window_scales_with_payload(self, scene, rig):
        # first-to-last-byte window = transmitted bytes / link rate, so
        # growing the RAW payload grows the window by exactly the extra
        # payload bits over the rate (the fixed 14-byte headers cancel)
        net = NetModel(latency_ms=5.0, bandwidth_mbps=100.0)
        windows = {}
        for fov_w in (32, 64):
            spec = PartitionSpec.from_full(192, 96, fov_w, 24, 0.5)
            res = run_sim_virtual(spec, CodecId.RAW, scene, rig,
                                  CameraPath(frame_count=1), net=net, cost=FIG_COST)
            windows[fov_w] = res.client_records[0].network_ms
        per_ms = lambda nbytes: nbytes * 8.0 / (100.0 * 1e6) * 1000.0
        assert windows[32] == pytest.approx(per_ms(2 * 32 * 24 * 3 + 28), rel=1e-9)
        assert windows[64] - windows[32] == pytest.approx(per_ms(2 * 32 * 24 * 3), rel=1e-9)
        assert windows[64] == pytest.approx(2 * windows[32], rel=0.01)

    def test_pose_cadence_one_per_frame(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig,
                              CameraPath(frame_count=5), cost=FIG_COST)
        sends = [e for e in res.trace if e.actor == "client" and e.kind == "send"
                 and e.name == "pose"]
        assert [e.frame_id for e in sends] == [0, 1, 2, 3, 4]

    def test_lockstep_holds_over_100_frames(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.PRED_DEFLATE, scene, rig,
                              CameraPath(frame_count=100),
                              net=NetModel(2.0, 500.0), cost=FIG_COST)
        assert check_lockstep(res.trace, 100) == []

    def test_check_lockstep_flags_missing_events(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig,
                              CameraPath(frame_count=1), cost=FIG_COST)
        assert check_lockstep(res.trace, 2)  # frame 1 never ran

    def test_bit_reproducible(self, tiny_spec, scene, rig):
        runs = [
            run_sim_virtual(tiny_spec, CodecId.PRED_DEFLATE, scene, rig,
                            CameraPath(frame_count=6),
                            net=NetModel(1.5, 300.0), cost=FIG_COST)
            for _ in range(2)
        ]
        assert runs[0].client_records == runs[1].client_records
        assert runs[0].server_records == runs[1].server_records
        assert runs[0].trace.events() == runs[1].trace.events()

    def test_frames_match_native_composition(self, tiny_spec, scene, rig):
        sink = CollectSink()
        path = CameraPath(frame_count=4)
        run_sim_virtual(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path,
                        net=NetModel(3.0, 200.0), cost=FIG_COST, display=sink)
        for k, frame in enumerate(sink.frames):
            ref = ffr_frame(scene, rig, pose_at(path, k), tiny_spec)
            assert frame.tobytes() == ref.tobytes()


class TestVirtualClockIgnoresHostTiming:
    def test_jittered_stages_replay_identically(self, split_spec, scene, rig, monkeypatch):
        """The virtual clock reads only the runtimes' events and message
        sizes, so stages that take random host time change nothing."""
        run = lambda: run_sim_virtual(split_spec, CodecId.PRED_DEFLATE, scene, rig,
                                      CameraPath(frame_count=4), net=NetModel(1.5, 300.0),
                                      cost=FIG_COST)
        steady = run()
        rng = random.Random(21)
        for module, name in [(codec, "encode"), (codec, "decode"), (client, "render_scaled")]:
            def jittered(*args, _inner=getattr(module, name), **kwargs):
                time.sleep(rng.uniform(0.0, 0.004))
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, jittered)
        for _ in range(3):
            res = run()
            assert res.client_records == steady.client_records
            assert res.server_records == steady.server_records
            assert res.trace.events() == steady.trace.events()


class TestRowSplit:
    """At `split_spec` the server draws and ships the top 43 of the 80
    foveal rows and the client draws the other 37; the frames on display
    are still the native composition."""

    @pytest.mark.parametrize("run", [run_sim_wall, run_sim_virtual])
    @pytest.mark.parametrize("codec_id", [CodecId.RAW, CodecId.PRED_DEFLATE],
                             ids=["raw", "pred-deflate"])
    def test_split_frames_are_native(self, run, codec_id, split_spec, scene, rig, decoded_dims):
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        res = run(split_spec, codec_id, scene, rig, path, display=sink)
        assert decoded_dims == [(80, 43)] * 6
        assert len(sink.frames) == 3
        for k, frame in enumerate(sink.frames):
            assert frame.tobytes() == ffr_frame(scene, rig, pose_at(path, k), split_spec).tobytes()
        assert check_lockstep(res.trace, 3) == []

    @pytest.mark.parametrize("run", [run_sim_wall, run_sim_virtual])
    def test_raw_payload_is_the_served_rows(self, run, split_spec, scene, rig):
        res = run(split_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2))
        assert [s.bytes_sent for s in res.server_records] == [2 * 3 * 80 * 43] * 2
        assert [c.bytes_received for c in res.client_records] == [2 * 3 * 80 * 43] * 2

    def test_virtual_draws_charge_each_side_its_rays(self, split_spec, scene, rig):
        cost = CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0,
                         merge=0.0, us_per_ray=1.0)
        res = run_sim_virtual(split_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2),
                              cost=cost)
        # Server: 2 eyes x 80 x 43 rows. Client: the 40x20 reduced periphery
        # and 2 eyes x 80 x the other 37 rows.
        assert [s.draw_ms for s in res.server_records] == [pytest.approx(6.88)] * 2
        assert [c.draw_ms for c in res.client_records] == [pytest.approx(0.8 + 5.92)] * 2
        native = run_native_virtual(split_spec, CameraPath(frame_count=1), cost=cost)
        assert native[0].draw_ms == pytest.approx(6.88 + 0.8 + 5.92)


class TestNativeVirtual:
    def test_totals_are_stage_sums(self, tiny_spec):
        cost = CostModel(client_draw=9.0, merge=1.5)
        records = run_native_virtual(tiny_spec, CameraPath(frame_count=3), cost=cost)
        for r in records:
            assert r.total_ms == pytest.approx(9.0 + 1.5)
            assert r.network_ms == 0.0 and r.bytes_received == 0

    def test_per_ray_cost_counts_reduced_and_foveal_rays(self):
        spec = PartitionSpec.from_full(100, 50, 20, 10, 0.5)
        cost = CostModel(client_draw=0.0, us_per_ray=1.0)
        records = run_native_virtual(spec, CameraPath(frame_count=1), cost=cost)
        rays = 2 * 20 * 10 + 50 * 25
        assert records[0].draw_ms == pytest.approx(rays / 1000.0)

    def test_draws_no_frame(self, tiny_spec, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the virtual native arm drew a frame")

        monkeypatch.setattr(client, "render_scaled", no_draw)
        monkeypatch.setattr(server, "render_region", no_draw)
        records = run_native_virtual(tiny_spec, CameraPath(frame_count=3), cost=FIG_COST)
        assert [r.frame_id for r in records] == [0, 1, 2]

    def test_every_frame_reads_the_model(self):
        cost = CostModel(1.5, 2.25, 3.1, 0.7, 0.3, 0.01)
        records = run_native_virtual(PartitionSpec(64, 32, 16, 8, 0.5),
                                     CameraPath(frame_count=9), cost=cost)
        d = cost.client_draw_ms(2 * 16 * 8 + 32 * 16)
        assert records == [ClientFrameRecord(n, d, 0.0, 0.0, 0.3, d + 0.3, 0) for n in range(9)]


class TestSimplexPipe:
    def test_immediate_delivery_with_zero_net(self):
        pipe = SimplexPipe(ZERO_NET)
        pipe.write(b"hello")
        assert pipe.read(5) == b"hello"

    def test_latency_delays_delivery(self):
        pipe = SimplexPipe(NetModel(latency_ms=60.0, bandwidth_mbps=math.inf))
        t0 = time.perf_counter()
        pipe.write(b"x")
        out = pipe.read(1)
        elapsed = time.perf_counter() - t0
        assert out == b"x"
        assert elapsed >= 0.055

    def test_first_byte_lands_before_the_rest(self):
        # 8000 bytes at 1 Mbps = 64 ms of transmission after the first byte
        pipe = SimplexPipe(NetModel(latency_ms=0.0, bandwidth_mbps=1.0))
        t0 = time.perf_counter()
        pipe.write(b"a" * 8000)
        pipe.read(1)
        first = time.perf_counter() - t0
        rest = pipe.read(7999)
        while len(rest) < 7999:
            rest += pipe.read(7999 - len(rest))
        last = time.perf_counter() - t0
        assert first < 0.04
        assert last >= 0.055

    def test_close_reads_as_eof_after_drain(self):
        pipe = SimplexPipe(ZERO_NET)
        pipe.write(b"ab")
        pipe.close()
        assert pipe.read(10) == b"ab"
        assert pipe.read(1) == b""

    def test_write_after_close_raises(self):
        pipe = SimplexPipe(ZERO_NET)
        pipe.close()
        with pytest.raises(BrokenPipeError):
            pipe.write(b"x")


class TestWallClock:
    def test_session_runs_and_frames_match(self, tiny_spec, scene, rig):
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        res = run_sim_wall(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path,
                           net=ZERO_NET, display=sink)
        assert len(res.client_records) == 3
        assert len(res.server_records) == 3
        for k, frame in enumerate(sink.frames):
            assert np.array_equal(frame, ffr_frame(scene, rig, pose_at(path, k), tiny_spec))

    def test_lockstep_clean_on_shared_clock(self, tiny_spec, scene, rig):
        res = run_sim_wall(tiny_spec, CodecId.RAW, scene, rig,
                           CameraPath(frame_count=5), net=ZERO_NET)
        assert check_lockstep(res.trace, 5) == []

    def test_display_stall_delays_next_pose(self, tiny_spec, scene, rig):
        def slow_display(frame_id, frame):
            time.sleep(0.05)

        res = run_sim_wall(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=3),
                           display=slow_display)
        tr = res.trace
        for n in (1, 2):
            idle = (tr.find("server", RECV, "pose", n).t_ms
                    - tr.find("server", "end", "send", n - 1).t_ms)
            # the server sits idle for at least the display stall (lockstep)
            assert idle >= 50.0

    def test_modeled_latency_shows_up_in_totals(self, tiny_spec, scene, rig):
        res = run_sim_wall(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=3),
                           net=NetModel(latency_ms=25.0, bandwidth_mbps=math.inf))

        def t(actor, kind, name, n):
            return res.trace.find(actor, kind, name, n).t_ms

        # Each frame crosses the link twice, 25 ms each way, on the shared
        # clock; host noise can only widen these gaps.
        for n in range(3):
            assert t("server", RECV, "pose", n) - t("client", SEND, "pose", n) >= 25.0
            assert t("client", RECV, "subframe1", n) - t("server", SEND, "subframe1", n) >= 25.0
        assert min(r.total_ms for r in res.client_records) >= 50.0


class _CutStream:
    """Delivers the first `left` bytes of a stream, then reads as EOF."""

    def __init__(self, inner, left: int):
        self.inner = inner
        self.left = left

    def read(self, n: int) -> bytes:
        data = self.inner.read(min(n, self.left)) if self.left > 0 else b""
        self.left -= len(data)
        return data


class TestTruncatedDownlink:
    def test_a_cut_at_any_byte_ends_typed(self, scene, rig, monkeypatch):
        """A server->client stream cut after its first N bytes either
        completes (N covers every byte) or ends in a typed error, and the
        frames on display are exactly the native frames wholly delivered."""
        spec = PartitionSpec(200, 100, 80, 80, 0.5)
        path = CameraPath(frame_count=3)
        native = [ffr_frame(scene, rig, pose_at(path, n), spec).tobytes() for n in range(3)]
        _, writes = sim._run_split(spec, CodecId.PRED_DEFLATE, scene, rig, path, ZERO_NET,
                                   client.null_sink, Trace())
        ends = list(itertools.accumulate(writes["server"]))
        frame_ends, total = ends[1::2], ends[-1]
        cuts = sorted({*range(24), *range(0, total + 60, 97),
                       *(end + d for end in ends for d in (-1, 0, 1))})
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 2.0)
        for cut in cuts:
            monkeypatch.setattr(sim, "ClientSession", lambda reader, _cut=cut, **kwargs:
                                client.ClientSession(reader=_CutStream(reader, _cut), **kwargs))
            sink = CollectSink()
            try:
                run_sim_wall(spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
                assert cut >= total, f"a cut at byte {cut} of {total} completed"
            except (ConnectionClosedError, ProtocolError, CodecError):
                assert cut < total, f"a cut at byte {cut} of {total} raised"
            shown = [frame.tobytes() for frame in sink.frames]
            assert shown == native[: sum(end <= cut for end in frame_ends)], f"cut at byte {cut}"


class TestRigMismatch:
    def test_other_rig_ends_the_session_before_any_frame(self, tiny_spec, scene, monkeypatch):
        # The client draws with ipd 0.1; the server keeps the default rig.
        monkeypatch.setattr(
            sim, "ServerSession",
            lambda reader, writer, rig, trace=None: ServerSession(reader, writer, CameraRig(), trace),
        )
        sink = CollectSink()
        with pytest.raises(ProtocolError, match="camera rig"):
            run_sim_wall(tiny_spec, CodecId.RAW, scene, CameraRig(ipd=0.1),
                         CameraPath(frame_count=3), display=sink)
        assert sink.frames == []


class TestServerFailure:
    @pytest.mark.parametrize("run", [run_sim_wall, run_sim_virtual])
    def test_server_error_ends_the_session(self, run, tiny_spec, scene, rig, monkeypatch):
        serve_frame = ServerSession.serve_frame

        def fail_at_frame_1(self, pose, frame_id):
            if frame_id == 1:
                raise RuntimeError("server failed at frame 1")
            return serve_frame(self, pose, frame_id)

        monkeypatch.setattr(ServerSession, "serve_frame", fail_at_frame_1)
        outcome = {}

        def session():
            try:
                run(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=4))
            except Exception as e:
                outcome["error"] = e

        worker = threading.Thread(target=session, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "the session hung after the server failed"
        assert isinstance(outcome.get("error"), RuntimeError)
        assert str(outcome["error"]) == "server failed at frame 1"


class TestSilentServer:
    @pytest.mark.parametrize("run", [run_sim_wall, run_sim_virtual])
    def test_missing_subframes_time_out(self, run, tiny_spec, scene, rig, monkeypatch):
        # Like a socket session, the in-process link ends a wait on a peer
        # that sends nothing in a TimeoutError.
        send_subframes = ServerSession._send_subframes

        def skip_frame_1(self, frame_id, payloads):
            if frame_id != 1:
                send_subframes(self, frame_id, payloads)

        monkeypatch.setattr(ServerSession, "_send_subframes", skip_frame_1)
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 0.5)
        shown, outcome = [], {}

        def session():
            try:
                run(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=3),
                    display=lambda frame_id, frame: shown.append(frame_id))
            except Exception as e:
                outcome["error"] = e

        worker = threading.Thread(target=session, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "the session hung on a silent server"
        assert isinstance(outcome.get("error"), TimeoutError)
        assert shown == [0]


class TestBenchmarkSeams:
    """The traced benchmark times each layer by replacing the module
    attribute a runtime looks up at call time; every one must be called."""

    SEAMS = [
        (client, "pose_at"), (client, "render_scaled"), (client, "upsample_nearest"),
        (client, "merge"), (client, "write_msg"), (server, "render_region"),
        (server, "write_msg"), (codec, "encode"), (codec, "decode"),
    ]

    def test_every_seam_is_called(self, tiny_spec, scene, rig, monkeypatch):
        calls = {}
        for module, name in self.SEAMS:
            key = f"{module.__name__}.{name}"
            calls[key] = 0

            def counted(*args, _inner=getattr(module, name), _key=key, **kwargs):
                calls[_key] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        run_sim_wall(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=2))
        assert [key for key, n in calls.items() if n == 0] == []


class TestClientDrawStage:
    def test_upsample_runs_inside_the_draw_before_the_merge(self, tiny_spec, scene, rig,
                                                             monkeypatch):
        """The client upsamples its periphery while the foveae are in
        flight: each upsample call lies inside its frame's draw span and
        ends before that frame's merge begins."""
        stamps = []

        def stamped(*args, _inner=client.upsample_nearest):
            begin = now_ms()
            out = _inner(*args)
            stamps.append((begin, now_ms()))
            return out

        monkeypatch.setattr(client, "upsample_nearest", stamped)
        res = run_sim_wall(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3))
        at = lambda kind, name, n: res.trace.find("client", kind, name, n).t_ms
        assert len(stamps) == 3
        for n, (begin, end) in enumerate(stamps):
            assert at("begin", "draw", n) <= begin <= end <= at("end", "draw", n)
            assert end <= at("begin", "merge", n)


class TestOneStageClock:
    """Both clocks emit one event vocabulary, and wall-clock records are
    read off the very clock readings the trace holds."""

    def test_wall_and_virtual_emit_the_same_events(self, tiny_spec, scene, rig):
        path = CameraPath(frame_count=3)
        keys = lambda res: {(e.actor, e.kind, e.name, e.frame_id) for e in res.trace}
        wall = run_sim_wall(tiny_spec, CodecId.RAW, scene, rig, path)
        virtual = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig, path, cost=FIG_COST)
        assert keys(wall) == keys(virtual)

    def test_wall_records_match_their_trace_spans(self, tiny_spec, scene, rig):
        res = run_sim_wall(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3))
        span = lambda actor, name, n: (res.trace.find(actor, "end", name, n).t_ms
                                       - res.trace.find(actor, "begin", name, n).t_ms)
        for r in res.client_records:
            n = r.frame_id
            assert (r.draw_ms, r.decode_ms, r.merge_ms) == (
                span("client", "draw", n), span("client", "decode", n), span("client", "merge", n))
        for s in res.server_records:
            n = s.frame_id
            assert (s.draw_ms, s.encode_ms, s.send_ms) == (
                span("server", "draw", n), span("server", "encode", n), span("server", "send", n))

    def test_virtual_records_match_their_trace_spans(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.PRED_DEFLATE, scene, rig,
                              CameraPath(frame_count=4), net=NetModel(1.5, 300.0), cost=FIG_COST)
        at = lambda actor, kind, name, n: res.trace.find(actor, kind, name, n).t_ms
        span = lambda actor, name, n: at(actor, "end", name, n) - at(actor, "begin", name, n)
        assert len(res.client_records) == len(res.server_records) == 4
        for r in res.client_records:
            n = r.frame_id
            assert (r.draw_ms, r.decode_ms, r.merge_ms) == (
                span("client", "draw", n), span("client", "decode", n), span("client", "merge", n))
            assert r.total_ms == at("client", "end", "display", n) - at("client", "send", "pose", n)
        for s in res.server_records:
            n = s.frame_id
            assert (s.draw_ms, s.encode_ms, s.send_ms) == (
                span("server", "draw", n), span("server", "encode", n), span("server", "send", n))
