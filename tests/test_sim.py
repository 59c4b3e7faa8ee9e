import dataclasses
import itertools
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitfov import client, codec, server, sim, wire
from splitfov.camera import CameraPath, CameraRig, Pose, pose_at
from splitfov.client import ClientFrameRecord, ClientSession, CollectSink, ffr_frame, run_native
from splitfov.codec import CodecError, CodecId
from splitfov.partition import PartitionSpec
from splitfov.render import SceneConfig
from splitfov.server import ServerSession
from splitfov.trace import BEGIN, END, RECV, SEND, Stopwatch, Trace, now_ms
from splitfov.wire import ConnectionClosedError, ProtocolError, SubframeMsg
from splitfov.sim import (
    CostModel,
    NetModel,
    ZERO_NET,
    _Link,
    check_lockstep,
    loopback_session,
    replay,
    run_native_virtual,
    run_sim_virtual,
    start_server,
)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Every thread a test starts (the server's, the client's receive
    thread) has ended within 1 s of the test returning. A session whose
    client fails ends its server too: the client's close gives the
    server's read EOF, and resets a write of the server's that is blocked
    on a full socket buffer."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(deadline - time.monotonic(), 0.0))
    left = sorted(t.name for t in set(threading.enumerate()) - before)
    assert left == [], f"threads outlived the test: {left}"


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
        # subframes (payload plus two 18-byte headers) 3.7 ms. The client's
        # free draw does not wait for its pose; the server's send stage
        # lasts until the link has taken both subframes.
        net = NetModel(latency_ms=5.0, bandwidth_mbps=10.0)
        free = CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0, merge=0.0)
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2),
                              net=net, cost=free)
        assert [c.draw_ms for c in res.client_records] == [0.0, 0.0]
        send_ms = net.tx_ms(2 * 32 * 24 * 3 + 36)
        assert [s.send_ms for s in res.server_records] == [pytest.approx(send_ms)] * 2

    def test_network_window_scales_with_payload(self, scene, rig):
        # first-to-last-byte window = transmitted bytes / link rate, so
        # growing the RAW payload grows the window by exactly the extra
        # payload bits over the rate (the fixed 18-byte headers cancel)
        net = NetModel(latency_ms=5.0, bandwidth_mbps=100.0)
        windows = {}
        for fov_w in (32, 64):
            spec = PartitionSpec.from_full(192, 96, fov_w, 24, 0.5)
            res = run_sim_virtual(spec, CodecId.RAW, scene, rig,
                                  CameraPath(frame_count=1), net=net, cost=FIG_COST)
            windows[fov_w] = res.client_records[0].network_ms
        per_ms = lambda nbytes: nbytes * 8.0 / (100.0 * 1e6) * 1000.0
        assert windows[32] == pytest.approx(per_ms(2 * 32 * 24 * 3 + 36), rel=1e-9)
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


STAGE_MS = {
    ("server", "draw"): 5.0, ("server", "encode"): 3.0, ("server", "send"): 0.0,
    ("client", "draw"): 6.0, ("client", "decode"): 4.0, ("client", "merge"): 1.0,
    ("client", "display"): 0.0, ("client", "network"): 0.0, ("client", "total"): 0.0,
}


class ThreadTrace(Trace):
    """A trace that also keeps the thread that added each event."""

    def __init__(self):
        super().__init__()
        self.threads: list[threading.Thread] = []

    def add(self, *args) -> None:
        with self._lock:
            super().add(*args)
            self.threads.append(threading.current_thread())


class TestReplay:
    @pytest.mark.parametrize("spec_name", ["tiny_spec", "split_spec"])
    def test_each_named_lane_is_one_thread(self, spec_name, scene, rig, request):
        """The replay's one assumption about the recording: the lane it
        names from each event's actor and stage splits the events exactly
        as the threads that added them do. The lanes first appear in the
        order that breaks the replay's ties."""
        spec = request.getfixturevalue(spec_name)
        trace = loopback_session(spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3),
                                 trace=ThreadTrace()).trace
        lanes = [sim._lane(e) for e in trace.events()]
        assert len(set(zip(lanes, trace.threads))) == len(set(lanes)) == len(set(trace.threads)) == 3
        assert tuple(dict.fromkeys(lanes)) == sim._LANES

    def test_reads_only_event_order_and_sizes(self, split_spec, scene, rig):
        recorded = loopback_session(split_spec, CodecId.PRED_DEFLATE, scene, rig,
                                    CameraPath(frame_count=3)).trace
        rng = random.Random(36)
        scrambled = Trace()
        for e in recorded:
            scrambled.add(rng.uniform(-1e6, 1e6), e.actor, e.kind, e.name, e.frame_id)
        scrambled.sizes.update(recorded.sizes)
        virtual = replay(recorded, STAGE_MS, NetModel(1.5, 300.0))
        assert replay(scrambled, STAGE_MS, NetModel(1.5, 300.0)).events() == virtual.events()
        assert check_lockstep(virtual, 3) == []

    def test_a_send_with_no_traced_size_raises(self, tiny_spec, scene, rig):
        recorded = loopback_session(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2)).trace
        del recorded.sizes["server", "subframe0", 1]
        with pytest.raises(KeyError):
            replay(recorded, STAGE_MS, NetModel(1.5, 300.0))


class TestRowSplit:
    """At `split_spec` the server draws and ships the top 40 of the 80
    foveal rows, in two bands of 20 rows of both eyes side by side, and the
    client draws the other 40; the frames on display are still the native
    composition."""

    @pytest.mark.parametrize("run", [run_sim_virtual])
    @pytest.mark.parametrize("codec_id", [CodecId.RAW, CodecId.PRED_DEFLATE],
                             ids=["raw", "pred-deflate"])
    def test_split_frames_are_native(self, run, codec_id, split_spec, scene, rig, decoded_dims):
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        res = run(split_spec, codec_id, scene, rig, path, display=sink)
        assert decoded_dims == [(160, 20)] * 6
        assert len(sink.frames) == 3
        for k, frame in enumerate(sink.frames):
            assert frame.tobytes() == ffr_frame(scene, rig, pose_at(path, k), split_spec).tobytes()
        assert check_lockstep(res.trace, 3) == []

    @pytest.mark.parametrize("run", [run_sim_virtual])
    def test_one_server_row_is_one_band(self, run, scene, rig, decoded_dims):
        """At k = 1 each frame is one subframe, the server's one row of both
        eyes, and the frames on display are still the native ones."""
        spec = PartitionSpec(8, 4, 4, 1, 1.0)
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        res = run(spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
        assert decoded_dims == [(8, 1)] * 3
        assert len(sink.frames) == 3
        for n, frame in enumerate(sink.frames):
            assert frame.tobytes() == ffr_frame(scene, rig, pose_at(path, n), spec).tobytes()
        receipts = [e.name for e in res.trace if (e.actor, e.kind) == ("client", RECV)]
        assert receipts == ["subframe0"] * 3
        assert check_lockstep(res.trace, 3) == []

    @pytest.mark.parametrize("run", [run_sim_virtual])
    def test_raw_payload_is_the_served_rows(self, run, split_spec, scene, rig):
        res = run(split_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2))
        assert [s.bytes_sent for s in res.server_records] == [2 * 3 * 80 * 40] * 2
        assert [c.bytes_received for c in res.client_records] == [2 * 3 * 80 * 40] * 2

    def test_virtual_draws_charge_each_side_its_rays(self, split_spec, scene, rig):
        cost = CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0,
                         merge=0.0, us_per_ray=1.0)
        res = run_sim_virtual(split_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2),
                              cost=cost)
        # Server: 2 eyes x 80 x 40 rows. Client: none of the 40x20 reduced
        # periphery, which the foveae hide, and 2 eyes x 80 x the other 40
        # rows.
        assert [s.draw_ms for s in res.server_records] == [pytest.approx(6.4)] * 2
        assert [c.draw_ms for c in res.client_records] == [pytest.approx(6.4)] * 2
        native = run_native_virtual(split_spec, CameraPath(frame_count=1), cost=cost)
        assert native[0].draw_ms == pytest.approx(6.4 + 6.4)


class TestNativeVirtual:
    def test_totals_are_stage_sums(self, tiny_spec):
        cost = CostModel(client_draw=9.0, merge=1.5)
        records = run_native_virtual(tiny_spec, CameraPath(frame_count=3), cost=cost)
        for r in records:
            assert r.total_ms == pytest.approx(9.0)
            assert r.network_ms == 0.0 and r.bytes_received == 0

    def test_per_ray_cost_counts_reduced_and_foveal_rays(self):
        spec = PartitionSpec.from_full(100, 50, 20, 10, 0.5)
        cost = CostModel(client_draw=0.0, us_per_ray=1.0)
        records = run_native_virtual(spec, CameraPath(frame_count=1), cost=cost)
        rays = 2 * 20 * 10 + 50 * 25 - 5 * 2 * 9  # less the holes: 5 rows by 9 columns per eye
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
        d = cost.client_draw_ms(2 * 16 * 8 + 32 * 16 - 4 * 2 * 8)  # less 4 x 8 holes per eye
        assert records == [ClientFrameRecord(n, d, 0.0, 0.0, 0.0, d, 0) for n in range(9)]


class TestWallClock:
    """The runtimes on the machine clock, over loopback TCP as the CLI's
    `server` and `client` run them, both tracing into one trace."""

    def test_session_runs_and_frames_match(self, tiny_spec, scene, rig):
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        res = loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
        assert len(res.client_records) == 3
        assert len(res.server_records) == 3
        for k, frame in enumerate(sink.frames):
            assert np.array_equal(frame, ffr_frame(scene, rig, pose_at(path, k), tiny_spec))

    def test_lockstep_clean_on_shared_clock(self, tiny_spec, scene, rig):
        res = loopback_session(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=5))
        assert check_lockstep(res.trace, 5) == []

    def test_display_stall_delays_next_pose(self, tiny_spec, scene, rig):
        def slow_display(frame_id, frame):
            time.sleep(0.05)

        res = loopback_session(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=3),
                               display=slow_display)
        tr = res.trace
        for n in (1, 2):
            idle = (tr.find("server", RECV, "pose", n).t_ms
                    - tr.find("server", "end", "send", n - 1).t_ms)
            # the server sits idle for at least the display stall (lockstep)
            assert idle >= 50.0


class TestStartServer:
    def test_a_server_that_fails_before_it_listens_raises_at_once(self, rig, monkeypatch):
        def cannot_bind(*args, **kwargs):
            raise OSError("cannot bind")

        monkeypatch.setattr(sim, "run_server", cannot_bind)
        t0 = time.perf_counter()
        with pytest.raises(OSError, match="cannot bind"):
            start_server(rig)
        assert time.perf_counter() - t0 < 1.0


def server_message_ends(spec, scene, rig, path) -> list[int]:
    """Where each message the server sends ends in its stream, in bytes:
    the running sum of the SEND sizes on a clean session's trace."""
    trace = loopback_session(spec, CodecId.PRED_DEFLATE, scene, rig, path).trace
    return list(itertools.accumulate(trace.sizes[e.actor, e.name, e.frame_id] for e in trace
                                     if e.actor == "server" and e.kind == SEND))


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
        ends = server_message_ends(spec, scene, rig, path)
        frame_ends, total = ends[1::2], ends[-1]
        cuts = sorted({*range(24), *range(0, total + 60, 97),
                       *(end + d for end in ends for d in (-1, 0, 1))})
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 2.0)
        for cut in cuts:
            monkeypatch.setattr(client, "ClientSession", lambda reader, *args, _cut=cut:
                                ClientSession(_CutStream(reader, _cut), *args))
            sink = CollectSink()
            try:
                run_sim_virtual(spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
                assert cut >= total, f"a cut at byte {cut} of {total} completed"
            except (ConnectionClosedError, ProtocolError, CodecError):
                assert cut < total, f"a cut at byte {cut} of {total} raised"
            shown = [frame.tobytes() for frame in sink.frames]
            assert shown == native[: sum(end <= cut for end in frame_ends)], f"cut at byte {cut}"


class TestStoppedReader:
    def test_a_reader_that_stops_cannot_hang_the_session(self, scene, rig, monkeypatch):
        """The client stops reading 5,000 bytes into a frame of two RAW
        subframes of about 625 KB each, more than the socket buffers take
        from a reader that has stopped, so the server's write blocks. The
        client's close resets that write, so the session ends in
        ConnectionClosedError at once and displays nothing."""
        spec = PartitionSpec(1400, 700, 640, 640, 0.25)
        monkeypatch.setattr(client, "ClientSession", lambda reader, *args:
                            ClientSession(_CutStream(reader, 5000), *args))
        shown, outcome = [], {}

        def session():
            try:
                run_sim_virtual(spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2),
                                display=lambda frame_id, frame: shown.append(frame_id))
            except Exception as e:
                outcome["error"] = e

        worker = threading.Thread(target=session, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "the session hung on a reader that stopped"
        assert isinstance(outcome.get("error"), ConnectionClosedError)
        assert shown == []


class _StalledWriter:
    """Forwards the first `left` bytes written, then drops every later
    write without closing: a peer that stalls mid-stream."""

    def __init__(self, inner, left: int):
        self.inner = inner
        self.left = left

    def __call__(self, data: bytes) -> None:
        self.inner(data[: max(self.left, 0)])
        self.left -= len(data)


class TestStalledDownlink:
    def test_a_stall_ends_in_a_timeout(self, scene, rig, monkeypatch):
        """A server->client stream that stops after its first N bytes, and
        stays open, ends in TimeoutError within the patched read deadline,
        and the frames on display are exactly the native frames wholly
        delivered."""
        spec = PartitionSpec(200, 100, 80, 80, 0.5)
        path = CameraPath(frame_count=3)
        native = [ffr_frame(scene, rig, pose_at(path, n), spec).tobytes() for n in range(3)]
        ends = server_message_ends(spec, scene, rig, path)
        assert ends[2] + 100 < ends[3]
        # Into frame 1's first subframe header, 100 bytes into its second
        # subframe, and exactly at its end, with the frames wholly delivered.
        cuts = [(ends[1] + 2, 1), (ends[2] + 100, 1), (ends[3], 2)]
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 0.5)
        for cut, delivered in cuts:
            monkeypatch.setattr(
                server, "ServerSession",
                lambda reader, writer, rig, trace=None, _cut=cut:
                    ServerSession(reader, _StalledWriter(writer, _cut), rig, trace),
            )
            sink = CollectSink()
            t0 = time.perf_counter()
            with pytest.raises(TimeoutError):
                run_sim_virtual(spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
            assert time.perf_counter() - t0 < 5.0, f"cut at byte {cut}"
            shown = [frame.tobytes() for frame in sink.frames]
            assert shown == native[:delivered], f"cut at byte {cut}"


class TestRigMismatch:
    def test_other_rig_ends_the_session_before_any_frame(self, tiny_spec, scene, monkeypatch):
        # The client draws with ipd 0.1; the server keeps the default rig.
        monkeypatch.setattr(
            server, "ServerSession",
            lambda reader, writer, rig, trace=None: ServerSession(reader, writer, CameraRig(), trace),
        )
        sink = CollectSink()
        with pytest.raises(ProtocolError, match="camera rig"):
            run_sim_virtual(tiny_spec, CodecId.RAW, scene, CameraRig(ipd=0.1),
                            CameraPath(frame_count=3), display=sink)
        assert sink.frames == []


class TestServerFailure:
    @pytest.mark.parametrize("run", [run_sim_virtual])
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
    @pytest.mark.parametrize("run", [run_sim_virtual])
    def test_missing_subframes_time_out(self, run, tiny_spec, scene, rig, monkeypatch):
        # The simulator's runtimes run a loopback TCP session, under its
        # read deadline, so a wait on a peer that sends nothing ends in a
        # TimeoutError. Frame 1's subframes are written as empty
        # writes, which send nothing.
        write_msg = server.write_msg

        def skip_frame_1(msg):
            return b"" if isinstance(msg, SubframeMsg) and msg.frame_id == 1 else write_msg(msg)

        monkeypatch.setattr(server, "write_msg", skip_frame_1)
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
        loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=2))
        assert [key for key, n in calls.items() if n == 0] == []

    def test_frames_are_run_with_positional_arguments(self, tiny_spec, scene, rig, monkeypatch):
        # The benchmark reads the frame id of each call by position.
        calls = []

        def positional(method):
            def wrapped(*args, **kwargs):
                assert kwargs == {}
                calls.append((method.__name__, *map(type, args[1:])))
                return method(*args)
            return wrapped

        monkeypatch.setattr(client.ClientSession, "run_frame", positional(client.ClientSession.run_frame))
        monkeypatch.setattr(ServerSession, "serve_frame", positional(ServerSession.serve_frame))
        loopback_session(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2))
        assert sorted(calls) == 2 * [("run_frame", int, ThreadPoolExecutor)] + 2 * [
            ("serve_frame", Pose, int)]

    def test_a_restamping_trace_with_a_five_argument_add_is_read(self, tiny_spec, scene, rig):
        # As the benchmark's shared-epoch trace does, passed to both
        # runtimes: each event is stamped again on the way in, and the
        # records are read off those stamps.
        class Restamped(Trace):
            def __init__(self):
                super().__init__()
                self.epoch, self.added = now_ms(), 0

            def add(self, t_ms, actor, kind, name, frame_id):
                self.added += 1
                super().add(now_ms() - self.epoch, actor, kind, name, frame_id)

        path = CameraPath(frame_count=3)
        res = loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path, trace=Restamped())
        plain = loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path)
        assert isinstance(res.trace, Restamped)
        assert res.trace.added == len(res.trace) == len(plain.trace)
        keys = lambda trace: sorted((e.actor, e.kind, e.name, e.frame_id) for e in trace)
        assert keys(res.trace) == keys(plain.trace)
        assert check_lockstep(res.trace, 3) == []
        assert len(res.client_records) == len(res.server_records) == 3
        for records, actor in ((res.client_records, "client"), (res.server_records, "server")):
            for r in records:
                assert traced_ms(r) == spans_ms(res.trace, actor, r)


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
        res = loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3))
        at = lambda kind, name, n: res.trace.find("client", kind, name, n).t_ms
        assert len(stamps) == 3
        for n, (begin, end) in enumerate(stamps):
            assert at("begin", "draw", n) <= begin <= end <= at("end", "draw", n)
            assert end <= at("begin", "merge", n)


class TestOneStageClock:
    """Both clocks emit one event vocabulary, and wall-clock records, from
    a loopback session, are read off the very clock readings the trace
    holds."""

    def test_wall_and_virtual_emit_the_same_events(self, tiny_spec, scene, rig):
        path = CameraPath(frame_count=3)
        keys = lambda res: {(e.actor, e.kind, e.name, e.frame_id) for e in res.trace}
        wall = loopback_session(tiny_spec, CodecId.RAW, scene, rig, path)
        virtual = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig, path, cost=FIG_COST)
        assert keys(wall) == keys(virtual)

    def test_wall_records_match_their_trace_spans(self, tiny_spec, scene, rig):
        res = loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3))
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

    @pytest.mark.parametrize("mode", ["wall", "virtual", "native"])
    def test_every_record_field_is_its_trace_span(self, tiny_spec, scene, rig, mode, monkeypatch):
        # Every `*_ms` field, on both clocks and native, and both byte
        # fields, which count the payloads the server encoded.
        payloads = []

        def counted(*args, _inner=codec.encode):
            payloads.append(len(out := _inner(*args)))
            return out

        monkeypatch.setattr(codec, "encode", counted)
        path = CameraPath(frame_count=3)
        if mode == "native":
            stopwatches = []

            def kept(actor):
                stopwatches.append(Stopwatch(actor, Trace()))
                return stopwatches[-1]

            monkeypatch.setattr(client, "Stopwatch", kept)
            client_records, server_records = run_native(tiny_spec, scene, rig, path), []
            (trace,) = [sw.trace for sw in stopwatches]
        else:
            res = (loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path) if mode == "wall"
                   else run_sim_virtual(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, path,
                                        net=NetModel(1.5, 300.0), cost=FIG_COST))
            client_records, server_records, trace = res.client_records, res.server_records, res.trace
            assert [s.frame_id for s in server_records] == [0, 1, 2]
        assert [r.frame_id for r in client_records] == [0, 1, 2]
        # Native draws every row itself: it has no network, decode or merge span.
        zero = {"network_ms", "decode_ms", "merge_ms"} if mode == "native" else set()
        frame_bytes = [0] * 3 if mode == "native" else [
            payloads[2 * n] + payloads[2 * n + 1] for n in range(3)]
        for r in client_records:
            assert traced_ms(r) == spans_ms(trace, "client", r, zero)
            assert set(traced_ms(r)) == {"draw_ms", "network_ms", "decode_ms", "merge_ms", "total_ms"}
            assert r.bytes_received == frame_bytes[r.frame_id]
        for s in server_records:
            assert traced_ms(s) == spans_ms(trace, "server", s)
            assert set(traced_ms(s)) == {"draw_ms", "encode_ms", "send_ms"}
            assert s.bytes_sent == frame_bytes[s.frame_id]

    def test_wall_total_and_network_keep_their_definitions(self, tiny_spec, scene, rig,
                                                          monkeypatch):
        # total begins before the frame's pose is looked up and ends after
        # display; network runs from the frame's first byte to the receipt
        # of its last subframe.
        looked_up = []

        def stamped(*args, _inner=client.pose_at):
            looked_up.append(now_ms())
            return _inner(*args)

        monkeypatch.setattr(client, "pose_at", stamped)
        res = loopback_session(tiny_spec, CodecId.PRED_DEFLATE, scene, rig, CameraPath(frame_count=3))
        at = lambda kind, name, n: res.trace.find("client", kind, name, n).t_ms
        assert len(looked_up) == 3
        for n, pose_t in enumerate(looked_up):
            assert at(BEGIN, "total", n) <= pose_t <= at(SEND, "pose", n)
            assert at(END, "display", n) <= at(END, "total", n)
            assert at(BEGIN, "network", n) <= at(RECV, "subframe0", n)
            assert at(RECV, "subframe1", n) <= at(END, "network", n) <= at(BEGIN, "decode", n)
            # The first byte reaches the client after it is sent.
            assert at(BEGIN, "network", n) >= res.trace.find("server", SEND, "subframe0", n).t_ms


def traced_ms(record) -> dict[str, float]:
    """A record's `*_ms` fields by name."""
    return {k: v for k, v in dataclasses.asdict(record).items() if k.endswith("_ms")}


def spans_ms(trace, actor, record, zero=frozenset()) -> dict[str, float]:
    """END minus BEGIN of the actor's span named by each of the record's
    `*_ms` fields, in the record's frame; the fields in `zero` must have no
    span, and read 0.0."""
    out = {}
    for name in traced_ms(record):
        stage = name[: -len("_ms")]
        if name in zero:
            with pytest.raises(KeyError):
                trace.find(actor, BEGIN, stage, record.frame_id)
            out[name] = 0.0
        else:
            out[name] = (trace.find(actor, END, stage, record.frame_id).t_ms
                         - trace.find(actor, BEGIN, stage, record.frame_id).t_ms)
    return out


PINNED_CLIENT_RECORDS = [
    (0, 6.0, 0.12384000000000128, 4.0, 1.0, 16.126133333333335, 4608),
    (1, 6.0, 0.12384000000000128, 4.0, 1.0000000000000036, 16.12493333333334, 4608),
    (2, 6.0, 0.12384000000000128, 4.0, 1.0, 16.12493333333333, 4608),
    (3, 6.0, 0.12384000000000128, 4.0, 1.0, 16.12493333333333, 4608),
]
PINNED_SERVER_RECORDS = [
    (0, 5.0, 3.000000000000001, 0.12384000000000128, 4608),
    (1, 5.0, 3.0, 0.12384000000000128, 4608),
    (2, 5.0, 3.0, 0.12384000000000128, 4608),
    (3, 5.0, 3.0, 0.12384000000000128, 4608),
]
PINNED_EVENTS = [
    (0.0, 'client', 'send', 'hello', 0), (0.0, 'client', 'send', 'pose', 0),
    (0.0, 'client', 'begin', 'draw', 0), (1.5012, 'server', 'recv', 'hello', 0),
    (1.5022933333333333, 'server', 'recv', 'pose', 0),
    (1.5022933333333333, 'server', 'begin', 'draw', 0), (6.0, 'client', 'end', 'draw', 0),
    (6.502293333333333, 'server', 'end', 'draw', 0),
    (6.502293333333333, 'server', 'begin', 'encode', 0),
    (9.502293333333334, 'server', 'end', 'encode', 0),
    (9.502293333333334, 'server', 'begin', 'send', 0),
    (9.502293333333334, 'server', 'send', 'subframe0', 0),
    (9.502293333333334, 'server', 'send', 'subframe1', 0), (9.626133333333335, 'server', 'end', 'send', 0),
    (11.064213333333335, 'client', 'recv', 'subframe0', 0),
    (11.126133333333335, 'client', 'recv', 'subframe1', 0), (11.126133333333335, 'client', 'begin', 'decode', 0),
    (15.126133333333335, 'client', 'begin', 'merge', 0), (15.126133333333335, 'client', 'end', 'decode', 0),
    (16.126133333333335, 'client', 'end', 'merge', 0), (16.126133333333335, 'client', 'begin', 'display', 0),
    (16.126133333333335, 'client', 'end', 'display', 0), (16.126133333333335, 'client', 'send', 'pose', 1),
    (16.126133333333335, 'client', 'begin', 'draw', 1), (17.62722666666667, 'server', 'recv', 'pose', 1),
    (17.62722666666667, 'server', 'begin', 'draw', 1), (22.126133333333335, 'client', 'end', 'draw', 1),
    (22.62722666666667, 'server', 'end', 'draw', 1),
    (22.62722666666667, 'server', 'begin', 'encode', 1),
    (25.62722666666667, 'server', 'end', 'encode', 1),
    (25.62722666666667, 'server', 'begin', 'send', 1),
    (25.62722666666667, 'server', 'send', 'subframe0', 1),
    (25.62722666666667, 'server', 'send', 'subframe1', 1), (25.75106666666667, 'server', 'end', 'send', 1),
    (27.18914666666667, 'client', 'recv', 'subframe0', 1),
    (27.25106666666667, 'client', 'recv', 'subframe1', 1), (27.25106666666667, 'client', 'begin', 'decode', 1),
    (31.25106666666667, 'client', 'begin', 'merge', 1), (31.25106666666667, 'client', 'end', 'decode', 1),
    (32.251066666666674, 'client', 'end', 'merge', 1),
    (32.251066666666674, 'client', 'begin', 'display', 1),
    (32.251066666666674, 'client', 'end', 'display', 1),
    (32.251066666666674, 'client', 'send', 'pose', 2),
    (32.251066666666674, 'client', 'begin', 'draw', 2),
    (33.75216, 'server', 'recv', 'pose', 2),
    (33.75216, 'server', 'begin', 'draw', 2),
    (38.251066666666674, 'client', 'end', 'draw', 2),
    (38.75216, 'server', 'end', 'draw', 2),
    (38.75216, 'server', 'begin', 'encode', 2),
    (41.75216, 'server', 'end', 'encode', 2),
    (41.75216, 'server', 'begin', 'send', 2),
    (41.75216, 'server', 'send', 'subframe0', 2),
    (41.75216, 'server', 'send', 'subframe1', 2), (41.876000000000005, 'server', 'end', 'send', 2),
    (43.314080000000004, 'client', 'recv', 'subframe0', 2),
    (43.376000000000005, 'client', 'recv', 'subframe1', 2), (43.376000000000005, 'client', 'begin', 'decode', 2),
    (47.376000000000005, 'client', 'begin', 'merge', 2), (47.376000000000005, 'client', 'end', 'decode', 2),
    (48.376000000000005, 'client', 'end', 'merge', 2), (48.376000000000005, 'client', 'begin', 'display', 2),
    (48.376000000000005, 'client', 'end', 'display', 2), (48.376000000000005, 'client', 'send', 'pose', 3),
    (48.376000000000005, 'client', 'begin', 'draw', 3), (49.877093333333335, 'server', 'recv', 'pose', 3),
    (49.877093333333335, 'server', 'begin', 'draw', 3), (54.376000000000005, 'client', 'end', 'draw', 3),
    (54.877093333333335, 'server', 'end', 'draw', 3),
    (54.877093333333335, 'server', 'begin', 'encode', 3),
    (57.877093333333335, 'server', 'end', 'encode', 3),
    (57.877093333333335, 'server', 'begin', 'send', 3),
    (57.877093333333335, 'server', 'send', 'subframe0', 3),
    (57.877093333333335, 'server', 'send', 'subframe1', 3), (58.000933333333336, 'server', 'end', 'send', 3),
    (59.439013333333335, 'client', 'recv', 'subframe0', 3),
    (59.500933333333336, 'client', 'recv', 'subframe1', 3), (59.500933333333336, 'client', 'begin', 'decode', 3),
    (63.500933333333336, 'client', 'begin', 'merge', 3), (63.500933333333336, 'client', 'end', 'decode', 3),
    (64.50093333333334, 'client', 'end', 'merge', 3), (64.50093333333334, 'client', 'begin', 'display', 3),
    (64.50093333333334, 'client', 'end', 'display', 3), (64.50093333333334, 'client', 'send', 'end', 3),
    (66.00128000000001, 'server', 'recv', 'end', 3),
]


class TestVirtualClockPinned:
    """The virtual clock's records and events for one configuration, as
    first taken. RAW payload sizes, and so link times, do not depend on the
    zlib build. Only the events named here are compared, so a later span
    adds events without moving these."""

    def test_records_and_events_are_pinned(self, tiny_spec, scene, rig):
        res = run_sim_virtual(tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=4),
                              net=NetModel(1.5, 300.0), cost=FIG_COST)
        names = {e[3] for e in PINNED_EVENTS}
        assert [dataclasses.astuple(r) for r in res.client_records] == PINNED_CLIENT_RECORDS
        assert [dataclasses.astuple(s) for s in res.server_records] == PINNED_SERVER_RECORDS
        assert [dataclasses.astuple(e) for e in res.trace if e.name in names] == PINNED_EVENTS
