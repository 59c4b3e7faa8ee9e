"""End-to-end client/server sessions over real loopback TCP and over
in-memory streams."""

import dataclasses
import io
import logging
import math
import socket
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splitfov import client, server, wire
from splitfov import trace as trace_mod
from splitfov.camera import CameraPath, CameraRig, pose_at
from splitfov.client import ClientSession, CollectSink, ffr_frame, run_client
from splitfov.codec import CodecError, CodecId, encode
from splitfov.partition import MIN_SCALE, PartitionSpec, server_rows, subframe_bands
from splitfov.render import SceneConfig
from splitfov.server import ServerSession, pose_from_wire, run_server
from splitfov.trace import BEGIN, END, Trace
from splitfov.wire import (
    EndMsg,
    HelloMsg,
    PoseUpdateMsg,
    ProtocolError,
    SubframeMsg,
    read_msg,
    write_msg,
    PROTOCOL_VERSION,
)


class Collected:
    """Writer callback that accumulates the server's outgoing bytes."""

    def __init__(self):
        self.chunks = []

    def __call__(self, data: bytes) -> None:
        self.chunks.append(data)


def start_server(**kwargs):
    """run_server on an ephemeral port; returns (future, port)."""
    port_ready = threading.Event()
    bound = {}

    def ready(port):
        bound["port"] = port
        port_ready.set()

    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(run_server, "127.0.0.1", 0, ready=ready, **kwargs)
    assert port_ready.wait(timeout=10.0)
    pool.shutdown(wait=False)
    return future, bound["port"]


def hello_for(spec, codec=CodecId.PRED_DEFLATE, version=PROTOCOL_VERSION, rig=CameraRig()):
    return HelloMsg(version, spec.full_w, spec.full_h, spec.fov_w, spec.fov_h,
                    spec.periph_scale, int(codec), 1,
                    rig.ipd, rig.horizontal_fov, rig.near)


class TestLoopbackSession:
    @pytest.mark.parametrize("codec", [CodecId.RAW, CodecId.PRED_DEFLATE])
    def test_full_session_lossless(self, desk_spec, scene, rig, codec):
        future, port = start_server(rig=rig)
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        client_records = run_client("127.0.0.1", port, desk_spec, codec, scene,
                                    rig, path, display=sink)
        server_records = future.result(timeout=30.0)

        assert len(client_records) == 3
        assert len(server_records) == 3
        # streamed foveae are lossless: displayed frames equal the
        # locally composed reference bit for bit
        for k, frame in enumerate(sink.frames):
            ref = ffr_frame(scene, rig, pose_at(path, k), desk_spec)
            assert frame.tobytes() == ref.tobytes()
        for c, s in zip(client_records, server_records):
            assert c.frame_id == s.frame_id
            assert c.bytes_received == s.bytes_sent
            assert c.total_ms > 0 and c.network_ms >= 0 and c.decode_ms >= 0
            assert s.draw_ms > 0 and s.encode_ms >= 0

    @pytest.mark.parametrize("codec_id", [CodecId.RAW, CodecId.PRED_DEFLATE],
                             ids=["raw", "pred-deflate"])
    def test_split_rows_session_lossless(self, split_spec, scene, rig, codec_id, decoded_dims):
        """The server ships 40 of the 80 foveal rows, as two bands of 20
        rows of both eyes side by side, and the client draws the rest; the
        displayed frames are the native composition."""
        future, port = start_server(rig=rig)
        sink = CollectSink()
        path = CameraPath(frame_count=3)
        client_records = run_client("127.0.0.1", port, split_spec, codec_id, scene,
                                    rig, path, display=sink)
        server_records = future.result(timeout=30.0)
        assert decoded_dims == [(160, 20)] * 6
        assert len(sink.frames) == 3
        for k, frame in enumerate(sink.frames):
            assert frame.tobytes() == ffr_frame(scene, rig, pose_at(path, k), split_spec).tobytes()
        assert [c.bytes_received for c in client_records] == [s.bytes_sent for s in server_records]
        if codec_id == CodecId.RAW:
            assert [s.bytes_sent for s in server_records] == [2 * 3 * 80 * 40] * 3

    def test_a_scale_the_hello_rounds_across_a_half_splits_both_sides_alike(self, scene, rig):
        """270 * 0.45 is 121.5, which rounds to 122 rows of periphery, but
        270 times the hello's f32 of 0.45 is just under it and rounds to
        121. The two sides must split the fovea from the same value, or the
        client decodes the server's rows at the wrong height."""
        spec = PartitionSpec(600, 270, 128, 144, 0.45)
        future, port = start_server(rig=rig)
        sink = CollectSink()
        path = CameraPath(frame_count=2)
        run_client("127.0.0.1", port, spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
        future.result(timeout=30.0)
        assert len(sink.frames) == 2
        for k, frame in enumerate(sink.frames):
            assert frame.tobytes() == ffr_frame(scene, rig, pose_at(path, k), spec).tobytes()

    def test_client_logs_the_connect_and_the_end(self, tiny_spec, scene, rig, caplog):
        caplog.set_level(logging.INFO, logger="splitfov.client")
        future, port = start_server(rig=rig)
        run_client("127.0.0.1", port, tiny_spec, CodecId.RAW, scene, rig, CameraPath(frame_count=2))
        future.result(timeout=30.0)
        logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "splitfov.client"]
        assert logged == [
            (logging.INFO, f"connected to server at 127.0.0.1:{port}"),
            (logging.INFO, "session ended after 2 frames"),
        ]

    def test_fovea_geometry_session_is_native(self, scene, rig, decoded_dims):
        """At the fovea_tcp geometry both sides derive k = 322 rows, the
        server draws them and sends them as two bands of 161 rows of both
        eyes, and the frames on display are the native frames."""
        spec = PartitionSpec(2400, 1080, 768, 540, 0.3)
        future, port = start_server(rig=rig)
        sink = CollectSink()
        path = CameraPath(frame_count=2)
        run_client("127.0.0.1", port, spec, CodecId.PRED_DEFLATE, scene, rig, path, display=sink)
        future.result(timeout=60.0)
        assert decoded_dims == [(1536, 161)] * 4
        assert len(sink.frames) == 2
        for n, frame in enumerate(sink.frames):
            assert frame.tobytes() == ffr_frame(scene, rig, pose_at(path, n), spec).tobytes()

    def test_client_disconnect_preserves_partial_records(self, desk_spec, rig):
        future, port = start_server(rig=rig)
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(write_msg(hello_for(desk_spec)))
            pose = pose_at(CameraPath(frame_count=5), 0)
            sock.sendall(write_msg(PoseUpdateMsg(
                0, tuple(float(v) for v in pose.position),
                tuple(float(v) for v in pose.orientation))))
            # wait for both subframes so frame 0 definitely completed;
            # the reader must be closed or the socket fd stays open and
            # the server never sees EOF
            reader = sock.makefile("rb")
            try:
                assert read_msg(reader) is not None
                assert read_msg(reader) is not None
            finally:
                reader.close()
        records = future.result(timeout=30.0)
        assert len(records) == 1
        assert records[0].frame_id == 0


class TestIoDeadline:
    """A silent peer ends the session in a TimeoutError within a bounded
    time on either side."""

    def test_client_against_a_silent_listener(self, tiny_spec, scene, rig, monkeypatch):
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 0.5)
        with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                run_client("127.0.0.1", listener.getsockname()[1], tiny_spec, CodecId.RAW,
                           scene, rig, CameraPath(frame_count=1))
        assert time.monotonic() - t0 < 5.0

    def test_server_whose_client_stalls_after_the_hello(self, tiny_spec, rig, monkeypatch):
        monkeypatch.setattr(wire, "IO_TIMEOUT_S", 0.5)
        future, port = start_server(rig=rig)
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(write_msg(hello_for(tiny_spec)))
            t0 = time.monotonic()
            error = future.exception(timeout=5.0)
        assert isinstance(error, TimeoutError)
        assert time.monotonic() - t0 < 5.0


class TestServerSessionUnit:
    def run_session(self, messages, **kwargs):
        stream = io.BytesIO(b"".join(write_msg(m) for m in messages))
        out = Collected()
        session = ServerSession(stream, out, rig=CameraRig(), **kwargs)
        return session, session.run()

    def test_rejects_wrong_version(self, tiny_spec):
        with pytest.raises(ProtocolError, match="version"):
            self.run_session([hello_for(tiny_spec, version=99)])

    def test_rejects_a_protocol_5_hello(self, tiny_spec):
        # Protocol 5 served whole foveae; this server sends only its rows.
        with pytest.raises(ProtocolError, match="peer speaks protocol version 5"):
            self.run_session([hello_for(tiny_spec, version=5)])

    def test_rejects_a_protocol_6_hello(self, tiny_spec):
        # Protocol 6 sent 3 residual bytes per missed pixel; this server
        # sends the one-byte symbols, which a protocol 6 client cannot read.
        with pytest.raises(ProtocolError, match="peer speaks protocol version 6"):
            self.run_session([hello_for(tiny_spec, version=6)])

    def test_rejects_a_protocol_7_hello(self, tiny_spec):
        # A protocol 7 peer sends subframes without a CRC and counts the
        # periphery's holes in k, so it would split the fovea elsewhere.
        with pytest.raises(ProtocolError, match="peer speaks protocol version 7"):
            self.run_session([hello_for(tiny_spec, version=7)])

    def test_rejects_a_protocol_8_hello(self, tiny_spec):
        # A protocol 8 peer sends one subframe per eye, which this client
        # would decode as a band of both eyes.
        with pytest.raises(ProtocolError, match="peer speaks protocol version 8"):
            self.run_session([hello_for(tiny_spec, version=8)])

    def test_rejects_invalid_geometry(self, tiny_spec):
        # a fovea wider than the eye and an odd frame width, both listed
        bad = HelloMsg(**{**hello_for(tiny_spec).__dict__, "full_w": 161, "fov_w": 200})
        with pytest.raises(ProtocolError, match="invalid partition: full width must be even; "
                                                "foveal width exceeds eye width"):
            self.run_session([bad])

    def test_rejects_a_fovea_beyond_the_frame_cap(self, tiny_spec):
        # its RAW subframes could not cross the wire, so no frame is served
        big = {"full_w": 24000, "full_h": 8000, "fov_w": 12000, "fov_h": 8000}
        bad = HelloMsg(**{**hello_for(tiny_spec).__dict__, **big})
        with pytest.raises(ProtocolError, match="invalid partition: .* frame cap of 67108864"):
            self.run_session([bad])

    def test_rejects_unknown_scene(self, tiny_spec):
        msg = hello_for(tiny_spec)
        msg = HelloMsg(**{**msg.__dict__, "scene_id": 250})
        with pytest.raises(ProtocolError, match="enum"):
            self.run_session([msg])

    @pytest.mark.parametrize("field", ["ipd", "horizontal_fov", "near"])
    def test_rejects_a_rig_one_ulp_off(self, tiny_spec, field):
        own = CameraRig()
        other = dataclasses.replace(own, **{field: math.nextafter(getattr(own, field), math.inf)})
        with pytest.raises(ProtocolError, match="camera rig"):
            self.run_session([hello_for(tiny_spec, rig=other)])

    def test_rejects_pose_before_hello(self):
        with pytest.raises(ProtocolError, match="hello"):
            self.run_session([PoseUpdateMsg(0, (0, 0, 0), (0, 0, 0, 1))])

    def test_rejects_out_of_order_pose(self, tiny_spec):
        with pytest.raises(ProtocolError, match="lockstep"):
            self.run_session([hello_for(tiny_spec),
                              PoseUpdateMsg(3, (0, 0, 0), (0, 0, 0, 1))])

    def test_end_before_any_pose(self, tiny_spec):
        _, records = self.run_session([hello_for(tiny_spec), EndMsg(0)])
        assert records == []

    def test_eof_mid_session_returns_partial(self, tiny_spec):
        pose = pose_at(CameraPath(frame_count=4), 0)
        _, records = self.run_session([
            hello_for(tiny_spec),
            PoseUpdateMsg(0, tuple(float(v) for v in pose.position),
                          tuple(float(v) for v in pose.orientation)),
        ])
        assert len(records) == 1

    def test_a_send_that_fails_mid_frame_keeps_only_whole_frames(self, tiny_spec):
        # The client goes away as frame 1's second band is written: the
        # error ends the session, and only frame 0 has a record.
        path = CameraPath(frame_count=2)
        stream = io.BytesIO(b"".join(write_msg(m) for m in [hello_for(tiny_spec)] + [
            PoseUpdateMsg(n, tuple(float(v) for v in pose_at(path, n).position),
                          tuple(float(v) for v in pose_at(path, n).orientation))
            for n in range(2)]))
        sent = []

        def writer(data):
            msg = read_msg(io.BytesIO(data))
            if (msg.frame_id, msg.band) == (1, 1):
                raise BrokenPipeError("client went away")
            sent.append(msg)

        session = ServerSession(stream, writer, rig=CameraRig(), trace=Trace())
        with pytest.raises(BrokenPipeError):
            session.run()
        trace = session.stopwatch.trace
        assert [r.frame_id for r in session.records] == [0]
        record = session.records[0]
        for stage in ("draw", "encode", "send"):
            span = trace.find("server", END, stage, 0).t_ms - trace.find("server", BEGIN, stage, 0).t_ms
            assert getattr(record, f"{stage}_ms") == span
        assert record.bytes_sent == sum(len(m.payload) for m in sent if m.frame_id == 0)
        assert trace.find("server", BEGIN, "send", 1).kind == BEGIN
        with pytest.raises(KeyError):
            trace.find("server", END, "send", 1)


    @given(full_w=st.integers(1, 1000).map(lambda w: 2 * w), full_h=st.integers(1, 2000),
           fov=st.tuples(st.floats(0, 1), st.floats(0, 1)), scale=st.floats(MIN_SCALE, 1.0))
    def test_the_server_splits_the_fovea_where_the_client_does(self, full_w, full_h, fov, scale):
        # The hello carries the scale as an f32; the server's spec, built
        # from the hello as read, equals the client's, and so does k.
        fov_w, fov_h = max(1, int(fov[0] * full_w // 2)), max(1, int(fov[1] * full_h))
        spec = PartitionSpec(full_w, full_h, fov_w, fov_h, scale)
        sent = Collected()
        client_side = ClientSession(io.BytesIO(), sent, spec, CodecId.PRED_DEFLATE, SceneConfig(),
                                    CameraRig(), CameraPath(frame_count=1))
        client_side.hello()
        server_side = ServerSession(io.BytesIO(b"".join(sent.chunks)), Collected(), CameraRig())
        server_side.handshake()
        assert server_side.spec == spec
        assert server_side.k == client_side.k == server_rows(spec)


class TestClientSessionUnit:
    @pytest.mark.parametrize("codec_id", [CodecId.RAW, CodecId.PRED_DEFLATE],
                             ids=["raw", "pred-deflate"])
    def test_a_flipped_bit_shows_no_frame(self, split_spec, scene, rig, codec_id):
        """One bit flipped in a frame's two subframes, as the server's own
        `serve_frame` writes them, in every bit of their length prefixes and
        headers and in a sample of their payloads' bits, ends the frame in a
        ProtocolError, and no frame is displayed."""
        pose = pose_at(CameraPath(frame_count=1), 0)
        written = Collected()
        server_side = ServerSession(io.BytesIO(write_msg(hello_for(split_spec, codec_id))), written, rig)
        server_side.handshake()
        server_side.serve_frame(pose, 0)
        frames = written.chunks
        assert len(frames) == 2
        sent = b"".join(frames)

        def run(data, sink):
            session = ClientSession(io.BytesIO(data), Collected(), split_spec, codec_id, scene, rig,
                                    CameraPath(frame_count=1), display=sink)
            with ThreadPoolExecutor(max_workers=1) as pool:
                session.run_frame(0, pool)

        sink = CollectSink()
        run(sent, sink)
        assert [f.tobytes() for f in sink.frames] == [ffr_frame(scene, rig, pose, split_spec).tobytes()]
        header_bits = 8 * (wire.SUBFRAME_HEADER + 4)
        second = 8 * len(frames[0])
        payload_bits = [b for b in range(8 * len(sent))
                        if not (b < header_bits or second <= b < second + header_bits)]
        rng = np.random.default_rng(29)
        bits = [*range(header_bits), *range(second, second + header_bits),
                *rng.choice(payload_bits, size=48, replace=False).tolist()]
        for bit in bits:
            flipped = bytearray(sent)
            flipped[bit // 8] ^= 1 << (bit % 8)
            sink = CollectSink()
            with pytest.raises(ProtocolError):
                run(bytes(flipped), sink)
            assert sink.frames == [], bit

    def test_rejects_subframe_eight_columns_short(self, tiny_spec, scene, rig):
        # The subframe carries no size: it is decoded at its band's size,
        # 2 * fov_w x (hi - lo), so a payload 8 columns short cannot be
        # displayed.
        shorts = [np.zeros((hi - lo, 2 * tiny_spec.fov_w - 8, 3), dtype=np.uint8)
                  for lo, hi in subframe_bands(server_rows(tiny_spec))]
        for codec, error in ((CodecId.RAW, "RAW payload is"),
                             (CodecId.PRED_DEFLATE, "decompressed to")):
            stream = io.BytesIO(b"".join(
                write_msg(SubframeMsg(0, band, encode(codec, short))) for band, short in enumerate(shorts)
            ))
            sink = CollectSink()
            session = ClientSession(stream, Collected(), tiny_spec, codec, scene, rig,
                                    CameraPath(frame_count=1), display=sink)
            with ThreadPoolExecutor(max_workers=1) as pool:
                with pytest.raises(CodecError, match=error):
                    session.run_frame(0, pool)
            assert sink.frames == []


    def test_body_truncated_at_a_part_boundary_shows_nothing(self, split_spec, scene, rig):
        # The server's first band of a rendered frame, 20 rows of both 80
        # column eyes: a bitmap, symbols and escapes. Cut its body at the end
        # of each of its first two parts, and one byte short of its end.
        k = server_rows(split_spec)
        rows = np.empty((k, 2 * split_spec.fov_w, 3), dtype=np.uint8)
        server.draw_foveae(scene, rig, pose_at(CameraPath(frame_count=4), 1), split_spec, (0, k), out=rows)
        (lo, hi), (_, last) = subframe_bands(k)
        img = rows[lo:hi]
        payload = encode(CodecId.PRED_DEFLATE, img)
        second = encode(CodecId.PRED_DEFLATE, rows[hi:last])
        body = zlib.decompress(payload, -zlib.MAX_WBITS)
        n = img.shape[0] * img.shape[1]
        bitmap_len = -(-n // 8)
        n_missed = int(np.unpackbits(np.frombuffer(body[:bitmap_len], dtype=np.uint8)).sum())
        assert len(body) > bitmap_len + n_missed  # some pixels are escaped
        compressor = zlib.compressobj(5, zlib.DEFLATED, -zlib.MAX_WBITS)
        prefix, cuts = b"", []
        for part in (body[:bitmap_len], body[bitmap_len : bitmap_len + n_missed]):
            prefix += compressor.compress(part) + compressor.flush(zlib.Z_BLOCK)
            cuts.append(len(prefix))
        assert payload.startswith(prefix)
        for cut in cuts + [len(payload) - 1]:
            stream = io.BytesIO(write_msg(SubframeMsg(0, 0, payload[:cut])) + write_msg(SubframeMsg(0, 1, second)))
            sink = CollectSink()
            session = ClientSession(stream, Collected(), split_spec, CodecId.PRED_DEFLATE, scene, rig,
                                    CameraPath(frame_count=1), display=sink)
            with ThreadPoolExecutor(max_workers=1) as pool:
                with pytest.raises(CodecError):
                    session.run_frame(0, pool)
            assert sink.frames == [], cut

    @pytest.mark.parametrize("codec_id", [CodecId.RAW, CodecId.PRED_DEFLATE],
                             ids=["raw", "pred-deflate"])
    def test_rejects_subframes_of_any_other_row_count(self, split_spec, scene, rig, codec_id):
        # The session's k = 40 rows come as two bands of 20 rows of both
        # eyes; a band of 19 or 21 rows, or of all 40, shows no frame.
        for rows in (40, 19, 21):
            img = np.zeros((rows, 2 * split_spec.fov_w, 3), dtype=np.uint8)
            img[::3, ::5] = (200, 30, 90)
            stream = io.BytesIO(b"".join(
                write_msg(SubframeMsg(0, band, encode(codec_id, img))) for band in (0, 1)
            ))
            sink = CollectSink()
            session = ClientSession(stream, Collected(), split_spec, codec_id, scene, rig,
                                    CameraPath(frame_count=1), display=sink)
            with ThreadPoolExecutor(max_workers=1) as pool:
                with pytest.raises(CodecError):
                    session.run_frame(0, pool)
            assert sink.frames == [], rows


class TestPrivateTrace:
    """A runtime given no trace keeps only the frame in progress: each
    frame's record is read off a trace that holds that frame's events
    alone, and the next frame starts a fresh one."""

    FRAMES = 50

    @staticmethod
    def made_traces(monkeypatch) -> list:
        made = []

        class Kept(trace_mod.Trace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(trace_mod, "Trace", Kept)
        return made

    def check(self, made, actor, records):
        assert [r.frame_id for r in records] == list(range(self.FRAMES))
        assert len(made) == self.FRAMES + 1  # the first, and one after each record
        for trace in made:
            assert len({e.frame_id for e in trace}) <= 1
        for r in records:
            (trace,) = [t for t in made if any(e.kind == BEGIN and e.frame_id == r.frame_id for e in t)]
            begin = {e.name: e.t_ms for e in trace if (e.actor, e.kind) == (actor, BEGIN)}
            end = {e.name: e.t_ms for e in trace if (e.actor, e.kind) == (actor, END)}
            for name, value in dataclasses.asdict(r).items():
                if name.endswith("_ms"):
                    stage = name[: -len("_ms")]
                    assert value == (end[stage] - begin[stage] if stage in begin else 0.0), name

    def test_native(self, tiny_spec, scene, rig, monkeypatch):
        made = self.made_traces(monkeypatch)
        records = client.run_native(tiny_spec, scene, rig, CameraPath(frame_count=self.FRAMES))
        self.check(made, "client", records)

    def test_server_session(self, tiny_spec, rig, monkeypatch):
        path = CameraPath(frame_count=self.FRAMES)
        poses = [PoseUpdateMsg(n, tuple(float(v) for v in pose_at(path, n).position),
                               tuple(float(v) for v in pose_at(path, n).orientation))
                 for n in range(self.FRAMES)]
        stream = io.BytesIO(b"".join(write_msg(m) for m in
                                     [hello_for(tiny_spec), *poses, EndMsg(self.FRAMES - 1)]))
        made = self.made_traces(monkeypatch)
        records = ServerSession(stream, lambda data: None, rig).run()
        self.check(made, "server", records)


class TestPoseFromWire:
    def test_preserves_well_formed_bits(self):
        q = tuple(float(v) for v in
                  np.array([0.5, 0.5, 0.5, 0.5], dtype=np.float32))
        pose = pose_from_wire(PoseUpdateMsg(0, (1.5, -2.25, 0.125), q))
        assert pose.orientation.tobytes() == np.array(q, dtype=np.float32).tobytes()
        assert pose.position.tolist() == [1.5, -2.25, 0.125]

    def test_renormalizes_off_unit(self):
        pose = pose_from_wire(PoseUpdateMsg(0, (0, 0, 0), (0.0, 0.0, 0.0, 1.01)))
        n = float(np.linalg.norm(pose.orientation.astype(np.float64)))
        assert abs(n - 1.0) <= 1e-6

    def test_rejects_unusable(self):
        with pytest.raises(ProtocolError):
            pose_from_wire(PoseUpdateMsg(0, (0, 0, 0), (0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ProtocolError):
            pose_from_wire(PoseUpdateMsg(0, (0, 0, 0), (float("nan"), 0.0, 0.0, 1.0)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_position(self, bad):
        with pytest.raises(ProtocolError, match="non-finite pose position"):
            pose_from_wire(PoseUpdateMsg(0, (bad, 1.0, 3.0), (0.0, 0.0, 0.0, 1.0)))
