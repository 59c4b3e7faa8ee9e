"""Server runtime: render foveal rects on demand, encode, stream.

The server is pose-driven and strictly lockstep: it idles until the
client's PoseUpdateMsg for frame n arrives, renders the top k =
`partition.server_rows` rows of both eyes' foveal rectangles at full
sampling rate as RGBX pixels, side by side in one image 2 * fov_w wide
(left eye first), encodes each row band of `partition.subframe_bands(k)`
of that image independently, as drawn, and sends one SubframeMsg per
band. It never renders ahead.
"""

from __future__ import annotations

import itertools
import logging
import math
import socket
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import codec as codec_mod
from . import wire
from .camera import CameraRig, Pose, normalize_quat
from .partition import (Eye, PartitionError, PartitionSpec, foveal_rect, foveal_rows, server_rows,
                        subframe_bands)
from .render import DirectionCache, SceneConfig, SceneId, render_region
from .trace import RECV, SEND, Stopwatch, Trace
from .wire import (
    ByteStream,
    ConnectionClosedError,
    EndMsg,
    HelloMsg,
    PoseUpdateMsg,
    ProtocolError,
    SubframeMsg,
    check_hello_version,
    read_msg,
    write_msg,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServerFrameTiming:
    """Per-frame server timings in milliseconds plus sent payload bytes;
    each `<stage>_ms` is the server's traced span of that name."""

    frame_id: int
    draw_ms: float
    encode_ms: float
    send_ms: float
    bytes_sent: int


def pose_from_wire(msg: PoseUpdateMsg) -> Pose:
    """Builds a Pose from a pose update, re-normalizing the quaternion only
    when it is measurably off-unit (well-formed senders keep their bits).
    A non-finite position is rejected: it would render without complaint."""
    if not all(math.isfinite(v) for v in msg.position):
        raise ProtocolError(f"non-finite pose position {msg.position}")
    try:
        q = normalize_quat(msg.orientation)
    except ValueError as e:
        raise ProtocolError(f"unusable pose orientation {msg.orientation}: {e}") from None
    return Pose(np.array(msg.position, dtype=np.float32), q)


def draw_foveae(
    scene: SceneConfig, rig: CameraRig, pose: Pose, spec: PartitionSpec,
    rows: Optional[tuple[int, int]] = None, rgbx: bool = False, out: Optional[np.ndarray] = None,
) -> dict[Eye, np.ndarray]:
    """Rows [lo, hi) of both eyes' foveal rectangles (all rows by default)
    rendered at full sampling rate, as RGB8 images, or RGBX8 (fourth byte
    0) with `rgbx`. The two rects have the same eye-local pixels, so the
    eyes share one set of ray directions, computed once per call and
    dropped when it returns. With `out`, a (hi - lo, 2 * fov_w, 3 or 4)
    uint8 array, the eyes are drawn side by side into it, the left eye's
    columns first, and the images returned are those two views of it;
    without it, each eye gets a fresh array."""
    rows = (0, spec.fov_h) if rows is None else rows
    directions = DirectionCache()
    w = spec.fov_w
    return {
        eye: render_region(scene, rig, pose, int(eye), (spec.eye_w, spec.eye_h),
                           foveal_rows(foveal_rect(spec, eye), rows), rgbx, directions,
                           out=None if out is None else out[:, eye * w : (eye + 1) * w])
        for eye in (Eye.LEFT, Eye.RIGHT)
    }


class ServerSession:
    """Serves one client over an established byte stream."""

    def __init__(
        self,
        reader: ByteStream,
        writer: Callable[[bytes], None],
        rig: CameraRig,
        trace: Optional[Trace] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.rig = rig
        self.stopwatch = Stopwatch("server", trace)
        self.spec: Optional[PartitionSpec] = None
        self.k: Optional[int] = None  # foveal rows drawn here, from the hello
        self.codec: Optional[codec_mod.CodecId] = None
        self.scene: Optional[SceneConfig] = None
        self.records: list[ServerFrameTiming] = []  # one per frame served

    def handshake(self) -> HelloMsg:
        msg = read_msg(self.reader)
        if msg is None:
            raise ConnectionClosedError("client closed before the handshake")
        if not isinstance(msg, HelloMsg):
            raise ProtocolError(f"expected a hello, got {type(msg).__name__}")
        check_hello_version(msg)
        self.stopwatch.mark(RECV, "hello", 0)
        try:
            self.spec = PartitionSpec(msg.full_w, msg.full_h, msg.fov_w, msg.fov_h, msg.periph_scale)
        except PartitionError as e:
            raise ProtocolError(f"hello carries an invalid partition: {e}") from None
        self.k = server_rows(self.spec)
        try:
            self.codec = codec_mod.CodecId(msg.codec)
            self.scene = SceneConfig(SceneId(msg.scene_id))
        except ValueError as e:
            raise ProtocolError(f"hello carries an unknown enum value: {e}") from None
        # Matched exactly: the renderer derives its float32 constants from
        # these float64 values, so a near-equal rig can still move pixels.
        peer_rig = (msg.ipd, msg.horizontal_fov, msg.near)
        own_rig = (self.rig.ipd, self.rig.horizontal_fov, self.rig.near)
        if peer_rig != own_rig:
            raise ProtocolError(
                f"hello carries camera rig (ipd, horizontal_fov, near) = {peer_rig}, "
                f"this server draws with {own_rig}"
            )
        return msg

    def serve_frame(self, pose: Pose, frame_id: int) -> ServerFrameTiming:
        """Renders, encodes, and sends the server's rows of both eyes'
        foveae, one subframe per band; returns the frame's record."""
        assert self.spec is not None and self.codec is not None and self.scene is not None
        assert self.k is not None
        sw = self.stopwatch
        with sw.stage("draw", frame_id):
            # RGBX rows of both eyes side by side; each band's rows are
            # contiguous and go to the encoder as drawn, with no repacking.
            rows = np.empty((self.k, 2 * self.spec.fov_w, 4), dtype=np.uint8)
            draw_foveae(self.scene, self.rig, pose, self.spec, (0, self.k), rgbx=True, out=rows)
        with sw.stage("encode", frame_id):
            payloads = [codec_mod.encode(self.codec, rows[lo:hi]) for lo, hi in subframe_bands(self.k)]
        with sw.stage("send", frame_id):
            for band, payload in enumerate(payloads):
                sw.mark(SEND, f"subframe{band}", frame_id)
                self.writer(write_msg(SubframeMsg(frame_id, band, payload)))
        # The server marks from this thread alone.
        return sw.record(ServerFrameTiming, frame_id, bytes_sent=sum(len(p) for p in payloads))

    def run(self, on_hello: Optional[Callable[[PartitionSpec], None]] = None) -> list[ServerFrameTiming]:
        """Handshake, then lockstep frame loop until the client's EndMsg or
        EOF. Partial records survive a disconnect. `on_hello` is called
        with the hello's partition once the hello is accepted."""
        self.handshake()
        if on_hello is not None:
            on_hello(self.spec)
        for frame_id in itertools.count():
            msg = read_msg(self.reader)
            if msg is None:
                logger.warning("client closed the session after %d frames without an end", frame_id)
                return self.records
            if isinstance(msg, EndMsg):
                self.stopwatch.mark(RECV, "end", msg.frame_id)
                return self.records
            if not isinstance(msg, PoseUpdateMsg):
                raise ProtocolError(f"expected a pose update, got {type(msg).__name__}")
            if msg.frame_id != frame_id:
                raise ProtocolError(
                    f"lockstep violated: pose for frame {msg.frame_id}, expected {frame_id}"
                )
            self.stopwatch.mark(RECV, "pose", frame_id)
            self.records.append(self.serve_frame(pose_from_wire(msg), frame_id))


def run_server(
    host: str,
    port: int,
    rig: CameraRig,
    trace: Optional[Trace] = None,
    ready: Optional[Callable[[int], None]] = None,
    on_hello: Optional[Callable[[PartitionSpec], None]] = None,
) -> list[ServerFrameTiming]:
    """Listens for one client, serves the whole session, returns its timings.

    `ready` is called with the bound port once listening (useful with
    port 0), and `on_hello` with the session's partition once the client's
    hello is accepted. A client disconnect mid-session is reported and the
    partial records are returned; a client silent for wire.IO_TIMEOUT_S raises
    TimeoutError.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
        if ready is not None:
            ready(listener.getsockname()[1])
        conn, peer = listener.accept()
        logger.info("client connected from %s:%d", *peer[:2])
        with conn:
            conn.settimeout(wire.IO_TIMEOUT_S)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = conn.makefile("rb")
            session = ServerSession(reader, conn.sendall, rig, trace=trace)
            try:
                return session.run(on_hello)
            except (ConnectionClosedError, ConnectionError) as e:
                logger.warning("client disconnected: %s", e)
                return session.records
            finally:
                reader.close()
