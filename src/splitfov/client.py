"""Client runtime: peripheral rendering, subframe receive/decode, merge.

Each frame the client sends the pose, then draws its part of the frame
while a second thread receives and decodes the encoded foveal subframes,
one per row band of `partition.subframe_bands`, each band both eyes' rows
side by side. Its part is the periphery (rendered at the reduced rate, but
for the holes a fovea hides, and nearest-upsampled to the full frame) and
the bottom rows [server_rows, fov_h) of each foveal rect; the server
draws the top rows.
Once both finish, each band's rows are pasted into the frame and the
frame goes to the display sink. Each stage is a `with` block, and each
frame's record is read off the session's trace (`Stopwatch.record`)
once the frame ends. Exactly one frame is in flight (lockstep).
Native mode is the same draw with every foveal row the client's (k = 0)
and nothing served or merged.
"""

from __future__ import annotations

import logging
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import codec as codec_mod
from . import wire
from .camera import CameraPath, CameraRig, Pose, pose_at
from .image import GeometryError, validate_image, write_ppm
from .partition import (Eye, PartitionSpec, foveal_rect_stereo, foveal_rows, nearest_map,
                        periphery_holes, server_rows, subframe_bands)
from .render import SceneConfig, render_scaled
from .server import draw_foveae
from .trace import BEGIN, END, RECV, SEND, Stopwatch, Trace
from .wire import (
    ByteStream,
    ConnectionClosedError,
    EndMsg,
    HelloMsg,
    PoseUpdateMsg,
    ProtocolError,
    SubframeMsg,
    read_msg,
    write_msg,
    PROTOCOL_VERSION,
)

logger = logging.getLogger(__name__)

DisplaySink = Callable[[int, np.ndarray], None]


@dataclass(frozen=True)
class ClientFrameRecord:
    """Per-frame client timings in milliseconds plus received payload bytes;
    each `<stage>_ms` is the client's traced span of that name.

    network_ms spans the frame's first byte received to the receipt of its
    last subframe; draw_ms includes the peripheral upsample and the
    client's own foveal rows, and merge_ms is the paste of the server's rows
    alone (0 in native mode, which is served none); total_ms runs from just
    before the frame's pose is looked up to just after display. Stages
    overlap, so total_ms is not the sum of the parts.
    """

    frame_id: int
    draw_ms: float
    network_ms: float
    decode_ms: float
    merge_ms: float
    total_ms: float
    bytes_received: int


def null_sink(frame_id: int, frame: np.ndarray) -> None:
    pass


class CollectSink:
    """Keeps every displayed frame in memory (tests and oracles)."""

    def __init__(self):
        self.frames: list[np.ndarray] = []

    def __call__(self, frame_id: int, frame: np.ndarray) -> None:
        self.frames.append(frame)


class PpmSink:
    """Writes every k-th displayed frame as frame_NNNNNN.ppm under a directory."""

    def __init__(self, directory: str, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be at least 1, got {every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every

    def __call__(self, frame_id: int, frame: np.ndarray) -> None:
        if frame_id % self.every == 0:
            write_ppm(str(self.directory / f"frame_{frame_id:06d}.ppm"), frame)


# Runs of equal reduced rows whose columns `upsample_nearest` gathers at a
# time: at 2400 columns one band buffer is 0.2 MB, against the 4.7 MB that
# all 648 distinct rows of a default-geometry periphery take at once.
_BAND_ROWS = 32


def upsample_nearest(reduced: np.ndarray, full_dims: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor upsample: full pixel (x, y) copies reduced pixel
    (floor(x * rw / W), floor(y * rh / H)). Pure integer index math."""
    validate_image(reduced)
    W, H = full_dims
    rh, rw = reduced.shape[:2]
    if rw > W or rh > H:
        raise GeometryError(f"reduced {rw}x{rh} larger than target {W}x{H}")
    xs = nearest_map(W, rw)
    ys = nearest_map(H, rh)
    # Columns then rows: two 1-D gathers are far cheaper than one 2-D
    # gather. The column gather runs once per run of equal reduced rows
    # (the sky is whole rows of one colour), on bytes: byte c of full
    # column x is byte c of reduced column xs[x], and numpy gathers single
    # bytes faster than 3-byte items. It fills one band buffer with
    # _BAND_ROWS runs at a time; the row gather then copies whole rows of
    # the band into the output rows of those runs. Both maps ascend, so
    # those rows are one contiguous range. Every index is in range, so
    # "clip" changes none, and unlike "raise" it writes `out` unbuffered.
    flat = reduced.reshape(rh, -1)
    starts = np.ones(rh, dtype=bool)
    starts[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    first = np.flatnonzero(starts)
    run = (np.cumsum(starts) - 1)[ys]
    cols = (3 * xs[:, None] + np.arange(3)).reshape(-1)
    out = np.empty((H, W, 3), dtype=np.uint8)
    rows = out.reshape(H, 3 * W)
    band = np.empty((min(_BAND_ROWS, len(first)), 3 * W), dtype=np.uint8)
    y0 = 0
    for b0 in range(0, len(first), _BAND_ROWS):
        b1 = min(b0 + _BAND_ROWS, len(first))
        y1 = int(np.searchsorted(run, b1))
        np.take(flat[first[b0:b1]], cols, axis=1, out=band[: b1 - b0], mode="clip")
        np.take(band, run[y0:y1] - b0, axis=0, out=rows[y0:y1], mode="clip")
        y0 = y1
    return out


def merge(
    peripheral_full: np.ndarray,
    foveal: dict[Eye, np.ndarray],
    spec: PartitionSpec,
    rows: Optional[tuple[int, int]] = None,
) -> np.ndarray:
    """Composites rows [lo, hi) of each eye's foveal rect (all rows by
    default) over the upsampled periphery, in place: those rows
    (stereo-frame coordinates) of `peripheral_full` are overwritten with
    the eye's image, which must be fov_w x (hi - lo), every other pixel is
    left as it was, and `peripheral_full` itself is returned. Pass a copy
    to keep the periphery."""
    validate_image(peripheral_full)
    if peripheral_full.shape[:2] != (spec.full_h, spec.full_w):
        raise GeometryError(
            f"peripheral frame is {peripheral_full.shape[1]}x{peripheral_full.shape[0]}, "
            f"spec wants {spec.full_w}x{spec.full_h}"
        )
    _paste(peripheral_full, foveal, spec, (0, spec.fov_h) if rows is None else rows)
    return peripheral_full


def _paste(frame: np.ndarray, foveal: dict[Eye, np.ndarray], spec: PartitionSpec,
           rows: tuple[int, int]) -> None:
    """Writes each eye's image over rows `rows` of its foveal rect in
    `frame`; an image of any other size raises GeometryError."""
    for eye in (Eye.LEFT, Eye.RIGHT):
        img = foveal[eye]
        validate_image(img)
        r = foveal_rows(foveal_rect_stereo(spec, eye), rows)
        if img.shape[:2] != (r.h, r.w):
            raise GeometryError(
                f"{eye.name.lower()} foveal image is {img.shape[1]}x{img.shape[0]}, "
                f"rows [{rows[0]}, {rows[1]}) want {r.w}x{r.h}"
            )
        frame[r.y : r.y + r.h, r.x : r.x + r.w] = img


def draw_client_part(scene: SceneConfig, rig: CameraRig, pose: Pose, spec: PartitionSpec,
                     k: int) -> np.ndarray:
    """The client's part of a frame: the periphery rendered at the reduced
    rate and nearest-upsampled to a fresh full frame, with rows [k, fov_h)
    of each eye's fovea drawn and pasted in. The periphery's holes are not
    shaded: every pixel they fill lies in a fovea, and so is drawn over
    here or by `merge`. The server's rows [0, k) are left for `merge`; at
    k = 0 none are, and this is the native frame.

    The foveal rows are drawn first, so their shading buffers are freed
    before the frame exists: the frame is then the one full-frame buffer
    alive, beside the reduced periphery and the upsample's band buffer."""
    full = (spec.full_w, spec.full_h)
    own = (k, spec.fov_h)
    foveae = draw_foveae(scene, rig, pose, spec, own) if k < spec.fov_h else None
    holes = periphery_holes(spec)
    frame = upsample_nearest(render_scaled(scene, rig, pose, full, spec.periph_scale, holes=holes), full)
    if foveae is not None:
        _paste(frame, foveae, spec, own)
    return frame


def ffr_frame(scene: SceneConfig, rig: CameraRig, pose: Pose, spec: PartitionSpec) -> np.ndarray:
    """One fixed-foveation frame drawn on one device: the client's part
    with every foveal row its own (k = 0), so full-rate foveae over the
    nearest-upsampled reduced periphery. This is what both native mode and
    a lossless split session display; each call returns a fresh array."""
    return draw_client_part(scene, rig, pose, spec, 0)


class _MarkFirstByte:
    """ByteStream wrapper that calls `mark` once, when the first byte arrives."""

    def __init__(self, inner: ByteStream, mark: Callable[[], object]):
        self.inner = inner
        self.mark: Optional[Callable[[], object]] = mark

    def read(self, n: int) -> bytes:
        data = self.inner.read(n)
        if data and self.mark is not None:
            self.mark()
            self.mark = None
        return data


class ClientSession:
    """Drives the split-rendering client over an established byte stream."""

    def __init__(
        self,
        reader: ByteStream,
        writer: Callable[[bytes], None],
        spec: PartitionSpec,
        codec: codec_mod.CodecId,
        scene: SceneConfig,
        rig: CameraRig,
        path: CameraPath,
        display: DisplaySink = null_sink,
        trace: Optional[Trace] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.spec = spec
        self.k = server_rows(spec)  # the server's foveal rows; the client draws the rest
        self.codec = codec_mod.CodecId(codec)
        self.scene = scene
        self.rig = rig
        self.path = path
        self.display = display
        self.stopwatch = Stopwatch("client", trace)

    def hello(self) -> HelloMsg:
        msg = HelloMsg(
            protocol_version=PROTOCOL_VERSION,
            full_w=self.spec.full_w,
            full_h=self.spec.full_h,
            fov_w=self.spec.fov_w,
            fov_h=self.spec.fov_h,
            periph_scale=self.spec.periph_scale,
            codec=int(self.codec),
            scene_id=int(self.scene.scene_id),
            ipd=self.rig.ipd,
            horizontal_fov=self.rig.horizontal_fov,
            near=self.rig.near,
        )
        self.stopwatch.mark(SEND, "hello", 0)
        self.writer(write_msg(msg))
        return msg

    def _receive_and_decode(self, frame_id: int) -> tuple[list[tuple[tuple[int, int], np.ndarray]], int]:
        """Each band's rows [lo, hi) of both eyes side by side, decoded at
        the band's size, 2 * fov_w x (hi - lo) (any other raises
        CodecError), and the payload bytes they came in."""
        sw = self.stopwatch
        reader = _MarkFirstByte(self.reader, lambda: sw.mark(BEGIN, "network", frame_id))
        bands = subframe_bands(self.k)
        msgs: list[SubframeMsg] = []
        for _ in bands:
            msg = read_msg(reader)
            if msg is None:
                raise ConnectionClosedError("server closed the session mid-frame")
            if not isinstance(msg, SubframeMsg):
                raise ProtocolError(f"expected a subframe, got {type(msg).__name__}")
            if msg.frame_id != frame_id:
                raise ProtocolError(
                    f"lockstep violated: subframe for frame {msg.frame_id}, expected {frame_id}"
                )
            sw.mark(RECV, f"subframe{msg.band}", frame_id)
            msgs.append(msg)
        sw.mark(END, "network", frame_id)
        if {m.band for m in msgs} != set(range(len(bands))):
            raise ProtocolError(f"expected one subframe per band of {len(bands)}, "
                                f"got bands {[m.band for m in msgs]}")
        with sw.stage("decode", frame_id):
            served = []
            for m in msgs:
                lo, hi = bands[m.band]
                served.append(((lo, hi), codec_mod.decode(self.codec, m.payload, 2 * self.spec.fov_w, hi - lo)))
        return served, sum(len(m.payload) for m in msgs)

    def run_frame(self, frame_id: int, pool: ThreadPoolExecutor) -> ClientFrameRecord:
        """Draws, receives, merges and displays one frame; returns its record."""
        sw = self.stopwatch
        sw.mark(BEGIN, "total", frame_id)
        pose = pose_at(self.path, frame_id)
        msg = PoseUpdateMsg(
            frame_id,
            tuple(float(v) for v in pose.position),
            tuple(float(v) for v in pose.orientation),
        )
        sw.mark(SEND, "pose", frame_id)
        self.writer(write_msg(msg))

        future = pool.submit(self._receive_and_decode, frame_id)
        with sw.stage("draw", frame_id):
            frame = draw_client_part(self.scene, self.rig, pose, self.spec, self.k)
        served, bytes_received = future.result()
        w = self.spec.fov_w
        with sw.stage("merge", frame_id):
            for rows, img in served:
                merge(frame, {Eye.LEFT: img[:, :w], Eye.RIGHT: img[:, w:]}, self.spec, rows)
        with sw.stage("display", frame_id):
            self.display(frame_id, frame)
        sw.mark(END, "total", frame_id)
        # No mark is made concurrently here: the receive has resolved, and
        # the next frame has not begun.
        return sw.record(ClientFrameRecord, frame_id, bytes_received=bytes_received)

    def run(self) -> list[ClientFrameRecord]:
        self.hello()
        with ThreadPoolExecutor(max_workers=1) as pool:
            records = [self.run_frame(frame_id, pool) for frame_id in range(self.path.frame_count)]
        last = max(len(records) - 1, 0)
        self.stopwatch.mark(SEND, "end", last)
        self.writer(write_msg(EndMsg(last)))
        return records


def run_client(
    host: str,
    port: int,
    spec: PartitionSpec,
    codec: codec_mod.CodecId,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    display: DisplaySink = null_sink,
    trace: Optional[Trace] = None,
) -> list[ClientFrameRecord]:
    """Connects to a server and runs a full split-rendering session; a
    server silent for wire.IO_TIMEOUT_S raises TimeoutError."""
    with socket.create_connection((host, port), timeout=wire.IO_TIMEOUT_S) as sock:
        # Pose messages are on the frame critical path; never coalesce them.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        logger.info("connected to server at %s:%d", host, port)
        reader = sock.makefile("rb")
        try:
            session = ClientSession(
                reader, sock.sendall, spec, codec, scene, rig, path, display, trace
            )
            records = session.run()
        finally:
            reader.close()
    logger.info("session ended after %d frames", len(records))
    return records


def run_native(
    spec: PartitionSpec,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    display: DisplaySink = null_sink,
) -> list[ClientFrameRecord]:
    """Baseline mode: the client renders everything itself.

    Each frame is one `draw` stage, `ffr_frame`: the split client's draw
    with every foveal row its own. So its displayed frames are
    byte-identical to a lossless split session's. No rows are served, so
    network, decode and merge stay zero and bytes_received is 0.
    """
    sw = Stopwatch("client")
    records = []
    for frame_id in range(path.frame_count):
        sw.mark(BEGIN, "total", frame_id)
        pose = pose_at(path, frame_id)
        with sw.stage("draw", frame_id):
            frame = ffr_frame(scene, rig, pose, spec)
        display(frame_id, frame)
        del frame  # held through the next draw, it raised peak RSS by 15 MB at 2400x1080
        sw.mark(END, "total", frame_id)
        records.append(sw.record(ClientFrameRecord, frame_id, bytes_received=0))
    return records
