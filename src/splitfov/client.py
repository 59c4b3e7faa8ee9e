"""Client runtime: peripheral rendering, subframe receive/decode, merge.

Each frame the client sends the pose, then renders its reduced-rate
peripheral buffer while a second thread receives and decodes the two
encoded foveal subframes. Once both finish, the foveae are composited
over the nearest-upsampled periphery, the frame goes to the display
sink, and per-stage timings are recorded. Exactly one frame is in
flight (lockstep).
"""

from __future__ import annotations

import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import codec as codec_mod
from .camera import CameraPath, CameraRig, Pose, pose_at
from .image import GeometryError, validate_image, write_ppm
from .partition import Eye, PartitionSpec, foveal_rect_stereo
from .render import SceneConfig, render_scaled
from .server import draw_foveae
from .trace import RECV, SEND, Stopwatch, Trace, now_ms
from .wire import (
    IO_TIMEOUT_S,
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

DisplaySink = Callable[[int, np.ndarray], None]


@dataclass(frozen=True)
class ClientFrameRecord:
    """Per-frame client timings in milliseconds plus received payload bytes.

    network_ms spans first byte received to last byte received across both
    subframes; merge_ms includes the peripheral upsample; total_ms runs
    from just before the pose send to just after display. Stages overlap,
    so total_ms is not the sum of the parts.
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


def upsample_nearest(reduced: np.ndarray, full_dims: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor upsample: full pixel (x, y) copies reduced pixel
    (floor(x * rw / W), floor(y * rh / H)). Pure integer index math."""
    validate_image(reduced)
    W, H = full_dims
    rh, rw = reduced.shape[:2]
    if rw > W or rh > H:
        raise GeometryError(f"reduced {rw}x{rh} larger than target {W}x{H}")
    xs = (np.arange(W) * rw) // W
    ys = (np.arange(H) * rh) // H
    # Rows then columns: two 1-D gathers are far cheaper than one 2-D
    # gather, and `take` returns a fresh C-contiguous array.
    return np.take(np.take(reduced, ys, axis=0), xs, axis=1)


def merge(
    peripheral_full: np.ndarray,
    foveal: dict[Eye, np.ndarray],
    spec: PartitionSpec,
) -> np.ndarray:
    """Composites each eye's foveal image over the upsampled periphery.

    Every output pixel comes from exactly one source: the foveal rects
    (stereo-frame coordinates) from the decoded subframes, everything
    else from `peripheral_full`.
    """
    validate_image(peripheral_full)
    if peripheral_full.shape[:2] != (spec.full_h, spec.full_w):
        raise GeometryError(
            f"peripheral frame is {peripheral_full.shape[1]}x{peripheral_full.shape[0]}, "
            f"spec wants {spec.full_w}x{spec.full_h}"
        )
    out = peripheral_full.copy()
    for eye in (Eye.LEFT, Eye.RIGHT):
        img = foveal[eye]
        validate_image(img)
        if img.shape[:2] != (spec.fov_h, spec.fov_w):
            raise GeometryError(
                f"{eye.name.lower()} foveal image is {img.shape[1]}x{img.shape[0]}, "
                f"spec wants {spec.fov_w}x{spec.fov_h}"
            )
        r = foveal_rect_stereo(spec, eye)
        out[r.y : r.y + r.h, r.x : r.x + r.w] = img
    return out


def compose(reduced: np.ndarray, foveae: dict[Eye, np.ndarray], spec: PartitionSpec) -> np.ndarray:
    """The displayed frame: the reduced periphery upsampled to the full
    frame, with each eye's full-rate fovea composited over it."""
    return merge(upsample_nearest(reduced, (spec.full_w, spec.full_h)), foveae, spec)


def ffr_frame(scene: SceneConfig, rig: CameraRig, pose: Pose, spec: PartitionSpec) -> np.ndarray:
    """One fixed-foveation frame composed locally: full-rate foveae over
    nearest-upsampled reduced periphery. This is what both native mode and
    a lossless split session display."""
    return compose(*_draw_local(scene, rig, pose, spec), spec)


def _draw_local(
    scene: SceneConfig, rig: CameraRig, pose: Pose, spec: PartitionSpec
) -> tuple[np.ndarray, dict[Eye, np.ndarray]]:
    """Everything one device draws for a frame: the reduced periphery and
    both full-rate foveae."""
    foveae = draw_foveae(scene, rig, pose, spec)
    reduced = render_scaled(scene, rig, pose, (spec.full_w, spec.full_h), spec.periph_scale)
    return reduced, foveae


def _decode_subframes(
    codec: codec_mod.CodecId, msgs: list[SubframeMsg], spec: PartitionSpec
) -> dict[Eye, np.ndarray]:
    """Each eye's fovea, decoded with the session's codec at the session's
    foveal size: a payload of any other size raises CodecError."""
    return {Eye(m.eye): codec_mod.decode(codec, m.payload, spec.fov_w, spec.fov_h) for m in msgs}


class _TimingReader:
    """ByteStream wrapper that stamps, on `now_ms`, the first and last byte
    seen since the last reset (the per-frame network window)."""

    def __init__(self, inner: ByteStream):
        self.inner = inner
        self.first_byte_t: Optional[float] = None
        self.last_byte_t: Optional[float] = None

    def reset(self) -> None:
        self.first_byte_t = None
        self.last_byte_t = None

    def read(self, n: int) -> bytes:
        data = self.inner.read(n)
        if data:
            now = now_ms()
            if self.first_byte_t is None:
                self.first_byte_t = now
            self.last_byte_t = now
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
        self.reader = _TimingReader(reader)
        self.writer = writer
        self.spec = spec
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

    def _receive_and_decode(self, frame_id: int) -> tuple[dict[Eye, np.ndarray], float, float, int]:
        self.reader.reset()
        msgs: list[SubframeMsg] = []
        for _ in range(2):
            msg = read_msg(self.reader)
            if msg is None:
                raise ConnectionClosedError("server closed the session mid-frame")
            if not isinstance(msg, SubframeMsg):
                raise ProtocolError(f"expected a subframe, got {type(msg).__name__}")
            if msg.frame_id != frame_id:
                raise ProtocolError(
                    f"lockstep violated: subframe for frame {msg.frame_id}, expected {frame_id}"
                )
            self.stopwatch.mark(RECV, f"subframe{msg.eye}", frame_id)
            msgs.append(msg)
        if {m.eye for m in msgs} != {int(Eye.LEFT), int(Eye.RIGHT)}:
            raise ProtocolError(f"expected one subframe per eye, got eyes {[m.eye for m in msgs]}")
        assert self.reader.first_byte_t is not None and self.reader.last_byte_t is not None
        network_ms = self.reader.last_byte_t - self.reader.first_byte_t
        foveal, decode_ms = self.stopwatch.stage(
            "decode", frame_id, _decode_subframes, self.codec, msgs, self.spec
        )
        bytes_received = sum(len(m.payload) for m in msgs)
        return foveal, network_ms, decode_ms, bytes_received

    def run_frame(self, frame_id: int, pool: ThreadPoolExecutor) -> ClientFrameRecord:
        sw = self.stopwatch
        t0 = now_ms()
        pose = pose_at(self.path, frame_id)
        msg = PoseUpdateMsg(
            frame_id,
            tuple(float(v) for v in pose.position),
            tuple(float(v) for v in pose.orientation),
        )
        sw.mark(SEND, "pose", frame_id)
        self.writer(write_msg(msg))

        future = pool.submit(self._receive_and_decode, frame_id)
        reduced, draw_ms = sw.stage(
            "draw", frame_id, render_scaled,
            self.scene, self.rig, pose, (self.spec.full_w, self.spec.full_h), self.spec.periph_scale,
        )
        foveal, network_ms, decode_ms, bytes_received = future.result()
        merged, merge_ms = sw.stage("merge", frame_id, compose, reduced, foveal, self.spec)
        sw.stage("display", frame_id, self.display, frame_id, merged)
        total_ms = now_ms() - t0
        return ClientFrameRecord(
            frame_id=frame_id,
            draw_ms=draw_ms,
            network_ms=network_ms,
            decode_ms=decode_ms,
            merge_ms=merge_ms,
            total_ms=total_ms,
            bytes_received=bytes_received,
        )

    def run(self) -> list[ClientFrameRecord]:
        self.hello()
        records: list[ClientFrameRecord] = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            for frame_id in range(self.path.frame_count):
                records.append(self.run_frame(frame_id, pool))
        last = records[-1].frame_id if records else 0
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
    server silent for IO_TIMEOUT_S raises TimeoutError."""
    with socket.create_connection((host, port), timeout=IO_TIMEOUT_S) as sock:
        # Pose messages are on the frame critical path; never coalesce them.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = sock.makefile("rb")
        try:
            session = ClientSession(
                reader, sock.sendall, spec, codec, scene, rig, path, display, trace
            )
            return session.run()
        finally:
            reader.close()


def run_native(
    spec: PartitionSpec,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    display: DisplaySink = null_sink,
) -> list[ClientFrameRecord]:
    """Baseline mode: the client renders everything itself.

    Uses the same fixed-foveation sampling as split mode (foveae at full
    rate, periphery reduced), so its displayed frames are byte-identical
    to a lossless split session's. network/decode stay zero and
    bytes_received is 0.
    """
    sw = Stopwatch("client")
    records = []
    for frame_id in range(path.frame_count):
        t0 = now_ms()
        pose = pose_at(path, frame_id)
        (reduced, foveae), draw_ms = sw.stage("draw", frame_id, _draw_local, scene, rig, pose, spec)
        merged, merge_ms = sw.stage("merge", frame_id, compose, reduced, foveae, spec)
        display(frame_id, merged)
        total_ms = now_ms() - t0
        records.append(
            ClientFrameRecord(
                frame_id=frame_id,
                draw_ms=draw_ms,
                network_ms=0.0,
                decode_ms=0.0,
                merge_ms=merge_ms,
                total_ms=total_ms,
                bytes_received=0,
            )
        )
    return records
