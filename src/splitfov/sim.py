"""Single-process simulation of a full split-rendering session.

Both clock modes run the real client and server runtimes concurrently over
a kernel socket pair per direction, so the pixels, the wire messages and
the display sink are exactly those of a networked session:

* virtual: only the clock is modeled. The runtimes exchange their messages
  over a free link, then their own event trace is replayed on a virtual
  timeline: each stage takes its time from the cost model (a fixed cost
  per stage plus a per-ray draw cost), and each message the network
  model's delivery of the size the runtimes wrote. Runs are
  bit-reproducible and the event trace carries exact timestamps for
  lockstep/overlap assertions.
* wall: the link hands each message to its socket when the network model
  delivers it; timings are honest wall-clock measurements.

The network model charges each message latency plus transmission time at
the link rate; a direction's link is FIFO, so back-to-back messages
queue behind each other.
"""

from __future__ import annotations

import contextlib
import math
import queue
import socket
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from . import codec as codec_mod
from . import wire
from .camera import CameraPath, CameraRig
from .client import (
    ClientFrameRecord,
    ClientSession,
    DisplaySink,
    null_sink,
    run_native,
)
from .metrics import improvement_pct, median, render_profile
from .partition import PartitionSpec, frame_rays, server_dims, server_rows
from .render import SceneConfig
from .server import ServerFrameTiming, ServerSession
from .trace import BEGIN, END, RECV, SEND, Trace, now_ms, read_record


@dataclass(frozen=True)
class NetModel:
    """One-way propagation latency plus a FIFO link at a fixed rate.

    A message handed to the link at t starts transmitting when the link
    is free, occupies it for bits/bandwidth, and its last byte arrives
    one latency after transmission ends. bandwidth may be math.inf.
    """

    latency_ms: float = 2.0
    bandwidth_mbps: float = 500.0

    def __post_init__(self):
        if not (math.isfinite(self.latency_ms) and self.latency_ms >= 0):
            raise ValueError(f"latency_ms must be non-negative and finite, got {self.latency_ms}")
        if not self.bandwidth_mbps > 0:
            raise ValueError(f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}")

    def tx_ms(self, nbytes: int) -> float:
        if math.isinf(self.bandwidth_mbps):
            return 0.0
        return nbytes * 8.0 / (self.bandwidth_mbps * 1e6) * 1000.0


ZERO_NET = NetModel(latency_ms=0.0, bandwidth_mbps=math.inf)


class _Link:
    """FIFO transmission state for one direction of a modeled link, in ms;
    the virtual timeline and the wall-clock `_Wire` both schedule with it."""

    def __init__(self, net: NetModel):
        self.net = net
        self.free_at_ms = 0.0

    def schedule(self, send_ms: float, nbytes: int) -> tuple[float, float]:
        """Returns (first_byte_arrival_ms, last_byte_arrival_ms)."""
        start = max(send_ms, self.free_at_ms)
        tx = self.net.tx_ms(nbytes)
        self.free_at_ms = start + tx
        return start + self.net.latency_ms, start + tx + self.net.latency_ms


@dataclass(frozen=True)
class CostModel:
    """Stage durations in ms for the virtual clock: a fixed cost per stage,
    plus `us_per_ray` microseconds for each ray a draw shades: the server
    shades its foveal rows, the client the reduced periphery and its own
    foveal rows. Sending a pose and displaying a frame take no modeled
    time. On the wall clock the client's draw stage includes the
    peripheral upsample and the paste of its own rows, and its merge stage
    is the paste of the server's rows alone: `merge` is charged to the
    split client only, since native serves no rows and merges nothing."""

    server_draw: float = 5.0
    encode: float = 3.0
    client_draw: float = 6.0
    decode: float = 4.0
    merge: float = 1.0
    us_per_ray: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"cost {f.name} must be non-negative and finite, got {v}")

    def server_draw_ms(self, rays: int) -> float:
        return self.server_draw + rays * self.us_per_ray / 1000.0

    def client_draw_ms(self, rays: int) -> float:
        return self.client_draw + rays * self.us_per_ray / 1000.0


@dataclass
class SimResult:
    client_records: list[ClientFrameRecord]
    server_records: list[ServerFrameTiming]
    trace: Trace


class _LaneTrace(Trace):
    """A trace that also keeps the thread (lane) that added each event."""

    def __init__(self):
        super().__init__()
        self.lanes: list[threading.Thread] = []

    def add(self, t_ms: float, actor: str, kind: str, name: str, frame_id: int) -> None:
        with self._lock:
            super().add(t_ms, actor, kind, name, frame_id)
            self.lanes.append(threading.current_thread())


def run_sim_virtual(
    spec: PartitionSpec,
    codec: codec_mod.CodecId,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    net: NetModel = ZERO_NET,
    cost: CostModel = CostModel(),
    display: DisplaySink = null_sink,
) -> SimResult:
    """Runs the split session on a deterministic virtual timeline.

    The real runtimes run the session (render, encode, wire serialization,
    decode, merge, display sink) over a free link; their own trace
    is then replayed on a clock modeled from `cost` and from `net` applied
    to the size of each message they wrote. Timestamps in the records and
    trace are virtual milliseconds from session start.
    """
    recorder = _LaneTrace()
    recorded, writes = _run_split(spec, codec, scene, rig, path, ZERO_NET, display, recorder)
    server_rays = 2 * spec.fov_w * server_rows(spec)
    stage_ms = {
        ("server", "draw"): cost.server_draw_ms(server_rays),
        ("server", "encode"): cost.encode,
        ("server", "send"): 0.0,
        ("client", "draw"): cost.client_draw_ms(frame_rays(spec) - server_rays),
        ("client", "decode"): cost.decode,
        ("client", "merge"): cost.merge,
        ("client", "display"): 0.0,
        ("client", "network"): 0.0,
        ("client", "total"): 0.0,
    }
    events = recorder.events()
    if Counter(e.actor for e in events if e.kind == SEND) != Counter(
            {actor: len(w) for actor, w in writes.items()}):
        raise RuntimeError("the traced sends and the messages written do not pair one to one")
    links = {actor: _Link(net) for actor in writes}
    sizes = {actor: iter(w) for actor, w in writes.items()}
    # Each thread's events, in the order it added them, on its own clock. A
    # SEND schedules its message on the sender's link and holds no thread;
    # a RECV waits for its message's last byte, and the client's network
    # span begins at the first byte the server sent for its frame; a merge
    # waits for its frame's decode, on the other thread; an END comes its
    # stage's cost after its BEGIN, and a stage that sent ends no earlier
    # than its link has taken what it sent.
    clock: dict[threading.Thread, float] = {}
    sent_until: dict[threading.Thread, float] = {}
    last_byte: dict[tuple[str, int], float] = {}
    first_byte: dict[tuple[str, int], float] = {}
    decoded: dict[int, float] = {}
    timed = []
    for lane, e in zip(recorder.lanes, events):
        t = clock.setdefault(lane, 0.0)
        if e.kind == SEND:
            first, last_byte[e.name, e.frame_id] = links[e.actor].schedule(t, next(sizes[e.actor]))
            first_byte.setdefault((e.actor, e.frame_id), first)
            sent_until[lane] = links[e.actor].free_at_ms
        elif e.kind == RECV:
            t = max(t, last_byte[e.name, e.frame_id])
        elif e.kind == BEGIN:
            sent_until[lane] = 0.0
            if e.name == "network":
                t = max(t, first_byte["server", e.frame_id])
            elif e.name == "merge":
                t = max(t, decoded[e.frame_id])
        elif e.kind == END:
            t = max(t + stage_ms[e.actor, e.name], sent_until[lane])
            if e.name == "decode":
                decoded[e.frame_id] = t
        clock[lane] = t
        timed.append((t, lane, e))
    # By time; a tie goes to the thread that appeared first, so the trace
    # does not depend on how the threads interleaved (sorted is stable).
    rank = {lane: i for i, lane in enumerate(clock)}
    trace = Trace()
    for t, _, e in sorted(timed, key=lambda x: (x[0], rank[x[1]])):
        trace.add(t, e.actor, e.kind, e.name, e.frame_id)
    client_records = [read_record(ClientFrameRecord, trace, "client", r.frame_id,
                                  bytes_received=r.bytes_received) for r in recorded.client_records]
    server_records = [read_record(ServerFrameTiming, trace, "server", s.frame_id, bytes_sent=s.bytes_sent)
                      for s in recorded.server_records]
    return SimResult(client_records, server_records, trace)


def run_native_virtual(
    spec: PartitionSpec, path: CameraPath, cost: CostModel = CostModel()
) -> list[ClientFrameRecord]:
    """Native baseline on the virtual clock: one device draws the reduced
    periphery and every foveal row at full rate, the split client's draw
    with no rows served, then displays. So each frame is one draw stage,
    with no network, decode or merge. Lockstep native frames share no
    state, so every frame has the same modeled cost. It draws no frame:
    the native frames are byte-identical to a lossless split session's,
    and nothing shows them."""
    draw = cost.client_draw_ms(frame_rays(spec))
    return [
        ClientFrameRecord(
            frame_id=frame_id,
            draw_ms=draw,
            network_ms=0.0,
            decode_ms=0.0,
            merge_ms=0.0,
            total_ms=draw,
            bytes_received=0,
        )
        for frame_id in range(path.frame_count)
    ]


class _Wire(contextlib.AbstractContextManager):
    """One direction of the wall-clock link: a kernel socket pair. The
    runtime reads `reader`, under the socket deadline `wire.IO_TIMEOUT_S`,
    and its writes never block: each is queued, and a delivery thread
    hands it to the socket on the link's schedule. The first 4 bytes (a
    message's length prefix) go at the first-byte arrival and the rest at
    the last-byte arrival, so a reader's first-byte timestamps are
    meaningful. Leaving the `with` block closes the reading end, which
    ends any delivery still waiting on it."""

    def __init__(self, net: NetModel):
        self._link = _Link(net)
        self.sizes: list[int] = []  # length of each write, in order
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._reader_closed = threading.Event()
        self._tx, rx = socket.socketpair()
        rx.settimeout(wire.IO_TIMEOUT_S)
        self.reader = rx.makefile("rb")
        rx.close()  # the reader now owns the socket
        self._thread = threading.Thread(target=self._deliver, daemon=True)
        self._thread.start()

    def write(self, data: bytes) -> None:
        if data:
            self.sizes.append(len(data))
            first_ms, last_ms = self._link.schedule(now_ms(), len(data))
            self._queue.put((first_ms, data[:4]))
            self._queue.put((last_ms, data[4:]))

    def close(self) -> None:
        """Ends the stream: the reader sees EOF once it has drained it."""
        self._queue.put(None)

    def _deliver(self) -> None:
        with self._tx, contextlib.suppress(ConnectionError):  # the reader closed mid-send
            for due_ms, piece in iter(self._queue.get, None):
                if self._reader_closed.wait(max(due_ms - now_ms(), 0.0) / 1000.0):
                    return
                self._tx.sendall(piece)

    def __exit__(self, *exc) -> None:
        self.close()
        self.reader.close()
        self._reader_closed.set()
        self._thread.join()


def _run_split(
    spec: PartitionSpec,
    codec: codec_mod.CodecId,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    net: NetModel,
    display: DisplaySink,
    trace: Trace,
) -> tuple[SimResult, dict[str, list[int]]]:
    """Runs the real client and server runtimes concurrently in one process,
    each reading a kernel socket that the modeled link feeds.

    Returns the session, traced into `trace`, and the size of each message
    the client and the server wrote, in order. A server that fails closes the downlink,
    so the client ends instead of waiting, and its own error is raised.
    """
    with _Wire(net) as c2s, _Wire(net) as s2c:
        server_session = ServerSession(c2s.reader, s2c.write, rig, trace=trace)
        client_session = ClientSession(
            reader=s2c.reader, writer=c2s.write, spec=spec, codec=codec, scene=scene, rig=rig,
            path=path, display=display, trace=trace,
        )

        def serve() -> list[ServerFrameTiming]:
            try:
                return server_session.run()
            finally:
                s2c.close()

        with ThreadPoolExecutor(max_workers=1) as pool:
            server_future = pool.submit(serve)
            try:
                client_records = client_session.run()
            finally:
                c2s.close()
                # Raises the server's error, if any, in place of the client's.
                server_records = server_future.result()
    return SimResult(client_records, server_records, trace), {"client": c2s.sizes, "server": s2c.sizes}


def run_sim_wall(
    spec: PartitionSpec,
    codec: codec_mod.CodecId,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    net: NetModel = ZERO_NET,
    display: DisplaySink = null_sink,
) -> SimResult:
    """Runs the real client and server runtimes concurrently in one process,
    each reading a kernel socket that the modeled link feeds; wall-clock
    timings."""
    return _run_split(spec, codec, scene, rig, path, net, display, Trace())[0]


@dataclass
class CompareReport:
    native_records: list[ClientFrameRecord]
    split: SimResult
    improvement_pct: float
    text: str


def run_compare(
    spec: PartitionSpec,
    codec: codec_mod.CodecId,
    scene: SceneConfig,
    path: CameraPath,
    net: NetModel,
    cost: CostModel,
    clock: str = "virtual",
    display: DisplaySink = null_sink,
) -> CompareReport:
    """Native baseline vs split session over identical frames and scene.

    Both arms run on the same clock ("virtual" or "wall"); `cost` applies
    to the virtual clock only. Only the split arm's frames go to `display`:
    the native arm's are byte-identical to them.
    """
    rig = CameraRig()
    if clock == "virtual":
        native_records = run_native_virtual(spec, path, cost=cost)
        split = run_sim_virtual(spec, codec, scene, rig, path, net=net, cost=cost, display=display)
    elif clock == "wall":
        native_records = run_native(spec, scene, rig, path)
        split = run_sim_wall(spec, codec, scene, rig, path, net=net, display=display)
    else:
        raise ValueError(f"unknown clock {clock!r}, expected 'virtual' or 'wall'")
    # The tables come first, so a zero frame time fails on the fps it cannot show.
    native_table = render_profile(native_records, title="Native baseline")
    split_table = render_profile(split.client_records, split.server_records,
                                 server_dims(spec), "Split client")
    native_med = median([r.total_ms for r in native_records])
    split_med = median([r.total_ms for r in split.client_records])
    imp = improvement_pct(native_med, split_med)
    text = "\n".join(
        [
            native_table,
            "",
            split_table,
            "",
            f"median end-to-end: native {native_med:.2f} ms vs split {split_med:.2f} ms"
            f" -> improvement {imp:.2f}%",
        ]
    )
    return CompareReport(native_records, split, imp, text)


def check_lockstep(trace: Trace, frame_count: int) -> list[str]:
    """Mechanical lockstep/overlap verification over an event trace.

    Checks, for every frame n:
      * the server starts drawing frame n only at/after receiving pose n;
      * the client sends pose n only at/after finishing display of n-1;
      * the client starts merging only once both its peripheral draw and
        the subframe decode have finished.
    Returns a list of violations; an empty list means the trace is clean.
    """
    violations = []
    for n in range(frame_count):
        try:
            pose_recv = trace.find("server", RECV, "pose", n).t_ms
            draw_begin = trace.find("server", BEGIN, "draw", n).t_ms
            if draw_begin < pose_recv:
                violations.append(
                    f"frame {n}: server draw at {draw_begin:.3f} ms precedes pose receipt "
                    f"at {pose_recv:.3f} ms"
                )
            pose_send = trace.find("client", SEND, "pose", n).t_ms
            if n > 0:
                prev_display = trace.find("client", END, "display", n - 1).t_ms
                if pose_send < prev_display:
                    violations.append(
                        f"frame {n}: pose sent at {pose_send:.3f} ms before frame {n - 1} "
                        f"display ended at {prev_display:.3f} ms"
                    )
            merge_begin = trace.find("client", BEGIN, "merge", n).t_ms
            draw_end = trace.find("client", END, "draw", n).t_ms
            decode_end = trace.find("client", END, "decode", n).t_ms
            if merge_begin < draw_end or merge_begin < decode_end:
                violations.append(
                    f"frame {n}: merge at {merge_begin:.3f} ms before draw "
                    f"({draw_end:.3f} ms) and decode ({decode_end:.3f} ms) both finished"
                )
        except KeyError as e:
            violations.append(f"frame {n}: missing event {e}")
    return violations
