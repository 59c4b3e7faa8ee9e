"""Simulation of a split-rendering session on a modeled clock.

The real client and server runtimes run the session over loopback TCP, as
`splitfov server` and `splitfov client` do, so the pixels, the wire
messages and the display sink are exactly those of a networked session.
Only the clock is modeled: the session's trace, recorded over loopback
TCP, is then replayed by lane on a virtual timeline. Each stage takes its
time from the cost model (a fixed cost per stage plus a per-ray draw
cost), and each message the network model's delivery of the size the
runtimes sent. Runs are bit-reproducible and the event trace carries
exact timestamps for lockstep/overlap assertions.

The network model charges each message latency plus transmission time at
the link rate; a direction's link is FIFO, so back-to-back messages
queue behind each other. Wall-clock split timings come from a two-process
session (`splitfov server` and `splitfov client`), not from here.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from typing import Optional

from . import codec as codec_mod
from .camera import CameraPath, CameraRig
from .client import ClientFrameRecord, DisplaySink, null_sink, run_client
from .metrics import improvement_pct, median, render_profile
from .partition import PartitionSpec, frame_rays, server_dims, server_rows
from .render import SceneConfig
from .server import ServerFrameTiming, run_server
from .trace import BEGIN, END, RECV, SEND, Event, Trace, read_record


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
    """FIFO transmission state for one direction of a modeled link, in ms,
    on the virtual timeline."""

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
    time. The client's draw stage stands for the peripheral draw and
    upsample and its own foveal rows, and its merge stage for the paste of
    the server's rows alone: `merge` is charged to the split client only,
    since native serves no rows and merges nothing."""

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


def start_server(rig: CameraRig, trace: Optional[Trace] = None) -> tuple[Future, int]:
    """`run_server` on an ephemeral 127.0.0.1 port, in a thread of its own;
    returns its future and the port once it listens. A server that fails
    before it listens raises its error here, at once."""
    port: Future = Future()
    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(run_server, "127.0.0.1", 0, rig, trace=trace, ready=port.set_result)
    pool.shutdown(wait=False)
    wait((port, future), return_when=FIRST_COMPLETED)
    if not port.done():
        future.result()
    return future, port.result(timeout=0)


def loopback_session(
    spec: PartitionSpec,
    codec: codec_mod.CodecId,
    scene: SceneConfig,
    rig: CameraRig,
    path: CameraPath,
    display: DisplaySink = null_sink,
    trace: Optional[Trace] = None,
) -> SimResult:
    """A split session on the machine clock over loopback TCP, the path of
    `splitfov server` and `splitfov client`: `run_server` in a thread and
    `run_client` in this one, both tracing into one trace (a fresh one by
    default). A server that fails raises its error in place of the
    client's: its closed connection is what ended the client."""
    trace = Trace() if trace is None else trace
    future, port = start_server(rig, trace)
    try:
        client_records = run_client("127.0.0.1", port, spec, codec, scene, rig, path,
                                    display=display, trace=trace)
    finally:
        server_records = future.result()
    return SimResult(client_records, server_records, trace)


# The lanes of a session's trace. On a tie the earlier lane's event comes
# first, so the replay does not depend on how the threads interleaved.
_LANES = ("client", "server", "client-receive")


def _lane(e: Event) -> str:
    """The lane `e` was added on: the client receives and decodes on a lane
    of its own (its network span, its subframe RECVs and its decode); every
    other event is on its actor's lane."""
    if e.actor == "client" and (e.kind == RECV or e.name in ("network", "decode")):
        return "client-receive"
    return e.actor


def replay(recorded: Trace, stage_ms: dict[tuple[str, str], float], net: NetModel) -> Trace:
    """The recorded session's events re-timed on the virtual clock: each
    stage takes `stage_ms[actor, name]` and each message `net`'s delivery
    of its traced size (`Trace.sizes`). Only the events' order is read,
    never their times; a SEND with no traced size raises KeyError."""
    links = {actor: _Link(net) for actor in ("client", "server")}
    # Each lane's events, in the order it added them, on its own clock. A
    # SEND schedules its message on the sender's link and holds no lane;
    # a RECV waits for its message's last byte, and the client's network
    # span begins at the first byte the server sent for its frame; a merge
    # waits for its frame's decode, on the other lane; an END comes its
    # stage's cost after its BEGIN, and a stage that sent ends no earlier
    # than its link has taken what it sent.
    clock = dict.fromkeys(_LANES, 0.0)
    sent_until = dict.fromkeys(_LANES, 0.0)
    last_byte: dict[tuple[str, int], float] = {}
    first_byte: dict[tuple[str, int], float] = {}
    decoded: dict[int, float] = {}
    timed = []
    for e in recorded:
        lane = _lane(e)
        t = clock[lane]
        if e.kind == SEND:
            link = links[e.actor]
            first, last_byte[e.name, e.frame_id] = link.schedule(
                t, recorded.sizes[e.actor, e.name, e.frame_id])
            first_byte.setdefault((e.actor, e.frame_id), first)
            sent_until[lane] = link.free_at_ms
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
        timed.append((t, _LANES.index(lane), e))
    trace = Trace()
    for t, _, e in sorted(timed, key=lambda x: x[:2]):  # stable
        trace.add(t, e.actor, e.kind, e.name, e.frame_id)
    return trace


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
    decode, merge, display sink) over loopback TCP; their own trace is
    then replayed by lane on a clock modeled from `cost` and from `net`
    applied to the size of each message they sent. Timestamps in the
    records and trace are virtual milliseconds from session start.
    """
    recorded = loopback_session(spec, codec, scene, rig, path, display)
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
    trace = replay(recorded.trace, stage_ms, net)
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
    display: DisplaySink = null_sink,
) -> CompareReport:
    """Native baseline vs split session over identical frames and scene,
    both on the virtual clock. Only the split arm's frames go to `display`:
    the native arm draws none, and its frames are byte-identical to them.
    """
    rig = CameraRig()
    native_records = run_native_virtual(spec, path, cost=cost)
    split = run_sim_virtual(spec, codec, scene, rig, path, net=net, cost=cost, display=display)
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
