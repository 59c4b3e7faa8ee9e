"""Split-rendering benchmark: real split sessions over TCP loopback.

    python3 perfbench/run.py --workload desk_tcp --seed 1 --seconds 10 --trace 0

Every session is real: `run_server` runs in its own process (serve.py) and one
`run_client` connection from this process drives it. The loop is closed and
lockstep: the next pose goes out only after the previous frame is displayed.
All workloads use the spheres scene, an orbit path and PRED_DEFLATE.

The seed sets the orbit (radius, height, phase); the server receives only the
resulting poses. The timed frames go once round the orbit; each session
starts with a few untimed warm-up frames. The timed frame count is `--seconds`
over the workload's nominal frame time, so a seed always gives the same poses.

`--trace 0` prints the end-to-end metrics. A run is SESSIONS sessions, each
on its own share of the orbit and each followed by the native check of its
frames, so split and native frame times both sample the whole run. setup_s
(server launch -> first timed pose send) is the median over the sessions. The
client's peak RSS is read when the first session's warm-up ends, before the
check keeps any displayed frame. frame_ms_tail (the highest percentile with
ten timed frames above it) and the split speed-up are printed but not gated:
on a shared 2-core host neither repeats within a tenth.

`--trace 1` runs each session untraced, then traced (spans around each
layer call, made from perfbench/spans.py in both processes, plus a per-frame
tracemalloc peak), and prints the per-layer metrics, the standalone layer
table and the tracing overhead. It also writes the spans as a Chrome trace
under perfbench/out/.

Every run checks its output after the session, outside the timed frames: each
timed displayed frame must have the BLAKE2b digest of the native composition
(`ffr_frame`) of its pose, and `check_lockstep` over the client and server trace
events must find nothing, so both modes pass a `Trace` to both runtimes. A
frame fails if it is never displayed, differs, or breaks lockstep; error_rate
is failed over attempted frames, which the JSON line carries, and any failure
makes the exit code 1. Both processes set a socket default timeout and the
server process is reaped, so a silent or dead peer ends in a counted failure,
not a hang.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Everything else, and a full record under perfbench/out/,
is for the reader.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import re
import select
import socket
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "splitfov" / "__init__.py").is_file():
    sys.exit(f"perfbench: no splitfov sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from splitfov import client  # noqa: E402
from splitfov.camera import CameraPath, CameraRig, Pose, pose_at  # noqa: E402
from splitfov.client import ClientFrameRecord, ffr_frame, run_client  # noqa: E402
from splitfov.codec import CodecId  # noqa: E402
from splitfov.partition import PartitionSpec  # noqa: E402
from splitfov.render import SceneConfig, SceneId  # noqa: E402
from splitfov.sim import check_lockstep  # noqa: E402
from splitfov.trace import BEGIN, END, RECV, SEND, Event, Trace  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402

WARMUP_FRAMES = 3
# Sessions per run, each followed by its native check, so that both frame
# times sample the whole run on a host whose speed drifts over seconds.
SESSIONS = 3
MIN_TIMED_FRAMES = 30
TAIL_BEYOND = 10  # frame_ms_tail leaves this many timed frames above it
PORT_TIMEOUT_S = 30.0
SERVER_EXIT_TIMEOUT_S = 10.0

SCENE = SceneConfig(SceneId.SPHERES)
RIG = CameraRig()
CODEC = CodecId.PRED_DEFLATE


@dataclass(frozen=True)
class Workload:
    spec: PartitionSpec
    nominal_frame_ms: float  # split frame time on a 2-core Xeon; sets the frame count


# Why each workload was chosen is recorded in BENCHMARK.json. desk_tcp is not
# listed there, so it is not gated: its frames are short enough that the host's
# speed regimes (about 50% apart, switching every few seconds) move its
# run-to-run medians by more than any bound allows at the run length affordable.
WORKLOADS = {
    "desk_tcp": Workload(PartitionSpec.from_full(600, 270, 128, 90, 0.6), 16.0),
    "default_tcp": Workload(PartitionSpec.from_full(2400, 1080, 512, 360, 0.6), 270.0),
    "fovea_tcp": Workload(PartitionSpec.from_full(2400, 1080, 768, 540, 0.3), 300.0),
}


@dataclass(frozen=True)
class Orbit:
    """The `pose_at` orbit round the spheres, facing their centre: one
    revolution over the timed frames, starting at step `phase`."""

    radius: float
    height: float
    phase: int

    @classmethod
    def from_seed(cls, seed: int, steps: int) -> "Orbit":
        # Ranges keep every sphere in view at the 90 degree field of view.
        rng = random.Random(seed)
        return cls(rng.uniform(2.95, 3.05), rng.uniform(1.15, 1.25), rng.randrange(steps))

    def session_poses(self, first: int, count: int, steps: int) -> list[Pose]:
        """Poses by session frame id for timed steps first..first+count-1,
        after warm-up frames on the steps just before them."""
        path = CameraPath(radius=self.radius, height=self.height, frame_count=steps)
        return [
            pose_at(path, (self.phase + first + k - WARMUP_FRAMES) % steps)
            for k in range(WARMUP_FRAMES + count)
        ]


class Display:
    """Display sink. It keeps each timed frame by reference (no copy, so no
    work is added to the timed frame) for the check after the session, and
    reads the client's peak RSS when the warm-up ends, before any frame is
    kept, so the kept frames do not count in it."""

    def __init__(self):
        self.shown: set[int] = set()
        self.frames: dict[int, np.ndarray] = {}
        self.rss_kb = 0

    def __call__(self, frame_id: int, frame: np.ndarray) -> None:
        self.shown.add(frame_id)
        if frame_id >= WARMUP_FRAMES:
            self.frames[frame_id] = frame
        elif frame_id == WARMUP_FRAMES - 1:
            self.rss_kb = spans.peak_rss_kb()


@dataclass
class Session:
    frame_count: int
    launch_ms: float
    display: Display = field(default_factory=Display)
    records: list[ClientFrameRecord] = field(default_factory=list)
    server_records: list[dict] = field(default_factory=list)
    trace: Trace = field(default_factory=Trace)
    layer_spans: list[spans.Span] = field(default_factory=list)
    allocs: dict[int, int] = field(default_factory=dict)
    server_rss_kb: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def timed(self) -> range:
        return range(WARMUP_FRAMES, self.frame_count)

    def event_ms(self, actor: str, kind: str, name: str) -> dict[int, float]:
        """Event times by frame id (the last event of each frame)."""
        return {
            e.frame_id: e.t_ms
            for e in self.trace.events()
            if (e.actor, e.kind, e.name) == (actor, kind, name)
        }

    def setup_s(self) -> float:
        """Server launch -> end of the last warm-up display, which is when the
        first timed pose goes out."""
        shown = self.event_ms("client", END, "display")
        return (shown[WARMUP_FRAMES - 1] - self.launch_ms) / 1000.0


def _read_port(proc: subprocess.Popen) -> int:
    ready, _, _ = select.select([proc.stdout], [], [], PORT_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if not line.strip().isdigit():
        raise RuntimeError(f"server process gave no port within {PORT_TIMEOUT_S:g} s")
    return int(line)


def _trace_allocs(allocs: dict[int, int]):
    """Records each client frame's tracemalloc peak above the memory held
    when the frame began; returns the undo."""
    inner = client.ClientSession.run_frame

    def run_frame(self, frame_id, pool):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return inner(self, frame_id, pool)
        finally:
            allocs[frame_id] = tracemalloc.get_traced_memory()[1] - base

    client.ClientSession.run_frame = run_frame
    return lambda: setattr(client.ClientSession, "run_frame", inner)


def run_session(spec: PartitionSpec, poses: list[Pose], epoch: float, traced: bool) -> Session:
    """One split session over loopback: launch, connect, hello, every pose in
    lockstep, end. Failures are recorded in the session, never raised."""
    session = Session(len(poses), (time.perf_counter() - epoch) * 1000.0)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "serve.py"), "--epoch", repr(epoch),
         "--trace", str(int(traced))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    client_trace = spans.EpochTrace(epoch)
    recorder = spans.SpanRecorder("client", epoch)
    client_pose_at = client.pose_at
    undo_allocs = None
    try:
        port = _read_port(proc)
        # The client asks for pose k of its path; answer with the orbit's.
        client.pose_at = lambda path, frame_id: poses[frame_id]
        if traced:
            spans.trace_client(recorder)
            undo_allocs = _trace_allocs(session.allocs)
            tracemalloc.start()
        session.records = run_client(
            "127.0.0.1", port, spec, CODEC, SCENE, RIG, CameraPath(frame_count=len(poses)),
            display=session.display, trace=client_trace,
        )
    except Exception as e:  # any session failure is counted by the check, not raised
        session.errors.append(f"client: {type(e).__name__}: {e}")
    finally:
        if traced:
            tracemalloc.stop()
            if undo_allocs is not None:
                undo_allocs()
        recorder.restore()
        client.pose_at = client_pose_at
        try:
            out, _ = proc.communicate(timeout=SERVER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            session.errors.append(f"server: did not exit within {SERVER_EXIT_TIMEOUT_S:g} s")
    session.trace = _merged(client_trace.events())
    lines = out.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exited with code {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as e:
        session.errors.append(f"server: {e}")
        return session
    session.server_records = result["records"]
    session.server_rss_kb = result["maxrss_kb"]
    session.layer_spans = recorder.spans + [spans.Span(**s) for s in result["spans"]]
    session.trace = _merged(client_trace.events() + [Event(*e) for e in result["events"]])
    return session


def _merged(events: list[Event]) -> Trace:
    """One plain Trace holding events already stamped on the shared epoch."""
    trace = Trace()
    for e in events:
        trace.add(*dataclasses.astuple(e))
    return trace


def native_check(spec: PartitionSpec, poses: list[Pose], session: Session):
    """Composes every timed pose on one device, timed. Returns the native
    times and the natives' BLAKE2b digests by frame id."""
    native_ms, digests = [], {}
    for k in session.timed:
        t0 = time.perf_counter()
        native = ffr_frame(SCENE, RIG, poses[k], spec)
        native_ms.append((time.perf_counter() - t0) * 1000.0)
        digests[k] = hashlib.blake2b(native).digest()
    return native_ms, digests


def digest_check(session: Session, digests: dict[int, bytes]) -> dict[int, str]:
    """Compares each displayed frame's BLAKE2b digest with the native one's,
    freeing the frame once compared; returns the frames that differ."""
    differ = {}
    for k in session.timed:
        shown = session.display.frames.pop(k, None)
        if shown is not None and hashlib.blake2b(shown).digest() != digests[k]:
            differ[k] = "displayed bytes differ from the native composition"
    return differ


def check_session(session: Session, differ: dict[int, str]) -> tuple[dict[int, str], float]:
    """Every failed frame of a session with its first reason, and the time
    `check_lockstep` took in ms."""
    error = "; ".join(session.errors)
    failed = {
        k: f"never displayed ({error or 'no error raised'})"
        for k in range(session.frame_count)
        if k not in session.display.shown
    }
    for k, reason in differ.items():
        failed.setdefault(k, reason)
    t0 = time.perf_counter()
    violations = check_lockstep(session.trace, session.frame_count)
    check_ms = (time.perf_counter() - t0) * 1000.0
    for v in violations:
        m = re.match(r"frame (\d+): ", v)
        failed.setdefault(int(m.group(1)) if m else 0, f"lockstep: {v}")
    if error and not failed:
        failed[session.frame_count - 1] = error
    return failed, check_ms


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(sessions: list[Session], native_ms: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run's untraced sessions, and notes for the reader."""
    records = [r for s in sessions for r in s.records[WARMUP_FRAMES:]]
    totals = sorted(r.total_ms for r in records)
    n = len(totals)
    busy_s = 0.0
    for s in sessions:
        sends = s.event_ms("client", SEND, "pose")
        shown = s.event_ms("client", END, "display")
        busy_s += (shown[s.timed[-1]] - sends[s.timed[0]]) / 1000.0
    setups = [s.setup_s() for s in sessions]
    metrics = {
        "frame_ms_p50": (_median(totals), "ms"),
        "fps": (n / busy_s, "frames/s"),
        "native_frame_ms_p50": (_median(native_ms), "ms"),
        "payload_bytes_per_frame": (statistics.fmean(r.bytes_received for r in records), "bytes"),
        "setup_s": (_median(setups), "s"),
        # Read in the first session, before the check has kept any frame.
        "client_peak_rss_mb": (sessions[0].display.rss_kb / 1024.0, "MB"),
        "server_peak_rss_mb": (max(s.server_rss_kb for s in sessions) / 1024.0, "MB"),
    }
    notes = {
        "timed_frames": n,
        "frame_ms": [r.total_ms for r in records],
        "native_frame_ms": native_ms,
        "frame_ms_tail": totals[n - 1 - TAIL_BEYOND],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "split_speedup": _median(native_ms) / _median(totals),
        "setup_s_samples": setups,
    }
    return metrics, notes


def fovea_wait_ms(session: Session) -> dict[int, float]:
    """Client draw end -> decode end, floored at 0, by timed frame: above 0
    the merge waited for the server's foveae (server-bound frame)."""
    draw_end = session.event_ms("client", END, "draw")
    decode_end = session.event_ms("client", END, "decode")
    return {k: max(0.0, decode_end[k] - draw_end[k]) for k in session.timed}


def per_layer(sessions: list[Session], check_ms: float, overhead_ms: float) -> dict:
    """The per-layer metrics of a run's traced sessions, over their timed frames."""
    calls: dict[str, list[spans.Span]] = {}
    per_frame: dict[str, list[float]] = {}
    n = 0
    for s in sessions:
        timed = set(s.timed)
        n += len(timed)
        for span in s.layer_spans:
            if span.frame in timed:
                calls.setdefault(span.name, []).append(span)
        pose_sent = s.event_ms("client", SEND, "pose")
        pose_recv = s.event_ms("server", RECV, "pose")
        draw_begin = s.event_ms("server", BEGIN, "draw")
        eye0 = s.event_ms("client", RECV, "subframe0")
        eye1 = s.event_ms("client", RECV, "subframe1")
        server_records = [r for r in s.server_records if r["frame_id"] in timed]
        for name, values in {
            "client.draw_ms": [r.draw_ms for r in s.records[WARMUP_FRAMES:]],
            "wire.network_ms": [r.network_ms for r in s.records[WARMUP_FRAMES:]],
            "client.fovea_wait_ms": list(fovea_wait_ms(s).values()),
            "client.frame_alloc_mb": [s.allocs[k] / 2**20 for k in s.timed],
            "server.draw_ms": [r["draw_ms"] for r in server_records],
            "server.encode_ms": [r["encode_ms"] for r in server_records],
            "server.send_ms": [r["send_ms"] for r in server_records],
            "server.queue_ms": [draw_begin[k] - pose_recv[k] for k in s.timed],
            "server.round_trip_ms": [max(eye0[k], eye1[k]) - pose_sent[k] for k in s.timed],
        }.items():
            per_frame.setdefault(name, []).extend(values)

    def durations(name, scale=1.0):
        return [s.dur_ms * scale for s in calls.get(name, [])]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in calls.get(name, []))

    def ns_per_ray(name):
        return sum(durations(name)) * 1e6 / total(name, "rays")

    units = {"client.frame_alloc_mb": "MB"}
    metrics = {
        "render.periph_ms": (_median(durations("render.render_scaled")), "ms"),
        "render.fovea_ms": (_median(durations("render.render_region")), "ms"),
        "render.rays_per_frame": (
            (total("render.render_scaled", "rays") + total("render.render_region", "rays")) / n,
            "rays",
        ),
        "render.ns_per_ray_client": (ns_per_ray("render.render_scaled"), "ns"),
        "render.ns_per_ray_server": (ns_per_ray("render.render_region"), "ns"),
        "client.upsample_ms": (_median(durations("client.upsample_nearest")), "ms"),
        "client.merge_ms": (_median(durations("client.merge")), "ms"),
        "codec.encode_ms": (_median(durations("codec.encode")), "ms"),
        "codec.decode_ms": (_median(durations("codec.decode")), "ms"),
        "codec.ratio": (total("codec.encode", "raw") / total("codec.encode", "payload"), "ratio"),
        "wire.write_msg_us": (_median(durations("wire.write_msg", 1000.0)), "us"),
        "wire.bytes_per_frame": (total("wire.write_msg", "bytes") / n, "bytes"),
        "trace.check_ms": (check_ms, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    metrics.update((name, (_median(v), units.get(name, "ms"))) for name, v in per_frame.items())
    return metrics


def export_spans(sessions: list[Session], path: Path) -> None:
    """Writes the traced sessions' spans as one Chrome trace; each frame span
    is labelled client-bound or server-bound from its fovea wait."""
    labelled = []
    for s in sessions:
        labels = {}
        for k, wait in fovea_wait_ms(s).items():
            label = {"bound": "server" if wait > 0.0 else "client", "fovea_wait_ms": wait}
            labels[("client", k)] = labels[("server", k)] = label
        labelled.append((s.layer_spans, labels))
    spans.write_chrome_trace(path, labelled)


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    facts = layers.machine_facts()
    spec = WORKLOADS[args.workload].spec
    timed = max(MIN_TIMED_FRAMES, round(args.seconds * 1000.0 / WORKLOADS[args.workload].nominal_frame_ms))
    orbit = Orbit.from_seed(args.seed, timed)
    bounds = [timed * r // SESSIONS for r in range(SESSIONS + 1)]
    chunks = [orbit.session_poses(a, b - a, timed) for a, b in zip(bounds, bounds[1:])]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(
        f"orbit: radius={orbit.radius:.4f} height={orbit.height:.4f} phase={orbit.phase} of {timed} steps; "
        f"{timed} timed frames in {SESSIONS} sessions, {WARMUP_FRAMES} warm-up frames each"
    )

    socket.setdefaulttimeout(spans.IO_TIMEOUT_S)
    epoch = time.perf_counter()
    modes = (False, True) if args.trace else (False,)
    plan = [(r, traced) for r in range(SESSIONS) for traced in modes]
    attempted = sum(len(chunks[r]) for r, _ in plan)
    sessions: dict[bool, list[Session]] = {traced: [] for traced in modes}
    check_ms = {traced: 0.0 for traced in modes}
    native_ms: list[float] = []
    failures: list[str] = []
    lost = 0
    for i, (r, traced) in enumerate(plan):
        session = run_session(spec, chunks[r], epoch, traced)
        sessions[traced].append(session)
        if not traced:
            ms, digests = native_check(spec, chunks[r], session)
            native_ms += ms
        failed, ms = check_session(session, digest_check(session, digests))
        check_ms[traced] += ms
        name = f"{'traced' if traced else 'untraced'} session {r + 1}"
        for error in session.errors:
            print(f"ERROR workload {args.workload} seed {args.seed} {name}: {error}", file=sys.stderr)
        failures += [f"{name} frame {k}: {why}" for k, why in sorted(failed.items())]
        if session.errors:
            # A broken peer would break the later sessions too; their frames count as failed.
            lost = sum(len(chunks[q]) for q, _ in plan[i + 1 :])
            break
    n_failed = len(failures) + lost
    for failure in failures:
        print(f"FAIL workload {args.workload} seed {args.seed} {failure}", file=sys.stderr)
    correct = n_failed == 0

    metrics, notes = {}, {}
    if correct:
        metrics, notes = end_to_end(sessions[False], native_ms)
        print_metrics(metrics)
        print(f"frame_ms_tail {notes['frame_ms_tail']:.4f} ms is p{notes['tail_percentile']:.1f} "
              f"of {notes['timed_frames']} timed frames (reported, not gated)")
        print(f"split speed-up (native_frame_ms_p50 / frame_ms_p50): {notes['split_speedup']:.3f}x")
        if args.trace:
            untraced_p50 = metrics["frame_ms_p50"][0]
            traced_p50 = _median(r.total_ms for s in sessions[True] for r in s.records[WARMUP_FRAMES:])
            print(f"frame_ms_p50 traced {traced_p50:.3f} ms, untraced {untraced_p50:.3f} ms")
            metrics = per_layer(sessions[True], check_ms[True], traced_p50 - untraced_p50)
            solo = layers.solo_table()
            metrics.update((name, (_median(values), "ms")) for name, values in solo.items())
            notes["solo_samples_ms"] = solo
            for line in layers.solo_lines(solo):
                print(line)
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            export_spans(sessions[True], trace_path)
            print(f"spans: {trace_path.relative_to(ROOT)} (Chrome Trace Event Format)")
            print_metrics(metrics)
    print(f"{'error_rate':32s} {n_failed / attempted:14.4f} fraction ({n_failed} of {attempted} frames)")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "orbit": dataclasses.asdict(orbit), "notes": notes,
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
