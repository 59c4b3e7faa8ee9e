"""Span recording for the traced benchmark run, shared by both processes.

Spans are recorded from the benchmark's side of each call: `SpanRecorder.wrap`
replaces a module or class attribute with a timing wrapper, at the place where
the runtime looks the name up, and `restore` puts the original back. Nothing
under `src/` is edited. Every timestamp is `time.perf_counter()` minus an epoch
chosen by the parent process; perf_counter is CLOCK_MONOTONIC on Linux, which
all processes of one machine share, so client and server spans line up.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from splitfov import client, codec, server
from splitfov.trace import Trace
from splitfov.wire import PoseUpdateMsg, SubframeMsg

# Socket default timeout in both processes: a silent or dead peer ends the
# session with a timeout instead of a hang.
IO_TIMEOUT_S = 20.0


@dataclass
class Span:
    """One call: `parent` is the id of its frame's frame span (None for a
    frame span); spans of one frame share `frame` (-1 before any frame)."""

    id: int
    name: str
    actor: str
    thread: int
    frame: int
    parent: Optional[int]
    start_ms: float
    end_ms: float
    counts: dict = field(default_factory=dict)

    @property
    def dur_ms(self) -> float:
        return self.end_ms - self.start_ms


def peak_rss_kb() -> int:
    """This process's peak resident set (VmHWM). Unlike getrusage's
    ru_maxrss it starts afresh at exec, so a child does not inherit the peak
    of the process that started it."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


class EpochTrace(Trace):
    """A runtime `Trace` whose events carry shared-epoch time instead of each
    session's own start-relative time, so client and server events compare."""

    def __init__(self, epoch: float):
        super().__init__()
        self.epoch = epoch

    def add(self, t_ms: float, actor: str, kind: str, name: str, frame_id: int) -> None:
        super().add((time.perf_counter() - self.epoch) * 1000.0, actor, kind, name, frame_id)


class SpanRecorder:
    """Keeps spans in memory for one process; written out at the end."""

    def __init__(self, actor: str, epoch: float, id_base: int = 0):
        self.actor = actor
        self.epoch = epoch
        self.spans: list[Span] = []
        self._ids = itertools.count(id_base)
        self._frame = -1
        self._frame_span: Optional[int] = None
        self._restore: list[tuple[object, str, object]] = []

    def now_ms(self) -> float:
        return (time.perf_counter() - self.epoch) * 1000.0

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        frame_of: Optional[Callable[[tuple], int]] = None,
        counts: Optional[Callable[[tuple, object], dict]] = None,
    ) -> None:
        """Times every call of `owner.attr` as a span called `name`.

        `frame_of(args)` marks a frame span: it gives the frame id, and every
        other span, on any thread, takes the latest frame span as frame and
        parent (frames run one at a time, in lockstep).
        `counts(args, result)` attaches exact counts (rays, bytes) to the span.
        """
        inner = getattr(owner, attr)
        rec = self

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            sid = next(rec._ids)
            if frame_of is not None:
                frame, parent = frame_of(args), None
                rec._frame, rec._frame_span = frame, sid
            else:
                frame, parent = rec._frame, rec._frame_span
            start = rec.now_ms()
            result = inner(*args, **kwargs)
            end = rec.now_ms()
            extra = counts(args, result) if counts is not None else {}
            rec.spans.append(
                Span(sid, name, rec.actor, threading.get_ident(), frame, parent, start, end, extra)
            )
            return result

        setattr(owner, attr, timed)
        self._restore.append((owner, attr, inner))

    def restore(self) -> None:
        while self._restore:
            owner, attr, inner = self._restore.pop()
            setattr(owner, attr, inner)


def write_chrome_trace(path, sessions: list[tuple[list[Span], dict[tuple[str, int], dict]]]) -> None:
    """Writes spans in the Chrome Trace Event Format (complete "X" events,
    microseconds), which Perfetto and chrome://tracing open directly.

    `sessions` holds each session's spans with its frame labels:
    `labels[(actor, frame)]` adds arguments to that frame's frame span, such
    as which side bounded the frame.
    """
    pids = {"client": 1, "server": 2}
    tids: dict[tuple[str, int], int] = {}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": actor}}
        for actor, pid in pids.items()
    ]
    for number, (session_spans, labels) in enumerate(sessions, 1):
        for s in session_spans:
            tid = tids.setdefault((s.actor, s.thread), len(tids) + 1)
            args = {"session": number, "frame": s.frame, "span": s.id, "parent": s.parent, **s.counts}
            if s.parent is None:
                args.update(labels.get((s.actor, s.frame), {}))
            events.append(
                {
                    "ph": "X",
                    "name": s.name,
                    "cat": s.actor,
                    "pid": pids[s.actor],
                    "tid": tid,
                    "ts": s.start_ms * 1000.0,
                    "dur": s.dur_ms * 1000.0,
                    "args": args,
                }
            )
    events.sort(key=lambda e: e.get("ts", -1.0))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def _rays(args: tuple, img) -> dict:
    return {"rays": int(img.shape[0] * img.shape[1])}


def _frame_bytes(args: tuple, data: bytes) -> dict:
    # Only pose and subframe messages belong to a frame; hello and end do not.
    return {"bytes": len(data)} if isinstance(args[0], (PoseUpdateMsg, SubframeMsg)) else {}


def _encoded(args: tuple, payload: bytes) -> dict:
    return {"raw": int(args[1].nbytes), "payload": len(payload)}


def trace_client(rec: SpanRecorder) -> None:
    """Wraps the layer calls the client runtime makes, where it looks them up."""
    rec.wrap(client.ClientSession, "run_frame", "client.frame", frame_of=lambda a: a[1])
    rec.wrap(client, "render_scaled", "render.render_scaled", counts=_rays)
    rec.wrap(client, "upsample_nearest", "client.upsample_nearest")
    rec.wrap(client, "merge", "client.merge")
    rec.wrap(codec, "decode", "codec.decode")
    rec.wrap(client, "write_msg", "wire.write_msg", counts=_frame_bytes)


def trace_server(rec: SpanRecorder) -> None:
    """Wraps the layer calls the server runtime makes, where it looks them up."""
    rec.wrap(server.ServerSession, "serve_frame", "server.frame", frame_of=lambda a: a[2])
    rec.wrap(server, "render_region", "render.render_region", counts=_rays)
    rec.wrap(codec, "encode", "codec.encode", counts=_encoded)
    rec.wrap(server, "write_msg", "wire.write_msg", counts=_frame_bytes)
