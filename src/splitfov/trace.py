"""Totally ordered event trace for lockstep and overlap assertions.

Both runtimes append stage begin/end and message send/receive events;
appends are serialized so concurrent client threads can share one trace.
The virtual clock replays the runtimes' own events, so both clocks emit
the same events:

* once per session: client send hello (frame 0), server recv hello
  (frame 0), client send end and server recv end (last frame id);
* per frame n, client: begin total, send pose, begin/end draw, begin
  network at the frame's first byte, recv subframe<b> for each band b of
  `partition.subframe_bands` (subframe0 and subframe1, or subframe0 alone
  when the server draws one row), end network, begin/end decode, begin/end
  merge, begin/end display, end total. The total span begins before the
  frame's pose is looked up and ends after display;
* per frame n, server: recv pose, begin/end draw, begin/end encode,
  begin/end send, with send subframe<b> for each band between them.

A stage is a `with stopwatch.stage(name, frame_id):` block. A runtime's
records are a view of its trace: once a frame's last mark is made,
`read_record` sets each `<stage>_ms` field to the END minus BEGIN of the
span of that name, on either clock. A runtime given no trace keeps only
the frame in progress (`Stopwatch.record`). Every wall-clock timestamp is a
reading of `now_ms`, the one clock of the machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional

BEGIN = "begin"
END = "end"
SEND = "send"
RECV = "recv"


@dataclass(frozen=True, slots=True)
class Event:
    t_ms: float
    actor: str  # "client" | "server"
    kind: str  # "begin" | "end" | "send" | "recv"
    name: str  # stage or message name
    frame_id: int


class Trace:
    """Append-only event list; iteration yields events in append order."""

    def __init__(self):
        self._events: list[Event] = []
        self._first: dict[tuple[str, str, str, int], Event] = {}
        self._lock = threading.RLock()  # reentrant, so a subclass's add can extend this one's

    def add(self, t_ms: float, actor: str, kind: str, name: str, frame_id: int) -> None:
        event = Event(t_ms, actor, kind, name, frame_id)
        with self._lock:
            self._events.append(event)
            self._first.setdefault((actor, kind, name, frame_id), event)

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def __iter__(self):
        return iter(self.events())

    def __len__(self):
        return len(self._events)

    def find(self, actor: str, kind: str, name: str, frame_id: int) -> Event:
        """The first event added with this key, in constant time."""
        with self._lock:
            event = self._first.get((actor, kind, name, frame_id))
        if event is None:
            raise KeyError(f"no event ({actor}, {kind}, {name}, frame {frame_id})")
        return event


def now_ms() -> float:
    """The machine clock: `time.perf_counter()` in milliseconds. It is
    CLOCK_MONOTONIC, which every process on the machine shares, so the
    timestamps of a client and a server in separate processes line up."""
    return time.perf_counter() * 1000.0


class Stopwatch:
    """One actor's stage clock on `now_ms`, each reading added to `trace`
    (a private one when none is given)."""

    def __init__(self, actor: str, trace: Optional[Trace] = None):
        self.actor = actor
        self._private = trace is None
        self.trace = Trace() if trace is None else trace

    def mark(self, kind: str, name: str, frame_id: int) -> float:
        """Reads the clock once and traces that reading; returns it."""
        t_ms = now_ms()
        self.trace.add(t_ms, self.actor, kind, name, frame_id)
        return t_ms

    @contextlib.contextmanager
    def stage(self, name: str, frame_id: int) -> Iterator[None]:
        """Runs the `with` body between a BEGIN and an END mark; a body
        that raises gets no END."""
        self.mark(BEGIN, name, frame_id)
        yield
        self.mark(END, name, frame_id)

    def record(self, cls, frame_id: int, **fields):
        """The frame's `cls` record, read off the trace (`read_record`). A
        private trace then starts afresh, so it holds one frame's events at
        a time; a trace the caller gave keeps the whole session. Call it
        only while no other thread marks."""
        record = read_record(cls, self.trace, self.actor, frame_id, **fields)
        if self._private:
            self.trace = Trace()
        return record


def read_record(cls, trace: Trace, actor: str, frame_id: int, **fields):
    """One frame's `cls` record read off `trace`: each `<stage>_ms` field is
    the END minus BEGIN of `actor`'s span `<stage>` in that frame, or 0.0
    where the frame has no such span; `fields` gives the others. The trace
    holds one session of `actor`: `find` reads the first event of a key."""

    def span_ms(stage: str) -> float:
        try:
            begin = trace.find(actor, BEGIN, stage, frame_id)
        except KeyError:
            return 0.0
        return trace.find(actor, END, stage, frame_id).t_ms - begin.t_ms

    spans = {f.name: span_ms(f.name[: -len("_ms")])
             for f in dataclasses.fields(cls) if f.name.endswith("_ms")}
    return cls(frame_id=frame_id, **spans, **fields)
