"""Totally ordered event trace for lockstep and overlap assertions.

Both runtimes append stage begin/end and message send/receive events;
appends are serialized so concurrent client threads can share one trace.
The virtual clock replays the runtimes' own events, so both clocks emit
the same events:

* once per session: client send hello (frame 0), server recv hello
  (frame 0), client send end and server recv end (last frame id);
* per frame n, client: send pose, begin/end draw, recv subframe0 and
  subframe1, begin/end decode, begin/end merge, begin/end display;
* per frame n, server: recv pose, begin/end draw, begin/end encode,
  begin/end send, with send subframe0 and send subframe1 between them.

The runtimes time every measured stage with a `Stopwatch`, so a record's
stage duration is exactly the END minus BEGIN of its traced span. Every
wall-clock timestamp is a reading of `now_ms`, the one clock of the machine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

BEGIN = "begin"
END = "end"
SEND = "send"
RECV = "recv"


@dataclass(frozen=True)
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
        self._lock = threading.Lock()

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
    """One actor's stage clock on `now_ms`, each traced reading added to
    `trace` when there is one."""

    def __init__(self, actor: str, trace: Optional[Trace] = None):
        self.actor = actor
        self.trace = trace

    def mark(self, kind: str, name: str, frame_id: int) -> float:
        """Reads the clock once and traces that reading; returns it."""
        t_ms = now_ms()
        if self.trace is not None:
            self.trace.add(t_ms, self.actor, kind, name, frame_id)
        return t_ms

    def stage(self, name: str, frame_id: int, fn: Callable, *args):
        """Runs fn(*args) between a BEGIN and an END mark; returns its
        result and END minus BEGIN in ms."""
        begin = self.mark(BEGIN, name, frame_id)
        result = fn(*args)
        return result, self.mark(END, name, frame_id) - begin
