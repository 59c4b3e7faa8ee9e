import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from splitfov import trace as trace_mod
from splitfov.trace import BEGIN, END, SEND, Stopwatch, Trace, now_ms, read_record


def fake_clock(monkeypatch, *readings):
    """Makes `now_ms` return the given readings in ms, one per call."""
    it = iter(readings)
    monkeypatch.setattr(trace_mod, "now_ms", lambda: next(it))


class TestTraceFind:
    def test_duplicate_key_returns_the_first_event(self):
        trace = Trace()
        trace.add(1.0, "client", SEND, "pose", 0)
        trace.add(2.0, "client", SEND, "pose", 0)
        trace.add(3.0, "client", SEND, "pose", 1)
        assert trace.find("client", SEND, "pose", 0).t_ms == 1.0
        assert trace.find("client", SEND, "pose", 1).t_ms == 3.0
        assert len(trace) == 3

    def test_missing_key_raises_key_error(self):
        trace = Trace()
        trace.add(1.0, "client", SEND, "pose", 0)
        with pytest.raises(KeyError) as e:
            trace.find("server", SEND, "pose", 0)
        assert e.value.args == ("no event (server, send, pose, frame 0)",)

    def test_subclass_that_restamps_add_is_indexed(self):
        # A trace that replaces each timestamp on the way in, as the
        # benchmark's shared-epoch trace does.
        class Restamped(Trace):
            def add(self, t_ms, actor, kind, name, frame_id):
                super().add(t_ms + 100.0, actor, kind, name, frame_id)

        trace = Restamped()
        trace.add(1.0, "server", BEGIN, "draw", 4)
        assert trace.find("server", BEGIN, "draw", 4).t_ms == 101.0


class TestStopwatch:
    def test_stage_is_end_minus_begin_of_its_traced_readings(self, monkeypatch):
        fake_clock(monkeypatch, 250.0, 500.0)
        trace = Trace()
        sw = Stopwatch("server", trace)
        ran = []
        with sw.stage("encode", 3):
            ran.append(len(trace))
        assert ran == [1]  # the body runs after the BEGIN and before the END
        begin = trace.find("server", BEGIN, "encode", 3).t_ms
        end = trace.find("server", END, "encode", 3).t_ms
        assert (begin, end) == (250.0, 500.0)

    def test_a_stage_whose_body_raises_has_no_end(self, monkeypatch):
        fake_clock(monkeypatch, 250.0)
        trace = Trace()
        sw = Stopwatch("client", trace)
        with pytest.raises(ValueError, match="bad rows"):
            with sw.stage("draw", 3):
                raise ValueError("bad rows")
        assert [(e.t_ms, e.kind, e.name, e.frame_id) for e in trace] == [(250.0, BEGIN, "draw", 3)]
        with pytest.raises(KeyError, match="end, draw, frame 3"):
            read_record(_Record, trace, "client", 3, bytes_received=0)

    @pytest.mark.parametrize("given", [False, True], ids=["private", "given"])
    def test_record_drops_a_private_trace_and_keeps_a_given_one(self, given, monkeypatch):
        fake_clock(monkeypatch, 1.0, 3.5)
        sw = Stopwatch("client", Trace() if given else None)
        first = sw.trace
        with sw.stage("draw", 0):
            pass
        assert sw.record(_Record, 0, bytes_received=7) == _Record(0, 2.5, 0.0, 7)
        assert len(first) == 2
        assert (sw.trace is first) == given
        assert len(sw.trace) == (2 if given else 0)

    def test_mark_without_trace_still_reads_the_clock(self, monkeypatch):
        fake_clock(monkeypatch, 1000.0, 1500.0)
        sw = Stopwatch("client")
        assert sw.mark(SEND, "hello", 0) == 1000.0
        assert sw.mark(SEND, "end", 0) == 1500.0


class TestProcessClock:
    def test_now_ms_counts_milliseconds(self):
        before = now_ms()
        time.sleep(0.02)
        assert 19.0 <= now_ms() - before < 5000.0


class TestMachineClock:
    def test_a_child_process_reads_the_same_clock(self):
        # A client and a server in separate processes stamp comparable times.
        src = Path(__file__).resolve().parent.parent / "src"
        before = now_ms()
        child = subprocess.run(
            [sys.executable, "-c", "from splitfov.trace import now_ms; print(repr(now_ms()))"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            check=True, timeout=60,
        )
        after = now_ms()
        assert before <= float(child.stdout) <= after


@dataclass(frozen=True)
class _Record:
    frame_id: int
    draw_ms: float
    network_ms: float
    bytes_received: int


class TestReadRecord:
    def test_each_ms_field_is_its_span_or_zero(self):
        trace = Trace()
        trace.add(1.0, "client", BEGIN, "draw", 2)
        trace.add(1.0, "server", BEGIN, "draw", 2)  # another actor's span
        trace.add(4.5, "client", END, "draw", 2)
        trace.add(9.0, "server", END, "draw", 2)
        record = read_record(_Record, trace, "client", 2, bytes_received=7)
        assert record == _Record(frame_id=2, draw_ms=3.5, network_ms=0.0, bytes_received=7)

    def test_a_span_without_its_end_raises(self):
        trace = Trace()
        trace.add(1.0, "client", BEGIN, "network", 0)
        with pytest.raises(KeyError, match="end, network, frame 0"):
            read_record(_Record, trace, "client", 0, bytes_received=0)
