"""Server process of one benchmark session.

Started by run.py: `python3 perfbench/serve.py --epoch E --trace 0|1`. It
runs `run_server` on an ephemeral loopback port and prints that port as one
line once listening. After the session it prints one JSON line with the
server's frame timings, its trace events, its spans (empty unless traced) and
its peak RSS. Two devices do not share an interpreter lock,
so the server gets its own process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitfov.camera import CameraRig  # noqa: E402
from splitfov.server import run_server  # noqa: E402

import spans  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epoch", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    socket.setdefaulttimeout(spans.IO_TIMEOUT_S)
    trace = spans.EpochTrace(args.epoch)
    recorder = spans.SpanRecorder("server", args.epoch, id_base=1 << 40)
    if args.trace:
        spans.trace_server(recorder)
    records = run_server(
        "127.0.0.1", 0, CameraRig(), trace=trace, ready=lambda port: print(port, flush=True)
    )
    result = {
        "records": [dataclasses.asdict(r) for r in records],
        "events": [dataclasses.astuple(e) for e in trace.events()],
        "spans": [dataclasses.asdict(s) for s in recorder.spans],
        "maxrss_kb": spans.peak_rss_kb(),
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
