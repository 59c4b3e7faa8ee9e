"""Latency statistics and reporting.

Medians and IQRs use linear-interpolation quantiles so results are
reproducible from the raw CSVs with any tool using the same rule.
Throughput is computed per frame as payload_bits / network_seconds and
median-aggregated, which keeps a single outlier frame from skewing the
reported Mbps.
"""

from __future__ import annotations

import csv
import dataclasses
from typing import Optional, Sequence, TypeVar

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .client import ClientFrameRecord
from .server import ServerFrameTiming

R = TypeVar("R")


def median(samples: Sequence[float]) -> float:
    """Linear-interpolation quantile at 0.5."""
    if len(samples) == 0:
        raise ValueError("median of empty sample set")
    return float(np.quantile(np.asarray(samples, dtype=np.float64), 0.5))


def iqr(samples: Sequence[float]) -> float:
    """q(0.75) - q(0.25) with linear-interpolation quantiles."""
    if len(samples) == 0:
        raise ValueError("iqr of empty sample set")
    x = np.asarray(samples, dtype=np.float64)
    return float(np.quantile(x, 0.75) - np.quantile(x, 0.25))


def mbps(payload_bytes: int, network_seconds: float) -> float:
    """Megabits per second: bytes * 8 / seconds / 1e6."""
    if network_seconds <= 0:
        raise ValueError(f"network_seconds must be positive, got {network_seconds}")
    return payload_bytes * 8.0 / network_seconds / 1e6


def improvement_pct(t_native_ms: float, t_split_ms: float) -> float:
    """Latency improvement of split over native: (native - split) / split * 100."""
    if t_native_ms <= 0 or t_split_ms <= 0:
        raise ValueError("frame times must be positive")
    return (t_native_ms - t_split_ms) / t_split_ms * 100.0


def fps_display(median_total_ms: float) -> int:
    """Frames per second as displayed next to a median frame time."""
    if median_total_ms <= 0:
        raise ValueError(f"median_total_ms must be positive, got {median_total_ms}")
    return round(1000.0 / median_total_ms)


def _stage_medians(records: Sequence) -> dict[str, float]:
    """Median of each *_ms stage field across per-frame records."""
    stages = [f.name for f in dataclasses.fields(records[0]) if f.name.endswith("_ms")]
    return {s: median([getattr(r, s) for r in records]) for s in stages}


def _fmt(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.2f}"


def _columns(headers: list[str], row: list[str]) -> list[str]:
    """A header line and a value line, each column as wide as its widest cell."""
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    return ["  " + "  ".join(c.ljust(w) for c, w in zip(cells, widths)) for cells in (headers, row)]


def _other_stages(med: dict[str, float], shown: tuple[str, ...]) -> list[str]:
    """One parenthesized line with the stages the table columns leave out."""
    extras = [s for s in med if s not in shown]
    if not extras:
        return []
    return ["  (" + ", ".join(f"{s[:-3]} {med[s]:.2f} ms" for s in extras) + ")"]


def render_profile(client_records: Sequence[ClientFrameRecord] = (),
                   server_records: Sequence[ServerFrameTiming] = (),
                   dims: Optional[str] = None, title: str = "Client profile") -> str:
    """The client and server profiling tables of a run, each block
    aggregated over its own records; a block with no records is left out.

    The client block shows the end-to-end median, IQR and fps, then the
    Network / Decode / Merge stage medians and the median Mbps. Frames with
    a zero network window (local modes, infinite simulated bandwidth) are
    left out of the Mbps median. The server block shows the Draw / Encode
    medians. `dims` (the rect the server draws per eye, as
    `partition.server_dims` gives it) fills both Server Dims columns;
    `title` heads the client block.
    """
    if not client_records and not server_records:
        raise ValueError("no records to profile")
    lines = []
    if client_records:
        med = _stage_medians(client_records)
        rates = [mbps(r.bytes_received, r.network_ms / 1000.0)
                 for r in client_records if r.network_ms > 0]
        lines += [
            f"{title} ({len(client_records)} frames, all times median ms)",
            f"  end-to-end: {med['total_ms']:.2f} ms/frame ({fps_display(med['total_ms'])} fps,"
            f" IQR = {iqr([r.total_ms for r in client_records]):.3f})",
        ]
        lines += _columns(["Server Dims", "Network", "Decode", "Merge", "Mbps"],
                          [dims or "-", _fmt(med["network_ms"]), _fmt(med["decode_ms"]),
                           _fmt(med["merge_ms"]), _fmt(median(rates) if rates else None)])
        lines += _other_stages(med, ("network_ms", "decode_ms", "merge_ms", "total_ms"))
    if server_records:
        med = _stage_medians(server_records)
        lines.append(f"Server profile ({len(server_records)} frames, all times median ms)")
        lines += _columns(["Server Dims", "Draw Time", "Encode Time"],
                          [dims or "-", _fmt(med["draw_ms"]), _fmt(med["encode_ms"])])
        lines += _other_stages(med, ("draw_ms", "encode_ms"))
    return "\n".join(lines)


def process_usage() -> Optional[tuple[int, float]]:
    """This process's minor page faults and kernel CPU ms so far (all of
    its threads), or None where `resource` is missing."""
    if resource is None:
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime * 1000.0


def usage_line(before: Optional[tuple[int, float]], frames: int) -> str:
    """The minor faults and kernel CPU ms per frame over `frames` frames
    since `process_usage()` returned `before`; `-` without `resource`."""
    faults = kernel = "-"
    if before is not None:
        after = process_usage()
        faults = f"{(after[0] - before[0]) / frames:.0f}"
        kernel = f"{(after[1] - before[1]) / frames:.2f}"
    return f"  process: {faults} minor faults/frame, {kernel} ms kernel CPU/frame"


def write_csv(records: Sequence, path: str) -> None:
    """Writes dataclass records as CSV; floats use shortest round-trip repr."""
    if len(records) == 0:
        raise ValueError("no records to write")
    names = [f.name for f in dataclasses.fields(records[0])]
    with open(path, "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        for r in records:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in
                             (getattr(r, n) for n in names)])


def _read_records(path: str, kinds: Sequence[type]) -> tuple[type, list]:
    """Reads CSV written by `write_csv` into instances of the one of `kinds`
    whose fields its header names, each once and in any order. A header
    that matches none of `kinds`, a row of the wrong width, or a cell that
    does not parse as its field's type raises ValueError."""
    with open(path, newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        for kind in kinds:
            fields = {f.name: f.type for f in dataclasses.fields(kind)}
            if header is not None and sorted(header) == sorted(fields):
                break
        else:
            names = " or ".join(k.__name__ for k in kinds)
            raise ValueError(f"{path}: CSV header {header} does not match {names}")
        out = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} fields,"
                                 f" expected {len(header)}")
            kwargs = {}
            for name, raw in zip(header, row):
                parse = int if fields[name] in (int, "int") else float
                try:
                    kwargs[name] = parse(raw)
                except ValueError:
                    raise ValueError(f"{path}, line {reader.line_num}: {name} is {raw!r},"
                                     f" expected {parse.__name__}") from None
            out.append(kind(**kwargs))
    return kind, out


def read_csv(path: str, record_type: type[R]) -> list[R]:
    """Reads CSV written by `write_csv` back into `record_type` instances.
    A header or row that does not match `record_type` raises ValueError."""
    return _read_records(path, [record_type])[1]


def run_report(paths: Sequence[str]) -> str:
    """Re-renders per-frame CSVs written by earlier runs as the profile
    tables. Each file holds client or server records, told apart by its
    header; at most one file of each kind is accepted, and a header that
    matches neither kind raises ValueError."""
    found: dict[type, list] = {}
    for path in paths:
        kind, records = _read_records(path, [ClientFrameRecord, ServerFrameTiming])
        if kind in found:
            raise ValueError(f"{path} is a second {kind.__name__} CSV;"
                             " report takes at most one client and one server CSV")
        found[kind] = records
    return render_profile(found.get(ClientFrameRecord, ()), found.get(ServerFrameTiming, ()))
