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
from dataclasses import dataclass
from typing import Optional, Sequence, TypeVar

import numpy as np

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


@dataclass(frozen=True)
class Summary:
    """Per-stage medians plus the headline end-to-end numbers."""

    frame_count: int
    stage_median_ms: dict[str, float]
    total_iqr_ms: float
    median_fps: int
    mbps: Optional[float]
    server_stage_median_ms: Optional[dict[str, float]] = None
    server_dims: Optional[str] = None


def _stage_fields(record) -> list[str]:
    return [f.name for f in dataclasses.fields(record) if f.name.endswith("_ms")]


def stage_medians(records: Sequence) -> dict[str, float]:
    """Median of each *_ms stage field across per-frame records."""
    return {s: median([getattr(r, s) for r in records]) for s in _stage_fields(records[0])}


def summarize(client_records: Sequence, server_records: Optional[Sequence] = None,
              server_dims: Optional[str] = None) -> Summary:
    """Aggregates per-frame records into stage medians, the end-to-end
    IQR, fps, and Mbps.

    `client_records` must carry *_ms stage fields plus total_ms and
    bytes_received; `server_records` (optional) carry their own *_ms
    fields. Frames with a zero network window (local modes, infinite
    simulated bandwidth) are excluded from the Mbps median.
    """
    if len(client_records) == 0:
        raise ValueError("no client records to summarize")
    med = stage_medians(client_records)

    rates = [
        mbps(r.bytes_received, r.network_ms / 1000.0)
        for r in client_records
        if r.network_ms > 0
    ]
    rate = median(rates) if rates else None

    return Summary(
        frame_count=len(client_records),
        stage_median_ms=med,
        total_iqr_ms=iqr([r.total_ms for r in client_records]),
        median_fps=fps_display(med["total_ms"]),
        mbps=rate,
        server_stage_median_ms=stage_medians(server_records) if server_records else None,
        server_dims=server_dims,
    )


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


def render_server_profile(medians: dict[str, float], frame_count: int,
                          dims: Optional[str] = None) -> str:
    """The server profiling table from per-stage medians (ms)."""
    lines = [f"Server profile ({frame_count} frames, all times median ms)"]
    lines += _columns(["Server Dims", "Draw Time", "Encode Time"],
                      [dims or "-", _fmt(medians.get("draw_ms")), _fmt(medians.get("encode_ms"))])
    lines += _other_stages(medians, ("draw_ms", "encode_ms"))
    return "\n".join(lines)


def render_table(summary: Summary, title: str = "Client profile") -> str:
    """Aligned text tables in the shape of the client/server profiling tables."""
    dims = summary.server_dims or "-"
    med = summary.stage_median_ms
    lines = [
        f"{title} ({summary.frame_count} frames, all times median ms)",
        f"  end-to-end: {med['total_ms']:.2f} ms/frame"
        f" ({summary.median_fps} fps, IQR = {summary.total_iqr_ms:.3f})",
    ]
    lines += _columns(["Server Dims", "Network", "Decode", "Merge", "Mbps"],
                      [dims, _fmt(med.get("network_ms")), _fmt(med.get("decode_ms")),
                       _fmt(med.get("merge_ms")), _fmt(summary.mbps)])
    lines += _other_stages(med, ("network_ms", "decode_ms", "merge_ms", "total_ms"))
    if summary.server_stage_median_ms is not None:
        lines.append(render_server_profile(
            summary.server_stage_median_ms, summary.frame_count, summary.server_dims))
    return "\n".join(lines)


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


def read_csv(path: str, record_type: type[R]) -> list[R]:
    """Reads CSV written by `write_csv` back into `record_type` instances."""
    fields = {f.name: f.type for f in dataclasses.fields(record_type)}
    out = []
    with open(path, newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or set(header) != set(fields):
            raise ValueError(f"CSV header {header} does not match {record_type.__name__}")
        for row in reader:
            kwargs = {}
            for name, raw in zip(header, row):
                typ = fields[name]
                is_int = typ in (int, "int")
                kwargs[name] = int(raw) if is_int else float(raw)
            out.append(record_type(**kwargs))
    return out


def run_report(paths: Sequence[str]) -> str:
    """Re-summarizes per-frame CSVs written by earlier runs into the profile
    tables. Each file holds client or server records, told apart by its
    header; with no client file the server profile is shown alone."""
    client_header = {f.name for f in dataclasses.fields(ClientFrameRecord)}
    client_records: list[ClientFrameRecord] = []
    server_records: list[ServerFrameTiming] = []
    for path in paths:
        with open(path, encoding="ascii") as f:
            is_client = set(f.readline().strip().split(",")) == client_header
        if is_client:
            client_records = read_csv(path, ClientFrameRecord)
        else:
            server_records = read_csv(path, ServerFrameTiming)
    if client_records:
        return render_table(summarize(client_records, server_records))
    if server_records:
        return render_server_profile(stage_medians(server_records), len(server_records))
    raise ValueError("no records found in inputs")
