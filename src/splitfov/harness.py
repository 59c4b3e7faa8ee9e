"""Run orchestration: one config object, one entry point per mode.

Modes: `server` and `client` are the two ends of a real networked
session; `native` renders everything on one device as the baseline;
`sim` runs both ends in-process over a modeled link; `compare` runs the
native baseline and a split session over the same frames and reports
the median end-to-end improvement; `report` re-summarizes CSVs written
by earlier runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from . import codec as codec_mod
from .camera import CameraPath, CameraRig, PathId
from .client import ClientFrameRecord, DisplaySink, PpmSink, null_sink, run_client, run_native
from .metrics import (
    Summary,
    improvement_pct,
    median,
    read_csv,
    render_server_profile,
    render_table,
    stage_medians,
    summarize,
    write_csv,
    write_summary_kv,
)
from .partition import DEFAULT_SPEC, PartitionSpec, require_valid
from .render import SceneConfig
from .server import ServerFrameTiming, run_server
from .sim import (
    CostModel,
    NetModel,
    SimResult,
    run_native_virtual,
    run_sim_virtual,
    run_sim_wall,
)
from .wire import MAX_FRAMES

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 4460

MODES = ("server", "client", "native", "sim", "compare", "report")
CLOCKS = ("virtual", "wall")


@dataclass
class RunConfig:
    """Everything a run needs; unused fields are ignored by other modes."""

    mode: str
    spec: PartitionSpec = DEFAULT_SPEC
    codec: codec_mod.CodecId = codec_mod.CodecId.PRED_DEFLATE
    scene: SceneConfig = field(default_factory=SceneConfig)
    rig: CameraRig = field(default_factory=CameraRig)
    path_id: PathId = PathId.ORBIT
    frame_count: int = 1000
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    net: NetModel = field(default_factory=NetModel)
    clock: str = "virtual"
    cost: CostModel = field(default_factory=CostModel)
    client_csv: Optional[str] = None
    server_csv: Optional[str] = None
    native_csv: Optional[str] = None
    summary_path: Optional[str] = None
    ppm_dir: Optional[str] = None
    ppm_every: int = 1
    inputs: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.clock not in CLOCKS:
            raise ValueError(f"unknown clock {self.clock!r}, expected one of {CLOCKS}")
        if self.mode == "report":
            if not self.inputs:
                raise ValueError("report mode needs at least one CSV input")
            return
        require_valid(self.spec)
        if self.mode != "server" and not 1 <= self.frame_count <= MAX_FRAMES:
            raise ValueError(f"frame_count must be in [1, {MAX_FRAMES}], got {self.frame_count}")


def _display(config: RunConfig) -> DisplaySink:
    if config.ppm_dir is None:
        return null_sink
    return PpmSink(config.ppm_dir, config.ppm_every)


def _camera_path(config: RunConfig) -> CameraPath:
    return CameraPath(path_id=config.path_id, frame_count=config.frame_count)


def _server_dims(spec: PartitionSpec) -> str:
    return f"{spec.fov_w}x{spec.fov_h}"


def run_sim(config: RunConfig) -> SimResult:
    """Single-process split session; virtual or wall clock per config."""
    config.validate()
    path = _camera_path(config)
    if config.clock == "virtual":
        return run_sim_virtual(
            config.spec, config.codec, config.scene, config.rig, path,
            net=config.net, cost=config.cost, display=_display(config),
        )
    return run_sim_wall(
        config.spec, config.codec, config.scene, config.rig, path,
        net=config.net, display=_display(config),
    )


def run_native_mode(config: RunConfig) -> list[ClientFrameRecord]:
    config.validate()
    path = _camera_path(config)
    if config.clock == "virtual":
        return run_native_virtual(
            config.spec, config.scene, config.rig, path,
            cost=config.cost, display=_display(config),
        )
    return run_native(config.spec, config.scene, config.rig, path, display=_display(config))


def run_server_mode(config: RunConfig, ready=None) -> list[ServerFrameTiming]:
    config.validate()
    return run_server(config.host, config.port, rig=config.rig, ready=ready)


def run_client_mode(config: RunConfig) -> list[ClientFrameRecord]:
    config.validate()
    return run_client(
        config.host, config.port, config.spec, config.codec, config.scene,
        config.rig, _camera_path(config), display=_display(config),
    )


@dataclass
class CompareReport:
    native_records: list[ClientFrameRecord]
    split: SimResult
    native_summary: Summary
    split_summary: Summary
    improvement_pct: float
    text: str


def run_compare(config: RunConfig) -> CompareReport:
    """Native baseline vs split session over identical frames and scene."""
    config.validate()
    native_records = run_native_mode(config)
    split = run_sim(config)
    native_summary = summarize(native_records)
    split_summary = summarize(
        split.client_records, split.server_records, _server_dims(config.spec)
    )
    native_med = median([r.total_ms for r in native_records])
    split_med = median([r.total_ms for r in split.client_records])
    imp = improvement_pct(native_med, split_med)
    text = "\n".join(
        [
            render_table(native_summary, title="Native baseline"),
            "",
            render_table(split_summary, title="Split client"),
            "",
            f"median end-to-end: native {native_med:.2f} ms vs split {split_med:.2f} ms"
            f" -> improvement {imp:.2f}%",
        ]
    )
    return CompareReport(native_records, split, native_summary, split_summary, imp, text)


def _sniff_records(
    path: str,
) -> Union[list[ClientFrameRecord], list[ServerFrameTiming]]:
    client_fields = {f.name for f in dataclasses.fields(ClientFrameRecord)}
    with open(path, encoding="ascii") as f:
        header = set(f.readline().strip().split(","))
    if header == client_fields:
        return read_csv(path, ClientFrameRecord)
    return read_csv(path, ServerFrameTiming)


def run_report(config: RunConfig) -> str:
    """Re-summarizes previously written per-frame CSVs into the profile tables."""
    config.validate()
    client_records: Optional[list[ClientFrameRecord]] = None
    server_records: Optional[list[ServerFrameTiming]] = None
    for path in config.inputs:
        records = _sniff_records(path)
        if isinstance(records[0], ClientFrameRecord):
            client_records = records
        else:
            server_records = records
    if client_records is None:
        if server_records is None:
            raise ValueError("no records found in inputs")
        return render_server_profile(stage_medians(server_records), len(server_records))
    summary = summarize(client_records, server_records)
    return render_table(summary)


def _write_outputs(
    config: RunConfig,
    client_records: Optional[list[ClientFrameRecord]] = None,
    server_records: Optional[list[ServerFrameTiming]] = None,
    native_records: Optional[list[ClientFrameRecord]] = None,
    summary: Optional[Summary] = None,
) -> None:
    if config.client_csv and client_records:
        write_csv(client_records, config.client_csv)
    if config.server_csv and server_records:
        write_csv(server_records, config.server_csv)
    if config.native_csv and native_records:
        write_csv(native_records, config.native_csv)
    if config.summary_path and summary is not None:
        write_summary_kv(summary, config.summary_path)


def run(config: RunConfig, ready=None) -> str:
    """Executes one mode end to end, writes side outputs, returns report text."""
    config.validate()
    if config.mode == "sim":
        result = run_sim(config)
        summary = summarize(
            result.client_records, result.server_records, _server_dims(config.spec)
        )
        _write_outputs(config, result.client_records, result.server_records, summary=summary)
        return render_table(summary, title="Split client (sim)")
    if config.mode == "native":
        records = run_native_mode(config)
        summary = summarize(records)
        _write_outputs(config, client_records=records, summary=summary)
        return render_table(summary, title="Native baseline")
    if config.mode == "compare":
        report = run_compare(config)
        _write_outputs(
            config,
            client_records=report.split.client_records,
            server_records=report.split.server_records,
            native_records=report.native_records,
            summary=report.split_summary,
        )
        return report.text
    if config.mode == "server":
        records = run_server_mode(config, ready=ready)
        _write_outputs(config, server_records=records)
        if not records:
            return "server: session ended before any frame completed"
        return render_server_profile(stage_medians(records), len(records))
    if config.mode == "client":
        records = run_client_mode(config)
        summary = summarize(records)
        _write_outputs(config, client_records=records, summary=summary)
        return render_table(summary, title="Split client")
    return run_report(config)
