"""Command-line front end.

Subcommands are the run modes: server, client, native, compare and
report. Each runs straight from its parsed flags. Geometry flags default
to the stereo 2400x1080 frame with a 512x360 per-eye fovea at peripheral
scale 0.6 over 1000 frames. SPLITFOV_HOST / SPLITFOV_PORT override the
endpoint defaults; explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Optional, Sequence

from . import codec as codec_mod
from .camera import CameraPath, CameraRig
from .client import DisplaySink, PpmSink, null_sink, run_client, run_native
from .metrics import process_usage, render_profile, run_report, usage_line, write_csv
from .partition import DEFAULT_SPEC, PartitionError, PartitionSpec, server_dims
from .render import SceneConfig, SceneId
from .server import run_server
from .sim import CostModel, NetModel, run_compare
from .wire import ProtocolError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 4460

_CODECS = {"raw": codec_mod.CodecId.RAW, "pred-deflate": codec_mod.CodecId.PRED_DEFLATE}
_SCENES = {"empty": SceneId.EMPTY, "spheres": SceneId.SPHERES}
_RIG = CameraRig()
# compare's virtual clock: draw time proportional to rays shaded and nothing
# else, so the native and split arms differ by their ray counts alone.
RAY_COST = CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0, merge=0.0,
                     us_per_ray=1.0)


def _dims(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")


def _bandwidth(text: str) -> float:
    if text.lower() in ("inf", "infinite"):
        return math.inf
    return float(text)


def _port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in [0, 65535], got {port}")
    return port


def _add_geometry(p: argparse.ArgumentParser, codec: bool = True) -> None:
    p.add_argument("--size", type=_dims, default=(DEFAULT_SPEC.full_w, DEFAULT_SPEC.full_h),
                   metavar="WxH", help="stereo frame size (default %(default)s)")
    p.add_argument("--fovea", type=_dims, default=(DEFAULT_SPEC.fov_w, DEFAULT_SPEC.fov_h),
                   metavar="WxH", help="per-eye foveal region size (default %(default)s)")
    p.add_argument("--scale", type=float, default=DEFAULT_SPEC.periph_scale,
                   help="peripheral resolution scale in [1/65535, 1] (default %(default).7g)")
    p.add_argument("--frames", type=int, default=CameraPath().frame_count,
                   help="frames to run (default %(default)s)")
    p.add_argument("--scene", choices=sorted(_SCENES), default="spheres")
    if codec:  # the subframe codec; native sends no subframes
        p.add_argument("--codec", choices=sorted(_CODECS), default="pred-deflate")


def _add_outputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--client-csv", metavar="PATH", help="write per-frame client timings")
    p.add_argument("--ppm-dir", metavar="DIR", help="dump displayed frames as PPM here")
    p.add_argument("--ppm-every", type=int, metavar="K",
                   help="with --ppm-dir: dump every K-th frame (default 1)")


def _add_server_csv(p: argparse.ArgumentParser) -> None:
    p.add_argument("--server-csv", metavar="PATH", help="write per-frame server timings")


def _add_endpoint(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default=os.environ.get("SPLITFOV_HOST", DEFAULT_HOST))
    # argparse applies `type` to a string default, so the environment's
    # port is checked like the flag's.
    p.add_argument("--port", type=_port,
                   default=os.environ.get("SPLITFOV_PORT", str(DEFAULT_PORT)))


def _add_net(p: argparse.ArgumentParser) -> None:
    """Link flags, and one cost flag per CostModel field, each defaulting
    to RAY_COST's value."""
    net = NetModel()
    p.add_argument("--latency", type=float, default=net.latency_ms, metavar="MS",
                   help="one-way link latency (default %(default)s)")
    p.add_argument("--bandwidth", type=_bandwidth, default=net.bandwidth_mbps, metavar="MBPS",
                   help="link rate, or 'inf' (default %(default)s)")
    p.add_argument("--us-per-ray", dest="cost_us_per_ray", type=float,
                   default=RAY_COST.us_per_ray, metavar="US",
                   help="draw cost per ray shaded, added to each draw's fixed cost"
                        " (default %(default)s)")
    for f in dataclasses.fields(CostModel):
        if f.name != "us_per_ray":
            p.add_argument(f"--cost-{f.name.replace('_', '-')}", type=float,
                           default=getattr(RAY_COST, f.name), metavar="MS",
                           help=f"fixed {f.name.replace('_', ' ')} cost (default %(default)s)")


def _display(args: argparse.Namespace) -> DisplaySink:
    if args.ppm_dir is None:
        return null_sink
    return PpmSink(args.ppm_dir, args.ppm_every)


def _write_csv(path: Optional[str], records) -> None:
    if path and records:
        write_csv(records, path)


# The server, client and native summaries end with the process's page
# faults and kernel CPU per frame (`metrics.usage_line`).

def _run_server_mode(args: argparse.Namespace) -> str:
    before = process_usage()
    specs: list[PartitionSpec] = []
    records = run_server(
        args.host, args.port, _RIG,
        ready=lambda port: print(f"listening on {args.host}:{port}", flush=True),
        on_hello=specs.append,
    )
    if not records:
        return "server: session ended before any frame completed"
    usage = usage_line(before, len(records))
    _write_csv(args.server_csv, records)
    return f"{render_profile(server_records=records, dims=server_dims(specs[0]))}\n{usage}"


def _run_client_mode(args: argparse.Namespace) -> str:
    before = process_usage()
    records = run_client(args.host, args.port, args.spec, args.codec, args.scene, _RIG,
                         args.path, display=_display(args))
    usage = usage_line(before, len(records))
    _write_csv(args.client_csv, records)
    return f"{render_profile(records, dims=server_dims(args.spec), title='Split client')}\n{usage}"


def _run_native_mode(args: argparse.Namespace) -> str:
    before = process_usage()
    records = run_native(args.spec, args.scene, _RIG, args.path, display=_display(args))
    usage = usage_line(before, len(records))
    _write_csv(args.client_csv, records)
    return f"{render_profile(records, title='Native baseline')}\n{usage}"


def _run_compare_mode(args: argparse.Namespace) -> str:
    report = run_compare(args.spec, args.codec, args.scene, args.path, args.net, args.cost,
                         _display(args))
    _write_csv(args.client_csv, report.split.client_records)
    _write_csv(args.server_csv, report.split.server_records)
    _write_csv(args.native_csv, report.native_records)
    return report.text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitfov",
        description="Split rendering: stream lossless foveae from a server over "
                    "a reduced-rate locally drawn periphery, and profile it.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("server", help="serve foveal subframes to one client")
    _add_endpoint(p)
    _add_server_csv(p)
    p.set_defaults(run=_run_server_mode)

    p = sub.add_parser("client", help="run the split client against a server")
    _add_endpoint(p)
    _add_geometry(p)
    _add_outputs(p)
    p.set_defaults(run=_run_client_mode)

    p = sub.add_parser("native", help="single-device baseline, same sampling")
    _add_geometry(p, codec=False)
    _add_outputs(p)
    p.set_defaults(run=_run_native_mode)

    p = sub.add_parser("compare", help="native vs split over identical frames")
    _add_geometry(p)
    _add_outputs(p)
    _add_server_csv(p)
    _add_net(p)
    p.add_argument("--native-csv", metavar="PATH", help="write native-arm timings")
    p.set_defaults(run=_run_compare_mode)

    p = sub.add_parser("report", help="summarize per-frame CSVs")
    p.add_argument("inputs", nargs="+", metavar="CSV")
    p.set_defaults(run=lambda args: run_report(args.inputs))

    return parser


def parse_cli(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parses argv; exits with a usage error (listing every geometry
    violation) on bad input.

    Subcommands that render get typed `spec`, `scene` and `path` attributes,
    and `codec` unless they are `native`; `compare` also gets `net` and
    `cost`, the cost flags' model (RAY_COST where none is given).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mode in ("server", "report"):
        return args

    violations = []
    try:
        args.spec = PartitionSpec(*args.size, *args.fovea, args.scale)
    except PartitionError as e:
        violations.append(str(e))
    if args.frames < 1:
        violations.append(f"frames must be at least 1, got {args.frames}")
    if violations:
        parser.error("; ".join(violations))
    if args.ppm_every is None:
        args.ppm_every = 1
    elif args.ppm_dir is None:
        parser.error("--ppm-every needs --ppm-dir")
    elif args.ppm_every < 1:
        parser.error(f"--ppm-every must be at least 1, got {args.ppm_every}")
    if args.mode != "native":
        args.codec = _CODECS[args.codec]
    args.scene = SceneConfig(_SCENES[args.scene])
    args.path = CameraPath(frame_count=args.frames)

    if args.mode == "compare":
        try:
            args.net = NetModel(latency_ms=args.latency, bandwidth_mbps=args.bandwidth)
            args.cost = CostModel(**{f.name: getattr(args, f"cost_{f.name}")
                                     for f in dataclasses.fields(CostModel)})
        except ValueError as e:
            parser.error(str(e))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_cli(argv)
    try:
        print(args.run(args))
    except (ValueError, OSError, ProtocolError, codec_mod.CodecError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
