"""Command-line front end.

Subcommands mirror the run modes: server, client, native, sim, compare,
report. Geometry flags default to the stereo 2400x1080 frame with a
512x360 per-eye fovea at peripheral scale 0.6 over 1000 frames.
SPLITFOV_HOST / SPLITFOV_PORT override the endpoint defaults; explicit
flags win over the environment.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from . import codec as codec_mod
from .camera import PathId
from .harness import DEFAULT_HOST, DEFAULT_PORT, RunConfig, run
from .partition import DEFAULT_SPEC, PartitionSpec, validate
from .render import SceneConfig, SceneId
from .sim import CostModel, NetModel
from .wire import MAX_FRAMES

_CODECS = {"raw": codec_mod.CodecId.RAW, "pred-deflate": codec_mod.CodecId.PRED_DEFLATE}
_SCENES = {"empty": SceneId.EMPTY, "spheres": SceneId.SPHERES}
_PATHS = {"orbit": PathId.ORBIT}


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


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=_dims, default=(DEFAULT_SPEC.full_w, DEFAULT_SPEC.full_h),
                   metavar="WxH", help="stereo frame size (default %(default)s)")
    p.add_argument("--fovea", type=_dims, default=(DEFAULT_SPEC.fov_w, DEFAULT_SPEC.fov_h),
                   metavar="WxH", help="per-eye foveal region size (default %(default)s)")
    p.add_argument("--scale", type=float, default=DEFAULT_SPEC.periph_scale,
                   help="peripheral resolution scale in (0, 1] (default %(default)s)")
    p.add_argument("--frames", type=int, default=1000,
                   help="frames to run (default %(default)s)")
    p.add_argument("--codec", choices=sorted(_CODECS), default="pred-deflate")
    p.add_argument("--scene", choices=sorted(_SCENES), default="spheres")
    p.add_argument("--path", choices=sorted(_PATHS), default="orbit",
                   help="camera trajectory")


def _add_outputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--client-csv", metavar="PATH", help="write per-frame client timings")
    p.add_argument("--server-csv", metavar="PATH", help="write per-frame server timings")
    p.add_argument("--summary", dest="summary_path", metavar="PATH",
                   help="write key=value summary")
    p.add_argument("--ppm-dir", metavar="DIR", help="dump displayed frames as PPM here")
    p.add_argument("--ppm-every", type=int, default=1, metavar="K",
                   help="dump every K-th frame (default %(default)s)")


def _add_endpoint(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default=os.environ.get("SPLITFOV_HOST", DEFAULT_HOST))
    p.add_argument("--port", type=int,
                   default=int(os.environ.get("SPLITFOV_PORT", DEFAULT_PORT)))


_STAGES = ("pose", "server_draw", "encode", "client_draw", "decode", "merge", "display")


def _add_net(p: argparse.ArgumentParser, cost: CostModel) -> None:
    p.add_argument("--clock", choices=("virtual", "wall"), default="virtual",
                   help="virtual: modeled stage costs, bit-reproducible; "
                        "wall: real concurrent runtimes, honest timings")
    p.add_argument("--latency", type=float, default=2.0, metavar="MS",
                   help="one-way link latency (default %(default)s)")
    p.add_argument("--bandwidth", type=_bandwidth, default=500.0, metavar="MBPS",
                   help="link rate, or 'inf' (default %(default)s)")
    p.add_argument("--us-per-ray", type=float, default=cost.us_per_ray,
                   help="virtual clock: draw cost per ray shaded, added to each"
                        " draw's fixed cost (default %(default)s)")
    for stage in _STAGES:
        p.add_argument(f"--cost-{stage.replace('_', '-')}", type=float,
                       default=getattr(cost, stage), metavar="MS",
                       help=f"virtual clock: fixed {stage.replace('_', ' ')} cost"
                            f" (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitfov",
        description="Split rendering: stream lossless foveae from a server over "
                    "a reduced-rate locally drawn periphery, and profile it.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("server", help="serve foveal subframes to one client")
    _add_endpoint(p)
    p.add_argument("--server-csv", metavar="PATH", help="write per-frame server timings")

    p = sub.add_parser("client", help="run the split client against a server")
    _add_endpoint(p)
    _add_geometry(p)
    _add_outputs(p)

    p = sub.add_parser("native", help="single-device baseline, same sampling")
    _add_geometry(p)
    _add_outputs(p)
    p.add_argument("--clock", choices=("virtual", "wall"), default="wall")

    p = sub.add_parser("sim", help="both ends in one process over a modeled link")
    _add_geometry(p)
    _add_outputs(p)
    _add_net(p, CostModel())

    p = sub.add_parser("compare", help="native vs split over identical frames")
    _add_geometry(p)
    _add_outputs(p)
    # Draw time proportional to rays shaded and nothing else: the native
    # and split arms then differ by their ray counts alone.
    _add_net(p, CostModel(server_draw=0.0, encode=0.0, client_draw=0.0, decode=0.0,
                          merge=0.0, us_per_ray=1.0))
    p.add_argument("--native-csv", metavar="PATH", help="write native-arm timings")

    p = sub.add_parser("report", help="summarize per-frame CSVs")
    p.add_argument("inputs", nargs="+", metavar="CSV")

    return parser


def parse_cli(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parses argv into a validated RunConfig; exits with a usage error
    (listing every geometry violation) on bad input."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.mode == "report":
        return RunConfig(mode="report", inputs=tuple(args.inputs))

    kwargs: dict = {"mode": args.mode}
    if args.mode == "server":
        kwargs.update(host=args.host, port=args.port, server_csv=args.server_csv)
        return RunConfig(**kwargs)

    spec = PartitionSpec.from_full(
        args.size[0], args.size[1], args.fovea[0], args.fovea[1], args.scale
    )
    violations = validate(spec)
    if not 1 <= args.frames <= MAX_FRAMES:
        violations.append(f"frames must be in [1, {MAX_FRAMES}], got {args.frames}")
    if violations:
        parser.error("; ".join(violations))

    kwargs.update(
        spec=spec,
        codec=_CODECS[args.codec],
        scene=SceneConfig(scene_id=_SCENES[args.scene]),
        path_id=_PATHS[args.path],
        frame_count=args.frames,
        client_csv=args.client_csv,
        server_csv=getattr(args, "server_csv", None),
        summary_path=args.summary_path,
        ppm_dir=args.ppm_dir,
        ppm_every=args.ppm_every,
    )
    if args.mode == "client":
        kwargs.update(host=args.host, port=args.port)
    if args.mode == "native":
        kwargs.update(clock=args.clock)
    if args.mode in ("sim", "compare"):
        kwargs.update(
            clock=args.clock,
            net=NetModel(latency_ms=args.latency, bandwidth_mbps=args.bandwidth),
            cost=CostModel(us_per_ray=args.us_per_ray,
                           **{stage: getattr(args, f"cost_{stage}") for stage in _STAGES}),
        )
        if args.mode == "compare":
            kwargs.update(native_csv=args.native_csv)
    return RunConfig(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = parse_cli(argv)
    if config.mode == "server":
        ready = lambda port: print(f"listening on {config.host}:{port}", flush=True)
    else:
        ready = None
    try:
        print(run(config, ready=ready))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
