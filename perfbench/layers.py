"""Standalone layer table at the default geometry, and machine facts.

Each layer call is timed alone, in this process, with nothing else running in
the benchmark, so the figures compare with the single-call measurements that
ROADMAP.md lists under "Recent" (minimum of 5 runs on a 2-CPU machine with
numpy 2.4.6).
"""

from __future__ import annotations

import os
import platform
import statistics
import time
import zlib

import numpy as np

from splitfov.camera import CameraPath, CameraRig, pose_at
from splitfov.client import ffr_frame, merge, upsample_nearest
from splitfov.codec import CodecId, decode, encode
from splitfov.partition import DEFAULT_SPEC, Eye, foveal_rect
from splitfov.render import SceneConfig, render_region, render_scaled

SOLO_REPS = 5

# Per-layer metric name -> the ROADMAP reference range in ms (low, high).
ROADMAP_MS = {
    "solo.render.periph_ms": (163.0, 163.0),
    "solo.render.fovea_ms": (25.0, 25.0),
    "solo.client.upsample_ms": (53.0, 66.0),
    "solo.codec.encode_ms": (18.0, 18.0),
    "solo.codec.decode_ms": (1.6, 1.6),
    "solo.client.merge_ms": (0.9, 0.9),
    "solo.native_frame_ms": (362.0, 362.0),
}
# A minimum within this share of the reference range counts as reproduced.
REPRODUCE_TOLERANCE = 0.2


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        "cpu": cpu,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def _time_ms(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return (time.perf_counter() - t0) * 1000.0, out


def solo_table() -> dict[str, list[float]]:
    """Times each layer call alone at DEFAULT_SPEC; per-eye calls give one
    sample per eye. Returns every sample in ms, by per-layer metric name."""
    spec, scene, rig = DEFAULT_SPEC, SceneConfig(), CameraRig()
    pose = pose_at(CameraPath(), 0)
    full = (spec.full_w, spec.full_h)
    samples: dict[str, list[float]] = {name: [] for name in ROADMAP_MS}
    for _ in range(SOLO_REPS):
        ms, reduced = _time_ms(render_scaled, scene, rig, pose, full, spec.periph_scale)
        samples["solo.render.periph_ms"].append(ms)
        foveae = {}
        for eye in Eye:
            rect = foveal_rect(spec, eye)
            ms, foveae[eye] = _time_ms(
                render_region, scene, rig, pose, int(eye), (spec.eye_w, spec.eye_h), rect
            )
            samples["solo.render.fovea_ms"].append(ms)
        ms, up = _time_ms(upsample_nearest, reduced, full)
        samples["solo.client.upsample_ms"].append(ms)
        ms, _ = _time_ms(merge, up, foveae, spec)
        samples["solo.client.merge_ms"].append(ms)
        for eye in Eye:
            ms, payload = _time_ms(encode, CodecId.PRED_DEFLATE, foveae[eye])
            samples["solo.codec.encode_ms"].append(ms)
            ms, _ = _time_ms(decode, CodecId.PRED_DEFLATE, payload, spec.fov_w, spec.fov_h)
            samples["solo.codec.decode_ms"].append(ms)
        ms, _ = _time_ms(ffr_frame, scene, rig, pose, spec)
        samples["solo.native_frame_ms"].append(ms)
    return samples


def reproduces(name: str, minimum_ms: float) -> bool:
    low, high = ROADMAP_MS[name]
    return low * (1 - REPRODUCE_TOLERANCE) <= minimum_ms <= high * (1 + REPRODUCE_TOLERANCE)


def solo_lines(samples: dict[str, list[float]]) -> list[str]:
    lines = [f"{'layer (default geometry)':28s} {'min ms':>9s} {'median ms':>10s} {'ROADMAP ms':>11s}  reproduces"]
    for name, values in samples.items():
        low, high = ROADMAP_MS[name]
        ref = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        lines.append(
            f"{name:28s} {min(values):9.2f} {statistics.median(values):10.2f} {ref:>11s}  "
            f"{'yes' if reproduces(name, min(values)) else 'no'}"
        )
    return lines
