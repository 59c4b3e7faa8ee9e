"""Freed frame buffers stay in the heap: a frame loop takes no page faults
once warm, on the server's part of a frame and on a native frame. The
client's draw holds one full frame at a time: the upsample writes into its
output through a small band buffer, and the client's foveal rows are drawn
before the frame is allocated. The server's draw takes the floor's checker
parity and gathers its palette a band of rows at a time, so no grid or
index copy the size of an eye's rows sets its peak."""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from splitfov import _alloc, client
from splitfov.camera import CameraPath, CameraRig, pose_at
from splitfov.partition import PartitionSpec, server_rows
from splitfov.render import SceneConfig
from splitfov.server import draw_foveae

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter, so the allocator's history is this loop's
# alone. It prints the minor faults per timed frame of the server's part
# and of a native frame, at the fovea_tcp geometry. The server's part is
# `ServerSession.serve_frame` itself, after a PRED_DEFLATE hello, writing
# to nowhere: its RGBX rows of both foveae side by side, the encode of each
# band and the framing of each subframe. The timed frames replay the warm-up poses: a
# frame whose buffers the heap has held before must not fault, while a new
# pose may still raise the heap's high-water mark once.
CHILD = """
import io
import resource
from splitfov import CameraPath, CameraRig, CodecId, PartitionSpec, SceneConfig
from splitfov import ffr_frame, pose_at
from splitfov.server import ServerSession
from splitfov.wire import PROTOCOL_VERSION, HelloMsg, write_msg

POSES = range(4)
spec = PartitionSpec(2400, 1080, 768, 540, 0.3)
scene, rig, path = SceneConfig(), CameraRig(), CameraPath()
hello = HelloMsg(PROTOCOL_VERSION, spec.full_w, spec.full_h, spec.fov_w, spec.fov_h,
                 spec.periph_scale, int(CodecId.PRED_DEFLATE), int(scene.scene_id),
                 rig.ipd, rig.horizontal_fov, rig.near)
session = ServerSession(io.BytesIO(write_msg(hello)), lambda data: None, rig)
session.handshake()

def server_part(n):
    session.serve_frame(pose_at(path, n), n)

def native(n):
    ffr_frame(scene, rig, pose_at(path, n), spec)

for part in (server_part, native):
    for n in POSES:
        part(n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for n in POSES:
        part(n)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(POSES))
"""

# Under glibc's sliding thresholds a warm frame took about 2,200 (server
# part) and 4,200 (native) faults; with the thresholds pinned, 0.
MAX_FAULTS_PER_FRAME = 64


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_warm_frames_take_no_page_faults():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    server_part, native = (float(v) for v in proc.stdout.split())
    assert server_part < MAX_FAULTS_PER_FRAME
    assert native < MAX_FAULTS_PER_FRAME


class FakeMallopt:
    """Records its calls; takes `argtypes` and `restype` like a ctypes function."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class FakeLibc:
    def __init__(self):
        self.mallopt = FakeMallopt()


class TestPin:
    def test_sets_each_threshold_once(self):
        libc = FakeLibc()
        _alloc.pin(libc)
        # M_MMAP_THRESHOLD (-3) at 32 MiB, M_TRIM_THRESHOLD (-1) at 1 GiB
        assert sorted(libc.mallopt.calls) == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_a_libc_without_mallopt_is_left_alone(self):
        _alloc.pin(object())
        _alloc.pin(None)


class TestClientWorkingSet:
    def test_upsample_peaks_at_its_output_plus_one_mb(self):
        """A periphery with no two equal rows, at the default geometry:
        648 distinct rows, each gathered into a band before its output
        rows, and no buffer of all of them."""
        reduced = np.random.default_rng(31).integers(0, 256, size=(648, 1440, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            out = client.upsample_nearest(reduced, (2400, 1080))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 2400 * 1080 * 3
        assert peak <= out.nbytes + (1 << 20)

    def test_own_foveal_rows_are_drawn_before_the_upsample(self, monkeypatch):
        """At k < fov_h the client's foveal rows are shaded, and their
        grids freed, before the periphery is upsampled into the frame."""
        spec = PartitionSpec(160, 80, 80, 80, 0.25)
        k = server_rows(spec)
        assert k < spec.fov_h
        calls = []

        def stand_in(name, inner):
            def called(*args, **kwargs):
                calls.append(f"{name} begins")
                out = inner(*args, **kwargs)
                calls.append(f"{name} returns")
                return out
            return called

        monkeypatch.setattr(client, "draw_foveae", stand_in("draw_foveae", client.draw_foveae))
        monkeypatch.setattr(client, "upsample_nearest", stand_in("upsample_nearest", client.upsample_nearest))
        client.draw_client_part(SceneConfig(), CameraRig(), pose_at(CameraPath(), 2), spec, k)
        assert calls == ["draw_foveae begins", "draw_foveae returns",
                         "upsample_nearest begins", "upsample_nearest returns"]


class TestServerWorkingSet:
    def test_server_draw_peaks_under_seven_mb(self):
        """The server's RGBX rows of both eyes at the fovea_tcp geometry
        (k = 322 of 540 rows) over orbit poses, drawn as `serve_frame`
        draws them: side by side into one (k, 2 * fov_w, 4) array (2.0 MB),
        allocated before either eye is shaded. The peak holds that array,
        the ray directions the eyes share (3.0 MB at all 322 rows) and the
        second eye's shading grids. A palette gather over all of an eye's
        rows at once copied its uint8 indices to 8-byte intp (2.0 MB), and
        peaked at 8.06 MB with per-eye arrays; a checker parity over all of
        them took two 1.0 MB float32 grids, and peaked at 7.84 MB with the
        side-by-side array."""
        spec = PartitionSpec(2400, 1080, 768, 540, 0.3)
        scene, rig, path = SceneConfig(), CameraRig(), CameraPath(frame_count=8)
        k = server_rows(spec)
        peaks = []
        for n in range(8):
            tracemalloc.start()
            try:
                rows = np.empty((k, 2 * spec.fov_w, 4), dtype=np.uint8)
                draw_foveae(scene, rig, pose_at(path, n), spec, (0, k), rgbx=True, out=rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 7.0e6
