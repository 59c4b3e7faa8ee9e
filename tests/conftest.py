import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import pytest

from splitfov import codec
from splitfov.camera import CameraPath, CameraRig
from splitfov.client import DisplaySink, null_sink, run_client
from splitfov.partition import PartitionSpec
from splitfov.render import SceneConfig
from splitfov.server import run_server
from splitfov.sim import SimResult
from splitfov.trace import Trace


@pytest.fixture(scope="session")
def desk_spec() -> PartitionSpec:
    """Small enough to render hundreds of frames in seconds, same 0.6 scale
    and aspect structure as the full-size defaults."""
    return PartitionSpec.from_full(600, 270, 128, 90, 0.6)


@pytest.fixture(scope="session")
def tiny_spec() -> PartitionSpec:
    return PartitionSpec.from_full(160, 80, 32, 24, 0.5)


@pytest.fixture(scope="session")
def split_spec() -> PartitionSpec:
    """Each fovea is as wide and tall as its eye, so it hides the whole
    periphery, which is then not shaded. The server draws 40 of the 80
    foveal rows (`server_rows`), so the client draws the other 40 itself;
    every other fixture gives the server all rows."""
    return PartitionSpec(160, 80, 80, 80, 0.25)


@pytest.fixture
def decoded_dims(monkeypatch) -> list[tuple[int, int]]:
    """The (w, h) of every subframe decoded while the test runs, in order."""
    dims = []

    def recorded(codec_id, data, w, h, _inner=codec.decode):
        dims.append((w, h))
        return _inner(codec_id, data, w, h)

    monkeypatch.setattr(codec, "decode", recorded)
    return dims


@pytest.fixture(scope="session")
def scene() -> SceneConfig:
    return SceneConfig()


@pytest.fixture(scope="session")
def rig() -> CameraRig:
    return CameraRig()


def short_path(n: int) -> CameraPath:
    return CameraPath(frame_count=n)


def start_server(**kwargs):
    """run_server on an ephemeral port; returns (future, port)."""
    port_ready = threading.Event()
    bound = {}

    def ready(port):
        bound["port"] = port
        port_ready.set()

    pool = ThreadPoolExecutor(max_workers=1)
    future = pool.submit(run_server, "127.0.0.1", 0, ready=ready, **kwargs)
    assert port_ready.wait(timeout=10.0)
    pool.shutdown(wait=False)
    return future, bound["port"]


def loopback_session(spec: PartitionSpec, codec_id: codec.CodecId, scene: SceneConfig,
                     rig: CameraRig, path: CameraPath, display: DisplaySink = null_sink,
                     trace: Optional[Trace] = None) -> SimResult:
    """A split session on the machine clock over loopback TCP, the path of
    `splitfov server` and `splitfov client`: run_server in a thread and
    run_client in this one, both tracing into one trace (a fresh one by
    default), as the benchmark's sessions do."""
    trace = Trace() if trace is None else trace
    future, port = start_server(rig=rig, trace=trace)
    client_records = run_client("127.0.0.1", port, spec, codec_id, scene, rig, path,
                                display=display, trace=trace)
    return SimResult(client_records, future.result(timeout=30.0), trace)
