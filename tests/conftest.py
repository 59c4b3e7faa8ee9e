import pytest

from splitfov import codec
from splitfov.camera import CameraPath, CameraRig
from splitfov.partition import PartitionSpec
from splitfov.render import SceneConfig


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
