import io
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitfov import wire
from splitfov.wire import (
    DEFAULT_MAX_FRAME,
    SUBFRAME_HEADER,
    ConnectionClosedError,
    EndMsg,
    HelloMsg,
    PoseUpdateMsg,
    ProtocolError,
    SubframeMsg,
    check_hello_version,
    read_msg,
    write_msg,
    PROTOCOL_VERSION,
)


class OneByteStream:
    """Delivers data one byte per read call (worst-case segmentation)."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos >= len(self.data):
            return b""
        out = self.data[self.pos : self.pos + 1]
        self.pos += 1
        return out


def f32(x: float) -> float:
    return float(np.float32(x))


finite_f32 = st.floats(min_value=f32(-1e30), max_value=f32(1e30),
                       allow_nan=False, width=32).map(f32)
u16 = st.integers(0, 2**16 - 1)
u8 = st.integers(0, 255)
u64 = st.integers(0, 2**64 - 1)
f64 = st.floats(allow_nan=False)

hello_msgs = st.builds(
    HelloMsg, protocol_version=u16, full_w=u16, full_h=u16, fov_w=u16,
    fov_h=u16, periph_scale=finite_f32, codec=u8, scene_id=u8,
    ipd=f64, horizontal_fov=f64, near=f64,
)
pose_msgs = st.builds(
    PoseUpdateMsg, frame_id=u64,
    position=st.tuples(finite_f32, finite_f32, finite_f32),
    orientation=st.tuples(finite_f32, finite_f32, finite_f32, finite_f32),
)
subframe_msgs = st.builds(
    SubframeMsg, frame_id=u64, band=u8, payload=st.binary(max_size=300),
)
end_msgs = st.builds(EndMsg, frame_id=u64)
any_msg = st.one_of(hello_msgs, pose_msgs, subframe_msgs, end_msgs)


class TestPinnedLayout:
    """Byte layouts frozen against independently hand-packed frames."""

    def test_pose_frame_bytes(self):
        frame = write_msg(PoseUpdateMsg(3, (1.0, 2.0, -0.5), (0.0, 0.0, 0.0, 1.0)))
        assert frame.hex() == (
            "250000000203000000000000000000803f00000040000000bf"
            "0000000000000000000000000000803f"
        )
        assert len(frame) == 41

    def test_subframe_frame_bytes(self):
        # 0xa3830348 is the CRC-32 of b"ABC"
        frame = write_msg(SubframeMsg(7, 1, b"ABC"))
        assert frame.hex() == "1100000003070000000000000001480383a3414243"
        assert len(frame) == 18 + 3

    def test_end_frame_bytes(self):
        frame = write_msg(EndMsg(41))
        assert frame.hex() == "09000000042900000000000000"
        assert len(frame) == 13

    def test_fixed_sizes(self):
        hello = HelloMsg(PROTOCOL_VERSION, 2400, 1080, 512, 360, 0.6, 1, 1, 0.064, 90.0, 0.1)
        assert len(write_msg(hello)) == 45
        assert len(write_msg(SubframeMsg(0, 0, b""))) == 18

    def test_little_endian_length_prefix(self):
        frame = write_msg(EndMsg(0))
        assert struct.unpack("<I", frame[:4])[0] == len(frame) - 4


class TestRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(any_msg)
    def test_any_message(self, msg):
        out = read_msg(io.BytesIO(write_msg(msg)))
        assert out == msg

    @settings(max_examples=100, deadline=None)
    @given(pose_msgs)
    def test_pose_floats_bit_exact(self, msg):
        out = read_msg(io.BytesIO(write_msg(msg)))
        for a, b in zip(msg.position + msg.orientation, out.position + out.orientation):
            assert np.float32(a).tobytes() == np.float32(b).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(any_msg, min_size=1, max_size=6))
    def test_back_to_back_messages(self, msgs):
        stream = io.BytesIO(b"".join(write_msg(m) for m in msgs))
        for m in msgs:
            assert read_msg(stream) == m
        assert read_msg(stream) is None


class TestSegmentation:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(any_msg, min_size=1, max_size=3))
    def test_one_byte_at_a_time(self, msgs):
        stream = OneByteStream(b"".join(write_msg(m) for m in msgs))
        for m in msgs:
            assert read_msg(stream) == m
        assert read_msg(stream) is None


class TestStreamEnd:
    def test_clean_eof_is_none(self):
        assert read_msg(io.BytesIO(b"")) is None

    def test_eof_inside_length_prefix(self):
        with pytest.raises(ConnectionClosedError):
            read_msg(io.BytesIO(b"\x05\x00"))

    def test_eof_inside_body(self):
        frame = write_msg(EndMsg(9))
        with pytest.raises(ConnectionClosedError):
            read_msg(io.BytesIO(frame[:-2]))


class TestRejection:
    def test_unknown_type(self):
        frame = struct.pack("<I", 2) + b"\x09\x00"
        with pytest.raises(ProtocolError):
            read_msg(io.BytesIO(frame))

    def test_zero_length_frame(self):
        with pytest.raises(ProtocolError):
            read_msg(io.BytesIO(struct.pack("<I", 0)))

    def test_oversized_frame(self, monkeypatch):
        frame = struct.pack("<I", DEFAULT_MAX_FRAME + 1) + b"\x04"
        with pytest.raises(ProtocolError):
            read_msg(io.BytesIO(frame))
        small_cap = write_msg(SubframeMsg(0, 0, b"x" * 100))
        monkeypatch.setattr(wire, "DEFAULT_MAX_FRAME", 50)
        with pytest.raises(ProtocolError, match="frame of 114 bytes exceeds limit 50"):
            read_msg(io.BytesIO(small_cap))

    def test_writer_refuses_what_the_reader_would(self, monkeypatch):
        # one cap on both ends: a frame of exactly the cap crosses, one
        # byte more is refused before it is sent
        monkeypatch.setattr(wire, "DEFAULT_MAX_FRAME", 110)
        at_cap = SubframeMsg(0, 0, b"x" * (110 - SUBFRAME_HEADER))
        assert read_msg(io.BytesIO(write_msg(at_cap))) == at_cap
        with pytest.raises(ProtocolError, match="frame of 111 bytes exceeds limit 110"):
            write_msg(SubframeMsg(0, 0, b"x" * (111 - SUBFRAME_HEADER)))

    def test_short_body(self):
        body = b"\x00" * 4
        frame = struct.pack("<I", len(body) + 1) + b"\x02" + body
        with pytest.raises(ProtocolError):
            read_msg(io.BytesIO(frame))

    def test_subframe_shorter_than_its_header(self):
        body = b"\x00" * 8  # a frame id, no eye byte
        frame = struct.pack("<I", len(body) + 1) + b"\x03" + body
        with pytest.raises(ProtocolError, match="malformed"):
            read_msg(io.BytesIO(frame))

    def test_not_a_message(self):
        with pytest.raises(TypeError):
            write_msg("hello")  # type: ignore[arg-type]


class TestHelloVersion:
    def test_current_version_ok(self):
        check_hello_version(HelloMsg(PROTOCOL_VERSION, 1, 1, 1, 1, 1.0, 0, 0, 0.0, 1.0, 1.0))

    def test_version_4_rejected(self):
        # A v4 peer deflates the whole residual stream; it would misread
        # every PRED_DEFLATE payload of this build.
        with pytest.raises(ProtocolError, match="version 4"):
            check_hello_version(HelloMsg(4, 1, 1, 1, 1, 1.0, 0, 0, 0.0, 1.0, 1.0))

    def test_other_version_rejected(self):
        with pytest.raises(ProtocolError):
            check_hello_version(HelloMsg(PROTOCOL_VERSION + 1, 1, 1, 1, 1, 1.0, 0, 0, 0.0, 1.0, 1.0))


class TestProtocolDocs:
    """README's wire table states the version this build speaks, and the
    protocol histories in README and in `wire`'s docstring both reach it,
    so a protocol change cannot leave either behind."""

    README = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())

    def test_readme_wire_table_states_the_version(self):
        assert re.findall(r"u16 protocol version \((\d+)\)", self.README) == [str(PROTOCOL_VERSION)]

    @pytest.mark.parametrize("where", ["README", "wire"])
    def test_history_names_the_version(self, where):
        text = self.README if where == "README" else " ".join(wire.__doc__.split())
        assert f"Protocol {PROTOCOL_VERSION} is the first" in text
        assert f"Protocol {PROTOCOL_VERSION + 1} " not in text
