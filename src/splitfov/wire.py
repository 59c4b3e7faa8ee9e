"""Binary framing for the client/server TCP session.

Every message is one frame: a u32 length (bytes after the length field),
a u8 message type, then the body. All integers are little-endian and all
floats are IEEE-754 little-endian, single precision (f32) unless marked f64:

    Hello    (1): u16 protocol_version | u16 full_w | u16 full_h |
                  u16 fov_w | u16 fov_h | f32 periph_scale | u8 codec |
                  u8 scene_id |
                  f64 ipd | f64 horizontal_fov | f64 near (the camera rig)
    Pose     (2): u64 frame_id | 3x f32 position | 4x f32 orientation (x,y,z,w)
    Subframe (3): u64 frame_id | u8 band | u32 crc32 of the payload |
                  payload (the rest of the frame)
    End      (4): u64 frame_id (last completed)

The hello states the session once, and the session runs until the
client's End. The server draws rows [0, k) of both eyes' foveal rects,
where k = partition.server_rows of the hello's geometry: the fewest top
rows holding at least half of the rays the frame shades. The client draws
rows [k, fov_h) itself. A frame's subframes are the bands [lo, hi) of
partition.subframe_bands(k), in order: two, or one when k = 1. Band b's
subframe carries rows [lo, hi) of both eyes side by side, one
2 * fov_w x (hi - lo) image in the hello's codec with the left eye's
columns first. Both sides derive k and the bands, so no message carries
them; each derives them from the f32 scale the hello carries, which a
`PartitionSpec` holds. Protocol 6 is the first to
split the fovea by rows; a protocol 5 subframe carried all fov_h rows.
Protocol 7 is the first whose PRED_DEFLATE payload codes most missed
pixels in one symbol byte (see `codec`); a protocol 6 payload carried 3
residual bytes for each. Protocol 8 is the first whose subframes carry a
CRC-32 (`zlib.crc32`) of their payload, which the reader checks before the
payload is decoded, and whose k counts only the rays the frame shades
(a protocol 7 peer also counted the periphery's holes). Protocol 9 is the
first whose subframes are row bands of both eyes side by side, so that
DEFLATE codes each row of one eye within reach of the other eye's, nearly
equal, row; a protocol 8 subframe carried all k rows of one eye.
Protocol 10 is the first whose PRED_DEFLATE body stores only the nonzero
bytes of its bitmap, after an index of which bytes those are; a protocol 9
body carried the whole bitmap.

Serialization is deterministic and the reader tolerates arbitrary TCP
segmentation; a clean EOF on a frame boundary reads as end-of-session.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Protocol, Union

PROTOCOL_VERSION = 10

MSG_HELLO = 1
MSG_POSE = 2
MSG_SUBFRAME = 3
MSG_END = 4

# Largest frame (bytes after the length field) either side writes or reads.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024
# Largest frame or fovea dimension the hello carries (u16).
MAX_DIM = 2**16 - 1
# Seconds a socket read or write may block before the session ends in a
# TimeoutError: a silent peer cannot hang either side.
IO_TIMEOUT_S = 20.0

_HELLO_FMT = struct.Struct("<HHHHHfBBddd")
_POSE_FMT = struct.Struct("<Qfffffff")
_SUBFRAME_FMT = struct.Struct("<QBI")
_END_FMT = struct.Struct("<Q")
_LEN_FMT = struct.Struct("<I")
# Bytes of a subframe's frame before its payload: type, frame id, band and CRC.
SUBFRAME_HEADER = 1 + _SUBFRAME_FMT.size


class ProtocolError(RuntimeError):
    """The byte stream violates the framing or message contract."""


class ConnectionClosedError(ProtocolError):
    """The stream ended in the middle of a frame."""


class ByteStream(Protocol):
    def read(self, n: int) -> bytes:  # may return fewer than n bytes; b"" at EOF
        ...


@dataclass(frozen=True)
class HelloMsg:
    protocol_version: int
    full_w: int
    full_h: int
    fov_w: int
    fov_h: int
    periph_scale: float
    codec: int
    scene_id: int
    ipd: float
    horizontal_fov: float
    near: float


@dataclass(frozen=True)
class PoseUpdateMsg:
    frame_id: int
    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]


@dataclass(frozen=True)
class SubframeMsg:
    """One band of the server's rows of a frame: `band` indexes
    `partition.subframe_bands(k)`, and `payload` is that band's rows of
    both eyes side by side, left eye first, in the session's codec."""

    frame_id: int
    band: int
    payload: bytes


@dataclass(frozen=True)
class EndMsg:
    frame_id: int


Message = Union[HelloMsg, PoseUpdateMsg, SubframeMsg, EndMsg]


def write_msg(msg: Message) -> bytes:
    """Serializes one message to its full frame (length prefix included);
    a frame longer than DEFAULT_MAX_FRAME raises ProtocolError."""
    if isinstance(msg, HelloMsg):
        body = _HELLO_FMT.pack(
            msg.protocol_version,
            msg.full_w,
            msg.full_h,
            msg.fov_w,
            msg.fov_h,
            msg.periph_scale,
            msg.codec,
            msg.scene_id,
            msg.ipd,
            msg.horizontal_fov,
            msg.near,
        )
        msg_type = MSG_HELLO
    elif isinstance(msg, PoseUpdateMsg):
        body = _POSE_FMT.pack(msg.frame_id, *msg.position, *msg.orientation)
        msg_type = MSG_POSE
    elif isinstance(msg, SubframeMsg):
        body = _SUBFRAME_FMT.pack(msg.frame_id, msg.band, zlib.crc32(msg.payload)) + msg.payload
        msg_type = MSG_SUBFRAME
    elif isinstance(msg, EndMsg):
        body = _END_FMT.pack(msg.frame_id)
        msg_type = MSG_END
    else:
        raise TypeError(f"not a wire message: {type(msg).__name__}")
    length = len(body) + 1
    if length > DEFAULT_MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds limit {DEFAULT_MAX_FRAME}")
    return _LEN_FMT.pack(length) + bytes([msg_type]) + body


def _read_exact(stream: ByteStream, n: int, at_boundary: bool) -> Optional[bytes]:
    """Reads exactly n bytes; None on clean EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if at_boundary and got == 0:
                return None
            raise ConnectionClosedError(f"stream closed after {got} of {n} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _unpack_body(msg_type: int, body: bytes) -> Message:
    try:
        if msg_type == MSG_HELLO:
            return HelloMsg(*_HELLO_FMT.unpack(body))
        if msg_type == MSG_POSE:
            fields = _POSE_FMT.unpack(body)
            return PoseUpdateMsg(fields[0], fields[1:4], fields[4:8])
        if msg_type == MSG_SUBFRAME:
            frame_id, band, crc = _SUBFRAME_FMT.unpack_from(body)
            payload = body[_SUBFRAME_FMT.size :]
            if zlib.crc32(payload) != crc:
                raise ProtocolError(f"subframe {frame_id} band {band}: payload fails its CRC-32")
            return SubframeMsg(frame_id, band, payload)
        if msg_type == MSG_END:
            return EndMsg(*_END_FMT.unpack(body))
    except struct.error as e:
        raise ProtocolError(f"malformed body for message type {msg_type}: {e}") from None
    raise ProtocolError(f"unknown message type {msg_type:#04x}")


def read_msg(stream: ByteStream) -> Optional[Message]:
    """Reads one message, blocking until a full frame is available.

    Returns None on a clean EOF at a frame boundary (end of session).
    Handles arbitrary segmentation of the underlying byte stream. A
    subframe whose payload fails its CRC-32 raises ProtocolError, so no
    corrupt payload reaches a decoder.
    """
    prefix = _read_exact(stream, _LEN_FMT.size, at_boundary=True)
    if prefix is None:
        return None
    (length,) = _LEN_FMT.unpack(prefix)
    if length < 1:
        raise ProtocolError("frame length must cover the message type byte")
    if length > DEFAULT_MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds limit {DEFAULT_MAX_FRAME}")
    frame = _read_exact(stream, length, at_boundary=False)
    assert frame is not None
    return _unpack_body(frame[0], frame[1:])


def check_hello_version(hello: HelloMsg) -> None:
    """Rejects sessions whose protocol version we do not speak."""
    if hello.protocol_version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol version {hello.protocol_version}, "
            f"this build supports {PROTOCOL_VERSION}"
        )
