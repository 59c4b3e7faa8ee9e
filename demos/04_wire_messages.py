"""
The wire format, byte by byte
=============================

Every message is a little-endian length prefix, a one-byte type tag, and a
fixed-layout body. This script dumps real frames in hex and shows that the
reader reassembles messages no matter how the stream is segmented.
"""

import io

import numpy as np

from splitfov import (
    EndMsg, HelloMsg, PoseUpdateMsg, SubframeMsg, read_msg, write_msg,
)
from splitfov.wire import PROTOCOL_VERSION

#%%
# A pose update: frame id, position, orientation quaternion, all float32.
pose = PoseUpdateMsg(2, (0.0, 1.5, 0.0), (0.0, 0.0, 0.0, 1.0))
frame = write_msg(pose)
print(f"pose update, {len(frame)} bytes on the wire:")
print("  " + frame.hex())
print("  length prefix:", int.from_bytes(frame[:4], "little"), "| type:", frame[4])

#%%
# A foveal subframe: frame id and band, then the encoded payload. Its rows
# and codec are fixed by the hello, so the subframe does not repeat them.
sub = SubframeMsg(2, band=0, payload=b"ABC")
frame = write_msg(sub)
print(f"\nsubframe, {len(frame)} bytes ({len(frame) - len(sub.payload)} header + payload):")
print("  " + frame.hex())

#%%
# The hello opens a session: the partition, codec and scene, then the
# camera rig as float64, which the server must draw with exactly. It
# carries no frame count: the session lasts until the client's End.
# The scale field travels as float32, so use a float32-exact value when
# comparing whole messages.
scale = float(np.float32(0.6))
hello = HelloMsg(PROTOCOL_VERSION, 600, 270, 128, 90, scale, codec=1, scene_id=1,
                 ipd=0.064, horizontal_fov=90.0, near=0.1)
print(f"\nhello, {len(write_msg(hello))} bytes on the wire")

#%%
# Round trip through an in-memory stream.
buf = io.BytesIO()
msgs = [
    hello,
    pose,
    sub,
    EndMsg(3),
]
for m in msgs:
    buf.write(write_msg(m))
buf.seek(0)
for m in msgs:
    assert read_msg(buf) == m
print("\nround trip of all four message types: ok")
assert read_msg(buf) is None  # clean end of stream

#%%
# TCP can hand bytes back in any segmentation. The reader buffers until a
# whole frame is present, so even one byte per read works.
class OneByteAtATime:
    def __init__(self, data):
        self.data, self.pos = data, 0

    def read(self, n):
        chunk = self.data[self.pos : self.pos + 1]
        self.pos += len(chunk)
        return chunk

stream = OneByteAtATime(b"".join(write_msg(m) for m in msgs))
recovered = [read_msg(stream) for _ in msgs]
assert recovered == msgs
print("one byte per read: same messages back")
