"""
A real client/server session over loopback
==========================================

Everything before this ran in one thread or on a virtual clock. This demo
starts the actual TCP server, connects the actual client, and streams a
short session through real sockets, then prints the measured profile.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from splitfov import (
    CameraPath, CameraRig, CodecId, CollectSink, PartitionSpec, SceneConfig,
    ffr_frame, pose_at, render_profile, run_client, run_server, server_dims,
)

spec = PartitionSpec.from_full(600, 270, 128, 90, 0.6)
scene, rig = SceneConfig(), CameraRig()
path = CameraPath(frame_count=16)

# The server binds an ephemeral port and reports it through the ready
# callback; the client connects once that fires.
port_box = {}
ready = threading.Event()

def on_ready(port):
    port_box["port"] = port
    ready.set()

with ThreadPoolExecutor(1) as pool:
    server_future = pool.submit(
        run_server, "127.0.0.1", 0, rig=rig, ready=on_ready,
    )
    assert ready.wait(5.0)
    sink = CollectSink()
    client_records = run_client(
        "127.0.0.1", port_box["port"], spec, CodecId.PRED_DEFLATE,
        scene, rig, path, display=sink,
    )
    server_records = server_future.result(timeout=10.0)

print(f"streamed {len(client_records)} frames over 127.0.0.1:{port_box['port']}")
print()
print(render_profile(client_records, server_records, server_dims(spec)))

# The session is lossless end to end: each displayed frame matches a
# local composition of the same pose, byte for byte.
for i in (0, 7, 15):
    local = ffr_frame(scene, rig, pose_at(path, i), spec)
    assert sink.frames[i].tobytes() == local.tobytes()
print("\nspot-checked frames 0, 7, 15 against local composition: identical")
