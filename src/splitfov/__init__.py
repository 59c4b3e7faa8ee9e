"""splitfov: split rendering with losslessly streamed foveal regions.

A server renders the top rows of the center of each eye's view at full
sampling and streams them losslessly; the client renders the periphery
at reduced resolution and the rest of each center at full sampling,
composites both in lockstep, and profiles every stage of every frame.
A single-process simulator reproduces the whole pipeline on a virtual
clock with a pluggable network model: a session recorded over loopback
TCP, then replayed by lane. Wall-clock timings come from the two runtimes
in separate processes (`run_server`, `run_client`).

Importing the package pins the C allocator's mmap and trim thresholds
for the whole process (see `_alloc`), so freed frame buffers stay in the
heap for the next frame.
"""

from . import _alloc  # noqa: F401  (first: pins the allocator before any frame buffer)
from .camera import (
    CameraPath,
    CameraRig,
    Pose,
    eye_origin,
    look_at_quat,
    normalize_quat,
    pose_at,
    quat_from_matrix,
    quat_to_matrix,
)
from .client import (
    ClientFrameRecord,
    ClientSession,
    CollectSink,
    PpmSink,
    ffr_frame,
    merge,
    null_sink,
    run_client,
    run_native,
    upsample_nearest,
)
from .codec import CodecError, CodecId, decode, encode
from .image import GeometryError, Rect, crop, images_equal, read_ppm, write_ppm
from .metrics import (
    fps_display,
    improvement_pct,
    iqr,
    mbps,
    median,
    read_csv,
    render_profile,
    run_report,
    write_csv,
)
from .partition import (
    DEFAULT_SPEC,
    Eye,
    Holes,
    PartitionError,
    PartitionSpec,
    foveal_rect,
    foveal_rect_stereo,
    periphery_holes,
    reduced_dims,
    server_dims,
    server_rows,
)
from .render import (
    SceneConfig,
    SceneId,
    render_region,
    render_scaled,
)
from .server import ServerFrameTiming, ServerSession, run_server
from .sim import (
    CompareReport,
    CostModel,
    NetModel,
    SimResult,
    ZERO_NET,
    check_lockstep,
    run_compare,
    run_native_virtual,
    run_sim_virtual,
)
from .trace import Event, Trace
from .wire import (
    ConnectionClosedError,
    EndMsg,
    HelloMsg,
    PoseUpdateMsg,
    ProtocolError,
    SubframeMsg,
    read_msg,
    write_msg,
)

__version__ = "0.1.0"

__all__ = [
    "CameraPath", "CameraRig", "Pose", "eye_origin", "look_at_quat",
    "normalize_quat", "pose_at", "quat_from_matrix", "quat_to_matrix",
    "ClientFrameRecord", "ClientSession", "CollectSink", "PpmSink", "ffr_frame",
    "merge", "null_sink", "run_client", "run_native", "upsample_nearest",
    "CodecError", "CodecId", "decode", "encode",
    "GeometryError", "Rect", "crop", "images_equal", "read_ppm", "write_ppm",
    "fps_display", "improvement_pct", "iqr", "mbps", "median",
    "read_csv", "render_profile", "run_report", "write_csv",
    "DEFAULT_SPEC", "Eye", "Holes", "PartitionError", "PartitionSpec", "foveal_rect",
    "foveal_rect_stereo", "periphery_holes", "reduced_dims", "server_dims", "server_rows",
    "SceneConfig", "SceneId", "render_region", "render_scaled",
    "ServerFrameTiming", "ServerSession", "run_server",
    "CompareReport", "CostModel", "NetModel", "SimResult", "ZERO_NET",
    "check_lockstep", "run_compare", "run_native_virtual", "run_sim_virtual",
    "Event", "Trace",
    "ConnectionClosedError", "EndMsg", "HelloMsg", "PoseUpdateMsg",
    "ProtocolError", "SubframeMsg", "read_msg", "write_msg",
]
