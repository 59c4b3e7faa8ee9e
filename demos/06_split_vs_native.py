"""
Split vs native, same frames, same models
=========================================

The compare mode runs the single-device baseline and the split session
over the identical camera path, then reports both profiles side by side.
With a per-ray cost model and a free link, the split session's advantage
is purely the ray count: the client draws only the reduced periphery.
"""

from splitfov import (
    CameraPath, CodecId, CostModel, PartitionSpec, SceneConfig, ZERO_NET, run_compare,
)
from splitfov.partition import frame_rays

spec = PartitionSpec.from_full(600, 270, 128, 90, 0.6)

# 1 us per ray, nothing else costs anything, and the link is free. This
# isolates the draw workload so the result is pure geometry.
report = run_compare(
    spec, CodecId.PRED_DEFLATE, SceneConfig(), CameraPath(frame_count=24),
    net=ZERO_NET,
    cost=CostModel(server_draw=0, encode=0, client_draw=0, decode=0, merge=0,
                   us_per_ray=1.0),
)
print(report.text)

# The improvement is quoted against the split time (the same convention
# as a frame-rate gain), so it equals removed rays over remaining rays:
# the native draw shades foveae plus reduced periphery, the split client
# just the periphery. Neither shades the periphery's holes, the reduced
# pixels that the foveae hide (`frame_rays` leaves them out).
foveal = 2 * spec.fov_w * spec.fov_h
predicted = 100.0 * foveal / (frame_rays(spec) - foveal)
print(f"\npredicted from ray counts: {predicted:.2f}%")
print(f"measured by the simulator: {report.improvement_pct:.2f}%")

# On real hardware the gap narrows: decode and merge are not free, and
# the link adds its window. A wall-clock comparison measures that instead
# of assuming it away: demo 07 runs a real session over loopback TCP, and
# the CLI runs its two ends as two processes (`splitfov server`, then
# `splitfov client --client-csv`), against `splitfov native --client-csv`
# at the same geometry; `splitfov report` summarizes each CSV.
