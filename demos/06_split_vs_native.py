"""
Split vs native, same frames, same models
=========================================

The compare mode runs the single-device baseline and the split session
over the identical camera path, then reports both profiles side by side.
With a per-ray cost model and a free link, the split session's advantage
is purely the ray count: the client draws only the reduced periphery.
"""

from splitfov import (
    CameraPath, CodecId, CostModel, PartitionSpec, SceneConfig, ZERO_NET,
    reduced_dims, run_compare,
)

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
# just the periphery.
rw, rh = reduced_dims(spec)
foveal = 2 * spec.fov_w * spec.fov_h
predicted = 100.0 * foveal / (rw * rh)
print(f"\npredicted from ray counts: {predicted:.2f}%")
print(f"measured by the simulator: {report.improvement_pct:.2f}%")

# On real hardware the gap narrows: decode and merge are not free, and
# the link adds its window. The wall-clock mode (see the loopback demo)
# measures that honestly instead of assuming it away.
