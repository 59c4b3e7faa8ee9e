"""
A frame's life on the virtual clock
===================================

The simulator pushes real pixels through the real pipeline but stamps
every stage with an analytic clock, so a full latency budget is exact and
reproducible down to the microsecond. Here we walk one frame with
hand-picked stage costs and read its schedule back out of the trace.
"""

from splitfov import (
    CameraPath, CameraRig, CodecId, CostModel, NetModel, PartitionSpec,
    SceneConfig, check_lockstep, render_profile, run_sim_virtual, server_dims,
)

spec = PartitionSpec.from_full(600, 270, 128, 90, 0.6)
scene, rig = SceneConfig(), CameraRig()

#%%
# Stage costs chosen to be easy to add up in your head, and a link with
# 2 ms one-way latency and no bandwidth cap. Sending the pose and showing
# the frame take no modeled time.
cost = CostModel(server_draw=5, encode=3, client_draw=6, decode=4, merge=1)
net = NetModel(latency_ms=2.0, bandwidth_mbps=float("inf"))
res = run_sim_virtual(spec, CodecId.PRED_DEFLATE, scene, rig,
                      CameraPath(frame_count=12), net=net, cost=cost)

#%%
# Read frame 0 out of the trace, relative to the moment the client sent
# its pose. The pose crosses the link (2), the server draws (5) and
# encodes (3), the subframes cross back (2); meanwhile the client spent
# 6 ms on its own peripheral draw, then decodes (4) and merges (1).
t0 = res.trace.find("client", "send", "pose", 0).t_ms
for actor, kind, name in [
    ("server", "recv", "pose"), ("server", "end", "draw"),
    ("server", "end", "encode"), ("client", "end", "draw"),
    ("client", "recv", "subframe1"), ("client", "end", "decode"),
    ("client", "end", "merge"), ("client", "end", "display"),
]:
    e = res.trace.find(actor, kind, name, 0)
    print(f"  +{e.t_ms - t0:5.2f} ms  {e.actor:<6} {e.name} {e.kind}")

total = res.client_records[0].total_ms
print(f"frame 0 end to end: {total:.2f} ms "
      f"(2 + 5 + 3 + 2 + 4 + 1 = 17, the 6 ms client draw hides under it)")

#%%
# The same machinery checks the lockstep rules mechanically: no server
# draw before its pose, no pose before the previous display, no merge
# before both inputs.
violations = check_lockstep(res.trace, 12)
print("lockstep violations:", violations or "none")

#%%
# Per-frame records aggregate into the usual profile table.
print()
print(render_profile(res.client_records, res.server_records, server_dims(spec)))
