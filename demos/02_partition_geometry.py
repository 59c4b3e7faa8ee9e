"""
Partition geometry and the pixel budget
=======================================

Where the foveal rectangles sit, how big the reduced peripheral render is,
and why drawing the periphery at scale 0.6 shades exactly 36% of the rays.
"""

from splitfov import (
    Eye, PartitionError, PartitionSpec, foveal_rect_stereo, periphery_holes, reduced_dims, server_rows,
)

# The headset-scale default: 2400x1080 across both eyes, a 512x360 foveal
# window per eye, periphery at scale 0.6.
spec = PartitionSpec.from_full(2400, 1080, 512, 360, 0.6)
print("full stereo: ", spec.full_w, "x", spec.full_h)
print("per eye:     ", spec.eye_w, "x", spec.eye_h)
print("fovea/eye:   ", spec.fov_w, "x", spec.fov_h)

# Foveal rects are centered per eye, then placed in stereo-frame
# coordinates (the right eye shifts by one eye width).
for eye in (Eye.LEFT, Eye.RIGHT):
    r = foveal_rect_stereo(spec, eye)
    print(f"{eye.name:>5} fovea at x={r.x} y={r.y} ({r.w}x{r.h})")

# The reduced peripheral render rounds each axis separately.
rw, rh = reduced_dims(spec)
print("reduced periphery:", rw, "x", rh)

# Scale 0.6 on both axes means 0.36x the pixels, and at these dimensions
# the product is exact, not approximate.
full_px = spec.full_w * spec.full_h
assert rw * rh == 0.36 * full_px
print(f"pixel budget: {rw * rh} / {full_px} = {rw * rh / full_px:.2f}")

# The client draws the reduced frame, the server draws the two foveae:
# here the periphery alone holds more than half of the rays, so the
# server draws every foveal row. The client skips the periphery's holes,
# the reduced pixels a fovea covers once upsampled.
foveal_px = 2 * spec.fov_w * spec.fov_h
assert server_rows(spec) == spec.fov_h
print(f"client rays/frame: {rw * rh - periphery_holes(spec).rays}   server rays/frame: {foveal_px}")
print(f"client draw is {100 * (1 - rw * rh / full_px):.0f}% cheaper than full rate")

# With larger foveae and a sparser periphery the foveae hold most of the
# rays. A reduced pixel whose every upsampled pixel lies in a fovea is a
# hole: a fovea covers it, so it is never shaded. The server draws only
# the top k rows of each fovea, the fewest holding half of the rays the
# frame shades, and the client the rest.
big = PartitionSpec(2400, 1080, 768, 540, 0.3)
bw, bh = reduced_dims(big)
holes = periphery_holes(big).rays
k = server_rows(big)
print(f"768x540 foveae at scale 0.3: {holes} of {bw * bh} periphery rays are holes;"
      f" server draws rows [0, {k}) of {big.fov_h}, {2 * big.fov_w * k} rays;"
      f" client {bw * bh - holes + 2 * big.fov_w * (big.fov_h - k)} rays")

# Bad geometry is rejected with every reason rather than clipped silently:
# a spec that exists is valid.
try:
    PartitionSpec.from_full(600, 270, 400, 90, 0.6)
except PartitionError as e:
    print("600x270 with a 400-wide fovea:", e)
