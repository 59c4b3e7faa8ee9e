"""
Rendering stereo frames on the CPU
==================================

The raycaster is pure numpy and fully deterministic: the same pose always
produces the same bytes. This walk-through renders one stereo frame, crops
the foveal window out of it, and shows that rendering only that window
gives the identical pixels (the property the whole split pipeline rests on).
"""

#%%
# A scene, a camera rig, and a pose from the scripted orbit path.
import numpy as np

from splitfov import (
    CameraPath, CameraRig, Eye, PartitionSpec, Rect, SceneConfig,
    crop, foveal_rect, pose_at, render_region, write_ppm,
)

scene = SceneConfig()
rig = CameraRig()
path = CameraPath(frame_count=64)
pose = pose_at(path, 20)
print("pose:", pose.position, pose.orientation)

#%%
# Full stereo frame at a desk-friendly size: each eye rendered whole at the
# full rate, then the two placed side by side.
spec = PartitionSpec.from_full(600, 270, 128, 90, 0.6)
eye_dims = (spec.eye_w, spec.eye_h)
whole = Rect(0, 0, *eye_dims)
frame = np.hstack([render_region(scene, rig, pose, int(eye), eye_dims, whole)
                   for eye in (Eye.LEFT, Eye.RIGHT)])
print("stereo frame:", frame.shape, frame.dtype)

#%%
# Cropping a region out of the full render equals rendering just that
# region. This is what lets the server draw only the foveal rectangles
# while the client checks nothing was lost.
rect = foveal_rect(spec, Eye.LEFT)
direct = render_region(scene, rig, pose, int(Eye.LEFT), eye_dims, rect)
cropped = crop(frame[:, : spec.eye_w], rect)
assert direct.tobytes() == cropped.tobytes()
print(f"foveal {rect.w}x{rect.h} region: direct render == crop, byte for byte")

#%%
# Frames serialize as binary PPM, readable by most image viewers.
write_ppm("demo_frame.ppm", frame)
print("wrote demo_frame.ppm,", 3 * frame.shape[0] * frame.shape[1], "pixel bytes")

# The two eye halves differ only by the stereo baseline; a zero-ipd rig
# would make them identical.
left, right = frame[:, : spec.eye_w], frame[:, spec.eye_w :]
print("eyes differ on", int(np.count_nonzero(np.any(left != right, axis=2))), "pixels")
