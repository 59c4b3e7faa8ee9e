"""The renderer against a frozen copy of itself.

The other render oracles (region == crop, split == native) compare the
renderer with itself, so a change that moved pixels on both sides alike
would pass them. This module holds a frozen copy of the shading code, the
quantizer and the region/scaled grid setup, and asserts that the live
renderer is byte-identical to it. A rewrite of `_shade_grid` for speed must
keep these tests passing unchanged; the copy is never to be edited to
follow the live code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitfov.camera import CameraPath, CameraRig, Pose, eye_origin, look_at_quat, pose_at, quat_to_matrix
from splitfov.image import Rect
from splitfov.render import SceneConfig, SceneId, quantize, render_region, render_scaled

# ---- Frozen reference: do not edit. ---------------------------------------

_BACKGROUND = (12, 14, 24)
_FAR = np.float32(120.0)
_PLANE_Y = np.float32(-1.0)
_AMBIENT = np.float32(0.18)
_CHECKER_LIGHT = np.array([0.82, 0.80, 0.76], dtype=np.float32)
_CHECKER_DARK = np.array([0.22, 0.24, 0.30], dtype=np.float32)
_SPHERE_CENTERS = np.array(
    [
        [0.00, -0.35, 0.00],
        [0.95, -0.60, -0.55],
        [-0.85, -0.62, 0.60],
        [0.15, -0.78, 1.05],
    ],
    dtype=np.float32,
)
_SPHERE_RADII = np.array([0.65, 0.40, 0.38, 0.22], dtype=np.float32)
_SPHERE_ALBEDOS = np.array(
    [
        [0.85, 0.22, 0.18],
        [0.20, 0.45, 0.88],
        [0.90, 0.75, 0.20],
        [0.25, 0.75, 0.35],
    ],
    dtype=np.float32,
)
_LIGHT = np.array([0.35, 0.85, 0.40], dtype=np.float64)
_LIGHT_DIR = (_LIGHT / np.linalg.norm(_LIGHT)).astype(np.float32)


def ref_quantize(channels):
    v = np.floor(channels.astype(np.float32) * np.float32(255.0) + np.float32(0.5))
    return np.clip(v, 0.0, 255.0).astype(np.uint8)


def ref_shade_grid(scene, rig, pose, eye, eye_dims, fx, fy):
    ew, eh = float(eye_dims[0]), float(eye_dims[1])
    tan_h = np.float32(math.tan(math.radians(rig.horizontal_fov) / 2.0))
    tan_v = np.float32(tan_h * np.float32(eh / ew))

    ndc_x = fx.astype(np.float32) / np.float32(ew) * np.float32(2.0) - np.float32(1.0)
    ndc_y = np.float32(1.0) - fy.astype(np.float32) / np.float32(eh) * np.float32(2.0)
    dir_x_row = ndc_x * tan_h
    dir_y_col = ndc_y * tan_v

    rot = quat_to_matrix(pose.orientation)
    dx = dir_x_row[None, :]
    dy = dir_y_col[:, None]
    d0 = rot[0, 0] * dx + rot[0, 1] * dy - rot[0, 2]
    d1 = rot[1, 0] * dx + rot[1, 1] * dy - rot[1, 2]
    d2 = rot[2, 0] * dx + rot[2, 1] * dy - rot[2, 2]

    o = eye_origin(pose, rig, eye)
    h, w = len(fy), len(fx)
    background = np.array(_BACKGROUND, dtype=np.uint8)

    if scene.scene_id == SceneId.EMPTY:
        return np.broadcast_to(background, (h, w, 3)).copy()

    near = np.float32(rig.near)
    t_best = np.full((h, w), np.inf, dtype=np.float32)
    kind = np.zeros((h, w), dtype=np.uint8)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_plane = (_PLANE_Y - o[1]) / d1
    hit = np.isfinite(t_plane) & (t_plane >= near) & (t_plane <= _FAR) & (t_plane < t_best)
    t_best = np.where(hit, t_plane, t_best)
    kind = np.where(hit, np.uint8(1), kind)

    a = d0 * d0 + d1 * d1 + d2 * d2
    for i in range(len(_SPHERE_RADII)):
        c = _SPHERE_CENTERS[i]
        r = _SPHERE_RADII[i]
        ocx, ocy, ocz = o[0] - c[0], o[1] - c[1], o[2] - c[2]
        half_b = ocx * d0 + ocy * d1 + ocz * d2
        cc = np.float32(ocx * ocx + ocy * ocy + ocz * ocz) - r * r
        disc = half_b * half_b - a * cc
        sq = np.sqrt(np.maximum(disc, np.float32(0.0)))
        t1 = (-half_b - sq) / a
        t2 = (-half_b + sq) / a
        t = np.where(t1 >= near, t1, t2)
        hit = (disc >= 0) & (t >= near) & (t <= _FAR) & (t < t_best)
        t_best = np.where(hit, t, t_best)
        kind = np.where(hit, np.uint8(2 + i), kind)

    any_hit = kind > 0
    t_eff = np.where(any_hit, t_best, np.float32(1.0))
    px = o[0] + t_eff * d0
    py = o[1] + t_eff * d1
    pz = o[2] + t_eff * d2

    albedo = np.zeros((h, w, 3), dtype=np.float32)
    lam = np.zeros((h, w), dtype=np.float32)

    plane_mask = kind == 1
    if plane_mask.any():
        parity = (np.floor(px[plane_mask]) + np.floor(pz[plane_mask])) % np.float32(2.0)
        albedo[plane_mask] = np.where(parity[:, None] == 0, _CHECKER_LIGHT, _CHECKER_DARK)
        lam[plane_mask] = _LIGHT_DIR[1]

    for i in range(len(_SPHERE_RADII)):
        m = kind == 2 + i
        if not m.any():
            continue
        c = _SPHERE_CENTERS[i]
        inv_r = np.float32(1.0) / _SPHERE_RADII[i]
        nx = (px[m] - c[0]) * inv_r
        ny = (py[m] - c[1]) * inv_r
        nz = (pz[m] - c[2]) * inv_r
        ndotl = nx * _LIGHT_DIR[0] + ny * _LIGHT_DIR[1] + nz * _LIGHT_DIR[2]
        lam[m] = np.maximum(ndotl, np.float32(0.0))
        albedo[m] = _SPHERE_ALBEDOS[i]

    shade = _AMBIENT + (np.float32(1.0) - _AMBIENT) * lam
    out = ref_quantize(albedo * shade[:, :, None])
    out[~any_hit] = background
    return out


def ref_region(scene, rig, pose, eye, full_eye_dims, region):
    fx = np.arange(region.x, region.x + region.w, dtype=np.float32) + np.float32(0.5)
    fy = np.arange(region.y, region.y + region.h, dtype=np.float32) + np.float32(0.5)
    return ref_shade_grid(scene, rig, pose, eye, full_eye_dims, fx, fy)


def ref_scaled(scene, rig, pose, eye_pair_dims, scale):
    full_w, full_h = eye_pair_dims
    rw = max(1, round(full_w * scale))
    rh = max(1, round(full_h * scale))
    s = np.float32(scale)
    fx = (np.arange(rw, dtype=np.float32) + np.float32(0.5)) / s
    fy = (np.arange(rh, dtype=np.float32) + np.float32(0.5)) / s
    eye_w = np.float32(full_w) / np.float32(2.0)
    split = int(np.searchsorted(fx, eye_w, side="left"))
    eye_dims = (full_w / 2.0, float(full_h))
    parts = []
    if split > 0:
        parts.append(ref_shade_grid(scene, rig, pose, 0, eye_dims, fx[:split], fy))
    if split < rw:
        parts.append(ref_shade_grid(scene, rig, pose, 1, eye_dims, fx[split:] - eye_w, fy))
    return parts[0] if len(parts) == 1 else np.hstack(parts)


# ---- End of the frozen reference. ------------------------------------------

from splitfov import render  # noqa: E402
from splitfov.camera import normalize_quat  # noqa: E402
from splitfov.client import ffr_frame  # noqa: E402
from splitfov.partition import Eye, PartitionSpec, foveal_rect  # noqa: E402

RIG = CameraRig()
SPHERES = SceneConfig(SceneId.SPHERES)
EMPTY = SceneConfig(SceneId.EMPTY)
POSES = [pose_at(CameraPath(frame_count=16), k) for k in (0, 3, 9)]


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_quantize_matches_reference():
    x = np.linspace(-0.5, 1.5, 20001, dtype=np.float32)
    assert same_bytes(quantize(x), ref_quantize(x))


def test_region_over_random_rects():
    rng = np.random.default_rng(7)
    eye_dims = (150, 110)
    for k in range(24):
        w = int(rng.integers(1, eye_dims[0] + 1))
        h = int(rng.integers(1, eye_dims[1] + 1))
        rect = Rect(int(rng.integers(0, eye_dims[0] - w + 1)),
                    int(rng.integers(0, eye_dims[1] - h + 1)), w, h)
        pose, eye = POSES[k % len(POSES)], k % 2
        live = render_region(SPHERES, RIG, pose, eye, eye_dims, rect)
        assert same_bytes(live, ref_region(SPHERES, RIG, pose, eye, eye_dims, rect)), rect


@pytest.mark.parametrize("scale", [0.3, 0.6, 1.0])
@pytest.mark.parametrize("scene", [SPHERES, EMPTY], ids=["spheres", "empty"])
def test_scaled_both_eyes(scale, scene):
    for pose in POSES:
        live = render_scaled(scene, RIG, pose, (300, 140), scale)
        assert same_bytes(live, ref_scaled(scene, RIG, pose, (300, 140), scale))


def _look_at(pos, target):
    try:
        return Pose(np.array(pos, dtype=np.float32), look_at_quat(pos, target))
    except ValueError:  # position on the target, or looking straight along up
        return None


look_at_poses = st.builds(
    _look_at,
    st.tuples(st.floats(-4, 4), st.floats(-0.5, 3), st.floats(-4, 4)),
    st.tuples(st.floats(-1, 1), st.floats(-1, 0.5), st.floats(-1, 1)),
).filter(lambda p: p is not None)


def _assert_pose_matches(pose, geometry, scale):
    eye_dims = (geometry[0] // 2, geometry[1])
    for eye in (0, 1):
        full = Rect(0, 0, *eye_dims)
        assert same_bytes(render_region(SPHERES, RIG, pose, eye, eye_dims, full),
                          ref_region(SPHERES, RIG, pose, eye, eye_dims, full))
    assert same_bytes(render_scaled(SPHERES, RIG, pose, geometry, scale),
                      ref_scaled(SPHERES, RIG, pose, geometry, scale))


@settings(max_examples=25, deadline=None)
@given(pose=look_at_poses, geometry=st.sampled_from([(96, 48), (160, 90)]),
       scale=st.sampled_from([0.35, 0.6, 1.0]))
def test_look_at_poses(pose, geometry, scale):
    _assert_pose_matches(pose, geometry, scale)


# Any orientation, so any roll and any sphere ahead of, beside or behind
# the eye; the eye anywhere in the scene or within 0.5 of a sphere centre,
# so inside, on or grazing it.
quaternions = st.tuples(*[st.floats(-1, 1)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(normalize_quat)
near_a_sphere = st.builds(
    lambda i, off: _SPHERE_CENTERS[i] + off,
    st.integers(0, len(_SPHERE_RADII) - 1),
    st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(np.array).filter(lambda off: np.linalg.norm(off) <= 0.5),
)
any_poses = st.builds(
    Pose,
    st.one_of(st.tuples(st.floats(-4, 4), st.floats(-0.5, 3), st.floats(-4, 4)), near_a_sphere),
    quaternions,
)


@settings(max_examples=60, deadline=None)
@given(pose=any_poses, geometry=st.sampled_from([(160, 90), (64, 48)]),
       scale=st.sampled_from([0.35, 0.6, 1.0]))
def test_any_orientation_poses(pose, geometry, scale):
    _assert_pose_matches(pose, geometry, scale)


# The geometries the benchmark gates: 2400x1080 stereo with a 512x360 fovea
# at scale 0.6 (the default) and a 768x540 fovea at scale 0.3.
GATED = [PartitionSpec(2400, 1080, 512, 360, 0.6), PartitionSpec(2400, 1080, 768, 540, 0.3)]
GATED_IDS = ["default", "fovea"]


def _assert_spec_matches(spec, pose):
    geometry = (spec.full_w, spec.full_h)
    assert same_bytes(render_scaled(SPHERES, RIG, pose, geometry, spec.periph_scale),
                      ref_scaled(SPHERES, RIG, pose, geometry, spec.periph_scale))
    eye_dims = (spec.eye_w, spec.eye_h)
    for eye in (Eye.LEFT, Eye.RIGHT):
        rect = foveal_rect(spec, eye)
        assert same_bytes(render_region(SPHERES, RIG, pose, eye, eye_dims, rect),
                          ref_region(SPHERES, RIG, pose, eye, eye_dims, rect)), eye


@pytest.mark.parametrize("spec", GATED, ids=GATED_IDS)
def test_gated_geometry_orbit(spec):
    for pose in POSES:
        _assert_spec_matches(spec, pose)


@pytest.mark.parametrize("spec", GATED, ids=GATED_IDS)
def test_gated_geometry_native_frame(spec):
    """`ffr_frame`, which shades none of the periphery's holes, is the
    reference's reduced frame, nearest-upsampled, with the reference's
    foveae over it."""
    w, h = spec.full_w, spec.full_h
    eye_dims = (spec.eye_w, spec.eye_h)
    for pose in POSES:
        reduced = ref_scaled(SPHERES, RIG, pose, (w, h), spec.periph_scale)
        rh, rw = reduced.shape[:2]
        want = reduced[(np.arange(h) * rh // h)[:, None], (np.arange(w) * rw // w)[None, :]]
        for eye in (Eye.LEFT, Eye.RIGHT):
            r = foveal_rect(spec, eye)
            x = r.x + (spec.eye_w if eye == Eye.RIGHT else 0)
            want[r.y : r.y + r.h, x : x + r.w] = ref_region(SPHERES, RIG, pose, eye, eye_dims, r)
        assert same_bytes(ffr_frame(SPHERES, RIG, pose, spec), want)


def _look_at_pose(pos, target):
    return Pose(np.array(pos, dtype=np.float32), look_at_quat(pos, target))


def _eye_origins(pose):
    return [eye_origin(pose, RIG, eye).astype(np.float64) for eye in (Eye.LEFT, Eye.RIGHT)]


def _inside_sphere_0():
    """Both eyes inside sphere 0, so every ray has disc >= 0 against it."""
    pose = _look_at_pose((0.05, -0.3, 0.1), (1.0, -0.3, 0.0))
    for o in _eye_origins(pose):
        assert np.linalg.norm(o - _SPHERE_CENTERS[0]) < _SPHERE_RADII[0]
    return pose


def _facing_away():
    """Looking along +x from z = 5: the spheres lie 90 degrees off axis,
    beyond the view's corner rays both ahead and behind, so no ray's line
    meets any sphere."""
    pose = _look_at_pose((0.0, 0.5, 5.0), (1.0, 0.5, 5.0))
    tan_h = math.tan(math.radians(RIG.horizontal_fov) / 2.0)
    corner = math.atan(tan_h * math.hypot(1.0, 1080 / 1200))
    axis = quat_to_matrix(pose.orientation).astype(np.float64) @ (0.0, 0.0, -1.0)
    for o in _eye_origins(pose):
        for c, r in zip(_SPHERE_CENTERS.astype(np.float64), _SPHERE_RADII):
            to_c = c - o
            dist = np.linalg.norm(to_c)
            off_axis = math.acos(abs(float(to_c @ axis)) / dist)
            assert off_axis > corner + math.asin(float(r) / dist)
    return pose


def _straight_down():
    return _look_at_pose((0.3, 3.0, 0.2), (0.3, 0.0, 0.2))


EDGE_POSES = {"inside_sphere": _inside_sphere_0, "facing_away": _facing_away,
              "straight_down": _straight_down}


@pytest.mark.parametrize("spec", GATED, ids=GATED_IDS)
@pytest.mark.parametrize("make_pose", EDGE_POSES.values(), ids=list(EDGE_POSES))
def test_gated_geometry_edge_poses(spec, make_pose):
    _assert_spec_matches(spec, make_pose())


def test_horizon_row():
    """A level camera over an odd eye height: the middle row's rays have
    d1 == 0, so their plane intersection divides by zero."""
    pose = Pose(np.array([0.2, 0.4, 4.0], dtype=np.float32), np.array([0, 0, 0, 1], dtype=np.float32))
    eye_dims = (1200, 1081)
    assert np.float32(1.0) - np.float32(540.5) / np.float32(1081) * np.float32(2.0) == 0
    full = Rect(0, 0, *eye_dims)
    for eye in (Eye.LEFT, Eye.RIGHT):
        assert same_bytes(render_region(SPHERES, RIG, pose, eye, eye_dims, full),
                          ref_region(SPHERES, RIG, pose, eye, eye_dims, full))


def test_sphere_boxes_hold_missed_and_floor_rays(monkeypatch):
    """A level eye just above the floor puts the horizon through every
    sphere, so each box the live renderer shades whole, and pastes by mask,
    holds missed rays (t = inf, so their normals are inf or NaN) and floor
    rays. No sphere shades to the background or to a checker colour, so
    the colours give each pixel's kind. pytest turns a leaked
    RuntimeWarning into an error."""
    boxes = []
    bound = render._sphere_bound

    def recorded(*args):
        boxes.append(bound(*args))
        return boxes[-1]

    monkeypatch.setattr(render, "_sphere_bound", recorded)
    pose = _look_at_pose((2.0, -0.8, 1.0), (0.0, -0.8, 0.0))
    floor_shade = _AMBIENT + (np.float32(1.0) - _AMBIENT) * _LIGHT_DIR[1]
    checker = np.stack([ref_quantize(_CHECKER_LIGHT * floor_shade), ref_quantize(_CHECKER_DARK * floor_shade)])
    eye_dims = (160, 90)
    full = Rect(0, 0, *eye_dims)
    for eye in (Eye.LEFT, Eye.RIGHT):
        boxes.clear()
        live = render_region(SPHERES, RIG, pose, eye, eye_dims, full)
        assert same_bytes(live, ref_region(SPHERES, RIG, pose, eye, eye_dims, full))
        assert len(boxes) == len(_SPHERE_RADII) and None not in boxes
        for box in boxes:
            pixels = live[box].reshape(-1, 1, 3)
            assert (pixels == _BACKGROUND).all(axis=-1).any(), box
            assert (pixels == checker).all(axis=-1).any(), box
