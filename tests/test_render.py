import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitfov import render
from splitfov.camera import CameraPath, CameraRig, Pose, look_at_quat, normalize_quat, pose_at, quat_to_matrix
from splitfov.client import draw_foveae
from splitfov.image import GeometryError, Rect, crop
from splitfov.partition import (DEFAULT_SPEC, Eye, Holes, PartitionSpec, foveal_rect, foveal_rows,
                                periphery_holes, reduced_dims, reduced_rays)
from splitfov.render import (
    _FAR,
    _PLANE_Y,
    _SPHERE_CENTERS,
    _SPHERE_RADII,
    BACKGROUND,
    SceneConfig,
    SceneId,
    quantize,
    render_region,
    render_scaled,
    _floor_rows,
    _grid_reach,
    _pad_reach,
    _padded_range,
    _sphere_bound,
)

POSE = pose_at(CameraPath(frame_count=16), 3)


def render_full(scene, rig, pose, eye_dims):
    """Both eyes rendered whole at the full rate, side by side."""
    whole = Rect(0, 0, *eye_dims)
    return np.hstack([render_region(scene, rig, pose, eye, eye_dims, whole) for eye in (Eye.LEFT, Eye.RIGHT)])


class TestQuantize:
    def test_endpoints(self):
        assert quantize(np.array([0.0])).tolist() == [0]
        assert quantize(np.array([1.0])).tolist() == [255]

    def test_midpoint_rounds_half_up(self):
        assert quantize(np.array([0.5])).tolist() == [128]

    def test_clamps(self):
        assert quantize(np.array([-0.3, 2.0])).tolist() == [0, 255]

    def test_monotonic(self):
        xs = np.linspace(0, 1, 1001)
        q = quantize(xs).astype(int)
        assert (np.diff(q) >= 0).all()


class TestRegionOracle:
    """Rendering a sub-rectangle must equal cropping a full render."""

    @pytest.mark.parametrize("eye", [Eye.LEFT, Eye.RIGHT])
    def test_crop_equivalence(self, scene, rig, eye):
        dims = (96, 72)
        full = render_region(scene, rig, POSE, eye, dims, Rect(0, 0, 96, 72))
        for rect in (Rect(30, 20, 40, 30), Rect(0, 0, 1, 1), Rect(95, 71, 1, 1),
                     Rect(10, 0, 86, 72)):
            region = render_region(scene, rig, POSE, eye, dims, rect)
            assert region.tobytes() == crop(full, rect).tobytes()

    def test_many_random_rects(self, scene, rig):
        rng = np.random.default_rng(5)
        dims = (64, 48)
        full = render_region(scene, rig, POSE, Eye.LEFT, dims, Rect(0, 0, 64, 48))
        for _ in range(25):
            w = int(rng.integers(1, 65))
            h = int(rng.integers(1, 49))
            x = int(rng.integers(0, 64 - w + 1))
            y = int(rng.integers(0, 48 - h + 1))
            rect = Rect(x, y, w, h)
            region = render_region(scene, rig, POSE, Eye.LEFT, dims, rect)
            assert np.array_equal(region, crop(full, rect))

    def test_bounds_checked(self, scene, rig):
        with pytest.raises(GeometryError):
            render_region(scene, rig, POSE, Eye.LEFT, (32, 32), Rect(30, 0, 4, 4))
        with pytest.raises(GeometryError):
            render_region(scene, rig, POSE, Eye.LEFT, (32, 32), Rect(0, 0, 0, 4))


class TestDeterminism:
    def test_repeat_render_is_bit_identical(self, scene, rig):
        a = render_full(scene, rig, POSE, (80, 60))
        b = render_full(scene, rig, POSE, (80, 60))
        assert a.tobytes() == b.tobytes()

    def test_output_contract(self, scene, rig):
        img = render_full(scene, rig, POSE, (40, 30))
        assert img.shape == (30, 80, 3)
        assert img.dtype == np.uint8


class TestScenes:
    def test_empty_scene_sky_is_background(self, rig):
        cfg = SceneConfig(scene_id=SceneId.EMPTY)
        pose = Pose(position=(0, 50, 0), orientation=(0, 0, 0, 1))
        img = render_region(cfg, rig, pose, Eye.LEFT, (16, 16), Rect(0, 0, 16, 8))
        assert (img == np.array(BACKGROUND, dtype=np.uint8)).all()

    def test_sphere_scene_hits_something(self, scene, rig):
        img = render_full(scene, rig, POSE, (64, 48))
        assert len(np.unique(img.reshape(-1, 3), axis=0)) > 4

    def test_scenes_differ(self, rig):
        a = render_full(SceneConfig(scene_id=SceneId.EMPTY), rig, POSE, (48, 32))
        b = render_full(SceneConfig(scene_id=SceneId.SPHERES), rig, POSE, (48, 32))
        assert not np.array_equal(a, b)


class TestStereo:
    def test_disparity_with_wide_ipd(self, scene):
        rig = CameraRig(ipd=0.5)
        img = render_full(scene, rig, POSE, (96, 72))
        left, right = img[:, :96], img[:, 96:]
        assert not np.array_equal(left, right)

    def test_zero_ipd_eyes_match(self, scene):
        rig = CameraRig(ipd=0.0)
        img = render_full(scene, rig, POSE, (48, 36))
        assert np.array_equal(img[:, :48], img[:, 48:])


class TestScaled:
    def test_unit_scale_equals_full_render(self, scene, rig):
        full = render_full(scene, rig, POSE, (48, 36))
        scaled = render_scaled(scene, rig, POSE, (96, 36), 1.0)
        assert scaled.tobytes() == full.tobytes()

    def test_reduced_dimensions(self, scene, rig):
        out = render_scaled(scene, rig, POSE, (600, 270), 0.6)
        assert out.shape == (162, 360, 3)

    def test_headset_scale_dims(self, scene, rig):
        # 2400x1080 at 0.6 -> 1440x648; checked at 1/10 size per axis here
        out = render_scaled(scene, rig, POSE, (240, 108), 0.6)
        assert out.shape == (65, 144, 3)

    def test_determinism(self, scene, rig):
        a = render_scaled(scene, rig, POSE, (100, 60), 0.37)
        b = render_scaled(scene, rig, POSE, (100, 60), 0.37)
        assert a.tobytes() == b.tobytes()

    def test_scale_validation(self, scene, rig):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                render_scaled(scene, rig, POSE, (64, 32), bad)

    def test_tiny_output_clamped(self, scene, rig):
        out = render_scaled(scene, rig, POSE, (8, 8), 0.05)
        assert out.shape == (1, 1, 3)


class TestScaledHoles:
    """With holes, `render_scaled` leaves them the background and every
    other pixel as it is without them."""

    @pytest.mark.parametrize("scene_id", [SceneId.SPHERES, SceneId.EMPTY], ids=["spheres", "empty"])
    @pytest.mark.parametrize("spec", [
        PartitionSpec(600, 270, 128, 90, 0.6), PartitionSpec(240, 108, 77, 54, 0.3),
        PartitionSpec(160, 80, 80, 80, 0.25), PartitionSpec(96, 48, 30, 20, 1.0),
    ], ids=["desk", "fovea-tenth", "no-periphery", "scale-1"])
    def test_holes_are_background(self, rig, spec, scene_id):
        holes = periphery_holes(spec)
        assert holes.rays > 0
        self.assert_background(SceneConfig(scene_id), rig, (spec.full_w, spec.full_h), spec.periph_scale, holes)

    @pytest.mark.parametrize("holes", [
        Holes((0, 0), ((0, 0), (0, 0))),  # none
        Holes((3, 9), ((0, 0), (0, 0))),  # rows without columns
        Holes((0, 18), ((0, 30), (30, 60))),  # the whole frame
        Holes((0, 5), ((2, 30), (30, 41))),  # the top rows, one eye's columns out to its edge
        Holes((12, 18), ((0, 4), (55, 60))),  # the bottom rows, the frame's outer columns
    ], ids=["none", "no-columns", "all", "top", "bottom"])
    def test_any_band_of_rows_and_columns(self, scene, rig, holes):
        self.assert_background(scene, rig, (120, 36), 0.5, holes)

    @staticmethod
    def assert_background(scene, rig, full, scale, holes):
        plain = render_scaled(scene, rig, POSE, full, scale)
        skipped = render_scaled(scene, rig, POSE, full, scale, holes=holes)
        hidden = np.zeros(plain.shape[:2], dtype=bool)
        for lo, hi in holes.cols:
            hidden[slice(*holes.rows), lo:hi] = True
        assert np.all(skipped[hidden] == BACKGROUND)
        assert skipped[~hidden].tobytes() == plain[~hidden].tobytes()


class TestAllocation:
    def test_fovea_peak_stays_under_ten_grids(self, scene, rig):
        """One 768x540 fovea, the server's critical-path draw, allocates at
        most ten float32 grids at its peak: the ray directions, the depth
        and the floor's checker run in place rather than into a fresh
        temporary per operation."""
        spec = PartitionSpec(2400, 1080, 768, 540, 0.3)
        rect = foveal_rect(spec, Eye.LEFT)
        pose = pose_at(CameraPath(), 0)
        render_region(scene, rig, pose, Eye.LEFT, (spec.eye_w, spec.eye_h), rect)  # warm up
        tracemalloc.start()
        try:
            render_region(scene, rig, pose, Eye.LEFT, (spec.eye_w, spec.eye_h), rect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 4 * rect.w * rect.h


def _plane_coords(eye_dims, fx, fy, rig=CameraRig()):
    """A grid's camera-plane ray coordinates (x of each column, y of each
    row), computed as `_shade_grid` computes them."""
    ew, eh = float(eye_dims[0]), float(eye_dims[1])
    tan_h = np.float32(math.tan(math.radians(rig.horizontal_fov) / 2.0))
    tan_v = np.float32(tan_h * np.float32(eh / ew))
    ndc_x = fx.astype(np.float32) / np.float32(ew) * np.float32(2.0) - np.float32(1.0)
    ndc_y = np.float32(1.0) - fy.astype(np.float32) / np.float32(eh) * np.float32(2.0)
    return ndc_x * tan_h, ndc_y * tan_v


def _full_grid(w, h):
    return np.arange(w, dtype=np.float32) + np.float32(0.5), np.arange(h, dtype=np.float32) + np.float32(0.5)


def _scaled_eye_grid(w, h, scale):
    s = np.float32(scale)
    fx = (np.arange(round(w * scale), dtype=np.float32) + np.float32(0.5)) / s
    fy = (np.arange(round(h * scale), dtype=np.float32) + np.float32(0.5)) / s
    return fx, fy


def _hole_grids(spec, eye=Eye.LEFT):
    """One periphery eye's two grids of full-frame coordinates, as
    `render_scaled` shades them with `periphery_holes(spec)`: the rows
    outside the holes across all of the eye's columns (`outside`), and the
    holes' rows across the eye's other columns (`band`). Each is an
    ascending grid with a gap where the holes are: (fx, fy) pairs."""
    fx, fy, split = reduced_rays(spec.full_w, spec.full_h, spec.periph_scale)
    c0, c1 = (0, split) if eye == Eye.LEFT else (split, len(fx))
    ex = fx[c0:c1] - np.float32(spec.eye_w) if eye == Eye.RIGHT else fx[c0:c1]
    holes = periphery_holes(spec)
    (r0, r1), (h0, h1) = holes.rows, holes.cols[eye]
    outside = ex, np.concatenate([fy[:r0], fy[r1:]])
    band = np.concatenate([ex[: h0 - c0], ex[h1 - c0 :]]), fy[r0:r1]
    return outside, band


FOVEA_SPEC = PartitionSpec(2400, 1080, 768, 540, 0.3)

# (eye dims, fx, fy): a desk eye at full rate, a wide eye at full rate, the
# left half of the fovea workload's 0.3 periphery, and that half's `band`
# grid, whose columns skip the fovea's.
BOUND_GRIDS = [
    ((64, 48), *_full_grid(64, 48)),
    ((160, 90), *_full_grid(160, 90)),
    ((1200, 1080), *_scaled_eye_grid(1200, 1080, 0.3)),
    ((1200, 1080), *_hole_grids(FOVEA_SPEC)[1]),
]


def _plane_d1(rot, dir_x_row, dir_y_col):
    """Every ray's float32 world y direction, by the renderer's formula."""
    d1 = rot[1, 0] * dir_x_row[None, :] + rot[1, 1] * dir_y_col[:, None]
    d1 -= rot[1, 2]
    return d1


def _disc(rot, oc, r, dir_x_row, dir_y_col):
    """Every ray's float32 disc against one sphere, by the renderer's formula."""
    dx = dir_x_row[None, :]
    dy = dir_y_col[:, None]
    d0 = rot[0, 0] * dx + rot[0, 1] * dy - rot[0, 2]
    d1 = rot[1, 0] * dx + rot[1, 1] * dy - rot[1, 2]
    d2 = rot[2, 0] * dx + rot[2, 1] * dy - rot[2, 2]
    ocx, ocy, ocz = oc
    a = d0 * d0 + d1 * d1 + d2 * d2
    half_b = ocx * d0 + ocy * d1 + ocz * d2
    cc = np.float32(ocx * ocx + ocy * ocy + ocz * ocz) - r * r
    return half_b * half_b - a * cc


unit_vectors = st.tuples(*[st.floats(-1, 1)] * 3).map(np.array).filter(
    lambda u: np.linalg.norm(u) > 0.1).map(lambda u: u / np.linalg.norm(u))
quaternions = st.tuples(*[st.floats(-1, 1)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(normalize_quat)


def _virtual_coord(coords, i):
    """Coordinate i of the grid `coords`, continued evenly past its ends."""
    if 0 <= i < len(coords):
        return float(coords[i])
    return float(coords[0]) + i * (float(coords[-1]) - float(coords[0])) / (len(coords) - 1)


@st.composite
def bound_cases(draw, beyond=0, places=("grazing", "inside", "touching", "near", "far")):
    """A sphere, a grid, any orientation (so any roll) and an eye placed
    inside, on, near or far from the sphere, or on a line that grazes it
    through one pixel centre, ahead of or behind the eye. With `beyond`,
    that pixel may lie up to that many pixels off each edge of the grid."""
    i = draw(st.integers(0, len(_SPHERE_RADII) - 1))
    c, r = _SPHERE_CENTERS[i].astype(np.float64), float(_SPHERE_RADII[i])
    dims, fx, fy = draw(st.sampled_from(BOUND_GRIDS))
    dir_x_row, dir_y_col = _plane_coords(dims, fx, fy)
    q = draw(quaternions)
    rot = quat_to_matrix(q)
    place = draw(st.sampled_from(places))
    if place == "grazing":
        col = draw(st.integers(-beyond, len(fx) - 1 + beyond))
        row = draw(st.integers(-beyond, len(fy) - 1 + beyond))
        x, y = _virtual_coord(dir_x_row, col), _virtual_coord(dir_y_col, row)
        d = rot.astype(np.float64) @ (x, y, -1.0)
        d /= np.linalg.norm(d)
        n = draw(unit_vectors.map(lambda u: u - (u @ d) * d).filter(lambda n: np.linalg.norm(n) > 0.1))
        n /= np.linalg.norm(n)
        # < 0: the sphere is behind the eye. From far off, float32 rounding
        # of the disc outgrows the radius margin and the bound must give up.
        ahead = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-150.0, 150.0)).filter(
            lambda s: abs(s) > 1e-3))
        o = c + r * draw(st.floats(0.99, 1.05)) * n - ahead * d
    else:
        lo, hi = {"inside": (0.0, 0.999), "touching": (0.999, 1.02),
                  "near": (1.02, 3.0), "far": (3.0, 60.0)}[place]
        o = c + r * draw(st.floats(lo, hi)) * draw(unit_vectors)
    oc = o.astype(np.float32) - _SPHERE_CENTERS[i]
    return rot, tuple(oc), _SPHERE_RADII[i], dir_x_row, dir_y_col


class TestSphereBound:
    """`_sphere_bound` may only ever widen the sphere tests: any ray whose
    float32 disc is >= 0 must lie inside its box."""

    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases())
    def test_box_holds_every_nonnegative_disc(self, case):
        nonneg = _disc(*case) >= 0
        box = _sphere_bound(*case, _grid_reach(*case[3:]))
        if box is not None:
            nonneg[box] = False
        assert not nonneg.any()

    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases(beyond=3 * render._BOUND_PAD, places=("grazing",)))
    def test_box_holds_every_nonnegative_disc_off_the_grid(self, case):
        # Spheres grazed through a pixel up to 3 pads off the grid's edges:
        # their ellipses lie on, just beyond and wholly beyond the grid.
        nonneg = _disc(*case) >= 0
        box = _sphere_bound(*case, _grid_reach(*case[3:]))
        if box is not None:
            nonneg[box] = False
        assert not nonneg.any()

    def test_a_view_straight_up_gets_no_box(self, monkeypatch):
        """A 30 degree view straight up from (3, 2, 3): every sphere's
        ellipse lies wholly below the grid, so no sphere gets a box (not
        even a strip of pad rows at the edge), no row is shaded and each
        30-row eye is all background."""
        hulls, boxes = [], []

        def hull(spans, _inner=render._hull):
            hulls.append(_inner(spans))
            return hulls[-1]

        def bound(*args, _inner=render._sphere_bound):
            boxes.append(_inner(*args))
            return boxes[-1]

        monkeypatch.setattr(render, "_hull", hull)
        monkeypatch.setattr(render, "_sphere_bound", bound)
        up = Pose((3.0, 2.0, 3.0), (math.sin(math.pi / 4), 0.0, 0.0, math.cos(math.pi / 4)))
        img = render_full(SceneConfig(), CameraRig(horizontal_fov=30.0), up, (40, 30))
        assert boxes == [None] * 2 * len(_SPHERE_RADII)
        assert [(rows.start, rows.stop) for rows in hulls] == [(0, 0), (0, 0)]
        assert (img == np.array(BACKGROUND, dtype=np.uint8)).all()

    def test_gated_orbit_boxes_are_tight(self, monkeypatch):
        """Every bound the renderer takes on orbit poses of both gated
        geometries is an ellipse's box, not the full-grid fallback: each
        covers under a tenth of its eye's view (the whole grid for a
        periphery half, the full-rate eye for a fovea)."""
        coverage = []
        view_rays = [0]

        def recorded(rot, oc, r, dir_x_row, dir_y_col, reach):
            box = _sphere_bound(rot, oc, r, dir_x_row, dir_y_col, reach)
            rays = 0 if box is None else (box[0].stop - box[0].start) * (box[1].stop - box[1].start)
            coverage.append(rays / (view_rays[0] or len(dir_y_col) * len(dir_x_row)))
            return box

        monkeypatch.setattr(render, "_sphere_bound", recorded)
        scene, rig = SceneConfig(), CameraRig()
        corners = [(2.95, 1.15), (3.05, 1.25), (2.95, 1.25), (3.05, 1.15)]
        poses = [pose_at(CameraPath(radius=rad, height=hgt, frame_count=15), k)
                 for k in range(15) for rad, hgt in [corners[k % 4]]]
        for spec in (PartitionSpec(2400, 1080, 512, 360, 0.6), PartitionSpec(2400, 1080, 768, 540, 0.3)):
            for pose in poses:
                view_rays[0] = spec.eye_w * spec.eye_h
                draw_foveae(scene, rig, pose, spec)
                view_rays[0] = 0
                render_scaled(scene, rig, pose, (spec.full_w, spec.full_h), spec.periph_scale)
        assert len(coverage) == 2 * 15 * 4 * len(_SPHERE_RADII)
        assert max(coverage) < 0.1
        assert sum(c > 0 for c in coverage) > len(coverage) // 2


@st.composite
def floor_cases(draw):
    """Any orientation, a grid on a 90 or a 170 degree rig, and an eye far
    above or below the floor, within 1e-6 of it, or placed so that one
    pixel centre's ray meets the floor at about _FAR."""
    rig = draw(st.sampled_from([CameraRig(), CameraRig(horizontal_fov=170.0)]))
    dims, fx, fy = draw(st.sampled_from(BOUND_GRIDS))
    dir_x_row, dir_y_col = _plane_coords(dims, fx, fy, rig)
    rot = quat_to_matrix(draw(quaternions))
    place = draw(st.sampled_from(["above", "below", "on", "grazing"]))
    if place == "grazing":
        # A row's floor rays start at one of its end columns, so an end
        # pixel put a few ulps either side of t = _FAR tests the bound's
        # slack on the row where the floor starts.
        row = draw(st.integers(0, len(fy) - 1))
        col = draw(st.sampled_from([0, len(fx) - 1]))
        d1 = float(_plane_d1(rot, dir_x_row, dir_y_col)[row, col])
        o_y = float(_PLANE_Y) - d1 * float(_FAR) * (1.0 + draw(st.integers(-16, 16)) * 2.0**-24)
    else:
        lo, hi = {"above": (1e-3, 100.0), "below": (-100.0, -1e-3), "on": (-1e-6, 1e-6)}[place]
        o_y = float(_PLANE_Y) + draw(st.floats(lo, hi))
    c = _PLANE_Y - np.float32(o_y)
    return rot, c, np.float32(rig.near), dir_x_row, dir_y_col


class TestFloorBound:
    """`_floor_rows` may only ever widen the floor test: every ray whose
    float32 plane t lies in [near, _FAR] must lie in its rows."""

    @settings(max_examples=300, deadline=None)
    @given(case=floor_cases())
    def test_rows_hold_every_floor_hit(self, case):
        rot, c, near, dir_x_row, dir_y_col = case
        with np.errstate(divide="ignore", invalid="ignore"):
            t = c / _plane_d1(rot, dir_x_row, dir_y_col)
        hit = (t >= near) & (t <= _FAR)
        rows = _floor_rows(*case)
        if rows is not None:
            hit[rows] = False
        assert not hit.any()

    def test_gated_orbit_rows_are_tight(self, monkeypatch):
        """On orbit poses of both gated geometries, the rows each grid
        shades reach at most the pad beyond its first and last rows that
        show anything but the background, and each periphery half skips
        at least a fifth of its rows: the sky is filled, not shaded."""
        grids = []

        def hull(spans, _inner=render._hull):
            grids.append([_inner(spans)])
            return grids[-1][0]

        def shade(*args, _inner=render._shade_grid):
            img = _inner(*args)  # calls `hull` once
            grids[-1].append(img)
            return img

        monkeypatch.setattr(render, "_hull", hull)
        monkeypatch.setattr(render, "_shade_grid", shade)
        scene, rig = SceneConfig(), CameraRig()
        background = np.array(BACKGROUND, dtype=np.uint8)
        corners = [(2.95, 1.15), (3.05, 1.25), (2.95, 1.25), (3.05, 1.15)]
        poses = [pose_at(CameraPath(radius=rad, height=hgt, frame_count=15), k)
                 for k in range(15) for rad, hgt in [corners[k % 4]]]
        for spec in (PartitionSpec(2400, 1080, 512, 360, 0.6), PartitionSpec(2400, 1080, 768, 540, 0.3)):
            for pose in poses:
                grids.clear()
                draw_foveae(scene, rig, pose, spec)
                render_scaled(scene, rig, pose, (spec.full_w, spec.full_h), spec.periph_scale)
                assert [img.shape[0] for _, img in grids] == [spec.fov_h] * 2 + [reduced_dims(spec)[1]] * 2
                for rows, img in grids:
                    shown = np.flatnonzero((img != background).any(axis=(1, 2)))
                    assert 0 <= shown[0] - rows.start <= render._BOUND_PAD
                    assert 0 <= rows.stop - (shown[-1] + 1) <= render._BOUND_PAD
                for rows, img in grids[2:]:
                    assert rows.stop - rows.start <= 0.8 * img.shape[0]

    def test_a_view_of_the_sky_shades_no_row(self, monkeypatch):
        """A view straight up: no ray meets the floor within _FAR, so with
        no sphere box either (as if no sphere's box held a ray) no row is
        shaded and each eye's grid is all background."""
        hulls = []

        def hull(spans, _inner=render._hull):
            hulls.append(_inner(spans))
            return hulls[-1]

        monkeypatch.setattr(render, "_hull", hull)
        monkeypatch.setattr(render, "_sphere_bound", lambda *args: None)
        up = Pose((3.0, 2.0, 3.0), (math.sin(math.pi / 4), 0.0, 0.0, math.cos(math.pi / 4)))
        img = render_full(SceneConfig(), CameraRig(), up, (40, 30))
        assert [(rows.start, rows.stop) for rows in hulls] == [(0, 0), (0, 0)]
        assert (img == np.array(BACKGROUND, dtype=np.uint8)).all()


def _runtime_coords():
    """The ascending coordinate arrays `_padded_range` is given on each
    grid of the fovea workload's periphery halves, with holes: the columns
    (`dir_x_row`) and the negated rows (`-dir_y_col`) of the `outside` and
    `band` grids, whose rows or columns skip the holes, and of the whole
    half."""
    coords = []
    for fx, fy in (*_hole_grids(FOVEA_SPEC, Eye.LEFT), *_hole_grids(FOVEA_SPEC, Eye.RIGHT),
                   _scaled_eye_grid(1200, 1080, 0.3)):
        dir_x_row, dir_y_col = _plane_coords((1200, 1080), fx, fy)
        coords += [dir_x_row, -dir_y_col]
    return coords


RUNTIME_COORDS = _runtime_coords()


@st.composite
def padded_range_cases(draw):
    """Ascending float32 coordinates, evenly spaced or a runtime grid's,
    with or without a gap of skipped rays, and an interval [lo, hi] placed
    anywhere from a few spacings before the first ray to a few after the
    last: in the gap, across it, at either end or beyond."""
    if draw(st.booleans()):
        coords = draw(st.sampled_from(RUNTIME_COORDS))
        n = len(coords)
        x0, step = float(coords[0]), (float(coords[-1]) - float(coords[0])) / (n - 1)
    else:
        n = draw(st.integers(1, 300))
        x0, step = draw(st.floats(-2.0, 2.0)), draw(st.floats(1e-4, 0.05))
        coords = (x0 + step * np.arange(n)).astype(np.float32)
        if n >= 3 and draw(st.booleans()):
            g0 = draw(st.integers(1, n - 2))
            g1 = draw(st.integers(g0 + 1, n - 1))
            coords = np.concatenate([coords[:g0], coords[g1:]])
    lo = x0 + step * draw(st.floats(-6.0, n + 6.0))
    hi = lo + step * draw(st.one_of(st.floats(0.0, 4.0), st.floats(0.0, n + 12.0)))
    return coords, lo, hi


def _median_reach(coords):
    """The pad's reach on the ascending `coords`: _BOUND_PAD of its median
    steps, the upper one for an even count, as float32 differences."""
    steps = np.sort(np.diff(coords))
    return render._BOUND_PAD * float(steps[len(steps) // 2])


class TestPaddedRange:
    """`_padded_range` returns every coordinate in [lo, hi] and no index
    beyond the pad's reach of it, two median steps of the grid, with or
    without a gap in the grid: the indices of the coordinates within the
    reach, and only those."""

    @settings(max_examples=400, deadline=None)
    @given(case=padded_range_cases())
    def test_indices_lie_within_reach_and_cover_the_interval(self, case):
        coords, lo, hi = case
        i0, i1 = _padded_range(coords, lo, hi, _pad_reach(coords))
        assert 0 <= i0 <= i1 <= len(coords)
        c = coords.astype(np.float64)
        inside = np.flatnonzero((c >= lo) & (c <= hi))
        assert all(i0 <= i < i1 for i in inside)
        if len(c) > 1:
            reach = _median_reach(coords)
            within = np.flatnonzero((c >= lo - reach) & (c <= hi + reach))
            assert list(range(i0, i1)) == within.tolist()

    def test_an_interval_in_the_gap_gets_no_index(self):
        """A sphere whose interval lies mid-way across the fovea's columns
        of a `band` grid gets no columns, not the rays at the seam."""
        _, (fx, fy) = _hole_grids(FOVEA_SPEC)
        dir_x_row, _ = _plane_coords((1200, 1080), fx, fy)
        seam = int(np.flatnonzero(np.diff(fx) > 2 * (fx[1] - fx[0]))[0])
        mid = (float(dir_x_row[seam]) + float(dir_x_row[seam + 1])) / 2.0
        i0, i1 = _padded_range(dir_x_row, mid - 1e-3, mid + 1e-3, _pad_reach(dir_x_row))
        assert i0 == i1

    @pytest.mark.parametrize("spec", [FOVEA_SPEC, DEFAULT_SPEC], ids=["fovea", "default"])
    def test_a_gap_does_not_widen_the_pad(self, spec):
        """On each periphery grid that skips the holes, an interval at any
        of its coordinates gets only coordinates within two median steps of
        it. The gap widens the mean step, 2.78 times the median one on the
        fovea geometry's left `band` columns, so a pad of two mean steps
        reached farther. The steps of a float32 grid differ by a few ulps,
        hence the tolerance of 0.1%, far below the mean step's excess
        (1.5 times the median at least)."""
        for eye in Eye:
            for fx, fy in _hole_grids(spec, eye):
                dir_x_row, dir_y_col = _plane_coords((spec.eye_w, spec.eye_h), fx, fy)
                for coords in (dir_x_row, -dir_y_col):
                    reach = 2 * float(np.median(np.diff(coords.astype(np.float64))))
                    c = coords.astype(np.float64)
                    for x in c:
                        i0, i1 = _padded_range(coords, x, x, _pad_reach(coords))
                        assert np.abs(c[i0:i1] - x).max() <= reach * 1.001


positions = st.tuples(*[st.floats(-4.0, 4.0)] * 3)
poses = st.builds(lambda p, q: Pose(p, q), positions, quaternions)
scenes = st.sampled_from([SceneConfig(SceneId.SPHERES), SceneConfig(SceneId.EMPTY)])
rigs = st.builds(CameraRig, ipd=st.sampled_from([0.0, 0.064, 0.5]),
                 horizontal_fov=st.floats(20.0, 150.0))


@st.composite
def regions(draw, max_w=48, max_h=40):
    """Eye dims and a rect inside them."""
    w, h = draw(st.integers(1, max_w)), draw(st.integers(1, max_h))
    rw, rh = draw(st.integers(1, w)), draw(st.integers(1, h))
    return (w, h), Rect(draw(st.integers(0, w - rw)), draw(st.integers(0, h - rh)), rw, rh)


class TestLayouts:
    """The server's rows are RGBX (fourth byte 0), everything else RGB; the
    two layouts carry the same pixels."""

    @settings(max_examples=120, deadline=None)
    @given(scene=scenes, rig=rigs, pose=poses, eye=st.sampled_from(Eye), region=regions())
    def test_rgbx_is_rgb_with_a_zero_fourth_byte(self, scene, rig, pose, eye, region):
        dims, rect = region
        rgb = render_region(scene, rig, pose, eye, dims, rect)
        rgbx = render_region(scene, rig, pose, eye, dims, rect, rgbx=True)
        assert rgb.shape == (rect.h, rect.w, 3) and rgbx.shape == (rect.h, rect.w, 4)
        assert rgbx.dtype == np.uint8 and rgbx.flags.c_contiguous
        assert rgbx[..., :3].tobytes() == rgb.tobytes()
        assert not rgbx[..., 3].any()

    @settings(max_examples=60, deadline=None)
    @given(rig=rigs, pose=poses, eye=st.sampled_from(Eye), region=regions(), rgbx=st.booleans())
    def test_region_equals_crop_in_both_layouts(self, rig, pose, eye, region, rgbx):
        dims, rect = region
        full = render_region(SceneConfig(), rig, pose, eye, dims, Rect(0, 0, *dims), rgbx=rgbx)
        part = render_region(SceneConfig(), rig, pose, eye, dims, rect, rgbx=rgbx)
        assert part.tobytes() == full[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].tobytes()


class TestPaletteBands:
    """`_shade_grid` gathers the floor palette a band of hull rows at a
    time; any band gives the pixels of one gather over the whole hull."""

    @staticmethod
    def renders(scene, rig):
        """RGB and RGBX regions (a whole eye, a one-row hull, a 7-row one)
        and a periphery with holes."""
        spec = PartitionSpec(240, 108, 77, 54, 0.3)
        dims = (64, 48)
        images = []
        for rgbx in (False, True):
            for rect in (Rect(0, 0, *dims), Rect(3, 40, 50, 1), Rect(0, 33, 64, 7)):
                images.append(render_region(scene, rig, POSE, Eye.LEFT, dims, rect, rgbx=rgbx))
        images.append(render_scaled(scene, rig, POSE, (spec.full_w, spec.full_h), spec.periph_scale,
                                    holes=periphery_holes(spec)))
        return [img.tobytes() for img in images]

    @pytest.mark.parametrize("band", [1, 2, 3])
    def test_any_band_equals_one_gather(self, scene, rig, band, monkeypatch):
        hulls = []

        def hull(spans, _inner=render._hull):
            hulls.append(_inner(spans))
            return hulls[-1]

        monkeypatch.setattr(render, "_PALETTE_BAND_ROWS", 1 << 30)
        whole = self.renders(scene, rig)
        monkeypatch.setattr(render, "_hull", hull)
        monkeypatch.setattr(render, "_PALETTE_BAND_ROWS", band)
        assert self.renders(scene, rig) == whole
        sizes = {rows.stop - rows.start for rows in hulls}
        assert 1 in sizes
        assert any(n > band for n in sizes)
        if band > 1:
            assert any(n % band for n in sizes if n > band)


@st.composite
def fovea_specs(draw):
    """A small split geometry and a split line k in [1, fov_h)."""
    eye_w, full_h = draw(st.integers(1, 40)), draw(st.integers(2, 32))
    fov_w, fov_h = draw(st.integers(1, eye_w)), draw(st.integers(2, full_h))
    spec = PartitionSpec(2 * eye_w, full_h, fov_w, fov_h, 0.5)
    return spec, draw(st.integers(1, fov_h - 1))


class TestSharedDirections:
    """`draw_foveae` computes the ray directions once for both eyes; each
    eye's rows still equal its own `render_region` of the rect."""

    @settings(max_examples=80, deadline=None)
    @given(scene=scenes, rig=rigs, pose=poses, geometry=fovea_specs(), rgbx=st.booleans())
    def test_both_eyes_equal_their_own_render(self, scene, rig, pose, geometry, rgbx):
        spec, k = geometry
        for rows in ((0, k), (k, spec.fov_h), (0, spec.fov_h)):
            drawn = draw_foveae(scene, rig, pose, spec, rows, rgbx)
            for eye in Eye:
                rect = foveal_rows(foveal_rect(spec, eye), rows)
                own = render_region(scene, rig, pose, eye, (spec.eye_w, spec.eye_h), rect, rgbx=rgbx)
                assert drawn[eye].tobytes() == own.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(scene=scenes, rig=rigs, pose=poses, geometry=fovea_specs(), rgbx=st.booleans())
    def test_side_by_side_out_holds_both_eyes(self, scene, rig, pose, geometry, rgbx):
        """With `out`, as the server draws, both eyes' rows land side by
        side in it, left eye first, and the images returned are its views."""
        spec, k = geometry
        out = np.empty((k, 2 * spec.fov_w, 4 if rgbx else 3), dtype=np.uint8)
        views = draw_foveae(scene, rig, pose, spec, (0, k), rgbx, out=out)
        fresh = draw_foveae(scene, rig, pose, spec, (0, k), rgbx)
        assert out.tobytes() == np.hstack([fresh[Eye.LEFT], fresh[Eye.RIGHT]]).tobytes()
        assert all(np.shares_memory(views[eye], out) for eye in Eye)

    def test_an_out_of_another_shape_is_refused(self, scene, rig):
        rect = Rect(0, 0, 16, 8)
        for out in (np.empty((8, 16, 3), dtype=np.uint8), np.empty((8, 16, 4), dtype=np.int16)):
            with pytest.raises(GeometryError, match="out is a"):
                render_region(scene, rig, POSE, Eye.LEFT, (32, 16), rect, rgbx=True, out=out)

    def test_the_second_eye_reuses_the_first_eyes_directions(self, scene, rig, monkeypatch):
        spec = PartitionSpec(200, 100, 64, 48, 0.5)
        grids = []
        inner = render._directions

        def recorded(*args):
            grids.append(inner(*args))
            return grids[-1]

        monkeypatch.setattr(render, "_directions", recorded)
        draw_foveae(scene, rig, POSE, spec)
        (left, right) = grids
        assert all(np.shares_memory(l, r) for l, r in zip(left, right))

    def test_covered_rows_are_sliced_from_the_cache(self):
        """Rows inside the cached ones are that slice of the cached grids,
        bitwise equal to computing them alone."""
        rot = quat_to_matrix(POSE.orientation)
        dir_x_row, dir_y_col = _plane_coords((64, 48), *_full_grid(64, 48))
        cache = render.DirectionCache()
        cached = render._directions(rot, dir_x_row, dir_y_col, slice(4, 44), cache)
        for rows in (slice(4, 44), slice(10, 30), slice(43, 44)):
            sliced = render._directions(rot, dir_x_row, dir_y_col, rows, cache)
            alone = render._directions(rot, dir_x_row, dir_y_col, rows, None)
            for s, a, c in zip(sliced, alone, cached):
                assert np.shares_memory(s, c)
                assert s.tobytes() == a.tobytes()

    # Looking down at the floor, every row is in the hull, so a cache of the
    # full rect covers any other rect's hull rows.
    DOWN = Pose((0.0, 2.5, 1.5), look_at_quat((0.0, 2.5, 1.5), (0.0, -1.0, 0.0)))

    @pytest.mark.parametrize("pose, rect", [
        (POSE, Rect(0, 0, 64, 48)),
        (DOWN, Rect(8, 0, 40, 48)),
        (DOWN, Rect(0, 6, 64, 30)),
    ], ids=["other-pose", "other-columns", "other-rows"])
    def test_a_cache_from_another_grid_is_not_used(self, scene, rig, pose, rect):
        """A cache filled at one pose and rect gives another the pixels it
        would shade without the cache."""
        dims, cache = (64, 48), render.DirectionCache()
        render_region(scene, rig, self.DOWN, Eye.LEFT, dims, Rect(0, 0, 64, 48), directions=cache)
        assert cache.rows == slice(0, 48)
        shared = render_region(scene, rig, pose, Eye.RIGHT, dims, rect, directions=cache)
        assert shared.tobytes() == render_region(scene, rig, pose, Eye.RIGHT, dims, rect).tobytes()
