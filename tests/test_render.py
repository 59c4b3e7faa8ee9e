import numpy as np
import pytest

from splitfov.camera import CameraPath, CameraRig, Pose, pose_at
from splitfov.image import GeometryError, Rect, crop
from splitfov.partition import Eye
from splitfov.render import (
    BACKGROUND,
    SceneConfig,
    SceneId,
    quantize,
    render_region,
    render_scaled,
    render_stereo,
)

POSE = pose_at(CameraPath(frame_count=16), 3)


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
        a = render_stereo(scene, rig, POSE, (80, 60))
        b = render_stereo(scene, rig, POSE, (80, 60))
        assert a.tobytes() == b.tobytes()

    def test_output_contract(self, scene, rig):
        img = render_stereo(scene, rig, POSE, (40, 30))
        assert img.shape == (30, 80, 3)
        assert img.dtype == np.uint8


class TestScenes:
    def test_empty_scene_sky_is_background(self, rig):
        cfg = SceneConfig(scene_id=SceneId.EMPTY)
        pose = Pose(position=(0, 50, 0), orientation=(0, 0, 0, 1))
        img = render_region(cfg, rig, pose, Eye.LEFT, (16, 16), Rect(0, 0, 16, 8))
        assert (img == np.array(BACKGROUND, dtype=np.uint8)).all()

    def test_sphere_scene_hits_something(self, scene, rig):
        img = render_stereo(scene, rig, POSE, (64, 48))
        assert len(np.unique(img.reshape(-1, 3), axis=0)) > 4

    def test_scenes_differ(self, rig):
        a = render_stereo(SceneConfig(scene_id=SceneId.EMPTY), rig, POSE, (48, 32))
        b = render_stereo(SceneConfig(scene_id=SceneId.SPHERES), rig, POSE, (48, 32))
        assert not np.array_equal(a, b)


class TestStereo:
    def test_disparity_with_wide_ipd(self, scene):
        rig = CameraRig(ipd=0.5)
        img = render_stereo(scene, rig, POSE, (96, 72))
        left, right = img[:, :96], img[:, 96:]
        assert not np.array_equal(left, right)

    def test_zero_ipd_eyes_match(self, scene):
        rig = CameraRig(ipd=0.0)
        img = render_stereo(scene, rig, POSE, (48, 36))
        assert np.array_equal(img[:, :48], img[:, 48:])


class TestScaled:
    def test_unit_scale_equals_full_render(self, scene, rig):
        full = render_stereo(scene, rig, POSE, (48, 36))
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
