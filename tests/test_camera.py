import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splitfov.camera import (
    CameraPath,
    CameraRig,
    Pose,
    QUAT_NORM_TOL,
    eye_origin,
    look_at_quat,
    normalize_quat,
    pose_at,
    quat_from_matrix,
    quat_to_matrix,
)

IDENTITY_Q = np.array([0, 0, 0, 1], dtype=np.float32)


class TestPose:
    def test_stores_float32(self):
        p = Pose(position=(1, 2, 3), orientation=IDENTITY_Q)
        assert p.position.dtype == np.float32
        assert p.orientation.dtype == np.float32

    def test_rejects_off_unit_quaternion(self):
        with pytest.raises(ValueError):
            Pose(position=(0, 0, 0), orientation=(0, 0, 0, 1.01))

    @pytest.mark.parametrize("position, orientation", [
        ((0, 0, 0), (math.nan, 0, 0, 1)),
        ((0, 0, 0), (0, 0, 0, math.nan)),
        ((0, 0, 0), (math.inf, 0, 0, 1)),
        ((math.nan, 0, 0), IDENTITY_Q),
        ((0, math.inf, 0), IDENTITY_Q),
        ((0, 0, -math.inf), IDENTITY_Q),
        ((1e39, 0, 0), IDENTITY_Q),
        ((0, 0, 0), (1e39, 0, 0, 1)),
    ], ids=["nan-x", "nan-w", "inf-x", "nan-position", "inf-position", "neg-inf-position",
            "position-beyond-f32", "orientation-beyond-f32"])
    def test_rejects_non_finite(self, position, orientation):
        with pytest.raises(ValueError):
            Pose(position=position, orientation=orientation)

    def test_equality_is_bitwise(self):
        a = Pose(position=(1, 2, 3), orientation=IDENTITY_Q)
        b = Pose(position=(1, 2, 3), orientation=IDENTITY_Q)
        c = Pose(position=(1, 2, 3.0001), orientation=IDENTITY_Q)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestNormalizeQuat:
    def test_unit_input_returns_same_bits(self):
        q = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.float32)
        out = normalize_quat(q)
        assert out.tobytes() == q.tobytes()

    def test_scales_to_unit(self):
        out = normalize_quat(np.array([0, 0, 0, 2.0], dtype=np.float32))
        assert abs(float(np.linalg.norm(out.astype(np.float64))) - 1.0) <= QUAT_NORM_TOL

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_quat(np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            normalize_quat(np.array([np.nan, 0, 0, 1], dtype=np.float32))

    def test_rejects_beyond_float32(self):
        with pytest.raises(ValueError, match="quaternion must be finite in float32"):
            normalize_quat((1e39, 0, 0, 1))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=4)
           .filter(lambda q: math.sqrt(sum(v * v for v in q)) > 1e-3))
    def test_always_unit_after(self, q):
        out = normalize_quat(np.array(q, dtype=np.float32))
        assert abs(float(np.linalg.norm(out.astype(np.float64))) - 1.0) <= QUAT_NORM_TOL


class TestQuatMatrix:
    def test_identity(self):
        assert np.allclose(quat_to_matrix(IDENTITY_Q), np.eye(3))

    def test_ninety_about_y(self):
        # quarter turn about +y maps -z to -x (camera pans right)
        s = math.sin(math.pi / 4)
        q = np.array([0, s, 0, math.cos(math.pi / 4)], dtype=np.float32)
        m = quat_to_matrix(q)
        assert np.allclose(m @ [0, 0, -1], [-1, 0, 0], atol=1e-6)

    def test_round_trip_through_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = normalize_quat(rng.normal(size=4).astype(np.float32))
            m = quat_to_matrix(q)
            q2 = quat_from_matrix(m)
            # q and -q encode the same rotation
            d = min(np.abs(q.astype(np.float64) - q2).max(),
                    np.abs(q.astype(np.float64) + q2).max())
            assert d < 1e-5

    def test_matrix_is_orthonormal(self):
        q = normalize_quat(np.array([0.3, -0.2, 0.9, 0.4], dtype=np.float32))
        m = quat_to_matrix(q).astype(np.float64)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-6)
        assert np.linalg.det(m) > 0


class TestLookAt:
    def test_faces_target(self):
        q = look_at_quat((0, 0, 5), (0, 0, 0))
        fwd = quat_to_matrix(q) @ np.array([0, 0, -1], dtype=np.float32)
        assert np.allclose(fwd, [0, 0, -1], atol=1e-6)

    def test_general_position(self):
        pos, tgt = np.array([3.0, 1.0, -2.0]), np.array([0.5, 0.0, 0.5])
        q = look_at_quat(pos, tgt)
        fwd = quat_to_matrix(q).astype(np.float64) @ [0, 0, -1]
        want = (tgt - pos) / np.linalg.norm(tgt - pos)
        assert np.allclose(fwd, want, atol=1e-5)

    def test_degenerate_vertical_still_valid(self):
        q = look_at_quat((0, 5, 0), (0, 0, 0))
        assert abs(float(np.linalg.norm(q.astype(np.float64))) - 1.0) < 1e-5

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            look_at_quat((1, 2, 3), (1, 2, 3))


class TestPath:
    def test_pose_is_deterministic(self):
        path = CameraPath(frame_count=60)
        assert pose_at(path, 17) == pose_at(path, 17)

    def test_orbit_radius_and_height(self):
        path = CameraPath(radius=3.0, height=1.2, frame_count=100)
        for k in (0, 33, 99):
            p = pose_at(path, k).position.astype(np.float64)
            assert abs(math.hypot(p[0], p[2]) - 3.0) < 1e-5
            assert abs(p[1] - 1.2) < 1e-6

    def test_orbit_start_point(self):
        path = CameraPath(radius=2.0, height=0.5, frame_count=8)
        p = pose_at(path, 0).position
        assert np.allclose(p, [2.0, 0.5, 0.0], atol=1e-6)

    def test_frame_out_of_range(self):
        path = CameraPath(frame_count=10)
        with pytest.raises(ValueError):
            pose_at(path, 10)
        with pytest.raises(ValueError):
            pose_at(path, -1)

    @pytest.mark.parametrize("field, value", [
        ("radius", math.nan), ("radius", math.inf),
        ("height", math.nan), ("height", math.inf), ("height", -math.inf),
        ("radius", 1e39), ("height", 1e39), ("height", -1e39),
    ])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            CameraPath(**{field: value})

    def test_frame_count_validated(self):
        with pytest.raises(ValueError):
            CameraPath(frame_count=0)


class TestEyeOrigin:
    def test_eyes_split_along_right_axis(self):
        rig = CameraRig(ipd=0.1)
        pose = Pose(position=(0, 0, 0), orientation=IDENTITY_Q)
        left = eye_origin(pose, rig, 0)
        right = eye_origin(pose, rig, 1)
        assert np.allclose(right - left, [0.1, 0, 0], atol=1e-7)
        assert np.allclose((left + right) / 2, [0, 0, 0], atol=1e-7)

    def test_zero_ipd_collapses(self):
        rig = CameraRig(ipd=0.0)
        pose = pose_at(CameraPath(frame_count=4), 1)
        assert np.array_equal(eye_origin(pose, rig, 0), eye_origin(pose, rig, 1))

    def test_rig_validation(self):
        with pytest.raises(ValueError):
            CameraRig(ipd=-0.01)
        with pytest.raises(ValueError):
            CameraRig(horizontal_fov=180.0)
        with pytest.raises(ValueError):
            CameraRig(near=0.0)

    @pytest.mark.parametrize("field, value", [
        ("ipd", math.nan), ("ipd", math.inf),
        ("horizontal_fov", math.nan), ("horizontal_fov", math.inf),
        ("near", math.nan), ("near", math.inf),
        ("ipd", 1e39), ("near", 1e39),
    ])
    def test_rig_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            CameraRig(**{field: value})
