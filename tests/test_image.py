import numpy as np
import pytest

from splitfov.image import (
    GeometryError,
    Rect,
    crop,
    images_equal,
    read_ppm,
    validate_image,
    write_ppm,
)


def checker(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestValidate:
    def test_accepts_minimal(self):
        validate_image(np.zeros((1, 1, 3), dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(GeometryError):
            validate_image(np.zeros((4, 4, 3), dtype=np.float32))

    def test_rejects_wrong_shape(self):
        with pytest.raises(GeometryError):
            validate_image(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(GeometryError):
            validate_image(np.zeros((4, 4, 4), dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(GeometryError):
            validate_image(np.zeros((0, 4, 3), dtype=np.uint8))


class TestCrop:
    def test_extracts_rect(self):
        img = checker(10, 8)
        out = crop(img, Rect(2, 3, 4, 5))
        assert out.shape == (5, 4, 3)
        assert np.array_equal(out, img[3:8, 2:6])

    def test_returns_copy(self):
        img = checker(6, 6)
        out = crop(img, Rect(0, 0, 2, 2))
        out[:] = 0
        assert img[0, 0, 0] != 0 or img.sum() > 0

    def test_out_of_bounds(self):
        img = checker(6, 6)
        for r in (Rect(-1, 0, 2, 2), Rect(0, 0, 7, 2), Rect(5, 5, 2, 2), Rect(0, 0, 0, 1)):
            with pytest.raises(GeometryError):
                crop(img, r)


class TestEquality:
    def test_equal_and_not(self):
        a = checker(5, 4, seed=1)
        b = a.copy()
        assert images_equal(a, b)
        b[2, 3, 1] ^= 1
        assert not images_equal(a, b)

    def test_shape_mismatch_is_unequal(self):
        assert not images_equal(checker(5, 4), checker(4, 5))


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = checker(33, 17, seed=7)
        p = str(tmp_path / "x.ppm")
        write_ppm(p, img)
        assert np.array_equal(read_ppm(p), img)

    def test_header_shape(self, tmp_path):
        p = str(tmp_path / "x.ppm")
        write_ppm(p, np.zeros((2, 3, 3), dtype=np.uint8))
        with open(p, "rb") as f:
            raw = f.read()
        assert raw.startswith(b"P6")
        assert b"3 2" in raw[:16]
        assert raw.endswith(b"\x00" * 18)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5 2 2 255\n" + b"\x00" * 12)
        with pytest.raises(ValueError):
            read_ppm(str(p))

    def test_rejects_truncated(self, tmp_path):
        img = checker(4, 4)
        p = tmp_path / "t.ppm"
        write_ppm(str(p), img)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError):
            read_ppm(str(p))
