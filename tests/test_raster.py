import tracemalloc

import numpy as np
import pytest

from msmil.raster import block_sums, box_downscale, sum_dtype

MB = 1 << 20


def _mean_oracle(img, fy, fx):
    """Block means through a float64 copy of the input, as numpy's `mean` forms them."""
    oh, ow = img.shape[0] // fy, img.shape[1] // fx
    x = img[: oh * fy, : ow * fx].astype(np.float64)
    return x.reshape(oh, fy, ow, fx, *img.shape[2:]).mean(axis=(1, 3))


@pytest.mark.parametrize("fy,fx", [(1, 1), (2, 3), (5, 7), (8, 8), (16, 16), (32, 32)])
@pytest.mark.parametrize("channels", [(), (3,)])
def test_box_downscale_uint8_bitwise_equals_float64_mean(fy, fx, channels):
    rng = np.random.default_rng(fy * 100 + fx)
    # 3 * 32 + 5 rows and 2 * 32 + 7 columns leave a remainder for every factor but 1
    img = rng.integers(0, 256, size=(101, 71, *channels), dtype=np.uint8)
    out = box_downscale(img, fy, fx)
    ref = _mean_oracle(img, fy, fx)
    assert out.dtype == np.float64
    assert out.shape == ref.shape == (101 // fy, 71 // fx, *channels)
    assert out.tobytes() == ref.tobytes()


def test_box_downscale_float_cascade_bitwise_equals_float64_mean():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(256, 192, 3), dtype=np.uint8)
    level, ref = box_downscale(img, 8, 8), _mean_oracle(img, 8, 8)
    assert level.tobytes() == ref.tobytes()
    for _ in range(2):
        level, ref = box_downscale(level, 2, 2), _mean_oracle(ref, 2, 2)
        assert level.tobytes() == ref.tobytes()
    assert level.tobytes() == _mean_oracle(img, 32, 32).tobytes()


def test_box_downscale_full_white_block_does_not_overflow():
    img = np.full((64, 96, 3), 255, dtype=np.uint8)
    out = box_downscale(img, 32, 32)
    assert out.shape == (2, 3, 3)
    assert (out == 255.0).all()


def test_box_downscale_makes_no_float_copy_of_the_input():
    img = np.full((2048, 2048, 3), 200, dtype=np.uint8)
    float_copy = img.size * 8
    tracemalloc.start()
    try:
        out = box_downscale(img, 8, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out == 200.0).all()
    assert peak < float_copy / 4, f"peak {peak / MB:.1f} MiB against a {float_copy / MB:.0f} MiB float64 copy"


def test_block_sums_cascade_stays_exact_in_the_narrowest_type():
    """2 x 2 sums of 2 x 2 sums, each level in the narrowest integer type that
    holds a block of 8-bit pixels, equal summing the pixels by each factor."""
    rng = np.random.default_rng(6)
    for img in (rng.integers(0, 256, size=(128, 64, 3), dtype=np.uint8), np.full((128, 64, 3), 255, np.uint8)):
        level, factor = img, 1
        while factor < 64:
            factor *= 2
            out = np.empty((128 // factor, 64 // factor, 3), sum_dtype(0, 255 * factor * factor))
            level = block_sums(level, 2, 2, out)
            direct = img.reshape(128 // factor, factor, 64 // factor, factor, 3).sum(axis=(1, 3))
            assert level is out and (level == direct).all()
        assert level.dtype == np.uint32
    assert [sum_dtype(0, 255 * f * f) for f in (1, 2, 16, 32)] == [np.uint8, np.uint16, np.uint16, np.uint32]
