"""Exact box-filter downscaling, the one resampler of the image pipeline."""

from __future__ import annotations

import numpy as np


def box_downscale(img: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Exact box-filter downscale by integer factors; trailing remainder is cropped.

    Input (H, W) or (H, W, C); output float64 means. No float copy of the
    input is made: the `factor_y` rows of each block are added into one
    (H // factor_y, W, C) accumulator, its `factor_x` columns into the block
    sums, and the sums are divided by the block size once. For integer
    input the accumulator is an integer type wide enough for a whole block,
    so the sums are exact and the means equal `astype(float64).mean` over
    the blocks bit for bit. Float input accumulates in float64; its sums are
    exact too when the values are dyadic rationals, such as earlier box
    levels of 8-bit pixels.
    """
    h, w = img.shape[:2]
    oh, ow = h // factor_y, w // factor_x
    img = img[: oh * factor_y, : ow * factor_x]
    count = factor_y * factor_x
    if img.dtype.kind in "iu":
        info = np.iinfo(img.dtype)
        acc = np.result_type(np.min_scalar_type(info.min * count), np.min_scalar_type(info.max * count))
    else:
        acc = np.dtype(np.float64)
    rows = img[0::factor_y].astype(acc)
    for dy in range(1, factor_y):
        rows += img[dy::factor_y]
    rows = rows.reshape(oh, ow, factor_x, *img.shape[2:])
    sums = rows[:, :, 0].copy()
    for dx in range(1, factor_x):
        sums += rows[:, :, dx]
    return np.true_divide(sums, count, dtype=np.float64)


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Round half-up and clip to the 8-bit range."""
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)
