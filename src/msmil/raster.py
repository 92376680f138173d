"""Exact box filtering, the one resampler of the image pipeline: integer
block sums (`block_sums`) in the narrowest type that holds a block
(`sum_dtype`), and their means (`box_downscale`)."""

from __future__ import annotations

import numpy as np


def sum_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest integer type that holds every value in [lo, hi]."""
    return np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi))


def block_sums(img: np.ndarray, factor_y: int, factor_x: int, out: np.ndarray) -> np.ndarray:
    """Sums of the factor_y x factor_x blocks of `img` into `out`; trailing remainder cropped.

    Input (H, W) or (H, W, C); `out` is (H // factor_y, W // factor_x, ...)
    and its dtype is the accumulator. The `factor_y` rows of each block are
    added into one (H // factor_y, W, C) row accumulator (none when factor_y
    is 1), and one reduction adds its `factor_x` columns into `out`, so no
    copy of the input is made at a wider type. With an integer accumulator
    that holds a whole block the sums are exact; a float64 one sums dyadic
    rationals, such as box means of 8-bit pixels, exactly too. Returns `out`.
    """
    oh, ow = out.shape[:2]
    img = img[: oh * factor_y, : ow * factor_x]
    rows = img[0::factor_y]
    if factor_y > 1:
        rows = rows.astype(out.dtype)
        for dy in range(1, factor_y):
            rows += img[dy::factor_y]
    rows = rows.reshape(oh, ow, factor_x, *img.shape[2:])
    return np.einsum("ijk...->ij...", rows, out=out, dtype=out.dtype)


def box_downscale(img: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Exact box-filter downscale by integer factors; trailing remainder is cropped.

    Input (H, W) or (H, W, C); output float64 means: the `block_sums`,
    divided by the block size once. Integer input sums in `sum_dtype` of a
    whole block, so the means equal `astype(float64).mean` over the blocks
    bit for bit; float input sums in float64.
    """
    h, w = img.shape[:2]
    count = factor_y * factor_x
    if img.dtype.kind in "iu":
        info = np.iinfo(img.dtype)
        acc = sum_dtype(info.min * count, info.max * count)
    else:
        acc = np.dtype(np.float64)
    sums = block_sums(img, factor_y, factor_x, np.empty((h // factor_y, w // factor_x, *img.shape[2:]), acc))
    return np.true_divide(sums, count, dtype=np.float64)


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Round half-up and clip to the 8-bit range."""
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)
