"""Deterministic raster resampling helpers shared by the image pipeline."""

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


def _overlap_weights(n_in: int, n_out: int):
    """Per-output (start, weights) rows for exact area-average resampling."""
    ratio = n_in / n_out
    rows = []
    for j in range(n_out):
        lo = j * ratio
        hi = (j + 1) * ratio
        i0 = int(np.floor(lo))
        i1 = int(np.ceil(hi))
        w = np.minimum(np.arange(i0, i1) + 1.0, hi) - np.maximum(np.arange(i0, i1, dtype=np.float64), lo)
        rows.append((i0, w / ratio))
    return rows


def area_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Area-average resize to (out_h, out_w); exact for any shrink ratio.

    Falls back to the fast box path for integer factors.
    """
    h, w = img.shape[:2]
    if h % out_h == 0 and w % out_w == 0:
        return box_downscale(img, h // out_h, w // out_w)
    x = img.astype(np.float64)
    rows = _overlap_weights(h, out_h)
    tmp = np.stack([np.tensordot(wts, x[i0:i0 + len(wts)], axes=(0, 0)) for i0, wts in rows])
    cols = _overlap_weights(w, out_w)
    out = np.stack([np.tensordot(wts, tmp[:, i0:i0 + len(wts)], axes=(0, 1)) for i0, wts in cols], axis=1)
    return out


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear upsample (pixel-center convention, edges clamped)."""
    h, w = img.shape[:2]
    x = img.astype(np.float64)
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    if x.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top = x[y0][:, x0] * (1 - fx) + x[y0][:, x1] * fx
    bot = x[y1][:, x0] * (1 - fx) + x[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Round half-up and clip to the 8-bit range."""
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)
