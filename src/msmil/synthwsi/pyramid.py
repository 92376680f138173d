"""Multi-resolution raster standing in for a whole-slide image."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..raster import box_downscale, to_uint8

LEVEL_FACTORS = (1, 2, 4, 8, 16)
THUMB_SIDE = 1024


class PyramidImage:
    """Base raster plus lazily derived box-filtered levels.

    Level k has dims (H // factor, W // factor); reads at any level agree
    with area-averaging of level 0 to within rounding.
    """

    def __init__(self, base: np.ndarray, ident: str = ""):
        base = np.asarray(base)
        if base.ndim != 3 or base.shape[2] != 3 or base.dtype != np.uint8:
            raise ValueError(f"PyramidImage wants (H, W, 3) uint8, got {base.shape} {base.dtype}")
        self.base = base
        self.ident = ident
        self._levels: dict[int, np.ndarray] = {1: base}

    @property
    def width(self) -> int:
        return self.base.shape[1]

    @property
    def height(self) -> int:
        return self.base.shape[0]

    def level(self, factor: int) -> np.ndarray:
        if factor not in LEVEL_FACTORS:
            raise ValueError(f"unsupported level factor {factor}, have {LEVEL_FACTORS}")
        if factor not in self._levels:
            self._levels[factor] = to_uint8(box_downscale(self.base, factor, factor))
        return self._levels[factor]


@dataclass
class LesionMask:
    """1024x1024x3 binary raster; the red channel marks lesion."""

    raster: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.raster)
        if r.shape != (THUMB_SIDE, THUMB_SIDE, 3):
            raise ValueError(f"mask must be {THUMB_SIDE}x{THUMB_SIDE}x3, got {r.shape}")
        if not np.isin(r, (0, 1)).all():
            raise ValueError("mask values must be 0 or 1")
        self.raster = r.astype(np.uint8)

    @property
    def red(self) -> np.ndarray:
        return self.raster[:, :, 0]

