"""Multi-resolution raster standing in for a whole-slide image, and its
lesion mask: one 1024x1024 bool plane, on disk a P6 `mask.ppm` with 255 in
the red channel on lesion and 0 elsewhere (`mask_to_ppm`, `mask_from_ppm`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..raster import box_downscale, to_uint8

LEVEL_FACTORS = (1, 2, 4, 8, 16)
THUMB_SIDE = 1024


class RasterFileError(Exception):
    """A raster file that reads as P6 but breaks its size rule; names the path."""


def is_slide_side(side: int) -> bool:
    """The one rule for a slide's width and height: 1024 * 2**k px (`SynthSpec`)."""
    return side >= THUMB_SIDE and side & (side - 1) == 0


class PyramidImage:
    """Base raster plus lazily derived box-filtered levels.

    Level k has dims (H // factor, W // factor); reads at any level agree
    with area-averaging of level 0 to within rounding. Sides: `is_slide_side`.
    """

    def __init__(self, base: np.ndarray):
        base = np.asarray(base)
        if base.ndim != 3 or base.shape[2] != 3 or base.dtype != np.uint8:
            raise ValueError(f"PyramidImage wants (H, W, 3) uint8, got {base.shape} {base.dtype}")
        if not (is_slide_side(base.shape[1]) and is_slide_side(base.shape[0])):
            raise ValueError(f"slide sides must be 1024 * 2**k px, got {base.shape[1]}x{base.shape[0]}")
        self.base = base
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
    """The (1024, 1024) bool plane of a slide's lesion; True marks lesion."""

    red: np.ndarray

    def __post_init__(self):
        if self.red.shape != (THUMB_SIDE, THUMB_SIDE) or self.red.dtype != np.bool_:
            raise ValueError(f"mask must be a {THUMB_SIDE}x{THUMB_SIDE} bool plane, "
                             f"got {self.red.shape} {self.red.dtype}")


def mask_to_ppm(mask: LesionMask) -> np.ndarray:
    """The (1024, 1024, 3) uint8 raster of `mask.ppm`."""
    raster = np.zeros((THUMB_SIDE, THUMB_SIDE, 3), dtype=np.uint8)
    raster[:, :, 0][mask.red] = 255
    return raster


def mask_from_ppm(raster: np.ndarray) -> LesionMask:
    """The mask of a `mask.ppm` raster: red >= 128 marks lesion."""
    return LesionMask(raster[:, :, 0] >= 128)
