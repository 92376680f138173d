"""Semantic feature filtering: each scale's tiling of the slide is its scan
grid, and a tile is kept when its block of the 1024 mask is mostly lesion.

Geometry (tested against a brute-force re-scan): slide sides are
1024 * 2**k px (`is_slide_side`), so for each d_k in `SCALE_SIDES` the grid
is the row-major (height / d_k) x (width / d_k) tiling of the slide, and
ref (i, j) is centred at (j * d_k + d_k / 2, i * d_k + d_k / 2). Tile (i, j)
maps to block (i, j) of the same tiling of the 1024 x 1024 `LesionMask`,
(1024 * d_k / height) x (1024 * d_k / width) mask px. `full_grid` is every
ref, in (d_k ascending, y, x) order; `run_sffm` keeps the refs whose block's
lesion share is strictly above `RED_THRESHOLD` (exactly 0.7 rejects), so
the filtered refs are always an ordered subsequence of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .synthwsi.ppm import read_ppm
from .synthwsi.pyramid import THUMB_SIDE, LesionMask, RasterFileError, is_slide_side, mask_from_ppm

SCALE_SIDES = (512, 1024, 2048)
RED_THRESHOLD = 0.7


class CoverageError(Exception):
    pass


def scale_code_for(d_k: int) -> int:
    """512 px <-> 0 (20x), 1024 <-> 1 (10x), 2048 <-> 2 (5x)."""
    try:
        return SCALE_SIDES.index(d_k)
    except ValueError:
        raise ValueError(f"patch side {d_k} not in {SCALE_SIDES}") from None


@dataclass(frozen=True)
class PatchRef:
    """Crop descriptor: center (x, y) in base pixels, side d_k, scale code."""

    x: int
    y: int
    d_k: int
    scale_code: int


@dataclass
class PatchSet:
    refs: list[PatchRef]

    @property
    def total(self) -> int:
        return len(self.refs)

    @property
    def per_scale(self) -> tuple[int, int, int]:
        """Ref counts at 512, 1024 and 2048 px."""
        return tuple(sum(r.d_k == side for r in self.refs) for side in SCALE_SIDES)


class MaskProvider(Protocol):
    def mask_for(self, ident: str) -> LesionMask: ...


class OracleMaskProvider:
    """Serves generator ground-truth masks by slide identity."""

    def __init__(self, masks: dict[str, LesionMask] | None = None):
        self._masks = dict(masks or {})

    def mask_for(self, ident: str) -> LesionMask:
        try:
            return self._masks[ident]
        except KeyError:
            raise CoverageError(f"no oracle mask for slide {ident!r}") from None


class FileMaskProvider:
    """Reads <root>/<ident>/mask.ppm (layout: `synthwsi.mask_from_ppm`); a
    file that is not a 1024x1024 raster raises RasterFileError."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def mask_for(self, ident: str) -> LesionMask:
        path = self.root / ident / "mask.ppm"
        if not path.exists():
            raise CoverageError(f"no mask file at {path}")
        try:
            return mask_from_ppm(read_ppm(path))
        except ValueError as e:
            raise RasterFileError(f"{path}: {e}") from None


def tiling(width: int, height: int) -> list[tuple[int, int, int]]:
    """(d_k, rows, cols) of each scale that tiles a width x height slide at
    least once, d_k ascending. A side that is not 1024 * 2**k px, or so large
    that a 512 px tile covers less than one mask pixel, is a ValueError."""
    for side in (width, height):
        if not (is_slide_side(side) and side <= SCALE_SIDES[0] * THUMB_SIDE):
            raise ValueError(f"slide side {side} px is not 1024 * 2**k for 0 <= k <= 9")
    return [(d_k, height // d_k, width // d_k) for d_k in SCALE_SIDES if d_k <= min(width, height)]


def full_grid(width: int, height: int) -> list[PatchRef]:
    """Every tile's ref, in (d_k ascending, y, x) order."""
    return [PatchRef(j * d_k + d_k // 2, i * d_k + d_k // 2, d_k, scale_code_for(d_k))
            for d_k, rows, cols in tiling(width, height)
            for i in range(rows) for j in range(cols)]


def run_sffm(width: int, height: int, mask: LesionMask) -> PatchSet:
    """The grid refs of a width x height slide whose mask block is strictly
    above the red threshold, in `full_grid` order."""
    keep = []
    for _, rows, cols in tiling(width, height):
        h, w = THUMB_SIDE // rows, THUMB_SIDE // cols
        count = np.count_nonzero(mask.red.reshape(rows, h, cols, w), axis=(1, 3))
        keep.append((count / (h * w) > RED_THRESHOLD).ravel())
    grid = full_grid(width, height)
    return PatchSet([ref for ref, kept in zip(grid, np.concatenate(keep)) if kept])


# ---------------------------------------------------------------- ref dumps


def write_refs(refs: Iterable[PatchRef], path: Path) -> None:
    """One `x y d_k scale_code` line per ref, in the order given."""
    with open(path, "w") as fh:
        for r in refs:
            fh.write(f"{r.x} {r.y} {r.d_k} {r.scale_code}\n")


def read_refs(path: Path) -> list[PatchRef]:
    refs = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        x, y, d_k, code = (int(tok) for tok in line.split())
        refs.append(PatchRef(x, y, d_k, code))
    return refs
