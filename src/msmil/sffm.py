"""Semantic feature filtering: one walk over the scan grid of the 1024 mask
and a red-fraction predicate on its windows, giving multi-scale patch refs.

`_walk` is the only tiling. It yields each scan window with the base-pixel
ref its center maps to; `full_grid(width, height)` is the refs of every
window and `run_sffm(width, height, mask)` the refs of the windows whose
lesion share in the `LesionMask` plane is above the red threshold, so the
filtered refs are always an ordered subsequence of the grid.

Geometry conventions (all tested against a brute-force re-scan):
* windows tile the 1024 mask non-overlapping, stride == window size d_k/s;
  positions accumulate in float, each window floors both bounds, and any
  window overflowing the mask is discarded (no padding);
* a window's float center (u, v) maps to base pixels via
  x = floor(u*s1 + 0.5), y = floor(v*s2 + 0.5), and windows whose crop would
  leave the base image are dropped;
* retention is strictly greater than the threshold (exactly 0.7 rejects).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .synthwsi.ppm import read_ppm
from .synthwsi.pyramid import THUMB_SIDE, LesionMask, RasterFileError, mask_from_ppm

SCALE_SIDES = (512, 1024, 2048)
RED_THRESHOLD = 0.7


class ResolutionError(Exception):
    pass


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

    def bounds(self) -> tuple[int, int, int, int]:
        """(y0, y1, x0, x1) of the half-open crop window."""
        half = self.d_k // 2
        return self.y - half, self.y + half, self.x - half, self.x + half

    def in_bounds(self, width: int, height: int) -> bool:
        y0, y1, x0, x1 = self.bounds()
        return 0 <= x0 and x1 <= width and 0 <= y0 and y1 <= height


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


def _spans(step: float) -> list[tuple[int, int]]:
    """(lo, hi) of each whole window along one 1024 px mask axis."""
    out = []
    i = 0
    while math.floor(i * step + step) <= THUMB_SIDE:
        out.append((math.floor(i * step), math.floor(i * step + step)))
        i += 1
    return out


def _walk(width: int, height: int, scales: Iterable[int]):
    """Yield (window, ref) for every scan window of the 1024 mask, in
    (d_k ascending, y, x) order: the window (x_lo, y_lo, x_hi, y_hi) in mask
    pixels and the ref its float center maps to. Windows whose crop would
    leave the width x height image are skipped."""
    s1 = width / THUMB_SIDE
    s2 = height / THUMB_SIDE
    for d_k in sorted(scales):
        w = d_k / s1
        h = d_k / s2
        if w < 1.0 or h < 1.0:
            raise ResolutionError(
                f"patch side {d_k} maps below one mask pixel (window {w:.3f}x{h:.3f})"
            )
        code = scale_code_for(d_k)
        cols = _spans(w)
        for y_lo, y_hi in _spans(h):
            y = math.floor((y_lo + y_hi) / 2.0 * s2 + 0.5)
            for x_lo, x_hi in cols:
                ref = PatchRef(math.floor((x_lo + x_hi) / 2.0 * s1 + 0.5), y, d_k, code)
                if ref.in_bounds(width, height):
                    yield (x_lo, y_lo, x_hi, y_hi), ref


def red_fraction(mask: LesionMask, window: tuple[int, int, int, int]) -> float:
    x_lo, y_lo, x_hi, y_hi = window
    region = mask.red[y_lo:y_hi, x_lo:x_hi]
    return float(np.count_nonzero(region)) / region.size


def run_sffm(width: int, height: int, mask: LesionMask,
             scales: tuple[int, ...] = SCALE_SIDES,
             threshold: float = RED_THRESHOLD) -> PatchSet:
    """The grid refs of a width x height slide whose mask window is strictly
    above the red threshold, in `full_grid` order."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    refs = [ref for window, ref in _walk(width, height, scales)
            if red_fraction(mask, window) > threshold]
    return PatchSet(refs)


def full_grid(width: int, height: int, scales: tuple[int, ...] = SCALE_SIDES) -> list[PatchRef]:
    """Every ref of the scan grid regardless of the mask, in (d_k ascending,
    y, x) order."""
    return [ref for _, ref in _walk(width, height, scales)]


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
