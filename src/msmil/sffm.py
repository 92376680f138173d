"""Semantic feature filtering: mask-space grid scan, red-fraction threshold,
coordinate mapping back to base pixels, and multi-scale patch cropping.

Geometry conventions (all tested against a brute-force re-scan):
* windows tile the 1024 mask non-overlapping, stride == window size d_k/s;
  positions accumulate in float, each window floors both bounds, and any
  window overflowing the mask is discarded (no padding);
* retention is strictly greater than the threshold (exactly 0.7 rejects);
* a kept window's float center (u, v) maps to base pixels via
  x = floor(u*s1 + 0.5), y = floor(v*s2 + 0.5), and refs whose crop would
  leave the base image are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .synthwsi.ppm import read_ppm
from .synthwsi.pyramid import THUMB_SIDE, LesionMask, PyramidImage

SCALE_SIDES = (512, 1024, 2048)
RED_THRESHOLD = 0.7


class ResolutionError(Exception):
    pass


class BoundsError(Exception):
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
    per_scale: tuple[int, int, int]
    slide_id: str = ""

    @property
    def total(self) -> int:
        return len(self.refs)

    def __post_init__(self):
        if sum(self.per_scale) != len(self.refs):
            raise ValueError("per-scale tallies do not add up to the ref count")


class MaskProvider(Protocol):
    kind: str

    def mask_for(self, ident: str) -> LesionMask: ...


class OracleMaskProvider:
    """Serves generator ground-truth masks by slide identity."""

    kind = "oracle"

    def __init__(self, masks: dict[str, LesionMask] | None = None):
        self._masks = dict(masks or {})

    def add(self, ident: str, mask: LesionMask) -> None:
        self._masks[ident] = mask

    def mask_for(self, ident: str) -> LesionMask:
        try:
            return self._masks[ident]
        except KeyError:
            raise CoverageError(f"no oracle mask for slide {ident!r}") from None


class FileMaskProvider:
    """Reads <root>/<ident>/mask.ppm; any value >= 128 counts as set."""

    kind = "file"

    def __init__(self, root: Path):
        self.root = Path(root)

    def mask_for(self, ident: str) -> LesionMask:
        path = self.root / ident / "mask.ppm"
        if not path.exists():
            raise CoverageError(f"no mask file at {path}")
        raster = (read_ppm(path) >= 128).astype(np.uint8)
        return LesionMask(raster, provenance="file")


def scan_grid(mask: LesionMask, s1: float, s2: float, d_k: int) -> list[tuple[int, int, int, int]]:
    """Non-overlapping windows (x_lo, y_lo, x_hi, y_hi) in mask space."""
    return _tile(mask.red.shape[0], s1, s2, d_k)


def _tile(side: int, s1: float, s2: float, d_k: int) -> list[tuple[int, int, int, int]]:
    """The windows of `scan_grid` over a side x side mask."""
    w = d_k / s1
    h = d_k / s2
    if w < 1.0 or h < 1.0:
        raise ResolutionError(
            f"patch side {d_k} maps below one mask pixel (window {w:.3f}x{h:.3f})"
        )

    def positions(step: float):
        out = []
        i = 0
        while True:
            lo = math.floor(i * step)
            hi = math.floor(i * step + step)
            if hi > side:
                break
            out.append((lo, hi))
            i += 1
        return out

    cols = positions(w)
    rows = positions(h)
    return [(x_lo, y_lo, x_hi, y_hi) for y_lo, y_hi in rows for x_lo, x_hi in cols]


def red_fraction(mask: LesionMask, window: tuple[int, int, int, int]) -> float:
    x_lo, y_lo, x_hi, y_hi = window
    region = mask.red[y_lo:y_hi, x_lo:x_hi]
    return float(np.count_nonzero(region)) / region.size


def window_to_ref(window: tuple[int, int, int, int], s1: float, s2: float, d_k: int,
                  width: int, height: int) -> PatchRef | None:
    """Map a mask-space window center to a base-pixel ref; None if the crop
    would leave the image."""
    x_lo, y_lo, x_hi, y_hi = window
    u = (x_lo + x_hi) / 2.0
    v = (y_lo + y_hi) / 2.0
    ref = PatchRef(math.floor(u * s1 + 0.5), math.floor(v * s2 + 0.5), d_k, scale_code_for(d_k))
    return ref if ref.in_bounds(width, height) else None


def filter_and_map(
    mask: LesionMask,
    windows: Iterable[tuple[int, int, int, int]],
    s1: float,
    s2: float,
    d_k: int,
    width: int | None = None,
    height: int | None = None,
    threshold: float = RED_THRESHOLD,
) -> list[PatchRef]:
    """Keep windows strictly above the red threshold; map centers to base pixels."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    if width is None:
        width = round(s1 * THUMB_SIDE)
    if height is None:
        height = round(s2 * THUMB_SIDE)
    refs = []
    for window in windows:
        if red_fraction(mask, window) <= threshold:
            continue
        ref = window_to_ref(window, s1, s2, d_k, width, height)
        if ref is not None:
            refs.append(ref)
    return refs


def crop_patch(image: PyramidImage, ref: PatchRef) -> np.ndarray:
    """Level-0 pixel copy of the ref's half-open window; never clamps."""
    if not ref.in_bounds(image.width, image.height):
        raise BoundsError(
            f"ref center ({ref.x}, {ref.y}) side {ref.d_k} leaves the "
            f"{image.width}x{image.height} image"
        )
    y0, y1, x0, x1 = ref.bounds()
    return image.crop(y0, y1, x0, x1)


def run_sffm(image: PyramidImage, provider: MaskProvider,
             scales: tuple[int, ...] = SCALE_SIDES,
             threshold: float = RED_THRESHOLD) -> PatchSet:
    """Full filtering pass over the requested scales, deterministically ordered
    by (d_k ascending, y ascending, x ascending)."""
    mask = provider.mask_for(image.ident)
    s1 = image.width / THUMB_SIDE
    s2 = image.height / THUMB_SIDE
    refs: list[PatchRef] = []
    tallies = {side: 0 for side in SCALE_SIDES}
    for d_k in sorted(scales):
        windows = scan_grid(mask, s1, s2, d_k)
        kept = filter_and_map(mask, windows, s1, s2, d_k, image.width, image.height, threshold)
        kept.sort(key=lambda r: (r.y, r.x))
        tallies[d_k] += len(kept)
        refs.extend(kept)
    per_scale = (tallies[512], tallies[1024], tallies[2048])
    return PatchSet(refs, per_scale, slide_id=image.ident)


def full_grid(width: int, height: int, scales: tuple[int, ...] = SCALE_SIDES) -> list[PatchRef]:
    """Every grid position of the scan tiling regardless of the mask, in
    (d_k ascending, y, x) order. The lesion-filtered refs are always a
    subset of these positions."""
    s1 = width / THUMB_SIDE
    s2 = height / THUMB_SIDE
    refs = []
    for d_k in sorted(scales):
        for window in _tile(THUMB_SIDE, s1, s2, d_k):
            ref = window_to_ref(window, s1, s2, d_k, width, height)
            if ref is not None:
                refs.append(ref)
    return refs


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
