"""Synthetic slide generator with a planted multi-scale class signal.

Each slide is stroma noise plus one lesion blob. Class identity is written
into the blob twice, at two deliberately disjoint scales:

* micro texture: a +/-`MICRO_AMP` pattern of period `MICRO_PERIOD` (32 px).
  It survives the 8x patch resize of 512 px crops but averages to exactly
  zero under the 32x resize of 2048 px crops, so it is invisible at 5x.
* macro bands: +/-`MACRO_AMP` intensity cells of side `MACRO_CELL` (1024 px),
  axis-aligned with every crop grid. A 512 or 1024 px crop sits inside a
  single cell and sees only an uninformative constant offset (cell phase is
  randomized per slide); a 2048 px crop spans several cells and reads the
  band orientation directly.

With four classes, 0 and 1 share the micro texture and differ only in band
orientation, while 2 and 3 share the (flat) macro pattern and differ only
in micro texture. A classifier restricted to one crop size therefore has
one indistinguishable class pair, capping its accuracy at (C-1)/C; both
cues together separate everything. The caps are recorded in the dataset
manifest. Stroma carries no class information at any scale. Every channel
of every pixel gets integer noise in [-`NOISE`, `NOISE`].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..numcore.rng import Rng
from .ppm import ppm_size, read_ppm, read_ppm_bands, write_ppm
from .pyramid import (THUMB_SIDE, LesionMask, PyramidImage, RasterFileError, check_slide_sides,
                      is_slide_side, mask_to_ppm)


class SpecError(Exception):
    pass


_MICRO_KINDS = ("vstripe", "hstripe", "checker")
_MACRO_KINDS = ("hband", "vband", "flat")

# (micro_kind, macro_kind) per class; prefix defines the C=2 and C=3 tasks
_CLASS_TRAITS = (
    ("vstripe", "hband"),
    ("vstripe", "vband"),
    ("hstripe", "flat"),
    ("checker", "flat"),
)

_STROMA = (205, 185, 198)
_LESION = (168, 146, 168)

# The planted signal. MICRO_PERIOD divides 32, the box factor of a 2048 px
# crop, so the 5x resize erases the texture exactly; MACRO_CELL is a crop
# side (512, 1024 or 2048), so macro cells stay aligned with the crop grid.
NOISE = 6
MICRO_PERIOD = 32
MICRO_AMP = 22
MACRO_CELL = 1024
MACRO_AMP = 12


@dataclass(frozen=True)
class SynthSpec:
    """Slide recipe. Sides are 1024 * 2**k px, so each crop starts on a multiple
    of its own side: macro cells and lesion blocks (8 mask px, 32 px at 4096)
    stay aligned with every crop, which shrinks by a whole box factor."""

    classes: int = 4
    width: int = 4096
    height: int = 4096
    lesion_fraction: float = 0.3

    def __post_init__(self):
        if not 2 <= self.classes <= len(_CLASS_TRAITS):
            raise SpecError(f"separability construction defined for 2..4 classes, got {self.classes}")
        if not 0.1 <= self.lesion_fraction <= 0.5:
            raise SpecError(f"lesion_fraction {self.lesion_fraction} outside [0.1, 0.5]")
        if not (is_slide_side(self.width) and is_slide_side(self.height)):
            raise SpecError(f"slide sides must be 1024 * 2**k px so that macro cells and 32 px lesion "
                            f"blocks stay aligned with every crop, got {self.width}x{self.height}")

    def traits(self, label: int) -> tuple[str, str]:
        return _CLASS_TRAITS[label]


def single_scale_caps(spec: SynthSpec) -> dict[int, float]:
    """Best achievable accuracy per crop size, from the ambiguity construction.

    512 and 1024 px crops resolve micro texture only; 2048 px crops resolve
    macro bands only. Cap = number of distinguishable groups / class count.
    """
    micro = {spec.traits(c)[0] for c in range(spec.classes)}
    macro = {spec.traits(c)[1] for c in range(spec.classes)}
    micro_cap = len(micro) / spec.classes
    macro_cap = len(macro) / spec.classes
    return {512: micro_cap, 1024: micro_cap, 2048: macro_cap}


# superellipse |u/a|^6 + |v/b|^6 <= 1; area = 4ab * K6
_K6 = math.gamma(1 + 1 / 6) ** 2 / math.gamma(1 + 2 / 6)


def _blob_geometry(spec: SynthSpec, rng: Rng):
    """Label-independent lesion placement in mask coordinates."""
    half = THUMB_SIDE // 2
    quad = rng.integers(0, 4)
    jit_x = rng.integers(-24, 25)
    jit_y = rng.integers(-24, 25)
    aspect = 0.95 + 0.1 * rng.uniform()
    radius = math.sqrt(spec.lesion_fraction * THUMB_SIDE * THUMB_SIDE / (4.0 * _K6))
    a = radius * math.sqrt(aspect)
    b = radius / math.sqrt(aspect)
    qcx = half // 2 + (quad % 2) * half
    qcy = half // 2 + (quad // 2) * half
    lo_x, hi_x = math.ceil(a) + 1, THUMB_SIDE - math.ceil(a) - 1
    lo_y, hi_y = math.ceil(b) + 1, THUMB_SIDE - math.ceil(b) - 1
    cx = min(max(qcx + jit_x, lo_x), hi_x)
    cy = min(max(qcy + jit_y, lo_y), hi_y)
    return cx, cy, a, b


_BLOCK = 8  # mask px; 32 base px at the default 4096 width


def _footprint(spec: SynthSpec, rng: Rng) -> np.ndarray:
    """Superellipse blob quantized to the 32-base-px grid.

    Quantization keeps every resize block of every crop size fully inside or
    fully outside the lesion, so the micro texture cancels exactly at 5x
    instead of leaking at the boundary.
    """
    cx, cy, a, b = _blob_geometry(spec, rng)
    n = THUMB_SIDE // _BLOCK
    centers = np.arange(n) * _BLOCK + (_BLOCK - 1) / 2.0
    ys = (centers - cy) / b
    xs = (centers - cx) / a
    blocks = (np.abs(xs[None, :]) ** 6 + np.abs(ys[:, None]) ** 6) <= 1.0
    return np.repeat(np.repeat(blocks, _BLOCK, axis=0), _BLOCK, axis=1)


def generate_mask(spec: SynthSpec, seed: int) -> LesionMask:
    """Oracle lesion mask for a slide seed: the blob's footprint."""
    return LesionMask(_footprint(spec, Rng(seed).child(1)))


def _sign_pattern(kind: str, h: int, w: int, phase_y: int, phase_x: int):
    """+/-1 field (broadcastable) for one texture or band kind."""
    half = MICRO_PERIOD // 2
    col = np.arange(w, dtype=np.int32)[None, :]
    row = np.arange(h, dtype=np.int32)[:, None]
    if kind == "vstripe":
        return (1 - 2 * ((col // half) & 1)).astype(np.int16)
    if kind == "hstripe":
        return (1 - 2 * ((row // half) & 1)).astype(np.int16)
    if kind == "checker":
        cx = ((col // half) & 1).astype(np.int16)
        cy = ((row // half) & 1).astype(np.int16)
        return 1 - 2 * (cx ^ cy)
    if kind == "hband":
        return (1 - 2 * ((row // MACRO_CELL + phase_y) & 1)).astype(np.int16)
    if kind == "vband":
        return (1 - 2 * ((col // MACRO_CELL + phase_x) & 1)).astype(np.int16)
    if kind == "flat":
        return np.zeros((1, 1), dtype=np.int16)
    raise ValueError(kind)


def generate_wsi(spec: SynthSpec, label: int, seed: int) -> tuple[PyramidImage, LesionMask]:
    """Pure function of (spec, label, seed); see the module docstring for the
    signal. The lesion footprint is `generate_mask(spec, seed)`."""
    if not 0 <= label < spec.classes:
        raise SpecError(f"label {label} out of range for {spec.classes} classes")
    h, w = spec.height, spec.width
    root = Rng(seed)
    noise_stream = root.child(2)
    phase_stream = root.child(3)
    # drawn unconditionally so stream positions never depend on the label
    phase_y = phase_stream.integers(0, 2)
    phase_x = phase_stream.integers(0, 2)

    mask = generate_mask(spec, seed)
    fy = np.arange(h) * THUMB_SIDE // h
    fx = np.arange(w) * THUMB_SIDE // w
    foot = mask.red[fy[:, None], fx[None, :]]

    micro_kind, macro_kind = spec.traits(label)
    micro = _sign_pattern(micro_kind, h, w, phase_y, phase_x)
    macro = _sign_pattern(macro_kind, h, w, phase_y, phase_x)
    lesion_signal = MICRO_AMP * micro + MACRO_AMP * macro

    img = np.empty((h, w, 3), dtype=np.uint8)
    n_levels = np.uint64(2 * NOISE + 1)
    # one u64 per pixel; independent 21-bit fields give the three channel noises
    bits = noise_stream.u64(h * w)
    field_mask = np.uint64(0x1FFFFF)
    for c in range(3):
        sub = (bits >> np.uint64(21 * c)) & field_mask
        noise = (sub % n_levels).astype(np.int16).reshape(h, w)
        noise -= NOISE
        chan = np.where(foot, _LESION[c] + lesion_signal, np.int16(_STROMA[c]))
        img[:, :, c] = np.clip(chan + noise, 0, 255).astype(np.uint8)
    return PyramidImage(img), mask


# --------------------------------------------------------- dataset on disk


@dataclass
class SlideRecord:
    ident: str
    label: int
    width: int
    height: int
    seed: int
    path: Path | None = None
    _image: PyramidImage | None = field(default=None, repr=False)

    def raster_size(self) -> tuple[int, int]:
        """(width, height) of the slide's raster, without reading a pixel: the
        image's in memory, else that of `image.ppm`, whose header, size and
        sides are checked (PpmError, or RasterFileError naming the file)."""
        if self._image is not None:
            return self._image.width, self._image.height
        path = self.path / "image.ppm"
        width, height = ppm_size(path)
        try:
            check_slide_sides(width, height)
        except ValueError as e:
            raise RasterFileError(f"{path}: {e}") from None
        return width, height

    def image(self) -> PyramidImage:
        """The slide's raster, read once from `image.ppm` after the checks of
        `raster_size`, and kept."""
        if self._image is None:
            self.raster_size()
            self._image = PyramidImage(read_ppm(self.path / "image.ppm"))
        return self._image

    def bands(self, rows: int) -> Iterator[np.ndarray]:
        """The slide's raster in bands of `rows` rows, top to bottom: slices of
        the image in memory, else bands of `image.ppm` read one at a time into
        one buffer that the next band overwrites (`read_ppm_bands`). Check the
        file with `raster_size` first: this checks its header and size only."""
        if self._image is not None:
            base = self._image.base
            return (base[y:y + rows] for y in range(0, len(base), rows))
        return read_ppm_bands(self.path / "image.ppm", rows)


@dataclass
class Dataset:
    spec: SynthSpec
    seed: int
    slides: list[SlideRecord]
    root: Path | None = None


def slide_seed(dataset_seed: int, index: int) -> int:
    return Rng(dataset_seed).child(index).u64()


def _slide_ident(index: int) -> str:
    return f"slide_{index:04d}"


def _generate_slides(spec: SynthSpec, n_slides: int, seed: int):
    """(ident, label, slide seed, image, mask) per slide; labels cycle
    round-robin so classes stay balanced."""
    for i in range(n_slides):
        label = i % spec.classes
        s_seed = slide_seed(seed, i)
        image, mask = generate_wsi(spec, label, s_seed)
        yield _slide_ident(i), label, s_seed, image, mask


def build_dataset(spec: SynthSpec, n_slides: int, seed: int) -> Dataset:
    """In-memory dataset of `_generate_slides`."""
    slides = []
    for ident, label, s_seed, image, _ in _generate_slides(spec, n_slides, seed):
        slides.append(SlideRecord(ident, label, spec.width, spec.height, s_seed, _image=image))
    return Dataset(spec, seed, slides)


def write_manifest(path: Path, entries: dict) -> None:
    with open(path, "w") as fh:
        for key, val in entries.items():
            fh.write(f"{key}={val}\n")


def read_manifest(path: Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and "=" in line:
            key, val = line.split("=", 1)
            out[key] = val
    return out


def write_dataset(root: Path, spec: SynthSpec, n_slides: int, seed: int) -> Dataset:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    caps = single_scale_caps(spec)
    slides = []
    for ident, label, s_seed, image, mask in _generate_slides(spec, n_slides, seed):
        sdir = root / ident
        sdir.mkdir(exist_ok=True)
        write_ppm(image.base, sdir / "image.ppm")
        write_ppm(mask_to_ppm(mask), sdir / "mask.ppm")
        write_manifest(sdir / "meta.txt", {
            "label": label,
            "W": spec.width,
            "H": spec.height,
            "seed": s_seed,
            "single_scale_cap": max(caps.values()),
        })
        slides.append(SlideRecord(ident, label, spec.width, spec.height, s_seed, path=sdir))
    write_manifest(root / "manifest.txt", {
        "slides": n_slides,
        "classes": spec.classes,
        "seed": seed,
        "width": spec.width,
        "height": spec.height,
        "lesion_fraction": spec.lesion_fraction,
        "cap_512": caps[512],
        "cap_1024": caps[1024],
        "cap_2048": caps[2048],
        "single_scale_cap": max(caps.values()),
    })
    return Dataset(spec, seed, slides, root=root)


def load_dataset(root: Path) -> Dataset:
    """The dataset `write_dataset` wrote; a slide it lists that is gone is a FileNotFoundError."""
    root = Path(root)
    man = read_manifest(root / "manifest.txt")
    spec = SynthSpec(
        classes=int(man["classes"]),
        width=int(man["width"]),
        height=int(man["height"]),
        lesion_fraction=float(man["lesion_fraction"]),
    )
    slides = []
    for i in range(int(man["slides"])):
        sdir = root / _slide_ident(i)
        if not sdir.is_dir():
            raise FileNotFoundError(f"slide directory {sdir} named by the manifest is missing")
        meta = read_manifest(sdir / "meta.txt")
        slides.append(SlideRecord(
            sdir.name, int(meta["label"]), int(meta["W"]), int(meta["H"]),
            int(meta["seed"]), path=sdir,
        ))
    return Dataset(spec, int(man["seed"]), slides, root=root)
