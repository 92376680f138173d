"""End-to-end joint training, cached-feature refinement, and inference.

Training keeps one slide's bag per optimizer step: the recording graph spans
patch encoding through the attention network and the loss, so gradients
reach both parameter groups (the end-to-end coupling this build exists to
demonstrate). Stage two freezes the encoder by construction: it trains the
attention network on cached feature files in which patches are constants.
The whole recipe is one `TrainConfig`, and `train_full` its one trainer:
`epochs` of joint training at `lr`, then `stage2_epochs` of refinement at
`stage2_lr` (none by default), the schedule `TrainConfig.stage2()` maps.
Both stages run one step (`_bag_step`) over one epoch loop (`_train_epochs`:
slide order, batch streams, divergence check and manifest entries); stage
two's bags hold constant features. A non-finite loss, or a finite loss with
a non-finite gradient, stops training before it reaches the parameters; a
feature not finite as float32 never reaches a cache. Training keeps freed
heap in the process, so no step faults in its tape afresh.

Per-slide patches are box-filtered once into an in-memory bank; they are
pure functions of the slide, so the cache changes nothing observable. A bank
is built from one streamed pass over the slide's pixels (`pyramid_sums`):
exact integer block sums, band by band, then 2 x 2 sums of those, divided
once into the float32 bank.

One rule picks a slide's instances: `SlideBank.usable_idx`, the lesion set
or the non-background grid at the configured scales, falling back from an
empty lesion set to that grid with a flag. Training batches (`select_batch`),
the feature cache, inference and every evaluation strategy go through it.
"""

from __future__ import annotations

import ctypes
import math
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import numcore as nc
from . import raster
from .iaam import Bag, IaamConfig, IaamNet
from .msfem import EncoderConfig, PatchEncoder, check_patch_side
from .params import ParamStore
from .raster import block_sums, sum_dtype
from .sffm import (
    SCALE_SIDES,
    MaskProvider,
    OracleMaskProvider,
    PatchRef,
    PatchSet,
    full_grid,
    run_sffm,
    tiling,
)
from .synthwsi import Dataset, SlideRecord, generate_mask

# Not called here: the benchmark's tracer (perfbench/trace.py) wraps the name
# `pipeline.box_downscale`, so it stays until the tracer's targets follow `block_sums`.
box_downscale = raster.box_downscale

BACKGROUND_MEAN = 240.0  # patches brighter than this on every channel are skipped
RANDOM_QUOTAS = (46, 11, 3)  # random_k picks at 20x/10x/5x, desk scale


class EmptySlideError(Exception):
    pass


class DivergenceError(Exception):
    def __init__(self, step: int, what: str):
        super().__init__(f"{what} at step {step}")
        self.step = step


class CacheFormatError(Exception):
    pass


class NonFiniteFeatureError(Exception):
    pass


PATCH_SOURCES = ("all_nonbackground", "lesion_only", "random_k")


@dataclass(frozen=True)
class TrainConfig:
    instances_per_graph: int = 64
    lr: float = 0.05
    epochs: int = 6
    seed: int = 0
    stage: str = "e2e"                      # e2e | mil_only
    patch_source: str = "all_nonbackground"
    scales: tuple[int, ...] = SCALE_SIDES
    random_quotas: tuple[int, int, int] = RANDOM_QUOTAS
    stage2_epochs: int = 0                  # cached-feature refinement after e2e
    stage2_lr: float = 0.05

    def __post_init__(self):
        if self.instances_per_graph < 1:
            raise ValueError("instances_per_graph must be >= 1")
        for key in ("lr", "stage2_lr", "epochs", "stage2_epochs"):
            val = getattr(self, key)
            if not (math.isfinite(val) and val >= 0):
                raise ValueError(f"train.{key} must be finite and >= 0, got {val}")
        if len(self.random_quotas) != 3 or any(not isinstance(q, int) or q < 0 for q in self.random_quotas):
            raise ValueError(f"train.random_quotas must be three ints >= 0, got {self.random_quotas}")
        if self.stage not in ("e2e", "mil_only"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.patch_source not in PATCH_SOURCES:
            raise ValueError(f"unknown patch source {self.patch_source!r}")
        if any(s not in SCALE_SIDES for s in self.scales) or not self.scales:
            raise ValueError(f"scales must be a non-empty subset of {SCALE_SIDES}")

    def stage2(self) -> TrainConfig:
        """The refinement's schedule: `stage2_epochs` at `stage2_lr`, in the
        `epochs` and `lr` that `train_mil_stage2` reads."""
        return replace(self, epochs=self.stage2_epochs, lr=self.stage2_lr)


@dataclass
class Model:
    encoder: PatchEncoder
    mil: IaamNet
    store: ParamStore
    encoder_cfg: EncoderConfig
    mil_cfg: IaamConfig


def build_model(encoder_cfg: EncoderConfig, mil_cfg: IaamConfig, seed: int) -> Model:
    if mil_cfg.dim != encoder_cfg.token_dim:
        raise ValueError(
            f"attention dim {mil_cfg.dim} must equal encoder token dim {encoder_cfg.token_dim}"
        )
    store = ParamStore()
    rng = nc.Rng(seed)
    encoder = PatchEncoder(encoder_cfg, store, rng.child(1))
    mil = IaamNet(mil_cfg, store, rng.child(2))
    return Model(encoder, mil, store, encoder_cfg, mil_cfg)


# ------------------------------------------------------------- patch banks


@dataclass
class SlideBank:
    """Patches for every grid position of one slide, plus which of them
    the lesion filter retained. Patch pixels are pure functions of the slide,
    so caching them is observationally neutral."""

    ident: str
    label: int
    width: int
    height: int
    refs: list[PatchRef]                  # full grid, (d_k asc, y, x) order
    patches: np.ndarray                   # (n, S, S, 3) float32, 0..255
    background: np.ndarray                # (n,) bool
    lesion_idx: np.ndarray                # indices into refs, sffm order
    lesion_set: PatchSet = field(repr=False, default=None)

    def usable_idx(self, source: str, scales: tuple[int, ...]) -> tuple[np.ndarray, bool]:
        """The slide's instances at `scales`, and whether they fell back: the
        lesion set under "lesion_only", else the non-background grid. An
        empty lesion set falls back to the non-background grid with the flag
        set; EmptySlideError when nothing at `scales` is non-background."""
        idx = self.lesion_idx if source == "lesion_only" else np.flatnonzero(~self.background)
        if tuple(scales) != SCALE_SIDES:
            idx = np.asarray([i for i in idx if self.refs[i].d_k in scales], dtype=np.int64)
        if len(idx):
            return idx, False
        if source == "lesion_only":
            return self.usable_idx("all_nonbackground", scales)[0], True
        raise EmptySlideError(f"slide {self.ident} has no usable patches")


def fallback_slides(banks: list[SlideBank], source: str, scales: tuple[int, ...]) -> int:
    """How many of `banks` fall back from an empty lesion set to their
    non-background grid under `source` at `scales` (`SlideBank.usable_idx`)."""
    return sum(b.usable_idx(source, scales)[1] for b in banks)


def pyramid_sums(record: SlideRecord, first: int, top: int) -> dict[int, np.ndarray]:
    """Integer block sums of the slide's pixels at factors first, 2 * first,
    ..., top: factor -> (H // factor, W // factor, 3) in the narrowest type
    that holds a block of 8-bit pixels, so uint8 at factor 1. The first level
    is summed band by band in one pass over the raster (`SlideRecord.bands`;
    a band is one row of the finest crops, a whole number of first-level
    blocks); each coarser level is the 2 x 2 sums of the one before. The sums
    are exact, so each level equals summing the base by its factor directly."""
    width, height = record.raster_size()
    factors = [first]
    while factors[-1] < top:
        factors.append(2 * factors[-1])
    levels = {f: np.empty((height // f, width // f, 3), sum_dtype(0, 255 * f * f)) for f in factors}
    y = 0
    for band in record.bands(SCALE_SIDES[0]):
        block_sums(band, first, first, levels[first][y:y + len(band) // first])
        y += len(band) // first
    for f in factors[1:]:
        block_sums(levels[f // 2], 2, 2, levels[f])
    return levels


def build_bank(record: SlideRecord, provider: MaskProvider, resize_side: int) -> SlideBank:
    check_patch_side(resize_side)  # with 1024 * 2**k slide sides, each crop slices a box level
    width, height = record.raster_size()
    lesion = run_sffm(width, height, provider.mask_for(record.ident))
    grid = full_grid(width, height)
    pos = {r: i for i, r in enumerate(grid)}
    tiles = tiling(width, height)
    sums = pyramid_sums(record, SCALE_SIDES[0] // resize_side, tiles[-1][0])
    patches = np.empty((len(grid), resize_side, resize_side, 3), dtype=np.float32)
    background = np.empty(len(grid), dtype=bool)
    # tile (i, j) of scale d_k is block (i, j) of the factor f = d_k // S level.
    # Its sums are divided by f * f straight into the float32 bank: f * f is a
    # power of two, so each value is the float64 box mean rounded once to
    # float32. A patch is background when its d_k x d_k sums exceed 240 per
    # pixel on every channel, i.e. its box mean exceeds BACKGROUND_MEAN.
    start = 0
    for d_k, rows, cols in tiles:
        end = start + rows * cols
        f = d_k // resize_side
        np.true_divide(sums[f].reshape(rows, resize_side, cols, resize_side, 3).swapaxes(1, 2), f * f,
                       out=patches[start:end].reshape(rows, cols, resize_side, resize_side, 3),
                       dtype=np.float32)
        background[start:end] = (sums[d_k] > BACKGROUND_MEAN * d_k * d_k).all(-1).ravel()
        start = end
    lesion_idx = np.asarray([pos[r] for r in lesion.refs], dtype=np.int64)
    return SlideBank(record.ident, record.label, width, height,
                     grid, patches, background, lesion_idx, lesion_set=lesion)


def build_banks(dataset: Dataset, provider: MaskProvider, resize_side: int) -> list[SlideBank]:
    return [build_bank(rec, provider, resize_side) for rec in dataset.slides]


# ------------------------------------------------------------ batch choice


def select_batch(bank: SlideBank, source: str, batch: int, rng: nc.Rng,
                 scales: tuple[int, ...] = SCALE_SIDES,
                 quotas: tuple[int, int, int] = RANDOM_QUOTAS) -> np.ndarray:
    """`bank.usable_idx(source, scales)`, cut under "random_k" to `quotas[c]`
    random picks of each scale code c; then a uniform sample without
    replacement of min(batch, available) of those grid indices."""
    idx, _ = bank.usable_idx(source, scales)
    if source == "random_k":
        codes = np.asarray([bank.refs[i].scale_code for i in idx], dtype=np.int64)
        picks = []
        for code, quota in enumerate(quotas):
            scale_idx = idx[codes == code]
            picks.append(scale_idx[rng.sample(len(scale_idx), min(quota, len(scale_idx)))])
        idx = np.sort(np.concatenate(picks))
        if len(idx) == 0:
            raise EmptySlideError(f"slide {bank.ident}: random quotas {tuple(quotas)} pick no patch")
    if batch >= len(idx):
        return idx
    pick = rng.sample(len(idx), batch)
    return idx[np.sort(pick)]


def bag_from_bank(bank: SlideBank, idx: np.ndarray, model: Model) -> Bag:
    refs = [bank.refs[i] for i in idx]
    coords = np.asarray([(r.x, r.y) for r in refs], dtype=np.int64)
    scales = np.asarray([r.scale_code for r in refs], dtype=np.int64)
    features = model.encoder.extract_batch(bank.patches[idx])
    return Bag(features, coords, scales, bank.width, bank.height, label=bank.label)


# --------------------------------------------------------------- training


def _keep_freed_heap() -> None:
    """Keep up to 1 GiB of freed heap in the process, in one arena. By default
    glibc unmaps each freed block above its mmap threshold and trims the heap
    top, so every step faults its tape in again page by page. Under the raised
    thresholds each span-pool thread would also keep the blocks it freed in an
    arena of its own, which adds their peak to the main one's; one arena
    lets every thread reuse the same freed blocks. Does nothing off glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    # M_ARENA_MAX, M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
    for param, value in ((-8, 1), (-1, 1 << 30), (-3, 1 << 30)):
        libc.mallopt(param, value)


def _train_epochs(stage: str, labels: list[int], cfg: TrainConfig, params: list[nc.Tensor],
                  step) -> dict:
    """The epoch schedule both training stages run, and its manifest.
    `step(pos, rng)` trains on the slide at position `pos` with the epoch's
    batch rng and returns (loss, predicted label). A non-finite loss or
    gradient of `params` raises DivergenceError."""
    _keep_freed_heap()
    t0 = time.perf_counter()
    manifest: dict = {"stage": stage, "slides": len(labels)}
    root = nc.Rng(cfg.seed)
    steps = 0
    for epoch in range(cfg.epochs):
        order = root.child(100 + epoch).permutation(len(labels))
        batch_rng = root.child(200 + epoch)
        losses, hits = [], 0
        for pos in order:
            loss, pred = step(pos, batch_rng)
            what = _non_finite(loss, params)
            if what:
                raise DivergenceError(steps, what)
            losses.append(loss)
            hits += int(pred == labels[pos])
            steps += 1
        manifest[f"epoch{epoch}_loss"] = f"{np.mean(losses):.6f}"
        manifest[f"epoch{epoch}_acc"] = f"{hits / len(labels):.4f}"
    manifest["steps"] = steps
    manifest["wall_clock_s"] = f"{time.perf_counter() - t0:.3f}"
    return manifest


def _non_finite(loss: float, params: list[nc.Tensor]) -> str | None:
    """What makes a step diverge: a non-finite loss, else the first parameter
    with a non-finite gradient; None when both are finite."""
    if not np.isfinite(loss):
        return f"non-finite loss {loss!r}"
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            return f"non-finite gradient of {p.name}"
    return None


def _bag_step(model: Model, opt: nc.GradAccumSgd, make_bag) -> tuple[float, int]:
    """One optimizer step on one bag: a recorded forward from `make_bag()`
    through the attention network to the loss, backward, and the update of
    `opt`'s parameters. A non-finite loss skips backward and update, and a
    non-finite gradient skips the update, so neither reaches the parameters.
    Returns (loss, predicted label)."""
    opt.zero_grad()
    with nc.record() as graph:
        bag = make_bag()
        logits = model.mil.forward_logits(bag)
        loss = nc.cross_entropy(logits, bag.label)
    if np.isfinite(loss.item()):
        graph.backward(loss)
        if _non_finite(loss.item(), opt.params) is None:
            opt.step()
    return loss.item(), int(np.argmax(logits.data))


def e2e_train_step(bank: SlideBank, model: Model, opt: nc.GradAccumSgd,
                   cfg: TrainConfig, rng: nc.Rng) -> tuple[float, int]:
    """One recorded forward/backward over a sampled bag; updates both the
    extractor and the attention parameters through the shared optimizer.
    Returns (loss, predicted label)."""
    idx = select_batch(bank, cfg.patch_source, cfg.instances_per_graph, rng,
                       cfg.scales, cfg.random_quotas)
    return _bag_step(model, opt, lambda: bag_from_bank(bank, idx, model))


def train_e2e(banks: list[SlideBank], model: Model, cfg: TrainConfig) -> dict:
    """Joint training over epochs x slides (one slide bag per step)."""
    opt = nc.GradAccumSgd(model.store.tensors(), lr=cfg.lr)
    # `e2e_train_step` is looked up per step, so a caller may wrap it
    return _train_epochs("e2e", [b.label for b in banks], cfg, opt.params,
                         lambda pos, rng: e2e_train_step(banks[pos], model, opt, cfg, rng))


# ---------------------------------------------------------- feature cache


CACHE_MAGIC = b"MSML"
CACHE_VERSION = 1


@dataclass
class FeatureCache:
    rows: np.ndarray                       # (count, dim) float32
    sidecar: list[tuple[str, int, int, int, int]]  # slide_id, x, y, d_k, scale_code

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2:
            raise CacheFormatError(f"rows must be 2-D, got shape {self.rows.shape}")
        if self.rows.shape[0] != len(self.sidecar):
            raise CacheFormatError(
                f"{self.rows.shape[0]} rows vs {len(self.sidecar)} sidecar entries"
            )

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def by_slide(self) -> dict[str, np.ndarray]:
        out: dict[str, list[int]] = {}
        for i, entry in enumerate(self.sidecar):
            out.setdefault(entry[0], []).append(i)
        return {k: np.asarray(v, dtype=np.int64) for k, v in out.items()}


def cache_features(banks: list[SlideBank], model: Model,
                   scales: tuple[int, ...] = SCALE_SIDES) -> FeatureCache:
    """Inference-mode extraction (no graph) of the rows `infer_bank` encodes
    for each slide; rows follow slide id, then `usable_idx` order. Values
    are stored as 32-bit floats (relative downcast error bounded by 2**-24);
    one that overflows them is refused."""
    rows = []
    sidecar = []
    for bank in sorted(banks, key=lambda b: b.ident):
        idx, _ = bank.usable_idx("lesion_only", scales)
        feats = model.encoder.extract_batch(bank.patches[idx])
        with np.errstate(over="ignore"):
            rows.append(feats.data.astype(np.float32))
        if not np.isfinite(rows[-1]).all():
            raise NonFiniteFeatureError(f"slide {bank.ident}: features not finite as float32")
        for i in idx:
            r = bank.refs[i]
            sidecar.append((bank.ident, r.x, r.y, r.d_k, r.scale_code))
    dim = model.encoder_cfg.token_dim
    stacked = np.concatenate(rows, axis=0) if rows else np.zeros((0, dim), dtype=np.float32)
    return FeatureCache(stacked, sidecar)


def write_cache(cache: FeatureCache, path: Path) -> None:
    path = Path(path)
    header = CACHE_MAGIC + struct.pack("<III", CACHE_VERSION, cache.rows.shape[0], cache.rows.shape[1])
    path.write_bytes(header + np.ascontiguousarray(cache.rows, dtype="<f4").tobytes())
    with open(sidecar_path(path), "w") as fh:
        for ident, x, y, d_k, code in cache.sidecar:
            fh.write(f"{ident} {x} {y} {d_k} {code}\n")


def sidecar_path(path: Path) -> Path:
    return Path(str(path) + ".sidecar")


def read_cache(path: Path) -> FeatureCache:
    path = Path(path)
    buf = path.read_bytes()
    if buf[:4] != CACHE_MAGIC:
        raise CacheFormatError(f"bad magic {buf[:4]!r}")
    if len(buf) < 16:
        raise CacheFormatError(f"header cut short at {len(buf)} bytes")
    version, count, dim = struct.unpack_from("<III", buf, 4)
    if version != CACHE_VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    need = count * dim * 4
    data = buf[16:]
    if len(data) != need:
        raise CacheFormatError(f"raster size {len(data)} != expected {need}")
    rows = np.frombuffer(data, dtype="<f4").reshape(count, dim).astype(np.float32)
    sidecar = []
    try:
        for line in sidecar_path(path).read_text().splitlines():
            if not line.strip():
                continue
            ident, x, y, d_k, code = line.split()
            sidecar.append((ident, int(x), int(y), int(d_k), int(code)))
    except ValueError as e:  # a short line, a bad number, or bytes that are not text
        raise CacheFormatError(f"malformed sidecar: {e}") from None
    return FeatureCache(rows, sidecar)


# -------------------------------------------------------- stage-2 training


def train_mil_stage2(cache: FeatureCache, labels: dict[str, int], model: Model,
                     cfg: TrainConfig, slide_dims: dict[str, tuple[int, int]]) -> dict:
    """Per-slide full-bag training of the attention network only. Features
    are graph constants, so extractor gradients are zero by construction.
    A cache that does not match the labels, the slide sizes or the model's
    feature width is a CacheFormatError, raised before the first step."""
    if cache.rows.shape[0] == 0:
        raise CacheFormatError("empty feature cache")
    groups = cache.by_slide()
    idents = sorted(groups)
    unknown = [ident for ident in idents if ident not in labels or ident not in slide_dims]
    if unknown:
        raise CacheFormatError(f"cache slide {unknown[0]!r} has no label or no slide size")
    if cache.dim != model.mil_cfg.dim:
        raise CacheFormatError(f"cache features have dim {cache.dim}, the model wants {model.mil_cfg.dim}")
    opt = nc.GradAccumSgd(model.store.subset("mil."), lr=cfg.lr)
    # each slide's rows, coordinates and scale codes, built once for every epoch
    layout = {}
    for ident, idx in groups.items():
        entries = [cache.sidecar[i] for i in idx]
        layout[ident] = (idx, np.asarray([(e[1], e[2]) for e in entries], dtype=np.int64),
                         np.asarray([e[4] for e in entries], dtype=np.int64))

    def step(pos: int, _rng: nc.Rng) -> tuple[float, int]:
        ident = idents[pos]
        idx, coords, scales = layout[ident]
        feats = nc.tensor(cache.rows[idx].astype(np.float64))
        return _bag_step(model, opt, lambda: Bag(feats, coords, scales, *slide_dims[ident],
                                                 label=labels[ident]))

    return _train_epochs("mil_only", [labels[ident] for ident in idents], cfg, opt.params, step)


# ---------------------------------------------------------------- inference


@dataclass
class InferResult:
    predicted: int
    probabilities: np.ndarray
    patch_count: int
    wall_ms: float
    fallback: bool = False


def infer_bank(bank: SlideBank, model: Model, scales: tuple[int, ...] = SCALE_SIDES) -> InferResult:
    """Filter -> extract -> fuse, no graph recording, on the bag of
    `bank.usable_idx("lesion_only", scales)`; the result carries its fallback flag."""
    t0 = time.perf_counter()
    idx, fallback = bank.usable_idx("lesion_only", scales)
    bag = bag_from_bank(bank, idx, model)
    probs = model.mil.forward(bag).data[0]
    wall = (time.perf_counter() - t0) * 1000.0
    return InferResult(int(np.argmax(probs)), probs, len(idx), wall, fallback)


# ---------------------------------------------------------------- protocol


def oracle_provider(dataset: Dataset):
    """Ground-truth masks for every slide, regenerated from slide seeds."""
    return OracleMaskProvider({rec.ident: generate_mask(dataset.spec, rec.seed)
                               for rec in dataset.slides})


def train_full(banks: list[SlideBank], model: Model,
               cfg: TrainConfig) -> tuple[dict, FeatureCache | None]:
    """The training protocol, in place on `model`: joint training, then,
    when `cfg.stage2_epochs` > 0, refinement of the attention network on
    the trained encoder's cached features of `banks`. Returns the joint
    stage's manifest with the refinement's entries under `stage2.`, and
    the refinement's cache (None without one). The refinement leaves the
    encoder as it was, so that cache is the trained model's cache too.
    `lesion_fallback_slides` counts the slides whose lesion_only batches
    and cache rows are their non-background grid."""
    manifest = train_e2e(banks, model, cfg)
    manifest["lesion_fallback_slides"] = fallback_slides(banks, "lesion_only", cfg.scales)
    cache = None
    if cfg.stage2_epochs > 0:
        cache = cache_features(banks, model, scales=cfg.scales)
        labels = {b.ident: b.label for b in banks}
        dims = {b.ident: (b.width, b.height) for b in banks}
        refined = train_mil_stage2(cache, labels, model, cfg.stage2(), dims)
        manifest.update({f"stage2.{k}": v for k, v in refined.items()})
    return manifest, cache
