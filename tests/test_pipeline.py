import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import msmil.numcore as nc
from msmil.iaam import IaamConfig
from msmil.msfem import ConfigError, EncoderConfig
from msmil.paramio import ParamFormatError, load_params, read_params, write_params
from msmil.pipeline import (
    PATCH_SOURCES,
    CacheFormatError,
    DivergenceError,
    EmptySlideError,
    FeatureCache,
    NonFiniteFeatureError,
    TrainConfig,
    bag_from_bank,
    build_bank,
    build_model,
    cache_features,
    e2e_train_step,
    infer_bank,
    oracle_provider,
    pyramid_sums,
    read_cache,
    select_batch,
    sidecar_path,
    train_e2e,
    train_full,
    train_mil_stage2,
    write_cache,
)
from msmil.raster import box_downscale
from msmil.sffm import OracleMaskProvider, tiling
from msmil.synthwsi import (LesionMask, PpmError, RasterFileError, SlideRecord, SynthSpec, build_dataset,
                            load_dataset, read_ppm, write_dataset)
from tests.conftest import TINY_SIDE, fresh_tiny_model, tiny_model_config


# ------------------------------------------------------------------ banks

# SHA-256 over every tiny bank's patches, background flags and lesion_idx, in
# slide order. Recorded before the crop-and-resize fallback was deleted; a
# change to how banks are built (say, one integer pyramid) must keep it.
TINY_BANKS_SHA256 = "8192a746bca5402aa37f99aba99289d5bdb18b493e376b6b8da4e5a8ef267d09"


def test_tiny_bank_bytes_are_pinned(tiny_banks):
    digest = hashlib.sha256()
    for bank in tiny_banks:
        for arr in (bank.patches, bank.background, bank.lesion_idx):
            digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == TINY_BANKS_SHA256


@pytest.fixture(scope="module", params=[1024, 2048], ids=lambda side: f"{side}px")
def twin_datasets(request, tmp_path_factory):
    """One seeded two-slide C=2 dataset of `request.param`-px slides, held in
    memory (`build_dataset`) and written to and loaded from disk."""
    spec = SynthSpec(classes=2, width=request.param, height=request.param)
    root = tmp_path_factory.mktemp(f"twin{request.param}") / "ds"
    write_dataset(root, spec, 2, seed=31)
    return build_dataset(spec, 2, seed=31), load_dataset(root)


def _bank_bytes(bank):
    return [np.ascontiguousarray(a).tobytes() for a in (bank.patches, bank.background, bank.lesion_idx)]


@pytest.mark.parametrize("side", [32, 64, 512])
def test_banks_streamed_from_disk_equal_banks_in_memory(twin_datasets, side):
    held, filed = twin_datasets
    provider = oracle_provider(held)
    for mem, disk in zip(held.slides, filed.slides):
        assert _bank_bytes(build_bank(disk, provider, side)) == _bank_bytes(build_bank(mem, provider, side))


@pytest.mark.parametrize("side", [32, 64, 512])
def test_bank_patches_are_float64_box_means_rounded_to_float32(twin_datasets, side):
    """Each patch is the float64 box mean of its crop, rounded once to float32,
    and a patch is background when that mean over its whole crop exceeds 240
    on every channel."""
    held, _ = twin_datasets
    record = held.slides[1]
    bank = build_bank(record, oracle_provider(held), side)
    base = record.image().base
    start = 0
    for d_k, rows, cols in tiling(bank.width, bank.height):
        f = d_k // side
        for i in range(rows):  # one row of crops at a time: float64 means of a whole base are large
            strip = base[i * d_k:(i + 1) * d_k]
            means = box_downscale(strip, f, f).reshape(side, cols, side, 3).swapaxes(0, 1)
            assert bank.patches[start:start + cols].tobytes() == means.astype(np.float32).tobytes()
            np.testing.assert_array_equal(bank.background[start:start + cols],
                                          (box_downscale(strip, d_k, d_k) > 240.0).all(-1).ravel())
            start += cols
    assert start == len(bank.refs)


@pytest.mark.parametrize("where", ["memory", "disk"])
def test_first_level_at_side_512_is_the_uint8_raster_with_no_wider_copy(twin_datasets, where):
    """At S = 512 the first factor is 1: that level holds the raster's own
    uint8 pixels, read with no copy of the base at a wider type (a uint16 one
    alone is two bytes per base byte). Each coarser level holds its block
    sums exactly in the narrowest type."""
    held, filed = twin_datasets
    base = held.slides[0].image().base
    record = (held if where == "memory" else filed).slides[0]
    tracemalloc.start()
    try:
        first = pyramid_sums(record, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(first) == [1] and first[1].dtype == np.uint8 and first[1].tobytes() == base.tobytes()
    assert peak < 2 * base.nbytes, f"peak {peak} bytes for a {base.nbytes}-byte base"
    side = base.shape[0]
    levels = pyramid_sums(record, 1, side)
    assert [(f, levels[f].dtype) for f in (2, 4, 16, 32)] == [
        (2, np.uint16), (4, np.uint16), (16, np.uint16), (32, np.uint32)]
    assert levels[side].shape == (1, 1, 3)
    assert (levels[side] == base.sum(axis=(0, 1), dtype=np.int64)).all()


# case -> (the bytes of image.ppm, the exception, its message after the path):
# what `read_ppm` and `SlideRecord.image()` raise for each malformed raster
_PIXELS = 1024 * 1024 * 3
_MALFORMED = {
    "bad_magic": (lambda: b"P5\n1024 1024\n255\n" + bytes(_PIXELS), PpmError,
                  "not a P6 file (magic b'P5') (byte offset 0)"),
    "non_integer_field": (lambda: b"P6\n1024 x24\n255\n" + bytes(_PIXELS), PpmError,
                          "expected integer, got b'x24' (byte offset 8)"),
    "maxval_65535": (lambda: b"P6\n1024 1024\n65535\n" + bytes(_PIXELS), PpmError,
                     "unsupported maxval 65535 (byte offset 13)"),
    "no_whitespace_after_maxval": (lambda: b"P6\n1024 1024\n255", PpmError,
                                   "missing whitespace after maxval (byte offset 16)"),
    "truncated": (lambda: b"P6\n1024 1024\n255\n" + bytes(_PIXELS - 5), PpmError,
                  "truncated raster: need 3145728 bytes, have 3145723 (byte offset 3145740)"),
    "trailing_bytes": (lambda: b"P6\n1024 1024\n255\n" + bytes(_PIXELS + 1), PpmError,
                       "1 trailing bytes after the raster (byte offset 3145745)"),
    "1024x3072": (lambda: b"P6\n1024 3072\n255\n" + bytes(3 * _PIXELS), RasterFileError,
                  "slide sides must be 1024 * 2**k px, got 1024x3072"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_raster_fails_build_bank_as_it_fails_the_readers(tmp_path, case):
    data, kind, message = _MALFORMED[case]
    path = tmp_path / "image.ppm"
    path.write_bytes(data())
    record = SlideRecord("slide_0000", 0, 1024, 1024, 0, path=tmp_path)
    blank = OracleMaskProvider({record.ident: LesionMask(np.zeros((1024, 1024), dtype=bool))})
    readers = [lambda: build_bank(record, blank, TINY_SIDE), record.image]
    if kind is PpmError:
        readers.append(lambda: read_ppm(path))
    for read in readers:
        with pytest.raises(kind) as e:
            read()
        assert str(e.value) == f"{path}: {message}"


@pytest.mark.parametrize("side", [48, 1024])
def test_build_bank_refuses_a_patch_side_not_dividing_512(tiny_dataset, side):
    """48 would slice misaligned 480 px windows, 1024 would need upsampling."""
    ds, provider = tiny_dataset
    with pytest.raises(ConfigError, match="must divide 512"):
        build_bank(ds.slides[0], provider, side)


# ------------------------------------------------------------ select_batch


def test_select_batch_exhaustion_returns_all(tiny_banks):
    bank = tiny_banks[0]
    idx = select_batch(bank, "lesion_only", 10_000, nc.Rng(1))
    np.testing.assert_array_equal(idx, bank.lesion_idx)


def test_select_batch_deterministic(tiny_banks):
    bank = tiny_banks[0]
    a = select_batch(bank, "all_nonbackground", 10, nc.Rng(9))
    b = select_batch(bank, "all_nonbackground", 10, nc.Rng(9))
    np.testing.assert_array_equal(a, b)
    assert len(a) == 10 and len(set(a.tolist())) == 10


def test_select_batch_random_k_quotas_exact(tiny_banks):
    bank = tiny_banks[0]  # grid has 64/16/4 patches per scale, none background
    idx = select_batch(bank, "random_k", 10 ** 9, nc.Rng(3), quotas=(46, 11, 3))
    codes = [bank.refs[i].scale_code for i in idx]
    assert codes.count(0) == 46 and codes.count(1) == 11 and codes.count(2) == 3


def test_select_batch_scale_restriction(tiny_banks):
    bank = tiny_banks[0]
    idx = select_batch(bank, "lesion_only", 10 ** 9, nc.Rng(1), scales=(2048,))
    assert all(bank.refs[i].d_k == 2048 for i in idx)
    assert len(idx) >= 1


def test_select_batch_empty_lesion_set_falls_back(tiny_dataset):
    """A slide with no lesion patch draws its lesion_only batches from the
    non-background grid, with the same draws, as inference does."""
    ds, _ = tiny_dataset
    blank = OracleMaskProvider({
        ds.slides[0].ident: LesionMask(np.zeros((1024, 1024), dtype=bool))
    })
    bank = build_bank(ds.slides[0], blank, TINY_SIDE)
    assert len(bank.lesion_idx) == 0
    np.testing.assert_array_equal(select_batch(bank, "lesion_only", 4, nc.Rng(1)),
                                  select_batch(bank, "all_nonbackground", 4, nc.Rng(1)))
    np.testing.assert_array_equal(select_batch(bank, "lesion_only", 10 ** 9, nc.Rng(1)),
                                  np.flatnonzero(~bank.background))


@pytest.mark.parametrize("source", PATCH_SOURCES)
def test_select_batch_all_background_slide_raises(tiny_banks, source):
    bank = replace(tiny_banks[0], lesion_idx=np.zeros(0, dtype=np.int64),
                   background=np.ones_like(tiny_banks[0].background))
    with pytest.raises(EmptySlideError, match="slide_0000 has no usable patches"):
        select_batch(bank, source, 4, nc.Rng(1))


def test_select_batch_random_quotas_picking_nothing_raise(tiny_banks):
    with pytest.raises(EmptySlideError, match=r"quotas \(0, 0, 0\) pick no patch"):
        select_batch(tiny_banks[0], "random_k", 4, nc.Rng(1), quotas=(0, 0, 0))


def test_select_batch_refuses_a_negative_random_quota(tiny_banks):
    """The quota draw passes a computed k to `Rng.sample`, which refuses k < 0."""
    with pytest.raises(ValueError, match="cannot sample -1 from 64"):
        select_batch(tiny_banks[0], "random_k", 4, nc.Rng(1), quotas=(-1, 2, 3))


# --------------------------------------------------------------- e2e steps


def test_e2e_step_eta_zero_keeps_params_bitwise(tiny_banks):
    model = fresh_tiny_model()
    before = model.store.copy_values()
    opt = nc.GradAccumSgd(model.store.tensors(), lr=0.0)
    cfg = TrainConfig(instances_per_graph=8, lr=0.0, epochs=1, seed=1, patch_source="lesion_only")
    loss, _ = e2e_train_step(tiny_banks[0], model, opt, cfg, nc.Rng(2))
    assert np.isfinite(loss)
    for name, arr in before.items():
        assert (model.store[name].data == arr).all(), name


def test_e2e_step_couples_both_parameter_groups(tiny_banks):
    """Gradients reach the extractor AND the attention network in one pass."""
    model = fresh_tiny_model()
    cfg = TrainConfig(instances_per_graph=8, lr=0.1, epochs=1, seed=1, patch_source="lesion_only")
    bank = tiny_banks[1]
    idx = select_batch(bank, cfg.patch_source, cfg.instances_per_graph, nc.Rng(4))
    model.store.zero_grad()
    with nc.record() as graph:
        bag = bag_from_bank(bank, idx, model)
        loss = nc.cross_entropy(model.mil.forward_logits(bag), bank.label)
    graph.backward(loss)
    enc_norm = sum(float(np.abs(t.grad).sum()) for t in model.store.subset("enc.") if t.grad is not None)
    mil_norm = sum(float(np.abs(t.grad).sum()) for t in model.store.subset("mil.") if t.grad is not None)
    assert enc_norm > 0 and mil_norm > 0


def test_e2e_step_updates_extractor(tiny_banks):
    model = fresh_tiny_model()
    before = {n: v.copy() for n, v in model.store.copy_values().items() if n.startswith("enc.")}
    opt = nc.GradAccumSgd(model.store.tensors(), lr=0.1)
    cfg = TrainConfig(instances_per_graph=8, lr=0.1, epochs=1, seed=1, patch_source="lesion_only")
    e2e_train_step(tiny_banks[0], model, opt, cfg, nc.Rng(5))
    delta = sum(float(np.abs(model.store[n].data - arr).sum()) for n, arr in before.items())
    assert delta > 0


def test_training_loss_decreases_on_separable_two_class_set(c2_banks):
    enc = EncoderConfig(input_side=TINY_SIDE, widths=(8, 12, 16), token_dim=24, depth=1, heads=2)
    mil = IaamConfig(dim=24, rank=6, queries=4, classes=2)
    model = build_model(enc, mil, seed=11)
    cfg = TrainConfig(instances_per_graph=32, lr=0.05, epochs=10, seed=13,
                      patch_source="lesion_only")
    manifest = train_e2e(c2_banks, model, cfg)
    first = float(manifest["epoch0_loss"])
    last = float(manifest[f"epoch{cfg.epochs - 1}_loss"])
    assert last < first


def test_training_is_bit_reproducible(tiny_banks):
    cfg = TrainConfig(instances_per_graph=6, lr=0.05, epochs=2, seed=21, patch_source="lesion_only")
    model_a = fresh_tiny_model(seed=9)
    train_e2e(tiny_banks, model_a, cfg)
    model_b = fresh_tiny_model(seed=9)
    train_e2e(tiny_banks, model_b, cfg)
    assert model_a.store.content_hash() == model_b.store.content_hash()


# ------------------------------------------------------------ feature cache


def test_cache_row_counts_match_filter(tiny_banks):
    model = fresh_tiny_model()
    cache = cache_features(tiny_banks, model)
    expected = sum(len(b.lesion_idx) for b in tiny_banks)
    assert cache.rows.shape == (expected, model.encoder_cfg.token_dim)
    assert len(cache.sidecar) == expected
    # recount per slide against the filter output
    groups = cache.by_slide()
    for bank in tiny_banks:
        assert len(groups[bank.ident]) == bank.lesion_set.total


def test_cache_empty_slide_set():
    model = fresh_tiny_model()
    cache = cache_features([], model)
    assert cache.rows.shape[0] == 0


def test_cache_write_read_bitwise(tmp_path, tiny_banks):
    model = fresh_tiny_model()
    cache = cache_features(tiny_banks[:2], model)
    path = tmp_path / "feat.msml"
    write_cache(cache, path)
    again = read_cache(path)
    assert (again.rows == cache.rows).all()
    assert again.sidecar == cache.sidecar
    write_cache(again, tmp_path / "feat2.msml")
    assert (tmp_path / "feat.msml").read_bytes() == (tmp_path / "feat2.msml").read_bytes()


def test_cache_header_magic(tmp_path, tiny_banks):
    model = fresh_tiny_model()
    cache = cache_features(tiny_banks[:1], model)
    path = tmp_path / "feat.msml"
    write_cache(cache, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MSML"
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_cache_sidecar_mismatch_is_format_error():
    with pytest.raises(CacheFormatError):
        FeatureCache(np.zeros((3, 4), dtype=np.float32), [("s", 0, 0, 512, 0)] * 2)


def test_cache_refuses_features_not_finite_as_float32(tiny_banks):
    """Features that overflow the float32 cast are refused, with the slide
    named, and no cache is returned."""
    model = fresh_tiny_model()
    model.store["enc.proj.w"].data *= 1e40
    feats = model.encoder.extract_batch(tiny_banks[0].patches[:2].astype(np.float64)).data
    assert np.isfinite(feats).all() and np.abs(feats).max() > np.finfo(np.float32).max
    with pytest.raises(NonFiniteFeatureError, match="slide slide_0000: features not finite as float32"):
        cache_features(tiny_banks, model)


# ---------------------------------------------------------------- stage two


def stage2_inputs(banks, model):
    cache = cache_features(banks, model)
    labels = {b.ident: b.label for b in banks}
    dims = {b.ident: (b.width, b.height) for b in banks}
    return cache, labels, dims


def test_stage2_freezes_extractor(tiny_banks):
    model = fresh_tiny_model()
    cache, labels, dims = stage2_inputs(tiny_banks, model)
    enc_before = {n: v for n, v in model.store.copy_values().items() if n.startswith("enc.")}
    cfg = TrainConfig(lr=0.05, epochs=2, seed=7, stage="mil_only")
    train_mil_stage2(cache, labels, model, cfg, dims)
    for name, arr in enc_before.items():
        assert (model.store[name].data == arr).all(), name
    assert all(t.grad is None for t in model.store.subset("enc."))


def test_stage2_loss_decreases(c2_banks):
    enc = EncoderConfig(input_side=TINY_SIDE, widths=(8, 12, 16), token_dim=24, depth=1, heads=2)
    mil = IaamConfig(dim=24, rank=6, queries=4, classes=2)
    model = build_model(enc, mil, seed=15)
    cache, labels, dims = stage2_inputs(c2_banks, model)
    cfg = TrainConfig(lr=0.1, epochs=12, seed=17, stage="mil_only")
    manifest = train_mil_stage2(cache, labels, model, cfg, dims)
    assert float(manifest["epoch11_loss"]) < float(manifest["epoch0_loss"])


def test_stage2_invariant_to_cache_row_order(tiny_banks):
    model = fresh_tiny_model(seed=19)
    cache, labels, dims = stage2_inputs(tiny_banks, model)
    # shuffle rows within each slide, keeping rows and sidecar aligned
    rng = nc.Rng(23)
    order = np.arange(len(cache.sidecar))
    for idx in cache.by_slide().values():
        order[idx] = idx[rng.permutation(len(idx))]
    shuffled = FeatureCache(cache.rows[order], [cache.sidecar[i] for i in order])
    cfg = TrainConfig(lr=0.05, epochs=3, seed=29, stage="mil_only")
    model_a = fresh_tiny_model(seed=31)
    train_mil_stage2(cache, labels, model_a, cfg, dims)
    model_b = fresh_tiny_model(seed=31)
    train_mil_stage2(shuffled, labels, model_b, cfg, dims)
    assert model_a.store.content_hash() == model_b.store.content_hash()


def test_stage2_rejects_empty_cache():
    model = fresh_tiny_model()
    cfg = TrainConfig(stage="mil_only")
    with pytest.raises(CacheFormatError):
        train_mil_stage2(FeatureCache(np.zeros((0, 24), dtype=np.float32), []), {}, model, cfg, {})


def test_train_full_refinement_moves_only_the_attention_network(tiny_banks):
    enc, mil = tiny_model_config()
    cfg = TrainConfig(instances_per_graph=4, lr=0.02, epochs=1, seed=9, patch_source="lesion_only")
    e2e_only = build_model(enc, mil, seed=3)
    manifest, cache = train_full(tiny_banks, e2e_only, cfg)
    refined = build_model(enc, mil, seed=3)
    refined_manifest, refined_cache = train_full(tiny_banks, refined,
                                                 replace(cfg, stage2_epochs=1, stage2_lr=0.05))
    assert not any(k.startswith("stage2.") for k in manifest) and cache is None
    assert refined_manifest["stage2.steps"] == len(tiny_banks)
    # the refinement's cache is the refined model's cache, bit for bit
    again = cache_features(tiny_banks, refined)
    assert refined_cache.rows.tobytes() == again.rows.tobytes()
    assert refined_cache.sidecar == again.sidecar
    e2e_only, refined = e2e_only.store.copy_values(), refined.store.copy_values()
    assert e2e_only.keys() == refined.keys()
    for name, arr in e2e_only.items():
        if name.startswith("enc."):
            assert refined[name].tobytes() == arr.tobytes(), name
    assert any(not np.array_equal(refined[n], e2e_only[n]) for n in e2e_only if n.startswith("mil."))


def test_train_config_stage2_maps_only_the_stage2_keys():
    cfg = TrainConfig(epochs=4, lr=0.02, stage2_epochs=3, stage2_lr=0.007, seed=5)
    assert cfg.stage2() == replace(cfg, epochs=3, lr=0.007)


# ---------------------------------------------------------------- inference


def test_infer_empty_mask_falls_back_with_flag(tiny_dataset):
    ds, _ = tiny_dataset
    blank = OracleMaskProvider({
        ds.slides[1].ident: LesionMask(np.zeros((1024, 1024), dtype=bool))
    })
    bank = build_bank(ds.slides[1], blank, TINY_SIDE)
    model = fresh_tiny_model()
    result = infer_bank(bank, model)
    assert result.fallback is True
    assert result.patch_count == len(bank.refs)  # nothing is background here


def test_infer_is_pure(tiny_banks):
    model = fresh_tiny_model()
    a = infer_bank(tiny_banks[2], model)
    b = infer_bank(tiny_banks[2], model)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    assert a.fallback is False and a.patch_count == len(tiny_banks[2].lesion_idx)


def test_infer_probabilities_sum_to_one(tiny_banks):
    model = fresh_tiny_model()
    res = infer_bank(tiny_banks[3], model)
    assert abs(res.probabilities.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------- param io


def test_params_roundtrip_bitwise(tmp_path):
    model = fresh_tiny_model(seed=41)
    path = tmp_path / "params.msmp"
    write_params(model.store, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MSMP"
    values = read_params(path)
    assert set(values) == set(model.store.names())
    for n, arr in values.items():
        assert (arr == model.store[n].data).all()
    model2 = fresh_tiny_model(seed=43)
    load_params(model2.store, path)
    assert model2.store.content_hash() == model.store.content_hash()
    write_params(model2.store, tmp_path / "params2.msmp")
    assert (tmp_path / "params2.msmp").read_bytes() == raw


def test_params_bad_magic(tmp_path):
    path = tmp_path / "bad.msmp"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ParamFormatError):
        read_params(path)


def test_params_name_mismatch_rejected(tmp_path):
    model = fresh_tiny_model()
    path = tmp_path / "p.msmp"
    write_params(model.store, path)
    other = build_model(
        EncoderConfig(input_side=TINY_SIDE, widths=(8, 12, 16), token_dim=24, depth=2, heads=2),
        IaamConfig(dim=24, rank=6, queries=4, classes=4),
        seed=1,
    )
    with pytest.raises(KeyError):
        load_params(other.store, path)


# ---------------------------------------------------------- numeric failure


def test_e2e_nan_patches_raise_before_the_update(tiny_banks):
    poisoned = replace(tiny_banks[0], patches=np.full_like(tiny_banks[0].patches, np.nan))
    model = fresh_tiny_model()
    before = model.store.content_hash()
    with pytest.raises(DivergenceError) as err:
        train_e2e([poisoned], model, TrainConfig(epochs=1, instances_per_graph=6))
    assert err.value.step == 0
    assert model.store.content_hash() == before


def test_stage2_nan_cache_rows_raise_before_the_update(tiny_banks):
    model = fresh_tiny_model()
    cache, labels, dims = stage2_inputs(tiny_banks, model)
    poisoned = FeatureCache(np.full_like(cache.rows, np.nan), cache.sidecar)
    before = model.store.content_hash()
    with pytest.raises(DivergenceError) as err:
        train_mil_stage2(poisoned, labels, model, TrainConfig(epochs=1, stage="mil_only"), dims)
    assert err.value.step == 0
    assert model.store.content_hash() == before


def test_e2e_inf_gradient_raises_before_the_update(tiny_banks, inf_gradient_loss):
    model = fresh_tiny_model()
    before = model.store.content_hash()
    with pytest.raises(DivergenceError) as err:
        train_e2e(tiny_banks[:1], model, TrainConfig(epochs=1, instances_per_graph=6))
    assert err.value.step == 0
    assert "non-finite gradient" in str(err.value)
    assert model.store.content_hash() == before


def test_stage2_inf_gradient_raises_before_the_update(tiny_banks, inf_gradient_loss):
    model = fresh_tiny_model()
    cache, labels, dims = stage2_inputs(tiny_banks, model)
    before = model.store.content_hash()
    with pytest.raises(DivergenceError) as err:
        train_mil_stage2(cache, labels, model, TrainConfig(epochs=1, stage="mil_only"), dims)
    assert err.value.step == 0
    assert "non-finite gradient of mil." in str(err.value)
    assert model.store.content_hash() == before


# -------------------------------------------------------- cut binary files


CUTS = {
    "header": lambda raw: raw[:14],
    "body": lambda raw: raw[:-8],
    "trailing": lambda raw: raw + bytes(8),
}


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_params_cut_or_padded_is_format_error(tmp_path, cut):
    path = tmp_path / "p.msmp"
    write_params(fresh_tiny_model().store, path)
    path.write_bytes(CUTS[cut](path.read_bytes()))
    with pytest.raises(ParamFormatError):
        read_params(path)


@pytest.mark.parametrize("cut", sorted(CUTS))
def test_cache_cut_or_padded_is_format_error(tmp_path, tiny_banks, cut):
    path = tmp_path / "f.msml"
    write_cache(cache_features(tiny_banks[:1], fresh_tiny_model()), path)
    path.write_bytes(CUTS[cut](path.read_bytes()))
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_cache_short_sidecar_line_is_format_error(tmp_path, tiny_banks):
    path = tmp_path / "f.msml"
    write_cache(cache_features(tiny_banks[:1], fresh_tiny_model()), path)
    lines = sidecar_path(path).read_text().splitlines()
    lines[0] = " ".join(lines[0].split()[:4])
    sidecar_path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError):
        read_cache(path)
