"""One instance rule: `SlideBank.usable_idx` decides which patches of a slide
training, the feature cache, inference and every evaluation strategy see.

The pinned digests were recorded before training batches, the cache and the
evaluation strategies were moved onto that rule; the move must leave them
unchanged on slides that have a lesion set.
"""

import ctypes
import hashlib

import numpy as np
import pytest

import msmil.pipeline as pipeline
from msmil.evalbench import STRATEGIES, evaluate
from msmil.pipeline import PATCH_SOURCES, TrainConfig, build_bank, cache_features, infer_bank, train_full
from msmil.sffm import OracleMaskProvider
from msmil.synthwsi import LesionMask
from tests.conftest import TINY_SIDE, fresh_tiny_model

# SHA-256 of the params and the per-epoch loss and accuracy entries of both
# stages after a tiny `train_full`, per patch source. Recorded again when the
# encoder's last block came to compute only the classification rows: the
# gradients moved by rounding only (tests/test_msfem.py checks them against
# an all-rows block), the manifests not at all
TRAIN_FULL_SHA256 = {
    "all_nonbackground": "dd22d73d796a91c18eb736f2722a16f44d3a9919552956fa10c4f60bd8025b57",
    "lesion_only": "51ed8a013f600c059e481716c03315bf34db6426fc37aacc40be737c740e3a8b",
    "random_k": "89cfe2334d7dbeca28f18fd4dbc6afccd4a18ca54f21b7c7f2e4dc76ff8a68cc",
}
# SHA-256 of `evaluate`'s probabilities and patch counts, per strategy
EVALUATE_SHA256 = {
    "all": "870fb2b7a4f740633d0e4e81d11a76e5d5ae7e141ebf29d473f4ed5b813b682c",
    "random": "555291196dc37439e00e60e897f58d5e21bc8247ea71bf174991f908ba8c0703",
    "lesion": "cd325f1b87e32527ca4ec04a9b33c243d640929ad197260165c07e7fc0f0b4b7",
}


def _train_full_digest(banks, source: str) -> str:
    model = fresh_tiny_model(seed=3)
    cfg = TrainConfig(instances_per_graph=8, lr=0.02, epochs=2, stage2_epochs=2, stage2_lr=0.02,
                      seed=4, patch_source=source, random_quotas=(5, 3, 1))
    manifest, _ = train_full(banks, model, cfg)
    digest = hashlib.sha256(model.store.content_hash().encode())
    for key in sorted(k for k in manifest if k.endswith(("_loss", "_acc"))):
        digest.update(f"{key}={manifest[key]}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("source", PATCH_SOURCES)
def test_train_full_is_pinned_at_each_patch_source(tiny_banks, source):
    assert _train_full_digest(tiny_banks, source) == TRAIN_FULL_SHA256[source]


def test_train_full_without_glibc_is_pinned(tiny_banks, monkeypatch):
    """Where libc.so.6 does not load, training keeps the allocator's defaults
    and trains the same."""
    tried = []

    def no_libc(name, *args, **kwargs):
        tried.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert _train_full_digest(tiny_banks, "lesion_only") == TRAIN_FULL_SHA256["lesion_only"]
    assert tried == ["libc.so.6", "libc.so.6"]  # once per stage


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_evaluate_is_pinned_at_each_strategy(tiny_banks, strategy):
    cfg = TrainConfig(seed=7, random_quotas=(9, 4, 2))
    report = evaluate(tiny_banks, fresh_tiny_model(seed=8), cfg, strategy)
    digest = hashlib.sha256(np.ascontiguousarray(report.probs).tobytes())
    digest.update(repr(report.patch_counts).encode())
    assert digest.hexdigest() == EVALUATE_SHA256[strategy]


@pytest.fixture(scope="module")
def blank_mask_banks(tiny_dataset, tiny_banks):
    """The tiny banks with slide_0001 rebuilt on an all-zero lesion mask."""
    ds, _ = tiny_dataset
    blank = OracleMaskProvider({ds.slides[1].ident: LesionMask(np.zeros((1024, 1024), dtype=bool))})
    return [tiny_banks[0], build_bank(ds.slides[1], blank, TINY_SIDE), *tiny_banks[2:]]


def test_cache_rows_are_the_features_of_the_bag_inference_encodes(blank_mask_banks, monkeypatch):
    model = fresh_tiny_model(seed=12)
    cache = cache_features(blank_mask_banks, model)
    groups = cache.by_slide()
    seen = {}
    bag_from_bank = pipeline.bag_from_bank

    def recording(bank, idx, model):
        seen["bag"] = bag_from_bank(bank, idx, model)
        return seen["bag"]

    monkeypatch.setattr(pipeline, "bag_from_bank", recording)
    for bank in blank_mask_banks:
        result = infer_bank(bank, model)
        assert result.fallback == (bank.ident == "slide_0001")
        bag, rows = seen["bag"], groups[bank.ident]
        assert cache.rows[rows].tobytes() == bag.features.data.astype(np.float32).tobytes()
        entries = [cache.sidecar[i] for i in rows]
        np.testing.assert_array_equal([(e[1], e[2]) for e in entries], bag.coords)
        np.testing.assert_array_equal([e[4] for e in entries], bag.scale_codes)


def test_train_full_counts_the_fallback_slide_in_both_stages(blank_mask_banks):
    """An empty lesion set trains and caches on the non-background grid, and
    the manifest says how many slides did."""
    cfg = TrainConfig(instances_per_graph=4, lr=0.02, epochs=1, stage2_epochs=1, stage2_lr=0.02,
                      seed=2, patch_source="lesion_only")
    manifest, cache = train_full(blank_mask_banks, fresh_tiny_model(seed=13), cfg)
    assert manifest["slides"] == 4 and manifest["stage2.slides"] == 4
    assert manifest["lesion_fallback_slides"] == 1
    blank = blank_mask_banks[1]
    assert len(cache.by_slide()[blank.ident]) == int((~blank.background).sum())
    manifest, _ = train_full(blank_mask_banks[:1], fresh_tiny_model(seed=13), cfg)
    assert manifest["lesion_fallback_slides"] == 0


def test_usable_idx_at_scales_keeps_filter_order(tiny_banks):
    bank = tiny_banks[2]
    idx, fallback = bank.usable_idx("lesion_only", (512, 2048))
    expected = [i for i in bank.lesion_idx if bank.refs[i].d_k != 1024]
    assert not fallback and idx.tolist() == expected
    idx, fallback = bank.usable_idx("random_k", (1024,))
    assert not fallback
    assert idx.tolist() == [i for i in range(len(bank.refs))
                            if bank.refs[i].d_k == 1024 and not bank.background[i]]
