from dataclasses import replace

import numpy as np
import pytest

import msmil.evalbench as evalbench
import msmil.numcore as nc
from msmil.evalbench import (
    STRATEGIES,
    InputError,
    StratificationError,
    UndefinedAucError,
    accuracy,
    auc_macro_ovr,
    binary_auc,
    check_sizes,
    evaluate,
    format_table,
    kfold_splits,
    pool,
    stratified_folds,
    study,
    write_curve,
    write_report,
)
from msmil.pipeline import EmptySlideError, TrainConfig, bag_from_bank, build_model, infer_bank, train_full
from tests.conftest import fresh_tiny_model, tiny_model_config


def tiny_trainer(seed):
    """The protocol's trainer on the tiny model: `train_full` from `seed`."""
    enc, mil = tiny_model_config()

    def train(banks, cfg):
        model = build_model(enc, mil, seed)
        train_full(banks, model, cfg)
        return model
    return train


def kfold(banks, k, trainer, cfg, strategy="lesion"):
    """`msmil eval --kfold`'s study: one row over `kfold_splits`, pooled."""
    labels = [b.label for b in banks]
    splits = kfold_splits(labels, k, cfg.seed)
    (reports,) = study(banks, [(strategy, {})], splits, cfg, trainer)
    return pool(reports, [labels[i] for _, test in splits for i in test])


def ablate(banks, model, cfg):
    """`msmil ablate`'s study: the same params under each strategy, on every
    bank; one report per strategy."""
    reports = study(banks, [(s, {}) for s in STRATEGIES], [([], range(len(banks)))], cfg, lambda *_: model)
    return {s: r for s, (r,) in zip(STRATEGIES, reports)}


def sweep(train_banks, test_banks, sizes, cfg, trainer):
    """`msmil sweep`'s study: one row per graph size, one held-out split."""
    banks = train_banks + test_banks
    split = (range(len(train_banks)), range(len(train_banks), len(banks)))
    reports = study(banks, [("lesion", {"instances_per_graph": s}) for s in sizes], [split], cfg, trainer)
    return [(s, r.accuracy) for s, (r,) in zip(sizes, reports)]


def pair_count_auc(scores, positive):
    """O(n^2) oracle: wins + half-ties over all positive/negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    pos = scores[positive]
    neg = scores[~positive]
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# ---------------------------------------------------------------- accuracy


def test_accuracy_basic():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([0, 0, 0], [1, 2, 3]) == 0.0
    assert accuracy([1, 2, 3, 0], [1, 2, 3, 4]) == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(InputError):
        accuracy([1], [1, 2])


# --------------------------------------------------------------------- auc


def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    positive = np.array([True, True, False, False])
    assert binary_auc(scores, positive) == 1.0


def test_auc_constant_scores_half():
    scores = np.zeros(10)
    positive = np.arange(10) < 4
    assert binary_auc(scores, positive) == 0.5


def test_auc_handcrafted_matches_pair_counting():
    # n=6 with a tie spanning the classes
    scores = np.array([0.9, 0.5, 0.5, 0.4, 0.3, 0.1])
    positive = np.array([True, True, False, False, True, False])
    assert binary_auc(scores, positive) == pair_count_auc(scores, positive)


def test_auc_property_matches_pair_counting_with_ties():
    rng = nc.Rng(99)
    for trial in range(30):
        n = 2 + rng.integers(0, 199)
        # coarse grid of score values forces plenty of ties
        scores = (rng.integers(0, 7, n)).astype(np.float64) / 7.0
        positive = rng.uniform(n) < 0.4
        if positive.all() or not positive.any():
            continue
        assert binary_auc(scores, positive) == pair_count_auc(scores, positive), f"trial {trial}"


def test_auc_macro_missing_class_names_it():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    with pytest.raises(UndefinedAucError) as e:
        auc_macro_ovr(probs, [0, 1])
    assert "class 2" in str(e.value)


def test_auc_macro_averages_classes():
    probs = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.2, 0.1, 0.7],
        [0.6, 0.3, 0.1],
    ])
    labels = [0, 1, 2, 0]
    macro, per_class = auc_macro_ovr(probs, labels)
    assert len(per_class) == 3
    assert macro == pytest.approx(np.mean(per_class))
    for c in range(3):
        assert per_class[c] == pair_count_auc(probs[:, c], np.asarray(labels) == c)


# ------------------------------------------------------------------ k-fold


def test_stratified_folds_sizes_balanced():
    labels = [i % 4 for i in range(50)]  # 13,13,12,12 per class
    folds = stratified_folds(labels, 5, seed=1)
    assert [len(f) for f in folds] == [10, 10, 10, 10, 10]
    assert sorted(sum(folds, [])) == list(range(50))


def test_stratified_folds_deterministic():
    labels = [i % 3 for i in range(30)]
    assert stratified_folds(labels, 5, seed=7) == stratified_folds(labels, 5, seed=7)
    assert stratified_folds(labels, 5, seed=7) != stratified_folds(labels, 5, seed=8)


def test_kfold_with_stub_trainer(tiny_banks):
    banks = tiny_banks * 2  # two slides per class so every split keeps all classes
    model = fresh_tiny_model(seed=3)
    cfg = TrainConfig(seed=5)
    calls = []

    def stub_trainer(train_banks, _cfg):
        calls.append(len(train_banks))
        return model

    out = kfold(banks, k=2, trainer=stub_trainer, cfg=cfg)
    assert out["k"] == 2 and out["fold_sizes"] == [4, 4]
    assert calls == [4, 4]
    out2 = kfold(banks, k=2, trainer=stub_trainer, cfg=cfg)
    assert out["accuracy_mean"] == out2["accuracy_mean"]
    assert out["auc_mean"] == out2["auc_mean"]


def test_kfold_leave_one_out_pools_auc(tiny_banks):
    # k = n: every test fold is a single slide, per-fold AUC undefined
    model = fresh_tiny_model(seed=3)

    def stub_trainer(train_banks, _cfg):
        return model

    banks = tiny_banks * 2
    out = kfold(banks, k=len(banks), trainer=stub_trainer, cfg=TrainConfig(seed=5))
    assert out["pooled_auc_fallback"] is True
    assert np.isfinite(out["auc_mean"])


def test_kfold_stratification_error_when_class_unlearnable(tiny_banks):
    # duplicate class-0 bank only: with k=2, one training split misses a class
    banks = [tiny_banks[0], tiny_banks[1], tiny_banks[2], tiny_banks[3], tiny_banks[0]]

    def stub_trainer(train_banks, _cfg):
        raise AssertionError("should fail before training")

    with pytest.raises(StratificationError):
        kfold(banks, k=4, trainer=stub_trainer, cfg=TrainConfig(seed=5))


def test_study_trains_each_row_on_each_split_with_its_overrides(tiny_banks):
    """One trainer call per (row, split), rows outermost; a row's overrides
    reach both the trainer's cfg and `evaluate`, and leave `cfg` as it was."""
    model = fresh_tiny_model(seed=3)
    cfg = TrainConfig(seed=5)
    calls = []

    def stub_trainer(train_banks, row_cfg):
        calls.append((row_cfg.instances_per_graph, row_cfg.seed, [b.ident for b in train_banks]))
        return model

    rows = [("lesion", {"instances_per_graph": 1}),
            ("random", {"instances_per_graph": 4, "seed": 9, "random_quotas": (10, 5, 2)})]
    splits = [([0, 1], [2, 3]), ([2, 3], [0, 1])]
    reports = study(tiny_banks, rows, splits, cfg, stub_trainer)
    ids = [b.ident for b in tiny_banks]
    assert calls == [(1, 5, ids[:2]), (1, 5, ids[2:]), (4, 9, ids[:2]), (4, 9, ids[2:])]
    assert [len(r) for r in reports] == [2, 2]
    assert reports[1][0].patch_counts == [17, 17]
    expected = evaluate(tiny_banks[2:], model, replace(cfg, seed=9, random_quotas=(10, 5, 2)), "random")
    np.testing.assert_array_equal(reports[1][0].probs, expected.probs)
    assert cfg == TrainConfig(seed=5)


# ---------------------------------------------------------------- ablation


def test_ablation_lesion_subset_of_all(tiny_banks):
    model = fresh_tiny_model(seed=7)
    rows = ablate(tiny_banks, model, TrainConfig(seed=11))
    for i in range(len(tiny_banks)):
        assert rows["lesion"].patch_counts[i] < rows["all"].patch_counts[i]


def test_ablation_random_quotas_honored(tiny_banks):
    model = fresh_tiny_model(seed=7)
    rows = ablate(tiny_banks, model, TrainConfig(seed=11, random_quotas=(10, 5, 2)))
    assert all(c == 17 for c in rows["random"].patch_counts)


def test_evaluate_confusion_sums(tiny_banks):
    model = fresh_tiny_model(seed=7)
    report = evaluate(tiny_banks, model, TrainConfig())
    assert report.confusion.sum() == len(tiny_banks)
    assert report.accuracy == np.trace(report.confusion) / len(tiny_banks)


def test_ablate_kfold_and_sweep_score_only_the_configured_scales(tiny_banks, monkeypatch):
    seen = set()

    def recording(bank, idx, model):
        seen.update(bank.refs[i].d_k for i in idx)
        return bag_from_bank(bank, idx, model)

    monkeypatch.setattr(evalbench, "bag_from_bank", recording)
    model = fresh_tiny_model(seed=7)
    cfg = TrainConfig(instances_per_graph=2, lr=0.0, epochs=1, seed=11, scales=(2048,))
    ablate(tiny_banks, model, cfg)
    for strategy in ("lesion", "all"):
        kfold(tiny_banks * 2, k=2, trainer=lambda banks, _cfg: model, cfg=cfg, strategy=strategy)
    sweep(tiny_banks, tiny_banks, [2], cfg, tiny_trainer(7))
    assert seen == {2048}


# ------------------------------------------------------------------- sweep


def test_evaluate_shares_the_lesion_fallback_of_inference(tiny_banks):
    model = fresh_tiny_model()
    no_lesion = replace(tiny_banks[1], lesion_idx=np.zeros(0, dtype=np.int64))
    report = evaluate([no_lesion], model, TrainConfig())
    result = infer_bank(no_lesion, model)
    assert result.fallback and report.patch_counts == [result.patch_count]
    assert report.lesion_fallback_slides == 1 and np.isnan(report.auc_macro)  # one slide, one class
    np.testing.assert_array_equal(report.probs[0], result.probabilities)
    all_background = replace(no_lesion, background=np.ones_like(no_lesion.background))
    with pytest.raises(EmptySlideError):
        evaluate([all_background], model, TrainConfig())


def test_sweep_validates_sizes(tiny_banks):
    for sizes in ([8, 4], [4, 4], []):
        with pytest.raises(InputError):
            check_sizes(sizes)


def test_sweep_runs_independent_trainings(tiny_banks):
    cfg = TrainConfig(instances_per_graph=4, lr=0.02, epochs=1, seed=31, patch_source="lesion_only")
    curve = sweep(tiny_banks, tiny_banks, [1, 4], cfg, tiny_trainer(33))
    assert [b for b, _ in curve] == [1, 4]
    assert all(0.0 <= acc <= 1.0 for _, acc in curve)
    curve2 = sweep(tiny_banks, tiny_banks, [1, 4], cfg, tiny_trainer(33))
    assert curve == curve2


# ----------------------------------------------------------------- reports


def test_format_table_alignment():
    table = format_table(["strategy", "acc"], [["all", 0.5], ["lesion", 0.9375]])
    lines = table.splitlines()
    assert lines[0].startswith("strategy")
    assert lines[2].split() == ["lesion", "0.9375"]


def test_write_report_and_curve_diff_stable(tmp_path):
    path = tmp_path / "report_x.txt"
    write_report(path, {"seed": 1, "acc": 0.75}, (["a", "b"], [[1, 2.0]]))
    first = path.read_text()
    write_report(path, {"seed": 1, "acc": 0.75}, (["a", "b"], [[1, 2.0]]))
    assert path.read_text() == first
    assert "seed=1" in first
    curve_path = tmp_path / "curve.txt"
    write_curve(curve_path, [(1, 0.25), (64, 0.9)])
    assert curve_path.read_text() == "1 0.2500\n64 0.9000\n"
