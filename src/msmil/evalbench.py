"""Metrics, the one scorer and the one study runner. `evaluate` scores a
model on banks; `study` trains and scores rows (a strategy plus `TrainConfig`
overrides) over (train, test) splits, so `eval --kfold` (folds from
`kfold_splits`, pooled by `pool`), `ablate` (fixed params, one row per
strategy) and `sweep` (one row per graph size) are row lists over it. Random
quotas are drawn from `TrainConfig.seed` wherever a model is scored.

Multi-class AUC is macro one-vs-rest computed from the rank statistic with
midranks for ties; it equals exhaustive pair counting (tested both ways).
All reports are plain key=value text with aligned tables, diff-stable for
equal seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import numcore as nc
from .pipeline import Model, SlideBank, TrainConfig, bag_from_bank, fallback_slides, select_batch


class InputError(Exception):
    pass


class UndefinedAucError(Exception):
    pass


class StratificationError(Exception):
    pass


@dataclass
class EvalReport:
    accuracy: float
    auc_macro: float                 # NaN when a class is absent or the only one present
    confusion: np.ndarray
    preds: np.ndarray                # (slides,) argmax class
    probs: np.ndarray                # (slides, classes)
    patch_counts: list[int]
    wall_ms: float
    lesion_fallback_slides: int      # bags that fell back from an empty lesion set


def accuracy(preds, labels) -> float:
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels) or not preds:
        raise InputError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    return sum(int(p == t) for p, t in zip(preds, labels)) / len(preds)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the average of their rank range."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """ROC-AUC via the Mann-Whitney rank statistic with midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("need at least one positive and one negative")
    ranks = _midranks(scores)
    return (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_macro_ovr(prob_matrix: np.ndarray, labels) -> tuple[float, list[float]]:
    """Per class: AUC of column c against indicator(label == c); macro mean."""
    probs = np.asarray(prob_matrix, dtype=np.float64)
    labels = np.asarray(list(labels))
    if probs.ndim != 2 or probs.shape[0] != len(labels):
        raise InputError(f"prob matrix {probs.shape} vs {len(labels)} labels")
    per_class = []
    for c in range(probs.shape[1]):
        positive = labels == c
        if not positive.any():
            raise UndefinedAucError(f"class {c} absent from the evaluation set")
        if positive.all():
            raise UndefinedAucError(f"class {c} is the only class present")
        per_class.append(binary_auc(probs[:, c], positive))
    return float(np.mean(per_class)), per_class


# ------------------------------------------------------------- evaluation


STRATEGY_SOURCES = {"all": "all_nonbackground", "random": "random_k", "lesion": "lesion_only"}
STRATEGIES = tuple(STRATEGY_SOURCES)


def evaluate(banks: list[SlideBank], model: Model, cfg: TrainConfig,
             strategy: str = "lesion") -> EvalReport:
    """Run `model` over each bank's bag under `strategy` and score the
    predictions against the banks' labels. Each slide's bag is the whole
    `select_batch` pool (the grid size as the batch) at `cfg.scales`; random
    picks follow `cfg.random_quotas`, seeded by `cfg.seed`."""
    source = STRATEGY_SOURCES[strategy]
    t0 = time.perf_counter()
    probs, counts = [], []
    rng = nc.Rng(cfg.seed)
    for pos, bank in enumerate(banks):
        idx = select_batch(bank, source, len(bank.refs), rng.child(pos), cfg.scales, cfg.random_quotas)
        probs.append(model.mil.forward(bag_from_bank(bank, idx, model)).data[0])
        counts.append(len(idx))
    wall = (time.perf_counter() - t0) * 1000.0
    labels = [b.label for b in banks]
    probs = np.stack(probs)
    preds = probs.argmax(axis=1)
    confusion = np.zeros((probs.shape[1], probs.shape[1]), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    try:
        macro, _ = auc_macro_ovr(probs, labels)
    except UndefinedAucError:
        macro = float("nan")
    return EvalReport(accuracy(preds, labels), macro, confusion, preds, probs, counts, wall,
                      fallback_slides(banks, source, cfg.scales))


# ------------------------------------------------------------------ study


def stratified_folds(labels, k: int, seed: int) -> list[list[int]]:
    """Deterministic per-class shuffle, dealt round-robin into k folds.

    The dealing cursor carries over between classes so fold totals stay
    balanced even when class counts are not multiples of k.
    """
    labels = list(labels)
    if k < 2:
        raise InputError(f"k-fold needs k >= 2 folds, got k={k}")
    if k > len(labels):
        raise InputError(f"k={k} exceeds {len(labels)} slides")
    folds: list[list[int]] = [[] for _ in range(k)]
    rng = nc.Rng(seed)
    cursor = 0
    for c in sorted(set(labels)):
        members = [i for i, lab in enumerate(labels) if lab == c]
        order = rng.child(c).permutation(len(members))
        for j in order:
            folds[cursor % k].append(members[j])
            cursor += 1
    return [sorted(f) for f in folds]


def kfold_splits(labels, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """`stratified_folds` as (train, test) index splits; a training split
    missing a class is a StratificationError."""
    labels = list(labels)
    splits = []
    for fold_idx, test in enumerate(stratified_folds(labels, k, seed)):
        train = [i for i in range(len(labels)) if i not in test]
        if {labels[i] for i in train} != set(labels):
            raise StratificationError(f"fold {fold_idx}: training split is missing a class")
        splits.append((train, test))
    return splits


def study(banks: list[SlideBank], rows, splits, cfg: TrainConfig, trainer) -> list[list[EvalReport]]:
    """Each row is a `(strategy, overrides)` pair: `cfg` with the row's
    `TrainConfig` overrides is trained per `(train, test)` split of bank
    indices by `trainer(train_banks, row_cfg) -> Model`, and the test banks
    are scored by `evaluate` under the row's strategy. Returns each row's
    reports, one per split."""
    out = []
    for strategy, overrides in rows:
        row_cfg = replace(cfg, **overrides)
        out.append([evaluate([banks[i] for i in test],
                             trainer([banks[i] for i in train], row_cfg), row_cfg, strategy)
                    for train, test in splits])
    return out


def pool(reports: list[EvalReport], labels) -> dict:
    """Fold means and SDs of the reports' metrics and their summed fallback
    count; `labels` are the reports' slides' labels, in order. A NaN fold
    AUC switches to the pooled AUC with a flag."""
    fold_acc = [r.accuracy for r in reports]
    fold_auc = [r.auc_macro for r in reports]
    pooled_flag = bool(np.isnan(fold_auc).any())
    out = {
        "k": len(reports),
        "accuracy_mean": float(np.mean(fold_acc)),
        "accuracy_sd": float(np.std(fold_acc)),
        "fold_sizes": [len(r.preds) for r in reports],
        "pooled_auc_fallback": pooled_flag,
        "lesion_fallback_slides": sum(r.lesion_fallback_slides for r in reports),
    }
    if pooled_flag:
        out["auc_mean"], _ = auc_macro_ovr(np.concatenate([r.probs for r in reports]), labels)
        out["auc_sd"] = float("nan")
    else:
        out["auc_mean"] = float(np.mean(fold_auc))
        out["auc_sd"] = float(np.std(fold_auc))
    return out


def check_sizes(sizes) -> list[int]:
    """The sweep's graph sizes as a list: >= 1 and strictly ascending, else InputError."""
    sizes = list(sizes)
    if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise InputError(f"sizes must be non-empty, ascending and >= 1, got {sizes}")
    return sizes


# ----------------------------------------------------------------- reports


def format_table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def write_report(path: Path, entries: dict, table: tuple[list[str], list[list]] | None = None) -> None:
    lines = [f"{k}={v}" for k, v in entries.items()]
    if table is not None:
        lines.append("")
        lines.append(format_table(*table))
    Path(path).write_text("\n".join(lines) + "\n")


def write_curve(path: Path, curve: list[tuple[int, float]]) -> None:
    Path(path).write_text("".join(f"{b} {acc:.4f}\n" for b, acc in curve))
