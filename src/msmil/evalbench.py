"""Metrics, cross-validation protocol, strategy ablation, and the
instances-in-graph sweep.

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
from .pipeline import Model, SlideBank, TrainConfig, bag_from_bank, infer_bank, select_batch


class InputError(Exception):
    pass


class UndefinedAucError(Exception):
    pass


class StratificationError(Exception):
    pass


@dataclass
class EvalReport:
    accuracy: float
    auc_macro: float
    confusion: np.ndarray
    patch_counts: list[int]
    wall_ms: float


def accuracy(preds, labels) -> float:
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels) or not preds:
        raise InputError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    return sum(int(p == t) for p, t in zip(preds, labels)) / len(preds)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied scores share the average of their rank range."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def evaluate_strategy(banks: list[SlideBank], model: Model, strategy: str, cfg: TrainConfig,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray, list[int], float]:
    """Predictions and probabilities for one patch-selection strategy,
    identical model parameters across strategies; patches come from
    `cfg.scales`, and random picks follow `cfg.random_quotas`."""
    source = {"all": "all_nonbackground", "random": "random_k", "lesion": "lesion_only"}[strategy]
    t0 = time.perf_counter()
    preds, probs, counts = [], [], []
    rng = nc.Rng(seed)
    for pos, bank in enumerate(banks):
        if source == "random_k":
            idx = select_batch(bank, "random_k", 10 ** 9, rng.child(pos), cfg.scales, cfg.random_quotas)
            p = model.mil.forward(bag_from_bank(bank, idx, model)).data[0]
            n = len(idx)
        else:
            result = infer_bank(bank, model, source, cfg.scales)
            p, n = result.probabilities, result.patch_count
        preds.append(int(np.argmax(p)))
        probs.append(p)
        counts.append(n)
    wall = (time.perf_counter() - t0) * 1000.0
    return np.asarray(preds), np.stack(probs), counts, wall


def evaluate(banks: list[SlideBank], model: Model, cfg: TrainConfig,
             strategy: str = "lesion", seed: int = 0) -> EvalReport:
    labels = [b.label for b in banks]
    preds, probs, counts, wall = evaluate_strategy(banks, model, strategy, cfg, seed)
    n_classes = probs.shape[1]
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(labels, preds):
        confusion[t, p] += 1
    try:
        macro, _ = auc_macro_ovr(probs, labels)
    except UndefinedAucError:
        macro = float("nan")
    return EvalReport(accuracy(preds, labels), macro, confusion, counts, wall)


# ------------------------------------------------------------------ k-fold


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


def kfold_run(banks: list[SlideBank], k: int, trainer, cfg: TrainConfig,
              eval_seed: int = 0) -> dict:
    """Train per fold via `trainer(train_banks, cfg) -> Model`; aggregate
    accuracy and AUC. Single-class test folds fall back to pooled AUC with
    a flag; a training split missing a class is a stratification error."""
    labels = [b.label for b in banks]
    classes = set(labels)
    folds = stratified_folds(labels, k, cfg.seed)
    fold_acc, fold_auc = [], []
    pooled_probs, pooled_labels = [], []
    pooled_flag = False
    for fold_idx, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_banks = [b for i, b in enumerate(banks) if i not in test_set]
        if {b.label for b in train_banks} != classes:
            raise StratificationError(f"fold {fold_idx}: training split is missing a class")
        model = trainer(train_banks, cfg)
        test_banks = [banks[i] for i in test_idx]
        preds, probs, _, _ = evaluate_strategy(test_banks, model, "lesion", cfg, eval_seed)
        fold_labels = [b.label for b in test_banks]
        fold_acc.append(accuracy(preds, fold_labels))
        pooled_probs.append(probs)
        pooled_labels.extend(fold_labels)
        try:
            macro, _ = auc_macro_ovr(probs, fold_labels)
            fold_auc.append(macro)
        except UndefinedAucError:
            pooled_flag = True
    out = {
        "k": k,
        "accuracy_mean": float(np.mean(fold_acc)),
        "accuracy_sd": float(np.std(fold_acc)),
        "fold_sizes": [len(f) for f in folds],
        "pooled_auc_fallback": pooled_flag,
    }
    if pooled_flag:
        macro, _ = auc_macro_ovr(np.concatenate(pooled_probs), pooled_labels)
        out["auc_mean"] = macro
        out["auc_sd"] = float("nan")
    else:
        out["auc_mean"] = float(np.mean(fold_auc))
        out["auc_sd"] = float(np.std(fold_auc))
    return out


# ---------------------------------------------------------------- ablation


STRATEGIES = ("all", "random", "lesion")


def ablation_run(banks: list[SlideBank], model: Model, cfg: TrainConfig) -> dict:
    """Evaluate the same trained parameters under each patch-selection
    strategy, seeded by `cfg.seed`; returns rows plus the parameter hash used
    for all of them."""
    rows = []
    for strategy in STRATEGIES:
        report = evaluate(banks, model, cfg, strategy, cfg.seed)
        rows.append({
            "strategy": strategy,
            "accuracy": report.accuracy,
            "auc": report.auc_macro,
            "mean_patches": float(np.mean(report.patch_counts)),
            "patch_counts": report.patch_counts,
            "wall_ms": report.wall_ms,
        })
    return {"rows": rows, "params_hash": model.store.content_hash()}


# ------------------------------------------------------------------- sweep


def graph_size_sweep(train_banks: list[SlideBank], test_banks: list[SlideBank],
                     sizes, base_cfg: TrainConfig, trainer) -> list[tuple[int, float]]:
    """One independent training per graph size via `trainer(train_banks, cfg)
    -> Model`, the interface `kfold_run` uses; accuracy measured on the
    held-out banks."""
    sizes = list(sizes)
    if not sizes or sizes != sorted(sizes) or sizes[0] < 1:
        raise InputError(f"sizes must be non-empty, ascending and >= 1, got {sizes}")
    curve = []
    for size in sizes:
        cfg = replace(base_cfg, instances_per_graph=size)
        model = trainer(train_banks, cfg)
        report = evaluate(test_banks, model, cfg)
        curve.append((size, report.accuracy))
    return curve


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
