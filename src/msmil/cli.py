"""Command-line surface for the whole pipeline.

Subcommands: generate, filter, train, infer, eval, ablate, sweep.
Configuration is a key=value file plus repeatable --set overrides; defaults
< config file < command line. Unknown keys are rejected. Results go to
standard output, diagnostics to standard error.

``infer`` prints one line:

    slide=<id> predicted=<class> probs=[<p0> <p1> ...] patches=<n> wall_ms=<ms>

followed by `` fallback=all_nonbackground`` when the slide had no lesion
patch. The same rule picks a slide's patches in ``train`` (its batches under
``train.patch_source=lesion_only`` and its cache rows), ``eval``, ``ablate``
and ``sweep``; each reports ``lesion_fallback_slides``, and ``sweep`` counts
its held-out slides in a line after the curve.
``probs`` holds one space-separated probability per class, printed at
round-trip precision: each token parses with ``float()`` to exactly the value
``infer_bank`` returned, so the printed values sum to 1 as that softmax does.

``train`` runs the whole protocol: ``train.epochs`` of end-to-end training
at ``train.lr``, then ``train.stage2_epochs`` (default 0) of attention-only
refinement at ``train.stage2_lr`` on cached features; manifest entries of
the refinement carry a ``stage2.`` prefix. ``train --stage mil_only --cache
F`` runs the refinement alone, on the same two keys (stage2_epochs >= 1).
``eval`` scores the model of ``--params``; ``eval --kfold`` and ``sweep``
train a fresh model per fold or size, so ``eval`` takes exactly one of
``--params`` and ``--kfold``; both score the bags of ``--strategy``.
One seeding rule: ``train.seed`` is set only by the config file or ``--set``
(``generate --seed`` is the dataset seed). It seeds every training run, and
``eval``, ``eval --kfold`` and ``ablate`` draw the random quotas of
``--strategy random`` from it, so ``eval`` prints ``ablate``'s random row
for the same params and settings.
``sweep --holdout`` is the held-out share of the slides: 0 < holdout < 1,
leaving at least one held-out slide.

Exit codes: 0 success, 2 I/O failure, 3 missing input (including a slide
with no usable patch at the configured scales), 4 numeric failure
(divergence, or features that overflow float32), 5 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .evalbench import (
    STRATEGIES,
    InputError,
    StratificationError,
    UndefinedAucError,
    check_sizes,
    evaluate,
    format_table,
    kfold_splits,
    pool,
    study,
    write_curve,
    write_report,
)
from .iaam import IaamConfig, RankError
from .msfem import ConfigError, EncoderConfig
from .paramio import ParamFormatError, load_params, write_params
from .pipeline import (
    CacheFormatError,
    DivergenceError,
    EmptySlideError,
    NonFiniteFeatureError,
    TrainConfig,
    build_bank,
    build_banks,
    build_model,
    cache_features,
    infer_bank,
    oracle_provider,
    read_cache,
    train_full,
    train_mil_stage2,
    write_cache,
)
from .sffm import CoverageError, FileMaskProvider, run_sffm, write_refs
from .synthwsi import (PpmError, RasterFileError, SpecError, SynthSpec, load_dataset, write_dataset,
                       write_manifest)

EXIT_IO = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4
EXIT_CONFIG = 5


class CliConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliConfigError(message)


# ------------------------------------------------------------ run config


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(",") if tok != "")


_SECTIONS = (("enc", EncoderConfig), ("mil", IaamConfig), ("train", TrainConfig))
# set by the encoder, the dataset and the subcommand, not by the run config
_DERIVED = ("mil.dim", "mil.classes", "train.stage")

_DEFAULTS = {"model.seed": 1}
_DEFAULTS.update({f"{section}.{f.name}": f.default
                  for section, cls in _SECTIONS for f in fields(cls)
                  if f"{section}.{f.name}" not in _DERIVED})


def load_run_config(config_path: str | None, sets: list[str] | None) -> dict:
    conf = dict(_DEFAULTS)

    def apply(key: str, raw: str, origin: str):
        if key not in conf:
            raise CliConfigError(f"unknown config key {key!r} ({origin})")
        default = _DEFAULTS[key]
        parser = _csv_ints if isinstance(default, tuple) else type(default)
        try:
            conf[key] = parser(raw)
        except ValueError as e:
            raise CliConfigError(f"bad value for {key}: {raw!r} ({origin})") from e

    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"config file {path} not found")
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliConfigError(f"malformed config line {line!r}")
            key, val = line.split("=", 1)
            apply(key.strip(), val.strip(), str(path))
    for item in sets or []:
        if "=" not in item:
            raise CliConfigError(f"--set needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        apply(key.strip(), val.strip(), "--set")
    return conf


def configs_from(conf: dict, classes: int):
    def build(section, cls, **derived):
        keys = {f.name: conf[f"{section}.{f.name}"] for f in fields(cls)
                if f"{section}.{f.name}" in conf}
        return cls(**keys, **derived)

    enc = build("enc", EncoderConfig)
    mil = build("mil", IaamConfig, dim=conf["enc.token_dim"], classes=classes)
    train = build("train", TrainConfig)
    return enc, mil, train


def echo_config(conf: dict) -> dict:
    out = {}
    for key in sorted(conf):
        val = conf[key]
        out[key] = ",".join(str(v) for v in val) if isinstance(val, tuple) else val
    return out


# ----------------------------------------------------------- subcommands


def _provider(dataset, kind: str):
    if kind == "file":
        if dataset.root is None:
            raise FileNotFoundError("file masks need an on-disk dataset")
        return FileMaskProvider(dataset.root)
    return oracle_provider(dataset)


def _load_dataset(path: str):
    root = Path(path)
    if not (root / "manifest.txt").exists():
        raise FileNotFoundError(f"no dataset manifest under {root}")
    dataset = load_dataset(root)
    if not dataset.slides:
        raise FileNotFoundError(f"dataset {root} has no slides")
    return dataset


def _find_slide(dataset, ident: str):
    for rec in dataset.slides:
        if rec.ident == ident:
            return rec
    raise FileNotFoundError(f"slide {ident!r} not in dataset")


def cmd_generate(args) -> int:
    if args.slides < 1:
        raise CliConfigError(f"--slides must be >= 1, got {args.slides}")
    spec = SynthSpec(
        classes=args.classes, width=args.width, height=args.height,
        lesion_fraction=args.lesion_frac,
    )
    out = Path(args.out)
    write_dataset(out, spec, args.slides, args.seed)
    print(f"dataset {out} slides={args.slides} classes={args.classes} seed={args.seed}")
    return 0


def cmd_filter(args) -> int:
    dataset = _load_dataset(args.dataset)
    record = _find_slide(dataset, args.slide)
    provider = _provider(dataset, args.mask)
    image = record.image()
    patch_set = run_sffm(image.width, image.height, provider.mask_for(record.ident))
    if args.out:
        write_refs(patch_set.refs, Path(args.out))
    n1, n2, n3 = patch_set.per_scale
    print(f"{n1} {n2} {n3}")
    return 0


def cmd_train(args) -> int:
    conf = load_run_config(args.config, args.set)
    dataset = _load_dataset(args.dataset)
    classes = dataset.spec.classes
    if args.stage == "mil_only" and not args.cache:
        raise CliConfigError("--stage mil_only requires --cache")
    if args.stage == "mil_only" and conf["train.stage2_epochs"] < 1:
        raise CliConfigError("--stage mil_only needs train.stage2_epochs >= 1, "
                             f"got {conf['train.stage2_epochs']}")
    model, enc_cfg, _, train_cfg = _load_model_for(dataset, conf, args.init_params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.stage == "mil_only":
        cache = read_cache(Path(args.cache))
        labels = {rec.ident: rec.label for rec in dataset.slides}
        dims = {rec.ident: (rec.width, rec.height) for rec in dataset.slides}
        manifest = train_mil_stage2(cache, labels, model, train_cfg.stage2(), dims)
    else:
        provider = _provider(dataset, args.mask)
        banks = build_banks(dataset, provider, enc_cfg.input_side)
        manifest, cache = train_full(banks, model, train_cfg)
        if cache is None:
            cache = cache_features(banks, model, scales=train_cfg.scales)
        write_cache(cache, out / "features.msml")

    write_params(model.store, out / "params.msmp")
    manifest_entries = {"dataset": args.dataset, "stage": args.stage, "classes": classes}
    manifest_entries.update(echo_config(conf))
    manifest_entries.update({k: v for k, v in manifest.items() if k not in manifest_entries})
    write_manifest(out / "manifest.txt", manifest_entries)
    print(f"params {out / 'params.msmp'}")
    return 0


def _load_model_for(dataset, conf, params_path):
    enc_cfg, mil_cfg, train_cfg = configs_from(conf, dataset.spec.classes)
    model = build_model(enc_cfg, mil_cfg, conf["model.seed"])
    if params_path is not None:
        # an empty path names the working directory, not a params file
        if not Path(params_path).is_file():
            raise FileNotFoundError(f"params file {params_path!r} not found")
        load_params(model.store, Path(params_path))
    return model, enc_cfg, mil_cfg, train_cfg


def _trainer(enc_cfg, mil_cfg, conf):
    """`trainer(banks, cfg) -> Model` for `study`: the whole training
    protocol on a fresh model seeded by `model.seed`."""
    def train(banks, cfg):
        model = build_model(enc_cfg, mil_cfg, conf["model.seed"])
        train_full(banks, model, cfg)
        return model
    return train


def cmd_infer(args) -> int:
    conf = load_run_config(args.config, args.set)
    dataset = _load_dataset(args.dataset)
    record = _find_slide(dataset, args.slide)
    model, enc_cfg, _, train_cfg = _load_model_for(dataset, conf, args.params)
    provider = _provider(dataset, args.mask)
    bank = build_bank(record, provider, enc_cfg.input_side)
    result = infer_bank(bank, model, scales=train_cfg.scales)
    probs = " ".join(repr(float(p)) for p in result.probabilities)
    flag = " fallback=all_nonbackground" if result.fallback else ""
    print(f"slide={args.slide} predicted={result.predicted} probs=[{probs}] "
          f"patches={result.patch_count} wall_ms={result.wall_ms:.1f}{flag}")
    return 0


def cmd_eval(args) -> int:
    conf = load_run_config(args.config, args.set)
    dataset = _load_dataset(args.dataset)
    provider = _provider(dataset, args.mask)
    out = Path(args.out) if args.out else None
    if args.kfold is not None:
        if args.params is not None:
            raise CliConfigError("--kfold trains a fresh model per fold and takes no --params")
        enc_cfg, mil_cfg, train_cfg = configs_from(conf, dataset.spec.classes)
        labels = [rec.label for rec in dataset.slides]
        # refuse a --kfold the slides cannot fill before building any bank
        splits = kfold_splits(labels, args.kfold, train_cfg.seed)
        banks = build_banks(dataset, provider, enc_cfg.input_side)
        (reports,) = study(banks, [(args.strategy, {})], splits, train_cfg,
                           _trainer(enc_cfg, mil_cfg, conf))
        summary = pool(reports, [labels[i] for _, test in splits for i in test])
        print(f"accuracy {summary['accuracy_mean']:.4f} +/- {summary['accuracy_sd']:.4f}  "
              f"auc {summary['auc_mean']:.4f} +/- {summary['auc_sd']:.4f}  "
              f"lesion_fallback_slides {summary['lesion_fallback_slides']}")
        if out:
            entries = {"kfold": args.kfold, "dataset": args.dataset, "strategy": args.strategy}
            entries.update(echo_config(conf))
            entries.update({k: v for k, v in summary.items() if k != "fold_sizes"})
            entries["fold_sizes"] = ",".join(str(s) for s in summary["fold_sizes"])
            write_report(out, entries)
        return 0
    if args.params is None:
        raise CliConfigError("eval scores trained params: give --params, or --kfold to train per fold")
    model, enc_cfg, _, train_cfg = _load_model_for(dataset, conf, args.params)
    banks = build_banks(dataset, provider, enc_cfg.input_side)
    report = evaluate(banks, model, train_cfg, args.strategy)
    print(f"accuracy {report.accuracy:.4f}  auc {report.auc_macro:.4f}  slides {len(banks)}  "
          f"lesion_fallback_slides {report.lesion_fallback_slides}  wall_ms {report.wall_ms:.0f}")
    if out:
        entries = {"dataset": args.dataset, "strategy": args.strategy,
                   "accuracy": f"{report.accuracy:.6f}", "auc_macro": f"{report.auc_macro:.6f}",
                   "lesion_fallback_slides": report.lesion_fallback_slides,
                   "wall_ms": f"{report.wall_ms:.1f}"}
        entries.update(echo_config(conf))
        rows = [[c] + list(map(int, report.confusion[c])) for c in range(report.confusion.shape[0])]
        write_report(out, entries, (["true\\pred"] + list(range(report.confusion.shape[0])), rows))
    return 0


def cmd_ablate(args) -> int:
    conf = load_run_config(args.config, args.set)
    dataset = _load_dataset(args.dataset)
    provider = _provider(dataset, args.mask)
    model, enc_cfg, _, train_cfg = _load_model_for(dataset, conf, args.params)
    banks = build_banks(dataset, provider, enc_cfg.input_side)
    reports = study(banks, [(s, {}) for s in STRATEGIES], [([], range(len(banks)))], train_cfg,
                    lambda *_: model)
    headers = ["strategy", "accuracy", "auc", "mean_patches", "lesion_fallback_slides", "wall_ms"]
    rows = [[s, r.accuracy, r.auc_macro, sum(r.patch_counts) / len(r.patch_counts), r.lesion_fallback_slides,
             r.wall_ms] for s, (r,) in zip(STRATEGIES, reports)]
    print(format_table(headers, rows))
    if args.out:
        entries = {"dataset": args.dataset, "params_hash": model.store.content_hash()}
        entries.update(echo_config(conf))
        write_report(Path(args.out), entries, (headers, rows))
    return 0


def cmd_sweep(args) -> int:
    conf = load_run_config(args.config, args.set)
    sizes = check_sizes(_csv_ints(args.sizes))
    dataset = _load_dataset(args.dataset)
    split = max(1, int(len(dataset.slides) * (1.0 - args.holdout))) if 0 < args.holdout < 1 else 0
    if not 0 < split < len(dataset.slides):
        raise CliConfigError(f"--holdout {args.holdout} is not in (0, 1) or leaves no held-out slide")
    provider = _provider(dataset, args.mask)
    enc_cfg, mil_cfg, train_cfg = configs_from(conf, dataset.spec.classes)
    banks = build_banks(dataset, provider, enc_cfg.input_side)
    reports = study(banks, [("lesion", {"instances_per_graph": size}) for size in sizes],
                    [(range(split), range(split, len(banks)))], train_cfg, _trainer(enc_cfg, mil_cfg, conf))
    curve = [(size, r.accuracy) for size, (r,) in zip(sizes, reports)]
    for b, acc in curve:
        print(f"{b} {acc:.4f}")
    print(f"lesion_fallback_slides {reports[0][0].lesion_fallback_slides}")
    if args.out:
        write_curve(Path(args.out), curve)
    return 0


# ----------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="msmil", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--slides", type=int, default=8)
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--lesion-frac", type=float, default=0.3, dest="lesion_frac")
    gen.add_argument("--width", type=int, default=4096)
    gen.add_argument("--height", type=int, default=4096)
    gen.set_defaults(func=cmd_generate)

    def common(p, params_required=False):
        p.add_argument("--dataset", required=True)
        p.add_argument("--mask", choices=("oracle", "file"), default="oracle")
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        if params_required:
            p.add_argument("--params", required=True)

    flt = sub.add_parser("filter", help="run the lesion filter on one slide")
    flt.add_argument("--dataset", required=True)
    flt.add_argument("--slide", required=True)
    flt.add_argument("--mask", choices=("oracle", "file"), default="oracle")
    flt.add_argument("--out", default=None)
    flt.set_defaults(func=cmd_filter)

    trn = sub.add_parser("train", help="train: the whole protocol, or the refinement alone")
    common(trn)
    trn.add_argument("--stage", choices=("e2e", "mil_only"), default="e2e")
    trn.add_argument("--out", required=True)
    trn.add_argument("--cache", default=None)
    trn.add_argument("--init-params", default=None, dest="init_params")
    trn.set_defaults(func=cmd_train)

    inf = sub.add_parser("infer", help="classify one slide")
    common(inf, params_required=True)
    inf.add_argument("--slide", required=True)
    inf.set_defaults(func=cmd_infer)

    ev = sub.add_parser("eval", help="evaluate params or run k-fold training")
    common(ev)
    ev.add_argument("--params", default=None)
    ev.add_argument("--kfold", type=int, default=None)
    ev.add_argument("--strategy", choices=STRATEGIES, default="lesion")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    abl = sub.add_parser("ablate", help="patch-selection strategy comparison")
    common(abl, params_required=True)
    abl.add_argument("--out", default=None)
    abl.set_defaults(func=cmd_ablate)

    swp = sub.add_parser("sweep", help="instances-in-graph sweep")
    common(swp)
    swp.add_argument("--sizes", required=True)
    swp.add_argument("--out", default=None)
    swp.add_argument("--holdout", type=float, default=0.25)
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliConfigError, ConfigError, RankError, SpecError, ValueError,
            StratificationError, InputError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, CoverageError, EmptySlideError) as e:
        print(f"missing input: {e}", file=sys.stderr)
        return EXIT_MISSING
    except (DivergenceError, NonFiniteFeatureError, UndefinedAucError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PpmError, RasterFileError, ParamFormatError, CacheFormatError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
