import shutil
from dataclasses import fields, replace

import numpy as np
import pytest

from msmil.cli import _DEFAULTS, _DERIVED, main
from msmil.iaam import IaamConfig
from msmil.msfem import EncoderConfig
from msmil.paramio import load_params, read_params, write_params
from msmil.pipeline import (
    FeatureCache,
    TrainConfig,
    build_banks,
    build_model,
    cache_features,
    oracle_provider,
    read_cache,
    train_full,
    write_cache,
)
from msmil.synthwsi import (SynthSpec, load_dataset, read_manifest, read_ppm, write_dataset,
                            write_manifest, write_ppm)
from tests.conftest import tiny_model_config

TINY_SETS = [
    "--set", "enc.input_side=32", "--set", "enc.widths=8,12,16",
    "--set", "enc.token_dim=24", "--set", "enc.depth=1", "--set", "enc.heads=2",
    "--set", "mil.rank=6", "--set", "mil.queries=4",
    "--set", "train.epochs=1", "--set", "train.instances_per_graph=6",
    "--set", "train.patch_source=lesion_only",
]


@pytest.fixture(scope="session")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    rc = main(["generate", "--out", str(root), "--slides", "4", "--classes", "4", "--seed", "3"])
    assert rc == 0
    return root


# ---------------------------------------------------------------- generate


def test_generate_layout_and_manifest(cli_dataset):
    slides = sorted(p.name for p in cli_dataset.iterdir() if p.is_dir())
    assert slides == [f"slide_{i:04d}" for i in range(4)]
    for name in ("image.ppm", "mask.ppm", "meta.txt"):
        assert (cli_dataset / "slide_0000" / name).exists()
    manifest = read_manifest(cli_dataset / "manifest.txt")
    assert manifest["classes"] == "4"
    assert manifest["single_scale_cap"] == "0.75"
    meta = read_manifest(cli_dataset / "slide_0001" / "meta.txt")
    assert set(meta) == {"label", "W", "H", "seed", "single_scale_cap"}


def test_generate_rerun_identical_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["generate", "--out", str(out), "--slides", "2", "--seed", "9"])
        assert rc == 0
    for rel in ("manifest.txt", "slide_0000/image.ppm", "slide_0001/mask.ppm"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_generate_lesion_fraction_flag(tmp_path):
    out = tmp_path / "frac"
    rc = main(["generate", "--out", str(out), "--slides", "1", "--lesion-frac", "0.1", "--seed", "4"])
    assert rc == 0
    mask = read_ppm(out / "slide_0000" / "mask.ppm")
    frac = (mask[:, :, 0] >= 128).mean()
    assert abs(frac - 0.1) <= 0.05


# ------------------------------------------------------------------ filter


def test_filter_fully_red_file_mask(cli_dataset, capsys):
    red = np.zeros((1024, 1024, 3), dtype=np.uint8)
    red[:, :, 0] = 255
    write_ppm(red, cli_dataset / "slide_0000" / "mask.ppm")
    try:
        rc = main(["filter", "--dataset", str(cli_dataset), "--slide", "slide_0000",
                   "--mask", "file"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "64 16 4"
    finally:
        # restore the real mask for later tests
        from msmil.synthwsi import generate_mask, load_dataset, mask_to_ppm

        ds = load_dataset(cli_dataset)
        mask = generate_mask(ds.spec, ds.slides[0].seed)
        write_ppm(mask_to_ppm(mask), cli_dataset / "slide_0000" / "mask.ppm")


def test_filter_empty_mask(cli_dataset, tmp_path, capsys):
    blank = np.zeros((1024, 1024, 3), dtype=np.uint8)
    write_ppm(blank, cli_dataset / "slide_0001" / "mask.ppm")
    out = tmp_path / "refs.txt"
    try:
        rc = main(["filter", "--dataset", str(cli_dataset), "--slide", "slide_0001",
                   "--mask", "file", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0 0 0"
        assert out.read_text() == ""
    finally:
        from msmil.synthwsi import generate_mask, load_dataset, mask_to_ppm

        ds = load_dataset(cli_dataset)
        mask = generate_mask(ds.spec, ds.slides[1].seed)
        write_ppm(mask_to_ppm(mask), cli_dataset / "slide_0001" / "mask.ppm")


def test_filter_mask_kinds_agree(cli_dataset, capsys):
    rc = main(["filter", "--dataset", str(cli_dataset), "--slide", "slide_0002", "--mask", "oracle"])
    oracle_out = capsys.readouterr().out
    rc2 = main(["filter", "--dataset", str(cli_dataset), "--slide", "slide_0002", "--mask", "file"])
    file_out = capsys.readouterr().out
    assert rc == rc2 == 0 and oracle_out == file_out


def test_filter_missing_slide_exit_3(cli_dataset, capsys):
    assert main(["filter", "--dataset", str(cli_dataset), "--slide", "nope"]) == 3


# ------------------------------------------------------------------- train


def test_train_eta_zero_keeps_init_params(cli_dataset, tmp_path, capsys):
    out = tmp_path / "run0"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--set", "train.lr=0", *TINY_SETS])
    assert rc == 0
    trained = read_params(out / "params.msmp")
    enc, mil = tiny_model_config()
    fresh = build_model(enc, mil, seed=1)  # model.seed default 1
    for name, arr in trained.items():
        assert (arr == fresh.store[name].data).all(), name


def test_train_stage_chaining_and_manifest(cli_dataset, tmp_path, capsys):
    run1 = tmp_path / "run1"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(run1),
               "--set", "train.seed=11", *TINY_SETS])
    assert rc == 0
    assert (run1 / "features.msml").exists() and (run1 / "features.msml.sidecar").exists()
    manifest = read_manifest(run1 / "manifest.txt")
    assert manifest["stage"] == "e2e"
    assert manifest["train.seed"] == "11"
    assert "epoch0_loss" in manifest and "wall_clock_s" in manifest

    run2 = tmp_path / "run2"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(run2),
               "--stage", "mil_only", "--cache", str(run1 / "features.msml"),
               "--init-params", str(run1 / "params.msmp"), "--set", "train.seed=11", *TINY_SETS,
               "--set", "train.stage2_epochs=1"])
    assert rc == 0
    m2 = read_manifest(run2 / "manifest.txt")
    assert m2["stage"] == "mil_only"
    # stage two must keep the extractor parameters from stage one
    p1 = read_params(run1 / "params.msmp")
    p2 = read_params(run2 / "params.msmp")
    for name in p1:
        if name.startswith("enc."):
            assert (p1[name] == p2[name]).all()


def test_train_seeded_rerun_matches_loss_trace(cli_dataset, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
                   "--set", "train.seed=21", *TINY_SETS])
        assert rc == 0
        outs.append(out)
    man_a = read_manifest(outs[0] / "manifest.txt")
    man_b = read_manifest(outs[1] / "manifest.txt")
    assert man_a["epoch0_loss"] == man_b["epoch0_loss"]
    assert abs(float(man_a["epoch0_loss"]) - float(man_b["epoch0_loss"])) < 1e-9
    assert (outs[0] / "params.msmp").read_bytes() == (outs[1] / "params.msmp").read_bytes()


def test_train_mil_only_without_cache_exit_5(cli_dataset, tmp_path):
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(tmp_path / "x"),
               "--stage", "mil_only", *TINY_SETS])
    assert rc == 5


def test_train_mil_only_without_stage2_epochs_exit_5(cli_dataset, cli_trained, tmp_path, capsys):
    """The refinement alone trains for `train.stage2_epochs`: at 0 it would
    be a silent no-op, so it is a config error naming that key."""
    out = tmp_path / "s2"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--stage", "mil_only",
               "--cache", str(cli_trained / "features.msml"), *TINY_SETS,
               "--set", "train.epochs=3"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "train.stage2_epochs" in err
    assert not (out / "params.msmp").exists()


def test_train_runs_the_whole_protocol_like_the_library(cli_dataset, tmp_path):
    """`msmil train` is `build_model` plus `train_full`: the refinement
    moves only the attention network, and its manifest entries carry the
    `stage2.` prefix."""
    out = tmp_path / "full"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--set", "train.seed=11",
               *TINY_SETS, "--set", "train.stage2_epochs=2"])
    assert rc == 0
    dataset = load_dataset(cli_dataset)
    banks = build_banks(dataset, oracle_provider(dataset), 32)
    enc, mil = tiny_model_config()
    cfg = TrainConfig(epochs=1, instances_per_graph=6, patch_source="lesion_only", seed=11,
                      stage2_epochs=2)
    refined = build_model(enc, mil, seed=1)  # model.seed default 1
    train_full(banks, refined, cfg)
    write_params(refined.store, tmp_path / "library.msmp")
    assert (out / "params.msmp").read_bytes() == (tmp_path / "library.msmp").read_bytes()

    e2e_only = build_model(enc, mil, seed=1)
    train_full(banks, e2e_only, replace(cfg, stage2_epochs=0))
    cli = read_params(out / "params.msmp")
    for name, arr in e2e_only.store.copy_values().items():
        if name.startswith("enc."):
            assert cli[name].tobytes() == arr.tobytes(), name
    assert any(not np.array_equal(cli[n], arr)
               for n, arr in e2e_only.store.copy_values().items() if n.startswith("mil."))
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["stage"] == "e2e" and manifest["stage2.stage"] == "mil_only"
    assert "stage2.epoch1_loss" in manifest and manifest["stage2.steps"] == "8"


@pytest.mark.parametrize("stage2_epochs", [0, 1])
def test_train_encodes_the_cache_once(cli_dataset, tmp_path, monkeypatch, stage2_epochs):
    """`features.msml` is the refinement's cache when there is one: one
    `cache_features` call either way, and the bytes of caching the
    written params afresh."""
    import msmil.cli
    import msmil.pipeline

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return cache_features(*args, **kwargs)

    monkeypatch.setattr(msmil.pipeline, "cache_features", counting)
    monkeypatch.setattr(msmil.cli, "cache_features", counting)
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--set", "train.seed=11",
               *TINY_SETS, "--set", f"train.stage2_epochs={stage2_epochs}"])
    assert rc == 0 and len(calls) == 1
    monkeypatch.undo()
    dataset = load_dataset(cli_dataset)
    enc, mil = tiny_model_config()
    model = build_model(enc, mil, seed=1)
    load_params(model.store, out / "params.msmp")
    write_cache(cache_features(build_banks(dataset, oracle_provider(dataset), 32), model),
                tmp_path / "again.msml")
    assert (out / "features.msml").read_bytes() == (tmp_path / "again.msml").read_bytes()
    assert (out / "features.msml.sidecar").read_bytes() == (tmp_path / "again.msml.sidecar").read_bytes()


def test_train_refuses_features_not_finite_as_float32_exit_4(cli_dataset, tmp_path, capsys):
    """Params whose features overflow float32 write no cache and no params."""
    enc, mil = tiny_model_config()
    model = build_model(enc, mil, seed=1)
    model.store["enc.proj.w"].data *= 1e40
    write_params(model.store, tmp_path / "huge.msmp")
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--init-params", str(tmp_path / "huge.msmp"), *TINY_SETS, "--set", "train.epochs=0"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "slide_0000" in err and "float32" in err
    assert list(out.iterdir()) == []


def test_unknown_config_key_exit_5(cli_dataset, tmp_path):
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(tmp_path / "x"),
               "--set", "train.bogus=1"])
    assert rc == 5


def test_every_config_key_but_the_model_seed_is_a_config_field():
    field_keys = {f"{section}.{f.name}"
                  for section, cls in (("enc", EncoderConfig), ("mil", IaamConfig), ("train", TrainConfig))
                  for f in fields(cls)}
    assert set(_DEFAULTS) - {"model.seed"} == field_keys - set(_DERIVED)
    assert len(_DEFAULTS) == 18


def test_config_file_precedence(cli_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs=1\ntrain.lr=0.0\ntrain.seed=33\n")
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--config", str(cfg), "--set", "train.seed=44", *TINY_SETS])
    assert rc == 0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["train.seed"] == "44"   # flag beats file
    assert manifest["train.lr"] == "0.0"    # file beats default


def test_missing_dataset_exit_3(tmp_path):
    assert main(["eval", "--dataset", str(tmp_path / "missing"), "--params", "x"]) == 3


def test_slide_with_no_usable_patch_exit_3(cli_trained, tmp_path, capsys):
    root = tmp_path / "small"
    assert main(["generate", "--out", str(root), "--slides", "1", "--width", "1024",
                 "--height", "1024", "--seed", "3"]) == 0
    capsys.readouterr()
    # a 2048 px crop fits nowhere on a 1024 px slide
    rc = main(["infer", "--dataset", str(root), "--slide", "slide_0000",
               "--params", str(cli_trained / "params.msmp"), *TINY_SETS, "--set", "train.scales=2048"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "missing input: slide slide_0000 has no usable patches\n"


def test_corrupt_ppm_exit_2(cli_dataset, tmp_path):
    bad = tmp_path / "bad_ds"
    shutil.copytree(cli_dataset, bad)
    (bad / "slide_0003" / "image.ppm").write_bytes(b"P6\n10 10\n255\n123")
    rc = main(["filter", "--dataset", str(bad), "--slide", "slide_0003", "--mask", "file"])
    assert rc == 2


def _one_slide_copy(cli_dataset, tmp_path):
    """A one-slide dataset whose slide_0000 is the CLI dataset's slide_0002."""
    bad = tmp_path / "bad_ds"
    shutil.copytree(cli_dataset / "slide_0002", bad / "slide_0000")
    write_manifest(bad / "manifest.txt", {**read_manifest(cli_dataset / "manifest.txt"), "slides": 1})
    return bad


def _one_line(err: str) -> bool:
    return err.count("\n") == 1 and "Traceback" not in err


def test_filter_mask_file_of_wrong_size_exit_2(cli_dataset, tmp_path, capsys):
    bad = _one_slide_copy(cli_dataset, tmp_path)
    mask = bad / "slide_0000" / "mask.ppm"
    write_ppm(np.zeros((512, 512, 3), dtype=np.uint8), mask)
    capsys.readouterr()
    rc = main(["filter", "--dataset", str(bad), "--slide", "slide_0000", "--mask", "file"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"io error: {mask}: ") and err.count("\n") == 1


def test_filter_cut_mask_file_names_it_exit_2(cli_dataset, tmp_path, capsys):
    bad = _one_slide_copy(cli_dataset, tmp_path)
    mask = bad / "slide_0000" / "mask.ppm"
    mask.write_bytes(mask.read_bytes()[:1000])
    capsys.readouterr()
    rc = main(["filter", "--dataset", str(bad), "--slide", "slide_0000", "--mask", "file"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"io error: {mask}: truncated raster: ") and _one_line(err)


def test_image_file_breaking_the_side_rule_names_it_exit_2(cli_dataset, tmp_path, capsys):
    """A slide is 1024 * 2**k px on each side; 1024 x 3072 is refused."""
    bad = _one_slide_copy(cli_dataset, tmp_path)
    image = bad / "slide_0000" / "image.ppm"
    write_ppm(np.full((3072, 1024, 3), 200, dtype=np.uint8), image)
    capsys.readouterr()
    rc = main(["filter", "--dataset", str(bad), "--slide", "slide_0000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"io error: {image}: slide sides must be 1024 * 2**k px")
    assert _one_line(captured.err)


def test_generate_width_breaking_the_side_rule_exit_5(tmp_path, capsys):
    out = tmp_path / "w3072"
    rc = main(["generate", "--out", str(out), "--slides", "1", "--width", "3072"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("config error: slide sides must be 1024 * 2**k px") and _one_line(err)
    assert not out.exists()


@pytest.mark.parametrize("slides", ["0", "-3"])
def test_generate_fewer_than_one_slide_exit_5(tmp_path, capsys, slides):
    out = tmp_path / "empty"
    rc = main(["generate", "--out", str(out), "--slides", slides])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --slides must be >= 1, got {slides}") and _one_line(err)
    assert not out.exists()


@pytest.mark.parametrize("command", [["train", "--out", "run"], ["eval", "--kfold", "2"],
                                     ["sweep", "--sizes", "2"]])
def test_dataset_without_slides_exit_3(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "empty"
    write_dataset(root, SynthSpec(), 0, 1)
    rc = main([command[0], "--dataset", str(root), *command[1:], *TINY_SETS])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"missing input: dataset {root} has no slides") and _one_line(err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", ["train.lr=nan", "train.lr=inf", "train.lr=-0.05",
                                     "train.stage2_lr=nan", "train.epochs=-1", "train.stage2_epochs=-3",
                                     "train.random_quotas=-1,2,3", "train.random_quotas=1,2"])
def test_train_config_bad_number_exit_5(cli_dataset, tmp_path, capsys, setting):
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), *TINY_SETS, "--set", setting])
    assert rc == 5
    captured = capsys.readouterr()
    key = setting.split("=")[0]
    assert captured.out == "" and captured.err.startswith(f"config error: {key} must be ")
    assert _one_line(captured.err)
    assert not out.exists()


@pytest.mark.parametrize("settings", [["enc.heads=0"], ["enc.heads=-2"], ["enc.widths=8,1,16"],
                                      ["enc.token_dim=1", "mil.rank=1"]],
                         ids=["heads_0", "heads_-2", "width_1", "token_dim_1"])
def test_encoder_the_model_cannot_run_exit_5(cli_dataset, tmp_path, capsys, monkeypatch, settings):
    import msmil.cli

    def no_banks(*args, **kwargs):
        raise AssertionError("build_banks ran before the refusal")

    monkeypatch.setattr(msmil.cli, "build_banks", no_banks)
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), *TINY_SETS,
               *[arg for setting in settings for arg in ("--set", setting)]])
    assert rc == 5
    captured = capsys.readouterr()
    key = settings[0].split("=")[0]
    assert captured.out == "" and captured.err.startswith(f"config error: {key} must be ")
    assert _one_line(captured.err)
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["eval", "--kfold", "-2"], "k-fold needs k >= 2 folds, got k=-2"),
    (["eval", "--kfold", "0"], "k-fold needs k >= 2 folds, got k=0"),
    (["sweep", "--sizes", ""], "sizes must be non-empty"),
], ids=["kfold_-2", "kfold_0", "sizes_empty"])
def test_kfold_below_two_or_no_sizes_exit_5(cli_dataset, capsys, command, message):
    capsys.readouterr()
    rc = main([command[0], "--dataset", str(cli_dataset), *command[1:], *TINY_SETS])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"config error: {message}")
    assert _one_line(captured.err)


@pytest.mark.parametrize("command, message", [
    (["eval", "--kfold", "-2"], "k-fold needs k >= 2 folds, got k=-2"),
    (["eval", "--kfold", "5"], "k=5 exceeds 4 slides"),
    (["sweep", "--sizes", ""], "sizes must be non-empty"),
    (["sweep", "--sizes", "4,2"], "sizes must be non-empty, ascending and >= 1, got [4, 2]"),
    (["sweep", "--sizes", "4,4"], "sizes must be non-empty, ascending and >= 1, got [4, 4]"),
], ids=["kfold_-2", "kfold_5", "sizes_empty", "sizes_descending", "sizes_repeated"])
def test_kfold_and_sizes_are_refused_before_any_bank_is_built(cli_dataset, capsys, monkeypatch,
                                                              command, message):
    import msmil.cli

    def no_banks(*args, **kwargs):
        raise AssertionError("build_banks ran before the refusal")

    monkeypatch.setattr(msmil.cli, "build_banks", no_banks)
    capsys.readouterr()
    rc = main([command[0], "--dataset", str(cli_dataset), *command[1:], *TINY_SETS])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and _one_line(err)


@pytest.fixture(scope="module")
def blank_mask_dataset(cli_dataset, tmp_path_factory):
    """`cli_dataset` with a mask file for slide_0001 that marks no lesion."""
    root = tmp_path_factory.mktemp("blank") / "ds"
    shutil.copytree(cli_dataset, root)
    write_ppm(np.zeros((1024, 1024, 3), dtype=np.uint8), root / "slide_0001" / "mask.ppm")
    return root


def test_train_lesion_only_on_a_blank_mask_falls_back(blank_mask_dataset, tmp_path):
    """A slide whose mask file marks no lesion trains, and is cached, on its
    non-background grid; the manifest counts it."""
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(blank_mask_dataset), "--out", str(out), "--mask", "file",
               *TINY_SETS, "--set", "train.stage2_epochs=1"])
    assert rc == 0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["slides"] == "4" and manifest["stage2.slides"] == "4"
    assert manifest["lesion_fallback_slides"] == "1"
    cache = read_cache(out / "features.msml")
    assert "slide_0001" in cache.by_slide()


def test_dataset_missing_a_manifest_slide_exit_3(tmp_path, capsys):
    root = tmp_path / "ds"
    assert main(["generate", "--out", str(root), "--slides", "2", "--width", "1024",
                 "--height", "1024", "--seed", "3"]) == 0
    shutil.rmtree(root / "slide_0001")
    capsys.readouterr()
    rc = main(["filter", "--dataset", str(root), "--slide", "slide_0000"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)
    assert captured.err.startswith(f"missing input: slide directory {root / 'slide_0001'} ")


@pytest.mark.parametrize("side", ["48", "1024"])
def test_input_side_not_dividing_512_exit_5(cli_dataset, tmp_path, capsys, side):
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), *TINY_SETS,
               "--set", f"enc.input_side={side}"])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)
    assert captured.err.startswith(f"config error: input side {side} must divide 512")
    assert not (out / "params.msmp").exists()


# ------------------------------------------------- infer / eval / ablate


@pytest.fixture(scope="session")
def cli_trained(cli_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out),
               "--set", "train.seed=55", *TINY_SETS])
    assert rc == 0
    return out


def test_infer_reports_prediction(cli_dataset, cli_trained, capsys):
    rc = main(["infer", "--dataset", str(cli_dataset), "--slide", "slide_0002",
               "--params", str(cli_trained / "params.msmp"), *TINY_SETS])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted=" in out and "patches=" in out
    probs = [float(tok) for tok in out.split("probs=[")[1].split("]")[0].split()]
    assert abs(sum(probs) - 1.0) < 1e-9


def test_infer_empty_params_path_exit_3(cli_dataset, capsys):
    rc = main(["infer", "--dataset", str(cli_dataset), "--slide", "slide_0002",
               "--params", "", *TINY_SETS])
    assert rc == 3
    assert capsys.readouterr().out == ""


def test_infer_cut_params_exit_2(cli_dataset, cli_trained, tmp_path, capsys):
    cut = tmp_path / "cut.msmp"
    cut.write_bytes((cli_trained / "params.msmp").read_bytes()[:14])
    rc = main(["infer", "--dataset", str(cli_dataset), "--slide", "slide_0002",
               "--params", str(cut), *TINY_SETS])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_train_mil_only_nan_cache_exit_4(cli_dataset, cli_trained, tmp_path):
    cache = read_cache(cli_trained / "features.msml")
    poisoned = tmp_path / "nan.msml"
    write_cache(FeatureCache(np.full_like(cache.rows, np.nan), cache.sidecar), poisoned)
    out = tmp_path / "s2"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--stage", "mil_only",
               "--cache", str(poisoned), *TINY_SETS, "--set", "train.stage2_epochs=1"])
    assert rc == 4
    assert not (out / "params.msmp").exists()


def test_train_inf_gradient_exit_4(cli_dataset, cli_trained, tmp_path, inf_gradient_loss):
    out = tmp_path / "s2"
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--stage", "mil_only",
               "--cache", str(cli_trained / "features.msml"), *TINY_SETS,
               "--set", "train.stage2_epochs=1"])
    assert rc == 4
    assert not (out / "params.msmp").exists()


def test_train_mil_only_cache_of_another_dataset_exit_2(cli_dataset, cli_trained, tmp_path, capsys):
    cache = read_cache(cli_trained / "features.msml")
    foreign = [("slide_0099",) + entry[1:] if entry[0] == cache.sidecar[-1][0] else entry
               for entry in cache.sidecar]
    write_cache(FeatureCache(cache.rows, foreign), tmp_path / "foreign.msml")
    out = tmp_path / "s2"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--stage", "mil_only",
               "--cache", str(tmp_path / "foreign.msml"), *TINY_SETS,
               "--set", "train.stage2_epochs=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'slide_0099'" in err
    assert not (out / "params.msmp").exists()


def test_train_mil_only_cache_of_another_width_exit_2(cli_dataset, cli_trained, tmp_path, capsys):
    out = tmp_path / "s2"
    capsys.readouterr()
    rc = main(["train", "--dataset", str(cli_dataset), "--out", str(out), "--stage", "mil_only",
               "--cache", str(cli_trained / "features.msml"), *TINY_SETS,
               "--set", "enc.token_dim=32", "--set", "train.stage2_epochs=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dim 24" in err and "32" in err
    assert not (out / "params.msmp").exists()


def test_infer_ppm_with_trailing_bytes_exit_2(cli_trained, tmp_path, capsys):
    root = tmp_path / "ds"
    assert main(["generate", "--out", str(root), "--slides", "1", "--classes", "4", "--seed", "3"]) == 0
    image = root / "slide_0000" / "image.ppm"
    image.write_bytes(image.read_bytes() + b"\n")
    capsys.readouterr()
    rc = main(["infer", "--dataset", str(root), "--slide", "slide_0000",
               "--params", str(cli_trained / "params.msmp"), *TINY_SETS])
    assert rc == 2
    assert "trailing bytes" in capsys.readouterr().err


def test_eval_writes_report(cli_dataset, cli_trained, tmp_path, capsys):
    report = tmp_path / "report_eval.txt"
    rc = main(["eval", "--dataset", str(cli_dataset),
               "--params", str(cli_trained / "params.msmp"), "--out", str(report), *TINY_SETS])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    text = report.read_text()
    assert "accuracy=" in text and "true\\pred" in text


def test_ablate_emits_three_row_table(cli_dataset, cli_trained, tmp_path, capsys):
    report = tmp_path / "report_ablate.txt"
    rc = main(["ablate", "--dataset", str(cli_dataset),
               "--params", str(cli_trained / "params.msmp"), "--out", str(report), *TINY_SETS])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines[0].split()[0] == "strategy"
    assert [l.split()[0] for l in lines[1:4]] == ["all", "random", "lesion"]
    entries = dict(line.split("=", 1) for line in report.read_text().splitlines() if "=" in line)
    assert len(entries["params_hash"]) == 64


def test_eval_and_ablate_count_the_blank_mask_fallback(blank_mask_dataset, cli_trained, tmp_path, capsys):
    """Only the lesion strategy reads the lesion set, so only its bags can
    fall back; on the blank mask one does."""
    args = ["--dataset", str(blank_mask_dataset), "--params", str(cli_trained / "params.msmp"),
            "--mask", "file", *TINY_SETS]
    report = tmp_path / "report_eval.txt"
    capsys.readouterr()
    assert main(["eval", *args, "--out", str(report)]) == 0
    assert "  lesion_fallback_slides 1  " in capsys.readouterr().out
    assert "lesion_fallback_slides=1\n" in report.read_text()
    assert main(["ablate", *args]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.strip()]
    col = header.index("lesion_fallback_slides")
    assert {row[0]: row[col] for row in rows} == {"all": "0", "random": "0", "lesion": "1"}


def test_eval_and_ablate_draw_the_same_random_quotas(tmp_path, capsys):
    """Random quotas are drawn from train.seed wherever a model is scored, so
    `eval --strategy random` prints `ablate`'s random row at any seed."""
    root = tmp_path / "ds"
    assert main(["generate", "--out", str(root), "--slides", "4", "--classes", "2",
                 "--width", "2048", "--height", "2048", "--seed", "3"]) == 0
    assert main(["train", "--dataset", str(root), "--out", str(tmp_path / "run"), "--set", "train.seed=55",
                 *TINY_SETS]) == 0
    args = ["--dataset", str(root), "--params", str(tmp_path / "run" / "params.msmp"), *TINY_SETS,
            "--set", "train.random_quotas=3,2,1", "--set", "train.seed=5"]
    capsys.readouterr()
    assert main(["eval", *args, "--strategy", "random"]) == 0
    tokens = capsys.readouterr().out.split()
    assert main(["ablate", *args]) == 0
    rows = {row[0]: row for row in (line.split() for line in capsys.readouterr().out.splitlines())}
    assert (tokens[0], tokens[2]) == ("accuracy", "auc")
    assert (tokens[1], tokens[3]) == (rows["random"][1], rows["random"][2])


@pytest.fixture(scope="module")
def blank_mask_c2_dataset(tmp_path_factory):
    """Four C=2 slides, so two folds keep both classes, with a mask file for
    slide_0001 that marks no lesion."""
    root = tmp_path_factory.mktemp("blank_c2") / "ds"
    assert main(["generate", "--out", str(root), "--slides", "4", "--classes", "2", "--seed", "3"]) == 0
    write_ppm(np.zeros((1024, 1024, 3), dtype=np.uint8), root / "slide_0001" / "mask.ppm")
    return root


def test_eval_kfold_counts_the_blank_mask_fallback(blank_mask_c2_dataset, tmp_path, capsys):
    """`eval --kfold` sums the test folds' fallback slides: on four C=2
    slides with a blank mask for slide_0001, one."""
    report = tmp_path / "report_kfold.txt"
    capsys.readouterr()
    assert main(["eval", "--dataset", str(blank_mask_c2_dataset), "--kfold", "2", "--mask", "file",
                 "--out", str(report), *TINY_SETS]) == 0
    assert capsys.readouterr().out.rstrip().endswith("  lesion_fallback_slides 1")
    assert "lesion_fallback_slides=1\n" in report.read_text()


def test_eval_kfold_scores_the_bags_of_its_strategy(blank_mask_c2_dataset, tmp_path, capsys):
    """`eval --kfold --strategy all` scores every fold on the non-background
    grid, which never falls back, and its report names the strategy."""
    report = tmp_path / "report_kfold.txt"
    capsys.readouterr()
    assert main(["eval", "--dataset", str(blank_mask_c2_dataset), "--kfold", "2", "--mask", "file",
                 "--strategy", "all", "--out", str(report), *TINY_SETS]) == 0
    assert capsys.readouterr().out.rstrip().endswith("  lesion_fallback_slides 0")
    text = report.read_text()
    assert "strategy=all\n" in text and "lesion_fallback_slides=0\n" in text


@pytest.mark.parametrize("holdout,count", [("0.75", 1), ("0.5", 0)])
def test_sweep_counts_the_blank_mask_fallback_of_its_held_out_slides(blank_mask_dataset, tmp_path, capsys,
                                                                     holdout, count):
    """`sweep` prints its held-out slides' fallback count after the curve:
    slide_0001 (blank mask) is held out at --holdout 0.75 and trained on at
    0.5. The curve file keeps its two columns."""
    curve = tmp_path / "curve.txt"
    capsys.readouterr()
    assert main(["sweep", "--dataset", str(blank_mask_dataset), "--sizes", "1,4", "--mask", "file",
                 "--out", str(curve), "--holdout", holdout, *TINY_SETS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["1", "4"]
    assert lines[2:] == [f"lesion_fallback_slides {count}"]
    assert [len(row.split()) for row in curve.read_text().splitlines()] == [2, 2]


def test_sweep_emits_curve_file(cli_dataset, tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    rc = main(["sweep", "--dataset", str(cli_dataset), "--sizes", "1,4",
               "--out", str(curve), "--holdout", "0.25", *TINY_SETS])
    assert rc == 0
    rows = curve.read_text().splitlines()
    assert len(rows) == 2
    assert rows[0].split()[0] == "1" and rows[1].split()[0] == "4"


@pytest.mark.parametrize("holdout", ["0", "-1", "1", "nan"])
def test_sweep_holdout_out_of_range_exit_5(cli_dataset, tmp_path, capsys, holdout):
    capsys.readouterr()
    rc = main(["sweep", "--dataset", str(cli_dataset), "--sizes", "1",
               "--out", str(tmp_path / "curve.txt"), "--holdout", holdout, *TINY_SETS])
    assert rc == 5
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "curve.txt").exists()


def test_sweep_holdout_with_no_held_out_slide_exit_5(tmp_path, capsys):
    root = tmp_path / "one"
    assert main(["generate", "--out", str(root), "--slides", "1", "--width", "1024",
                 "--height", "1024", "--seed", "3"]) == 0
    capsys.readouterr()
    rc = main(["sweep", "--dataset", str(root), "--sizes", "1", "--holdout", "0.5", *TINY_SETS])
    assert rc == 5
    assert "no held-out slide" in capsys.readouterr().err


def test_eval_kfold_with_params_exit_5(tmp_path, capsys):
    """Every fold trains a fresh model, so a params file would be ignored."""
    root = tmp_path / "kf"
    assert main(["generate", "--out", str(root), "--slides", "4", "--classes", "2",
                 "--width", "1024", "--height", "1024", "--seed", "8"]) == 0
    enc, mil = tiny_model_config()
    write_params(build_model(enc, replace(mil, classes=2), seed=1).store, tmp_path / "p.msmp")
    capsys.readouterr()
    rc = main(["eval", "--dataset", str(root), "--kfold", "2",
               "--params", str(tmp_path / "p.msmp"), *TINY_SETS])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "--params" in captured.err


def test_eval_without_params_or_kfold_exit_5(cli_dataset, tmp_path, capsys):
    """Scoring a freshly initialised model would read as a result."""
    report = tmp_path / "report.txt"
    capsys.readouterr()
    rc = main(["eval", "--dataset", str(cli_dataset), "--out", str(report), *TINY_SETS])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "--params" in captured.err
    assert not report.exists()


def test_eval_kfold_prints_mean_sd(tmp_path, capsys):
    ds = tmp_path / "kf"
    rc = main(["generate", "--out", str(ds), "--slides", "4", "--classes", "2", "--seed", "8"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--dataset", str(ds), "--kfold", "2", *TINY_SETS])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+/-" in out and "auc" in out
