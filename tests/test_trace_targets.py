"""The benchmark tracer wraps functions by the name each caller looks up.
Deleting or renaming one of those names breaks the benchmark, so check here
that every target exists, gets wrapped, and is restored afterwards; and
that training still reaches the names the benchmark ends its ops in."""

import msmil.numcore as nc
import msmil.pipeline as pipeline
from msmil.pipeline import TrainConfig, train_full
from perfbench.trace import Tracer, _targets
from tests.conftest import fresh_tiny_model


def test_tracer_wraps_every_target_and_restores_it():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _targets()]
    with Tracer().installed():
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn, f"{owner.__name__}.{attr} not wrapped"
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"


def test_training_looks_up_the_names_the_benchmark_ends_its_ops_in(tiny_banks, monkeypatch):
    """An e2e_train op ends when `pipeline.e2e_train_step` returns; a mil_bag
    op ends in `step` of the `nc.GradAccumSgd` that stage 2 builds, with the
    loss of `nc.cross_entropy`. Each must be looked up at call time, once per
    step, or the benchmark times nothing."""
    calls = {"e2e_train_step": 0, "update": 0, "loss": 0}
    e2e_train_step, cross_entropy = pipeline.e2e_train_step, nc.cross_entropy

    def counting_step(*args):
        calls["e2e_train_step"] += 1
        return e2e_train_step(*args)

    class CountingSgd(nc.GradAccumSgd):
        def step(self):
            calls["update"] += 1
            super().step()

    def counting_loss(logits, label):
        calls["loss"] += 1
        return cross_entropy(logits, label)

    monkeypatch.setattr(pipeline, "e2e_train_step", counting_step)
    monkeypatch.setattr(nc, "GradAccumSgd", CountingSgd)
    monkeypatch.setattr(nc, "cross_entropy", counting_loss)
    cfg = TrainConfig(instances_per_graph=4, lr=0.02, epochs=2, stage2_epochs=2, stage2_lr=0.02, seed=1)
    manifest, _ = train_full(tiny_banks, fresh_tiny_model(seed=2), cfg)
    steps = 2 * len(tiny_banks)
    assert manifest["steps"] == manifest["stage2.steps"] == steps
    assert calls == {"e2e_train_step": steps, "update": 2 * steps, "loss": 2 * steps}
