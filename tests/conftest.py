from concurrent.futures import Executor, Future

import numpy as np
import pytest

import msmil.numcore as nc
from msmil.iaam import IaamConfig
from msmil.msfem import EncoderConfig
from msmil.numcore import engine
from msmil.numcore.engine import _emit
from msmil.pipeline import build_banks, build_model, oracle_provider
from msmil.synthwsi import SynthSpec, build_dataset, generate_wsi

TINY_SIDE = 32


def tiny_model_config():
    enc = EncoderConfig(input_side=TINY_SIDE, widths=(8, 12, 16), token_dim=24, depth=1, heads=2)
    mil = IaamConfig(dim=24, rank=6, queries=4, classes=4)
    return enc, mil


def fresh_tiny_model(seed=5):
    enc, mil = tiny_model_config()
    return build_model(enc, mil, seed=seed)


class SerialExecutor(Executor):
    """Runs each submitted call at once, on the caller's thread."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def serial_spans(monkeypatch):
    """Conv spans and attention blocks run one after another on the calling thread."""
    monkeypatch.setattr(engine, "_span_pool", SerialExecutor)


@pytest.fixture(scope="session")
def c4_spec():
    return SynthSpec()


@pytest.fixture(scope="session")
def tiny_dataset(c4_spec):
    ds = build_dataset(c4_spec, 4, seed=77)
    provider = oracle_provider(ds)
    return ds, provider


@pytest.fixture(scope="session")
def tiny_banks(tiny_dataset):
    ds, provider = tiny_dataset
    return build_banks(ds, provider, TINY_SIDE)


@pytest.fixture(scope="session")
def c2_banks():
    """Six-slide two-class set; macro bands separate the classes (needs 5x)."""
    ds = build_dataset(SynthSpec(classes=2), 6, seed=66)
    provider = oracle_provider(ds)
    return build_banks(ds, provider, TINY_SIDE)


@pytest.fixture(scope="session")
def c4_slides(c4_spec):
    """One generated slide per class, shared across the suite (generation is ~3 s each)."""
    out = {}
    for label in range(4):
        img, mask = generate_wsi(c4_spec, label, 9000 + label)
        out[label] = (img, mask, label)
    return out


def _inf_gradient(t):
    """Identity in the forward pass, inf in the backward: a finite loss
    whose gradient is not."""
    out = nc.Tensor(t.data.copy())
    _emit(out, (t,), lambda g: (np.full_like(t.data, np.inf),))
    return out


@pytest.fixture
def inf_gradient_loss(monkeypatch):
    """Training losses come out finite, their gradients do not."""
    cross_entropy = nc.cross_entropy
    monkeypatch.setattr(nc, "cross_entropy", lambda logits, label: cross_entropy(_inf_gradient(logits), label))
