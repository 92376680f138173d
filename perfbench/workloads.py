"""The three workloads: input generation, set-up, the timed op loop and output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one ends. One op is one slide bag:

* e2e_train   -- one `e2e_train_step` inside `train_e2e` (forward, backward, SGD);
* mil_bag     -- one stage-2 step inside `train_mil_stage2` on a read-back cache;
* slide_infer -- `build_bank` then `infer_bank(lesion_only)` for one on-disk slide.

The benchmark calls msmil as a library. Where it needs to see inside a
training loop it replaces a name at the place the loop looks it up and puts
the original back afterwards.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import msmil.numcore as nc
import msmil.pipeline as pipeline
from msmil.cli import configs_from, load_run_config
from msmil.iaam import Bag, IaamNet
from msmil.numcore.optim import GradAccumSgd
from msmil.paramio import load_params, write_params
from msmil.sffm import full_grid
from msmil.synthwsi import SynthSpec, load_dataset, write_dataset

WORKLOADS = ("e2e_train", "mil_bag", "slide_infer")
DEFAULT_SEED = 1
CLASSES = 4
EPOCHS = 10 ** 6  # training loops run until the op budget stops them

# Stage 2 on 1,344-instance bags of random-normal features overflows at the
# CLI default train.stage2_lr=0.05 (loss ~1e90 or NaN in epoch 0, no error
# raised); 0.01 keeps every loss finite for far longer than one run.
MIL_LR = 0.01
# End-to-end training at the CLI default train.lr=0.05 diverges on some seeds
# (benchmark seed 406: loss ~1e107, then NaN from step 10); at 0.01 it stays
# finite. The learning rate does not change which ops run or their shapes.
E2E_LR = 0.01

# Reference traces match within this absolute tolerance: far above the
# ~1e-13 drift of a reordered float64 sum, far below one wrong SGD update.
REFERENCE_ATOL = 1e-7
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    slide_side: int = 4096     # e2e_train and slide_infer slides are square
    slides: int = 4            # one per class
    mil_slides: int = 8
    mil_side: int = 16384      # full_grid(16384, 16384) gives 1,344 instances


SIZES = {"full": Size(), "small": Size(slide_side=2048, mil_slides=4, mil_side=4096)}


class TimeUp(BaseException):
    """Raised at an op boundary once the run's time or op budget is spent.
    A BaseException so no handler in the program under test can swallow it."""


# ----------------------------------------------------------------- op log


class OpLog:
    """Closed-loop op accounting: latency, failures and the output traces."""

    def __init__(self, seconds: float, max_ops: int | None = None):
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.max_ops = max_ops
        self.attempted = 0
        self.failed = 0
        self.op_ms: dict[int, float] = {}      # every op that ran, by index
        self.ok_ms: list[float] = []           # ops that passed their checks
        self.losses: list[float | None] = []
        self.probs: list[list[float]] = []
        self.problems: list[str] = []
        self.current: int | None = None        # index of the open op
        self.stopped = self.started
        self._t0 = 0.0
        self._last_ok = True

    def expired(self) -> bool:
        return (time.perf_counter() >= self.deadline
                or (self.max_ops is not None and self.attempted >= self.max_ops))

    def begin(self) -> None:
        if self.expired():
            raise TimeUp
        self.current = self.attempted
        self.attempted += 1
        self._t0 = time.perf_counter()

    def _close(self, problem: str | None) -> None:
        now = time.perf_counter()
        ms = (now - self._t0) * 1000.0
        self.op_ms[self.current] = ms
        self.stopped = now
        self._last_ok = problem is None
        if problem is None:
            self.ok_ms.append(ms)
        else:
            self.failed += 1
            self.problems.append(f"op {self.current}: {problem}")
        self.current = None

    def end(self, loss: float | None, pred: int, probs: np.ndarray,
            problem: str | None = None) -> None:
        """Close the open op after checking its outputs."""
        probs = np.asarray(probs, dtype=np.float64).reshape(-1)
        self.losses.append(loss)
        self.probs.append(probs.tolist())
        self._close(problem or check_outputs(loss, pred, probs))

    def fail(self, exc: BaseException) -> None:
        """An exception escaped the program: the open op failed. With no op
        open it is the program's reaction to the op that just failed (as
        `DivergenceError` after a NaN loss), unless that op passed."""
        if self.current is not None:
            self._close(f"raised {type(exc).__name__}: {exc}")
        elif self._last_ok:
            self.attempted += 1
            self.failed += 1
            self._last_ok = False
            self.problems.append(f"outside an op: raised {type(exc).__name__}: {exc}")

    @property
    def seconds(self) -> float:
        return self.stopped - self.started


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.reshape(-1) - logits.max()
    e = np.exp(z)
    return e / e.sum()


def check_outputs(loss: float | None, pred: int, probs: np.ndarray) -> str | None:
    if loss is not None and not math.isfinite(loss):
        return f"non-finite loss {loss!r}"
    if not np.isfinite(probs).all():
        return "non-finite probabilities"
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        return f"probabilities sum to {probs.sum()!r}"
    if pred != int(np.argmax(probs)):
        return f"prediction {pred} is not the argmax {int(np.argmax(probs))}"
    return None


@contextmanager
def patched(owner, attr: str, value):
    """Set `owner.attr` for the block; restore (or remove) it afterwards."""
    missing = object()
    saved = vars(owner).get(attr, missing)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if saved is missing:
            delattr(owner, attr)
        else:
            setattr(owner, attr, saved)


# ------------------------------------------------------ inputs and set-up


def derived_seeds(seed: int) -> tuple[int, int, int]:
    """(data, model, train) seeds, all from the benchmark seed."""
    root = nc.Rng(seed)
    return tuple(int(root.child(tag).integers(0, 2 ** 31)) for tag in (1, 2, 3))


def configs(seed: int):
    """CLI default config with the derived model and training seeds."""
    _, model_seed, train_seed = derived_seeds(seed)
    conf = load_run_config(None, [])
    conf["model.seed"] = model_seed
    conf["train.seed"] = train_seed
    enc, mil, train = configs_from(conf, CLASSES)
    return enc, mil, train, model_seed


def mil_idents(size: Size) -> list[str]:
    return [f"slide_{i:04d}" for i in range(size.mil_slides)]


def generate(workload: str, seed: int, size: Size, out: Path) -> None:
    """Write the workload's inputs under `out` (run in a child process)."""
    data_seed = derived_seeds(seed)[0]
    enc, mil, _, model_seed = configs(seed)
    if workload == "mil_bag":
        grid = full_grid(size.mil_side, size.mil_side)
        idents = mil_idents(size)
        rows = nc.Rng(data_seed).normal(len(idents) * len(grid) * enc.token_dim)
        sidecar = [(ident, r.x, r.y, r.d_k, r.scale_code) for ident in idents for r in grid]
        cache = pipeline.FeatureCache(rows.reshape(-1, enc.token_dim), sidecar)
        pipeline.write_cache(cache, out / "features.msml")
        return
    spec = SynthSpec(classes=CLASSES, width=size.slide_side, height=size.slide_side)
    write_dataset(out / "data", spec, size.slides, data_seed)
    if workload == "slide_infer":
        write_params(pipeline.build_model(enc, mil, model_seed).store, out / "params.msmp")


@dataclass
class State:
    workload: str
    model: pipeline.Model
    cfg: pipeline.TrainConfig
    banks: list | None = None          # e2e_train
    cache: pipeline.FeatureCache | None = None   # mil_bag
    labels: dict | None = None
    dims: dict | None = None
    records: list | None = None        # slide_infer
    provider: object = None
    last_bank: pipeline.SlideBank | None = None


def setup(workload: str, seed: int, size: Size, inputs: Path) -> State:
    """Load the generated inputs, build banks or read the cache, build the model."""
    enc, mil, train, model_seed = configs(seed)
    if workload == "mil_bag":
        cache = pipeline.read_cache(inputs / "features.msml")
        idents = mil_idents(size)
        labels = {ident: i % CLASSES for i, ident in enumerate(idents)}
        dims = {ident: (size.mil_side, size.mil_side) for ident in idents}
        cfg = replace(train, lr=MIL_LR, epochs=EPOCHS, stage="mil_only")
        model = pipeline.build_model(enc, mil, model_seed)
        return State(workload, model, cfg, cache=cache, labels=labels, dims=dims)
    dataset = load_dataset(inputs / "data")
    provider = pipeline.oracle_provider(dataset)
    if workload == "e2e_train":
        banks = pipeline.build_banks(dataset, provider, enc.input_side)
        model = pipeline.build_model(enc, mil, model_seed)
        return State(workload, model, replace(train, lr=E2E_LR, epochs=EPOCHS), banks=banks)
    model = pipeline.build_model(enc, mil, model_seed)
    load_params(model.store, inputs / "params.msmp")
    return State(workload, model, train, records=dataset.slides, provider=provider)


# -------------------------------------------------------------- op loops


def _capture_logits(mil: IaamNet, seen: dict):
    def forward_logits(bag):
        # looked up on the class at call time, so a traced method is used
        seen["logits"] = IaamNet.forward_logits(mil, bag)
        return seen["logits"]

    return forward_logits


def _restarting(log: OpLog, train) -> None:
    """Run `train` until the op budget is spent, restarting it after a failure."""
    while True:
        try:
            train()
        except TimeUp:
            return
        except Exception as exc:  # a failed op must not end the run
            log.fail(exc)
            if log.expired():
                return


def run_e2e(st: State, log: OpLog) -> None:
    seen: dict = {}
    step = pipeline.e2e_train_step

    def timed_step(bank, model, opt, cfg, rng):
        log.begin()
        try:
            loss, pred = step(bank, model, opt, cfg, rng)
        except Exception as exc:
            log.fail(exc)
            raise
        log.end(loss, pred, softmax(seen["logits"].data))
        return loss, pred

    with ExitStack() as stack:
        stack.enter_context(patched(pipeline, "e2e_train_step", timed_step))
        stack.enter_context(patched(st.model.mil, "forward_logits", _capture_logits(st.model.mil, seen)))
        _restarting(log, lambda: pipeline.train_e2e(st.banks, st.model, st.cfg))


def run_mil(st: State, log: OpLog) -> None:
    seen: dict = {}
    cross_entropy = nc.cross_entropy

    def loss_of(logits, label):
        seen["loss"] = cross_entropy(logits, label)
        return seen["loss"]

    class SteppedSgd(GradAccumSgd):
        # the stage-2 loop has no per-step function: an op ends with its update
        def step(self):
            super().step()
            logits = seen["logits"].data
            log.end(seen["loss"].item(), int(np.argmax(logits)), softmax(logits))
            log.begin()

    def train():
        log.begin()
        pipeline.train_mil_stage2(st.cache, st.labels, st.model, st.cfg, st.dims)

    with ExitStack() as stack:
        stack.enter_context(patched(nc, "GradAccumSgd", SteppedSgd))
        stack.enter_context(patched(nc, "cross_entropy", loss_of))
        stack.enter_context(patched(st.model.mil, "forward_logits", _capture_logits(st.model.mil, seen)))
        _restarting(log, train)


def run_infer(st: State, log: OpLog) -> None:
    side = st.model.encoder_cfg.input_side
    for i in range(EPOCHS):
        try:
            log.begin()
        except TimeUp:
            return
        record = st.records[i % len(st.records)]
        try:
            bank = pipeline.build_bank(record, st.provider, side)
            result = pipeline.infer_bank(bank, st.model, scales=st.cfg.scales)
        except Exception as exc:  # a failed op must not end the run
            log.fail(exc)
            continue
        st.last_bank = bank
        problem = None
        if result.fallback or result.patch_count != len(bank.lesion_set.refs):
            problem = (f"patch_count {result.patch_count} != lesion refs "
                       f"{len(bank.lesion_set.refs)} (fallback={result.fallback})")
        log.end(None, result.predicted, result.probabilities, problem)


RUNNERS = {"e2e_train": run_e2e, "mil_bag": run_mil, "slide_infer": run_infer}


def measure(st: State, seconds: float, max_ops: int | None = None, tracer=None) -> OpLog:
    """One timed phase; with a tracer its spans are tagged with the op index."""
    log = OpLog(seconds, max_ops)
    if tracer is None:
        RUNNERS[st.workload](st, log)
    else:
        tracer.op_index = lambda: log.current
        with tracer.installed():
            RUNNERS[st.workload](st, log)
        tracer.op_index = lambda: None
    return log


# ------------------------------------------------------------ run checks


def sample_bag(st: State) -> Bag:
    if st.workload == "e2e_train":
        bank = st.banks[0]
        idx = pipeline.select_batch(bank, st.cfg.patch_source, st.cfg.instances_per_graph,
                                    nc.Rng(0), st.cfg.scales, st.cfg.random_quotas)
        return pipeline.bag_from_bank(bank, idx, st.model)
    if st.workload == "slide_infer":
        bank = st.last_bank
        return pipeline.bag_from_bank(bank, bank.lesion_idx, st.model)
    idx = st.cache.by_slide()[min(st.labels)]
    entries = [st.cache.sidecar[i] for i in idx]
    width, height = st.dims[entries[0][0]]
    return Bag(nc.tensor(st.cache.rows[idx].astype(np.float64)),
               [(e[1], e[2]) for e in entries], [e[4] for e in entries], width, height)


def check_forward_modes(st: State) -> str | None:
    """Recorded and unrecorded IAAM forward must agree bitwise."""
    if st.workload == "slide_infer" and st.last_bank is None:
        return "no slide was banked"
    bag = sample_bag(st)
    plain = st.model.mil.forward_logits(bag).data
    with nc.record():
        taped = st.model.mil.forward_logits(bag).data
    if not np.array_equal(plain, taped):
        return "recorded and unrecorded IAAM forward differ"
    return None


def check_reference(workload: str, log: OpLog, reference: dict) -> str | None:
    """Compare the run's loss and probability traces with the committed prefix."""
    ref = reference[workload]
    n = min(len(ref["probs"]), len(log.probs))
    for i in range(n):
        want, got = ref["losses"][i], log.losses[i]
        if (want is None) != (got is None) or (want is not None and abs(want - got) > REFERENCE_ATOL):
            return f"op {i}: loss {got!r} differs from reference {want!r}"
        if np.abs(np.asarray(ref["probs"][i]) - np.asarray(log.probs[i])).max() > REFERENCE_ATOL:
            return f"op {i}: probabilities {log.probs[i]} differ from reference {ref['probs'][i]}"
    return None
