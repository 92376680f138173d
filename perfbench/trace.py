"""Spans around the public functions of each msmil layer, installed from outside.

Every wrapper goes on the name the caller looks up at call time: `nc.<op>`
for the numcore ops, module globals imported by name (`pipeline.box_downscale`,
`pipeline.run_sffm`, `synthwsi.generate.read_ppm`, ...) and class attributes
for methods reached through `self.` or `obj.`. Program code is not changed.

A span is (name, start, end, parent index, op index); op index is None for
work outside the timed phase. Spans stay in memory and are written out by
`Tracer.dump` at the end of the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import msmil.numcore as nc
import msmil.pipeline as pipeline
import msmil.raster as raster
import msmil.sffm as sffm
import msmil.synthwsi.generate as generate
import msmil.synthwsi.pyramid as pyramid
from msmil.iaam import IaamNet
from msmil.msfem import PatchEncoder
from msmil.numcore.engine import Graph
from msmil.numcore.optim import GradAccumSgd

MB = float(2 ** 20)

NC_OPS = ("matmul", "conv_unfold", "layer_norm", "silu", "block_self_attention",
          "softmax_rows", "add", "slice_cols", "gather_rows")

LAYERS = ("numcore", "msfem", "iaam", "pipeline", "raster", "synthwsi", "sffm")

# spans of these names are a finer view inside their caller's layer: they do
# not subtract from the caller's self time (see `Tracer.layer_self_ms`)
OP_SPANS = frozenset(f"numcore.{op}" for op in NC_OPS)

# functions that run outside the timed phase; their `.ms` is per call
PER_CALL = ("pipeline.read_cache", "synthwsi.generate_wsi")

# functions whose set-up share is reported as `.setup_ms`, ms per set-up: on
# e2e_train they run only while the banks are built
IN_SETUP = ("pipeline.build_bank", "raster.box_downscale", "synthwsi.read_ppm", "sffm.run_sffm")

PER_OP = ("numcore.backward", "numcore.optim_step",
          "msfem.extract_batch", "msfem.conv_trunk", "msfem.summarize",
          "iaam.forward_logits", "iaam.inject_encodings", "iaam.mla_layer",
          "iaam.dmq_cross_attention", "iaam.gated_pool",
          "pipeline.build_bank", "pipeline.infer_bank", "pipeline.select_batch",
          "pipeline.bag_from_bank", "raster.box_downscale", "synthwsi.read_ppm",
          "sffm.run_sffm", "sffm.full_grid")


def _tape(args, out):
    graph = args[0]
    return {"numcore.tape.nodes": len(graph.nodes),
            "numcore.tape.mb": sum(n.out.data.nbytes for n in graph.nodes) / MB}


def _matmul_flop(args, out):
    a, b = args[0].data, args[1].data
    return {"numcore.matmul.gflop": 2.0 * a.shape[0] * a.shape[1] * b.shape[1] / 1e9}


def _downscale_bytes(args, out):
    img, fy, fx = args[0], args[1], args[2]
    h, w = img.shape[:2]
    ch = img.shape[2] if img.ndim == 3 else 1
    # the float64 working copy of the cropped input
    return {"raster.box_downscale.mb": (h // fy * fy) * (w // fx * fx) * ch * 8 / MB}


def _ppm_bytes(args, out):
    return {"synthwsi.read_ppm.mb": os.path.getsize(args[0]) / MB}


def _patches(args, out):
    return {"msfem.patches": args[1].shape[0]}


def _bag(args, out):
    return {"iaam.bag_instances": args[1].size}


def _kept(args, out):
    return {"sffm.kept_refs": out.total}


def _grid(args, out):
    return {"sffm.grid_refs": len(out)}


def _targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    out = [(nc, op, f"numcore.{op}", _matmul_flop if op == "matmul" else None) for op in NC_OPS]
    out += [
        (Graph, "backward", "numcore.backward", _tape),
        (GradAccumSgd, "step", "numcore.optim_step", None),
        (PatchEncoder, "extract_batch", "msfem.extract_batch", _patches),
        (PatchEncoder, "conv_trunk", "msfem.conv_trunk", None),
        (PatchEncoder, "summarize", "msfem.summarize", None),
        (IaamNet, "forward_logits", "iaam.forward_logits", _bag),
        (IaamNet, "inject_encodings", "iaam.inject_encodings", None),
        (IaamNet, "mla_layer", "iaam.mla_layer", None),
        (IaamNet, "dmq_cross_attention", "iaam.dmq_cross_attention", None),
        (IaamNet, "gated_pool", "iaam.gated_pool", None),
        (pipeline, "build_bank", "pipeline.build_bank", None),
        (pipeline, "infer_bank", "pipeline.infer_bank", None),
        (pipeline, "select_batch", "pipeline.select_batch", None),
        (pipeline, "bag_from_bank", "pipeline.bag_from_bank", None),
        (pipeline, "read_cache", "pipeline.read_cache", None),
        (pipeline, "run_sffm", "sffm.run_sffm", _kept),
        (pipeline, "full_grid", "sffm.full_grid", _grid),
        (pipeline, "box_downscale", "raster.box_downscale", _downscale_bytes),
        (pyramid, "box_downscale", "raster.box_downscale", _downscale_bytes),
        (raster, "box_downscale", "raster.box_downscale", _downscale_bytes),
        (generate, "read_ppm", "synthwsi.read_ppm", _ppm_bytes),
        (sffm, "read_ppm", "synthwsi.read_ppm", _ppm_bytes),
        (generate, "generate_wsi", "synthwsi.generate_wsi", None),
    ]
    return out


class Tracer:
    """In-memory span recorder; `op_index()` says which op a span belongs to."""

    def __init__(self, op_index=lambda: None):
        self.op_index = op_index
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)       # timed phase only
        self.setup_counts: dict[str, float] = defaultdict(float)  # outside the timed phase
        self._stack: list[int] = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            op = self.op_index()
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, op)
            if counter is not None:
                for key, val in counter(args, out).items():
                    if op is not None:
                        self.counts[key] += val
                    else:
                        self.setup_counts[key] += val
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # ---------------------------------------------------------- aggregation

    def _self_ms(self) -> list[float]:
        """Per span: duration minus the spans directly under it, in ms.
        Numcore op spans are leaves inside their caller and subtract nothing."""
        own = [(s[2] - s[1]) * 1000.0 for s in self.spans]
        for s in self.spans:
            if s[3] >= 0 and s[0] not in OP_SPANS:
                own[s[3]] -= (s[2] - s[1]) * 1000.0
        return own

    def layer_self_ms(self) -> dict[int, dict[str, float]]:
        """op index -> layer -> self ms, over spans of the timed phase."""
        own = self._self_ms()
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for s, ms in zip(self.spans, own):
            if s[4] is not None and s[0] not in OP_SPANS:
                out[s[4]][s[0].split(".")[0]] += ms
        return out

    def metrics(self, n_ops: int, op_ms_total: float, n_setups: int,
                child_spans: list) -> dict[str, float]:
        """Every per-layer metric: `.ms` is inclusive ms per op of the timed
        phase (per call for PER_CALL), `.setup_ms`/`.setup_mb` are per set-up."""
        n = max(n_ops, 1)
        total = defaultdict(float)
        setup = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, _, op in self.spans:
            if op is not None:
                total[name] += (t1 - t0) * 1000.0
                calls[name] += 1
            else:
                setup[name] += (t1 - t0) * 1000.0
        out: dict[str, float] = {}
        for op in NC_OPS:
            out[f"numcore.{op}.calls"] = calls[f"numcore.{op}"] / n
            out[f"numcore.{op}.ms"] = total[f"numcore.{op}"] / n
        for name in PER_OP:
            out[f"{name}.ms"] = total[name] / n
        out["numcore.backward.calls"] = calls["numcore.backward"] / n
        for name in PER_CALL:
            spans = [s for s in self.spans + child_spans if s[0] == name]
            out[f"{name}.ms"] = (sum((s[2] - s[1]) * 1000.0 for s in spans) / len(spans)
                                 if spans else 0.0)
        for name in IN_SETUP:
            out[f"{name}.setup_ms"] = setup[name] / max(n_setups, 1)
        out["raster.box_downscale.setup_mb"] = (self.setup_counts["raster.box_downscale.mb"]
                                                / max(n_setups, 1))
        for key in ("numcore.tape.nodes", "numcore.tape.mb", "numcore.matmul.gflop",
                    "raster.box_downscale.mb", "synthwsi.read_ppm.mb", "msfem.patches",
                    "iaam.bag_instances"):
            out[key] = self.counts[key] / n
        mm_s = total["numcore.matmul"] / 1000.0
        out["numcore.matmul.gflops"] = self.counts["numcore.matmul.gflop"] / mm_s if mm_s else 0.0
        # the filter may run only during set-up (e2e_train), so count it there too
        kept, grid = (self.counts[k] + self.setup_counts[k] for k in ("sffm.kept_refs", "sffm.grid_refs"))
        out["sffm.kept_share"] = kept / grid if grid else 0.0
        per_op = self.layer_self_ms()
        covered = 0.0
        for layer in LAYERS:
            ms = sum(d[layer] for d in per_op.values()) / n
            out[f"self.{layer}.ms"] = ms
            covered += ms
        out["self.other.ms"] = op_ms_total / n - covered
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def load_spans(path: Path) -> list:
    return [tuple(s) for s in json.loads(path.read_text())["spans"]]
