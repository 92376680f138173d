"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msmil.numcore as nc
import msmil.pipeline as pipeline
from perfbench import run, workloads
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
SMALL = workloads.SIZES["small"]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--size", "small", "--seconds", "120", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    proc = _run("--workload", workload, "--seed", "5", "--max-ops", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 * run.SEGMENTS and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in proc.stdout.splitlines())
        assert result["metrics"][name]["value"] > 0
    assert "ops_failed_share" in proc.stdout and "env {" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--max-ops", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert "isolation" in proc.stdout


def test_layer_map_documents_every_per_layer_metric():
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    names = set(workloads.WORKLOADS)
    assert {w["name"] for w in BENCH["workloads"]} <= names
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in LAYERS["metrics"]] == BENCH["per_layer"]
    for m in LAYERS["metrics"]:
        assert m["doc"]
        assert all(mv["metric"] in end_to_end and mv["workload"] in names for mv in m["moves"])
        assert set(m["no_change_on"]) <= names


def test_sources_missing_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "mil_bag", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _fresh_state(workload, tmp_path, name):
    inputs = tmp_path / name
    inputs.mkdir()
    workloads.generate(workload, 5, SMALL, inputs)
    return workloads.setup(workload, 5, SMALL, inputs)


@pytest.mark.parametrize("workload", ["e2e_train", "mil_bag"])
def test_traced_and_untraced_loss_traces_are_bitwise_identical(workload, tmp_path):
    plain = workloads.measure(_fresh_state(workload, tmp_path, "a"), 120, max_ops=3)
    traced = workloads.measure(_fresh_state(workload, tmp_path, "b"), 120, max_ops=3, tracer=Tracer())
    assert plain.failed == traced.failed == 0
    assert len(plain.losses) == 3
    assert plain.losses == traced.losses
    assert plain.probs == traced.probs


_RAISE_AT = {"e2e_train": (pipeline, "bag_from_bank"), "mil_bag": (nc, "cross_entropy"),
             "slide_infer": (pipeline, "infer_bank")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_an_op_that_raises_is_counted_failed_and_the_run_goes_on(workload, tmp_path, monkeypatch):
    state = _fresh_state(workload, tmp_path, "in")
    owner, attr = _RAISE_AT[workload]
    original = getattr(owner, attr)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, flaky)
    log = workloads.measure(state, 120, max_ops=4)
    assert (log.attempted, log.failed, len(log.ok_ms)) == (4, 1, 3)
    assert "injected failure" in log.problems[0]


def test_output_checks():
    ok = np.asarray([0.25, 0.25, 0.5])
    assert workloads.check_outputs(1.0, 2, ok) is None
    assert "non-finite loss" in workloads.check_outputs(float("nan"), 2, ok)
    assert "sum" in workloads.check_outputs(1.0, 2, np.asarray([0.25, 0.25, 0.5 + 1e-8]))
    assert "argmax" in workloads.check_outputs(1.0, 0, ok)


def test_a_failed_op_is_not_counted_twice_when_the_program_then_raises():
    log = workloads.OpLog(60)
    log.begin()
    log.end(float("nan"), 0, np.asarray([1.0, 0.0]))
    log.fail(pipeline.DivergenceError(0, float("nan")))
    assert (log.attempted, log.failed) == (1, 1)
    log.begin()
    log.end(1.0, 0, np.asarray([1.0, 0.0]))
    log.fail(RuntimeError("raised between ops"))
    assert (log.attempted, log.failed) == (3, 2)
