"""Run one msmil benchmark workload and print its metrics.

    python3 perfbench/run.py --workload e2e_train --seed 1 --seconds 40 --trace 0

Run from the repository root; msmil is imported from `src/`. The inputs are
generated first in a child process, so the measuring process's set-up time
and peak RSS cover only what a user of the library pays. With `--trace 0`
the run reports the end-to-end metrics of BENCHMARK.json; its timed phase is
split into segments, each of which sets up afresh and trains from the start,
so `setup_s` is a median over set-ups spread across the run. With `--trace 1`
it spends half of `--seconds` untraced and half traced, and reports the
per-layer metrics (see perfbench/layers.json) plus the tracing overhead.
Every line but the last is for people; the last line is the JSON result.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1            # one client, no extra threads; at most nproc
CHILD_TIMEOUT_S = 150
# An untraced run is SEGMENTS timed segments, each after a fresh set-up round,
# so set-up is sampled across the run as the op latencies are. A round sets up
# once, and again while that is cheap.
SEGMENTS = 4
SETUP_ROUND_S = 0.5
MAX_ROUND_SETUPS = 25



def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="input size; 'small' exists for the benchmark's own tests")
    p.add_argument("--max-ops", type=int, default=None, dest="max_ops",
                   help="stop each timed segment or phase after this many ops (tests)")
    p.add_argument("--generate", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_path() -> None:
    if not (SRC / "msmil" / "__init__.py").is_file():
        sys.exit(f"perfbench: no msmil sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed}


def _generate_in_child(args, out: Path) -> None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
           "--size", args.size, "--generate", str(out)]
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)


def _child(args) -> int:
    from perfbench import workloads
    from perfbench.trace import Tracer

    out = Path(args.generate)
    tracer = Tracer()
    with tracer.installed() if args.trace else nullcontext():
        workloads.generate(args.workload, args.seed, workloads.SIZES[args.size], out)
    if args.trace:
        tracer.dump(out / "gen_spans.json")
    return 0


def _release_memory() -> None:
    """Free what the last segment left and hand freed heap back to the OS, so
    each segment's set-up starts from memory as a fresh process would."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def _setup_round(args, size, work, tracer=None) -> tuple[list[float], object]:
    """Set up repeatedly; return the wall times and the last state."""
    from perfbench import workloads

    times: list[float] = []
    state = None
    while not times or (sum(times) < SETUP_ROUND_S and len(times) < MAX_ROUND_SETUPS):
        state = None  # let the previous set-up's banks go first
        t0 = time.perf_counter()
        with tracer.installed() if tracer is not None else nullcontext():
            state = workloads.setup(args.workload, args.seed, size, work)
        times.append(time.perf_counter() - t0)
    return times, state


def _p50(values) -> float:
    return statistics.median(values) if values else float("nan")


# what each workload is meant to isolate: a layer's self time or a span's duration
ISOLATES = {"e2e_train": ("numcore.backward", "msfem"), "mil_bag": ("numcore.backward", "iaam"),
            "slide_infer": ("raster", "synthwsi.read_ppm")}


def _isolation(workload: str, tracer, log) -> str:
    """Per op, the share of its time taken by the parts the workload isolates."""
    parts = ISOLATES[workload]
    layers = tracer.layer_self_ms()
    spans: dict = {}
    for name, t0, t1, _, op in tracer.spans:
        if name in parts and op is not None:
            spans[op] = spans.get(op, 0.0) + (t1 - t0) * 1000.0
    shares = [(spans.get(op, 0.0) + sum(layers[op][p] for p in parts if p in layers[op])) / ms
              for op, ms in log.op_ms.items()]
    label = " + ".join(parts)
    if not shares:
        return f"isolation {label}: no ops"
    return (f"isolation {label}: min {min(shares):.3f} median {_p50(shares):.3f} "
            f"of op time over {len(shares)} ops")


def _print_metrics(metrics: dict, samples: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:8s} (n={samples.get(name, 1)})")


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_threads()
    _import_path()
    if args.generate:
        return _child(args)

    from perfbench import workloads
    from perfbench.trace import Tracer, load_spans

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {workloads.WORKLOADS}")
    size = workloads.SIZES[args.size]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        _generate_in_child(args, work)
        tracer = Tracer()
        setup_s: list[float] = []
        bases = []  # the untraced timed segments
        seconds = args.seconds / 2 if args.trace else args.seconds / SEGMENTS
        for _ in range(1 if args.trace else SEGMENTS):
            state = None  # let the previous segment's banks and tape go first
            _release_memory()
            times, state = _setup_round(args, size, work, tracer if args.trace else None)
            setup_s += times
            bases.append(workloads.measure(state, seconds, args.max_ops))
            if len(bases) == 1:  # one set-up and its training, as in a fresh process
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_ms = [ms for lg in bases for ms in lg.ok_ms]
        timed_s = sum(lg.seconds for lg in bases)
        logs = list(bases)
        if args.trace:
            log = workloads.measure(state, seconds, args.max_ops, tracer)
            logs.append(log)

        problems = [p for lg in logs for p in lg.problems]
        problem = workloads.check_forward_modes(state)
        if problem:
            problems.append(problem)
        if args.seed == workloads.DEFAULT_SEED and args.size == "full":
            reference = json.loads((Path(__file__).parent / "reference.json").read_text())
            for k, lg in enumerate(bases):  # each segment trains from a fresh set-up
                problem = workloads.check_reference(args.workload, lg, reference)
                if problem:
                    problems.append(f"reference, segment {k}: {problem}")
        attempted = sum(lg.attempted for lg in logs)
        failed = sum(lg.failed for lg in logs)
        correct = not problems and failed == 0 and attempted > 0

        print("env " + json.dumps(_environment(args.seed), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
        untraced = {
            "slides_per_s": len(ok_ms) / timed_s if timed_s > 0 else 0.0,
            "slide_ms.p50": _p50(ok_ms),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: {"value": untraced[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
        samples = {"slides_per_s": len(ok_ms), "slide_ms.p50": len(ok_ms), "setup_s": len(setup_s)}
        print(f"end-to-end, {timed_s:.2f} s timed in {len(bases)} segment(s), closed loop, one client:")
        _print_metrics(e2e, samples)
        share = failed / attempted if attempted else 1.0
        print(f"  {'ops_failed_share':34s} {share:>14.6g} {'ratio':8s} "
              f"({failed} of {attempted} attempted)")
        if args.trace:
            child = work / "gen_spans.json"
            child_spans = load_spans(child) if child.exists() else []
            layer = tracer.metrics(log.attempted, sum(log.op_ms.values()), len(setup_s), child_spans)
            layer["trace.overhead.ms"] = _p50(log.ok_ms) - _p50(ok_ms)
            metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
            print(f"per layer, traced phase of {log.seconds:.2f} s, per op unless noted "
                  f"(traced slide_ms.p50 {_p50(log.ok_ms):.3f} ms over {len(log.ok_ms)} ops):")
            _print_metrics(metrics, {})
            print(_isolation(args.workload, tracer, log))
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = e2e
        for problem in problems:
            print(f"check failed: {problem}")
        print("checks " + ("passed" if correct else "FAILED"))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
