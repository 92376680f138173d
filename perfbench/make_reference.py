"""Regenerate perfbench/reference.json, the committed output traces at the default seed.

    python3 perfbench/make_reference.py

For each workload it records the loss and probabilities of the first ops at
`workloads.DEFAULT_SEED` on full-size inputs. `run.py` compares every
default-seed run against this prefix. Regenerate it only for a change to
msmil that is meant to change these numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run

REFERENCE_OPS = {"e2e_train": 8, "mil_bag": 16, "slide_infer": 4}


def main() -> int:
    run._pin_threads()
    run._import_path()
    from perfbench import workloads

    size = workloads.SIZES["full"]
    seed = workloads.DEFAULT_SEED
    out = {"seed": seed, "atol": workloads.REFERENCE_ATOL}
    work = run.WORK / f"reference-{os.getpid()}"
    try:
        for name, ops in REFERENCE_OPS.items():
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workloads.generate(name, seed, size, work)
            state = workloads.setup(name, seed, size, work)
            log = workloads.measure(state, float("inf"), max_ops=ops)
            if log.failed:
                sys.exit(f"{name}: {log.problems}")
            out[name] = {"losses": log.losses, "probs": log.probs}
            print(f"{name}: {ops} ops recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
