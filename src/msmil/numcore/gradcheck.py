"""Central-finite-difference oracle for analytic gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .engine import EngineError, Tensor, record


class DeterminismError(EngineError):
    pass


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-4,
) -> float:
    """Compare analytic gradients of scalar f() against central differences.

    f must be a pure function of the given parameters. Returns the worst
    relative error over all coordinates, with denominator
    max(|analytic|, |numeric|, 1e-8). Raises DeterminismError if two
    evaluations of f disagree.
    """
    params = list(params)
    v1 = f().item()
    v2 = f().item()
    if v1 != v2:
        raise DeterminismError(f"f() not deterministic: {v1!r} vs {v2!r}")

    for p in params:
        p.grad = None
    with record() as g:
        loss = f()
    g.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(an_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(an_flat[i] - numeric) / denom)
    return worst
