"""Plain SGD with explicit gradient accumulation.

Accumulated gradients are averaged, not summed, so the effective learning
rate does not depend on how many micro-steps feed one update.
"""

from __future__ import annotations

import numpy as np

from .engine import EngineError, Tensor


class ProtocolError(EngineError):
    pass


class GradAccumSgd:
    def __init__(self, params, lr: float, accum_steps: int = 1):
        if accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        self.accum_steps = int(accum_steps)
        self._pending = [np.zeros_like(p.data) for p in self.params]
        self._count = 0

    @property
    def ready(self) -> bool:
        return self._count == self.accum_steps

    def accumulate(self) -> None:
        """Fold the current .grad of every parameter into the pending buffers."""
        for p, buf in zip(self.params, self._pending):
            if p.grad is not None:
                buf += p.grad
        self._count += 1

    def step(self) -> None:
        """Apply param <- param - lr * mean(accumulated grads); clears buffers."""
        if self._count != self.accum_steps:
            raise ProtocolError(
                f"step() after {self._count} accumulations, expected {self.accum_steps}"
            )
        for p, buf in zip(self.params, self._pending):
            p.data -= self.lr * (buf / self.accum_steps)
            buf[...] = 0.0
        self._count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
