"""Plain SGD: one update per backward pass."""

from __future__ import annotations

from .engine import Tensor


class GradAccumSgd:
    """param <- param - lr * param.grad, for each parameter that has a gradient.

    It accumulates nothing; the name and `step` stay because `perfbench`
    subclasses this class and wraps `step`.
    """

    def __init__(self, params, lr: float):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
