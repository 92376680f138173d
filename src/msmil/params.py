"""Named parameter store shared by the encoder and the attention network."""

from __future__ import annotations

import hashlib

import numpy as np

from .numcore import Rng, Tensor, param


class ParamStore:
    """Flat mapping name -> parameter Tensor, iterated in sorted-name order."""

    def __init__(self):
        self._by_name: dict[str, Tensor] = {}

    def new(self, name: str, data) -> Tensor:
        if name in self._by_name:
            raise KeyError(f"duplicate parameter {name!r}")
        p = param(np.asarray(data, dtype=np.float64), name=name)
        self._by_name[name] = p
        return p

    def __getitem__(self, name: str) -> Tensor:
        return self._by_name[name]

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def tensors(self) -> list[Tensor]:
        return [self._by_name[n] for n in self.names()]

    def items(self):
        return [(n, self._by_name[n]) for n in self.names()]

    def subset(self, prefix: str) -> list[Tensor]:
        return [t for n, t in self.items() if n.startswith(prefix)]

    def zero_grad(self) -> None:
        for t in self._by_name.values():
            t.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        missing = set(self._by_name) - set(values)
        extra = set(values) - set(self._by_name)
        if missing or extra:
            raise KeyError(f"parameter name mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for n, t in self._by_name.items():
            if t.data.shape != values[n].shape:
                raise ValueError(f"shape mismatch for {n}: {t.data.shape} vs {values[n].shape}")
            t.data[...] = values[n]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for n, t in self.items():
            h.update(n.encode())
            h.update(t.data.tobytes())
        return h.hexdigest()


def uniform_init(rng: Rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Glorot-style uniform in +/- sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    n = int(np.prod(shape))
    return ((rng.uniform(n) * 2.0 - 1.0) * limit).reshape(shape)
