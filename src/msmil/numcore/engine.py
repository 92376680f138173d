"""Reverse-mode differentiable tensor engine.

Minimal by design: float64 throughout, 2-D matrices everywhere, and exactly
the operations the slide-classification pipeline composes. A forward pass
either records onto an explicit tape (training) or does not (inference);
the two modes produce bitwise-identical values.

Gradient rules are verified against central finite differences by
`gradcheck.finite_diff_check`; keep any new op covered there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class EngineError(Exception):
    pass


class ShapeError(EngineError):
    pass


class LabelError(EngineError):
    pass


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    `requires_grad` marks leaves that want gradients; results of ops on such
    tensors inherit the flag so the backward sweep knows which branches to
    follow. `grad` is populated by `Graph.backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def tensor(data) -> Tensor:
    return Tensor(data)


def param(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: Tensor, inputs: tuple, vjp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Graph:
    """Execution tape: op records in forward order, i.e. already topological."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of `loss` into every recorded requires_grad tensor."""
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            out_grad = node.out.grad
            if out_grad is None:
                continue
            grads = node.vjp(out_grad)
            for t, g in zip(node.inputs, grads):
                if g is None:
                    continue
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g


_active: list[Graph] = []


@contextmanager
def record():
    """Record ops onto a fresh Graph. Nesting records onto the innermost graph."""
    g = Graph()
    _active.append(g)
    try:
        yield g
    finally:
        _active.pop()


def _emit(out: Tensor, inputs: tuple, vjp: Callable) -> None:
    if _active and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _active[-1].nodes.append(_Node(out, inputs, vjp))


# ---------------------------------------------------------------- basic ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd)

    def vjp(g):
        return (
            g @ bd.T if a.requires_grad else None,
            ad.T @ g if b.requires_grad else None,
        )

    _emit(out, (a, b), vjp)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; `b` may also be a (1, n) row broadcast over (m, n)."""
    ad, bd = a.data, b.data
    row_broadcast = bd.shape != ad.shape
    if row_broadcast and not (bd.shape == (1, ad.shape[1]) and ad.ndim == 2):
        raise ShapeError(f"add shape mismatch: {ad.shape} + {bd.shape}")
    out = Tensor(ad + bd)

    def vjp(g):
        gb = None
        if b.requires_grad:
            gb = g.sum(axis=0, keepdims=True) if row_broadcast else g
        return (g if a.requires_grad else None, gb)

    _emit(out, (a, b), vjp)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)

    def vjp(g):
        return (
            g * b.data if a.requires_grad else None,
            g * a.data if b.requires_grad else None,
        )

    _emit(out, (a, b), vjp)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    _emit(out, (a,), lambda g: (g * c,))
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray([[a.data.sum()]]))
    _emit(out, (a,), lambda g: (np.full_like(a.data, g.reshape(-1)[0]),))
    return out


# ------------------------------------------------------------ nonlinearities


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s)
    _emit(out, (a,), lambda g: (g * s * (1.0 - s),))
    return out


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth everywhere, which keeps finite-difference checks clean."""
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(a.data * s)
    _emit(out, (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Row softmax with per-row max subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    _emit(out, (a,), vjp)
    return out


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by elementwise affine."""
    ad = a.data
    cols = ad.shape[-1]
    if cols < 2:
        raise ShapeError(f"layer_norm needs >= 2 columns, got row length {cols}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mean = ad.mean(axis=-1, keepdims=True)
    var = ad.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (ad - mean) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def vjp(g):
        ga = None
        if a.requires_grad:
            gy = g * gain.data
            ga = inv * (gy - gy.mean(axis=-1, keepdims=True)
                        - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        ggain = (g * xhat).sum(axis=0, keepdims=True).reshape(gain.data.shape) if gain.requires_grad else None
        gbias = g.sum(axis=0, keepdims=True).reshape(bias.data.shape) if bias.requires_grad else None
        return (ga, ggain, gbias)

    _emit(out, (a, gain, bias), vjp)
    return out


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] for a single (1, C) logit row."""
    ld = logits.data
    if ld.ndim != 2 or ld.shape[0] != 1:
        raise ShapeError(f"cross_entropy expects (1, C) logits, got {ld.shape}")
    n_classes = ld.shape[1]
    if not (0 <= int(label) < n_classes):
        raise LabelError(f"label {label} out of range for {n_classes} classes")
    label = int(label)
    z = ld - ld.max()
    logsumexp = np.log(np.exp(z).sum())
    probs = np.exp(z - logsumexp)
    out = Tensor(np.asarray([[logsumexp - z[0, label]]]))

    def vjp(g):
        grad = probs.copy()
        grad[0, label] -= 1.0
        return (grad * g.reshape(-1)[0],)

    _emit(out, (logits,), vjp)
    return out


# ------------------------------------------------------------ shape plumbing


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy())
    _emit(out, (a,), lambda g: (g.T.copy(),))
    return out


def reshape(a: Tensor, shape) -> Tensor:
    src = a.data.shape
    out = Tensor(a.data.reshape(shape).copy())
    _emit(out, (a,), lambda g: (g.reshape(src).copy(),))
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def vjp(g):
        return tuple(
            g[offsets[i]:offsets[i + 1]] if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    _emit(out, tuple(parts), vjp)
    return out


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def vjp(g):
        return tuple(
            g[:, offsets[i]:offsets[i + 1]] if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    _emit(out, tuple(parts), vjp)
    return out


def slice_rows(a: Tensor, r0: int, r1: int) -> Tensor:
    out = Tensor(a.data[r0:r1].copy())

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[r0:r1] = g
        return (ga,)

    _emit(out, (a,), vjp)
    return out


def slice_cols(a: Tensor, c0: int, c1: int) -> Tensor:
    out = Tensor(a.data[:, c0:c1].copy())

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[:, c0:c1] = g
        return (ga,)

    _emit(out, (a,), vjp)
    return out


def gather_rows(a: Tensor, index) -> Tensor:
    """Row gather; index entries of -1 produce zero rows (used for padding)."""
    idx = np.asarray(index, dtype=np.int64)
    safe = np.clip(idx, 0, None)
    out_data = a.data[safe]
    if (idx < 0).any():
        out_data = out_data.copy()
        out_data[idx < 0] = 0.0
    out = Tensor(out_data)

    def vjp(g):
        ga = np.zeros_like(a.data)
        valid = idx >= 0
        np.add.at(ga, idx[valid], g[valid])
        return (ga,)

    _emit(out, (a,), vjp)
    return out


# ----------------------------------------------------- image / sequence ops


def conv_unfold(a: Tensor, batch: int, side: int, k: int, stride: int, pad: int) -> Tensor:
    """im2col for a batch of square feature maps stored as (batch*side*side, ch) rows.

    Output rows are output positions in (batch, y, x) order; each row holds the
    k*k window in (ky, kx, ch) order, ready for a (k*k*ch, ch_out) weight matmul.
    Zero padding. Backward scatters through the k*k shifted strided views.
    """
    ch = a.data.shape[1]
    if a.data.shape[0] != batch * side * side:
        raise ShapeError(f"conv_unfold rows {a.data.shape[0]} != batch*side*side {batch * side * side}")
    out_side = (side + 2 * pad - k) // stride + 1
    if out_side < 1:
        raise ShapeError(f"conv_unfold produces empty output for side={side}, k={k}, stride={stride}, pad={pad}")
    x = a.data.reshape(batch, side, side, ch)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]                      # (b, oh, ow, ch, k, k)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(batch * out_side * out_side, k * k * ch)
    out = Tensor(np.ascontiguousarray(cols))

    def vjp(g):
        gr = g.reshape(batch, out_side, out_side, k, k, ch)
        gp = np.zeros((batch, side + 2 * pad, side + 2 * pad, ch))
        for ky in range(k):
            for kx in range(k):
                gp[:, ky:ky + stride * out_side:stride, kx:kx + stride * out_side:stride] += gr[:, :, :, ky, kx]
        ga = gp[:, pad:pad + side, pad:pad + side] if pad else gp
        return (ga.reshape(batch * side * side, ch),)

    _emit(out, (a,), vjp)
    return out


def block_self_attention(q: Tensor, k: Tensor, v: Tensor, seq_len: int, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over a batch of equal-length sequences.

    Inputs are (batch*seq_len, dim) with dim divisible by n_heads; attention is
    computed independently per sequence and per head, scaled by 1/sqrt(head_dim).
    """
    rows, dim = q.data.shape
    if rows % seq_len:
        raise ShapeError(f"rows {rows} not a multiple of seq_len {seq_len}")
    if dim % n_heads:
        raise ShapeError(f"dim {dim} not divisible by {n_heads} heads")
    batch = rows // seq_len
    hd = dim // n_heads
    inv = 1.0 / np.sqrt(hd)

    def split(t):
        return t.reshape(batch, seq_len, n_heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.einsum("bhid,bhjd->bhij", qh, kh) * inv
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = np.einsum("bhij,bhjd->bhid", attn, vh)
    out = Tensor(np.ascontiguousarray(ctx.transpose(0, 2, 1, 3).reshape(rows, dim)))

    def vjp(g):
        gh = g.reshape(batch, seq_len, n_heads, hd).transpose(0, 2, 1, 3)
        gv = np.einsum("bhij,bhid->bhjd", attn, gh)
        gattn = np.einsum("bhid,bhjd->bhij", gh, vh)
        gscores = attn * (gattn - (gattn * attn).sum(axis=-1, keepdims=True))
        gq = np.einsum("bhij,bhjd->bhid", gscores, kh) * inv
        gk = np.einsum("bhij,bhid->bhjd", gscores, qh) * inv

        def merge(t):
            return np.ascontiguousarray(t.transpose(0, 2, 1, 3).reshape(rows, dim))

        return (
            merge(gq) if q.requires_grad else None,
            merge(gk) if k.requires_grad else None,
            merge(gv) if v.requires_grad else None,
        )

    _emit(out, (q, k, v), vjp)
    return out
