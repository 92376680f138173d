"""Reverse-mode differentiable tensor engine.

Minimal by design: float64 throughout, 2-D matrices everywhere, and exactly
the operations the slide-classification pipeline composes, plus `mul` and
`sum_all`, from which the tests build their scalar losses. A forward pass
either records onto an explicit tape (training) or does not (inference);
the two modes produce bitwise-identical values.

The tape is one-shot. `Graph.backward` visits each node once, in reverse:
it runs the node's vjp, then drops the node's output gradient and the vjp
closure (with the temporaries it saved), so a backward pass holds only the
gradients still waiting for a consumer. A second backward on the same tape
is an EngineError. The first gradient a tensor receives is assigned, not
copied into a fresh buffer, and later ones are added out of place. So a vjp
never writes into its upstream gradient `g`, and may return `g` itself or a
view of it; a leaf's `.grad` may share memory with another gradient and is
read-only by the same rule.

Softmax attention has one kernel, `_attend` with its vjp `_attend_vjp`,
blocked with recompute (Rabe & Staats 2021, arXiv:2112.05682). It computes
softmax_rows(c * q @ k.T) @ v over (..., rows, d) stacks in blocks of query
rows and keeps each query row's max and sum, from which the vjp recomputes
each block's probabilities. So no (rows, keys) array outlives a block. A
forward block holds one (rows, keys) array of at most `_ATTENTION_BLOCK`
elements; a vjp block holds two, the probabilities and their gradient, so
it gets half the rows. Either pass splits its rows evenly into the fewest
blocks that fit. `attention` (IAAM's latent attention) runs it on 2-D q, k
and v, and `block_self_attention` (the encoder's) on per-head views of one
qkv array.

A node's vjp keeps its inputs and its output, and beyond them only: each
row's mean and 1/std for `layer_norm` (the standardized rows are recomputed),
the (1, C) probabilities for `cross_entropy`, each query row's (max, sum)
for the two attention ops, and the standardized map and each row's 1/std
for `conv_stage`. `silu` recomputes its sigmoid from the input; the shape
ops keep at most their index arrays.

Conv spans and attention blocks run on one private pool of up to
`_WORKERS` threads (BLAS and large ufuncs release the GIL); a call with a
single span or block runs it on the caller's thread. Each span or block
writes only its own rows of the output and of the input gradient, and the
caller adds the parts that every span contributes to (parameter gradients,
attention key and value gradients) in span order. The partition depends
only on the shapes, so every bit is the same on one thread and on two.

`conv_stage` is one encoder conv stage, silu(layer_norm(conv(x))), as one
node computed over spans of whole patches whose unfolded columns stay under
`_CONV_SPAN` elements; `_row_blocks` splits the batch into the fewest such
spans, evenly, as it splits attention rows into blocks. Its tape keeps no
(rows, k*k*c_in) columns, conv output or norm output. The vjp runs the
whole chain per span. It recomputes the SiLU input from the standardized
map, folds the pre-norm gradient @ w.T back onto the input map (skipped
when the map needs no gradient, as for pixels), and only then unfolds that
span's columns again for the weight gradient. So no backward temporary
grows with the batch, at the cost of one extra unfold per stage. With one
span, the forward and every gradient have the bits of the
conv_unfold/linear/layer_norm/silu chain. Over several spans
the parameter gradients are sums of per-span sums, and the forward keeps the
chain's bits as long as BLAS gives a span's rows the bits it gives them in
the whole batch: it does at the encoder's shapes, but not for a one-row
span. `layer_norm` and `silu` share their row-norm and SiLU math with it.

Gradient rules are verified against central finite differences by
`gradcheck.finite_diff_check`; keep any new op covered there.
"""

from __future__ import annotations

import math
import os
from collections import deque
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
        self.spent = False

    def backward(self, loss: Tensor) -> None:
        """Gradients of `loss` into every recorded requires_grad tensor; only
        leaves keep theirs."""
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self.spent:
            raise EngineError("backward already ran on this tape; record the forward again")
        self.spent = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            out_grad = node.out.grad
            vjp, node.vjp = node.vjp, None
            if out_grad is None:
                continue
            node.out.grad = None
            for t, g in zip(node.inputs, vjp(out_grad)):
                if g is not None:
                    t.grad = g if t.grad is None else t.grad + g


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


def _recording(inputs: tuple) -> bool:
    """Whether an op on `inputs` goes on the tape."""
    return bool(_active) and any(t.requires_grad for t in inputs)


def _emit(out: Tensor, inputs: tuple, vjp: Callable) -> None:
    if _recording(inputs):
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, with `b` a (1, n) row broadcast over the rows."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != (1, wd.shape[1]):
        raise ShapeError(f"linear shape mismatch: {xd.shape} x {wd.shape} + {bd.shape}")
    y = xd @ wd
    y += bd
    out = Tensor(y)

    def vjp(g):
        return (
            g @ wd.T if x.requires_grad else None,
            xd.T @ g if w.requires_grad else None,
            g.sum(axis=0, keepdims=True) if b.requires_grad else None,
        )

    _emit(out, (x, w, b), vjp)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def vjp(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

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


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) in one buffer, `out` when given."""
    s = np.negative(x, out=out)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.data)
    out = Tensor(s)
    _emit(out, (a,), lambda g: (g * s * (1.0 - s),))
    return out


def _silu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    y = _logistic(a, out)
    y *= a
    return y


def _silu_grad(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """g * silu'(a); the sigmoid is recomputed from the input, not held on a tape."""
    s = _logistic(a)
    ga = g * s
    np.subtract(1.0, s, out=s)      # 1 + x * (1 - s)
    s *= a
    s += 1.0
    ga *= s
    return ga


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth everywhere, which keeps finite-difference checks clean."""
    out = Tensor(_silu(a.data))
    _emit(out, (a,), lambda g: (_silu_grad(g, a.data),))
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Row softmax with per-row max subtraction."""
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        ga = g * y
        dot = ga.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=ga)
        ga *= y
        return (ga,)

    _emit(out, (a,), vjp)
    return out


_NORM_EPS = 1e-5


def _standardize(ad: np.ndarray, eps: float, out: np.ndarray | None = None):
    """Rows of `ad` to zero mean and unit variance, by the steps of ad.mean and
    ad.var: (xhat, mean, inv) with xhat = (ad - mean) * inv, written into `out`
    when given."""
    cols = ad.shape[-1]
    mean = ad.sum(axis=-1, keepdims=True)
    mean /= cols
    y = np.subtract(ad, mean, out=out)
    var = np.multiply(y, y).sum(axis=-1, keepdims=True)
    var /= cols
    inv = 1.0 / np.sqrt(var + eps)
    y *= inv
    return y, mean, inv


def _norm_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray,
               want_map: bool = True):
    """Gradients of xhat * gain + bias, xhat the standardized rows of a map:
    (map or None, gain, bias), the last two as (1, cols) column sums."""
    tmp = g * xhat
    ggain = tmp.sum(axis=0, keepdims=True)
    gbias = g.sum(axis=0, keepdims=True)
    if not want_map:
        return None, ggain, gbias
    # inv * (gy - mean(gy) - xhat * mean(gy * xhat)) with gy = g * gain
    ga = g * gain
    np.multiply(ga, xhat, out=tmp)
    proj = tmp.mean(axis=-1, keepdims=True)
    ga -= ga.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=tmp)
    ga -= tmp
    ga *= inv
    return ga, ggain, gbias


def _check_norm_cols(cols: int, op: str) -> None:
    if cols < 2:
        raise ShapeError(f"{op} needs >= 2 columns, got row length {cols}")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization followed by elementwise affine."""
    ad = a.data
    _check_norm_cols(ad.shape[-1], "layer_norm")
    # the affine in place; xhat is recomputed in the vjp from the kept input
    # instead of held on the tape
    y, mean, inv = _standardize(ad, _NORM_EPS)
    y *= gain.data
    y += bias.data
    out = Tensor(y)

    def vjp(g):
        xhat = ad - mean
        xhat *= inv
        ga, ggain, gbias = _norm_grad(g, xhat, inv, gain.data, a.requires_grad)
        return (ga,
                ggain.reshape(gain.data.shape) if gain.requires_grad else None,
                gbias.reshape(bias.data.shape) if bias.requires_grad else None)

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


def slice_cols(a: Tensor, c0: int, c1: int) -> Tensor:
    out = Tensor(a.data[:, c0:c1].copy())

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[:, c0:c1] = g
        return (ga,)

    _emit(out, (a,), vjp)
    return out


def gather_rows(a: Tensor, index) -> Tensor:
    """Row gather; a row may repeat, and its gradients add up."""
    idx = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[idx])

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    _emit(out, (a,), vjp)
    return out


# ----------------------------------------------------- image / sequence ops


def _conv_side(rows: int, batch: int, side: int, k: int, stride: int, pad: int, op: str) -> int:
    """Output side of a k x k window sweep, after checking the map's row count."""
    if rows != batch * side * side:
        raise ShapeError(f"{op} rows {rows} != batch*side*side {batch * side * side}")
    out_side = (side + 2 * pad - k) // stride + 1
    if out_side < 1:
        raise ShapeError(f"{op} produces empty output for side={side}, k={k}, stride={stride}, pad={pad}")
    return out_side


def _unfold(xd: np.ndarray, batch: int, side: int, k: int, stride: int, pad: int,
            out_side: int) -> np.ndarray:
    """(batch*side*side, ch) map rows -> (batch*out_side*out_side, k*k*ch)
    contiguous window rows, in (batch, y, x) and (ky, kx, ch) order."""
    ch = xd.shape[1]
    x = xd.reshape(batch, side, side, ch)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]                      # (b, oh, ow, ch, k, k)
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(batch * out_side * out_side, k * k * ch)
    return np.ascontiguousarray(cols)


def _fold(gcols: np.ndarray, ga: np.ndarray, k: int, stride: int, pad: int,
          out_side: int) -> None:
    """Adjoint of `_unfold`: window-row gradients added onto the
    (batch, side, side, ch) map gradient `ga`.

    Scatters straight into the unpadded map: taps on the padding are dropped,
    the rest add in the same (ky, kx) order. Per kernel offset d: the output
    positions whose tap lands inside the map, and the input positions they read.
    """
    batch, side, _, ch = ga.shape
    taps = []
    for d in range(k):
        lo = max(0, -(-(pad - d) // stride))
        hi = max(lo, min(out_side, (side - 1 + pad - d) // stride + 1))
        first = d + stride * lo - pad
        taps.append((d, slice(lo, hi), slice(first, first + stride * (hi - lo), stride)))
    gr = gcols.reshape(batch, out_side, out_side, k, k, ch)
    for ky, oy, iy in taps:
        for kx, ox, ix in taps:
            ga[:, iy, ix] += gr[:, oy, ox, ky, kx]


def conv_unfold(a: Tensor, batch: int, side: int, k: int, stride: int, pad: int) -> Tensor:
    """im2col for a batch of square feature maps stored as (batch*side*side, ch) rows.

    Output rows are output positions in (batch, y, x) order; each row holds the
    k*k window in (ky, kx, ch) order, ready for a (k*k*ch, ch_out) weight matmul.
    Zero padding. Backward scatters through the k*k shifted strided views.
    """
    out_side = _conv_side(a.data.shape[0], batch, side, k, stride, pad, "conv_unfold")
    out = Tensor(_unfold(a.data, batch, side, k, stride, pad, out_side))

    def vjp(g):
        ga = np.zeros((batch, side, side, a.data.shape[1]))
        _fold(g, ga, k, stride, pad, out_side)
        return (ga.reshape(a.data.shape),)

    _emit(out, (a,), vjp)
    return out


# unfolded columns per span of whole patches in `conv_stage`: 2 MiB of
# float64, so the spans in flight hold at most _WORKERS * 2 MiB
_CONV_SPAN = 2 ** 18
# threads that run conv spans and attention blocks; set by no option, like
# the span and the block
_WORKERS = 2
_span_executor = None                               # (pid, pool)


def _span_workers() -> int:
    """min(_WORKERS, the CPUs this process may run on)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:                          # no affinity API off Linux
        cpus = os.cpu_count() or 1
    return min(_WORKERS, cpus)


def _span_pool():
    """The process's span pool of `_span_workers()` threads, made on first use
    (again in a forked child, which has none of its parent's threads)."""
    global _span_executor
    if _span_executor is None or _span_executor[0] != os.getpid():
        # imported here: concurrent.futures pulls in logging, ~0.5 MiB that a
        # process running no span on the pool would carry for nothing
        from concurrent.futures import ThreadPoolExecutor
        _span_executor = (os.getpid(), ThreadPoolExecutor(_span_workers(), thread_name_prefix="msmil-span"))
    return _span_executor[1]


def _span_results(fn: Callable, spans: list[tuple[int, int]]):
    """fn(p0, p1) for each span, yielded in span order. A lone span runs on
    the caller's thread; more run on the span pool, with at most two spans
    per worker handed over ahead of the caller, so the results held do not
    grow with the batch. A span's error is raised in span order, once every
    span handed over has ended, so no span still writes when the caller goes
    on."""
    if len(spans) == 1:
        yield fn(*spans[0])
        return
    pool, ahead, window = _span_pool(), deque(), 2 * _span_workers()
    try:
        for span in spans:
            if len(ahead) == window:
                yield ahead.popleft().result()
            ahead.append(pool.submit(fn, *span))
        while ahead:
            yield ahead.popleft().result()
    finally:
        for future in ahead:
            future.exception()                      # waits for the span to end


def conv_stage(x: Tensor, w: Tensor, b: Tensor, gain: Tensor, bias: Tensor, batch: int,
               side: int, k: int, stride: int, pad: int) -> Tensor:
    """silu(layer_norm(linear(conv_unfold(x, ...), w, b), gain, bias)) as one
    node, computed over spans of whole patches (see the module docstring).

    The tape keeps x, the standardized map xhat and each row's 1/std. The vjp
    adds the w, b, gain and bias gradients up over the spans, in span order.
    """
    xd, wd, bd, gd, sd = x.data, w.data, b.data, gain.data, bias.data
    out_side = _conv_side(xd.shape[0], batch, side, k, stride, pad, "conv_stage")
    if (xd.ndim != 2 or wd.ndim != 2 or wd.shape[0] != k * k * xd.shape[1]
            or not bd.shape == gd.shape == sd.shape == (1, wd.shape[1])):
        raise ShapeError(f"conv_stage shape mismatch: {xd.shape} in {k}x{k} windows x {wd.shape} "
                         f"+ {bd.shape}, norm {gd.shape} {sd.shape}")
    _check_norm_cols(wd.shape[1], "conv_stage")
    n_in, n_out = side * side, out_side * out_side
    spans = _row_blocks(batch, _CONV_SPAN, n_out * wd.shape[0])
    keep = _recording((x, w, b, gain, bias))
    y = np.empty((batch * n_out, wd.shape[1]))
    xhat = np.empty_like(y) if keep else None
    inv = np.empty((batch * n_out, 1)) if keep else None

    def forward(p0, p1):
        r = slice(p0 * n_out, p1 * n_out)
        pre = _unfold(xd[p0 * n_in:p1 * n_in], p1 - p0, side, k, stride, pad, out_side) @ wd
        pre += bd
        xh, _, inv_r = _standardize(pre, _NORM_EPS, out=xhat[r] if keep else pre)
        if keep:
            inv[r] = inv_r
        z = np.multiply(xh, gd, out=pre)
        z += sd
        _silu(z, out=y[r])

    for _ in _span_results(forward, spans):
        pass
    out = Tensor(y)

    def vjp(g):
        gx = np.zeros((batch, side, side, xd.shape[1])) if x.requires_grad else None

        def span(p0, p1):
            r = slice(p0 * n_out, p1 * n_out)
            xh = xhat[r]
            z = xh * gd
            z += sd
            gpre, ggain, gbias = _norm_grad(_silu_grad(g[r], z), xh, inv[r], gd)
            del z
            # the map gradient first, so its (rows, k*k*ch) product is freed
            # before the columns are unfolded again
            if gx is not None:
                _fold(gpre @ wd.T, gx[p0:p1], k, stride, pad, out_side)
            gw = None
            if w.requires_grad:
                gw = _unfold(xd[p0 * n_in:p1 * n_in], p1 - p0, side, k, stride, pad, out_side).T @ gpre
            return [gw, gpre.sum(axis=0, keepdims=True), ggain, gbias]

        results = _span_results(span, spans)
        sums = next(results)                            # w, b, gain, bias
        for parts in results:
            for i, part in enumerate(parts):
                if part is not None:
                    sums[i] += part
        gw, gb, ggain, gbias = sums
        return (None if gx is None else gx.reshape(xd.shape), gw,
                gb if b.requires_grad else None,
                ggain if gain.requires_grad else None,
                gbias if bias.requires_grad else None)

    _emit(out, (x, w, b, gain, bias), vjp)
    return out


# (rows, keys) scores per block of query rows in `_attend`, counted across
# the whole stack: 1 MiB of float64. A vjp block holds two such arrays, the
# probabilities and their gradient, so it gets half the rows.
_ATTENTION_BLOCK = 2 ** 17


def _row_blocks(rows: int, budget: int, per_row: int) -> list[tuple[int, int]]:
    """`rows` in the fewest blocks of at most max(1, budget // per_row) rows,
    split evenly: 17 rows in blocks of up to 15 are 9 + 8, not 15 + 2."""
    n = max(1, -(-rows // max(1, budget // per_row)))
    size, extra = divmod(rows, n)
    return [(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra)) for i in range(n)]


def _scores(qb: np.ndarray, kt: np.ndarray, c: float) -> np.ndarray:
    """c * qb @ kt: a block's (..., rows, keys) attention logits."""
    p = qb @ kt
    p *= c
    return p


def _attend(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, c: float, y: np.ndarray) -> np.ndarray:
    """y <- softmax_rows(c * q @ k.T) @ v over (..., rows, d) stacks, in blocks
    of query rows run on the span pool; `y` may be a view. Each block spans
    every key and writes only its own rows, so the values are the
    matmul/scale/softmax_rows/matmul chain's. Returns each query row's
    (max, sum), the (..., rows, 2) stats `_attend_vjp` reads."""
    stats = np.empty(qd.shape[:-1] + (2,))
    kt = np.swapaxes(kd, -1, -2)

    def block(r0, r1):
        b = slice(r0, r1)
        p = _scores(qd[..., b, :], kt, c)
        m = p.max(axis=-1, keepdims=True)
        p -= m
        np.exp(p, out=p)
        l = p.sum(axis=-1, keepdims=True)
        p /= l
        y[..., b, :] = p @ vd
        stats[..., b, :1], stats[..., b, 1:] = m, l

    per_row = math.prod(qd.shape[:-2]) * kd.shape[-2]
    for _ in _span_results(block, _row_blocks(qd.shape[-2], _ATTENTION_BLOCK, per_row)):
        pass
    return stats


def _attend_vjp(g, qd, kd, vd, c, y, stats, gq, gk, gv) -> None:
    """Gradients of `_attend` into gq (rows written) and gk, gv (added into, so
    zeroed by the caller); each may be None or a view. The blocks, of half the
    forward's rows, run on the span pool; each writes its own rows of gq and
    returns its parts of gk and gv, which are added in block order."""
    kt, vt = np.swapaxes(kd, -1, -2), np.swapaxes(vd, -1, -2)

    def block(r0, r1):
        b = slice(r0, r1)
        p = _scores(qd[..., b, :], kt, c)
        p -= stats[..., b, :1]
        np.exp(p, out=p)
        p /= stats[..., b, 1:]
        gb = g[..., b, :]
        pv = None if gv is None else np.swapaxes(p, -1, -2) @ gb
        # rowsum(dp * p) == rowsum(g * out)
        dp = gb @ vt
        dp -= (gb * y[..., b, :]).sum(axis=-1, keepdims=True)
        dp *= p
        dp *= c
        if gq is not None:
            gq[..., b, :] = dp @ kd
        return None if gk is None else np.swapaxes(dp, -1, -2) @ qd[..., b, :], pv

    per_row = math.prod(qd.shape[:-2]) * kd.shape[-2]
    for pk, pv in _span_results(block, _row_blocks(qd.shape[-2], _ATTENTION_BLOCK // 2, per_row)):
        if pk is not None:
            gk += pk
        if pv is not None:
            gv += pv


def attention(q: Tensor, k: Tensor, v: Tensor, c: float) -> Tensor:
    """softmax_rows(c * q @ k.T) @ v as one node, on 2-D q, k and v."""
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2
            or qd.shape[1] != kd.shape[1] or kd.shape[0] != vd.shape[0]):
        raise ShapeError(f"attention shape mismatch: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    c = float(c)
    y = np.empty((qd.shape[0], vd.shape[1]))
    stats = _attend(qd, kd, vd, c, y)
    out = Tensor(y)

    def vjp(g):
        gq = np.empty_like(qd) if q.requires_grad else None
        gk = np.zeros_like(kd) if k.requires_grad else None
        gv = np.zeros_like(vd) if v.requires_grad else None
        _attend_vjp(g, qd, kd, vd, c, y, stats, gq, gk, gv)
        return (gq, gk, gv)

    _emit(out, (q, k, v), vjp)
    return out


def block_self_attention(qkv: Tensor, seq_len: int, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over a batch of equal-length sequences.

    `qkv` is (batch*seq_len, 3*dim): queries, keys and values side by side,
    with dim divisible by n_heads. Attention is computed independently per
    sequence and per head, scaled by 1/sqrt(head_dim); the output is
    (batch*seq_len, dim) and the gradient one (batch*seq_len, 3*dim) array.
    `_attend` runs on (batch, heads, seq, head_dim) views of qkv, the output
    and the gradient.
    """
    rows, width = qkv.data.shape
    if width % 3:
        raise ShapeError(f"qkv width {width} is not 3 * dim")
    dim = width // 3
    if rows % seq_len:
        raise ShapeError(f"rows {rows} not a multiple of seq_len {seq_len}")
    if dim % n_heads:
        raise ShapeError(f"dim {dim} not divisible by {n_heads} heads")
    batch = rows // seq_len
    hd = dim // n_heads
    c = 1.0 / np.sqrt(hd)

    def heads(a):
        """(rows, parts*dim) -> (parts, batch, heads, seq, hd), a view of a contiguous `a`."""
        return a.reshape(batch, seq_len, -1, n_heads, hd).transpose(2, 0, 3, 1, 4)

    qh, kh, vh = heads(qkv.data)
    y = np.empty((rows, dim))
    yh = heads(y)[0]
    stats = _attend(qh, kh, vh, c, yh)
    out = Tensor(y)

    def vjp(g):
        gqkv = np.zeros((rows, width))
        _attend_vjp(heads(g)[0], qh, kh, vh, c, yh, stats, *heads(gqkv))
        return (gqkv,)

    _emit(out, (qkv,), vjp)
    return out
