"""Instance-aware attention over a bag of multi-scale patch features.

Pipeline: canonical spatial ordering -> additive coordinate/scale/index
encodings -> low-rank latent attention layer(s) -> learnable-query cross
attention -> gated pooling -> classification head.

`IaamNet.trace` is the one forward pass: it returns the ordered bag, the
cross-attention rows and gate values it used, and the logits. Training,
inference and attention diagnostics all read that pass, so a diagnostic is
always the one behind the prediction.

The latent attention runs as one fused `nc.attention` op, which keeps no
(N, N) array, so a layer's memory is linear in the bag size; its blocks of
query rows run on the engine's worker threads, with the same bits on one
thread as on two. The cross attention keeps its matmul/softmax chain: its
(queries, N) rows are the readout `IaamTrace` returns, and they are small.

Fidelity notes, each locked by a brute-force oracle test:
* the latent attention layer is exactly
  MLP(LayerNorm(A_low (T' W_value))) with A_low = softmax(Q_low K_low^T / sqrt(r)),
  and has NO residual connection;
* cross attention uses temperature sqrt(dim), not sqrt(rank);
* coordinates are normalized to [0, 1] by slide size before the encoding
  layer; scale codes stay raw 0/1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .encoding import sinusoid_table
from .params import ParamStore, uniform_init


class RankError(Exception):
    pass


@dataclass(frozen=True)
class IaamConfig:
    dim: int = 64
    rank: int = 16
    layers: int = 1
    queries: int = 10
    classes: int = 4

    def __post_init__(self):
        if self.rank < 1 or self.rank > self.dim:
            raise RankError(f"rank {self.rank} outside [1, dim={self.dim}]")
        if self.queries < 1 or self.classes < 2 or self.layers < 1:
            raise ValueError("queries >= 1, classes >= 2, layers >= 1 required")


@dataclass
class Bag:
    """Ordered instance features with their coordinates and scale codes."""

    features: nc.Tensor          # (N, dim)
    coords: np.ndarray           # (N, 2) base-pixel centers (x, y)
    scale_codes: np.ndarray      # (N,) values in {0, 1, 2}
    width: int
    height: int
    label: int | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 2)
        self.scale_codes = np.asarray(self.scale_codes, dtype=np.int64).reshape(-1)
        n = self.features.data.shape[0]
        if n < 1:
            raise ValueError("bag must contain at least one instance")
        if len(self.coords) != n or len(self.scale_codes) != n:
            raise ValueError("features, coords and scale_codes must align")

    @property
    def size(self) -> int:
        return self.features.data.shape[0]


# one read-only index encoding per dim, as long as the largest bag seen so far
_INDEX_TABLES: dict[int, np.ndarray] = {}


def _index_table(n: int, dim: int) -> np.ndarray:
    """The sinusoid index encoding of an n-instance bag.

    Each row depends only on its position and `dim`, so the first n rows of a
    longer table equal `sinusoid_table(n, dim)` bitwise; the table is rebuilt
    only when a bag larger than any before it arrives.
    """
    table = _INDEX_TABLES.get(dim)
    if table is None or table.shape[0] < n:
        table = sinusoid_table(n, dim)
        table.setflags(write=False)
        _INDEX_TABLES[dim] = table
    return table[:n]


def order_instances(bag: Bag) -> Bag:
    """Stable sort by (x, y, scale_code), permuting all three arrays together."""
    order = np.lexsort((bag.scale_codes, bag.coords[:, 1], bag.coords[:, 0]))
    if (order == np.arange(bag.size)).all():
        return bag
    features = nc.gather_rows(bag.features, order)
    return Bag(features, bag.coords[order], bag.scale_codes[order],
               bag.width, bag.height, bag.label)


@dataclass
class IaamTrace:
    """What one forward pass computed, for a bag in canonical order."""

    bag: Bag                 # the ordered bag the pass ran on
    attention: np.ndarray    # (queries, N) cross-attention rows
    gates: np.ndarray        # (queries,) sigmoid gate per refined query row
    logits: nc.Tensor        # (1, classes)


class IaamNet:
    def __init__(self, cfg: IaamConfig, store: ParamStore, rng: nc.Rng):
        self.cfg = cfg
        self.store = store
        d, r, q, c = cfg.dim, cfg.rank, cfg.queries, cfg.classes
        store.new("mil.fc_pos.w", uniform_init(rng, 3, d, (3, d)))
        store.new("mil.fc_pos.b", np.zeros((1, d)))
        for l in range(cfg.layers):
            base = f"mil.mla{l}"
            # "head0" keeps the names that existing params files use
            store.new(f"{base}.head0.q_low", uniform_init(rng, d, r, (d, r)))
            store.new(f"{base}.head0.k_low", uniform_init(rng, d, r, (d, r)))
            store.new(f"{base}.value", uniform_init(rng, d, d, (d, d)))
            store.new(f"{base}.ln.g", np.ones((1, d)))
            store.new(f"{base}.ln.b", np.zeros((1, d)))
            store.new(f"{base}.mlp1.w", uniform_init(rng, d, 4 * d, (d, 4 * d)))
            store.new(f"{base}.mlp1.b", np.zeros((1, 4 * d)))
            store.new(f"{base}.mlp2.w", uniform_init(rng, 4 * d, d, (4 * d, d)))
            store.new(f"{base}.mlp2.b", np.zeros((1, d)))
        store.new("mil.dmq.queries", rng.normal(q * d).reshape(q, d) * 0.5)
        store.new("mil.dmq.query_proj", uniform_init(rng, d, d, (d, d)))
        store.new("mil.dmq.key_proj", uniform_init(rng, d, d, (d, d)))
        store.new("mil.dmq.value_proj", uniform_init(rng, d, d, (d, d)))
        store.new("mil.gate.w", uniform_init(rng, d, 1, (d, 1)))
        store.new("mil.gate.b", np.zeros((1, 1)))
        # damped head init: the pooled feature is a sum of `queries` gated
        # rows, so full-scale init starts with confidently wrong logits
        store.new("mil.head.w", uniform_init(rng, d, c, (d, c)) * 0.1)
        store.new("mil.head.b", np.zeros((1, c)))

    def _p(self, name: str) -> nc.Tensor:
        return self.store[f"mil.{name}"]

    # -------------------------------------------------------------- stages

    def inject_encodings(self, bag: Bag) -> nc.Tensor:
        """features + FC([x/W, y/H, scale]) + sinusoid(sequence index)."""
        pos = np.stack([
            bag.coords[:, 0] / bag.width,
            bag.coords[:, 1] / bag.height,
            bag.scale_codes.astype(np.float64),
        ], axis=1)
        fc = nc.linear(nc.tensor(pos), self._p("fc_pos.w"), self._p("fc_pos.b"))
        index_enc = nc.tensor(_index_table(bag.size, self.cfg.dim))
        return nc.add(nc.add(bag.features, fc), index_enc)

    def mla_layer(self, x: nc.Tensor, layer: int) -> nc.Tensor:
        base = f"mla{layer}"
        values = nc.matmul(x, self._p(f"{base}.value"))
        q = nc.matmul(x, self._p(f"{base}.head0.q_low"))
        k = nc.matmul(x, self._p(f"{base}.head0.k_low"))
        ctx = nc.attention(q, k, values, 1.0 / np.sqrt(self.cfg.rank))
        normed = nc.layer_norm(ctx, self._p(f"{base}.ln.g"), self._p(f"{base}.ln.b"))
        hidden = nc.silu(nc.linear(normed, self._p(f"{base}.mlp1.w"), self._p(f"{base}.mlp1.b")))
        return nc.linear(hidden, self._p(f"{base}.mlp2.w"), self._p(f"{base}.mlp2.b"))

    def dmq_cross_attention(self, encoded: nc.Tensor) -> tuple[nc.Tensor, nc.Tensor]:
        """Refined query rows (queries, dim) and the attention (queries, N) behind them."""
        q = nc.matmul(self._p("dmq.queries"), self._p("dmq.query_proj"))
        k = nc.matmul(encoded, self._p("dmq.key_proj"))
        v = nc.matmul(encoded, self._p("dmq.value_proj"))
        attn = nc.softmax_rows(nc.scale(nc.matmul(q, nc.transpose(k)), 1.0 / np.sqrt(self.cfg.dim)))
        return nc.matmul(attn, v), attn

    def gated_pool(self, refined: nc.Tensor) -> tuple[nc.Tensor, nc.Tensor]:
        """Gate-weighted sum of the refined rows (1, dim) and the gates (queries, 1)."""
        gates = nc.sigmoid(nc.linear(refined, self._p("gate.w"), self._p("gate.b")))
        return nc.matmul(nc.transpose(gates), refined), gates

    def logits(self, bag_feature: nc.Tensor) -> nc.Tensor:
        return nc.linear(bag_feature, self._p("head.w"), self._p("head.b"))

    # ------------------------------------------------------------- surface

    def trace(self, bag: Bag) -> IaamTrace:
        """The forward pass, with the attention and gates it used."""
        bag = order_instances(bag)
        x = self.inject_encodings(bag)
        for layer in range(self.cfg.layers):
            x = self.mla_layer(x, layer)
        refined, attn = self.dmq_cross_attention(x)
        pooled, gates = self.gated_pool(refined)
        return IaamTrace(bag, attn.data, gates.data[:, 0], self.logits(pooled))

    def forward_logits(self, bag: Bag) -> nc.Tensor:
        return self.trace(bag).logits

    def forward(self, bag: Bag) -> nc.Tensor:
        """Bag -> class probabilities (1, C)."""
        return nc.softmax_rows(self.forward_logits(bag))
