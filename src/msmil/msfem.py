"""Shared-weight multi-scale patch encoder.

One parameter set serves every crop size: a d_k px crop shrinks to a fixed
side S by the whole box factor d_k / S (block means; no resize and no
upsampling), runs through a strided conv trunk to an m x m feature map, is
flattened to tokens with a sinusoidal index encoding, and is summarized by
a learnable classification token through pre-norm transformer blocks. The
final token is projected to the instance feature dimension.

Patches are encoded in batches: the conv trunk and the row-wise transformer
pieces stack all patches into one set of matrices, and self-attention runs
per patch and head in `nc.block_self_attention`, on the engine's one
softmax-attention kernel (IAAM's `nc.attention` runs it too). Each conv
stage (conv, per-position channel norm, SiLU) is one `nc.conv_stage` node,
computed over spans of whole patches: the tape holds the stage's input map,
its standardized map and each position's 1/std, not the unfolded k*k*c_in
columns, the conv output or the norm output. The backward unfolds the
columns again span by span, so its temporaries do not grow with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .encoding import sinusoid_table
from .params import ParamStore, uniform_init
from .sffm import SCALE_SIDES

CONV_KERNEL = 3
CONV_STRIDE = 2
CONV_PAD = 1


class ConfigError(Exception):
    pass


def check_patch_side(side: int) -> None:
    """A patch side S divides 512, so a d_k crop shrinks by the whole box factor d_k / S."""
    if side < 1 or min(SCALE_SIDES) % side:
        raise ConfigError(f"input side {side} must divide 512, so every patch shrinks by a whole box factor")


@dataclass(frozen=True)
class EncoderConfig:
    input_side: int = 64          # S (paper 512): a crop shrinks by d_k / S (`check_patch_side`)
    widths: tuple[int, ...] = (24, 48, 96, 96)
    token_dim: int = 64           # instance feature dimension d
    depth: int = 2
    heads: int = 4

    def __post_init__(self):
        if not self.widths:
            raise ConfigError("need at least one conv stage")
        check_patch_side(self.input_side)
        if self.input_side % (CONV_STRIDE ** len(self.widths)):
            raise ConfigError(
                f"input side {self.input_side} not divisible by total stride "
                f"{CONV_STRIDE ** len(self.widths)}; feature map would not be square"
            )
        if self.feature_channels % self.heads:
            raise ConfigError(f"channels {self.feature_channels} not divisible by {self.heads} heads")
        if self.depth < 0 or self.token_dim < 1:
            raise ConfigError("bad depth or token_dim")

    @property
    def feature_side(self) -> int:
        return self.input_side // (CONV_STRIDE ** len(self.widths))

    @property
    def feature_channels(self) -> int:
        return self.widths[-1]

    @property
    def seq_len(self) -> int:
        return self.feature_side ** 2 + 1  # tokens plus the classification token


class PatchEncoder:
    """Conv trunk + transformer summarizer with named parameters."""

    def __init__(self, cfg: EncoderConfig, store: ParamStore, rng: nc.Rng, prefix: str = "enc"):
        self.cfg = cfg
        self.prefix = prefix
        c = cfg.feature_channels
        in_ch = 3
        for i, out_ch in enumerate(cfg.widths):
            fan_in = CONV_KERNEL * CONV_KERNEL * in_ch
            store.new(f"{prefix}.conv{i}.w", uniform_init(rng, fan_in, out_ch, (fan_in, out_ch)))
            store.new(f"{prefix}.conv{i}.b", np.zeros((1, out_ch)))
            # per-position channel normalization: keeps faint texture contrast
            # at unit scale instead of being drowned by the mean tissue color
            store.new(f"{prefix}.conv{i}.ln.g", np.ones((1, out_ch)))
            store.new(f"{prefix}.conv{i}.ln.b", np.zeros((1, out_ch)))
            in_ch = out_ch
        # unit-scale token: the pre-norm blocks and final norm handle scale,
        # and a near-constant row would sit in a high-curvature region of the
        # final normalization
        store.new(f"{prefix}.cls", rng.normal(c).reshape(1, c))
        for l in range(cfg.depth):
            base = f"{prefix}.layer{l}"
            store.new(f"{base}.ln1.g", np.ones((1, c)))
            store.new(f"{base}.ln1.b", np.zeros((1, c)))
            # no qkv bias: a shared key bias is softmax-invariant (zero gradient)
            # and the pre-norm bias already covers the query/value shifts
            store.new(f"{base}.qkv.w", uniform_init(rng, c, 3 * c, (c, 3 * c)))
            store.new(f"{base}.attn_out.w", uniform_init(rng, c, c, (c, c)))
            store.new(f"{base}.attn_out.b", np.zeros((1, c)))
            store.new(f"{base}.ln2.g", np.ones((1, c)))
            store.new(f"{base}.ln2.b", np.zeros((1, c)))
            store.new(f"{base}.mlp1.w", uniform_init(rng, c, 4 * c, (c, 4 * c)))
            store.new(f"{base}.mlp1.b", np.zeros((1, 4 * c)))
            store.new(f"{base}.mlp2.w", uniform_init(rng, 4 * c, c, (4 * c, c)))
            store.new(f"{base}.mlp2.b", np.zeros((1, c)))
        # final normalization of the classification token keeps the feature
        # scale stable for the fusion network regardless of depth
        store.new(f"{prefix}.final_ln.g", np.ones((1, c)))
        store.new(f"{prefix}.final_ln.b", np.zeros((1, c)))
        store.new(f"{prefix}.proj.w", uniform_init(rng, c, cfg.token_dim, (c, cfg.token_dim)))
        store.new(f"{prefix}.proj.b", np.zeros((1, cfg.token_dim)))
        self.store = store
        self._pos = sinusoid_table(cfg.feature_side ** 2, c)

    # ------------------------------------------------------------ pieces

    def _p(self, name: str) -> nc.Tensor:
        return self.store[f"{self.prefix}.{name}"]

    def conv_trunk(self, x: nc.Tensor, batch: int) -> nc.Tensor:
        """(batch*S*S, 3) pixel rows -> (batch*m*m, c_f) feature rows."""
        side = self.cfg.input_side
        for i in range(len(self.cfg.widths)):
            x = nc.conv_stage(x, self._p(f"conv{i}.w"), self._p(f"conv{i}.b"),
                              self._p(f"conv{i}.ln.g"), self._p(f"conv{i}.ln.b"),
                              batch, side, CONV_KERNEL, CONV_STRIDE, CONV_PAD)
            side = (side + 2 * CONV_PAD - CONV_KERNEL) // CONV_STRIDE + 1
        return x

    def _encoder_block(self, x: nc.Tensor, layer: int, batch: int) -> nc.Tensor:
        cfg = self.cfg
        base = f"layer{layer}"
        normed = nc.layer_norm(x, self._p(f"{base}.ln1.g"), self._p(f"{base}.ln1.b"))
        qkv = nc.matmul(normed, self._p(f"{base}.qkv.w"))
        ctx = nc.block_self_attention(qkv, cfg.seq_len, cfg.heads)
        attn = nc.linear(ctx, self._p(f"{base}.attn_out.w"), self._p(f"{base}.attn_out.b"))
        x = nc.add(x, attn)
        normed = nc.layer_norm(x, self._p(f"{base}.ln2.g"), self._p(f"{base}.ln2.b"))
        hidden = nc.silu(nc.linear(normed, self._p(f"{base}.mlp1.w"), self._p(f"{base}.mlp1.b")))
        mlp = nc.linear(hidden, self._p(f"{base}.mlp2.w"), self._p(f"{base}.mlp2.b"))
        return nc.add(x, mlp)

    def summarize(self, tokens: nc.Tensor, batch: int) -> nc.Tensor:
        """(batch*m*m, c_f) token rows -> (batch, token_dim) features."""
        cfg = self.cfg
        n_tok = cfg.feature_side ** 2
        pos = nc.tensor(np.tile(self._pos, (batch, 1)))
        tokens = nc.add(tokens, pos)
        full = nc.concat_rows([self._p("cls"), tokens])
        idx = np.empty(batch * cfg.seq_len, dtype=np.int64)
        for b in range(batch):
            idx[b * cfg.seq_len] = 0
            idx[b * cfg.seq_len + 1:(b + 1) * cfg.seq_len] = 1 + b * n_tok + np.arange(n_tok)
        x = nc.gather_rows(full, idx)
        for layer in range(cfg.depth):
            x = self._encoder_block(x, layer, batch)
        cls_rows = nc.gather_rows(x, np.arange(batch) * cfg.seq_len)
        normed = nc.layer_norm(cls_rows, self._p("final_ln.g"), self._p("final_ln.b"))
        return nc.linear(normed, self._p("proj.w"), self._p("proj.b"))

    # ------------------------------------------------------------ surface

    def extract_batch(self, patches: np.ndarray) -> nc.Tensor:
        """(batch, S, S, 3) patches -> (batch, token_dim) features.

        Pixel values are scaled to [0, 1]; parameters are shared across
        scale codes, so the output depends on pixels alone.
        """
        batch, side = patches.shape[0], patches.shape[1]
        if side != self.cfg.input_side:
            raise ConfigError(f"expected patch side {self.cfg.input_side}, got {side}")
        x = nc.tensor(patches.reshape(batch * side * side, 3) / 255.0)
        feats = self.conv_trunk(x, batch)
        return self.summarize(feats, batch)
