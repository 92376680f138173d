import tracemalloc

import numpy as np
import pytest

import msmil.numcore as nc
from msmil.numcore import engine
from msmil.encoding import sinusoid_table
from msmil.msfem import CONV_KERNEL, CONV_PAD, CONV_STRIDE, ConfigError, EncoderConfig, PatchEncoder
from msmil.params import ParamStore
from msmil.raster import box_downscale


def tiny_encoder(seed=1, **kw):
    cfg = EncoderConfig(input_side=kw.pop("input_side", 16), widths=kw.pop("widths", (6, 8)),
                        token_dim=kw.pop("token_dim", 12), depth=kw.pop("depth", 1),
                        heads=kw.pop("heads", 2), **kw)
    store = ParamStore()
    return PatchEncoder(cfg, store, nc.Rng(seed)), store


def encode(enc, patch):
    """One raw patch through the pipeline's path: a whole-factor box shrink,
    then the batch encoder."""
    factor = patch.shape[0] // enc.cfg.input_side
    return enc.extract_batch(box_downscale(patch, factor, factor)[None]).data[0]


def feature_map(enc, patch):
    """The conv trunk's (m, m, c_f) feature map of one resized patch."""
    side, m = enc.cfg.input_side, enc.cfg.feature_side
    rows = enc.conv_trunk(nc.tensor(patch.reshape(side * side, 3) / 255.0), 1)
    return rows.data.reshape(m, m, enc.cfg.feature_channels)


# -------------------------------------------------------------- conv trunk


def test_backbone_zero_input_zero_map():
    enc, _ = tiny_encoder()
    out = feature_map(enc, np.zeros((16, 16, 3)))
    np.testing.assert_array_equal(out, np.zeros_like(out))
    assert out.shape == (4, 4, 8)


def test_backbone_translation_equivariance():
    """Shifting the input by the total stride shifts the map one cell (interior)."""
    cfg = EncoderConfig(input_side=64, widths=(6, 8), token_dim=8, depth=0, heads=2)
    store = ParamStore()
    enc = PatchEncoder(cfg, store, nc.Rng(3))
    stride = 4  # two stride-2 stages
    rng = nc.Rng(9)
    base = (rng.uniform(64 * 64 * 3) * 255).reshape(64, 64, 3)
    shifted = np.zeros_like(base)
    shifted[:, stride:] = base[:, :-stride]
    map_a = feature_map(enc, base)
    map_b = feature_map(enc, shifted)
    # interior: drop cells whose receptive field touches the pad or the seam
    np.testing.assert_allclose(map_b[2:-2, 3:-2], map_a[2:-2, 2:-3], atol=1e-12)


def test_backbone_gradient_check():
    enc, store = tiny_encoder(seed=5)
    rng = nc.Rng(17)
    patch = (rng.uniform(16 * 16 * 3) * 255).reshape(1, 16, 16, 3)

    def f():
        x = nc.tensor(patch.reshape(16 * 16, 3) / 255.0)
        return nc.sum_all(enc.conv_trunk(x, 1))

    conv_params = [t for n, t in store.items() if ".conv" in n]
    assert nc.finite_diff_check(f, conv_params) < 1e-4


def test_config_error_on_bad_stride_divisibility():
    with pytest.raises(ConfigError, match="total stride"):
        EncoderConfig(input_side=8, widths=(4, 8, 8, 8), token_dim=8, depth=1, heads=2)


@pytest.mark.parametrize("side", [0, 48, 1024])
def test_config_error_on_input_side_not_dividing_512(side):
    """Only a side that divides 512 makes every crop a whole-factor box shrink."""
    with pytest.raises(ConfigError, match="must divide 512"):
        EncoderConfig(input_side=side, widths=(4, 8), token_dim=8, depth=1, heads=2)


# ------------------------------------------------------- position encoding


def test_position_encoding_base_pattern():
    table = sinusoid_table(4, 6)
    np.testing.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(table[1, 0], np.sin(1.0), atol=1e-15)
    np.testing.assert_allclose(table[1, 1], np.cos(1.0), atol=1e-15)


# ------------------------------------------------------------------ encode


def test_encode_depth_zero_returns_projected_cls_token():
    enc, store = tiny_encoder(depth=0)
    patch = np.full((16, 16, 3), 55.0)
    out = encode(enc, patch)
    # depth 0: tokens never mix with the classification token, so the output
    # is the (normalized) learnable token's projection, input-independent
    cls = store["enc.cls"].data[0]
    normed = (cls - cls.mean()) / np.sqrt(cls.var() + 1e-5)
    expect = normed @ store["enc.proj.w"].data + store["enc.proj.b"].data
    np.testing.assert_allclose(out, expect[0], atol=1e-12)
    other = encode(enc, np.full((16, 16, 3), 200.0))
    np.testing.assert_allclose(out, other, atol=1e-15)


def test_encode_gradient_check_full():
    enc, store = tiny_encoder(seed=11)
    rng = nc.Rng(23)
    patches = (rng.uniform(2 * 16 * 16 * 3) * 255).reshape(2, 16, 16, 3)

    def f():
        return nc.sum_all(enc.extract_batch(patches))

    assert nc.finite_diff_check(f, store.subset("enc.")) < 1e-4


def test_encode_token_order_matters():
    """Position encoding is active: permuting the token grid changes the output."""
    enc, _ = tiny_encoder(seed=2)
    rng = nc.Rng(31)
    patch = (rng.uniform(16 * 16 * 3) * 255).reshape(16, 16, 3)
    flipped = patch[::-1].copy()
    a = encode(enc, patch)
    b = encode(enc, flipped)
    assert np.abs(a - b).max() > 1e-8


# ----------------------------------------------------------------- extract


def test_extract_deterministic():
    enc, _ = tiny_encoder(seed=7)
    patch = np.full((32, 32, 3), 90.0)
    a = encode(enc, patch)
    b = encode(enc, patch)
    np.testing.assert_array_equal(a, b)


def test_extract_output_shape_and_finiteness():
    enc, _ = tiny_encoder(seed=8)
    rng = nc.Rng(43)
    patch = (rng.uniform(48 * 48 * 3) * 255).reshape(48, 48, 3)
    out = encode(enc, patch)
    assert out.shape == (12,)
    assert np.isfinite(out).all()


def test_extract_batch_matches_single(c4_slides):
    enc, _ = tiny_encoder(seed=9)
    img, _, _ = c4_slides[0]
    patches = np.stack([
        box_downscale(img.base[0:512, 0:512], 32, 32),
        box_downscale(img.base[1024:3072, 1024:3072], 128, 128),
    ])
    batched = enc.extract_batch(patches).data
    for i in range(2):
        single = enc.extract_batch(patches[i:i + 1]).data[0]
        np.testing.assert_allclose(batched[i], single, atol=1e-12)



def _all_rows_summary(enc, tokens, batch):
    """The encoder's summary with every block run over all rows, then one
    gather of the classification rows: what `summarize` computed before its
    last block kept only those rows."""
    cfg, p = enc.cfg, enc._p
    n_tok, seq = cfg.feature_side ** 2, cfg.seq_len
    tokens = nc.add(tokens, nc.tensor(np.tile(sinusoid_table(n_tok, cfg.feature_channels), (batch, 1))))
    full = nc.concat_rows([p("cls"), tokens])
    x = nc.gather_rows(full, np.concatenate([np.r_[0, 1 + b * n_tok + np.arange(n_tok)] for b in range(batch)]))
    for layer in range(cfg.depth):
        q = lambda n: p(f"layer{layer}.{n}")
        qkv = nc.matmul(nc.layer_norm(x, q("ln1.g"), q("ln1.b")), q("qkv.w"))
        x = nc.add(x, nc.linear(nc.block_self_attention(qkv, seq, cfg.heads), q("attn_out.w"), q("attn_out.b")))
        hidden = nc.silu(nc.linear(nc.layer_norm(x, q("ln2.g"), q("ln2.b")), q("mlp1.w"), q("mlp1.b")))
        x = nc.add(x, nc.linear(hidden, q("mlp2.w"), q("mlp2.b")))
    cls = nc.gather_rows(x, np.arange(batch) * seq)
    return nc.linear(nc.layer_norm(cls, p("final_ln.g"), p("final_ln.b")), p("proj.w"), p("proj.b"))


@pytest.mark.parametrize("batch,depth", [(2, 1), (5, 1), (2, 2), (5, 2), (1, 1), (1, 2), (3, 0), (1, 0)])
def test_summary_matches_an_all_rows_last_block(batch, depth):
    """The last block computes only the classification rows after its
    attention, and reads out what an all-rows block would: bitwise at
    batch >= 2 with a block, within rounding at batch 1 (one-row matmuls)
    and at depth 0, and with every encoder gradient within rounding."""
    enc, store = tiny_encoder(seed=13, depth=depth)
    for name, t in store.items():  # off the identity norms and zero biases
        t.data += 0.1 * nc.Rng(len(name)).normal(t.data.size).reshape(t.shape)
    rng = nc.Rng(29)
    patches = (rng.uniform(batch * 16 * 16 * 3) * 255).reshape(batch, 16, 16, 3)
    weights = nc.tensor(rng.normal(batch * 12).reshape(batch, 12))

    def run(summarize):
        store.zero_grad()
        with nc.record() as graph:
            tokens = enc.conv_trunk(nc.tensor(patches.reshape(-1, 3) / 255.0), batch)
            out = summarize(tokens, batch)
            loss = nc.sum_all(nc.mul(out, weights))
        graph.backward(loss)
        return out.data, {n: t.grad.copy() for n, t in store.items()}

    got, got_grads = run(enc.summarize)
    want, want_grads = run(lambda tokens, b: _all_rows_summary(enc, tokens, b))
    if batch >= 2 and depth:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(enc.extract_batch(patches).data, got)
    assert set(got_grads) == set(want_grads) == set(store.names())
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

def _tape_arrays(graph):
    """Every array the tape holds after the forward: node outputs and what
    each vjp closure captured, followed into nested closures."""
    seen, arrays = set(), []

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, nc.Tensor):
            visit(obj.data)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                visit(cell.cell_contents)

    for node in graph.nodes:
        visit(node.out)
        visit(node.vjp)
    return arrays


def test_encoder_tape_keeps_no_unfolded_conv_columns():
    """A recorded encoder pass holds no (rows, k*k*c_in) window array for
    any conv stage, and no stage's conv output or norm output: the
    conv_stage vjp unfolds the columns again and recomputes the SiLU input
    from the standardized map it keeps."""
    cfg = EncoderConfig()
    store = ParamStore()
    enc = PatchEncoder(cfg, store, nc.Rng(5))
    for name, t in store.items():
        if ".ln." in name:  # at gain 1 and bias 0 the norm output is the standardized map
            t.data += 0.25
    rng = nc.Rng(6)
    side = cfg.input_side
    patches = (rng.uniform(2 * side * side * 3) * 255).reshape(2, side, side, 3)
    with nc.record() as graph:
        enc.extract_batch(patches)
    arrays = _tape_arrays(graph)
    window_widths = {CONV_KERNEL * CONV_KERNEL * c for c in (3,) + cfg.widths[:-1]}
    wide = [a.shape for a in arrays if a.ndim == 2 and a.shape[1] in window_widths]
    assert wide == []
    # what the weight gradient needs instead: each stage's input, pixels included
    assert any(a.shape == (2 * side * side, 3) for a in arrays)
    x = nc.tensor(patches.reshape(2 * side * side, 3) / 255.0)
    for i in range(len(cfg.widths)):
        p = lambda n: store[f"enc.conv{i}.{n}"]
        pre = nc.linear(nc.conv_unfold(x, 2, side, CONV_KERNEL, CONV_STRIDE, CONV_PAD), p("w"), p("b"))
        normed = nc.layer_norm(pre, p("ln.g"), p("ln.b"))
        x = nc.silu(normed)
        side //= CONV_STRIDE
        same_shape = [a for a in arrays if a.shape == pre.shape]
        assert any(np.array_equal(a, x.data) for a in same_shape)      # the stage output
        assert not any(np.array_equal(a, pre.data) or np.array_equal(a, normed.data) for a in same_shape)



@pytest.mark.parametrize("depth,full_mlp_arrays", [(1, 0), (2, 2)])
def test_encoder_tape_keeps_mlp_arrays_of_all_rows_only_before_the_last_block(depth, full_mlp_arrays):
    """A recorded encoder pass holds (batch*seq_len, 4c) MLP arrays only for
    the blocks before the last (each one's pre-activation and SiLU output);
    the last block's MLP runs on the batch classification rows alone."""
    cfg = EncoderConfig(depth=depth)
    enc = PatchEncoder(cfg, ParamStore(), nc.Rng(5))
    batch, side, wide = 2, cfg.input_side, 4 * cfg.feature_channels
    patches = (nc.Rng(6).uniform(batch * side * side * 3) * 255).reshape(batch, side, side, 3)
    with nc.record() as graph:
        enc.extract_batch(patches)
    shapes = [a.shape for a in _tape_arrays(graph)]
    assert shapes.count((batch * cfg.seq_len, wide)) == full_mlp_arrays
    assert shapes.count((batch, wide)) == 2

def test_conv_stage_backward_peak_is_set_by_the_span_not_the_batch(request):
    """Heap peak of one conv stage's vjp above its live tape, less the map
    gradient it returns: bounded by the column budget of the spans in flight,
    one per worker thread, and the same at batch 64 as at batch 16."""
    cfg = EncoderConfig()
    side, c_in, c_out = cfg.input_side // CONV_STRIDE, cfg.widths[0], cfg.widths[1]
    rng = nc.Rng(7)

    def excess(batch):
        x = nc.param(rng.normal(batch * side * side * c_in).reshape(-1, c_in))
        w = nc.param(rng.normal(CONV_KERNEL ** 2 * c_in * c_out).reshape(-1, c_out) * 0.1)
        b, gain, bias = (nc.param(rng.normal(c_out).reshape(1, c_out)) for _ in range(3))
        with nc.record() as graph:
            out = nc.conv_stage(x, w, b, gain, bias, batch, side, CONV_KERNEL, CONV_STRIDE, CONV_PAD)
        g = rng.normal(out.data.size).reshape(out.shape)
        tracemalloc.start()
        try:
            grads = graph.nodes[-1].vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - grads[0].nbytes

    in_flight = engine._span_workers()
    assert excess(64) <= 2 * in_flight * engine._CONV_SPAN * 8 <= 2 ** 23
    # one span at a time, so neither peak depends on how the threads overlap
    request.getfixturevalue("serial_spans")
    small, large = excess(16), excess(64)
    assert large <= 2 * engine._CONV_SPAN * 8
    assert large <= 1.1 * small


def test_conv_stages_split_the_e2e_batch_into_even_spans(monkeypatch):
    """At the e2e shapes (64 patches of 64², default widths) each conv stage
    runs the fewest spans under `_CONV_SPAN`, split evenly: stages 0 and 2
    in 8 spans of 8 patches, stage 3 in 4 of 16."""
    seen, span_results = [], engine._span_results

    def spy(fn, spans):
        if fn.__qualname__.startswith("conv_stage."):
            seen.append([p1 - p0 for p0, p1 in spans])
        return span_results(fn, spans)

    monkeypatch.setattr(engine, "_span_results", spy)
    cfg = EncoderConfig()
    side = cfg.input_side
    enc = PatchEncoder(cfg, ParamStore(), nc.Rng(5))
    enc.extract_batch(255.0 * nc.Rng(6).uniform(64 * side * side * 3).reshape(64, side, side, 3))
    assert seen == [[8] * 8, [4] * 16, [8] * 8, [16] * 4]
