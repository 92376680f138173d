import math

import numpy as np
import pytest

import msmil.iaam as iaam
import msmil.numcore as nc
from msmil.encoding import sinusoid_table
from msmil.iaam import Bag, IaamConfig, IaamNet, RankError, order_instances
from msmil.params import ParamStore
from msmil.sffm import full_grid


def build_net(cfg, seed=1):
    store = ParamStore()
    return IaamNet(cfg, store, nc.Rng(seed)), store


def random_bag(rng, n, d, width=4096, height=4096, distinct=True):
    feats = rng.normal(n * d).reshape(n, d)
    if distinct:
        coords = np.stack([rng.sample(width, n), rng.sample(height, n)], axis=1)
    else:
        coords = np.stack([rng.integers(0, width, n), rng.integers(0, height, n)], axis=1)
    scales = rng.integers(0, 3, n)
    return Bag(nc.tensor(feats), coords, scales, width, height)


# --------------------------------------------------- brute-force oracles


def softmax_np(rows):
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out


def silu_np(x):
    return x / (1.0 + np.exp(-x))


def brute_mla_single_head(t_prime, w_q, w_k, w_v, g, b, w1, b1, w2, b2, rank, eps=1e-5):
    """Literal per-equation evaluation: softmax(Q K^T / sqrt(r)) (T' W_v),
    layer norm, then the two-layer MLP. No residual."""
    q_low = t_prime @ w_q
    k_low = t_prime @ w_k
    attn = softmax_np(q_low @ k_low.T / math.sqrt(rank))
    inter = attn @ (t_prime @ w_v)
    normed = np.empty_like(inter)
    for i, row in enumerate(inter):
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        normed[i] = (row - mu) / math.sqrt(var + eps) * g + b
    return silu_np(normed @ w1 + b1) @ w2 + b2


def brute_dmq(encoded, z, w_q, w_k, w_v, dim):
    q = z @ w_q
    k = encoded @ w_k
    v = encoded @ w_v
    return softmax_np(q @ k.T / math.sqrt(dim)) @ v


def brute_gated_pool(refined, w_g, b_g):
    out = np.zeros((1, refined.shape[1]))
    for row in refined:
        gate = 1.0 / (1.0 + math.exp(-(row @ w_g[:, 0] + b_g)))
        out += gate * row
    return out


# ------------------------------------------------------- order_instances


def test_order_already_sorted_unchanged():
    bag = Bag(nc.tensor(np.eye(3)), [[10, 5], [20, 9], [30, 1]], [0, 1, 2], 4096, 4096)
    out = order_instances(bag)
    np.testing.assert_array_equal(out.features.data, bag.features.data)
    np.testing.assert_array_equal(out.coords, bag.coords)


def test_order_colocated_scales_tie_break():
    bag = Bag(nc.tensor(np.diag([1.0, 2.0, 3.0])), [[100, 100]] * 3, [2, 0, 1], 4096, 4096)
    out = order_instances(bag)
    np.testing.assert_array_equal(out.scale_codes, [0, 1, 2])
    # feature rows follow their scale codes
    assert out.features.data[0, 1] == 2.0 and out.features.data[1, 2] == 3.0 and out.features.data[2, 0] == 1.0


def test_order_reversed_matches_reference_sort():
    rng = nc.Rng(5)
    bag = random_bag(rng, 8, 4)
    rev = Bag(nc.tensor(bag.features.data[::-1].copy()), bag.coords[::-1].copy(),
              bag.scale_codes[::-1].copy(), 4096, 4096)
    out = order_instances(rev)
    ref = sorted(range(8), key=lambda i: (rev.coords[i, 0], rev.coords[i, 1], rev.scale_codes[i]))
    np.testing.assert_array_equal(out.coords, rev.coords[ref])
    np.testing.assert_array_equal(out.features.data, rev.features.data[ref])
    np.testing.assert_array_equal(out.scale_codes, rev.scale_codes[ref])


# ------------------------------------------------------ inject_encodings


def test_inject_zero_fc_reduces_to_features_plus_index():
    cfg = IaamConfig(dim=8, rank=4, queries=3, classes=2)
    net, store = build_net(cfg)
    store["mil.fc_pos.w"].data[...] = 0.0
    bag = Bag(nc.tensor(np.ones((3, 8))), [[1, 2], [3, 4], [5, 6]], [0, 1, 2], 4096, 4096)
    out = net.inject_encodings(bag)
    np.testing.assert_allclose(out.data, 1.0 + sinusoid_table(3, 8), atol=1e-15)


def test_inject_scale_code_linearity():
    cfg = IaamConfig(dim=8, rank=4, queries=3, classes=2)
    net, store = build_net(cfg)
    feats = np.zeros((2, 8))
    bag = Bag(nc.tensor(feats), [[64, 64], [64, 64]], [0, 1], 4096, 4096)
    out = net.inject_encodings(bag)
    diff = out.data[1] - out.data[0]
    # rows share coords and index encoding differs; subtract it out
    table = sinusoid_table(2, 8)
    expect = store["mil.fc_pos.w"].data[2] + (table[1] - table[0])
    np.testing.assert_allclose(diff, expect, atol=1e-12)


def test_inject_gradient_check():
    cfg = IaamConfig(dim=6, rank=3, queries=2, classes=2)
    net, store = build_net(cfg)
    rng = nc.Rng(7)
    bag = random_bag(rng, 4, 6)

    def f():
        return nc.sum_all(nc.silu(net.inject_encodings(bag)))

    assert nc.finite_diff_check(f, [store["mil.fc_pos.w"], store["mil.fc_pos.b"]]) < 1e-4


def test_index_table_is_a_bitwise_prefix_for_mixed_bag_sizes(monkeypatch):
    monkeypatch.setattr(iaam, "_INDEX_TABLES", {})
    for n in (336, 84, 1344, 1, 700, 1344, 5376, 2859, 17):
        for dim in (64, 6):
            got = iaam._index_table(n, dim)
            assert got.tobytes() == sinusoid_table(n, dim).tobytes()
            assert not got.flags.writeable
    # one table per dim, as long as the largest bag
    assert {dim: t.shape for dim, t in iaam._INDEX_TABLES.items()} == {64: (5376, 64), 6: (5376, 6)}


# ------------------------------------------------------------- mla_layer


def test_mla_single_instance_softmax_is_one():
    cfg = IaamConfig(dim=8, rank=2, queries=3, classes=2)
    net, store = build_net(cfg, seed=3)
    x = nc.tensor(nc.Rng(11).normal(8).reshape(1, 8))
    out = net.mla_layer(x, 0)
    expect = brute_mla_single_head(
        x.data,
        store["mil.mla0.head0.q_low"].data, store["mil.mla0.head0.k_low"].data,
        store["mil.mla0.value"].data,
        store["mil.mla0.ln.g"].data[0], store["mil.mla0.ln.b"].data[0],
        store["mil.mla0.mlp1.w"].data, store["mil.mla0.mlp1.b"].data,
        store["mil.mla0.mlp2.w"].data, store["mil.mla0.mlp2.b"].data,
        rank=cfg.rank,
    )
    np.testing.assert_allclose(out.data, expect, atol=1e-10)


def test_mla_full_rank_orthonormal_equals_dense_attention():
    d = 6
    cfg = IaamConfig(dim=d, rank=d, queries=3, classes=2)
    net, store = build_net(cfg, seed=4)
    basis, _ = np.linalg.qr(nc.Rng(13).normal(d * d).reshape(d, d))
    store["mil.mla0.head0.q_low"].data[...] = basis
    store["mil.mla0.head0.k_low"].data[...] = basis
    x = nc.Rng(17).normal(5 * d).reshape(5, d)
    q = x @ basis
    attn_low = softmax_np(q @ q.T / math.sqrt(d))
    attn_dense = softmax_np(x @ x.T / math.sqrt(d))
    np.testing.assert_allclose(attn_low, attn_dense, atol=1e-12)


def test_mla_matches_brute_force_random():
    rng = nc.Rng(99)
    for trial in range(40):
        n = 1 + rng.integers(0, 8)
        d = 2 * (1 + rng.integers(0, 8))
        r = 1 + rng.integers(0, d)
        cfg = IaamConfig(dim=d, rank=r, queries=2, classes=2)
        net, store = build_net(cfg, seed=trial + 50)
        x = nc.tensor(rng.normal(n * d).reshape(n, d))
        out = net.mla_layer(x, 0)
        expect = brute_mla_single_head(
            x.data,
            store["mil.mla0.head0.q_low"].data, store["mil.mla0.head0.k_low"].data,
            store["mil.mla0.value"].data,
            store["mil.mla0.ln.g"].data[0], store["mil.mla0.ln.b"].data[0],
            store["mil.mla0.mlp1.w"].data, store["mil.mla0.mlp1.b"].data,
            store["mil.mla0.mlp2.w"].data, store["mil.mla0.mlp2.b"].data,
            rank=r,
        )
        assert np.abs(out.data - expect).max() < 1e-10, f"trial {trial}"


def test_mla_no_residual_by_default():
    cfg = IaamConfig(dim=4, rank=2, queries=2, classes=2)
    net, store = build_net(cfg, seed=31)
    for name in ("mlp1.w", "mlp2.w"):
        store[f"mil.mla0.{name}"].data[...] = 0.0
    x = nc.tensor(nc.Rng(37).normal(3 * 4).reshape(3, 4))
    out = net.mla_layer(x, 0)
    np.testing.assert_allclose(out.data, np.tile(store["mil.mla0.mlp2.b"].data, (3, 1)), atol=1e-14)


def test_rank_error():
    with pytest.raises(RankError):
        IaamConfig(dim=4, rank=5, queries=2, classes=2)


# ---------------------------------------------------- dmq_cross_attention


def test_dmq_single_instance_every_query_gets_the_value_row():
    cfg = IaamConfig(dim=6, rank=2, queries=4, classes=2)
    net, store = build_net(cfg, seed=41)
    x = nc.tensor(nc.Rng(43).normal(6).reshape(1, 6))
    out, _ = net.dmq_cross_attention(x)
    value = x.data @ store["mil.dmq.value_proj"].data
    np.testing.assert_allclose(out.data, np.tile(value, (4, 1)), atol=1e-12)


def test_dmq_matches_brute_force():
    cfg = IaamConfig(dim=8, rank=2, queries=5, classes=2)
    net, store = build_net(cfg, seed=47)
    x = nc.Rng(53).normal(6 * 8).reshape(6, 8)
    out, _ = net.dmq_cross_attention(nc.tensor(x))
    expect = brute_dmq(x, store["mil.dmq.queries"].data, store["mil.dmq.query_proj"].data,
                       store["mil.dmq.key_proj"].data, store["mil.dmq.value_proj"].data, 8)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_dmq_duplicating_instances_changes_nothing():
    cfg = IaamConfig(dim=8, rank=2, queries=5, classes=2)
    net, _ = build_net(cfg, seed=61)
    x = nc.Rng(59).normal(4 * 8).reshape(4, 8)
    a = net.dmq_cross_attention(nc.tensor(x))[0].data
    b = net.dmq_cross_attention(nc.tensor(np.vstack([x, x])))[0].data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_dmq_permutation_invariance():
    cfg = IaamConfig(dim=8, rank=2, queries=5, classes=2)
    net, _ = build_net(cfg, seed=67)
    rng = nc.Rng(71)
    for _ in range(25):
        x = rng.normal(7 * 8).reshape(7, 8)
        perm = rng.permutation(7)
        a = net.dmq_cross_attention(nc.tensor(x))[0].data
        b = net.dmq_cross_attention(nc.tensor(x[perm]))[0].data
        assert np.abs(a - b).max() <= 1e-12


# -------------------------------------------------------------- gated_pool


def test_gated_pool_zero_gate_is_half_sum():
    cfg = IaamConfig(dim=8, rank=2, queries=5, classes=2)
    net, store = build_net(cfg, seed=73)
    store["mil.gate.w"].data[...] = 0.0
    z = nc.Rng(79).normal(5 * 8).reshape(5, 8)
    out, _ = net.gated_pool(nc.tensor(z))
    np.testing.assert_allclose(out.data, 0.5 * z.sum(axis=0, keepdims=True), atol=1e-12)


def test_gated_pool_equal_rows_scale_by_count():
    cfg = IaamConfig(dim=4, rank=2, queries=6, classes=2)
    net, store = build_net(cfg, seed=83)
    row = nc.Rng(89).normal(4).reshape(1, 4)
    z = np.tile(row, (6, 1))
    gate = 1.0 / (1.0 + np.exp(-(row @ store["mil.gate.w"].data + store["mil.gate.b"].data)))
    out, _ = net.gated_pool(nc.tensor(z))
    np.testing.assert_allclose(out.data, 6.0 * gate * row, atol=1e-12)


def test_gated_pool_matches_brute_force():
    cfg = IaamConfig(dim=8, rank=2, queries=10, classes=2)
    net, store = build_net(cfg, seed=97)
    z = nc.Rng(101).normal(10 * 8).reshape(10, 8)
    out, _ = net.gated_pool(nc.tensor(z))
    expect = brute_gated_pool(z, store["mil.gate.w"].data, float(store["mil.gate.b"].data[0, 0]))
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


# ---------------------------------------------------------------- classify


def test_classify_zero_weights_uniform():
    cfg = IaamConfig(dim=8, rank=2, queries=3, classes=5)
    net, store = build_net(cfg, seed=103)
    store["mil.head.w"].data[...] = 0.0
    store["mil.head.b"].data[...] = 0.0
    probs = nc.softmax_rows(net.logits(nc.tensor(np.ones((1, 8)))))
    np.testing.assert_allclose(probs.data, np.full((1, 5), 0.2), atol=1e-15)


def test_classify_saturation():
    cfg = IaamConfig(dim=2, rank=1, queries=3, classes=2)
    net, store = build_net(cfg, seed=107)
    store["mil.head.w"].data[...] = 0.0
    store["mil.head.b"].data[...] = [[1e6, 0.0]]
    probs = nc.softmax_rows(net.logits(nc.tensor(np.ones((1, 2))))).data
    np.testing.assert_allclose(probs, [[1.0, 0.0]], atol=1e-12)


def test_classify_head_gradient_check():
    cfg = IaamConfig(dim=6, rank=2, queries=3, classes=3)
    net, store = build_net(cfg, seed=109)
    feat = nc.tensor(nc.Rng(113).normal(6).reshape(1, 6))

    def f():
        return nc.cross_entropy(net.logits(feat), 1)

    err = nc.finite_diff_check(f, [store["mil.head.w"], store["mil.head.b"]], h=1e-5)
    assert err < 1e-6


# ------------------------------------------------------------ full forward


def test_forward_single_instance_bag():
    cfg = IaamConfig(dim=8, rank=2, queries=3, classes=4)
    net, _ = build_net(cfg, seed=127)
    bag = Bag(nc.tensor(nc.Rng(131).normal(8).reshape(1, 8)), [[100, 200]], [1], 4096, 4096)
    probs = net.forward(bag).data
    assert np.isfinite(probs).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_full_gradient_check():
    """All instance-attention parameters, N=6, d=16, r=4, q=3, C=3."""
    cfg = IaamConfig(dim=16, rank=4, queries=3, classes=3)
    net, store = build_net(cfg, seed=137)
    bag = random_bag(nc.Rng(139), 6, 16)

    def f():
        return nc.cross_entropy(net.forward_logits(bag), 1)

    assert nc.finite_diff_check(f, store.subset("mil.")) < 1e-4


def test_forward_invariant_to_input_order():
    cfg = IaamConfig(dim=8, rank=4, queries=3, classes=3)
    net, _ = build_net(cfg, seed=149)
    rng = nc.Rng(151)
    bag = random_bag(rng, 7, 8)
    probs = net.forward(bag).data
    for _ in range(5):
        perm = rng.permutation(7)
        shuffled = Bag(nc.tensor(bag.features.data[perm]), bag.coords[perm],
                       bag.scale_codes[perm], bag.width, bag.height)
        np.testing.assert_allclose(net.forward(shuffled).data, probs, atol=1e-12)


def test_forward_depends_on_sequence_index_after_injection():
    """Bypassing the canonical sort changes the outcome: the index encoding
    is position-dependent."""
    cfg = IaamConfig(dim=8, rank=4, queries=3, classes=3)
    net, _ = build_net(cfg, seed=157)
    rng = nc.Rng(163)
    bag = order_instances(random_bag(rng, 7, 8))
    x_sorted = net.inject_encodings(bag)
    perm = rng.permutation(7)
    permuted = Bag(nc.tensor(bag.features.data[perm]), bag.coords[perm],
                   bag.scale_codes[perm], bag.width, bag.height)
    x_permuted = net.inject_encodings(permuted)  # no re-sort
    assert np.abs(np.sort(x_sorted.data, axis=0) - np.sort(x_permuted.data, axis=0)).max() > 1e-9


def test_softmax_rows_sum_to_one_inside_attention():
    cfg = IaamConfig(dim=8, rank=2, queries=4, classes=2)
    net, _ = build_net(cfg, seed=167)
    bag = random_bag(nc.Rng(173), 9, 8)
    trace = net.trace(bag)
    attn = trace.attention
    np.testing.assert_allclose(attn.sum(axis=1), np.ones(4), atol=1e-12)
    gates = trace.gates
    assert ((gates > 0) & (gates < 1)).all()


# ------------------------------------------------------------------- trace


def test_trace_logits_equal_forward_logits_bitwise():
    cfg = IaamConfig(dim=8, rank=2, queries=4, classes=3, layers=2)
    net, _ = build_net(cfg, seed=179)
    bag = random_bag(nc.Rng(181), 9, 8)
    plain = net.forward_logits(bag).data
    assert np.array_equal(net.trace(bag).logits.data, plain)
    with nc.record():
        assert np.array_equal(net.trace(bag).logits.data, plain)
        assert np.array_equal(net.forward_logits(bag).data, plain)


def test_trace_reads_out_the_pass_it_predicts_from():
    cfg = IaamConfig(dim=8, rank=2, queries=5, classes=2)
    net, _ = build_net(cfg, seed=191)
    bag = random_bag(nc.Rng(193), 11, 8)
    trace = net.trace(bag)
    assert trace.attention.shape == (5, 11) and trace.gates.shape == (5,)
    refined, attn = net.dmq_cross_attention(net.mla_layer(net.inject_encodings(trace.bag), 0))
    _, gates = net.gated_pool(refined)
    assert np.array_equal(trace.attention, attn.data)
    assert np.array_equal(trace.gates, gates.data.reshape(-1))


def test_trace_bag_is_in_canonical_order():
    net, _ = build_net(IaamConfig(dim=8, rank=2, queries=3, classes=2), seed=197)
    bag = random_bag(nc.Rng(199), 12, 8, distinct=False)
    order = np.lexsort((bag.scale_codes, bag.coords[:, 1], bag.coords[:, 0]))
    np.testing.assert_array_equal(net.trace(bag).bag.scale_codes, bag.scale_codes[order])


# ------------------------------------------------------------ bag scaling


def _tape_arrays(graph):
    """Every array the tape holds: node outputs and what the vjp closures keep."""
    seen, arrays = set(), []

    def visit(obj):
        if isinstance(obj, nc.Tensor):
            obj = obj.data
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if isinstance(obj.base, np.ndarray):
                visit(obj.base)
            else:
                arrays.append(obj)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                visit(cell.cell_contents)

    for node in graph.nodes:
        visit(node.out)
        visit(node.vjp)
    return arrays


def test_stage2_tape_is_linear_in_a_32768_square_bag():
    """5,376 instances: the latent attention keeps no N x N array, so the
    whole tape stays far below one such array per layer (221 MiB)."""
    refs = full_grid(32768, 32768)
    n = len(refs)
    assert n == 5376
    net, store = build_net(IaamConfig(), seed=211)
    feats = nc.Rng(223).normal(n * 64).reshape(n, 64)
    bag = Bag(nc.tensor(feats), [(r.x, r.y) for r in refs], [r.scale_code for r in refs], 32768, 32768)
    with nc.record() as graph:
        loss = nc.cross_entropy(net.forward_logits(bag), 2)
    arrays = _tape_arrays(graph)
    assert max(a.size for a in arrays) < n * n
    assert sum(a.nbytes for a in arrays) < 64 * 2 ** 20
    graph.backward(loss)
    for p in store.subset("mil."):
        assert p.grad is not None and np.isfinite(p.grad).all(), p.name
