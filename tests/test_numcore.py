import math

import numpy as np
import pytest

import msmil.numcore as nc
from msmil.numcore import engine
from msmil.numcore import Rng, Tensor


def backward_of(f, *params):
    for p in params:
        p.grad = None
    with nc.record() as g:
        loss = f()
    g.backward(loss)
    return loss


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    eye = nc.tensor(np.eye(2))
    m = nc.tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(nc.matmul(eye, m).data, m.data)


def test_matmul_zero_annihilates():
    z = nc.tensor(np.zeros((2, 3)))
    m = nc.tensor(np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(nc.matmul(z, m).data, np.zeros((2, 4)))


def test_matmul_hand_case():
    a = nc.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.tensor([[5.0], [6.0]])
    # by hand: [1*5+2*6, 3*5+4*6]
    np.testing.assert_array_equal(nc.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nc.ShapeError) as e:
        nc.matmul(nc.tensor(np.zeros((2, 3))), nc.tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)


def test_matmul_backward_rule():
    a = nc.param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = nc.param(np.array([[5.0, 6.0], [7.0, 8.0]]))
    backward_of(lambda: nc.sum_all(nc.matmul(a, b)), a, b)
    ones = np.ones((2, 2))
    np.testing.assert_allclose(a.grad, ones @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ ones)


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_row():
    out = nc.softmax_rows(nc.tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_shift_invariance():
    x = np.array([[0.3, -1.2, 2.0, 0.0]])
    a = nc.softmax_rows(nc.tensor(x)).data
    b = nc.softmax_rows(nc.tensor(x + 17.5)).data
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_softmax_scalar_oracle():
    # exp(1)/(exp(1)+exp(2)) etc.
    out = nc.softmax_rows(nc.tensor([[1.0, 2.0]])).data
    e1, e2 = math.exp(1.0), math.exp(2.0)
    np.testing.assert_allclose(out, [[e1 / (e1 + e2), e2 / (e1 + e2)]], atol=1e-5)
    np.testing.assert_allclose(out, [[0.26894, 0.73106]], atol=1e-5)


def test_softmax_rows_sum_to_one_wide_range():
    rng = Rng(11)
    for _ in range(50):
        x = (rng.uniform(40).reshape(8, 5) - 0.5) * 100.0  # entries within +/-50
        y = nc.softmax_rows(nc.tensor(x)).data
        assert (y >= 0).all()
        np.testing.assert_allclose(y.sum(axis=1), np.ones(8), rtol=0, atol=1e-12)


# -------------------------------------------------------------- layer_norm


def test_layer_norm_constant_row_zero():
    g = nc.tensor(np.ones((1, 4)))
    b = nc.tensor(np.zeros((1, 4)))
    out = nc.layer_norm(nc.tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_already_normalized():
    g = nc.tensor(np.ones((1, 2)))
    b = nc.tensor(np.zeros((1, 2)))
    out = nc.layer_norm(nc.tensor([[-1.0, 1.0]]), g, b, eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_moments():
    x = Rng(5).normal(4).reshape(1, 4) * 3.0 + 1.0
    g = nc.tensor(np.ones((1, 4)))
    b = nc.tensor(np.zeros((1, 4)))
    out = nc.layer_norm(nc.tensor(x), g, b).data
    assert abs(out.mean()) < 1e-9
    assert 1 - 1e-3 <= out.var() <= 1.0


def test_layer_norm_rejects_degenerate_row():
    g = nc.tensor(np.ones((1, 1)))
    with pytest.raises(nc.ShapeError):
        nc.layer_norm(nc.tensor([[1.0]]), g, g)


# ----------------------------------------------------------- cross entropy


def test_cross_entropy_perfect_prediction():
    logits = nc.tensor([[1e6, 0.0, 0.0]])
    assert nc.cross_entropy(logits, 0).item() == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_logits():
    logits = nc.tensor([[2.0] * 5])
    assert nc.cross_entropy(logits, 3).item() == pytest.approx(math.log(5.0), abs=1e-6)


def test_cross_entropy_scalar_oracle():
    # -log(e^1 / (e^1 + e^2)) = log(1 + e)
    val = nc.cross_entropy(nc.tensor([[1.0, 2.0]]), 0).item()
    assert val == pytest.approx(math.log(1.0 + math.e), abs=1e-5)
    assert val == pytest.approx(1.31326, abs=1e-5)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(nc.LabelError):
        nc.cross_entropy(nc.tensor([[0.0, 0.0]]), 2)


def test_cross_entropy_gradient_is_probs_minus_onehot():
    logits = nc.param(np.array([[0.5, -0.2, 1.1]]))
    backward_of(lambda: nc.cross_entropy(logits, 1), logits)
    p = np.exp(logits.data - logits.data.max())
    p /= p.sum()
    expected = p.copy()
    expected[0, 1] -= 1.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


# ---------------------------------------------------------------- optimizer


def test_sgd_plain_step():
    p = nc.param(np.array([[1.0, 2.0]]))
    idle = nc.param(np.array([[3.0]]))              # no gradient: left as it is
    opt = nc.GradAccumSgd([p, idle], lr=0.1)
    p.grad = np.array([[1.0, -1.0]])
    opt.step()
    np.testing.assert_allclose(p.data, [[0.9, 2.1]])
    np.testing.assert_array_equal(idle.data, [[3.0]])


def test_sgd_cancellation():
    p = nc.param(np.array([[5.0]]))
    opt = nc.GradAccumSgd([p], lr=0.5)
    for g in (3.0, -3.0):
        p.grad = np.array([[g]])
        opt.step()
    np.testing.assert_array_equal(p.data, [[5.0]])


# ---------------------------------------------------------- gradient check


def test_finite_diff_square():
    x = nc.param(np.array([[3.0]]))
    err = nc.finite_diff_check(lambda: nc.mul(x, x), [x])
    assert err < 1e-8


def test_finite_diff_linear_exact():
    x = nc.param(np.array([[1.0, -2.0, 0.5]]))
    w = nc.tensor(np.array([[2.0], [3.0], [-1.0]]))
    err = nc.finite_diff_check(lambda: nc.matmul(x, w), [x], h=1e-4)
    assert err < 1e-10


def test_finite_diff_detects_nondeterminism():
    state = {"v": 0.0}
    x = nc.param(np.array([[1.0]]))

    def f():
        state["v"] += 1.0
        return nc.scale(x, state["v"])

    with pytest.raises(nc.DeterminismError):
        nc.finite_diff_check(f, [x])


def _rand(rng, *shape):
    return rng.normal(int(np.prod(shape))).reshape(shape)


def test_all_ops_pass_finite_diff_on_random_shapes():
    """Every differentiable op, 100 seeded random trials overall."""
    rng = Rng(202)
    trial = 0
    while trial < 100:
        m = 2 + trial % 3
        k = 2 + (trial // 3) % 3
        n = 2 + (trial // 9) % 3
        a = nc.param(_rand(rng, m, k))
        b = nc.param(_rand(rng, k, n))
        c = nc.param(_rand(rng, m, k))
        gain = nc.param(_rand(rng, 1, k) * 0.1 + 1.0)
        bias = nc.param(_rand(rng, 1, k) * 0.1)
        cases = {
            "matmul": (lambda: nc.sum_all(nc.silu(nc.matmul(a, b))), [a, b]),
            "add": (lambda: nc.sum_all(nc.sigmoid(nc.add(a, c))), [a, c]),
            "mul": (lambda: nc.sum_all(nc.mul(a, c)), [a, c]),
            "softmax": (lambda: nc.sum_all(nc.mul(nc.softmax_rows(a), c)), [a]),
            "layer_norm": (lambda: nc.sum_all(nc.mul(nc.layer_norm(a, gain, bias), c)), [a, gain, bias]),
            "transpose": (lambda: nc.sum_all(nc.silu(nc.transpose(a))), [a]),
            "concat_rows": (lambda: nc.sum_all(nc.silu(nc.concat_rows([a, c]))), [a, c]),
            "slice_cols": (lambda: nc.sum_all(nc.silu(nc.slice_cols(a, 1, k))), [a]),
            "gather": (lambda: nc.sum_all(nc.gather_rows(a, [0, 1, m - 1, 0])), [a]),
            "cross_entropy": (lambda: nc.cross_entropy(nc.gather_rows(a, [0]), trial % k), [a]),
        }
        name = list(cases)[trial % len(cases)]
        f, params = cases[name]
        err = nc.finite_diff_check(f, params)
        assert err < 1e-4, f"{name} trial {trial}: err {err}"
        trial += 1


def test_conv_unfold_finite_diff():
    rng = Rng(303)
    x = nc.param(_rand(rng, 2 * 4 * 4, 3))
    w = nc.param(_rand(rng, 9 * 3, 2) * 0.3)
    f = lambda: nc.sum_all(nc.silu(nc.matmul(nc.conv_unfold(x, 2, 4, 3, 2, 1), w)))
    assert nc.finite_diff_check(f, [x, w]) < 1e-4


def test_conv_finite_diff():
    rng = Rng(305)
    x = nc.param(_rand(rng, 2 * 4 * 4, 3))
    w = nc.param(_rand(rng, 9 * 3, 4) * 0.3)
    b = nc.param(_rand(rng, 1, 4) * 0.3)
    gain = nc.param(1.0 + _rand(rng, 1, 4) * 0.3)
    bias = nc.param(_rand(rng, 1, 4) * 0.3)
    weights = nc.tensor(_rand(rng, 2 * 2 * 2, 4))
    f = lambda: nc.sum_all(nc.mul(nc.conv_stage(x, w, b, gain, bias, 2, 4, 3, 2, 1), weights))
    assert nc.finite_diff_check(f, [x, w, b, gain, bias]) < 1e-4


def test_conv_shape_error_names_the_shapes():
    x = nc.tensor(np.zeros((2 * 4 * 4, 3)))
    row = nc.tensor(np.zeros((1, 5)))
    with pytest.raises(nc.ShapeError) as e:
        nc.conv_stage(x, nc.tensor(np.zeros((9 * 2, 5))), row, row, row, 2, 4, 3, 2, 1)
    assert "(32, 3)" in str(e.value) and "(18, 5)" in str(e.value)
    with pytest.raises(nc.ShapeError, match="conv_stage rows 32"):
        nc.conv_stage(x, nc.tensor(np.zeros((27, 5))), row, row, row, 1, 4, 3, 2, 1)
    with pytest.raises(nc.ShapeError) as e:
        nc.conv_stage(x, nc.tensor(np.zeros((27, 5))), row, nc.tensor(np.ones((1, 4))), row, 2, 4, 3, 2, 1)
    assert "(1, 4)" in str(e.value)
    with pytest.raises(nc.ShapeError, match="conv_stage needs >= 2 columns"):
        one = nc.tensor(np.zeros((1, 1)))
        nc.conv_stage(x, nc.tensor(np.zeros((27, 1))), one, one, one, 2, 4, 3, 2, 1)


def test_block_attention_finite_diff():
    rng = Rng(404)
    qkv = nc.param(_rand(rng, 2 * 3, 3 * 4) * 0.5)
    f = lambda: nc.sum_all(nc.silu(nc.block_self_attention(qkv, 3, 2)))
    assert nc.finite_diff_check(f, [qkv]) < 1e-4


def test_block_attention_matches_loop_of_plain_ops():
    rng = Rng(505)
    batch, seq, dim, heads = 3, 5, 8, 2
    q = nc.tensor(_rand(rng, batch * seq, dim))
    k = nc.tensor(_rand(rng, batch * seq, dim))
    v = nc.tensor(_rand(rng, batch * seq, dim))
    fused = nc.block_self_attention(nc.tensor(np.concatenate([q.data, k.data, v.data], axis=1)), seq, heads).data
    hd = dim // heads
    for b in range(batch):
        for h in range(heads):
            qs = q.data[b * seq:(b + 1) * seq, h * hd:(h + 1) * hd]
            ks = k.data[b * seq:(b + 1) * seq, h * hd:(h + 1) * hd]
            vs = v.data[b * seq:(b + 1) * seq, h * hd:(h + 1) * hd]
            attn = nc.softmax_rows(nc.tensor(qs @ ks.T / np.sqrt(hd))).data
            np.testing.assert_allclose(fused[b * seq:(b + 1) * seq, h * hd:(h + 1) * hd], attn @ vs, atol=1e-12)


def test_block_attention_across_blocks_matches_loop_of_plain_ops(monkeypatch):
    """3 patches x 2 heads x 5 tokens in blocks of 2 query rows (the last one
    short): forward and gradient against one matmul/softmax chain per
    (patch, head), each on its own leaves."""
    monkeypatch.setattr(nc.engine, "_ATTENTION_BLOCK", 2 * 3 * 2 * 5)
    rng = Rng(1616)
    batch, seq, dim, heads = 3, 5, 8, 2
    hd = dim // heads
    qkv = nc.param(_rand(rng, batch * seq, 3 * dim))
    w = _rand(rng, batch * seq, dim)
    fused = lambda: nc.sum_all(nc.mul(nc.block_self_attention(qkv, seq, heads), nc.tensor(w)))
    out = nc.block_self_attention(qkv, seq, heads).data
    backward_of(fused, qkv)
    grad = np.empty_like(qkv.data)
    for b in range(batch):
        rows = slice(b * seq, (b + 1) * seq)
        for h in range(heads):
            cols = [slice(part * dim + h * hd, part * dim + (h + 1) * hd) for part in range(3)]
            q, k, v = (nc.param(qkv.data[rows, c]) for c in cols)
            chain = lambda: nc.matmul(nc.softmax_rows(nc.scale(nc.matmul(q, nc.transpose(k)), 1 / np.sqrt(hd))), v)
            np.testing.assert_allclose(out[rows, cols[0]], chain().data, rtol=0, atol=1e-12)
            backward_of(lambda: nc.sum_all(nc.mul(chain(), nc.tensor(w[rows, cols[0]]))), q, k, v)
            for c, t in zip(cols, (q, k, v)):
                grad[rows, c] = t.grad
    np.testing.assert_allclose(qkv.grad, grad, rtol=0, atol=1e-12)
    assert nc.finite_diff_check(fused, [qkv]) < 1e-4


# -------------------------------------------------------------- graph mode


def test_inference_forward_matches_recorded_forward_bitwise():
    rng = Rng(606)
    x = nc.param(_rand(rng, 3, 4))
    w = nc.param(_rand(rng, 4, 2))

    def f():
        return nc.softmax_rows(nc.matmul(nc.silu(x), w))

    plain = f().data
    with nc.record():
        recorded = f().data
    assert (plain == recorded).all()


def test_backward_visits_each_node_once():
    # y = x + x doubles the gradient exactly once per consumer
    x = nc.param(np.array([[1.0, 2.0]]))
    backward_of(lambda: nc.sum_all(nc.add(x, x)), x)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])


def test_no_recording_outside_context():
    x = nc.param(np.array([[1.0]]))
    with nc.record() as g:
        nc.scale(x, 2.0)
    n_inside = len(g.nodes)
    nc.scale(x, 2.0)
    assert n_inside == 1 and len(g.nodes) == 1


def test_constant_branches_are_not_recorded():
    x = nc.tensor(np.ones((2, 2)))  # no grad wanted
    with nc.record() as g:
        nc.matmul(x, x)
    assert len(g.nodes) == 0


# ------------------------------------------------------------ fused ops


def test_linear_matches_matmul_plus_bias_bitwise():
    rng = Rng(707)
    x = nc.param(_rand(rng, 5, 4))
    w = nc.param(_rand(rng, 4, 3))
    b = nc.param(_rand(rng, 1, 3))
    c = nc.tensor(_rand(rng, 5, 3))
    fused = backward_of(lambda: nc.sum_all(nc.mul(nc.silu(nc.linear(x, w, b)), c)), x, w, b)
    grads = [t.grad.copy() for t in (x, w, b)]
    # gather_rows broadcasts b over the rows and sums its gradient row by row
    rows = lambda: nc.gather_rows(b, [0] * 5)
    plain = backward_of(lambda: nc.sum_all(nc.mul(nc.silu(nc.add(nc.matmul(x, w), rows())), c)), x, w, b)
    assert fused.item() == plain.item()
    for got, t in zip(grads, (x, w, b)):
        np.testing.assert_array_equal(got, t.grad)


def test_linear_shape_error_names_all_shapes():
    with pytest.raises(nc.ShapeError) as e:
        nc.linear(nc.tensor(np.zeros((2, 3))), nc.tensor(np.zeros((3, 4))), nc.tensor(np.zeros((1, 5))))
    assert "(2, 3)" in str(e.value) and "(3, 4)" in str(e.value) and "(1, 5)" in str(e.value)


def test_linear_finite_diff():
    rng = Rng(808)
    x = nc.param(_rand(rng, 4, 3))
    w = nc.param(_rand(rng, 3, 2))
    b = nc.param(_rand(rng, 1, 2))
    f = lambda: nc.sum_all(nc.silu(nc.linear(x, w, b)))
    assert nc.finite_diff_check(f, [x, w, b]) < 1e-4


def test_packed_qkv_attention_finite_diff():
    rng = Rng(909)
    qkv = nc.param(_rand(rng, 2 * 3, 3 * 4) * 0.5)
    f = lambda: nc.sum_all(nc.silu(nc.block_self_attention(qkv, 3, 2)))
    assert nc.finite_diff_check(f, [qkv]) < 1e-4


def test_packed_qkv_width_must_be_three_dims():
    with pytest.raises(nc.ShapeError):
        nc.block_self_attention(nc.tensor(np.zeros((6, 8))), 3, 2)


def _attention_case(rng, monkeypatch):
    """7 queries over 5 keys in blocks of 2 query rows (the last one short)."""
    monkeypatch.setattr(nc.engine, "_ATTENTION_BLOCK", 10)
    return (nc.param(_rand(rng, 7, 3)), nc.param(_rand(rng, 5, 3)),
            nc.param(_rand(rng, 5, 4)), nc.tensor(_rand(rng, 7, 4)))


def test_attention_finite_diff_across_blocks(monkeypatch):
    q, k, v, w = _attention_case(Rng(1414), monkeypatch)
    f = lambda: nc.sum_all(nc.mul(nc.attention(q, k, v, 0.7), w))
    assert nc.finite_diff_check(f, [q, k, v]) < 1e-4


def test_attention_matches_the_softmax_chain_across_blocks(monkeypatch):
    q, k, v, w = _attention_case(Rng(1515), monkeypatch)
    c = 1.0 / np.sqrt(3)
    fused = lambda: nc.attention(q, k, v, c)
    chain = lambda: nc.matmul(nc.softmax_rows(nc.scale(nc.matmul(q, nc.transpose(k)), c)), v)
    plain = fused().data
    with nc.record():
        assert np.array_equal(fused().data, plain)
    np.testing.assert_allclose(plain, chain().data, rtol=0, atol=1e-12)
    backward_of(lambda: nc.sum_all(nc.mul(fused(), w)), q, k, v)
    grads = [t.grad.copy() for t in (q, k, v)]
    backward_of(lambda: nc.sum_all(nc.mul(chain(), w)), q, k, v)
    for got, t in zip(grads, (q, k, v)):
        assert np.abs(got - t.grad).max() <= 1e-12 * np.abs(t.grad).max()


def test_attention_shape_error_names_all_shapes():
    with pytest.raises(nc.ShapeError) as e:
        nc.attention(nc.tensor(np.zeros((2, 3))), nc.tensor(np.zeros((4, 3))), nc.tensor(np.zeros((5, 2))), 1.0)
    assert "(2, 3)" in str(e.value) and "(4, 3)" in str(e.value) and "(5, 2)" in str(e.value)


# ------------------------------------------------------------ vjp contract


def _contract_cases(rng):
    """Every exported op, on small random inputs: (inputs, op over them)."""
    a, c = _rand(rng, 4, 3), _rand(rng, 4, 3)
    row, w = _rand(rng, 1, 3), _rand(rng, 3, 2)
    return {
        "add": ([a, c], lambda x, y: nc.add(x, y)),
        "attention": ([a, _rand(rng, 5, 3), _rand(rng, 5, 2)], lambda x, y, z: nc.attention(x, y, z, 0.5)),
        "block_self_attention": ([_rand(rng, 6, 12)], lambda t: nc.block_self_attention(t, 3, 2)),
        "concat_rows": ([a, c], lambda x, y: nc.concat_rows([x, y])),
        "conv_stage": ([_rand(rng, 2 * 4 * 4, 2), _rand(rng, 9 * 2, 3), _rand(rng, 1, 3),
                        _rand(rng, 1, 3) + 1.0, _rand(rng, 1, 3)],
                       lambda x, m, b, g, s: nc.conv_stage(x, m, b, g, s, 2, 4, 3, 2, 1)),
        "conv_unfold": ([_rand(rng, 2 * 4 * 4, 2)], lambda x: nc.conv_unfold(x, 2, 4, 3, 2, 1)),
        "cross_entropy": ([_rand(rng, 1, 3)], lambda x: nc.cross_entropy(x, 1)),
        "gather_rows": ([a], lambda x: nc.gather_rows(x, [0, 2, 3, 0])),
        "layer_norm": ([a, row + 1.0, row], lambda x, g, b: nc.layer_norm(x, g, b)),
        "linear": ([a, w, _rand(rng, 1, 2)], lambda x, m, b: nc.linear(x, m, b)),
        "matmul": ([a, w], lambda x, m: nc.matmul(x, m)),
        "mul": ([a, c], lambda x, y: nc.mul(x, y)),
        "scale": ([a], lambda x: nc.scale(x, 0.5)),
        "sigmoid": ([a], lambda x: nc.sigmoid(x)),
        "silu": ([a], lambda x: nc.silu(x)),
        "slice_cols": ([a], lambda x: nc.slice_cols(x, 1, 3)),
        "softmax_rows": ([a], lambda x: nc.softmax_rows(x)),
        "sum_all": ([a], lambda x: nc.sum_all(x)),
        "transpose": ([a], lambda x: nc.transpose(x)),
    }


def test_vjp_contract_covers_every_exported_op():
    ops = {name for name in nc.__all__
           if getattr(getattr(nc, name), "__module__", None) == "msmil.numcore.engine"
           and callable(getattr(nc, name)) and not isinstance(getattr(nc, name), type)}
    assert set(_contract_cases(Rng(0))) == ops - {"param", "tensor", "record"}


@pytest.mark.parametrize("op", sorted(_contract_cases(Rng(0))))
def test_vjp_never_writes_into_its_upstream_gradient(op):
    rng = Rng(1001)
    data, fn = _contract_cases(rng)[op]
    inputs = [nc.param(d) for d in data]
    with nc.record() as graph:
        out = fn(*inputs)
    g = _rand(rng, *out.shape)
    kept = g.copy()
    g.setflags(write=False)
    grads = graph.nodes[-1].vjp(g)  # a write raises "assignment destination is read-only"
    np.testing.assert_array_equal(g, kept)
    for t, ga in zip(inputs, grads):
        assert ga is not None and ga.shape == t.shape


# ------------------------------------------------------- one-pass backward


def test_fan_in_gradients_are_exact():
    rng = Rng(1111)
    w = nc.tensor(_rand(rng, 2, 3))
    x = nc.param(_rand(rng, 2, 3))
    backward_of(lambda: nc.sum_all(nc.mul(nc.add(x, x), w)), x)
    np.testing.assert_array_equal(x.grad, 2 * w.data)
    backward_of(lambda: nc.sum_all(nc.mul(nc.add(nc.add(x, x), x), w)), x)
    np.testing.assert_array_equal(x.grad, 3 * w.data)


def test_backward_keeps_leaf_gradients_and_the_tape_but_frees_the_rest():
    rng = Rng(1212)
    x = nc.tensor(_rand(rng, 4, 3))
    w = nc.param(_rand(rng, 3, 3))
    b = nc.param(_rand(rng, 1, 3))
    with nc.record() as graph:
        h = nc.silu(nc.linear(x, w, b))
        loss = nc.cross_entropy(nc.gather_rows(nc.add(h, h), [0]), 2)
    graph.backward(loss)
    assert len(graph.nodes) == 5
    for node in graph.nodes:
        assert node.out.grad is None and node.vjp is None
        assert node.out.data.shape and np.isfinite(node.out.data).all()
    assert w.grad.shape == w.shape and b.grad.shape == b.shape
    assert x.grad is None


def test_second_backward_on_a_tape_is_an_engine_error():
    x = nc.param(np.array([[1.0, 2.0]]))
    with nc.record() as graph:
        loss = nc.sum_all(nc.silu(x))
    graph.backward(loss)
    first = x.grad
    with pytest.raises(nc.EngineError) as e:
        graph.backward(loss)
    assert "\n" not in str(e.value) and "backward" in str(e.value)
    assert x.grad is first


CONV_GRID = [(4, 3, 2, 1), (5, 3, 1, 1), (2, 5, 2, 2), (1, 4, 2, 2), (7, 3, 3, 2)]


@pytest.mark.parametrize("side,k,stride,pad", CONV_GRID)
def test_conv_unfold_gradient_matches_padded_scatter_bitwise(side, k, stride, pad):
    """The vjp skips taps on the padding; scattering into a padded map and
    cropping it gives the same bits."""
    rng = Rng(1313)
    batch, ch = 2, 3
    x = nc.param(_rand(rng, batch * side * side, ch))
    with nc.record() as graph:
        out = nc.conv_unfold(x, batch, side, k, stride, pad)
    g = _rand(rng, *out.shape)
    got = graph.nodes[-1].vjp(g)[0]
    n = (side + 2 * pad - k) // stride + 1
    gr = g.reshape(batch, n, n, k, k, ch)
    padded = np.zeros((batch, side + 2 * pad, side + 2 * pad, ch))
    for ky in range(k):
        for kx in range(k):
            padded[:, ky:ky + stride * n:stride, kx:kx + stride * n:stride] += gr[:, :, :, ky, kx]
    want = padded[:, pad:pad + side, pad:pad + side].reshape(batch * side * side, ch)
    assert np.array_equal(got, want)


def _stage_pair(rng, side, k, stride, pad, batch, x_grad, span=None):
    """conv_stage and the conv_unfold/linear/layer_norm/silu chain on the same
    inputs, each under the weighted-sum loss: [(output, x, w, b, gain and bias
    gradients)] for the stage, then for the chain. `span` overrides the
    stage's column budget."""
    ch, out_ch = 3, 4
    n = (side + 2 * pad - k) // stride + 1
    data = [_rand(rng, batch * side * side, ch), _rand(rng, k * k * ch, out_ch), _rand(rng, 1, out_ch),
            1.0 + 0.3 * _rand(rng, 1, out_ch), _rand(rng, 1, out_ch)]
    g = _rand(rng, batch * n * n, out_ch)
    results = []
    for fused in (True, False):
        x = Tensor(data[0], requires_grad=x_grad)
        w, b, gain, bias = (nc.param(d) for d in data[1:])
        with nc.record() as graph:
            if fused:
                out = nc.conv_stage(x, w, b, gain, bias, batch, side, k, stride, pad)
            else:
                pre = nc.linear(nc.conv_unfold(x, batch, side, k, stride, pad), w, b)
                out = nc.silu(nc.layer_norm(pre, gain, bias))
            loss = nc.sum_all(nc.mul(out, nc.tensor(g)))
        graph.backward(loss)
        results.append((out.data, x.grad, w.grad, b.grad, gain.grad, bias.grad))
    return results


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("side,k,stride,pad", CONV_GRID)
def test_conv_matches_unfold_then_linear_bitwise(side, k, stride, pad, x_grad):
    """One conv_stage node over one span, the bits of the conv_unfold, linear,
    layer_norm, silu chain: forward and every gradient, with no map gradient
    when the map is a constant."""
    (y, gx, *grads), (y0, gx0, *grads0) = _stage_pair(Rng(1414), side, k, stride, pad, 2, x_grad)
    assert y.tobytes() == y0.tobytes()
    for got, want in zip(grads, grads0):
        assert got.tobytes() == want.tobytes()
    if x_grad:
        assert gx.tobytes() == gx0.tobytes()
    else:
        assert gx is None and gx0 is None


@pytest.mark.parametrize("side,k,stride,pad", CONV_GRID)
def test_conv_stage_over_several_spans_matches_the_chain(side, k, stride, pad, monkeypatch):
    """A column budget of two patches splits a batch of six into three spans:
    the output keeps the chain's bits, and every gradient is within 1e-12 of
    it. (A one-row span would not: BLAS gives a single row other bits.)"""
    n = (side + 2 * pad - k) // stride + 1
    monkeypatch.setattr(engine, "_CONV_SPAN", 2 * n * n * k * k * 3)
    (y, *grads), (y0, *grads0) = _stage_pair(Rng(1515), side, k, stride, pad, 6, True)
    assert y.tobytes() == y0.tobytes()
    for got, want in zip(grads, grads0):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
