import copy
import os
import subprocess
import sys

import numpy as np
import pytest

from gapnet import kernels
from gapnet.backbone import toy_backbone
from gapnet.errors import GapnetError
from gapnet.nn import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    ReLU,
    Sequential,
)
from gapnet.pipeline import sigmoid
from gradcheck import NonDeterministicFragment, gradient_check


def rng():
    return np.random.default_rng(11)


def test_dense_forward_values():
    layer = Dense(2, 2, rng())
    layer.params["w"] = np.eye(2, dtype=np.float32)
    layer.params["b"] = np.zeros(2, np.float32)
    assert np.array_equal(layer.forward(np.array([[3, -1]], np.float32)), [[3, -1]])

    layer.params["w"] = np.array([[1, 2], [3, 4]], np.float32)
    layer.params["b"] = np.array([0.5, -0.5], np.float32)
    assert np.array_equal(layer.forward(np.array([[1, 1], [1, 0]], np.float32)),
                          [[3.5, 6.5], [1.5, 2.5]])


def test_dense_projection_shape():
    layer = Dense(2048, 512, rng())
    out = layer.forward(np.ones((5, 2048), np.float32))
    assert out.shape == (5, 512)
    with pytest.raises(GapnetError, match=r"dense expects \(B, 2048\), got \(1, 2047\)"):
        layer.forward(np.ones((1, 2047), np.float32))
    with pytest.raises(GapnetError, match=r"dense expects \(B, 2048\), got \(2048,\)"):
        layer.forward(np.ones(2048, np.float32))  # one sample still needs its batch axis


def test_dense_zero_weights_gives_zeros():
    layer = Dense(6, 3, rng())
    layer.params["w"][...] = 0
    layer.params["b"][...] = 0
    x = rng().standard_normal((4, 6)).astype(np.float32)
    assert np.array_equal(layer.forward(x), np.zeros((4, 3), np.float32))


def test_dense_backward_writes_row_sums_and_returns_wt_grad():
    layer = Dense(3, 3, rng())
    layer.params["w"] = np.eye(3, dtype=np.float32)
    x = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]], np.float32)
    g = np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -0.5]], np.float32)
    layer.forward(x, train=True)
    dx = layer.backward(g)
    assert np.array_equal(dx, g)  # identity W
    # parameter gradients are summed over the batch rows
    assert np.array_equal(layer.grads["w"], np.outer(g[0], x[0]) + np.outer(g[1], x[1]))
    assert np.array_equal(layer.grads["b"], g[0] + g[1])

    # a zero grad_out writes zeros over what the last backward left
    layer.forward(x, train=True)
    dx = layer.backward(np.zeros((2, 3), np.float32))
    assert np.array_equal(dx, np.zeros((2, 3)))
    assert not np.any(layer.grads["w"]) and not np.any(layer.grads["b"])


# (din, dout) of every Dense the three heads build at the paper's sizes (2048 -> 512
# projection, dfn/fcnn 512 -> 256 -> 128 -> 1, cnn1d's 8 * 510 -> 1), toy_cnn's 16 -> 512
# projection, and three small ones
DENSE_SHAPES = [(2048, 512), (16, 512), (512, 256), (256, 128), (128, 1), (4080, 1),
                (512, 1), (3, 3), (5, 4), (6, 5)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("din,dout", DENSE_SHAPES)
def test_dense_forward_is_x_wt_plus_b_to_the_bit(din, dout, dtype):
    # the layer runs (W x^T)^T; on a BLAS where that orientation rounds differently
    # from x @ W.T, this fails
    r = np.random.default_rng(4008)
    layer = Dense(din, dout, r)
    layer.astype(dtype)
    layer.params["b"][...] = r.standard_normal(dout)
    for batch in (1, 16, 32, 33):
        x = r.standard_normal((batch, din)).astype(dtype)
        got = layer.forward(x)
        want = x @ layer.params["w"].T + layer.params["b"]
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), batch


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("din,dout", DENSE_SHAPES)
def test_one_row_dense_weight_grad_is_the_matmul_to_the_bit(din, dout, dtype):
    # a trainable backbone's passes are one image each; the layer takes their dW with
    # np.dot, which must give the bits of grad_out.T @ x
    r = np.random.default_rng(4009)
    layer = Dense(din, dout, r)
    layer.astype(dtype)
    x = r.standard_normal((1, din)).astype(dtype)
    g = r.standard_normal((1, dout)).astype(dtype)
    want = g.T @ x
    for grad in layer.grads.values():
        grad[...] = np.nan  # a write must not read what it overwrites
    layer.forward(x, train=True)
    layer.backward(g, input_grad=False)
    assert layer.grads["w"].dtype == want.dtype
    assert layer.grads["w"].tobytes() == want.tobytes()
    assert layer.grads["b"].tobytes() == g.sum(axis=0).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("din,dout", DENSE_SHAPES)
def test_dense_input_grad_is_grad_out_at_w_to_the_bit(din, dout, dtype):
    # the layer takes dx with np.dot, which at inner dimension 1 (cnn1d's logit layer,
    # (32, 1) @ (1, 4080)) numpy runs several times faster than the matmul
    r = np.random.default_rng(4010)
    layer = Dense(din, dout, r)
    layer.astype(dtype)
    for batch in (1, 16, 32, 33):
        x = r.standard_normal((batch, din)).astype(dtype)
        g = r.standard_normal((batch, dout)).astype(dtype)
        layer.forward(x, train=True)
        got, want = layer.backward(g), g @ layer.params["w"]
        assert got.dtype == want.dtype and got.shape == (batch, din)
        assert got.tobytes() == want.tobytes(), batch


def windowed_conv1d_backward(x, w, g):
    """conv1d's backward with dW from a reshaped window view and dx one tap at a time."""
    f, k = w.shape
    length = g.shape[-1]
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)
    dw = np.swapaxes(g, -1, -2).reshape(-1, f).T @ windows.reshape(-1, k)
    db = g.reshape(-1, f, length).sum(axis=(0, 2))
    dx = np.zeros_like(x)
    for j in range(k):
        dx[..., j:j + length] += w[:, j] @ g
    return dx, dw, db


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(1,), (16,), (32,), (), (2, 3)])
def test_conv1d_backward_is_the_windowed_form(lead, dtype):
    # the same bits in float32 on cnn1d's shapes; in float64 the batched dx may sum
    # in another order, so it matches to rounding only
    r = np.random.default_rng(4011)
    w = r.standard_normal((8, 3)).astype(dtype)
    x = r.standard_normal(lead + (512,)).astype(dtype)
    g = r.standard_normal(lead + (8, 510)).astype(dtype)
    (dx, dw, db), (want_dx, want_dw, want_db) = (kernels.conv1d_backward(x, w, g),
                                                 windowed_conv1d_backward(x, w, g))
    assert dw.tobytes() == want_dw.tobytes() and db.tobytes() == want_db.tobytes()
    assert dx.dtype == want_dx.dtype and dx.shape == x.shape
    if dtype == np.float32:
        assert dx.tobytes() == want_dx.tobytes()
    else:
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-13)


def transposed_conv1d_forward(x, w, b):
    """conv1d's forward as (windows @ w.T + b), made (..., filters, L) by a transposing copy."""
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[1], axis=-1)
    return np.ascontiguousarray(np.swapaxes(windows @ w.T + b, -1, -2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,filters,k", [(512, 8, 3), (16, 8, 3), (9, 3, 3), (40, 4, 5),
                                         (6, 2, 6)])
def test_conv1d_forward_is_the_transposed_product_to_the_bit(n, filters, k, dtype):
    r = np.random.default_rng(4009)
    w = r.standard_normal((filters, k)).astype(dtype)
    b = r.standard_normal(filters).astype(dtype)
    for lead in [(), (1,), (16,), (32,), (33,), (2, 3)]:
        x = r.standard_normal(lead + (n,)).astype(dtype)
        got, want = kernels.conv1d_forward(x, w, b), transposed_conv1d_forward(x, w, b)
        assert got.shape == want.shape == lead + (filters, n - k + 1)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), lead


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("name,build,shape", [
    ("dense", lambda r: Dense(5, 4, r), (3, 5)),
    ("conv1d", lambda r: Conv1D(3, 3, r), (3, 9)),
    ("conv2d", lambda r: Conv2D(3, 4, 3, 3, 2, r), (3, 9, 8, 3)),
])
def test_backward_writes_gradients_unless_told_to_accumulate(name, build, shape, input_grad):
    # no layer can be told to: a backward writes over whatever grads held
    r = np.random.default_rng(4010)
    layer = build(r)
    x, x2 = r.standard_normal((2,) + shape).astype(np.float32)
    g, g2 = r.standard_normal((2,) + layer.forward(x).shape).astype(np.float32)

    def written(x, g, fill=None):
        if fill is not None:
            for grad in layer.grads.values():
                grad[...] = fill
        layer.forward(x, train=True)
        layer.backward(g, input_grad=input_grad)
        return {k: v.tobytes() for k, v in layer.grads.items()}

    first = written(x, g, fill=0)
    for fill in (np.nan, -3.5):  # nan: a write must not read what it overwrites
        assert written(x, g, fill) == first, name
    second = written(x2, g2, fill=0)
    assert second != first, name
    written(x, g)
    assert written(x2, g2) == second, name  # over the first pass's gradients


def test_backward_without_forward_raises():
    layer = Dense(2, 2, rng())
    with pytest.raises(GapnetError, match="Dense.backward without a train-mode forward"):
        layer.backward(np.ones((1, 2), np.float32))
    layer.forward(np.ones((1, 2), np.float32), train=False)  # eval forward does not cache
    with pytest.raises(GapnetError, match="Dense.backward without a train-mode forward"):
        layer.backward(np.ones((1, 2), np.float32))


def test_sigmoid_values_and_bounds():
    assert sigmoid(np.array([0.0], np.float32))[0] == 0.5
    assert abs(sigmoid(np.array([np.log(3.0)], np.float32))[0] - 0.75) < 1e-6
    extreme = sigmoid(np.array([-1e30, -200.0, 0.0, 200.0, 1e30], np.float32))
    assert extreme.dtype == np.float32
    assert np.all(extreme > 0.0) and np.all(extreme < 1.0)
    extreme64 = sigmoid(np.array([-1e300, 1e300]))
    assert np.all(extreme64 > 0.0) and np.all(extreme64 < 1.0)


def test_relu_subgradient():
    layer = ReLU()
    out = layer.forward(np.array([-2.0, 3.0], np.float32), train=True)
    assert np.array_equal(out, [0.0, 3.0])
    assert np.array_equal(layer.backward(np.array([1.0, 1.0], np.float32)), [0.0, 1.0])


def test_dropout_contract():
    with pytest.raises(GapnetError, match=r"dropout rate must be in \[0, 1\), got 1.0"):
        Dropout(1.0)
    with pytest.raises(GapnetError, match=r"dropout rate must be in \[0, 1\), got -0.1"):
        Dropout(-0.1)
    x = np.random.default_rng(1).standard_normal(64).astype(np.float32)
    assert Dropout(0.7, seed=3).forward(x, train=False) is x  # eval identity, bitwise
    assert np.array_equal(Dropout(0.0, seed=3).forward(x, train=True), x)


def test_dropout_preserves_expectation():
    x = np.ones(100_000, np.float32)
    out = Dropout(0.5, seed=5).forward(x, train=True)
    assert 0.98 <= out.mean() <= 1.02
    for i, rate in enumerate(np.arange(0.1, 0.95, 0.1)):
        out = Dropout(float(rate), seed=100 + i).forward(x, train=True)
        se = np.sqrt(rate / (1.0 - rate) / x.size)
        assert abs(out.mean() - 1.0) <= 3 * se


def test_gap_layer_backward():
    gap = GlobalAvgPool()
    x = np.random.default_rng(2).standard_normal((2, 7, 7, 1)).astype(np.float32)
    gap.forward(x, train=True)
    back = gap.backward(np.array([[49.0], [98.0]], np.float32))
    assert np.array_equal(back[0], np.ones((7, 7, 1), np.float32))
    assert np.array_equal(back[1], np.full((7, 7, 1), 2.0, np.float32))
    gap.forward(x, train=True)
    assert not np.any(gap.backward(np.zeros((2, 1), np.float32)))


# the backbone's activations, the dfn head's hidden rows, cnn1d's response maps
RELU_SHAPES = [(1, 110, 110, 8), (1, 53, 53, 16), (32, 256), (32, 128), (32, 4080)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", RELU_SHAPES)
def test_relu_backward_is_the_masked_product_to_the_bit(shape, dtype):
    r = np.random.default_rng(len(shape) * 1000 + shape[-1])
    x = r.standard_normal(shape).astype(dtype)
    x.flat[::7] = 0.0  # the subgradient point, both signs of it
    x.flat[3::7] = -0.0
    g = r.standard_normal(shape).astype(dtype)
    layer = ReLU()
    layer.forward(x, train=True)
    got = layer.backward(g)
    want = g * (x > 0)
    # a negative gradient where x <= 0 gives -0.0, which a select of 0 would make +0.0
    assert np.any(np.signbit(want) & (want == 0))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 53, 53, 16), (2, 7, 7, 32), (3, 1, 5, 2), (2, 4, 1, 3)])
def test_gap_backward_is_the_broadcast_copy_to_the_bit(shape, dtype):
    b, h, w, c = shape
    r = np.random.default_rng(h * w * c)
    g = r.standard_normal((b, c)).astype(dtype)
    g[0, 0] = -0.0
    gap = GlobalAvgPool()
    gap.forward(r.standard_normal(shape).astype(dtype), train=True)
    got = gap.backward(g)
    per_cell = g / g.dtype.type(h * w)
    want = np.broadcast_to(per_cell[:, None, None, :], shape).copy()
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_conv1d_layer_identity_and_hand_gradient():
    layer = Conv1D(1, 1, rng())
    layer.params["w"] = np.array([[1.0]], np.float32)
    layer.params["b"] = np.zeros(1, np.float32)
    x = np.random.default_rng(3).standard_normal((2, 9)).astype(np.float32)
    assert np.array_equal(layer.forward(x, train=True), x)
    g = np.random.default_rng(4).standard_normal((2, 9)).astype(np.float32)
    assert np.array_equal(layer.backward(g), g)

    layer = Conv1D(1, 3, rng())
    layer.params["w"] = np.array([[1.0, 0.0, -1.0]], np.float32)
    layer.params["b"] = np.zeros(1, np.float32)
    out = layer.forward(np.array([[1, 2, 3, 4], [4, 3, 2, 1]], np.float32), train=True)
    assert np.array_equal(out, [[-2, -2], [2, 2]])
    dx = layer.backward(np.array([[1.0, 0.0], [0.0, 1.0]], np.float32))
    # summed over the batch: [1, 2, 3] from row 0 plus [3, 2, 1] from row 1
    assert np.array_equal(layer.grads["w"], [[4.0, 4.0, 4.0]])
    assert np.array_equal(dx, [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])


# every input carries a batch axis of B=3 rows
LAYER_CASES = [
    ("dense", lambda r: Sequential([Dense(5, 4, r)]), (3, 5)),
    ("conv1d", lambda r: Sequential([Conv1D(3, 3, r)]), (3, 9)),
    ("conv2d", lambda r: Sequential([Conv2D(2, 3, 2, 2, 1, r)]), (3, 5, 4, 2)),
    ("gap", lambda r: Sequential([GlobalAvgPool()]), (3, 3, 4, 2)),
    ("logit", lambda r: Sequential([Dense(6, 1, r)]), (3, 6)),  # a model's last layer
]


@pytest.mark.parametrize("name,build,shape", LAYER_CASES)
def test_layer_gradients_match_finite_differences(name, build, shape):
    for seed in range(5):
        r = np.random.default_rng(1000 + seed)
        frag = build(r)
        x = r.standard_normal(shape).astype(np.float32)
        report = gradient_check(frag, x, rng=np.random.default_rng(seed))
        assert report.passed, (name, seed, report.per_param)
        assert "input" in report.per_param


def test_relu_and_fixed_dropout_gradients():
    for seed in range(5):
        r = np.random.default_rng(2000 + seed)
        # keep relu inputs away from the kink so central differences are valid
        x = (r.uniform(0.1, 1.0, (3, 7)) * r.choice([-1.0, 1.0], (3, 7))).astype(np.float32)
        assert gradient_check(Sequential([ReLU()]), x).passed
        drop = Dropout(0.5, seed=seed)
        drop.fixed_mask = r.random((3, 7)) >= 0.5
        assert gradient_check(Sequential([drop]), x).passed


def test_gradient_check_bce_and_corruption():
    r = np.random.default_rng(12)
    # a dense logit checked against the BCE-on-logits objective at tolerance 1e-3
    assert gradient_check(Sequential([Dense(3, 1, r)]),
                          r.standard_normal((3, 3)).astype(np.float32),
                          loss="bce", y=np.array([1, 0, 1]), tolerance=1e-3).passed

    class DoubledDense(Dense):
        def backward(self, grad_out, input_grad=True):
            x_ = self._need_cache()
            self.grads["w"][...] = 2.0 * grad_out.T @ x_  # deliberately corrupted
            self.grads["b"][...] = grad_out.sum(axis=0)
            return grad_out @ self.params["w"]

    bad = Sequential([DoubledDense(4, 3, np.random.default_rng(13))])
    x = (np.random.default_rng(14).standard_normal((3, 4)) * 3).astype(np.float32)
    report = gradient_check(bad, x, rng=np.random.default_rng(15))
    assert not report.passed
    assert abs(report.per_param["0.w"][1] - 1.0) < 0.05  # mixed error ~ 1.0


def test_gradient_check_rejects_nondeterministic_fragment():
    frag = Sequential([Dropout(0.5, seed=9)])
    with pytest.raises(NonDeterministicFragment):
        gradient_check(frag, np.random.default_rng(8).standard_normal((2, 20)).astype(np.float32))


def rel_close(a, b, rel=1e-6):
    """max |a - b| within ``rel`` of the largest magnitude in ``b``."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return a.shape == b.shape and np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-30)


@pytest.mark.parametrize("name,build,shape", LAYER_CASES + [
    ("relu", lambda r: Sequential([ReLU()]), (3, 7)),
    ("stack", lambda r: Sequential([Dense(6, 5, r), ReLU(), Dense(5, 1, r)]), (4, 6)),
])
def test_batch_rows_match_one_row_passes(name, build, shape):
    r = np.random.default_rng(3000)
    frag = build(r)
    x = r.standard_normal(shape).astype(np.float32)
    out = frag.forward(x, train=True)
    g = r.standard_normal(out.shape).astype(np.float32)
    dx = frag.backward(g)
    batch_grads = {key: layer.grads[p].copy() for key, layer, p in frag.parameters()}

    # the same mini-batch one row at a time, each row's gradients summed here
    summed = {key: 0 for key, _, _ in frag.parameters()}
    for i in range(shape[0]):
        assert rel_close(frag.forward(x[i:i + 1], train=True)[0], out[i]), (name, i)
        assert rel_close(frag.backward(g[i:i + 1])[0], dx[i]), (name, i)
        for key, layer, p in frag.parameters():
            summed[key] = summed[key] + layer.grads[p]
    for key, _, _ in frag.parameters():
        assert rel_close(summed[key], batch_grads[key]), (name, key)


def test_dropout_draws_one_mask_per_batch():
    x = np.ones((4, 50), np.float32)
    out = Dropout(0.5, seed=7).forward(x, train=True)
    # one (B, D) draw consumes the generator like B draws of (D,) in row order
    rows = Dropout(0.5, seed=7)
    assert np.array_equal(out, np.concatenate([rows.forward(x[i:i + 1], train=True)
                                               for i in range(4)]))
    assert len({row.tobytes() for row in out}) == 4  # rows get different masks


@pytest.mark.parametrize("name,build,shape", [
    ("dense", lambda r: Dense(5, 4, r), (3, 5)),
    ("conv1d", lambda r: Conv1D(3, 3, r), (3, 9)),
    ("conv2d", lambda r: Conv2D(3, 4, 3, 3, 2, r), (3, 9, 8, 3)),
    ("sequential", lambda r: Sequential([Conv2D(3, 4, 3, 3, 2, r), ReLU(), GlobalAvgPool(),
                                         Dense(4, 2, r)]), (3, 9, 8, 3)),
])
def test_input_grad_false_skips_dx_and_keeps_param_grads_bitwise(name, build, shape):
    r = np.random.default_rng(4000)
    frag = build(r)
    x = r.standard_normal(shape).astype(np.float32)
    g = r.standard_normal(frag.forward(x).shape).astype(np.float32)
    frag.forward(x, train=True)
    dx = frag.backward(g, input_grad=True)
    assert dx.shape == x.shape
    layers = frag.layers if isinstance(frag, Sequential) else [frag]
    with_dx = [{k: v.copy() for k, v in layer.grads.items()} for layer in layers]

    frag.forward(x, train=True)
    assert frag.backward(g, input_grad=False) is None
    for layer, grads in zip(layers, with_dx):
        assert layer.grads.keys() == grads.keys()
        assert all(np.array_equal(layer.grads[k], grads[k]) for k in grads), name


def test_weight_grad_kernels_match_backward_bitwise():
    r = np.random.default_rng(4001)
    for stride in (1, 2):
        x = r.standard_normal((2, 11, 10, 3)).astype(np.float32)
        w = r.standard_normal((5, 5, 3, 4)).astype(np.float32)
        g = r.standard_normal(kernels.conv2d_forward(x, w, np.zeros(4, np.float32),
                                                     stride).shape).astype(np.float32)
        _, dw, db = kernels.conv2d_backward(x, w, g, stride)
        dw2, db2 = kernels.conv2d_weight_grads(x, w, g, stride)
        assert np.array_equal(dw, dw2) and np.array_equal(db, db2)


def scatter_dx(x, w, g, stride):
    """conv2d's dL/dx as kh*kw strided adds of g @ w[u, v].T straight into dx, u then v."""
    h2, w2 = g.shape[-3:-1]
    dx = np.zeros_like(x)
    g_rows = g.reshape(-1, g.shape[-1])
    for u in range(w.shape[0]):
        for v in range(w.shape[1]):
            dx[..., u:u + h2 * stride:stride, v:v + w2 * stride:stride, :] += (
                g_rows @ w[u, v].T).reshape(g.shape[:-1] + (w.shape[2],))
    return dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_conv2d_dx_is_the_tap_scatter_to_the_bit(lead, dtype):
    # each dx element sums the same products in the same order as the scatter does
    r = np.random.default_rng(4005)
    # (kh, kw, stride, H, W): strides 1-3, last rows and columns no tap reaches,
    # and strides above the kernel, which leave whole phases untouched
    for kh, kw, stride, height, width in [(3, 3, 1, 7, 8), (5, 5, 2, 14, 15), (3, 2, 2, 10, 9),
                                          (3, 3, 3, 13, 14), (2, 2, 3, 10, 11),
                                          (1, 2, 3, 8, 9)]:
        x = r.standard_normal(lead + (height, width, 3)).astype(dtype)
        w = r.standard_normal((kh, kw, 3, 4)).astype(dtype)
        g = r.standard_normal(lead + ((height - kh) // stride + 1, (width - kw) // stride + 1,
                                      4)).astype(dtype)
        dx, _, _ = kernels.conv2d_backward(x, w, g, stride)
        want = scatter_dx(x, w, g, stride)
        assert dx.dtype == want.dtype and dx.shape == want.shape
        assert np.array_equal(dx, want) and dx.tobytes() == want.tobytes()
    if lead == (2, 3):
        return
    # the toy backbone's stage 2: (2809, 16) rows of g, 8 input channels
    x = r.standard_normal(lead + (110, 110, 8)).astype(dtype)
    w = r.standard_normal((5, 5, 8, 16)).astype(dtype)
    g = r.standard_normal(lead + (53, 53, 16)).astype(dtype)
    dx, _, _ = kernels.conv2d_backward(x, w, g, 2)
    want = scatter_dx(x, w, g, 2)
    assert dx.dtype == want.dtype and dx.shape == want.shape
    if dtype == np.float32:
        assert dx.tobytes() == want.tobytes()
    else:
        # dgemm sums a 16-long dot product in another order for w[u, v] @ g.T than for
        # g @ w[u, v].T, so the float64 products, and dx, may differ in the last bits
        np.testing.assert_allclose(dx, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, w_shape", [((1, 224, 224, 1), (5, 5, 1, 8)),
                                              ((1, 110, 110, 8), (5, 5, 8, 16))])
def test_conv2d_bias_grad_is_the_column_sum_to_the_bit(x_shape, w_shape, dtype):
    # the toy backbone's two stages: g_rows are (12100, 8) and (2809, 16)
    r = np.random.default_rng(4006)
    x = r.standard_normal(x_shape).astype(dtype)
    w = r.standard_normal(w_shape).astype(dtype)
    g = r.standard_normal(kernels.conv2d_forward(x, w, np.zeros(w_shape[3], dtype),
                                                 2).shape).astype(dtype)
    _, db = kernels.conv2d_weight_grads(x, w, g, 2)
    want = g.reshape(-1, w_shape[3]).sum(axis=0)
    assert db.dtype == want.dtype and db.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 53, 53, 16), (1, 7, 7, 2048), (4, 53, 53, 16)])
def test_gap_forward_is_the_mean_to_the_bit(shape, dtype):
    x = np.random.default_rng(4007).standard_normal(shape).astype(dtype)
    got, want = GlobalAvgPool().forward(x), x.mean(axis=(1, 2))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_conv2d_results_share_no_memory_with_each_other_or_the_kept_windows():
    r = np.random.default_rng(4002)
    layer = Conv2D(3, 4, 3, 3, 2, r)
    x = r.standard_normal((2, 9, 8, 3)).astype(np.float32)
    first, second = layer.forward(x), layer.forward(x)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    layer.forward(x, train=True)
    dx = layer.backward(np.ones_like(first))
    layer.forward(x, train=True)
    dx2 = layer.backward(np.ones_like(first))
    assert np.array_equal(dx, dx2) and not np.shares_memory(dx, dx2)
    for out in (first, second, dx, dx2):
        assert not np.shares_memory(out, layer._cols)


def test_conv2d_forward_between_train_forward_and_backward_leaves_dw_as_it_was():
    r = np.random.default_rng(4003)
    layer = Conv2D(3, 4, 3, 3, 2, r)
    x, other = r.standard_normal((2, 2, 9, 8, 3)).astype(np.float32)
    g = r.standard_normal(layer.forward(x).shape).astype(np.float32)
    layer.forward(x, train=True)
    want = layer.backward(g)
    want_grads = {k: v.copy() for k, v in layer.grads.items()}
    layer.forward(x, train=True)
    layer.forward(other)  # eval mode, another image, before the backward
    assert np.array_equal(layer.backward(g), want)
    assert all(np.array_equal(layer.grads[k], want_grads[k]) for k in want_grads)


def test_conv2d_windows_follow_a_change_of_shape_or_dtype():
    # the kept buffer fits the last input; each result matches kernel calls with no buffer
    r = np.random.default_rng(4004)

    def check(net, x):
        conv1, conv2 = net.layers[0], net.layers[2]
        h = np.maximum(kernels.conv2d_forward(x, conv1.params["w"], conv1.params["b"], 2), 0)
        want = np.maximum(kernels.conv2d_forward(h, conv2.params["w"], conv2.params["b"], 2), 0)
        assert np.array_equal(net.forward(x, train=True), want)
        g = r.standard_normal(want.shape).astype(x.dtype)
        net.backward(g, input_grad=False)
        dw, db = kernels.conv2d_weight_grads(h, conv2.params["w"], g * (want > 0), 2)
        assert np.array_equal(conv2.grads["w"], dw) and np.array_equal(conv2.grads["b"], db)
        dh = kernels.conv2d_backward(h, conv2.params["w"], g * (want > 0), 2)[0] * (h > 0)
        dw, db = kernels.conv2d_weight_grads(x, conv1.params["w"], dh, 2)
        assert np.array_equal(conv1.grads["w"], dw) and np.array_equal(conv1.grads["b"], db)
        assert is_tap_major(conv1._cols) and conv2._cols.flags.c_contiguous

    bb = toy_backbone(r)
    for size in (13, 224, 13):
        check(bb, r.random((1, size, size, 1), np.float32))
    # a float64 copy, as the gradient check makes, builds float64 windows
    wide = copy.deepcopy(bb)
    wide.astype(np.float64)
    check(wide, r.random((1, 13, 13, 1)))  # the shape of the kept float32 windows
    assert wide.layers[0]._cols.dtype == np.float64
    x = np.random.default_rng(5).standard_normal((2, 13, 13, 1)) * 0.5
    report = gradient_check(wide, x, rng=np.random.default_rng(6))
    assert report.passed, report.per_param


def is_tap_major(cols):
    """Whether a (B, H', W', K) window buffer has K as its outermost axis in memory."""
    return cols.strides[-1] == max(cols.strides) and not cols.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("cin, cout, size", [(1, 8, 224), (8, 16, 110), (1, 4, 17)])
def test_conv2d_keeps_one_channel_windows_tap_major(cin, cout, size, batch, dtype):
    # The kept buffer's memory order follows the channel count. On the toy backbone's
    # two stages (224x224x1 and 110x110x8 inputs) every result has the bits of kernel
    # calls with no buffer. On a small one-channel input OpenBLAS may sum a tap-major
    # product in another order, so there the results agree to rounding.
    r = np.random.default_rng(4010)
    layer = Conv2D(cin, cout, 5, 5, 2, r)
    layer.astype(dtype)
    layer.params["b"][...] = r.standard_normal(cout)
    w, b = layer.params["w"], layer.params["b"]
    x = r.standard_normal((batch, size, size, cin)).astype(dtype)
    exact = size >= 110

    def same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            tol = 1e-5 if dtype == np.float32 else 1e-12
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    want = kernels.conv2d_forward(x, w, b, 2)
    same(layer.forward(x), want)
    h2 = (size - 5) // 2 + 1
    assert layer._cols.shape == (batch, h2, h2, 25 * cin) and layer._cols.dtype == dtype
    assert is_tap_major(layer._cols) if cin == 1 else layer._cols.flags.c_contiguous
    g = r.standard_normal(want.shape).astype(dtype)
    want_dx, want_dw, want_db = kernels.conv2d_backward(x, w, g, 2)
    for input_grad in (False, True):
        same(layer.forward(x, train=True), want)
        dx = layer.backward(g, input_grad=input_grad)
        same(layer.grads["w"], want_dw)
        same(layer.grads["b"], want_db)
        if input_grad:
            same(dx, want_dx)
        else:
            assert dx is None


FAULTS_PER_PASS = """
import resource
import numpy as np
from gapnet.pipeline import Model, ModelSpec
from gapnet.train import TrainConfig, train_loop

model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16, backbone_trainable=True),
              seed=3)
rng = np.random.default_rng(0)
images = [(rng.random((224, 224, 1)).astype(np.float32), i % 2) for i in range(12)]
model.forward(images[0][0][None], train=True)  # warm-up pass
model.backward(np.ones(1, np.float32))
config = TrainConfig(seed=7, batch_size=4, max_epochs=3, early_stop_patience=3).validate()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_loop(model, images[:8], images[8:], config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (3 * 12))
"""


def test_training_a_toy_backbone_faults_in_few_fresh_pages_per_pass():
    # A fresh process, as a `train` command is: how many pages a pass faults in
    # depends on what the heap went through before it. Building each image's
    # 1.2 MB and 2.2 MB window matrices afresh costs about 320 faults a pass;
    # reusing kept ones, about 20.
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", FAULTS_PER_PASS], env=env, check=True,
                           capture_output=True, text=True)
    faults = float(child.stdout)
    assert faults < 100, f"{faults:.0f} minor page faults per image pass"
