import numpy as np
import pytest

from gapnet import kernels
from gapnet.errors import InvalidRate, NoCachedForward, NonDeterministicFragment, ShapeMismatch
from gapnet.nn import (
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    ReLU,
    Sequential,
    Sigmoid,
    gradient_check,
)


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
    with pytest.raises(ShapeMismatch):
        layer.forward(np.ones((1, 2047), np.float32))
    with pytest.raises(ShapeMismatch):
        layer.forward(np.ones(2048, np.float32))  # one sample still needs its batch axis


def test_dense_zero_weights_gives_zeros():
    layer = Dense(6, 3, rng())
    layer.params["w"][...] = 0
    layer.params["b"][...] = 0
    x = rng().standard_normal((4, 6)).astype(np.float32)
    assert np.array_equal(layer.forward(x), np.zeros((4, 3), np.float32))


def test_dense_backward_accumulates_and_returns_wt_grad():
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

    # zero grad_out leaves accumulators unchanged
    before = layer.grads["w"].copy()
    layer.forward(x, train=True)
    dx = layer.backward(np.zeros((2, 3), np.float32))
    assert np.array_equal(dx, np.zeros((2, 3))) and np.array_equal(layer.grads["w"], before)


def test_backward_without_forward_raises():
    layer = Dense(2, 2, rng())
    with pytest.raises(NoCachedForward):
        layer.backward(np.ones((1, 2), np.float32))
    layer.forward(np.ones((1, 2), np.float32), train=False)  # eval forward does not cache
    with pytest.raises(NoCachedForward):
        layer.backward(np.ones((1, 2), np.float32))


def test_sigmoid_values_and_bounds():
    s = Sigmoid()
    assert s.forward(np.array([0.0], np.float32))[0] == 0.5
    assert abs(s.forward(np.array([np.log(3.0)], np.float32))[0] - 0.75) < 1e-6
    extreme = s.forward(np.array([-1e30, -200.0, 0.0, 200.0, 1e30], np.float32))
    assert np.all(extreme > 0.0) and np.all(extreme < 1.0)
    extreme64 = s.forward(np.array([-1e300, 1e300]))
    assert np.all(extreme64 > 0.0) and np.all(extreme64 < 1.0)


def test_relu_subgradient():
    layer = ReLU()
    out = layer.forward(np.array([-2.0, 3.0], np.float32), train=True)
    assert np.array_equal(out, [0.0, 3.0])
    assert np.array_equal(layer.backward(np.array([1.0, 1.0], np.float32)), [0.0, 1.0])


def test_dropout_contract():
    with pytest.raises(InvalidRate):
        Dropout(1.0)
    with pytest.raises(InvalidRate):
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
    ("sigmoid", lambda r: Sequential([Sigmoid()]), (3, 6)),
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
    # dense + sigmoid checked against the BCE objective at tolerance 1e-3
    assert gradient_check(Sequential([Dense(3, 1, r), Sigmoid()]),
                          r.standard_normal((3, 3)).astype(np.float32),
                          loss="bce", y=np.array([1, 0, 1]), tolerance=1e-3).passed

    class DoubledDense(Dense):
        def backward(self, grad_out, input_grad=True):
            x_ = self._need_cache()
            self.grads["w"] += 2.0 * grad_out.T @ x_  # deliberately corrupted
            self.grads["b"] += grad_out.sum(axis=0)
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
    ("stack", lambda r: Sequential([Dense(6, 5, r), ReLU(), Dense(5, 1, r), Sigmoid()]), (4, 6)),
])
def test_batch_rows_match_one_row_passes(name, build, shape):
    r = np.random.default_rng(3000)
    frag = build(r)
    x = r.standard_normal(shape).astype(np.float32)
    out = frag.forward(x, train=True)
    g = r.standard_normal(out.shape).astype(np.float32)
    frag.zero_grad()
    dx = frag.backward(g)
    batch_grads = {key: layer.grads[p].copy() for key, layer, p in frag.parameters()}

    # the same mini-batch accumulated one row at a time
    frag.zero_grad()
    for i in range(shape[0]):
        assert rel_close(frag.forward(x[i:i + 1], train=True)[0], out[i]), (name, i)
        assert rel_close(frag.backward(g[i:i + 1])[0], dx[i]), (name, i)
    for key, layer, p in frag.parameters():
        assert rel_close(layer.grads[p], batch_grads[key]), (name, key)


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

    frag.zero_grad()
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
    x = r.standard_normal((3, 12)).astype(np.float32)
    w = r.standard_normal((4, 3)).astype(np.float32)
    g = r.standard_normal((3, 4, 10)).astype(np.float32)
    _, dw, db = kernels.conv1d_backward(x, w, g)
    dw2, db2 = kernels.conv1d_weight_grads(x, w, g)
    assert np.array_equal(dw, dw2) and np.array_equal(db, db2)
