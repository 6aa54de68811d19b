"""Global average pooling, the finiteness check, and the convolution kernels,
called directly and through their layers."""

import numpy as np
import pytest

from gapnet import kernels as K
from gapnet.errors import GapnetError
from gapnet.nn import Conv1D, Conv2D, Dense, GlobalAvgPool


def f32(values):
    return np.asarray(values, dtype=np.float32)


def mean_over_spatial(x):
    """GAP of one (H, W, C) map, through the layer."""
    return GlobalAvgPool().forward(x[None])[0]


def conv1d(x, kern, bias):
    """One-filter valid cross-correlation through the shipping kernel."""
    b = np.asarray([bias], dtype=x.dtype)
    return K.conv1d_forward(x, kern.reshape(1, -1), b)[0]


def test_conv1d_hand_values():
    out = conv1d(f32([1, 2, 3, 4]), f32([1, 0, -1]), 0.0)
    assert np.array_equal(out, [-2, -2])
    out = conv1d(f32([5, 5, 5]), f32([1, 1]), 1.0)
    assert np.array_equal(out, [11, 11])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(17).astype(np.float32)
    assert np.array_equal(conv1d(x, f32([1.0]), 0.0), x)


def test_conv1d_kernel_too_long_and_length_contract():
    with pytest.raises(GapnetError, match="kernel length 3 > signal length 2"):
        Conv1D(1, 3, np.random.default_rng(0)).forward(f32([[1, 2]]))
    rng = np.random.default_rng(2)
    for n in range(1, 12):
        for k in range(1, n + 1):
            x = rng.standard_normal(n).astype(np.float32)
            kern = rng.standard_normal(k).astype(np.float32)
            assert conv1d(x, kern, 0.0).shape == (n - k + 1,)
            assert Conv1D(2, k, rng).forward(x[None]).shape == (1, 2 * (n - k + 1))


def test_conv1d_delta_kernel_shifts():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(6, 20))
        k = int(rng.integers(1, 6))
        pos = int(rng.integers(0, k))
        x = rng.standard_normal(n).astype(np.float32)
        delta = np.zeros(k, dtype=np.float32)
        delta[pos] = 1.0
        assert np.array_equal(conv1d(x, delta, 0.0), x[pos:pos + n - k + 1])


def test_conv2d_hand_values_and_shapes():
    ones = f32(np.ones((3, 3, 1)))
    k = f32(np.ones((2, 2, 1, 1)))
    out = K.conv2d_forward(ones, k, f32([0.0]), 1)
    assert out.shape == (2, 2, 1) and np.array_equal(out, np.full((2, 2, 1), 4.0))

    # 1x1 identity kernels leave any input unchanged
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 6, 3)).astype(np.float32)
    eye = np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3)
    assert np.allclose(K.conv2d_forward(x, eye, np.zeros(3, np.float32), 1), x, atol=1e-6)

    out = K.conv2d_forward(f32(np.ones((4, 4, 1))), k, f32([0.0]), 2)
    assert out.shape == (2, 2, 1)

    # leading axes are a batch: each map convolves on its own
    batch = rng.standard_normal((3, 6, 5, 1)).astype(np.float32)
    out = K.conv2d_forward(batch, k, f32([0.5]), 1)
    for i in range(3):
        assert np.array_equal(out[i], K.conv2d_forward(batch[i], k, f32([0.5]), 1))


def test_conv2d_channel_mismatch():
    layer = Conv2D(3, 1, 2, 2, 1, np.random.default_rng(0))
    with pytest.raises(GapnetError, match="input has 2 channels, layer expects 3"):
        layer.forward(f32(np.ones((1, 4, 4, 2))))
    with pytest.raises(GapnetError, match="kernel 2x2 larger than input"):
        layer.forward(f32(np.ones((1, 1, 4, 3))))  # kernel taller than the input


def test_mean_over_spatial():
    assert np.array_equal(mean_over_spatial(f32(np.ones((7, 7, 2048)))),
                          np.ones(2048, np.float32))
    ramp = f32(np.arange(49, dtype=np.float32).reshape(7, 7, 1))
    assert np.array_equal(mean_over_spatial(ramp), [24.0])  # 1176 / 49
    x = np.random.default_rng(5).standard_normal((1, 1, 6)).astype(np.float32)
    assert np.array_equal(mean_over_spatial(x), x[0, 0])
    with pytest.raises(GapnetError, match=r"expects \(B, H, W, C\), got rank 3"):
        GlobalAvgPool().forward(np.ones((3, 3, 1), np.float32))
    batch = np.random.default_rng(7).standard_normal((2, 3, 4, 5)).astype(np.float32)
    assert np.array_equal(GlobalAvgPool().forward(batch)[1], mean_over_spatial(batch[1]))


def test_mean_over_spatial_permutation_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 4, 3)).astype(np.float32)
    base = mean_over_spatial(x)
    flat = x.reshape(20, 3)
    for _ in range(10):
        perm = rng.permutation(20)
        shuffled = flat[perm].reshape(5, 4, 3)
        assert np.allclose(mean_over_spatial(shuffled), base, atol=1e-6)


def test_kernels_reject_non_finite_output():
    rng = np.random.default_rng(8)
    big = np.float32(3e38)
    dense = Dense(2, 2, rng)
    dense.params["w"][...] = big
    conv1 = Conv1D(1, 2, rng)
    conv1.params["w"][...] = big
    conv2 = Conv2D(1, 1, 2, 2, 1, rng)
    conv2.params["w"][...] = big
    for layer, x in ((dense, np.full((1, 2), big)), (conv1, np.full((1, 4), big)),
                     (conv2, np.full((1, 3, 3, 1), big))):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GapnetError, match="non-finite"):
            layer.forward(x)
