"""Layers with hand-derived forward/backward pairs, plus a finite-difference oracle.

Every layer takes a batch: axis 0 of its input indexes the samples,
so a mini-batch costs one GEMM per layer. Each layer keeps its
parameters and gradient accumulators in ``params`` / ``grads`` dicts and
caches whatever its backward pass needs when the forward pass runs in
train mode. Parameter gradients are summed over the batch rows and
accumulate until zero_grad(); the training loop zeroes once per batch.
``backward(grad_out, input_grad=True)`` returns dL/d(input); with
``input_grad=False`` a layer with parameters fills its gradients only and
returns None, so the first trainable layer of a model skips the input
gradient nobody reads. Parameter-free layers ignore the flag.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    InvalidRate,
    KernelTooLong,
    NoCachedForward,
    NonDeterministicFragment,
    RankError,
    ShapeMismatch,
)
from .tensor import DTYPE, ensure_finite, mean_over_spatial


def he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


class Layer:
    """Base layer: no parameters, identity astype, empty grads."""

    def __init__(self):
        self.params = {}
        self.grads = {}
        self._cache = None

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad_out, input_grad=True):
        raise NotImplementedError

    def zero_grad(self):
        for g in self.grads.values():
            g[...] = 0

    def astype(self, dtype):
        for k in self.params:
            self.params[k] = self.params[k].astype(dtype)
        for k in self.grads:
            self.grads[k] = self.grads[k].astype(dtype)

    def _need_cache(self):
        if self._cache is None:
            raise NoCachedForward(f"{type(self).__name__}.backward without a train-mode forward")
        cache, self._cache = self._cache, None
        return cache


class Dense(Layer):
    """Affine map z = x W^T + b on a (B, din) batch, giving (B, dout)."""

    def __init__(self, din, dout, rng):
        super().__init__()
        self.din, self.dout = din, dout
        self.params = {"w": he_uniform(rng, (dout, din), din), "b": np.zeros(dout, dtype=DTYPE)}
        self.grads = {"w": np.zeros((dout, din), dtype=DTYPE), "b": np.zeros(dout, dtype=DTYPE)}

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.din:
            raise ShapeMismatch(f"dense expects (B, {self.din}), got {x.shape}")
        z = x @ self.params["w"].T + self.params["b"]
        if train:
            self._cache = x
        return ensure_finite(z, "dense_forward")

    def backward(self, grad_out, input_grad=True):
        x = self._need_cache()
        self.grads["w"] += grad_out.T @ x
        self.grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.params["w"] if input_grad else None


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._cache = x
        return np.maximum(x, 0)

    def backward(self, grad_out, input_grad=True):
        x = self._need_cache()
        # subgradient 0 at x == 0
        return grad_out * (x > 0)


class Sigmoid(Layer):
    """Numerically stable elementwise sigmoid, clamped strictly inside (0, 1)."""

    def forward(self, x, train=False):
        info = np.finfo(x.dtype)
        pos = x >= 0
        e = np.exp(np.where(pos, -x, x))
        s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
        s = np.clip(s, info.tiny, 1.0 - info.eps / 2).astype(x.dtype)
        if train:
            self._cache = s
        return s

    def backward(self, grad_out, input_grad=True):
        s = self._need_cache()
        return grad_out * s * (1.0 - s)


class Dropout(Layer):
    """Inverted dropout: eval is the identity, train rescales survivors by 1/(1-rate).

    A train-mode forward draws one keep-mask of the input's shape, so a
    (B, D) batch takes one draw. Set ``fixed_mask`` to make a train-mode
    forward deterministic (the gradient checker relies on this).
    """

    def __init__(self, rate, seed=0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise InvalidRate(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self.fixed_mask = None

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            return x
        if self.fixed_mask is not None:
            keep = self.fixed_mask
        else:
            keep = self._rng.random(x.shape) >= self.rate
        scale = keep.astype(x.dtype) / x.dtype.type(1.0 - self.rate)
        self._cache = scale
        return x * scale

    def backward(self, grad_out, input_grad=True):
        if self.rate == 0.0:
            return grad_out
        scale = self._need_cache()
        return grad_out * scale


class GlobalAvgPool(Layer):
    """Eq.-style global average pooling: (B, H, W, C) -> (B, C)."""

    def forward(self, x, train=False):
        if x.ndim != 4:
            raise RankError(f"global average pooling expects (B, H, W, C), got rank {x.ndim}")
        out = mean_over_spatial(x)
        if train:
            self._cache = x.shape
        return out

    def backward(self, grad_out, input_grad=True):
        b, h, w, c = self._need_cache()
        if grad_out.shape != (b, c):
            raise ShapeMismatch(f"expected grad of shape ({b}, {c}), got {grad_out.shape}")
        per_cell = grad_out / grad_out.dtype.type(h * w)
        return np.broadcast_to(per_cell[:, None, None, :], (b, h, w, c)).copy()


class Conv1D(Layer):
    """Multi-filter valid 1-D convolution over a (B, n) batch of signals.

    Each output row is the row-major flattening of that sample's
    (filters x n-K+1) response map, so the output is (B, filters * (n-K+1)).
    """

    def __init__(self, n_filters, kernel_len, rng):
        super().__init__()
        self.n_filters, self.kernel_len = n_filters, kernel_len
        self.params = {
            "w": he_uniform(rng, (n_filters, kernel_len), kernel_len),
            "b": np.zeros(n_filters, dtype=DTYPE),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, train=False):
        if x.ndim != 2:
            raise RankError(f"conv1d layer expects (B, n) input, got rank {x.ndim}")
        if self.kernel_len > x.shape[1]:
            raise KernelTooLong(f"kernel length {self.kernel_len} > signal length {x.shape[1]}")
        out = kernels.conv1d_forward(x, self.params["w"], self.params["b"])
        if train:
            self._cache = (x, out.shape)
        return ensure_finite(out.reshape(x.shape[0], -1), "conv1d_layer_forward")

    def backward(self, grad_out, input_grad=True):
        x, out_shape = self._need_cache()
        g = grad_out.reshape(out_shape)
        if input_grad:
            dx, dw, db = kernels.conv1d_backward(x, self.params["w"], g)
        else:
            dx = None
            dw, db = kernels.conv1d_weight_grads(x, self.params["w"], g)
        self.grads["w"] += dw
        self.grads["b"] += db
        return dx


class Conv2D(Layer):
    """Valid cross-correlation over a (B, H, W, Cin) batch of maps, strided."""

    def __init__(self, cin, cout, kh, kw, stride, rng):
        super().__init__()
        self.cin, self.cout = cin, cout
        self.kh, self.kw, self.stride = kh, kw, stride
        self.params = {
            "w": he_uniform(rng, (kh, kw, cin, cout), kh * kw * cin),
            "b": np.zeros(cout, dtype=DTYPE),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, train=False):
        if x.ndim != 4:
            raise RankError(f"conv2d layer expects (B, H, W, C) input, got rank {x.ndim}")
        if x.shape[3] != self.cin:
            raise ShapeMismatch(f"input has {x.shape[3]} channels, layer expects {self.cin}")
        if self.kh > x.shape[1] or self.kw > x.shape[2]:
            raise ShapeMismatch(f"kernel {self.kh}x{self.kw} larger than input {x.shape[1:3]}")
        out = kernels.conv2d_forward(x, self.params["w"], self.params["b"], self.stride)
        if train:
            self._cache = x
        return ensure_finite(out, "conv2d_layer_forward")

    def backward(self, grad_out, input_grad=True):
        x = self._need_cache()
        if input_grad:
            dx, dw, db = kernels.conv2d_backward(x, self.params["w"], grad_out, self.stride)
        else:
            dx = None
            dw, db = kernels.conv2d_weight_grads(x, self.params["w"], grad_out, self.stride)
        self.grads["w"] += dw
        self.grads["b"] += db
        return dx


class Sequential:
    """Chain of layers with reverse-order backward; ``input_grad`` goes to the first layer."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, train=False):
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out, input_grad=True):
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        return self.layers[0].backward(grad_out, input_grad=input_grad)

    def zero_grad(self):
        for layer in self.layers:
            layer.zero_grad()

    def astype(self, dtype):
        for layer in self.layers:
            layer.astype(dtype)

    def parameters(self, prefix=""):
        out = []
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                out.append((f"{prefix}{i}.{name}", layer, name))
        return out


# ------------------------------------------------------- gradient check

@dataclass
class GradCheckReport:
    passed: bool
    max_mixed_error: float
    per_param: dict = field(default_factory=dict)  # name -> (max abs diff, max mixed error)


def _objective(out, loss, y, proj):
    if loss == "proj":
        return float(np.sum(np.asarray(out, dtype=np.float64) * proj))
    if loss == "bce":
        from .train import bce_loss

        return float(np.sum(bce_loss(np.reshape(out, -1), y)[0]))
    raise ValueError(f"unknown gradient-check loss {loss!r}")


def _objective_grad(out, loss, y, proj):
    if loss == "proj":
        return proj.astype(np.float64)
    from .train import bce_loss

    return bce_loss(np.reshape(out, -1), y)[1].reshape(np.shape(out))


def gradient_check(model, x, loss="proj", y=1, tolerance=1e-3, abs_tol=1e-4, h=1e-3, rng=None):
    """Compare analytic gradients against 64-bit central differences.

    The fragment is deep-copied and re-run in float64. The default
    objective is sum(output * R) for a fixed random projection R, which
    seeds the backward pass with R and exercises every output component;
    loss="bce" instead sums binary cross-entropy of every output (one
    probability per batch row) against label(s) ``y``. ``model`` is any
    fragment with the layer protocol: a Sequential or a whole Model.
    Parameter gradients and the input gradient are both checked. Passes
    iff |analytic - numeric| <= max(tolerance * |numeric|, abs_tol)
    everywhere.

    Raises NonDeterministicFragment when two train-mode forwards of the
    copied fragment disagree (e.g. dropout without a fixed mask).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    frag = copy.deepcopy(model)
    frag.astype(np.float64)
    x = np.asarray(x, dtype=np.float64)

    out1 = frag.forward(x, train=True)
    out2 = frag.forward(x, train=True)
    if not np.array_equal(out1, out2):
        raise NonDeterministicFragment("repeated forward passes disagree")
    proj = rng.standard_normal(np.asarray(out1).shape)

    frag.zero_grad()
    out = frag.forward(x, train=True)
    dx_analytic = frag.backward(_objective_grad(out, loss, y, proj), input_grad=True)

    def f():
        return _objective(frag.forward(x, train=True), loss, y, proj)

    report = GradCheckReport(passed=True, max_mixed_error=0.0)
    checks = [(name, layer.params[pname], layer.grads[pname])
              for name, layer, pname in frag.parameters()]
    checks.append(("input", x, dx_analytic))
    for name, values, analytic in checks:
        numeric = np.zeros_like(values, dtype=np.float64)
        flat_v = values.reshape(-1)
        flat_n = numeric.reshape(-1)
        for i in range(flat_v.shape[0]):
            orig = flat_v[i]
            flat_v[i] = orig + h
            up = f()
            flat_v[i] = orig - h
            down = f()
            flat_v[i] = orig
            flat_n[i] = (up - down) / (2 * h)
        diff = np.abs(np.asarray(analytic, dtype=np.float64) - numeric)
        mixed = diff / np.maximum(1.0, np.abs(numeric))
        ok = bool(np.all(diff <= np.maximum(tolerance * np.abs(numeric), abs_tol)))
        report.per_param[name] = (float(diff.max()), float(mixed.max()))
        report.max_mixed_error = max(report.max_mixed_error, float(mixed.max()))
        report.passed = report.passed and ok
    return report
