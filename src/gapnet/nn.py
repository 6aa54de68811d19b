"""Layers with hand-derived forward/backward pairs.

Every layer takes a batch: axis 0 of its input indexes the samples,
so a mini-batch costs one GEMM per layer. Each layer keeps its
parameters and their gradients in ``params`` / ``grads`` dicts and
caches whatever its backward pass needs when the forward pass runs in
train mode. In a ``pipeline.Model`` those entries are views into the
model's one parameter vector and one gradient vector, so a layer must
update them in place (``[...] =``, ``out=``) and never rebind
them. Conv2D alone keeps something between passes: a buffer for its
input's window matrix, replaced when the input's shape or dtype changes.

``backward(grad_out, input_grad=True)`` writes the parameter gradients,
summed over the batch rows, over whatever ``grads`` held; a mini-batch
run as several passes is summed by ``train.train_loop``. It returns
dL/d(input); with ``input_grad=False`` a layer with parameters fills its
gradients and returns None: Dense and Conv2D, which can open a model's
trained chain, skip the input gradient nobody reads, and Conv1D, which
never does, computes it and drops it. Parameter-free layers ignore the
flag. A model ends at a Dense logit; ``pipeline.sigmoid`` makes it a
probability.
"""

import numpy as np

from . import kernels
from .errors import GapnetError
from .tensor import DTYPE, ensure_finite


def he_uniform(rng, shape, fan_in):
    """He-uniform draws of ``shape``; zeros if ``rng`` is None, for a layer whose
    values a checkpoint is about to replace."""
    if rng is None:
        return np.zeros(shape, DTYPE)
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

    def astype(self, dtype):
        for k in self.params:
            self.params[k] = self.params[k].astype(dtype)
        for k in self.grads:
            self.grads[k] = self.grads[k].astype(dtype)

    def _need_cache(self):
        if self._cache is None:
            raise GapnetError(f"{type(self).__name__}.backward without a train-mode forward")
        cache, self._cache = self._cache, None
        return cache


class Dense(Layer):
    """Affine map z = x W^T + b on a (B, din) batch, giving (B, dout).

    W is stored (dout, din), and the forward product runs as (W x^T)^T:
    the same bits as x @ W.T, in the orientation OpenBLAS is faster at
    (README). ``np.matmul(w, x.T, out=z.T)`` would not be: numpy makes it
    the same BLAS call as x @ W.T. dW of a one-row batch, an outer product,
    is taken with ``np.dot``, which numpy runs several times faster than
    ``np.matmul`` at inner dimension 1, with the same bits; at more rows
    ``np.matmul`` is the faster one. dx is ``np.dot(grad_out, W)`` at any
    batch: the bits of ``grad_out @ W``, and about 5x faster at dout 1
    (the logit layer).
    """

    def __init__(self, din, dout, rng):
        super().__init__()
        self.din, self.dout = din, dout
        self.params = {"w": he_uniform(rng, (dout, din), din), "b": np.zeros(dout, dtype=DTYPE)}
        self.grads = {"w": np.zeros((dout, din), dtype=DTYPE), "b": np.zeros(dout, dtype=DTYPE)}

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.din:
            raise GapnetError(f"dense expects (B, {self.din}), got {x.shape}")
        z = np.ascontiguousarray((self.params["w"] @ x.T).T)  # copies (B, dout) only
        z += self.params["b"]
        if train:
            self._cache = x
        return ensure_finite(z, "dense_forward")

    def backward(self, grad_out, input_grad=True):
        x = self._need_cache()
        product = np.dot if len(x) == 1 else np.matmul
        product(grad_out.T, x, out=self.grads["w"])
        np.sum(grad_out, axis=0, out=self.grads["b"])
        return np.dot(grad_out, self.params["w"]) if input_grad else None


class ReLU(Layer):
    def forward(self, x, train=False):
        if train:
            self._cache = x
        return np.maximum(x, 0)

    def backward(self, grad_out, input_grad=True):
        x = self._need_cache()
        # subgradient 0 at x == 0; grad_out * (x > 0)'s bits (-0.0 where a negative
        # gradient meets x <= 0), but a float mask skips the bool operand's buffered cast
        mask = (x > 0).astype(x.dtype)
        mask *= grad_out
        return mask


class Dropout(Layer):
    """Inverted dropout: eval is the identity, train rescales survivors by 1/(1-rate).

    A train-mode forward draws one keep-mask of the input's shape, so a
    (B, D) batch takes one draw, from a generator made from ``seed`` on
    the first draw. A layer built with ``seed`` None (a loaded model's)
    cannot draw. Set ``fixed_mask`` to make a train-mode forward
    deterministic (the gradient checks in tests/ rely on this).
    """

    def __init__(self, rate, seed=0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise GapnetError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.seed, self._rng = seed, None
        self.fixed_mask = None

    def forward(self, x, train=False):
        if not train:
            return x
        if self.fixed_mask is not None:
            keep = self.fixed_mask
        else:
            if self._rng is None:
                if self.seed is None:
                    raise GapnetError("dropout has no seed to draw masks from: "
                                      "a model loaded from a checkpoint cannot train")
                self._rng = np.random.default_rng(self.seed)
            keep = self._rng.random(x.shape) >= self.rate
        scale = keep.astype(x.dtype) / x.dtype.type(1.0 - self.rate)
        self._cache = scale
        return x * scale

    def backward(self, grad_out, input_grad=True):
        scale = self._need_cache()
        return grad_out * scale


class GlobalAvgPool(Layer):
    """Eq.-style global average pooling: (B, H, W, C) -> (B, C)."""

    def forward(self, x, train=False):
        if x.ndim != 4:
            raise GapnetError(f"global average pooling expects (B, H, W, C), got rank {x.ndim}")
        out = np.einsum("bhwc->bc", x)  # x.mean(axis=(1, 2))'s bits when C > 1
        out /= x.shape[1] * x.shape[2]
        ensure_finite(out, "global_avg_pool")
        if train:
            self._cache = x.shape
        return out

    def backward(self, grad_out, input_grad=True):
        b, h, w, c = self._need_cache()
        if grad_out.shape != (b, c):
            raise GapnetError(f"expected grad of shape ({b}, {c}), got {grad_out.shape}")
        per_cell = grad_out / grad_out.dtype.type(h * w)
        dx = np.empty((b, h, w, c), per_cell.dtype)
        dx[:, :1] = per_cell[:, None, None, :]  # one row of cells, then copies of it down H
        dx[:, 1:] = dx[:, :1]
        return dx


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
            raise GapnetError(f"conv1d layer expects (B, n) input, got rank {x.ndim}")
        if self.kernel_len > x.shape[1]:
            raise GapnetError(f"kernel length {self.kernel_len} > signal length {x.shape[1]}")
        out = kernels.conv1d_forward(x, self.params["w"], self.params["b"])
        if train:
            self._cache = (x, out.shape)
        return ensure_finite(out.reshape(x.shape[0], -1), "conv1d_layer_forward")

    def backward(self, grad_out, input_grad=True):
        x, out_shape = self._need_cache()
        dx, dw, db = kernels.conv1d_backward(x, self.params["w"], grad_out.reshape(out_shape))
        self.grads["w"][...], self.grads["b"][...] = dw, db
        return dx if input_grad else None


class Conv2D(Layer):
    """Valid cross-correlation over a (B, H, W, Cin) batch of maps, strided.

    The layer keeps one buffer between calls: the window matrix of its
    last input, (B, H', W', kh*kw*Cin), which the forward kernel fills.
    It is reused while the input's shape and dtype repeat and replaced
    when either changes. With one input channel it is tap-major, laid
    out (kh*kw, B, H', W') in memory, so each tap's copy runs along whole
    output rows, not in runs of kw floats; with more channels it is
    C-contiguous, which their GEMMs read faster. The kernels take either,
    and on the toy backbone's 224x224 input give the same bits (README).
    A train-mode forward hands the buffer to its cache, so backward's dW
    is one GEMM on it without a second copy of the windows, and backward
    hands it back; a forward run in between builds its windows in a
    buffer of its own.
    """

    def __init__(self, cin, cout, kh, kw, stride, rng):
        super().__init__()
        self.cin, self.cout = cin, cout
        self.kh, self.kw, self.stride = kh, kw, stride
        self.params = {
            "w": he_uniform(rng, (kh, kw, cin, cout), kh * kw * cin),
            "b": np.zeros(cout, dtype=DTYPE),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cols = None

    def _windows(self, x):
        """x's window-matrix buffer: the kept one if it fits x's shape and dtype, else a new
        one, which is kept instead."""
        shape = (x.shape[0], (x.shape[1] - self.kh) // self.stride + 1,
                 (x.shape[2] - self.kw) // self.stride + 1, self.kh * self.kw * self.cin)
        cols = self._cols
        if cols is None or cols.shape != shape or cols.dtype != x.dtype:
            if self.cin == 1:  # tap-major: (K, B, H', W') in memory
                cols = np.moveaxis(np.empty(shape[3:] + shape[:3], x.dtype), 0, -1)
            else:
                cols = np.empty(shape, x.dtype)
            self._cols = cols
        return cols

    def forward(self, x, train=False):
        if x.ndim != 4:
            raise GapnetError(f"conv2d layer expects (B, H, W, C) input, got rank {x.ndim}")
        if x.shape[3] != self.cin:
            raise GapnetError(f"input has {x.shape[3]} channels, layer expects {self.cin}")
        if self.kh > x.shape[1] or self.kw > x.shape[2]:
            raise GapnetError(f"kernel {self.kh}x{self.kw} larger than input {x.shape[1:3]}")
        cols = self._windows(x)
        out = kernels.conv2d_forward(x, self.params["w"], self.params["b"], self.stride,
                                     cols=cols)
        if train:
            self._cache, self._cols = (x, cols), None
        return ensure_finite(out, "conv2d_layer_forward")

    def backward(self, grad_out, input_grad=True):
        x, cols = self._need_cache()
        if input_grad:
            dx, dw, db = kernels.conv2d_backward(x, self.params["w"], grad_out, self.stride,
                                                 cols=cols)
        else:
            dx = None
            dw, db = kernels.conv2d_weight_grads(x, self.params["w"], grad_out, self.stride,
                                                 cols=cols)
        self._cols = cols
        self.grads["w"][...], self.grads["b"][...] = dw, db
        return dx


class Sequential:
    """Chain of layers with reverse-order backward; ``input_grad`` goes to the first
    layer."""

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

    def astype(self, dtype):
        for layer in self.layers:
            layer.astype(dtype)

    def parameters(self, prefix=""):
        out = []
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                out.append((f"{prefix}{i}.{name}", layer, name))
        return out
