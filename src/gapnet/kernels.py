"""Hot convolution kernels: stride tricks plus BLAS.

Every kernel takes any number of leading axes in front of the ones it
convolves, so the same code runs one sample or a batch of them; weight
and bias gradients are summed over the leading axes. The ``*_weight_grads``
kernels give those two alone, for a layer whose input gradient nobody
reads; ``*_backward`` adds the input gradient to them. All kernels
preserve the input dtype (float32 at runtime, float64 when the
gradient-check oracle re-runs a model in double precision).
"""

import numpy as np

# Kernel-path provenance read by the benchmark harness; numpy is the only path.
BACKEND = "numpy"
HAVE_NUMBA = False


def conv1d_forward(x, w, b):
    # x: (..., n), w: (filters, K), b: (filters,) -> (..., filters, n-K+1)
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[1], axis=-1)
    return np.ascontiguousarray(np.swapaxes(windows @ w.T + b, -1, -2))


def conv1d_weight_grads(x, w, g):
    # g: (..., filters, L) -> dw (filters, K), db (filters,)
    f, k = w.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)  # (..., L, K)
    dw = np.swapaxes(g, -1, -2).reshape(-1, f).T @ windows.reshape(-1, k)
    db = g.reshape(-1, f, g.shape[-1]).sum(axis=(0, 2))
    return dw, db


def conv1d_backward(x, w, g):
    # g: (..., filters, L) -> dx (..., n), dw (filters, K), db (filters,)
    dw, db = conv1d_weight_grads(x, w, g)
    length = g.shape[-1]
    dx = np.zeros_like(x)
    for j in range(w.shape[1]):
        dx[..., j:j + length] += w[:, j] @ g
    return dx, dw, db


def conv2d_forward(x, w, b, stride):
    # x: (..., H, W, Cin), w: (kh, kw, Cin, Cout), b: (Cout,) -> (..., H', W', Cout)
    kh, kw = w.shape[0], w.shape[1]
    h2 = (x.shape[-3] - kh) // stride + 1
    w2 = (x.shape[-2] - kw) // stride + 1
    out = np.zeros(x.shape[:-3] + (h2, w2, w.shape[3]), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            xs = x[..., u:u + h2 * stride:stride, v:v + w2 * stride:stride, :]
            out += xs @ w[u, v]
    out += b
    return out


def conv2d_weight_grads(x, w, g, stride):
    # g: (..., H', W', Cout) -> dw (kh, kw, Cin, Cout), db (Cout,)
    kh, kw = w.shape[0], w.shape[1]
    h2, w2 = g.shape[-3], g.shape[-2]
    lead = tuple(range(g.ndim - 1))  # batch and spatial axes, summed over
    dw = np.zeros_like(w)
    for u in range(kh):
        for v in range(kw):
            xs = x[..., u:u + h2 * stride:stride, v:v + w2 * stride:stride, :]
            dw[u, v] = np.tensordot(xs, g, axes=(lead, lead))
    return dw, g.sum(axis=lead)


def conv2d_backward(x, w, g, stride):
    # g: (..., H', W', Cout) -> dx like x, dw, db
    dw, db = conv2d_weight_grads(x, w, g, stride)
    kh, kw = w.shape[0], w.shape[1]
    h2, w2 = g.shape[-3], g.shape[-2]
    dx = np.zeros_like(x)
    g_rows = g.reshape(-1, g.shape[-1])
    for u in range(kh):
        for v in range(kw):
            dx[..., u:u + h2 * stride:stride, v:v + w2 * stride:stride, :] += (
                g_rows @ w[u, v].T).reshape(g.shape[:-1] + (w.shape[2],))
    return dx, dw, db
