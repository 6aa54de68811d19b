"""Hot convolution kernels: stride tricks plus BLAS.

All kernels preserve the input dtype (float32 at runtime, float64 when
the gradient-check oracle re-runs a model in double precision).
"""

import numpy as np

# Kernel-path provenance read by the benchmark harness; numpy is the only path.
BACKEND = "numpy"
HAVE_NUMBA = False


def conv1d_forward(x, w, b):
    # x: (n,), w: (filters, K), b: (filters,) -> (filters, n-K+1)
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[1])
    return np.ascontiguousarray((windows @ w.T + b).T)


def conv1d_backward(x, w, g):
    # g: (filters, L) -> dx (n,), dw (filters, K), db (filters,)
    n = x.shape[0]
    f, k = w.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, k)  # (L, K)
    dw = g @ windows
    db = g.sum(axis=1)
    gp = np.zeros((f, g.shape[1] + 2 * (k - 1)), dtype=x.dtype)
    gp[:, k - 1:k - 1 + g.shape[1]] = g
    gwin = np.lib.stride_tricks.sliding_window_view(gp, k, axis=1)  # (F, n, K)
    dx = np.einsum("fnk,fk->n", gwin, w[:, ::-1])
    assert dx.shape[0] == n
    return dx.astype(x.dtype, copy=False), dw, db


def conv2d_forward(x, w, b, stride):
    # x: (H, W, Cin), w: (kh, kw, Cin, Cout), b: (Cout,) -> (H', W', Cout)
    kh, kw = w.shape[0], w.shape[1]
    h2 = (x.shape[0] - kh) // stride + 1
    w2 = (x.shape[1] - kw) // stride + 1
    out = np.zeros((h2, w2, w.shape[3]), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            xs = x[u:u + h2 * stride:stride, v:v + w2 * stride:stride, :]
            out += xs @ w[u, v]
    out += b
    return out


def conv2d_backward(x, w, g, stride):
    kh, kw = w.shape[0], w.shape[1]
    h2, w2 = g.shape[0], g.shape[1]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    db = g.sum(axis=(0, 1))
    for u in range(kh):
        for v in range(kw):
            xs = x[u:u + h2 * stride:stride, v:v + w2 * stride:stride, :]
            dw[u, v] = np.tensordot(xs, g, axes=([0, 1], [0, 1]))
            dx[u:u + h2 * stride:stride, v:v + w2 * stride:stride, :] += g @ w[u, v].T
    return dx, dw, db
