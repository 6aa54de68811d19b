"""Hot convolution kernels: stride tricks plus BLAS.

Every kernel takes any number of leading axes in front of the ones it
convolves, so the same code runs one sample or a batch of them; weight
and bias gradients are summed over the leading axes. ``*_backward`` gives
the input, weight and bias gradients; conv2d alone also has
``conv2d_weight_grads``, the last two without dx, for a first trainable
Conv2D whose input gradient nobody reads. All kernels preserve the input
dtype (float32 at runtime, float64 when the gradient-check oracle re-runs
a model in double precision).

The conv2d kernels work on x's window matrix, one kh*kw*Cin row per
output position. Given ``cols=``, ``conv2d_forward`` builds it in that
caller-kept buffer, and the gradient kernels read it from there instead
of copying the windows out of x again. The buffer may be C-contiguous
(position-major) or tap-major, a (..., H', W', K) view of memory laid
out (K, ..., H', W'). BLAS may sum the two orders' products in different
orders on some shapes (README). Every result is a new array.

conv1d's backward copies its (..., L, K) window matrix in K columns and
takes dx as one batched ``w.T @ g`` (row j is tap j's product) added at
shift j: on cnn1d's float32 shapes, the bits of the per-tap forms (README).

conv2d's dx is built one stride phase at a time: the taps (u, v) with
u = a, v = b (mod stride) all land on dx[a::s, b::s]. g is copied once,
channel-first, into a zeroed grid whose rows are padded to the widest
phase's width pw, so tap (u, v)'s product ``w[u, v] @ g`` lands in the
phase's channel-first buffer as one contiguous run per channel, at flat
offset p*pw + q; taps add in u-then-v order, and each phase is cropped
and copied into dx once. Every element gets the same products in the
same order as a scatter of every tap straight into dx. The pad columns
add only w @ 0 = +-0.0, which changes no sum: x + (-0.0) is x, and
x + (+0.0) is x unless x is -0.0, which a buffer that starts at +0.0
never holds, since round-to-nearest gives -0.0 only for (-0.0) + (-0.0).
(A non-finite weight would carry NaN into the pad's adds too.) On
the float32 shapes tested, stage 2's included, dx is the scatter's to
the bit; float64 dgemm may sum a product in another order (README).
Stage 2's dx, (110, 110, 8) from 5x5 taps to 16 outputs, takes about
0.48 ms on one core, against about 1.0 ms as row-major ``g @ w[u, v].T``
products added in strided row pieces.
"""

import numpy as np

# Kernel-path provenance read by the benchmark harness; numpy is the only path.
BACKEND = "numpy"
HAVE_NUMBA = False


def conv1d_forward(x, w, b):
    # x: (..., n), w: (filters, K), b: (filters,) -> (..., filters, n-K+1), C-contiguous;
    # w @ windows^T gives that layout from the product itself, with the bits of
    # (windows @ w.T)^T, which cost a transposing copy
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[1], axis=-1)
    out = np.matmul(w, np.swapaxes(windows, -1, -2))
    out += b[:, None]
    return out


def conv1d_backward(x, w, g):
    # g: (..., filters, L) -> dx (..., n), dw (filters, K), db (filters,)
    f, k = w.shape
    length = g.shape[-1]
    windows = np.empty(x.shape[:-1] + (length, k), x.dtype)  # (..., L, K)
    for j in range(k):
        windows[..., j] = x[..., j:j + length]
    dw = np.swapaxes(g, -1, -2).reshape(-1, f).T @ windows.reshape(-1, k)
    db = g.reshape(-1, f, length).sum(axis=(0, 2))
    taps = np.matmul(w.T, g)  # (..., K, L): tap j's row is w[:, j] @ g
    dx = np.zeros_like(x)
    for j in range(k):
        dx[..., j:j + length] += taps[..., j, :]
    return dx, dw, db


def _conv2d_windows(x, kh, kw, stride, out=None):
    # x: (..., H, W, C) -> (..., H', W', kh*kw*C), each window ordered like w.reshape(-1, Cout);
    # copied into ``out`` if given, which must have that shape and x's dtype
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(-3, -2))
    win = np.moveaxis(win[..., ::stride, ::stride, :, :, :], -3, -1)
    if out is None:
        return win.reshape(win.shape[:-3] + (-1,))
    np.copyto(out.reshape(win.shape), win)
    return out


def conv2d_forward(x, w, b, stride, cols=None):
    # x: (..., H, W, Cin), w: (kh, kw, Cin, Cout), b: (Cout,) -> (..., H', W', Cout);
    # x's window matrix is built in ``cols`` if given
    cols = _conv2d_windows(x, w.shape[0], w.shape[1], stride, out=cols)
    out = cols.reshape(-1, cols.shape[-1]) @ w.reshape(-1, w.shape[3])
    out += b
    return out.reshape(cols.shape[:-1] + (w.shape[3],))


def conv2d_weight_grads(x, w, g, stride, cols=None):
    # g: (..., H', W', Cout) -> dw (kh, kw, Cin, Cout), db (Cout,);
    # ``cols``, if given, is x's window matrix as conv2d_forward built it
    if cols is None:
        cols = _conv2d_windows(x, w.shape[0], w.shape[1], stride)
    g_rows = g.reshape(-1, g.shape[-1])
    dw = cols.reshape(-1, cols.shape[-1]).T @ g_rows
    # einsum adds the rows in order, as .sum(axis=0) does when Cout > 1 (numpy sums a
    # lone column pairwise), so the bits match there; it is about 4x faster
    return dw.reshape(w.shape), np.einsum("ij->j", g_rows)


def conv2d_backward(x, w, g, stride, cols=None):
    # g: (..., H', W', Cout) -> dx like x, dw, db
    dw, db = conv2d_weight_grads(x, w, g, stride, cols=cols)
    kh, kw, s = w.shape[0], w.shape[1], stride
    lead, (height, width, cin) = x.shape[:-3], x.shape[-3:]
    h2, w2, cout = g.shape[-3:]
    pw = -(-width // s)  # the widest phase's width; every row of g and of a phase gets it
    run = h2 * pw
    gp = np.zeros(lead + (cout, h2, pw), g.dtype)  # g channel-first, its rows padded with 0
    gp[..., :w2] = np.moveaxis(g, -1, -3)
    gp = gp.reshape(lead + (cout, run))
    prod = np.empty(lead + (cin, run), np.result_type(g, w))  # one tap's product
    dx = np.empty_like(x)  # the phases below cover it
    for a in range(s):
        for b in range(s):
            ph = len(range(a, height, s))
            # one spare row takes the last tap's run past the phase's end; rows no tap reaches stay 0
            phase = np.zeros(lead + (cin, (ph + 1) * pw), x.dtype)
            for u in range(a, kh, s):
                for v in range(b, kw, s):
                    np.matmul(w[u, v], gp, out=prod)
                    at = (u - a) // s * pw + (v - b) // s
                    phase[..., at:at + run] += prod
            phase = phase.reshape(lead + (cin, ph + 1, pw))[..., :ph, :len(range(b, width, s))]
            dx[..., a::s, b::s, :] = np.moveaxis(phase, -3, -1)
    return dx, dw, db
