"""Dense tensor helpers: construction, shape and finiteness checks, GAP.

Tensors are plain numpy arrays: row-major, rank >= 1, every extent >= 1,
float32 at runtime. The convolution kernels live in ``kernels``.
"""

import numpy as np

from .errors import InvalidShape, NonFiniteTensor, RankError

DTYPE = np.float32


def tensor(values, dtype=DTYPE):
    """Build a validated tensor from array-like values."""
    arr = np.asarray(values, dtype=dtype)
    check_shape(arr)
    ensure_finite(arr, "tensor()")
    return np.ascontiguousarray(arr)


def check_shape(arr):
    if arr.ndim < 1:
        raise InvalidShape(f"rank must be >= 1, got rank {arr.ndim}")
    if any(e < 1 for e in arr.shape):
        raise InvalidShape(f"every extent must be >= 1, got shape {arr.shape}")


def ensure_finite(arr, where):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteTensor(f"non-finite values produced by {where}")
    return arr


def mean_over_spatial(x):
    """Average (..., H, W, C) maps over their spatial positions, giving (..., C)."""
    if x.ndim < 3:
        raise RankError(f"mean_over_spatial needs rank >= 3 input, got rank {x.ndim}")
    return ensure_finite(x.mean(axis=(-3, -2)), "mean_over_spatial")
