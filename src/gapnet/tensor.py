"""The runtime dtype and the finiteness check every layer's output passes.

Tensors are plain numpy arrays, row-major and float32 at runtime. A
tensor file is checked where it is read (``backbone.load_feature_map``);
the convolution kernels live in ``kernels``.
"""

import numpy as np

from .errors import GapnetError

DTYPE = np.float32


def ensure_finite(arr, where):
    if not np.all(np.isfinite(arr)):
        raise GapnetError(f"non-finite values produced by {where}")
    return arr
