"""The BTFT tensor container and the toy backbone.

Pre-extracted feature maps, preprocessed images, checkpoint parameters
and extracted vectors all travel through the BTFT container; a small
two-layer convolutional backbone stands in for the frozen pretrained
extractor when running desk-scale end-to-end experiments.

BTFT layout (little-endian): magic "BTFT", version u32, dtype code u8
(1 = float32), rank u8, one u32 extent per axis, then the row-major
payload. Header for a rank-1 tensor is exactly 14 bytes.
"""

import contextlib
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    IoFailure,
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedDtype,
    UnsupportedVersion,
)
from .nn import Conv2D, ReLU, Sequential
from .tensor import tensor

MAGIC = b"BTFT"
VERSION = 1
DTYPE_F32 = 1


def save_tensor(t, path):
    """Write one tensor in the BTFT container layout, atomically.

    The bytes go to a temp file in the same directory, named for this
    process and thread, which then replaces ``path``: a reader sees the
    old file or the whole new one, and a write that fails leaves the old
    file as it was and no temp file behind.
    """
    arr = np.ascontiguousarray(t, dtype="<f4")
    header = struct.pack("<4sIBB", MAGIC, VERSION, DTYPE_F32, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.write(arr.data)  # the array's buffer: no bytes copy
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as e:
        raise IoFailure(f"cannot write tensor to {path}: {e}") from e


def load_feature_map(path):
    """Read one BTFT tensor; bit-exact round trip with save_tensor.

    The payload is read straight into the array the tensor owns: no copy
    of the file bytes is made and freed on the way.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(10)
            if len(head) < 10 or head[:4] != MAGIC:
                raise BadMagic(f"{path}: not a BTFT file")
            version, dtype_code, rank = struct.unpack_from("<IBB", head, 4)
            if version != VERSION:
                raise UnsupportedVersion(f"{path}: version {version}, expected {VERSION}")
            if dtype_code != DTYPE_F32:
                raise UnsupportedDtype(f"{path}: dtype code {dtype_code}, "
                                       f"expected {DTYPE_F32}")
            offset = 10 + 4 * rank
            if size < offset:
                raise TruncatedPayload(f"{path}: header truncated")
            extents = struct.unpack(f"<{rank}I", fh.read(4 * rank))
            count = int(np.prod(extents)) if rank else 0
            if size - offset != 4 * count:
                raise TruncatedPayload(f"{path}: payload {size - offset} bytes, "
                                       f"header implies {4 * count}")
            arr = np.empty(extents, dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:
                raise TruncatedPayload(f"{path}: payload shorter than its header says")
    except OSError as e:
        raise IoFailure(f"cannot read tensor from {path}: {e}") from e
    return tensor(arr.astype(np.float32, copy=False))


class ToyBackbone:
    """Two strided conv+ReLU stages: (B, 224, 224, 3) -> (B, 53, 53, 16).

    A desk-scale stand-in for the frozen pretrained extractor; frozen by
    default, trainable on request (``ModelSpec.backbone_trainable``) for
    end-to-end gradient flow.
    """

    input_shape = (224, 224, 3)
    output_channels = 16

    def __init__(self, rng):
        self.net = Sequential([
            Conv2D(3, 8, 5, 5, 2, rng),
            ReLU(),
            Conv2D(8, 16, 5, 5, 2, rng),
            ReLU(),
        ])

    def forward(self, imgs, train=False):
        if imgs.shape[1:] != self.input_shape:
            raise ShapeMismatch(f"toy backbone expects (B, *{self.input_shape}), "
                                f"got {imgs.shape}")
        return self.net.forward(imgs, train=train)

    def backward(self, grad_out, input_grad=True):
        return self.net.backward(grad_out, input_grad=input_grad)

    def zero_grad(self):
        self.net.zero_grad()

    def astype(self, dtype):
        self.net.astype(dtype)

    def parameters(self, prefix="backbone."):
        return self.net.parameters(prefix)
