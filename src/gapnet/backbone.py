"""The BTFT tensor container and the toy backbone.

Pre-extracted feature maps, preprocessed images, checkpoint parameters
and extracted vectors all travel through the BTFT container, and
``load_feature_map`` is the one check of a tensor file; a small
two-layer convolutional backbone stands in for the frozen pretrained
extractor when running desk-scale end-to-end experiments.

BTFT layout (little-endian): magic "BTFT", version u32, dtype code u8
(1 = float32), rank u8, one u32 extent per axis, then the row-major
payload. Header for a rank-1 tensor is exactly 14 bytes.
"""

import contextlib
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import GapnetError
from .nn import Conv2D, ReLU, Sequential
from .tensor import DTYPE, ensure_finite

MAGIC = b"BTFT"
VERSION = 1
DTYPE_F32 = 1


def write_atomic(path, *chunks):
    """Write the bytes-like ``chunks`` to ``path``, atomically.

    The bytes go to a temp file in the same directory, named for this
    process, which then replaces ``path``: a reader sees the old file or
    the whole new one, and a write that fails leaves the old file as it
    was and no temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _holds(path, header, arr):
    """Whether the file at ``path`` is ``header`` then ``arr``'s bytes, exactly;
    a missing or unreadable file is not."""
    try:
        with open(path, "rb") as fh:
            if (os.fstat(fh.fileno()).st_size != len(header) + arr.nbytes
                    or fh.read(len(header)) != header):
                return False
            payload = bytearray(arr.nbytes)
            # bytearray == a buffer compares the raw bytes (memcmp), not float values
            return fh.readinto(payload) == arr.nbytes and payload == memoryview(arr).cast("B")
    except OSError:
        return False


def _btft(t):
    """The BTFT header of ``t`` and its payload, a contiguous little-endian float32 array."""
    arr = np.ascontiguousarray(t, dtype="<f4")
    header = struct.pack("<4sIBB", MAGIC, VERSION, DTYPE_F32, arr.ndim)
    return header + struct.pack(f"<{arr.ndim}I", *arr.shape), arr


def save_tensor(t, path, keep_same=False):
    """Write one tensor in the BTFT container layout, atomically.

    With ``keep_same``, a file that already holds exactly those bytes is
    left alone, so its inode and times, which the encode cache keys on,
    do not change.
    """
    header, arr = _btft(t)
    if keep_same and _holds(path, header, arr):
        return
    try:
        write_atomic(path, header, arr.data)  # the array's buffer: no bytes copy
    except OSError as e:
        raise GapnetError(f"cannot write tensor to {path}: {e}") from e


def rewrite_tensor(t, path):
    """Write one tensor's ``save_tensor`` bytes into the file at ``path``, in place,
    and return them.

    Only a regular file with one link is rewritten in place (or created), so it
    keeps its inode; anything else there (a symlink, a second hard link, a FIFO)
    is replaced by ``save_tensor``, so nothing is written through a link and the
    open never blocks. A write cut short leaves a torn file: the caller's record,
    written after it, is what says the file is whole.
    """
    header, arr = _btft(t)
    data = header + arr.tobytes()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK, 0o666)
    except OSError:  # a symlink (ELOOP), a FIFO no one reads (ENXIO), a read-only file...
        fd = None
    if fd is not None:
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
                done = 0
                while done < len(data):
                    done += os.write(fd, data[done:])
                if st.st_size > len(data):
                    os.ftruncate(fd, len(data))
                return data
        except OSError as e:
            raise GapnetError(f"cannot write tensor to {path}: {e}") from e
        finally:
            os.close(fd)
    save_tensor(arr, path)
    return data


def stat_key(st):
    """The stat data git's index keys a file on, from its ``os.stat`` or
    ``os.fstat`` result: any rewrite of the file changes it (its ctime moves
    even when its bytes and mtime are put back)."""
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def load_feature_map(path, key=None):
    """Read one BTFT tensor; bit-exact round trip with save_tensor.

    An empty shape or a non-finite payload is refused, naming the file, and
    so is a file whose ``stat_key`` is not ``key``, when one is given: the
    key is read from the open file, so it is that of the bytes read. The
    payload is read straight into the array the tensor owns: no copy of the
    file bytes is made and freed on the way.
    """
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if key is not None and stat_key(st) != key:
                raise GapnetError(f"{path}: changed since it was first read")
            size = st.st_size
            head = fh.read(10)
            if len(head) < 10 or head[:4] != MAGIC:
                raise GapnetError(f"{path}: not a BTFT file")
            version, dtype_code, rank = struct.unpack_from("<IBB", head, 4)
            if version != VERSION:
                raise GapnetError(f"{path}: version {version}, expected {VERSION}")
            if dtype_code != DTYPE_F32:
                raise GapnetError(f"{path}: dtype code {dtype_code}, "
                                  f"expected {DTYPE_F32}")
            offset = 10 + 4 * rank
            if size < offset:
                raise GapnetError(f"{path}: header truncated")
            extents = struct.unpack(f"<{rank}I", fh.read(4 * rank))
            if rank == 0 or 0 in extents:
                raise GapnetError(f"{path}: shape {extents} is empty (rank 0 or an extent of 0)")
            count = math.prod(extents)
            if size - offset != 4 * count:
                raise GapnetError(f"{path}: payload {size - offset} bytes, "
                                  f"header implies {4 * count}")
            arr = np.empty(extents, dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:
                raise GapnetError(f"{path}: payload shorter than its header says")
    except FileNotFoundError:
        raise  # a missing resource, not a bad input
    except OSError as e:
        raise GapnetError(f"cannot read tensor from {path}: {e}") from e
    return ensure_finite(arr.astype(DTYPE, copy=False), path)


TOY_INPUT_SHAPE = (224, 224, 1)  # the one image shape the toy backbone takes
TOY_CHANNELS = 16  # channels of its output maps


def toy_backbone(rng):
    """Two strided conv+ReLU stages: (B, 224, 224, 1) -> (B, 53, 53, 16).

    A desk-scale stand-in for the frozen pretrained extractor; frozen by
    default, trainable on request (``ModelSpec.backbone_trainable``) for
    end-to-end gradient flow. ``Model.encode`` checks its input's shape.
    """
    return Sequential([
        Conv2D(1, 8, 5, 5, 2, rng),
        ReLU(),
        Conv2D(8, TOY_CHANNELS, 5, 5, 2, rng),
        ReLU(),
    ])
