"""A fixed piece of work that measures how fast the host runs right now.

On a shared virtual machine the same single-threaded code runs up to half
again as slow when neighbours are busy, in phases from a fraction of a
second to many minutes; the guest sees no steal time and no difference
between CPU time and wall time. Two runs of the same code a few minutes
apart can therefore differ by more than a regression bound.

``run.py`` pins itself and every child it starts to one CPU and runs this
probe on that CPU before and after each child. The end-to-end times it
reports are the measured times scaled to a host on which one probe
iteration takes ``REFERENCE_S``: each child's times are multiplied by
REFERENCE_S / (mean of the probes just before and after it). The probe
never calls gapnet, so a change to the program moves the scaled times
exactly as it moves the measured ones; both are printed and stored.

The mix mirrors gapnet's own work on one thread: strided-slice GEMMs as in
the numpy conv2d kernel, a Dense-sized GEMM, a 4 MB copy, a loop of small
numpy calls and a loop of plain Python.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 1.0e-3  # one iteration on the reference host
ITERATIONS = 100  # one probe: about 0.1 s

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((66, 66, 8)).astype(np.float32)
_W = _rng.standard_normal((3, 3, 8, 16)).astype(np.float32)
_A = _rng.standard_normal((64, 512)).astype(np.float32)
_B = _rng.standard_normal((512, 512)).astype(np.float32)
_BIG = _rng.standard_normal(1 << 20).astype(np.float32)


def _once():
    out = np.zeros((32, 32, 16), np.float32)
    for u in range(3):
        for v in range(3):
            out += _X[u:u + 64:2, v:v + 64:2, :] @ _W[u, v]
    _A @ _B
    _BIG.copy()
    h = np.zeros(16)
    for _ in range(100):
        h = np.maximum(h * 0.5 + 1.0, 0.0)
    s = 0
    for i in range(3000):
        s += i
    return s


def probe():
    """Seconds per iteration, over ``ITERATIONS`` iterations."""
    t0 = perf_counter()
    for _ in range(ITERATIONS):
        _once()
    return (perf_counter() - t0) / ITERATIONS
