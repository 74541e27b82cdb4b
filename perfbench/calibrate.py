"""Fixed reference computations that measure the machine's current speed.

On a shared machine the same operation runs up to a third slower or
faster from one minute to the next, with the program unchanged: CPU
time tracks wall time, so the cause is the speed of the cores, not
waiting for them.  The benchmark times a reference, which never
changes with the program, right before every timed step and scales
the step's time by the reference's nominal over measured seconds.
Timings are thus reported in seconds of a machine running at nominal
speed; the raw figures are printed beside them.

The reference mirrors the program's two kinds of hot path: a
single-threaded Python loop over small integer array operations, as
in block matching, and the strided convolution ``einsum`` calls of the
CNN, which run on every BLAS thread and slow down differently when
another tenant takes a core.  A workload weights the two by the share
of its time each kind takes.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds each reference takes at nominal speed: its typical time on
# the machine the benchmark was tuned on (2 cores of an Intel Xeon,
# numpy 2.4 with OpenBLAS 0.3.31).
NOMINAL_LOOP_S = 0.14
NOMINAL_CONV_S = 0.10

_RNG = np.random.default_rng(20220826)
_A = _RNG.integers(0, 256, size=(64, 64)).astype(np.int16)
_B = _RNG.integers(0, 256, size=(64, 64)).astype(np.int16)
_X = _RNG.random((40, 16, 34, 34))
_W = _RNG.random((32, 16, 3, 3))
_DY = _RNG.random((40, 32, 16, 16))
_WIN = np.lib.stride_tricks.sliding_window_view(_X, (3, 3), axis=(2, 3))[:, :, ::2, ::2]


def _loop() -> int:
    acc = 0
    for i in range(20000):
        y, x = i % 48, (i * 7) % 48
        blk = _A[y : y + 16, x : x + 16].astype(np.int64)
        acc += int(np.sum(np.abs(blk - _B[x : x + 16, y : y + 16])))
    return acc


def _conv() -> float:
    acc = 0.0
    for _ in range(12):
        acc += float(np.einsum("nchwij,fcij->nfhw", _WIN, _W, optimize=True)[0, 0, 0, 0])
        acc += float(np.einsum("nchwij,nfhw->fcij", _WIN, _DY, optimize=True)[0, 0, 0, 0])
    return acc


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def speed(conv_share: float) -> float:
    """Current machine speed relative to nominal (above 1 is faster).

    ``conv_share`` is the share of the workload's time spent in
    convolution; the rest is taken to behave like the loop.
    """
    slowdown = (1.0 - conv_share) * _seconds(_loop) / NOMINAL_LOOP_S
    if conv_share:
        slowdown += conv_share * _seconds(_conv) / NOMINAL_CONV_S
    return 1.0 / slowdown
