"""Camera-trajectory smoothing.

Per-pair motion parameters are accumulated into one ``(4, n)`` float64
array whose rows are the cumulative tx, ty, theta and log-scale (scale
is summed in log-space so that composing scales maps to addition like
the other parameters).  Each row is smoothed by averaging its extrema
envelopes and filtering the result with a Savitzky-Golay polynomial
filter; subtracting the smoothed trajectory from the raw one yields the
per-frame correction.  The envelopes' quadratic spline is numpy code
within 1e-12 (relative) of ``scipy.interpolate.make_interp_spline(k=2)``,
which the tests hold it to.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .affine import AffineParams, wrap_angle
from .dataset import atomic_write_text
from .errors import InvalidSpecError

# Savitzky-Golay window (frames, odd) and polynomial degree.
SMOOTHING_WINDOW = 51
SMOOTHING_POLYORDER = 1


def accumulate(params: list[AffineParams]) -> np.ndarray:
    """Cumulative tx, ty, theta and log-scale of the per-pair parameters,
    as the rows of a ``(4, len(params))`` array."""
    if len(params) == 0:
        raise InvalidSpecError("cannot accumulate an empty parameter list")
    rows = np.array(
        [
            [p.tx for p in params],
            [p.ty for p in params],
            [p.theta for p in params],
            [math.log(p.s) for p in params],
        ],
        dtype=np.float64,
    )
    return np.cumsum(rows, axis=1)


def find_extrema(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima, endpoints always included.

    An interior index is a maximum when the forward difference turns
    from positive to non-positive there (so the first index of a
    plateau after a rise counts), and symmetrically for minima.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if n < 3:
        raise InvalidSpecError(f"need at least 3 samples, got {n}")
    d = np.diff(x)
    max_interior = np.nonzero((d[:-1] > 0.0) & (d[1:] <= 0.0))[0] + 1
    min_interior = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0] + 1
    last = np.array([n - 1], dtype=np.int64)
    zero = np.array([0], dtype=np.int64)
    maxima = np.concatenate([zero, max_interior.astype(np.int64), last])
    minima = np.concatenate([zero, min_interior.astype(np.int64), last])
    return maxima, minima


def _interpolate_knots(signal: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """``signal`` at every index, interpolated through its values at the
    ascending indices ``knots``, which include both ends.

    With fewer than three knots the interpolation is linear.  Otherwise
    it is the quadratic B-spline within 1e-12 (relative) of
    ``scipy.interpolate.make_interp_spline(knots, signal[knots], k=2)``:
    the same not-a-knot knots (the Greville sites without the second and
    second-to-last, the ends repeated three times), and the Cox-de Boor
    recursion unrolled for degree 2.
    """
    xs = knots.astype(np.float64)
    ys = signal[knots]
    grid = np.arange(signal.size, dtype=np.float64)
    if knots.size < 3:
        return np.interp(grid, xs, ys)
    n = xs.size
    mids = (xs[1:] + xs[:-1]) / 2.0
    t = np.concatenate([np.full(3, xs[0]), mids[1:-1], np.full(3, xs[-1])])
    # Each grid point lies in [t[i], t[i + 1]), where basis functions
    # i - 2, i - 1 and i are the nonzero ones.
    i = np.clip(np.searchsorted(t, grid, side="right") - 1, 2, n - 1)
    left1 = grid - t[i]
    right1 = t[i + 1] - grid
    left2 = grid - t[i - 1]
    right2 = t[i + 2] - grid
    lin0 = right1 / (right1 + left1) / (right1 + left2)
    lin1 = left1 / (right1 + left1) / (right2 + left1)
    basis = np.stack([right1 * lin0, left2 * lin0 + right2 * lin1, left1 * lin1], axis=1)
    cols = i[:, None] + np.arange(-2, 1)
    # The knots are grid indices, so their collocation rows are grid
    # rows.  Data site r lies in interval r + 1, so the system is
    # tridiagonal; the end rows' entries off the band are exact zeros.
    offset = cols[knots] - np.arange(n)[:, None]
    band = np.zeros((3, n))
    on_band = np.abs(offset) <= 1
    band[offset[on_band] + 1, np.nonzero(on_band)[0]] = basis[knots][on_band]
    coeffs = np.array(_solve_tridiagonal(*band.tolist(), ys.tolist()))
    return np.einsum("mj,mj->m", basis, coeffs[cols])


def _solve_tridiagonal(
    sub: list[float], diag: list[float], sup: list[float], rhs: list[float]
) -> list[float]:
    """Solve the system whose row ``r`` is ``sub[r] * x[r - 1] + diag[r] *
    x[r] + sup[r] * x[r + 1] = rhs[r]``, by elimination without pivoting.

    That is stable for B-spline collocation matrices, which are totally
    positive, and takes time linear in the size, where a dense solve
    would make long paths cost cubic time.
    """
    n = len(diag)
    ratio, shifted = [0.0] * n, [0.0] * n
    prev_ratio = prev_shifted = 0.0
    for r in range(n):
        pivot = diag[r] - sub[r] * prev_ratio
        prev_ratio = ratio[r] = sup[r] / pivot
        prev_shifted = shifted[r] = (rhs[r] - sub[r] * prev_shifted) / pivot
    x = shifted
    for r in range(n - 2, -1, -1):
        x[r] -= ratio[r] * x[r + 1]
    return x


def envelope(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower envelopes via quadratic interpolation of extrema.

    With fewer than three knots the interpolation degrades to linear.
    Where the interpolants cross, values are swapped so that
    ``upper >= lower`` holds pointwise.
    """
    x = np.asarray(signal, dtype=np.float64)
    maxima, minima = find_extrema(x)
    upper = _interpolate_knots(x, maxima)
    lower = _interpolate_knots(x, minima)
    return np.maximum(upper, lower), np.minimum(upper, lower)


@lru_cache(maxsize=256)
def _fit_pinv(first: int, last: int, polyorder: int) -> np.ndarray:
    """Read-only pseudo-inverse of the polynomial design matrix over the
    window offsets ``first..last``.

    Every clip of one length smooths with the same few windows, so the
    matrices are computed once per (offsets, degree).
    """
    offsets = np.arange(first, last + 1, dtype=np.float64)
    pinv = np.linalg.pinv(np.vander(offsets, polyorder + 1, increasing=True))
    pinv.flags.writeable = False
    return pinv


def smoothing_window(window: int, n: int) -> int:
    """The window Savitzky-Golay smoothing of ``n`` samples uses: the
    largest odd value not exceeding ``window`` or ``n``."""
    w = min(window, n)
    return w if w % 2 else w - 1


def savitzky_golay(signal: np.ndarray, window: int, polyorder: int) -> np.ndarray:
    """Least-squares polynomial smoothing over a sliding window.

    ``window`` shrinks to :func:`smoothing_window`.  Interior samples
    use the centered window; near the boundaries the window is truncated
    to the available one-sided samples and refit, with the polynomial
    degree lowered if the truncated window is too short to determine
    it.  Raises :class:`InvalidSpecError` when the shrunk window is
    smaller than ``polyorder + 1``.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if n == 0:
        raise InvalidSpecError("empty signal")
    if polyorder < 0:
        raise InvalidSpecError(f"polyorder must be >= 0, got {polyorder}")
    w = smoothing_window(window, n)
    if w < polyorder + 1:
        raise InvalidSpecError(f"window {w} too small for polyorder {polyorder}")
    half = w // 2
    out = np.empty_like(x)
    center_coeffs = _fit_pinv(-half, half, polyorder)[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, w)
    out[half : n - half] = windows @ center_coeffs
    for i in (*range(half), *range(n - half, n)):
        out[i] = _edge_fit(x, i, half, polyorder)
    return out


def _edge_fit(x: np.ndarray, i: int, half: int, polyorder: int) -> float:
    lo = max(0, i - half)
    hi = min(x.size - 1, i + half)
    order = min(polyorder, hi - lo)
    coeffs = _fit_pinv(lo - i, hi - i, order) @ x[lo : hi + 1]
    return float(coeffs[0])


def smooth_trajectory(
    raw: np.ndarray,
    window: int = SMOOTHING_WINDOW,
    polyorder: int = SMOOTHING_POLYORDER,
) -> tuple[np.ndarray, list[AffineParams], int]:
    """Smooth each trajectory row and derive per-frame corrections.

    ``raw`` is a ``(4, n)`` array from :func:`accumulate`.  Per row:
    average the extrema envelopes and Savitzky-Golay filter the average;
    a path of fewer than 3 pairs is too short for an envelope and is
    left unsmoothed.  Returns the smoothed ``(4, n)`` array,
    ``corrections``, where ``corrections[i]`` is the similarity taking
    the raw pose at pair ``i`` to the smoothed pose (the per-frame warp
    the stabilizer applies), and the window used (0 when unsmoothed).

    ``window`` and ``polyorder`` are checked whatever the path length:
    raises :class:`InvalidSpecError`, naming the given values, when
    ``polyorder`` is negative or the largest odd window not above
    ``window`` is smaller than ``polyorder + 1``.
    """
    if polyorder < 0:
        raise InvalidSpecError(f"polyorder must be >= 0, got {polyorder}")
    if smoothing_window(window, window) < polyorder + 1:
        raise InvalidSpecError(f"window {window} too small for polyorder {polyorder}")
    smoothed = raw.copy()
    used = 0
    if raw.shape[1] >= 3:
        used = smoothing_window(window, raw.shape[1])
        for row, values in zip(smoothed, raw):
            up, lo = envelope(values)
            row[:] = savitzky_golay((up + lo) / 2.0, used, polyorder)
    # Negated raw-minus-smoothed, not smoothed-minus-raw: the two differ
    # in the sign of zero.
    corrections = [
        AffineParams(tx, ty, wrap_angle(theta), math.exp(log_s))
        for tx, ty, theta, log_s in zip(*(-(raw - smoothed)).tolist())
    ]
    return smoothed, corrections, used


def write_trajectory_csv(path, raw: np.ndarray, smoothed: np.ndarray) -> None:
    """Dump raw and smoothed ``(4, n)`` trajectories side by side as CSV."""
    lines = [
        "frame,tx_hat,ty_hat,th_hat,logs_hat,tx_tilde,ty_tilde,th_tilde,logs_tilde"
    ]
    for i, row in enumerate(np.vstack([raw, smoothed]).T.tolist()):
        lines.append(",".join([str(i), *map(repr, row)]))
    atomic_write_text(path, "\n".join(lines) + "\n")
