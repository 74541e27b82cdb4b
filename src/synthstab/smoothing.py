"""Camera-trajectory smoothing.

Per-pair motion parameters are accumulated into four cumulative series
(tx, ty, theta, and scale in log-space).  Each series is smoothed by
averaging its extrema envelopes and filtering the result with a
Savitzky-Golay polynomial filter; subtracting the smoothed trajectory
from the raw one yields the per-frame correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import make_interp_spline

from .affine import AffineParams, wrap_angle
from .errors import BadWindowError, LengthMismatchError, SignalTooShortError

# Savitzky-Golay window (frames, odd) and polynomial degree.
SMOOTHING_WINDOW = 51
SMOOTHING_POLYORDER = 1


@dataclass(frozen=True)
class Trajectory:
    """Cumulative motion series, one entry per frame pair.

    Scale is carried as a log-space sum so that composing scales maps
    to addition like the other parameters; ``s`` exposes the
    exponentiated values.
    """

    tx: np.ndarray
    ty: np.ndarray
    theta: np.ndarray
    log_s: np.ndarray

    def __post_init__(self):
        n = len(self.tx)
        if not (len(self.ty) == len(self.theta) == len(self.log_s) == n):
            raise LengthMismatchError("trajectory series differ in length")

    @property
    def s(self) -> np.ndarray:
        return np.exp(self.log_s)

    def __len__(self) -> int:
        return len(self.tx)


def accumulate(params: list[AffineParams]) -> Trajectory:
    """Cumulative sums of per-pair parameters (scale summed in log-space)."""
    if len(params) == 0:
        raise SignalTooShortError("cannot accumulate an empty parameter list")
    tx = np.cumsum([p.tx for p in params])
    ty = np.cumsum([p.ty for p in params])
    theta = np.cumsum([p.theta for p in params])
    log_s = np.cumsum([math.log(p.s) for p in params])
    return Trajectory(tx, ty, theta, log_s)


def find_extrema(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima, endpoints always included.

    An interior index is a maximum when the forward difference turns
    from positive to non-positive there (so the first index of a
    plateau after a rise counts), and symmetrically for minima.
    """
    x = np.asarray(signal, dtype=np.float64)
    n = x.size
    if n < 3:
        raise SignalTooShortError(f"need at least 3 samples, got {n}")
    d = np.diff(x)
    max_interior = np.nonzero((d[:-1] > 0.0) & (d[1:] <= 0.0))[0] + 1
    min_interior = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0] + 1
    last = np.array([n - 1], dtype=np.int64)
    zero = np.array([0], dtype=np.int64)
    maxima = np.concatenate([zero, max_interior.astype(np.int64), last])
    minima = np.concatenate([zero, min_interior.astype(np.int64), last])
    return maxima, minima


def _interpolate_knots(signal: np.ndarray, knots: np.ndarray) -> np.ndarray:
    xs = knots.astype(np.float64)
    ys = signal[knots]
    grid = np.arange(signal.size, dtype=np.float64)
    if knots.size >= 3:
        return make_interp_spline(xs, ys, k=2)(grid)
    if knots.size == 2:
        return np.interp(grid, xs, ys)
    return np.full(signal.size, ys[0], dtype=np.float64)


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


def _clamped_window(window: int, n: int) -> int:
    w = min(window, n)
    if w % 2 == 0:
        w -= 1
    return w


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


def savitzky_golay(
    signal: np.ndarray, window: int, polyorder: int, clamp: bool = True
) -> np.ndarray:
    """Least-squares polynomial smoothing over a sliding window.

    Interior samples use the centered window; near the boundaries the
    window is truncated to the available one-sided samples and refit,
    with the polynomial degree lowered if the truncated window is too
    short to determine it.  ``clamp`` shrinks ``window`` to the largest
    valid odd value not exceeding the signal length.  Raises
    :class:`BadWindowError` for an even window or one smaller than
    ``polyorder + 1`` (after clamping).
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.size == 0:
        raise SignalTooShortError("empty signal")
    if polyorder < 0:
        raise BadWindowError(f"polyorder must be >= 0, got {polyorder}")
    w = _clamped_window(window, x.size) if clamp else window
    if w % 2 == 0:
        raise BadWindowError(f"window must be odd, got {w}")
    if w < polyorder + 1:
        raise BadWindowError(f"window {w} too small for polyorder {polyorder}")
    if w > x.size:
        raise BadWindowError(f"window {w} exceeds signal length {x.size}")
    half = w // 2
    out = np.empty_like(x)
    n = x.size
    if n >= w:
        center_coeffs = _fit_pinv(-half, half, polyorder)[0]
        windows = np.lib.stride_tricks.sliding_window_view(x, w)
        out[half : n - half] = windows @ center_coeffs
    for i in range(min(half, n)):
        out[i] = _edge_fit(x, i, half, polyorder)
    for i in range(max(n - half, min(half, n)), n):
        out[i] = _edge_fit(x, i, half, polyorder)
    return out


def _edge_fit(x: np.ndarray, i: int, half: int, polyorder: int) -> float:
    lo = max(0, i - half)
    hi = min(x.size - 1, i + half)
    order = min(polyorder, hi - lo)
    coeffs = _fit_pinv(lo - i, hi - i, order) @ x[lo : hi + 1]
    return float(coeffs[0])


@dataclass(frozen=True)
class SmoothingResult:
    """Output of :func:`smooth_trajectory`."""

    smoothed: Trajectory
    corrections: list[AffineParams]


def smooth_trajectory(
    traj: Trajectory,
    window: int = SMOOTHING_WINDOW,
    polyorder: int = SMOOTHING_POLYORDER,
) -> SmoothingResult:
    """Smooth each trajectory series and derive per-frame corrections.

    Per series: average the extrema envelopes and Savitzky-Golay filter
    the average.  ``corrections[i]`` is the similarity taking the raw
    pose at pair ``i`` to the smoothed pose (the per-frame warp the
    stabilizer applies).
    """
    series = {
        "tx": traj.tx,
        "ty": traj.ty,
        "theta": traj.theta,
        "log_s": traj.log_s,
    }
    smoothed_series = {}
    for name, values in series.items():
        if values.size < 3:
            # Too short for an envelope; leave the series untouched.
            smoothed_series[name] = values.copy()
            continue
        up, lo = envelope(values)
        mean_env = (up + lo) / 2.0
        smoothed_series[name] = savitzky_golay(mean_env, window, polyorder)
    smoothed = Trajectory(
        smoothed_series["tx"],
        smoothed_series["ty"],
        smoothed_series["theta"],
        smoothed_series["log_s"],
    )
    # Negated raw-minus-smoothed, not smoothed-minus-raw: the two differ
    # in the sign of zero.
    corrections = [
        AffineParams(
            -(traj.tx[i] - smoothed.tx[i]),
            -(traj.ty[i] - smoothed.ty[i]),
            wrap_angle(-(traj.theta[i] - smoothed.theta[i])),
            math.exp(-(traj.log_s[i] - smoothed.log_s[i])),
        )
        for i in range(len(traj))
    ]
    return SmoothingResult(smoothed, corrections)


def write_trajectory_csv(path, raw: Trajectory, smoothed: Trajectory) -> None:
    """Dump raw and smoothed cumulative series side by side as CSV."""
    if len(raw) != len(smoothed):
        raise LengthMismatchError("raw and smoothed trajectories differ in length")
    lines = [
        "frame,tx_hat,ty_hat,th_hat,logs_hat,tx_tilde,ty_tilde,th_tilde,logs_tilde"
    ]
    for i in range(len(raw)):
        cells = [
            str(i),
            repr(float(raw.tx[i])),
            repr(float(raw.ty[i])),
            repr(float(raw.theta[i])),
            repr(float(raw.log_s[i])),
            repr(float(smoothed.tx[i])),
            repr(float(smoothed.ty[i])),
            repr(float(smoothed.theta[i])),
            repr(float(smoothed.log_s[i])),
        ]
        lines.append(",".join(cells))
    from .dataset import atomic_write_text

    atomic_write_text(path, "\n".join(lines) + "\n")
