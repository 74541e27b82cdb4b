"""Tests for trajectory accumulation, envelopes, and Savitzky-Golay smoothing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from synthstab.affine import AffineParams
from synthstab.errors import InvalidSpecError
from synthstab import smoothing
from synthstab.smoothing import (
    accumulate,
    envelope,
    find_extrema,
    savitzky_golay,
    smooth_trajectory,
    smoothing_window,
    write_trajectory_csv,
)

# ---------------------------------------------------------------------------
# Brute-force Savitzky-Golay oracle
# ---------------------------------------------------------------------------


def sg_oracle(x: np.ndarray, window: int, polyorder: int) -> np.ndarray:
    """Per-sample polynomial refit over the (truncated) window."""
    n = x.size
    half = window // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n - 1, i + half)
        offsets = np.arange(lo, hi + 1) - i
        order = min(polyorder, offsets.size - 1)
        coeffs = np.polynomial.polynomial.polyfit(offsets, x[lo : hi + 1], order)
        out[i] = coeffs[0]
    return out


# ---------------------------------------------------------------------------
# savitzky_golay
# ---------------------------------------------------------------------------


def test_sg_matches_brute_force_windows():
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.normal(size=500)
        got = savitzky_golay(x, 51, 1)
        want = sg_oracle(x, 51, 1)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_sg_cached_fits_are_read_only_and_change_no_bit():
    rng = np.random.default_rng(47)
    x, y = rng.normal(size=(2, 30))
    smoothing._fit_pinv.cache_clear()
    fresh = [savitzky_golay(s, 23, 1) for s in (x, y)]
    assert smoothing._fit_pinv.cache_info().hits > 0
    cached = [savitzky_golay(s, 23, 1) for s in (x, y)]
    for got, want in zip(cached, fresh):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        smoothing._fit_pinv(-11, 11, 1)[0, 0] = 0.0


def test_sg_matches_brute_force_other_orders():
    rng = np.random.default_rng(43)
    for polyorder in (0, 2, 3):
        x = rng.normal(size=120)
        got = savitzky_golay(x, 11, polyorder)
        want = sg_oracle(x, 11, polyorder)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_sg_reproduces_polynomials():
    t = np.linspace(-2.0, 3.0, 200)
    for polyorder, coeffs in ((1, (0.7, -1.3)), (2, (0.5, 2.0, -0.25)), (3, (1.0, 0.1, -0.4, 0.02))):
        x = np.polynomial.polynomial.polyval(t, coeffs)
        out = savitzky_golay(x, 31, polyorder)
        np.testing.assert_allclose(out, x, atol=1e-9)


def test_sg_constant_preserved_any_order():
    x = np.full(60, 3.5)
    for polyorder in range(4):
        np.testing.assert_allclose(savitzky_golay(x, 15, polyorder), x, atol=1e-12)


def test_sg_rejects_bad_windows():
    x = np.zeros(100)
    with pytest.raises(InvalidSpecError):
        savitzky_golay(x, 3, 4)
    with pytest.raises(InvalidSpecError):
        # Shrinks to window 3, too short for a cubic.
        savitzky_golay(np.zeros(4), 51, 3)
    with pytest.raises(InvalidSpecError):
        savitzky_golay(x, 0, 0)
    with pytest.raises(InvalidSpecError):
        savitzky_golay(x, 11, -1)
    with pytest.raises(InvalidSpecError):
        savitzky_golay(np.array([]), 5, 1)


def test_sg_clamp_shrinks_window():
    # A window beyond the signal shrinks to its largest odd length, and
    # an even window to the odd one below it.
    rng = np.random.default_rng(47)
    x = rng.normal(size=10)
    want = savitzky_golay(x, 9, 1)
    np.testing.assert_array_equal(savitzky_golay(x, 51, 1), want)
    np.testing.assert_array_equal(savitzky_golay(x, 10, 1), want)
    np.testing.assert_allclose(want, sg_oracle(x, 9, 1), atol=1e-9)


def test_smoothing_window_is_the_window_used():
    assert [smoothing_window(w, 23) for w in (51, 23, 22, 10, 9)] == [23, 23, 21, 9, 9]
    assert smoothing_window(4, 3) == 3
    raw = accumulate(random_param_list(np.random.default_rng(5), 23))
    for window, used in ((51, 23), (10, 9)):
        smoothed, _, got = smooth_trajectory(raw, window=window, polyorder=1)
        assert got == used
        want, _, _ = smooth_trajectory(raw, window=used, polyorder=1)
        np.testing.assert_array_equal(smoothed, want)


def test_sg_smooths_noise_toward_trend():
    rng = np.random.default_rng(53)
    t = np.arange(400, dtype=np.float64)
    trend = 0.05 * t
    x = trend + rng.normal(0.0, 1.0, size=400)
    out = savitzky_golay(x, 51, 1)
    self_err = np.abs(x - trend).mean()
    out_err = np.abs(out - trend).mean()
    assert out_err < self_err / 2.0


# ---------------------------------------------------------------------------
# find_extrema / envelope
# ---------------------------------------------------------------------------


def test_find_extrema_hand_case():
    x = np.array([0.0, 2.0, 1.0, 3.0, 0.0, 0.5])
    maxima, minima = find_extrema(x)
    np.testing.assert_array_equal(maxima, [0, 1, 3, 5])
    np.testing.assert_array_equal(minima, [0, 2, 4, 5])


def test_find_extrema_plateau_first_index():
    x = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    maxima, minima = find_extrema(x)
    np.testing.assert_array_equal(maxima, [0, 1, 4])
    np.testing.assert_array_equal(minima, [0, 4])


def test_find_extrema_monotone_endpoints_only():
    x = np.arange(10, dtype=np.float64)
    maxima, minima = find_extrema(x)
    np.testing.assert_array_equal(maxima, [0, 9])
    np.testing.assert_array_equal(minima, [0, 9])


def test_find_extrema_too_short():
    with pytest.raises(InvalidSpecError):
        find_extrema(np.array([1.0, 2.0]))


def test_envelope_of_line_is_line():
    x = 2.0 * np.arange(20, dtype=np.float64) - 5.0
    up, lo = envelope(x)
    np.testing.assert_allclose(up, x, atol=1e-9)
    np.testing.assert_allclose(lo, x, atol=1e-9)


def test_envelope_ordering_and_knot_interpolation():
    rng = np.random.default_rng(59)
    x = np.cumsum(rng.normal(size=200))
    up, lo = envelope(x)
    assert (up >= lo - 1e-12).all()
    maxima, minima = find_extrema(x)
    # The envelopes pass through their own knots except where swapped
    # for ordering; at plain knots the value matches the signal.
    both = np.intersect1d(maxima, minima)
    for i in both:
        assert up[i] == pytest.approx(x[i], abs=1e-9)
        assert lo[i] == pytest.approx(x[i], abs=1e-9)


@pytest.mark.parametrize("n_knots", [*range(3, 31), 400])
def test_quadratic_envelope_spline_matches_scipy(n_knots):
    # Knots are sample indices that include both ends, as find_extrema
    # returns them; scipy's not-a-knot quadratic is the oracle.  The
    # 400-knot case checks the unpivoted tridiagonal solve on a long path.
    rng = np.random.default_rng(n_knots)
    size = n_knots + int(rng.integers(0, 80))
    inner = np.sort(rng.choice(np.arange(1, size - 1), n_knots - 2, replace=False))
    knots = np.concatenate([[0], inner, [size - 1]])
    signal = rng.normal(0.0, 50.0, size)
    want = make_interp_spline(knots.astype(np.float64), signal[knots], k=2)(
        np.arange(size, dtype=np.float64)
    )
    got = smoothing._interpolate_knots(signal, knots)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(signal[knots]).max())


def test_envelope_mean_tracks_oscillation_center():
    t = np.arange(300, dtype=np.float64)
    x = 0.01 * t + np.sin(t * 1.1)
    up, lo = envelope(x)
    mean_env = (up + lo) / 2.0
    # Away from the ends the envelope average stays near the trend.
    core = slice(20, 280)
    assert np.abs(mean_env[core] - 0.01 * t[core]).max() < 0.35
    assert np.abs(mean_env[core] - 0.01 * t[core]).mean() < np.abs(
        x[core] - 0.01 * t[core]
    ).mean()


# ---------------------------------------------------------------------------
# Trajectory accumulation
# ---------------------------------------------------------------------------


def random_param_list(rng: np.random.Generator, n: int) -> list[AffineParams]:
    return [
        AffineParams(
            float(rng.uniform(-3.0, 3.0)),
            float(rng.uniform(-3.0, 3.0)),
            float(rng.uniform(-0.2, 0.2)),
            float(rng.uniform(0.9, 1.1)),
        )
        for _ in range(n)
    ]


def test_accumulate_cumsum_semantics():
    params = [
        AffineParams(1.0, 0.0, 0.1, 2.0),
        AffineParams(2.0, -1.0, -0.05, 0.5),
    ]
    traj = accumulate(params)
    assert traj.shape == (4, 2) and traj.dtype == np.float64
    assert traj.flags.c_contiguous
    tx, ty, theta, log_s = traj
    np.testing.assert_allclose(tx, [1.0, 3.0])
    np.testing.assert_allclose(ty, [0.0, -1.0])
    np.testing.assert_allclose(theta, [0.1, 0.05])
    np.testing.assert_allclose(np.exp(log_s), [2.0, 1.0])


def test_accumulate_round_trip():
    rng = np.random.default_rng(61)
    params = random_param_list(rng, 50)
    traj = accumulate(params)
    for name, series in zip(("tx", "ty", "theta"), traj):
        back = np.diff(series, prepend=0.0)
        np.testing.assert_allclose(back, [getattr(p, name) for p in params], rtol=0, atol=1e-12)
    back_s = np.exp(np.diff(traj[3], prepend=0.0))
    np.testing.assert_allclose(back_s, [p.s for p in params], rtol=1e-12, atol=0)


def test_accumulate_empty_rejected():
    with pytest.raises(InvalidSpecError):
        accumulate([])


# ---------------------------------------------------------------------------
# smooth_trajectory
# ---------------------------------------------------------------------------


def test_smooth_linear_trajectory_identity_corrections():
    # Constant per-pair motion accumulates to a line, which order-1
    # smoothing reproduces; corrections collapse to identity.
    params = [AffineParams(0.7, -0.4, 0.001, 1.0)] * 120
    _, corrections, _ = smooth_trajectory(accumulate(params), window=51, polyorder=1)
    for c in corrections:
        assert abs(c.tx) < 0.1
        assert abs(c.ty) < 0.1
        assert abs(c.theta) < 1e-3
        assert abs(math.log(c.s)) < 1e-3


def test_smooth_reduces_jitter_variance():
    rng = np.random.default_rng(67)
    params = [
        AffineParams(0.5 + float(j), float(rng.uniform(-1, 1)), 0.0001, 1.0)
        for j in rng.uniform(-2.0, 2.0, size=200)
    ]
    traj = accumulate(params)
    smoothed, _, _ = smooth_trajectory(traj, window=51, polyorder=1)
    raw_jitter = np.diff(traj[0], n=2)
    smooth_jitter = np.diff(smoothed[0], n=2)
    assert np.abs(smooth_jitter).mean() < np.abs(raw_jitter).mean() / 4.0


def test_smooth_short_series_untouched():
    params = [AffineParams(1.0, 2.0, 0.01, 1.01), AffineParams(-1.0, 0.5, -0.01, 0.99)]
    raw = accumulate(params)
    smoothed, corrections, window = smooth_trajectory(raw)
    np.testing.assert_array_equal(smoothed, raw)
    assert smoothed is not raw and window == 0
    for c in corrections:
        assert c.tx == 0.0 and c.ty == 0.0 and c.theta == 0.0 and c.s == 1.0


def test_smooth_corrections_negate_trajectory_difference():
    # Each correction undoes the cumulative raw-minus-smoothed
    # difference at the same index.
    rng = np.random.default_rng(71)
    params = random_param_list(rng, 80)
    traj = accumulate(params)
    smoothed, corrections, _ = smooth_trajectory(traj, window=21, polyorder=1)
    assert smoothed.shape == traj.shape and smoothed.flags.c_contiguous
    assert len(corrections) == traj.shape[1]
    for i, corr in enumerate(corrections):
        delta_tx = traj[0, i] - smoothed[0, i]
        delta_th = traj[2, i] - smoothed[2, i]
        assert corr.tx == pytest.approx(-delta_tx, abs=1e-12)
        assert corr.theta == pytest.approx(-delta_th, abs=1e-12)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_write_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(73)
    params = random_param_list(rng, 30)
    traj = accumulate(params)
    smoothed, _, _ = smooth_trajectory(traj, window=11, polyorder=1)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj, smoothed)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "frame,tx_hat,ty_hat,th_hat,logs_hat,tx_tilde,ty_tilde,th_tilde,logs_tilde"
    )
    assert len(lines) == 31
    table = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(table[:, 0], np.arange(30))
    np.testing.assert_array_equal(table[:, 1:].T, np.vstack([traj, smoothed]))
