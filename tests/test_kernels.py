"""Tests for the numeric kernels against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthstab.kernels import (
    INVALID_SAD,
    affine_bilinear,
    backend_name,
    conv2d_backward,
    conv2d_forward,
    sad_volume,
)

# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def sad_volume_oracle(
    a: np.ndarray, b: np.ndarray, block: int, seed_du: np.ndarray, seed_dv: np.ndarray, radius: int
) -> np.ndarray:
    h, w = a.shape
    nby, nbx = h // block, w // block
    side = 2 * radius + 1
    vol = np.full((nby, nbx, side, side), INVALID_SAD, dtype=np.int64)
    a64 = a.astype(np.int64)
    b64 = b.astype(np.int64)
    for by in range(nby):
        for bx in range(nbx):
            y0, x0 = by * block, bx * block
            blk = a64[y0 : y0 + block, x0 : x0 + block]
            for j in range(side):
                for i in range(side):
                    du = int(seed_du[by, bx]) + i - radius
                    dv = int(seed_dv[by, bx]) + j - radius
                    ys, xs = y0 + dv, x0 + du
                    if ys < 0 or xs < 0 or ys + block > h or xs + block > w:
                        continue
                    cand = b64[ys : ys + block, xs : xs + block]
                    vol[by, bx, j, i] = np.abs(blk - cand).sum()
    return vol


def conv2d_forward_oracle(xp: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    n, c, hp, wp = xp.shape
    f, _, kh, kw = w.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for oy in range(ho):
                for ox in range(wo):
                    patch = xp[ni, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                    out[ni, fi, oy, ox] = np.sum(patch * w[fi]) + b[fi]
    return out


# ---------------------------------------------------------------------------
# affine_bilinear
# ---------------------------------------------------------------------------


def test_affine_bilinear_identity_reproduces_texture():
    rng = np.random.default_rng(3)
    tex = rng.uniform(0.0, 255.0, size=(24, 31))
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out, inside = affine_bilinear(tex, m, 24, 31)
    np.testing.assert_array_equal(out, tex)
    assert inside.all()


def test_affine_bilinear_half_pixel_shift_averages():
    tex = np.zeros((4, 4))
    tex[1, 1] = 100.0
    m = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]])
    out, _ = affine_bilinear(tex, m, 4, 4)
    # Output pixel x=0 samples tex x=0.5: average of columns 0 and 1.
    assert out[1, 0] == pytest.approx(50.0)
    assert out[1, 1] == pytest.approx(50.0)


def test_affine_bilinear_outside_marked_and_zeroed():
    tex = np.full((8, 8), 9.0)
    m = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0]])
    out, inside = affine_bilinear(tex, m, 8, 8)
    assert not inside[:, 3:].any()
    assert (out[:, 3:] == 0.0).all()
    assert inside[:, :3].all()
    assert (out[:, :3] == 9.0).all()


def test_affine_bilinear_matches_manual_interpolation():
    rng = np.random.default_rng(5)
    tex = rng.uniform(0.0, 255.0, size=(16, 16))
    m = np.array([[0.9, 0.1, 1.3], [-0.1, 0.9, 2.7]])
    out, inside = affine_bilinear(tex, m, 10, 10)
    for y in range(10):
        for x in range(10):
            sx = 0.9 * x + 0.1 * y + 1.3
            sy = -0.1 * x + 0.9 * y + 2.7
            if not (0.0 <= sx <= 15.0 and 0.0 <= sy <= 15.0):
                assert not inside[y, x]
                continue
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            fx, fy = sx - x0, sy - y0
            x1, y1 = min(x0 + 1, 15), min(y0 + 1, 15)
            expect = (tex[y0, x0] * (1 - fx) + tex[y0, x1] * fx) * (1 - fy) + (
                tex[y1, x0] * (1 - fx) + tex[y1, x1] * fx
            ) * fy
            assert out[y, x] == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# sad_volume
# ---------------------------------------------------------------------------


def test_sad_volume_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.integers(0, 256, size=(24, 32)).astype(np.int16)
        b = rng.integers(0, 256, size=(24, 32)).astype(np.int16)
        nby, nbx = 3, 4
        seed_du = rng.integers(-3, 4, size=(nby, nbx))
        seed_dv = rng.integers(-3, 4, size=(nby, nbx))
        got = sad_volume(a, b, 8, seed_du, seed_dv, 2)
        want = sad_volume_oracle(a, b, 8, seed_du, seed_dv, 2)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    block=st.sampled_from([4, 8, 16]),
    radius=st.integers(1, 5),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    extra_h=st.integers(0, 15),
    extra_w=st.integers(0, 15),
    seed_scale=st.sampled_from(["zero", "radius", "block", "off_frame"]),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_sad_volume_matches_oracle_property(
    block, radius, rows, cols, extra_h, extra_w, seed_scale, data_seed
):
    # Frame sizes the block need not divide; seeds from none up to twice
    # the frame size, which moves whole search windows off the frame.
    h = rows * block + extra_h % block
    w = cols * block + extra_w % block
    rng = np.random.default_rng(data_seed)
    a = rng.integers(0, 256, size=(h, w)).astype(np.int16)
    b = rng.integers(0, 256, size=(h, w)).astype(np.int16)
    lim = {"zero": 0, "radius": radius, "block": block, "off_frame": 2 * max(h, w)}[seed_scale]
    seed_du = rng.integers(-lim, lim + 1, size=(rows, cols))
    seed_dv = rng.integers(-lim, lim + 1, size=(rows, cols))
    got = sad_volume(a, b, block, seed_du, seed_dv, radius)
    want = sad_volume_oracle(a, b, block, seed_du, seed_dv, radius)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_sad_volume_zero_at_true_shift():
    rng = np.random.default_rng(9)
    b = rng.integers(0, 256, size=(16, 16)).astype(np.int16)
    a = np.roll(b, shift=(0, -2), axis=(0, 1))  # content of b shifted left
    seed = np.zeros((2, 2), dtype=np.int64)
    vol = sad_volume(a, b, 8, seed, seed, 3)
    # Block (0, 0) of a equals b displaced by du=+2 -> index i = 2 + radius.
    assert vol[0, 0, 3, 5] == 0


def test_sad_volume_out_of_bounds_invalid():
    a = np.zeros((8, 8), dtype=np.int16)
    b = np.zeros((8, 8), dtype=np.int16)
    seed = np.zeros((1, 1), dtype=np.int64)
    vol = sad_volume(a, b, 8, seed, seed, 2)
    # Single full-frame block: only zero displacement stays inside.
    assert vol[0, 0, 2, 2] == 0
    mask = np.ones((5, 5), dtype=bool)
    mask[2, 2] = False
    assert (vol[0, 0][mask] == INVALID_SAD).all()


# ---------------------------------------------------------------------------
# conv2d forward/backward
# ---------------------------------------------------------------------------


def test_conv2d_forward_matches_oracle():
    rng = np.random.default_rng(11)
    xp = rng.normal(size=(2, 3, 9, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = conv2d_forward(xp, w, b, 2)
    want = conv2d_forward_oracle(xp, w, b, 2)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conv2d_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    xp = rng.normal(size=(1, 2, 7, 7))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    dy = rng.normal(size=conv2d_forward(xp, w, b, 2).shape)

    def loss(xp_, w_, b_):
        return float(np.sum(conv2d_forward(xp_, w_, b_, 2) * dy))

    dxp, dw, db = conv2d_backward(xp, w, dy, 2)
    eps = 1e-6
    for arr, grad in ((xp, dxp), (w, dw), (b, db)):
        flat = arr.ravel()
        gflat = grad.ravel()
        for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss(xp, w, b)
            flat[idx] = orig - eps
            down = loss(xp, w, b)
            flat[idx] = orig
            num = (up - down) / (2 * eps)
            assert gflat[idx] == pytest.approx(num, abs=1e-4)


# ---------------------------------------------------------------------------
# Backend name
# ---------------------------------------------------------------------------


def test_backend_name_valid():
    assert backend_name() == "numpy"
