"""Tests for the numeric kernels against brute-force oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthstab.kernels import (
    INVALID_SAD,
    SAD_ROW_CHUNK,
    affine_bilinear,
    backend_name,
    bilinear_sample,
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


def bilinear_oracle(tex: np.ndarray, sx: float, sy: float) -> tuple[float, bool]:
    th, tw = tex.shape
    if not (0.0 <= sx <= tw - 1.0 and 0.0 <= sy <= th - 1.0):
        return 0.0, False
    x0, y0 = math.floor(sx), math.floor(sy)
    fx, fy = sx - x0, sy - y0
    x1, y1 = min(x0 + 1, tw - 1), min(y0 + 1, th - 1)
    t = tex.tolist()
    val = (t[y0][x0] * (1.0 - fx) + t[y0][x1] * fx) * (1.0 - fy) + (
        t[y1][x0] * (1.0 - fx) + t[y1][x1] * fx
    ) * fy
    return val, True


def sample_oracle(
    tex: np.ndarray, sx: np.ndarray, sy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    sx, sy = np.broadcast_arrays(sx, sy)
    out = np.zeros(sx.shape)
    inside = np.zeros(sx.shape, dtype=bool)
    for idx in np.ndindex(sx.shape):
        out[idx], inside[idx] = bilinear_oracle(tex, float(sx[idx]), float(sy[idx]))
    return out, inside


def affine_bilinear_oracle(tex, m, out_h, out_w):
    out = np.zeros((out_h, out_w))
    inside = np.zeros((out_h, out_w), dtype=bool)
    m = m.tolist()
    for y in range(out_h):
        for x in range(out_w):
            sx = m[0][0] * float(x) + m[0][1] * float(y) + m[0][2]
            sy = m[1][0] * float(x) + m[1][1] * float(y) + m[1][2]
            out[y, x], inside[y, x] = bilinear_oracle(tex, sx, sy)
    return out, inside


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


def assert_bitwise_equal(got, want):
    (out, inside), (want_out, want_inside) = got, want
    assert out.dtype == np.float64 and out.shape == want_out.shape
    np.testing.assert_array_equal(inside, want_inside)
    np.testing.assert_array_equal(out.view(np.int64), want_out.view(np.int64))


# Linear terms and offsets that are exact in binary land samples exactly
# on texel rows and columns, the last ones included, where the right or
# lower neighbour clamps; arbitrary floats cover the rest.
_linear = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_offset = st.one_of(
    st.integers(-3, 12).map(float),
    st.integers(-6, 24).map(lambda v: v / 2.0),
    st.floats(-4.0, 14.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    th=st.integers(1, 9),
    tw=st.integers(1, 9),
    out_h=st.integers(1, 11),
    out_w=st.integers(1, 11),
    m=st.tuples(_linear, _linear, _offset, _linear, _linear, _offset),
    data_seed=st.integers(0, 2**32 - 1),
)
@example(th=1, tw=5, out_h=3, out_w=7, m=(1.0, 0.0, -2.0, 0.0, 0.0, 0.0), data_seed=0)
@example(th=6, tw=1, out_h=8, out_w=2, m=(0.0, 0.0, 0.0, 0.0, 1.0, -2.0), data_seed=1)
@example(th=4, tw=5, out_h=4, out_w=5, m=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0), data_seed=2)
def test_affine_bilinear_matches_loop_oracle_bitwise(th, tw, out_h, out_w, m, data_seed):
    tex = np.random.default_rng(data_seed).uniform(-50.0, 255.0, size=(th, tw))
    matrix = np.array(m).reshape(2, 3)
    got = affine_bilinear(tex, matrix, out_h, out_w)
    assert_bitwise_equal(got, affine_bilinear_oracle(tex, matrix, out_h, out_w))


@settings(max_examples=100, deadline=None)
@given(
    th=st.integers(1, 9),
    tw=st.integers(1, 9),
    n=st.integers(1, 4),
    bs=st.integers(1, 6),
    corners=st.lists(st.tuples(_offset, _offset), min_size=4, max_size=4),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_bilinear_sample_broadcast_patches_match_loop_oracle_bitwise(
    th, tw, n, bs, corners, data_seed
):
    # The (n, 1, bs) and (n, bs, 1) coordinates of the per-cell patch
    # stack that metrics._refine_correspondences samples.
    tex = np.random.default_rng(data_seed).uniform(0.0, 255.0, size=(th, tw))
    cx, cy = np.array(corners[:n]).T
    pos = np.arange(bs, dtype=np.float64)
    sx = pos + cx[:, None, None]
    sy = pos[:, None] + cy[:, None, None]
    assert_bitwise_equal(bilinear_sample(tex, sx, sy), sample_oracle(tex, sx, sy))


@pytest.mark.parametrize("far", [np.nan, np.inf, -np.inf, 1e18, -1e18])
def test_bilinear_sample_far_and_nan_coordinates_read_zero_outside(far):
    # Positions this far out give tap indices far outside the texture,
    # or none at all (NaN); the clipped gathers keep the reads in
    # bounds, and every such position is outside and 0.
    tex = np.random.default_rng(4).uniform(0.0, 255.0, size=(5, 7))
    sx = np.array([far, 2.5, far, 6.0, 0.0])
    sy = np.array([1.5, far, far, 4.0, 0.25])
    with np.errstate(invalid="ignore", over="ignore"):
        out, inside = bilinear_sample(tex, sx, sy)
    np.testing.assert_array_equal(inside, [False, False, False, True, True])
    assert_bitwise_equal((out, inside), sample_oracle(tex, sx, sy))
    # The broadcast (n, 1, bs) and (n, bs, 1) patch coordinates.
    pos = np.arange(3, dtype=np.float64)
    cx = np.array([far, 1.0, far])
    cy = np.array([0.5, far, far])
    psx = pos + cx[:, None, None]
    psy = pos[:, None] + cy[:, None, None]
    with np.errstate(invalid="ignore", over="ignore"):
        got = bilinear_sample(tex, psx, psy)
    assert not got[1].any()
    assert_bitwise_equal(got, sample_oracle(tex, psx, psy))


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
    block=st.sampled_from([4, 5, 8, 16, 32]),
    radius=st.integers(1, 5),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    extra_h=st.integers(0, 15),
    extra_w=st.integers(0, 15),
    seed_scale=st.sampled_from(["zero", "radius", "block", "off_frame"]),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_sad_volume_matches_oracle_property(
    block, radius, rows, cols, extra_h, extra_w, seed_scale, data_seed
):
    # Frame sizes the block need not divide; block grids up to the 8x8
    # of the benchmark frames; seeds from none up to twice the frame
    # size, which moves whole search windows off the frame.
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
    k = 2 * radius + 1
    assert got.dtype == np.int64
    assert got.shape == (rows, cols, k, k)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block", [4, 5, 8, 16, 32, 128, 136])
@pytest.mark.parametrize("dark_first", [True, False])
def test_sad_volume_reaches_the_saturated_maximum(block, dark_first):
    # All-0 against all-255 gives 255 * block**2 at every in-frame
    # offset; at block 32 that is 261120, past the uint16 range.  At
    # block 128 each int16 row sum is at its largest, 128 * 255 =
    # 32640; block 136 needs a second 128-row chunk.
    dark = np.zeros((3 * block, 2 * block), dtype=np.int16)
    bright = np.full_like(dark, 255)
    a, b = (dark, bright) if dark_first else (bright, dark)
    seed = np.zeros((3, 2), dtype=np.int64)
    got = sad_volume(a, b, block, seed, seed, 2)
    want = sad_volume_oracle(a, b, block, seed, seed, 2)
    np.testing.assert_array_equal(got, want)
    assert got[got != INVALID_SAD].min() == got[got != INVALID_SAD].max() == 255 * block * block


def test_sad_volume_matches_oracle_past_one_row_chunk():
    # 130 rows: the int16 column sums of the first 128 are widened to
    # int64 before the last 2 start a second chunk.
    block = 130
    assert SAD_ROW_CHUNK < block < 2 * SAD_ROW_CHUNK
    rng = np.random.default_rng(130)
    a = rng.integers(0, 256, size=(2 * block + 3, 2 * block)).astype(np.int16)
    b = rng.integers(0, 256, size=a.shape).astype(np.int16)
    seed_du = rng.integers(-2, 3, size=(2, 2))
    seed_dv = rng.integers(-2, 3, size=(2, 2))
    got = sad_volume(a, b, block, seed_du, seed_dv, 1)
    want = sad_volume_oracle(a, b, block, seed_du, seed_dv, 1)
    np.testing.assert_array_equal(got, want)
    # Both in-frame and off-frame offsets occur, and the sums exceed
    # one int16 chunk's range.
    assert (got == INVALID_SAD).any() and (got < INVALID_SAD).any()
    assert got[got < INVALID_SAD].min() > np.iinfo(np.int16).max


def test_sad_volume_column_sums_of_a_saturated_130_px_block():
    # All-0 against all-255: each int16 entry of the first row chunk is
    # 128 * 255 = 32640, and its int32 column sum 130 * 32640, far past
    # the int16 range, before the int64 volume adds the last 2 rows.
    block = 130
    a = np.zeros((2 * block, 2 * block), dtype=np.int16)
    b = np.full_like(a, 255)
    seed = np.zeros((2, 2), dtype=np.int64)
    got = sad_volume(a, b, block, seed, seed, 1)
    inside = got < INVALID_SAD
    assert got.dtype == np.int64
    assert inside.sum() == 4 * 4 and (~inside).any()
    assert (got[inside] == 255 * block**2).all()


def test_sad_volume_memory_stays_below_the_block_differences():
    # One 128x128 frame at 16 px blocks and radius 4: the differences of
    # whole blocks would take 81 * 16 * 16 * 64 int16 entries (2.65 MB).
    rng = np.random.default_rng(16)
    a = rng.integers(0, 256, size=(128, 128)).astype(np.int16)
    b = rng.integers(0, 256, size=(128, 128)).astype(np.int16)
    seed = np.zeros((8, 8), dtype=np.int64)
    sad_volume(a, b, 16, seed, seed, 4)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sad_volume(a, b, 16, seed, seed, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1_000_000


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
