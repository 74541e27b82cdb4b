"""Hot numeric kernels with numba and pure-numpy implementations.

Every kernel here exists twice: an explicit-loop version compiled with
``numba.njit`` and a vectorized numpy version.  The public wrappers pick
one at import time: numba when it is installed and the environment
variable ``SYNTHSTAB_NO_NUMBA`` is unset (or "0"), numpy otherwise.
Both variants of each kernel are kept importable so tests can assert
they agree; ``perfbench/run.py --trace 1`` times the active path at
each call site.

The affine-sampling and SAD kernels are written so both paths evaluate
the same floating-point expression tree per pixel (integer arithmetic
for SAD), which makes their outputs bit-identical, not merely close.
The convolution kernels accumulate in different orders (explicit loops
vs. einsum), so those agree only to rounding error.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("SYNTHSTAB_NO_NUMBA", "").strip()
NUMBA_DISABLED_BY_ENV = _flag not in ("", "0")

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap


USE_NUMBA = NUMBA_AVAILABLE and not NUMBA_DISABLED_BY_ENV

# Sentinel SAD for displacements whose block leaves the image.
INVALID_SAD = np.int64(2) ** 62


# ---------------------------------------------------------------------------
# Affine bilinear sampling
# ---------------------------------------------------------------------------


def _affine_bilinear_np(tex, m00, m01, m02, m10, m11, m12, out_h, out_w):
    th, tw = tex.shape
    ys, xs = np.meshgrid(
        np.arange(out_h, dtype=np.float64),
        np.arange(out_w, dtype=np.float64),
        indexing="ij",
    )
    sx = m00 * xs + m01 * ys + m02
    sy = m10 * xs + m11 * ys + m12
    inside = (sx >= 0.0) & (sx <= tw - 1.0) & (sy >= 0.0) & (sy <= th - 1.0)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    xi0 = np.clip(x0.astype(np.int64), 0, tw - 1)
    yi0 = np.clip(y0.astype(np.int64), 0, th - 1)
    xi1 = np.minimum(xi0 + 1, tw - 1)
    yi1 = np.minimum(yi0 + 1, th - 1)
    t00 = tex[yi0, xi0]
    t01 = tex[yi0, xi1]
    t10 = tex[yi1, xi0]
    t11 = tex[yi1, xi1]
    val = (t00 * (1.0 - fx) + t01 * fx) * (1.0 - fy) + (
        t10 * (1.0 - fx) + t11 * fx
    ) * fy
    out = np.where(inside, val, 0.0)
    return out, inside


@njit(cache=True)
def _affine_bilinear_nb(tex, m00, m01, m02, m10, m11, m12, out_h, out_w):
    th, tw = tex.shape
    out = np.zeros((out_h, out_w), np.float64)
    inside = np.zeros((out_h, out_w), np.bool_)
    for y in range(out_h):
        yf = float(y)
        for x in range(out_w):
            xf = float(x)
            sx = m00 * xf + m01 * yf + m02
            sy = m10 * xf + m11 * yf + m12
            if sx < 0.0 or sx > tw - 1.0 or sy < 0.0 or sy > th - 1.0:
                continue
            x0 = np.floor(sx)
            y0 = np.floor(sy)
            fx = sx - x0
            fy = sy - y0
            xi0 = int(x0)
            yi0 = int(y0)
            xi1 = min(xi0 + 1, tw - 1)
            yi1 = min(yi0 + 1, th - 1)
            t00 = tex[yi0, xi0]
            t01 = tex[yi0, xi1]
            t10 = tex[yi1, xi0]
            t11 = tex[yi1, xi1]
            out[y, x] = (t00 * (1.0 - fx) + t01 * fx) * (1.0 - fy) + (
                t10 * (1.0 - fx) + t11 * fx
            ) * fy
            inside[y, x] = True
    return out, inside


def affine_bilinear(tex, matrix, out_h, out_w):
    """Sample ``tex`` at affinely mapped output-pixel positions.

    ``matrix`` is a 2x3 array mapping output pixel (x, y) to texture
    coordinates.  Returns ``(out, inside)`` where ``inside`` marks
    output pixels whose sample position lies within the texture;
    outside pixels are 0.
    """
    tex = np.ascontiguousarray(tex, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    impl = _affine_bilinear_nb if USE_NUMBA else _affine_bilinear_np
    return impl(
        tex, m[0, 0], m[0, 1], m[0, 2], m[1, 0], m[1, 1], m[1, 2], out_h, out_w
    )


# ---------------------------------------------------------------------------
# Block-matching SAD search volume
# ---------------------------------------------------------------------------


def _sad_volume_np(a, b, block, seed_du, seed_dv, radius):
    h, w = a.shape
    nby, nbx = seed_du.shape
    k = 2 * radius + 1
    # Top-left corner in b of each block displaced by seed - radius.
    ty = (np.arange(nby) * block)[:, None] + seed_dv - radius
    tx = (np.arange(nbx) * block)[None, :] + seed_du - radius
    # Gather each block's (k-1+block)^2 search window with the indices
    # clamped into the frame; entries that read clamped pixels belong to
    # out-of-frame offsets and are overwritten below.
    span = np.arange(k - 1 + block)
    rows = np.clip(ty[:, :, None] + span, 0, h - 1)
    cols = np.clip(tx[:, :, None] + span, 0, w - 1)
    win = b[rows[:, :, :, None], cols[:, :, None, :]]
    cand = np.lib.stride_tricks.sliding_window_view(win, (block, block), axis=(2, 3))
    blk = a[: nby * block, : nbx * block].reshape(nby, block, nbx, block).swapaxes(1, 2)
    diff = cand - blk[:, :, None, None]
    np.abs(diff, out=diff)
    vol = diff.sum(axis=(4, 5), dtype=np.int64)
    off = np.arange(k)
    ys = ty[:, :, None] + off
    xs = tx[:, :, None] + off
    inside_y = (ys >= 0) & (ys + block <= h)
    inside_x = (xs >= 0) & (xs + block <= w)
    vol[~(inside_y[:, :, :, None] & inside_x[:, :, None, :])] = INVALID_SAD
    return vol


@njit(cache=True)
def _sad_volume_nb(a, b, block, seed_du, seed_dv, radius):
    h, w = a.shape
    nby, nbx = seed_du.shape
    k = 2 * radius + 1
    vol = np.full((nby, nbx, k, k), INVALID_SAD, dtype=np.int64)
    for by in range(nby):
        for bx in range(nbx):
            y0 = by * block
            x0 = bx * block
            for j in range(k):
                dv = seed_dv[by, bx] + j - radius
                ty = y0 + dv
                if ty < 0 or ty + block > h:
                    continue
                for i in range(k):
                    du = seed_du[by, bx] + i - radius
                    tx = x0 + du
                    if tx < 0 or tx + block > w:
                        continue
                    acc = np.int64(0)
                    for yy in range(block):
                        for xx in range(block):
                            d = np.int64(a[y0 + yy, x0 + xx]) - np.int64(
                                b[ty + yy, tx + xx]
                            )
                            if d < 0:
                                d = -d
                            acc += d
                    vol[by, bx, j, i] = acc
    return vol


def sad_volume(a, b, block, seed_du, seed_dv, radius):
    """Integer SAD over a search window around per-block seed offsets.

    ``a`` and ``b`` are int16 images of equal shape.  Block (by, bx)
    covers ``a[by*block:(by+1)*block, bx*block:(bx+1)*block]``; entry
    ``vol[by, bx, j, i]`` is its SAD against ``b`` displaced by
    ``(seed + (i - radius, j - radius))``.  Displacements that push the
    block outside ``b`` hold ``INVALID_SAD``.  Exact in both paths.

    Pixel values must lie in 0..255 (8-bit frames): the numpy path takes
    differences in int16, through a temporary of ``nby*nbx*k*k*block*block``
    int16 entries, with ``k = 2*radius + 1``.  Its memory does not grow
    with the seed magnitude.
    """
    a = np.ascontiguousarray(a, dtype=np.int16)
    b = np.ascontiguousarray(b, dtype=np.int16)
    seed_du = np.ascontiguousarray(seed_du, dtype=np.int64)
    seed_dv = np.ascontiguousarray(seed_dv, dtype=np.int64)
    impl = _sad_volume_nb if USE_NUMBA else _sad_volume_np
    return impl(a, b, int(block), seed_du, seed_dv, int(radius))


# ---------------------------------------------------------------------------
# Strided 2D convolution (forward and backward)
# ---------------------------------------------------------------------------


def _conv2d_forward_np(xp, w, b, stride):
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    y = np.einsum("nchwij,fcij->nfhw", win, w, optimize=True)
    return y + b[None, :, None, None]


@njit(cache=True)
def _conv2d_forward_nb(xp, w, b, stride):
    n, c, hp, wp = xp.shape
    f = w.shape[0]
    kh, kw = w.shape[2], w.shape[3]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    y = np.empty((n, f, ho, wo), np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(ho):
                for ox in range(wo):
                    acc = b[fi]
                    iy = oy * stride
                    ix = ox * stride
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += w[fi, ci, ky, kx] * xp[ni, ci, iy + ky, ix + kx]
                    y[ni, fi, oy, ox] = acc
    return y


def conv2d_forward(xp, w, b, stride):
    """Convolve pre-padded ``xp`` (N, C, Hp, Wp) with ``w`` (F, C, kh, kw)."""
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    impl = _conv2d_forward_nb if USE_NUMBA else _conv2d_forward_np
    return impl(xp, w, b, int(stride))


def _conv2d_backward_np(xp, w, dy, stride):
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    db = dy.sum(axis=(0, 2, 3))
    dw = np.einsum("nchwij,nfhw->fcij", win, dy, optimize=True)
    dcols = np.einsum("fcij,nfhw->nchwij", w, dy, optimize=True)
    dxp = np.zeros_like(xp)
    ho, wo = dy.shape[2], dy.shape[3]
    for ky in range(kh):
        for kx in range(kw):
            dxp[:, :, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride] += dcols[
                :, :, :, :, ky, kx
            ]
    return dxp, dw, db


@njit(cache=True)
def _conv2d_backward_nb(xp, w, dy, stride):
    n, c, hp, wp = xp.shape
    f = w.shape[0]
    kh, kw = w.shape[2], w.shape[3]
    ho, wo = dy.shape[2], dy.shape[3]
    dxp = np.zeros((n, c, hp, wp), np.float64)
    dw = np.zeros((f, c, kh, kw), np.float64)
    db = np.zeros(f, np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(ho):
                for ox in range(wo):
                    g = dy[ni, fi, oy, ox]
                    db[fi] += g
                    iy = oy * stride
                    ix = ox * stride
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                dxp[ni, ci, iy + ky, ix + kx] += w[fi, ci, ky, kx] * g
                                dw[fi, ci, ky, kx] += xp[ni, ci, iy + ky, ix + kx] * g
    return dxp, dw, db


def conv2d_backward(xp, w, dy, stride):
    """Gradients of :func:`conv2d_forward` w.r.t. input, weights, bias."""
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    impl = _conv2d_backward_nb if USE_NUMBA else _conv2d_backward_np
    return impl(xp, w, dy, int(stride))


def backend_name() -> str:
    """Human-readable name of the active kernel path."""
    return "numba" if USE_NUMBA else "numpy"
