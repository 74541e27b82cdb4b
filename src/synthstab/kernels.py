"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``perfbench/run.py --trace 1``
times each one at its call sites.

The affine-sampling kernel evaluates one floating-point expression tree
per pixel and the SAD kernel works in integers, so both are exact
against their brute-force loop oracles, not merely close.  The
convolution kernels accumulate with einsum, so they match loop oracles
only to rounding error.
"""

from __future__ import annotations

import numpy as np

# Sentinel SAD for displacements whose block leaves the image.
INVALID_SAD = np.int64(2) ** 62


# ---------------------------------------------------------------------------
# Affine bilinear sampling
# ---------------------------------------------------------------------------


def affine_bilinear(tex, matrix, out_h, out_w):
    """Sample ``tex`` at affinely mapped output-pixel positions.

    ``matrix`` is a 2x3 array mapping output pixel (x, y) to texture
    coordinates.  Returns ``(out, inside)`` where ``inside`` marks
    output pixels whose sample position lies within the texture;
    outside pixels are 0.
    """
    tex = np.ascontiguousarray(tex, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    th, tw = tex.shape
    ys, xs = np.meshgrid(
        np.arange(out_h, dtype=np.float64),
        np.arange(out_w, dtype=np.float64),
        indexing="ij",
    )
    sx = m[0, 0] * xs + m[0, 1] * ys + m[0, 2]
    sy = m[1, 0] * xs + m[1, 1] * ys + m[1, 2]
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


# ---------------------------------------------------------------------------
# Block-matching SAD search volume
# ---------------------------------------------------------------------------


def sad_volume(a, b, block, seed_du, seed_dv, radius):
    """Integer SAD over a search window around per-block seed offsets.

    ``a`` and ``b`` are int16 images of equal shape.  Block (by, bx)
    covers ``a[by*block:(by+1)*block, bx*block:(bx+1)*block]``; entry
    ``vol[by, bx, j, i]`` is its SAD against ``b`` displaced by
    ``(seed + (i - radius, j - radius))``.  Displacements that push the
    block outside ``b`` hold ``INVALID_SAD``.

    Pixel values must lie in 0..255 (8-bit frames): differences are
    taken in int16, through a temporary of ``nby*nbx*k*k*block*block``
    int16 entries, with ``k = 2*radius + 1``.  Its memory does not grow
    with the seed magnitude.
    """
    a = np.ascontiguousarray(a, dtype=np.int16)
    b = np.ascontiguousarray(b, dtype=np.int16)
    seed_du = np.ascontiguousarray(seed_du, dtype=np.int64)
    seed_dv = np.ascontiguousarray(seed_dv, dtype=np.int64)
    block = int(block)
    radius = int(radius)
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


# ---------------------------------------------------------------------------
# Strided 2D convolution (forward and backward)
# ---------------------------------------------------------------------------


def conv2d_forward(xp, w, b, stride):
    """Convolve pre-padded ``xp`` (N, C, Hp, Wp) with ``w`` (F, C, kh, kw)."""
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    stride = int(stride)
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    y = np.einsum("nchwij,fcij->nfhw", win, w, optimize=True)
    return y + b[None, :, None, None]


def conv2d_backward(xp, w, dy, stride):
    """Gradients of :func:`conv2d_forward` w.r.t. input, weights, bias."""
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    stride = int(stride)
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


def backend_name() -> str:
    """Name of the kernel path, always ``"numpy"``.

    Kept because the benchmark's run record (``perfbench/run.py``)
    reports it on its ``record:`` line.
    """
    return "numpy"
