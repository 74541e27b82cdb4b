"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``perfbench/run.py --trace 1``
times each one at its call sites.

``bilinear_sample`` is the one bilinear interpolation body: it
evaluates one floating-point expression tree per sample position, and
``affine_bilinear`` only builds those positions from a 2x3 matrix.  The
SAD kernel works in integers, with the block index on the contiguous
axis of its temporaries so that numpy's inner loops run across blocks.
It sums block rows in int16, which no 8-bit difference can overflow
within 128 rows, so that the row additions run over whole contiguous
rows of the temporary without a cast; only the much smaller row sums
are widened to int64.  Both kernels are therefore exact against their
brute-force loop oracles, not merely close.

Both kernels gather pixels with one ``take(..., mode="clip")`` on the
flattened image per gather, with no clamped row and column indices.
An index that falls outside the image, or wraps into a neighbouring
row, belongs only to results the kernel discards: sample positions
outside the texture, whose value is then set to 0, and SAD offsets
whose block leaves the frame, which are set to ``INVALID_SAD``.  The
sampler evaluates its interpolation in place in the gathered tap
arrays, one rounding per operation as written, so the bits match an
out-of-place evaluation of the same expression.

The convolution kernels match loop oracles only to rounding error.  The
forward pass is one ``einsum``.  The backward pass lowers each gradient
to one matrix product over gathered columns and passes BLAS the same
operands, in the same memory layout, as ``einsum(..., optimize=True)``
does for that contraction, so its gradients are bit-identical to the
einsum form, which ``tests/test_cnn.py`` keeps as the reference.
"""

from __future__ import annotations

import numpy as np

# Sentinel SAD for displacements whose block leaves the image.
INVALID_SAD = np.int64(2) ** 62
# Block rows per int16 partial SAD sum: 128 * 255 = 32640 <= 32767.
SAD_ROW_CHUNK = 128


# ---------------------------------------------------------------------------
# Affine bilinear sampling
# ---------------------------------------------------------------------------


def bilinear_sample(tex, sx, sy):
    """Sample ``tex`` bilinearly at texture coordinates ``(sx, sy)``.

    ``sx`` and ``sy`` are float64 arrays that broadcast to one shape,
    of any number of dimensions.  Returns ``(out, inside)`` of that
    shape, where ``inside`` marks positions within the texture;
    outside positions are 0.
    """
    tex = np.ascontiguousarray(tex, dtype=np.float64)
    th, tw = tex.shape
    inside = (sx >= 0.0) & (sx <= tw - 1.0) & (sy >= 0.0) & (sy <= th - 1.0)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    xi0 = x0.astype(np.int64)
    yi0 = y0.astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    # Flat index of each tap; the right and lower neighbours clamp to
    # the last column and row by adding 0 there.  Only outside
    # positions, zeroed below, index out of the texture.
    i00 = yi0 * tw + xi0
    dx = xi0 < tw - 1
    i10 = i00 + (yi0 < th - 1) * tw
    flat = tex.ravel()
    t00 = flat.take(i00, mode="clip")
    t01 = flat.take(i00 + dx, mode="clip")
    t10 = flat.take(i10, mode="clip")
    t11 = flat.take(i10 + dx, mode="clip")
    # (t00*(1-fx) + t01*fx)*(1-fy) + (t10*(1-fx) + t11*fx)*fy, in place.
    gx = 1.0 - fx
    t00 *= gx
    t01 *= fx
    t00 += t01
    t10 *= gx
    t11 *= fx
    t10 += t11
    t00 *= 1.0 - fy
    t10 *= fy
    t00 += t10
    out = np.asarray(t00)  # 0-d coordinates give numpy scalars
    out[np.logical_not(inside)] = 0.0
    return out, inside


def affine_bilinear(tex, matrix, out_h, out_w):
    """Sample ``tex`` at affinely mapped output-pixel positions.

    ``matrix`` is a 2x3 array mapping output pixel (x, y) to texture
    coordinates.  Returns ``(out, inside)`` where ``inside`` marks
    output pixels whose sample position lies within the texture;
    outside pixels are 0.
    """
    m = np.asarray(matrix, dtype=np.float64)
    ys = np.arange(out_h, dtype=np.float64)[:, None]
    xs = np.arange(out_w, dtype=np.float64)
    sx = m[0, 0] * xs + m[0, 1] * ys + m[0, 2]
    sy = m[1, 0] * xs + m[1, 1] * ys + m[1, 2]
    return bilinear_sample(tex, sx, sy)


# ---------------------------------------------------------------------------
# Block-matching SAD search volume
# ---------------------------------------------------------------------------


def sad_volume(a, b, block, seed_du, seed_dv, radius):
    """Integer SAD over a search window around per-block seed offsets.

    ``a`` and ``b`` are int16 images of equal shape.  Block (by, bx)
    covers ``a[by*block:(by+1)*block, bx*block:(bx+1)*block]``; entry
    ``vol[by, bx, j, i]`` is its SAD against ``b`` displaced by
    ``(seed + (i - radius, j - radius))``.  Displacements that push the
    block outside ``b`` hold ``INVALID_SAD``.  The result is a
    C-contiguous int64 array of shape ``(nby, nbx, k, k)``, with
    ``k = 2*radius + 1``.

    Pixel values must lie in 0..255 (8-bit frames): differences are
    taken in int16, through a temporary of ``k*k*block*block*nby*nbx``
    int16 entries.  Its memory does not grow with the seed magnitude.
    The flat block index ``by*nbx + bx`` is the last, contiguous axis
    of every temporary, so each elementwise pass and each addition of
    the reduction runs over all blocks at once rather than over the
    pixels of one block row.

    The search windows are gathered by flat index into ``b`` with one
    ``take(..., mode="clip")``.  A window entry outside the frame then
    reads some in-frame pixel instead: the wrapped-around pixel of a
    neighbouring row, or the first or last pixel of ``b``.  That value
    is still in 0..255, and only offsets whose block leaves the frame
    cover such an entry; their SADs are overwritten with
    ``INVALID_SAD``, so no output depends on what was read.

    The reduction sums the block rows first, in int16: each row
    addition then spans ``block * nby*nbx`` contiguous entries and
    needs no cast, where an int64 sum casts every difference through
    numpy's buffered loop.  Each absolute difference is at most 255,
    so a sum of up to ``SAD_ROW_CHUNK = 128`` rows is at most 32640
    and fits in int16.  Taller blocks are summed in chunks of 128 rows
    whose column sums are added in int64, so the one path is exact for
    every block size.
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
    # Gather each block's (k-1+block)^2 search window, laid out as
    # (row, col, block), by flat index into b; entries outside the
    # frame belong to offsets overwritten below.
    span = np.arange(k - 1 + block)[:, None]
    rows = (ty.ravel() + span) * w
    cols = tx.ravel() + span
    win = b.ravel().take(rows[:, None] + cols[None, :], mode="clip")
    cand = np.lib.stride_tricks.sliding_window_view(win, (block, block), axis=(0, 1))
    cand = cand.transpose(0, 1, 3, 4, 2)
    blk = a[: nby * block, : nbx * block].reshape(nby, block, nbx, block)
    blk = blk.transpose(1, 3, 0, 2).reshape(block, block, nby * nbx)
    diff = cand - blk
    np.abs(diff, out=diff)
    # Rows in int16 within each chunk, then columns and chunks in int64.
    sad = sum(
        diff[:, :, r : r + SAD_ROW_CHUNK].sum(axis=2, dtype=np.int16).sum(axis=2, dtype=np.int64)
        for r in range(0, block, SAD_ROW_CHUNK)
    ).reshape(k, k, nby, nbx)
    vol = np.ascontiguousarray(sad.transpose(2, 3, 0, 1))
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


def conv2d_weight_grads(xp, dy, kh, kw, stride):
    """Gradients of :func:`conv2d_forward` w.r.t. weights and bias.

    ``cols[n, ho, wo, c, ky, kx]`` holds the input under each kernel tap,
    gathered per sample by one ``take``, so ``dw`` is one
    ``(f, n*ho*wo) @ (n*ho*wo, c*kh*kw)`` product.
    """
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    stride = int(stride)
    n, c, hp, wp = xp.shape
    f, ho, wo = dy.shape[1:]
    db = dy.sum(axis=(0, 2, 3))
    # Offset within one sample of xp of each (ho, wo, c, ky, kx) entry.
    tap = (np.arange(c)[:, None, None] * hp + np.arange(kh)[:, None]) * wp + np.arange(kw)
    corner = (stride * np.arange(ho))[:, None] * wp + stride * np.arange(wo)
    idx = (corner[:, :, None, None, None] + tap).ravel()
    cols = np.take(xp.reshape(n, -1), idx, axis=1).reshape(n * ho * wo, c * kh * kw)
    dw = dy.transpose(1, 0, 2, 3).reshape(f, n * ho * wo) @ cols
    return dw.reshape(f, c, kh, kw), db


def conv2d_backward(xp, w, dy, stride):
    """Gradients of :func:`conv2d_forward` w.r.t. input, weights, bias.

    ``dcols[n, ho, wo, c, ky, kx]`` is one ``(n*ho*wo, f) @ (f, c*kh*kw)``
    product; each tap's slice is added into an ``(n, Hp, Wp, c)``
    accumulator, returned as an ``(n, c, Hp, Wp)`` view.
    """
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    stride = int(stride)
    f, c, kh, kw = w.shape
    n, _, hp, wp = xp.shape
    ho, wo = dy.shape[2:]
    dw, db = conv2d_weight_grads(xp, dy, kh, kw, stride)
    dy_t = dy.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
    dcols = (dy_t @ w.reshape(f, c * kh * kw)).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros((n, hp, wp, c))
    for ky in range(kh):
        for kx in range(kw):
            dxp[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride] += dcols[
                ..., ky, kx
            ]
    return dxp.transpose(0, 3, 1, 2), dw, db


def backend_name() -> str:
    """Name of the kernel path, always ``"numpy"``.

    Kept because the benchmark's run record (``perfbench/run.py``)
    reports it on its ``record:`` line.
    """
    return "numpy"
