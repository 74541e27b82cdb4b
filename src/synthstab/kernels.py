"""Hot numeric kernels, vectorized with numpy.

Each kernel has one implementation.  ``perfbench/run.py --trace 1``
times each one at its call sites.

``bilinear_sample`` is the one bilinear interpolation body: it
evaluates one floating-point expression tree per sample position, and
``affine_bilinear`` only builds those positions from a 2x3 matrix.  The
SAD kernel works in integers, with the block index on the contiguous
axis of its temporaries so that numpy's inner loops run across blocks.
It streams over the block rows: each row's absolute differences for
every offset and block go into one reused int16 buffer and are added
into a second, so no temporary holds the differences of a whole block.
No 8-bit difference sum can overflow int16 within 128 rows, so the
additions need no cast; the per-column sums are taken in int32, and
only then added into the int64 volume.
Both kernels are therefore exact against their brute-force loop
oracles, not merely close.

Both kernels gather pixels with one ``take(..., mode="clip")`` on the
flattened image per gather, with no clamped row and column indices.
An index that falls outside the image, or wraps into a neighbouring
row, belongs only to results the kernel discards: sample positions
outside the texture, whose value is then set to 0, and SAD offsets
whose block leaves the frame, which are set to ``INVALID_SAD``.  The
sampler evaluates its interpolation in place in the gathered tap
arrays, one rounding per operation as written, so the bits match an
out-of-place evaluation of the same expression.

The convolution kernels match loop oracles only to rounding error.
Each lowers its contraction to one matrix product over gathered columns
and passes BLAS the same operands, in the same memory layout, as
``einsum(..., optimize=True)`` does, because at small sizes BLAS picks
its kernel by layout.  So the outputs are bit-identical to the einsum
form, which ``tests/test_cnn.py`` keeps as the reference.

Layout contract.  Arrays are NCHW-shaped at every interface, but their
memory need not be C-contiguous:

- ``conv2d_forward`` returns a view of (F, N, Ho, Wo) memory, the
  layout of its ``(F, C*kh*kw) @ (C*kh*kw, N*Ho*Wo)`` product;
- the backward kernels read ``dy`` as a view of any layout.  The weight
  product takes it in (F, N, Ho, Wo) memory and the input-gradient
  product in channels-last (N, Ho, Wo, F) memory; a kernel copies
  ``dy`` only into the layouts it is not already in (``cnn`` forms it
  in (F, N, Ho, Wo) memory, so only the channels-last copy happens);
- ``conv2d_backward`` returns ``dxp`` as a view of channels-last
  (N, Hp, Wp, C) memory.

Fixed reduction orders.  ``db`` is a pairwise sum over each sample's
Ho*Wo entries followed by a sequential sum over the samples, the order
``dy.sum(axis=(0, 2, 3))`` takes on C-contiguous ``dy``, whatever
layout ``dy`` arrives in.  Each ``dxp`` entry adds its taps in
(ky, kx) order to zero.

Scratch memory.  The convolution kernels take optional keyword-only
flat float64 arrays (``cols``, ``out``, ``dy_rows``, ``dxp``) at
least as long as the intermediates they hold.  A kernel overwrites
them and may return views of them, so a result lives only until the
caller reuses its scratch; without them it allocates.
``dy_rows`` and ``dxp`` may be one array: ``conv2d_backward`` reads
the channels-last copy of ``dy`` only to form ``dcols``, before it
zeroes ``dxp``.  ``cnn.Workspace`` owns these arrays during training.
"""

from __future__ import annotations

import math

import numpy as np

# Sentinel SAD for displacements whose block leaves the image.
INVALID_SAD = np.int64(2) ** 62
# Block rows per int16 partial SAD sum: 128 * 255 = 32640 <= 32767.
SAD_ROW_CHUNK = 128
# dcols entries (1 MB) per sample group of the conv input-gradient sum.
COL2IM_CHUNK = 1 << 17


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

    Pixel values must lie in 0..255 (8-bit frames).  The search windows
    are gathered by flat index into ``b`` with one
    ``take(..., mode="clip")``.  A window entry outside the frame then
    reads some in-frame pixel instead: the wrapped-around pixel of a
    neighbouring row, or the first or last pixel of ``b``.  That value
    is still in 0..255, and only offsets whose block leaves the frame
    cover such an entry; their SADs are overwritten with
    ``INVALID_SAD``, so no output depends on what was read.

    The reduction streams over the block rows.  For row ``r``, the
    differences of every offset, column and block are written to ``d``
    by ``np.subtract(cand[:, :, r], blk[r], out=d)``, made absolute in
    place and added into ``acc``.  With ``n = nby*nbx`` and ``s =
    k-1+block``, the temporaries are:

    - the gathered windows, ``s*s*n`` int16 entries, and their flat
      indices, ``s*s*n`` int64 entries;
    - ``d`` and ``acc``, ``k*k*block*n`` int16 entries each (165 kB at
      one 128x128 frame, 16 px blocks, radius 4);
    - the column sums, ``k*k*n`` int32 entries, and the int64 volume.

    None of them grows with the seed magnitude, and none holds the
    ``k*k*block*block*n`` differences of whole blocks at once.  The flat
    block index is the last, contiguous axis of each, so every pass
    runs over all blocks at once.

    ``acc`` cannot overflow: each difference lies in -255..255, and its
    absolute value is at most 255, so a column sum of up to
    ``SAD_ROW_CHUNK = 128`` rows is at most 32640 <= 32767.  Every 128
    rows, ``acc``'s column sums are taken in int32, where each is at
    most ``block * 32640`` (exact below 65,000 px blocks), added into
    the int64 result, and the next row overwrites ``acc``; so the one
    path is exact for every block size the frames can hold.
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
    # Rows in int16 within each chunk, columns in int32, chunks in int64.
    # The first row of a chunk is written straight into acc.
    acc = np.empty((k, k, block, nby * nbx), dtype=np.int16)
    d = np.empty_like(acc)
    sad = np.zeros((k, k, nby * nbx), dtype=np.int64)
    for r in range(block):
        first = r % SAD_ROW_CHUNK == 0
        dst = acc if first else d
        np.subtract(cand[:, :, r], blk[r], out=dst)
        np.abs(dst, out=dst)
        if not first:
            acc += d
        if r % SAD_ROW_CHUNK == SAD_ROW_CHUNK - 1 or r == block - 1:
            sad += np.add.reduce(acc, axis=2, dtype=np.int32)
    vol = np.ascontiguousarray(sad.reshape(k, k, nby, nbx).transpose(2, 3, 0, 1))
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


def _scratch(buf, shape):
    """A C-contiguous ``shape`` view of the leading entries of the flat
    float64 ``buf``, or a new array when ``buf`` is None."""
    if buf is None:
        return np.empty(shape)
    return buf[: math.prod(shape)].reshape(shape)


def conv2d_forward(xp, w, b, stride, *, cols=None, out=None):
    """Convolve pre-padded ``xp`` (N, C, Hp, Wp) with ``w`` (F, C, kh, kw).

    Returns the (N, F, Ho, Wo) output as a view of (F, N, Ho, Wo) memory:
    ``cols[c, ky, kx, n, ho, wo]`` gathers the input under each tap, and
    the output is one ``(F, C*kh*kw) @ (C*kh*kw, N*Ho*Wo)`` product, the
    operands ``einsum("nchwij,fcij->nfhw", optimize=True)`` hands BLAS.
    ``cols`` and ``out`` are optional flat scratch arrays for the
    columns and the output.
    """
    xp = np.asarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    stride = int(stride)
    n, c = xp.shape[:2]
    f, _, kh, kw = w.shape
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    ho, wo = win.shape[2:4]
    k = c * kh * kw
    if ho == wo == 1 and n > 1:
        # einsum sums the size-1 output axes away, which leaves the
        # columns in (N, C*kh*kw) memory, and BLAS reads them transposed.
        taps = _scratch(cols, (n, c, kh, kw))
        np.copyto(taps, win[:, :, 0, 0])
        rhs = taps.reshape(n, k).T
    else:
        taps = _scratch(cols, (c, kh, kw, n, ho, wo))
        np.copyto(taps, win.transpose(1, 4, 5, 0, 2, 3))
        rhs = taps.reshape(k, n * ho * wo)
    y = _scratch(out, (f, n * ho * wo))
    np.matmul(w.reshape(f, k), rhs, out=y)
    y += b[:, None]
    return y.reshape(f, n, ho, wo).transpose(1, 0, 2, 3)


def _in_layout(a, axes, buf):
    """``a.transpose(axes)`` as a C-contiguous array: a view when its
    memory already has that layout, else a copy into scratch ``buf``
    (a new array when ``buf`` is None)."""
    t = a.transpose(axes)
    if t.flags.c_contiguous:
        return t
    out = _scratch(buf, t.shape)
    np.copyto(out, t)
    return out


def conv2d_weight_grads(xp, dy, kh, kw, stride, *, cols=None):
    """Gradients of :func:`conv2d_forward` w.r.t. weights and bias.

    ``cols[n, ho, wo, c, ky, kx]`` holds the input under each kernel tap,
    gathered per sample by one ``take``, so ``dw`` is one
    ``(F, N*Ho*Wo) @ (N*Ho*Wo, C*kh*kw)`` product whose left operand is
    ``dy`` in (F, N, Ho, Wo) memory: a view when ``dy`` is one, else a
    copy.  ``cols`` is an optional flat scratch array.
    """
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    stride = int(stride)
    n, c, hp, wp = xp.shape
    f, ho, wo = dy.shape[1:]
    dyf = _in_layout(dy, (1, 0, 2, 3), None)
    # Pairwise over each sample's Ho*Wo, then in sample order: the
    # order of dy.sum(axis=(0, 2, 3)) on C-contiguous dy.
    db = np.ascontiguousarray(dyf.reshape(f, n, ho * wo).sum(axis=2).T).sum(axis=0)
    # Offset within one sample of xp of each (ho, wo, c, ky, kx) entry.
    tap = (np.arange(c)[:, None, None] * hp + np.arange(kh)[:, None]) * wp + np.arange(kw)
    corner = (stride * np.arange(ho))[:, None] * wp + stride * np.arange(wo)
    idx = (corner[:, :, None, None, None] + tap).ravel()
    taps = _scratch(cols, (n, idx.size))
    np.take(xp.reshape(n, -1), idx, axis=1, out=taps, mode="clip")
    dw = dyf.reshape(f, n * ho * wo) @ taps.reshape(n * ho * wo, c * kh * kw)
    return dw.reshape(f, c, kh, kw), db


def conv2d_backward(xp, w, dy, stride, *, cols=None, dy_rows=None, dxp=None):
    """Gradients of :func:`conv2d_forward` w.r.t. input, weights, bias.

    ``dcols[n, ho, wo, c, ky, kx]`` is one ``(N*Ho*Wo, F) @ (F, C*kh*kw)``
    product whose left operand is ``dy`` in channels-last memory: a view
    when ``dy`` is one, else a copy into ``dy_rows``.  Each tap's slice
    is added into an ``(N, Hp, Wp, C)`` accumulator, a few samples at a
    time so that the nine strided passes over ``dcols`` stay in cache,
    and the accumulator is returned as an ``(N, C, Hp, Wp)`` view.
    ``dcols`` reuses ``cols`` once ``dw`` is formed; ``cols``,
    ``dy_rows`` and ``dxp`` are optional flat scratch arrays.
    """
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    stride = int(stride)
    f, c, kh, kw = w.shape
    n, _, hp, wp = xp.shape
    ho, wo = dy.shape[2:]
    dw, db = conv2d_weight_grads(xp, dy, kh, kw, stride, cols=cols)
    rows = _in_layout(dy, (0, 2, 3, 1), dy_rows).reshape(n * ho * wo, f)
    dcols = _scratch(cols, (n * ho * wo, c * kh * kw))
    np.matmul(rows, w.reshape(f, c * kh * kw), out=dcols)
    dcols = dcols.reshape(n, ho, wo, c, kh, kw)
    acc = _scratch(dxp, (n, hp, wp, c))
    acc.fill(0.0)
    group = max(1, COL2IM_CHUNK // (ho * wo * c * kh * kw))
    for s in range(0, n, group):
        part, src = acc[s : s + group], dcols[s : s + group]
        for ky in range(kh):
            for kx in range(kw):
                part[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride] += src[
                    ..., ky, kx
                ]
    return acc.transpose(0, 3, 1, 2), dw, db


def backend_name() -> str:
    """Name of the kernel path, always ``"numpy"``.

    Kept because the benchmark's run record (``perfbench/run.py``)
    reports it on its ``record:`` line.
    """
    return "numpy"
