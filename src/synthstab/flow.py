"""Block-matching optical flow with a coarse-to-fine pyramid.

Frames are compared block by block with integer SAD; each level seeds
the next finer one, and only the finest level adds parabolic subpixel
refinement.  Flat blocks and matches with a high residual are marked
invalid rather than reported as motion.

``compute_flow`` takes one frame pair or a ``(P, h, w)`` stack of
pairs, such as the consecutive pairs of a clip, and runs every level
over the whole stack, so numpy's per-call set-up is paid once per
level instead of once per pair.  The SAD search itself stays the 2-D
kernel ``kernels.sad_volume``: the frames of a level are laid out as
one tall image, each padded to a whole number of block rows, and the
kernel runs on row slices of it.  The benchmark's SAD counter and its
bitwise re-check of sampled kernel calls take 2-D frames, so a 2-D
kernel keeps both working.  Candidates that leave their own frame's
rows read a neighbouring frame of the tall image and are marked
invalid afterwards, so every pair's flow is bit-identical to a call on
that pair alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError, InvalidSpecError
from .kernels import INVALID_SAD, sad_volume

TEXTURE_MIN_RANGE = 8
QUALITY_MAX_SAD_PER_PIXEL = 40.0
# Cap on the int16 difference temporary of one sad_volume call, in
# entries (4 MB): one 128x128 pair at 16 px blocks, 6-25 pairs at the
# coarser levels.  Larger calls run slower, out of cache.
SAD_CALL_ENTRIES = 2 * 1024 * 1024


@dataclass(frozen=True)
class FlowField:
    """Per-block displacements from frame A to frame B.

    ``u``/``v`` hold the horizontal/vertical motion of each block in
    pixels; ``valid`` is False where no trustworthy match was found.
    Each is ``(nby, nbx)`` for one pair, or ``(P, nby, nbx)`` for a
    stack of pairs, whose pair ``p`` is :meth:`pair`.
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray
    block_size: int

    def block_centers(self) -> np.ndarray:
        """(nby*nbx, 2) array of block-center (x, y) image coordinates."""
        nby, nbx = self.u.shape[-2:]
        half = (self.block_size - 1) / 2.0
        xs = np.arange(nbx) * self.block_size + half
        ys = np.arange(nby) * self.block_size + half
        gx, gy = np.meshgrid(xs, ys)
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    def pair(self, p: int) -> FlowField:
        """The 2-D flow field of pair ``p`` of a stack."""
        return FlowField(self.u[p], self.v[p], self.valid[p], self.block_size)


def stack_frames(frames: list[np.ndarray]) -> np.ndarray:
    """``(P, h, w)`` stack of 2-D frames that share one shape."""
    shapes = sorted({np.shape(f) for f in frames})
    if len(shapes) != 1 or len(shapes[0]) != 2:
        raise FrameMismatchError(f"frames must share one 2D shape, got {shapes}")
    return np.stack(frames)


def _downsample(img: np.ndarray) -> np.ndarray:
    """2x2 integer mean with round-half-up over the last two axes."""
    h, w = img.shape[-2:]
    h2, w2 = h // 2, w // 2
    a = img[..., : 2 * h2, : 2 * w2].astype(np.int32)
    s = a[..., 0::2, 0::2] + a[..., 0::2, 1::2] + a[..., 1::2, 0::2] + a[..., 1::2, 1::2]
    return ((s + 2) // 4).astype(np.int16)


def _build_pyramid(
    img: np.ndarray, levels: int, block_size: int
) -> tuple[list[np.ndarray], list[int]]:
    """Image pyramid, of one frame or a stack, with the block size
    halved per level (floor 4).

    Shrinking the blocks with the images keeps a full grid of interior
    blocks at the coarse levels; a constant block size would leave one
    corner-pinned block that cannot see off-frame displacements.
    """
    pyr = [np.ascontiguousarray(img, dtype=np.int16)]
    sizes = [block_size]
    for _ in range(1, levels):
        prev = pyr[-1]
        nxt = max(4, sizes[-1] // 2)
        if min(prev.shape[-2:]) // 2 < nxt:
            break
        pyr.append(_downsample(prev))
        sizes.append(nxt)
    return pyr, sizes


def _parabolic_step(
    d: np.ndarray, lo: np.ndarray, best: np.ndarray, hi: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Shift ``d`` to the vertex of the parabola through (lo, best, hi).

    Applied where ``mask`` holds; the step is clipped to half a pixel.
    The caller masks out window-edge minima and matches whose block
    touches the frame border, so both neighbours are in-frame SADs
    there.  The parabola always opens upward: ``best`` is the first
    minimum, so ``lo`` lies strictly above it and ``hi`` not below.
    """
    lo_f = lo.astype(np.float64)
    hi_f = hi.astype(np.float64)
    denom = lo_f - 2.0 * best + hi_f
    offset = np.divide(0.5 * (lo_f - hi_f), denom, out=np.zeros_like(d), where=mask)
    return np.where(mask, d + np.clip(offset, -0.5, 0.5), d)


def _sad_stack(
    a: np.ndarray,
    b: np.ndarray,
    block: int,
    seed_du: np.ndarray,
    seed_dv: np.ndarray,
    radius: int,
) -> np.ndarray:
    """``sad_volume`` of every pair of a ``(P, h, w)`` stack, as
    ``(P, nby, nbx, k, k)``, through row slices of one tall image.

    Each frame is padded to whole block rows (the volume of a partial
    block row is dropped), and each kernel call takes as many pairs as
    fit under ``SAD_CALL_ENTRIES``.
    """
    p, h, w = a.shape
    nby, nbx = seed_du.shape[1:]
    rows = -(-h // block)
    stride = rows * block
    frame_pad = ((0, 0), (0, stride - h), (0, 0))
    seed_pad = ((0, 0), (0, rows - nby), (0, 0))
    tall_a = np.pad(a, frame_pad).reshape(p * stride, w)
    tall_b = np.pad(b, frame_pad).reshape(p * stride, w)
    du = np.pad(seed_du, seed_pad).reshape(p * rows, nbx)
    dv = np.pad(seed_dv, seed_pad).reshape(p * rows, nbx)
    k = 2 * radius + 1
    chunk = max(1, SAD_CALL_ENTRIES // (k * k * block * block * rows * nbx))
    vols = []
    for first in range(0, p, chunk):
        px = slice(first * stride, (first + chunk) * stride)
        cells = slice(first * rows, (first + chunk) * rows)
        vols.append(sad_volume(tall_a[px], tall_b[px], block, du[cells], dv[cells], radius))
    vol = np.concatenate(vols).reshape(p, rows, nbx, k, k)[:, :nby]
    ys = ((np.arange(nby) * block)[:, None] + seed_dv - radius)[..., None] + np.arange(k)
    leaves = (ys < 0) | (ys + block > h)
    vol[np.broadcast_to(leaves[..., None], vol.shape)] = INVALID_SAD
    return vol


def _match_level(
    a: np.ndarray,
    b: np.ndarray,
    block_size: int,
    radius: int,
    seed_du: np.ndarray,
    seed_dv: np.ndarray,
    subpixel: bool,
    max_sad_per_pixel: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best match of every block of a ``(P, h, w)`` stack of pairs."""
    p, nby, nbx = seed_du.shape
    h, w = a.shape[1:]
    vol = _sad_stack(a, b, block_size, seed_du, seed_dv, radius)
    k = 2 * radius + 1
    area = block_size * block_size
    blocks = a[:, : nby * block_size, : nbx * block_size].reshape(
        p, nby, block_size, nbx, block_size
    )
    texture = blocks.max(axis=(2, 4)).astype(np.int64) - blocks.min(axis=(2, 4))
    win = vol.reshape(p, nby, nbx, k * k)
    flat = win.argmin(axis=3)

    def at(idx: np.ndarray) -> np.ndarray:
        idx = np.clip(idx, 0, k * k - 1)
        return np.take_along_axis(win, idx[..., None], axis=3)[..., 0]

    best = at(flat)
    valid = (
        (texture >= TEXTURE_MIN_RANGE)
        & (best < INVALID_SAD)
        & ~(best > max_sad_per_pixel * area)
    )
    j, i = np.divmod(flat, k)
    du_int = seed_du + i - radius
    dv_int = seed_dv + j - radius
    du = du_int.astype(np.float64)
    dv = dv_int.astype(np.float64)
    if subpixel:
        refine = valid & (best > 0)
        # An inexact minimum on the window edge cannot be bracketed, and
        # one whose matched region touches the frame border is usually a
        # clamped version of a match that left the frame; both read as
        # biased motion.
        mx = np.arange(nbx) * block_size + du_int
        my = np.arange(nby)[:, None] * block_size + dv_int
        reject = (
            (i == 0)
            | (i == k - 1)
            | (j == 0)
            | (j == k - 1)
            | (mx <= 0)
            | (my <= 0)
            | (mx + block_size >= w)
            | (my + block_size >= h)
        )
        valid &= ~(refine & reject)
        refine &= ~reject
        best_f = best.astype(np.float64)
        du = _parabolic_step(du, at(flat - 1), best_f, at(flat + 1), refine)
        dv = _parabolic_step(dv, at(flat - k), best_f, at(flat + k), refine)
    u = np.where(valid, du, 0.0)
    v = np.where(valid, dv, 0.0)
    return u, v, valid


def compute_flow(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    block_size: int = 16,
    search_radius: int = 4,
    levels: int = 3,
    max_sad_per_pixel: float = QUALITY_MAX_SAD_PER_PIXEL,
) -> FlowField:
    """Estimate per-block motion from ``frame_a`` to ``frame_b``.

    The frames are ``(h, w)`` arrays, or ``(P, h, w)`` stacks of P
    pairs; the flow field has the same leading axis.  Each pair's flow
    is bit-identical to a call on that pair alone.

    ``max_sad_per_pixel`` may be raised when the two frames differ in
    sharpness (one resampled, one not), where even perfect matches
    carry a large residual; callers doing so must filter matches
    themselves.
    """
    fa = np.asarray(frame_a)
    fb = np.asarray(frame_b)
    if fa.ndim not in (2, 3) or fb.ndim not in (2, 3):
        raise FrameMismatchError(
            "flow inputs must be 2D grayscale frames or (pairs, h, w) stacks"
        )
    if fa.shape != fb.shape:
        raise FrameMismatchError(
            f"frame shapes differ: {fa.shape} vs {fb.shape}"
        )
    if block_size < 4:
        raise InvalidSpecError("block_size must be at least 4")
    if search_radius < 1:
        raise InvalidSpecError("search_radius must be at least 1")
    if levels < 1:
        raise InvalidSpecError("levels must be at least 1")
    if min(fa.shape[-2:]) < block_size:
        raise FrameMismatchError(
            f"frames of shape {fa.shape[-2:]} are smaller than one {block_size}px block"
        )
    if fa.ndim == 3 and len(fa) == 0:
        raise FrameMismatchError("flow input stacks hold no frame pair")
    pyr_a, sizes = _build_pyramid(fa.reshape(-1, *fa.shape[-2:]), levels, block_size)
    pyr_b, _ = _build_pyramid(fb.reshape(-1, *fb.shape[-2:]), levels, block_size)
    p = pyr_a[0].shape[0]

    u = v = valid = None
    for level in range(len(pyr_a) - 1, -1, -1):
        a = pyr_a[level]
        b = pyr_b[level]
        bs = sizes[level]
        nby = a.shape[1] // bs
        nbx = a.shape[2] // bs
        if u is not None:
            cby, cbx = u.shape[1:]
            sy = np.minimum(np.arange(nby) * cby // nby, cby - 1)
            sx = np.minimum(np.arange(nbx) * cbx // nbx, cbx - 1)
            cell = (slice(None), sy[:, None], sx)
            # Coarse levels have no subpixel step, so u and v are integers.
            seed_du = np.where(valid[cell], 2.0 * u[cell], 0.0).astype(np.int64)
            seed_dv = np.where(valid[cell], 2.0 * v[cell], 0.0).astype(np.int64)
        else:
            seed_du = np.zeros((p, nby, nbx), dtype=np.int64)
            seed_dv = np.zeros((p, nby, nbx), dtype=np.int64)
        u, v, valid = _match_level(
            a,
            b,
            bs,
            search_radius,
            seed_du,
            seed_dv,
            subpixel=(level == 0),
            max_sad_per_pixel=max_sad_per_pixel,
        )
    flow = FlowField(u=u, v=v, valid=valid, block_size=block_size)
    return flow if fa.ndim == 3 else flow.pair(0)


def flow_to_dense(flow: FlowField, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-block expansion of the flow to a per-pixel (u, v) pair."""
    nby, nbx = flow.u.shape
    bs = flow.block_size
    u = np.zeros((height, width), dtype=np.float64)
    v = np.zeros((height, width), dtype=np.float64)
    ys = np.minimum(np.arange(height) // bs, nby - 1)
    xs = np.minimum(np.arange(width) // bs, nbx - 1)
    u[:, :] = flow.u[np.ix_(ys, xs)]
    v[:, :] = flow.v[np.ix_(ys, xs)]
    return u, v
