"""Block-matching optical flow with a coarse-to-fine pyramid.

Frames are compared block by block with integer SAD; each level seeds
the next finer one, and only the finest level adds parabolic subpixel
refinement.  Flat blocks and matches with a high residual are marked
invalid rather than reported as motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameMismatchError, InvalidSpecError
from .kernels import INVALID_SAD, sad_volume

TEXTURE_MIN_RANGE = 8
QUALITY_MAX_SAD_PER_PIXEL = 40.0


@dataclass(frozen=True)
class FlowField:
    """Per-block displacements from frame A to frame B.

    ``u``/``v`` hold the horizontal/vertical motion of each block in
    pixels; ``valid`` is False where no trustworthy match was found.
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray
    block_size: int

    def block_centers(self) -> np.ndarray:
        """(nby*nbx, 2) array of block-center (x, y) image coordinates."""
        nby, nbx = self.u.shape
        half = (self.block_size - 1) / 2.0
        xs = np.arange(nbx) * self.block_size + half
        ys = np.arange(nby) * self.block_size + half
        gx, gy = np.meshgrid(xs, ys)
        return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _downsample(img: np.ndarray) -> np.ndarray:
    """2x2 integer mean with round-half-up; deterministic on int paths."""
    h, w = img.shape
    h2, w2 = h // 2, w // 2
    a = img[: 2 * h2, : 2 * w2].astype(np.int32)
    s = a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]
    return ((s + 2) // 4).astype(np.int16)


def _build_pyramid(
    img: np.ndarray, levels: int, block_size: int
) -> tuple[list[np.ndarray], list[int]]:
    """Image pyramid with the block size halved per level (floor 4).

    Shrinking the blocks with the images keeps a full grid of interior
    blocks at the coarse levels; a constant block size would leave one
    corner-pinned block that cannot see off-frame displacements.
    """
    pyr = [np.ascontiguousarray(img, dtype=np.int16)]
    sizes = [block_size]
    for _ in range(1, levels):
        prev = pyr[-1]
        nxt = max(4, sizes[-1] // 2)
        if min(prev.shape) // 2 < nxt:
            break
        pyr.append(_downsample(prev))
        sizes.append(nxt)
    return pyr, sizes


def _parabolic_step(
    d: np.ndarray, lo: np.ndarray, best: np.ndarray, hi: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Shift ``d`` to the vertex of the parabola through (lo, best, hi).

    Applied where ``mask`` holds, both neighbours are in-frame SADs and
    the parabola opens upward; the step is clipped to half a pixel.
    """
    lo_f = lo.astype(np.float64)
    hi_f = hi.astype(np.float64)
    denom = lo_f - 2.0 * best + hi_f
    step = mask & (lo < INVALID_SAD) & (hi < INVALID_SAD) & (denom > 0)
    offset = np.divide(0.5 * (lo_f - hi_f), denom, out=np.zeros_like(d), where=step)
    return np.where(step, d + np.clip(offset, -0.5, 0.5), d)


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
    nby, nbx = seed_du.shape
    vol = sad_volume(a, b, block_size, seed_du, seed_dv, radius)
    k = 2 * radius + 1
    area = block_size * block_size
    blocks = a[: nby * block_size, : nbx * block_size].reshape(
        nby, block_size, nbx, block_size
    )
    texture = blocks.max(axis=(1, 3)).astype(np.int64) - blocks.min(axis=(1, 3))
    win = vol.reshape(nby, nbx, k * k)
    flat = win.argmin(axis=2)

    def at(idx: np.ndarray) -> np.ndarray:
        idx = np.clip(idx, 0, k * k - 1)
        return np.take_along_axis(win, idx[:, :, None], axis=2)[:, :, 0]

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
        mx = np.arange(nbx)[None, :] * block_size + du_int
        my = np.arange(nby)[:, None] * block_size + dv_int
        reject = (
            (i == 0)
            | (i == k - 1)
            | (j == 0)
            | (j == k - 1)
            | (mx <= 0)
            | (my <= 0)
            | (mx + block_size >= b.shape[1])
            | (my + block_size >= b.shape[0])
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

    ``max_sad_per_pixel`` may be raised when the two frames differ in
    sharpness (one resampled, one not), where even perfect matches
    carry a large residual; callers doing so must filter matches
    themselves.
    """
    fa = np.asarray(frame_a)
    fb = np.asarray(frame_b)
    if fa.ndim != 2 or fb.ndim != 2:
        raise FrameMismatchError("flow inputs must be 2D grayscale frames")
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
    if min(fa.shape) < block_size:
        raise FrameMismatchError(
            f"frames of shape {fa.shape} are smaller than one {block_size}px block"
        )
    pyr_a, sizes = _build_pyramid(fa, levels, block_size)
    pyr_b, _ = _build_pyramid(fb, levels, block_size)
    n_levels = len(pyr_a)

    u = v = valid = None
    for level in range(n_levels - 1, -1, -1):
        a = pyr_a[level]
        b = pyr_b[level]
        bs = sizes[level]
        nby = a.shape[0] // bs
        nbx = a.shape[1] // bs
        if u is not None:
            cby, cbx = u.shape
            sy = np.minimum(np.arange(nby) * cby // nby, cby - 1)
            sx = np.minimum(np.arange(nbx) * cbx // nbx, cbx - 1)
            cell = np.ix_(sy, sx)
            # np.round, like Python's round, breaks ties to even.
            seed_du = np.where(valid[cell], np.round(2.0 * u[cell]), 0.0).astype(np.int64)
            seed_dv = np.where(valid[cell], np.round(2.0 * v[cell]), 0.0).astype(np.int64)
        else:
            seed_du = np.zeros((nby, nbx), dtype=np.int64)
            seed_dv = np.zeros((nby, nbx), dtype=np.int64)
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
    return FlowField(u=u, v=v, valid=valid, block_size=block_size)


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
