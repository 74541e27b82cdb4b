"""Brute-force kernel references and computed operation counts.

The references evaluate, one pixel or one block at a time in plain
Python, the same arithmetic the kernels promise: integer sums for SAD
and the kernel's floating-point expression tree for bilinear sampling.
Their results must be bit-identical to the kernels'.

The operation counts are derived from call shapes alone, never from
timing, so they repeat exactly for a given input.
"""

from __future__ import annotations

import math

import numpy as np


def sad_offsets_in_bounds(shape, block, seed_du, seed_dv, radius) -> np.ndarray:
    """Bool (nby, nbx, k, k): which candidate blocks lie inside ``b``."""
    h, w = shape
    nby, nbx = np.shape(seed_du)
    k = 2 * radius + 1
    offs = np.arange(k) - radius
    y0 = (np.arange(nby) * block)[:, None, None]
    x0 = (np.arange(nbx) * block)[None, :, None]
    ty = y0 + np.asarray(seed_dv)[:, :, None] + offs
    tx = x0 + np.asarray(seed_du)[:, :, None] + offs
    oky = (ty >= 0) & (ty + block <= h)
    okx = (tx >= 0) & (tx + block <= w)
    return oky[:, :, :, None] & okx[:, :, None, :]


def sad_absdiffs(shape, block, seed_du, seed_dv, radius) -> int:
    """Absolute differences a SAD volume needs: in-bounds candidates x block^2."""
    ok = sad_offsets_in_bounds(shape, block, seed_du, seed_dv, radius)
    return int(ok.sum()) * block * block


def sad_entry(a, b, block, by, bx, du, dv) -> int:
    """SAD of block (by, bx) of ``a`` against ``b`` displaced by (du, dv)."""
    y0, x0 = by * block, bx * block
    acc = 0
    for yy in range(block):
        ra = a[y0 + yy]
        rb = b[y0 + dv + yy]
        for xx in range(block):
            acc += abs(int(ra[x0 + xx]) - int(rb[x0 + du + xx]))
    return acc


def check_sad_volume(args, vol, invalid, rng, n_entries=48) -> list[str]:
    """Compare a captured ``sad_volume`` call with the reference.

    The in-bounds pattern is checked for every entry and the SAD value
    for ``n_entries`` sampled in-bounds entries.
    """
    a, b, block, seed_du, seed_dv, radius = args
    a = np.asarray(a, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16)
    seed_du = np.asarray(seed_du, dtype=np.int64)
    seed_dv = np.asarray(seed_dv, dtype=np.int64)
    ok = sad_offsets_in_bounds(a.shape, block, seed_du, seed_dv, radius)
    errors = []
    if vol.shape != ok.shape:
        return [f"sad_volume shape {vol.shape}, expected {ok.shape}"]
    if not np.array_equal(vol == invalid, ~ok):
        errors.append("sad_volume invalid-entry pattern differs from the bounds")
    idx = np.argwhere(ok)
    if len(idx) == 0:
        return errors
    pick = idx[rng.choice(len(idx), size=min(n_entries, len(idx)), replace=False)]
    al, bl = a.tolist(), b.tolist()
    for by, bx, j, i in pick.tolist():
        du = int(seed_du[by, bx]) + i - radius
        dv = int(seed_dv[by, bx]) + j - radius
        ref = sad_entry(al, bl, block, by, bx, du, dv)
        if int(vol[by, bx, j, i]) != ref:
            errors.append(
                f"sad_volume[{by},{bx},{j},{i}] = {int(vol[by, bx, j, i])}, reference {ref}"
            )
    return errors


def affine_bilinear_ref(tex, matrix, out_h, out_w) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel bilinear sampling with the kernel's expression tree."""
    tex = np.asarray(tex, dtype=np.float64)
    th, tw = tex.shape
    t = tex.tolist()
    m = np.asarray(matrix, dtype=np.float64)
    m00, m01, m02 = (float(v) for v in m[0])
    m10, m11, m12 = (float(v) for v in m[1])
    out = np.zeros((out_h, out_w))
    inside = np.zeros((out_h, out_w), dtype=bool)
    for y in range(out_h):
        yf = float(y)
        for x in range(out_w):
            xf = float(x)
            sx = m00 * xf + m01 * yf + m02
            sy = m10 * xf + m11 * yf + m12
            if sx < 0.0 or sx > tw - 1.0 or sy < 0.0 or sy > th - 1.0:
                continue
            x0 = math.floor(sx)
            y0 = math.floor(sy)
            fx = sx - x0
            fy = sy - y0
            xi1 = min(x0 + 1, tw - 1)
            yi1 = min(y0 + 1, th - 1)
            r0, r1 = t[y0], t[yi1]
            out[y, x] = (r0[x0] * (1.0 - fx) + r0[xi1] * fx) * (1.0 - fy) + (
                r1[x0] * (1.0 - fx) + r1[xi1] * fx
            ) * fy
            inside[y, x] = True
    return out, inside


def check_affine_bilinear(args, result) -> list[str]:
    """Compare a captured ``affine_bilinear`` call with the reference, bitwise."""
    tex, matrix, out_h, out_w = args
    out, inside = result
    ref_out, ref_inside = affine_bilinear_ref(tex, matrix, out_h, out_w)
    errors = []
    if not np.array_equal(inside, ref_inside):
        errors.append(f"affine_bilinear inside mask differs ({out_h}x{out_w})")
    # Compare bit patterns so -0.0 vs 0.0 or NaN payloads cannot hide.
    if out.shape != ref_out.shape or not np.array_equal(
        np.asarray(out, dtype=np.float64).view(np.int64), ref_out.view(np.int64)
    ):
        errors.append(f"affine_bilinear values differ from reference ({out_h}x{out_w})")
    return errors


def conv_macs(xp_shape, w_shape, stride) -> int:
    """Multiply-accumulates of one strided forward convolution."""
    n, c, hp, wp = xp_shape
    f, _, kh, kw = w_shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    return n * f * ho * wo * c * kh * kw
