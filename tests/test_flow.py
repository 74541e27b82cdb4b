"""Tests for block-matching flow against a per-block loop reference,
and for stacked calls against per-pair calls."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from synthstab import estimator, flow, generate, stabilizer
from synthstab.errors import FrameMismatchError
from synthstab.flow import (
    QUALITY_MAX_SAD_PER_PIXEL,
    TEXTURE_MIN_RANGE,
    _build_pyramid,
    compute_flow,
    stack_frames,
)
from synthstab.generate import GenerateConfig
from synthstab.kernels import INVALID_SAD, sad_volume

# ---------------------------------------------------------------------------
# Loop reference: one block at a time, as flow was first written
# ---------------------------------------------------------------------------


def match_level_reference(
    a, b, block_size, radius, seed_du, seed_dv, subpixel, max_sad_per_pixel
):
    nby, nbx = seed_du.shape
    vol = sad_volume(a, b, block_size, seed_du, seed_dv, radius)
    k = 2 * radius + 1
    u = np.zeros((nby, nbx), dtype=np.float64)
    v = np.zeros((nby, nbx), dtype=np.float64)
    valid = np.zeros((nby, nbx), dtype=bool)
    area = block_size * block_size
    for by in range(nby):
        for bx in range(nbx):
            blk = a[
                by * block_size : (by + 1) * block_size,
                bx * block_size : (bx + 1) * block_size,
            ]
            if int(blk.max()) - int(blk.min()) < TEXTURE_MIN_RANGE:
                continue
            win = vol[by, bx]
            flat = int(np.argmin(win))
            best = int(win.flat[flat])
            if best >= INVALID_SAD:
                continue
            if best > max_sad_per_pixel * area:
                continue
            j, i = divmod(flat, k)
            du = float(seed_du[by, bx] + i - radius)
            dv = float(seed_dv[by, bx] + j - radius)
            if subpixel and best > 0:
                if i == 0 or i == k - 1 or j == 0 or j == k - 1:
                    continue
                mx = bx * block_size + int(du)
                my = by * block_size + int(dv)
                if (
                    mx <= 0
                    or my <= 0
                    or mx + block_size >= b.shape[1]
                    or my + block_size >= b.shape[0]
                ):
                    continue
                if 0 < i < k - 1:
                    left = win[j, i - 1]
                    right = win[j, i + 1]
                    if left < INVALID_SAD and right < INVALID_SAD:
                        denom = float(left) - 2.0 * best + float(right)
                        if denom > 0:
                            du += float(
                                np.clip(0.5 * (float(left) - float(right)) / denom, -0.5, 0.5)
                            )
                if 0 < j < k - 1:
                    up = win[j - 1, i]
                    down = win[j + 1, i]
                    if up < INVALID_SAD and down < INVALID_SAD:
                        denom = float(up) - 2.0 * best + float(down)
                        if denom > 0:
                            dv += float(
                                np.clip(0.5 * (float(up) - float(down)) / denom, -0.5, 0.5)
                            )
            u[by, bx] = du
            v[by, bx] = dv
            valid[by, bx] = True
    return u, v, valid


def compute_flow_reference(
    frame_a,
    frame_b,
    block_size=16,
    search_radius=4,
    levels=3,
    max_sad_per_pixel=QUALITY_MAX_SAD_PER_PIXEL,
):
    pyr_a, sizes = _build_pyramid(np.asarray(frame_a), levels, block_size)
    pyr_b, _ = _build_pyramid(np.asarray(frame_b), levels, block_size)
    u = v = valid = None
    for level in range(len(pyr_a) - 1, -1, -1):
        a, b, bs = pyr_a[level], pyr_b[level], sizes[level]
        nby, nbx = a.shape[0] // bs, a.shape[1] // bs
        seed_du = np.zeros((nby, nbx), dtype=np.int64)
        seed_dv = np.zeros((nby, nbx), dtype=np.int64)
        if u is not None:
            cby, cbx = u.shape
            for by in range(nby):
                for bx in range(nbx):
                    sy = min(by * cby // nby, cby - 1)
                    sx = min(bx * cbx // nbx, cbx - 1)
                    if valid[sy, sx]:
                        seed_du[by, bx] = int(round(2.0 * u[sy, sx]))
                        seed_dv[by, bx] = int(round(2.0 * v[sy, sx]))
        u, v, valid = match_level_reference(
            a,
            b,
            bs,
            search_radius,
            seed_du,
            seed_dv,
            level == 0,
            max_sad_per_pixel,
        )
    return u, v, valid


# ---------------------------------------------------------------------------
# Seeded rendered pairs
# ---------------------------------------------------------------------------


def _clip(layers: int, style: str, frames: int = 6):
    cfg = GenerateConfig(
        n_videos=1,
        n_frames=frames,
        width=128,
        height=128,
        seed=11 + layers,
        n_layers=layers,
        texture_style=style,
    )
    return generate.make_video(cfg, 0)


def _consecutive(layers: int, style: str):
    frames = _clip(layers, style).frames
    return [(a, b, {}) for a, b in zip(frames[:-1], frames[1:])]


def _crop_vs_stabilized():
    clip = _clip(1, "mixed")
    est, _ = estimator.estimate_sequence(clip.frames, "oracle", marks=clip.marks)
    res = stabilizer.stabilize_video(clip.frames, est)
    pairs = []
    for orig, stab in zip(clip.frames, res.frames):
        h, w = stab.shape
        y0 = (orig.shape[0] - h) // 2
        x0 = (orig.shape[1] - w) // 2
        crop = orig[y0 : y0 + h, x0 : x0 + w]
        pairs.append((crop, stab, {"max_sad_per_pixel": 120.0}))
    return pairs


def _random_pairs():
    return [(s.frame_a, s.frame_b, {}) for s in generate.sample_random_pairs(8, side=64, seed=5)]


PAIR_KINDS = {
    "one_layer_mixed": lambda: _consecutive(1, "mixed"),
    "two_layer_random": lambda: _consecutive(2, "random"),
    "crop_vs_stabilized": _crop_vs_stabilized,
    "random_pairs_64": _random_pairs,
}


@pytest.mark.parametrize("kind", sorted(PAIR_KINDS))
def test_compute_flow_matches_loop_reference(kind):
    n_valid = 0
    for a, b, kwargs in PAIR_KINDS[kind]():
        got = compute_flow(a, b, **kwargs)
        want = compute_flow_reference(a, b, **kwargs)
        for arr, ref in zip((got.u, got.v, got.valid), want):
            assert arr.dtype == ref.dtype
            np.testing.assert_array_equal(arr, ref)
        n_valid += int(got.valid.sum())
    # The pairs must exercise the matching, not only the rejections.
    assert n_valid > 0


@pytest.mark.parametrize("dx, dy", [(3, -2), (-5, 1), (0, 7), (8, -6)])
def test_compute_flow_recovers_known_shift(dx, dy):
    rng = np.random.default_rng(abs(dx * 31 + dy))
    tex = gaussian_filter(rng.normal(size=(128, 128)), 2.0)
    a = np.round(255.0 * (tex - tex.min()) / (tex.max() - tex.min())).astype(np.uint8)
    b = np.roll(a, (dy, dx), axis=(0, 1))
    # Two levels: shifts beyond the search radius need the coarse seed.
    # (At three levels, 4 px blocks on the 32 px top level can settle on
    # a false match that seeds the finer levels away from the shift.)
    flow = compute_flow(a, b, levels=2)
    # Interior blocks: the shifted block stays inside b, where it is an
    # exact copy of the block in a.
    bs = flow.block_size
    nby, nbx = flow.u.shape
    ys = np.arange(nby) * bs + dy
    xs = np.arange(nbx) * bs + dx
    interior = ((ys >= 0) & (ys + bs <= 128))[:, None] & ((xs >= 0) & (xs + bs <= 128))[None, :]
    assert interior.sum() >= 36
    assert flow.valid[interior].all()
    assert (flow.u[interior] == dx).all()
    assert (flow.v[interior] == dy).all()


# ---------------------------------------------------------------------------
# Stacked pairs against one call per pair
# ---------------------------------------------------------------------------


def _assert_stack_matches_pairs(pairs):
    """One stacked call equals a 2-D call per pair, bit for bit."""
    kwargs = pairs[0][2]
    got = compute_flow(
        stack_frames([a for a, _, _ in pairs]), stack_frames([b for _, b, _ in pairs]), **kwargs
    )
    assert got.u.shape[0] == len(pairs)
    for p, (a, b, _) in enumerate(pairs):
        one = compute_flow(a, b, **kwargs)
        mine = got.pair(p)
        for arr, ref in zip((mine.u, mine.v, mine.valid), (one.u, one.v, one.valid)):
            assert arr.dtype == ref.dtype
            np.testing.assert_array_equal(arr, ref)
    return got


@pytest.mark.parametrize("kind", sorted(PAIR_KINDS))
def test_stacked_flow_matches_per_pair_calls(kind):
    pairs = PAIR_KINDS[kind]()
    got = _assert_stack_matches_pairs(pairs)
    assert got.valid.any()
    # The block grid of the stabilized 102 px frames leaves 6 px of pad
    # in each frame's row stride.
    h = pairs[0][0].shape[0]
    assert (kind == "crop_vs_stabilized") == (h % got.block_size != 0)


def test_stacked_flow_splits_pairs_over_sad_calls(monkeypatch):
    pairs = _consecutive(2, "random") + _consecutive(1, "mixed")
    pairs_per_call = {}
    real = flow.sad_volume

    def counted(a, b, block, seed_du, seed_dv, radius):
        # Every level of a 128 px frame is 8 blocks tall.
        assert a.ndim == 2 and a.shape[0] % (8 * block) == 0
        pairs_per_call.setdefault(block, []).append(a.shape[0] // (8 * block))
        return real(a, b, block, seed_du, seed_dv, radius)

    monkeypatch.setattr(flow, "sad_volume", counted)
    compute_flow(stack_frames([a for a, _, _ in pairs]), stack_frames([b for _, b, _ in pairs]))
    monkeypatch.undo()
    # One pair per call at 16 px blocks; the pairs of the 8 px level
    # fill more than one call.
    assert pairs_per_call == {4: [10], 8: [6, 4], 16: [1] * 10}
    _assert_stack_matches_pairs(pairs)


def test_stacked_flow_with_a_flat_frame_matches_per_pair_calls():
    frames = list(_clip(1, "mixed", frames=8).frames)
    frames[3] = np.full_like(frames[3], 128)
    pairs = [(a, b, {}) for a, b in zip(frames[:-1], frames[1:])]
    got = _assert_stack_matches_pairs(pairs)
    assert not got.valid[2].any() and not got.valid[3].any()
    assert got.valid[[0, 1, 4, 5, 6]].any(axis=(1, 2)).all()


def test_two_dimensional_input_gives_two_dimensional_field():
    a, b, _ = _consecutive(1, "mixed")[0]
    one = compute_flow(a, b)
    stacked = compute_flow(a[None], b[None])
    assert one.u.shape == one.valid.shape == (8, 8)
    assert stacked.u.shape == (1, 8, 8)
    np.testing.assert_array_equal(one.block_centers(), stacked.block_centers())
    np.testing.assert_array_equal(one.u, stacked.pair(0).u)


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [
        ((3, 64, 64), (2, 64, 64)),
        ((64, 64), (1, 64, 64)),
        ((2, 64, 64), (2, 64, 48)),
        ((1, 2, 64, 64), (1, 2, 64, 64)),
        ((0, 64, 64), (0, 64, 64)),
        ((2, 12, 64), (2, 12, 64)),
    ],
)
def test_mismatched_flow_inputs_raise(shape_a, shape_b):
    with pytest.raises(FrameMismatchError):
        compute_flow(np.zeros(shape_a, np.uint8), np.zeros(shape_b, np.uint8))


def test_stack_frames_needs_one_two_dimensional_shape():
    with pytest.raises(FrameMismatchError):
        stack_frames([np.zeros((8, 8)), np.zeros((8, 9))])
    with pytest.raises(FrameMismatchError):
        stack_frames([np.zeros((2, 8, 8))])
    with pytest.raises(FrameMismatchError):
        stack_frames([])
    assert stack_frames([np.zeros((8, 9))] * 3).shape == (3, 8, 9)
