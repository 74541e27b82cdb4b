"""Tests for the metrics module: refinement, sampling and cropping."""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from synthstab import estimator, metrics, stabilizer
from synthstab.affine import AffineParams
from synthstab.errors import MeasurementError
from synthstab.generate import GenerateConfig, make_video
from synthstab.kernels import affine_bilinear, bilinear_sample

BS = 16

# ---------------------------------------------------------------------------
# Loop reference: one cell at a time, as the refinement was first written
# ---------------------------------------------------------------------------


def refine_reference(frame_a, frame_b, src, dst, block_size, iterations=4):
    tpl_frame = np.asarray(frame_a, dtype=np.float64)
    tgt = np.asarray(frame_b, dtype=np.float64)
    bs = block_size
    half = (bs - 1) / 2.0
    kept_src = []
    kept_dst = []
    for (cx, cy), (px, py) in zip(src, dst):
        x0 = int(round(cx - half))
        y0 = int(round(cy - half))
        tpl = tpl_frame[y0 : y0 + bs, x0 : x0 + bs]
        gy, gx = np.gradient(tpl)
        gxx = float((gx * gx).sum())
        gxy = float((gx * gy).sum())
        gyy = float((gy * gy).sum())
        det = gxx * gyy - gxy * gxy
        if det < 1e-8:
            continue
        u = float(px - cx)
        v = float(py - cy)
        ok = True
        for _ in range(iterations):
            patch, inside = affine_bilinear(
                tgt, np.array([[1.0, 0.0, x0 + u], [0.0, 1.0, y0 + v]]), bs, bs
            )
            if not inside.all() or patch.min() < 4.0:
                ok = False
                break
            err = patch - tpl
            ex = float((gx * err).sum())
            ey = float((gy * err).sum())
            du = -(gyy * ex - gxy * ey) / det
            dv = -(gxx * ey - gxy * ex) / det
            u += du
            v += dv
            if abs(du) < 1e-3 and abs(dv) < 1e-3:
                break
        if not ok:
            continue
        if abs(u - float(px - cx)) > 1.5 or abs(v - float(py - cy)) > 1.5:
            continue
        kept_src.append((float(cx), float(cy)))
        kept_dst.append((float(cx) + u, float(cy) + v))
    if len(kept_src) < 4:
        raise MeasurementError(f"only {len(kept_src)} cells survive photometric refinement")
    return np.asarray(kept_src), np.asarray(kept_dst)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MeasurementError as exc:
        return str(exc)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# Batched refinement against the loop, on oracle-stabilized clips
# ---------------------------------------------------------------------------


def _oracle_stabilized(layers, style, crop_ratio=0.8):
    cfg = GenerateConfig(
        n_videos=1, n_frames=12, width=128, height=128, seed=5, n_layers=layers, texture_style=style
    )
    clip = make_video(cfg, 0)
    est, _ = estimator.estimate_sequence(clip.frames, "oracle", marks=clip.marks)
    return clip, stabilizer.stabilize_video(clip.frames, est, crop_ratio=crop_ratio)


@pytest.mark.parametrize("layers, style", [(1, "mixed"), (2, "random")])
def test_refinement_matches_loop_on_stabilized_clips(layers, style):
    clip, res = _oracle_stabilized(layers, style)
    refined = 0
    for orig, stab in zip(clip.frames, res.frames):
        cropped = metrics._center_crop(orig, *stab.shape)
        flow = metrics.compute_flow(cropped, stab, max_sad_per_pixel=120.0)
        assert flow.block_size == BS
        src, dst = metrics._flow_correspondences(flow)
        want = _outcome(refine_reference, cropped, stab, src, dst, BS)
        got = _outcome(metrics._refine_correspondences, cropped, stab, src, dst, BS)
        _assert_same(got, want)
        refined += not isinstance(want, str)
    assert refined >= len(clip.frames) - 1


# ---------------------------------------------------------------------------
# Hand-built cases: one per reason a cell is dropped
# ---------------------------------------------------------------------------

SHIFT = (3.0, 2.0)


def _textured_pair():
    """A smooth texture and a copy moved by the integer ``SHIFT``."""
    rng = np.random.default_rng(0)
    tex = gaussian_filter(rng.normal(size=(96, 96)), 3.0)
    tex = 30.0 + 190.0 * (tex - tex.min()) / (tex.max() - tex.min())
    frame_a = np.rint(tex).astype(np.uint8)
    frame_b = np.roll(frame_a, (int(SHIFT[1]), int(SHIFT[0])), axis=(0, 1))
    return frame_a, frame_b


def _grid(cells):
    half = (BS - 1) / 2.0
    src = np.array([(bx * BS + half, by * BS + half) for bx, by in cells], dtype=np.float64)
    return src, src + np.array(SHIFT)


INTERIOR = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3)]


def _refine_both(frame_a, frame_b, src, dst):
    want = _outcome(refine_reference, frame_a, frame_b, src, dst, BS)
    # A dropped cell must not reach the update step: no 0/0 steps.
    with np.errstate(divide="raise", invalid="raise"):
        got = _outcome(metrics._refine_correspondences, frame_a, frame_b, src, dst, BS)
    _assert_same(got, want)
    return got


def test_exact_seeds_are_kept_unchanged():
    frame_a, frame_b = _textured_pair()
    src, dst = _grid(INTERIOR)
    kept_src, kept_dst = _refine_both(frame_a, frame_b, src, dst)
    assert np.array_equal(kept_src, src)
    assert np.allclose(kept_dst, dst, atol=1e-6)


def _drops(frame_a, frame_b, src, dst, dropped):
    kept_src, _ = _refine_both(frame_a, frame_b, src, dst)
    expected = np.delete(src, dropped, axis=0)
    assert np.array_equal(kept_src, expected)


def test_flat_template_is_dropped():
    frame_a, frame_b = _textured_pair()
    frame_a[BS : 2 * BS, BS : 2 * BS] = 100
    src, dst = _grid(INTERIOR)
    _drops(frame_a, frame_b, src, dst, [0])


def test_patch_leaving_the_frame_is_dropped():
    frame_a, frame_b = _textured_pair()
    src, dst = _grid(INTERIOR + [(0, 1)])
    dst[-1, 0] = src[-1, 0] - 1.0
    _drops(frame_a, frame_b, src, dst, [len(INTERIOR)])


def test_patch_on_fill_is_dropped():
    frame_a, frame_b = _textured_pair()
    # Cell (2, 2) lands on [2*BS + 2, 3*BS + 2) x [2*BS + 3, 3*BS + 3) of b.
    frame_b[2 * BS + 6 : 2 * BS + 10, 2 * BS + 7 : 2 * BS + 11] = 0
    src, dst = _grid(INTERIOR)
    _drops(frame_a, frame_b, src, dst, [INTERIOR.index((2, 2))])


def test_drift_beyond_one_and_a_half_pixels_is_dropped():
    frame_a, frame_b = _textured_pair()
    src, dst = _grid(INTERIOR)
    i = INTERIOR.index((2, 2))
    dst[i, 0] += 2.5
    _drops(frame_a, frame_b, src, dst, [i])


def test_drift_within_bound_is_refined_back():
    frame_a, frame_b = _textured_pair()
    src, dst = _grid(INTERIOR)
    i = INTERIOR.index((2, 2))
    seeded = dst.copy()
    seeded[i, 0] += 0.75
    kept_src, kept_dst = _refine_both(frame_a, frame_b, src, seeded)
    assert np.array_equal(kept_src, src)
    assert abs(kept_dst[i, 0] - dst[i, 0]) < 0.05


def test_fewer_than_four_survivors_is_degenerate():
    frame_a, frame_b = _textured_pair()
    src, dst = _grid(INTERIOR[:5])
    frame_a[BS : 3 * BS, BS : 2 * BS] = 100  # flattens cells (1, 1) and (1, 2)
    with pytest.raises(MeasurementError, match="only 3 cells survive"):
        metrics._refine_correspondences(frame_a, frame_b, src, dst, BS)
    assert _outcome(refine_reference, frame_a, frame_b, src, dst, BS) == (
        "only 3 cells survive photometric refinement"
    )


# ---------------------------------------------------------------------------
# Sampling kernel and cropping
# ---------------------------------------------------------------------------


def test_bilinear_sample_matches_affine_bilinear_bitwise():
    rng = np.random.default_rng(1)
    tex = rng.uniform(0.0, 255.0, size=(37, 41))
    c, s = np.cos(0.3), np.sin(0.3)
    matrices = [
        np.array([[1.1 * c, -1.1 * s, -3.7], [1.1 * s, 1.1 * c, 5.2]]),
        np.array([[1.0, 0.0, 4.25], [0.0, 1.0, -0.5]]),
    ]
    out_h, out_w = 29, 33
    ys, xs = np.meshgrid(
        np.arange(out_h, dtype=np.float64), np.arange(out_w, dtype=np.float64), indexing="ij"
    )
    sx = np.stack([m[0, 0] * xs + m[0, 1] * ys + m[0, 2] for m in matrices])
    sy = np.stack([m[1, 0] * xs + m[1, 1] * ys + m[1, 2] for m in matrices])
    out, inside = bilinear_sample(tex, sx, sy)
    assert out.shape == inside.shape == (2, out_h, out_w)
    for k, m in enumerate(matrices):
        ref_out, ref_inside = affine_bilinear(tex, m, out_h, out_w)
        assert np.array_equal(inside[k], ref_inside)
        assert np.array_equal(out[k], ref_out)
    assert not inside.all() and inside.any()
    # A translation's rows and columns may come as broadcasting vectors.
    out_b, inside_b = bilinear_sample(tex, xs[:1] + 4.25, ys[:, :1] - 0.5)
    assert np.array_equal(out_b, out[1]) and np.array_equal(inside_b, inside[1])


@pytest.mark.parametrize("layers, style", [(1, "mixed"), (2, "random")])
@pytest.mark.parametrize("crop_ratio", [0.8, 1.0])
def test_cropping_ratio_equals_stabilizer_valid_fractions(layers, style, crop_ratio):
    clip, res = _oracle_stabilized(layers, style, crop_ratio)
    h, w = clip.frames[0].shape
    expected = res.crop.area * statistics.fmean(res.valid_fractions) / (h * w)
    # The full-frame window keeps warp fill, so its fractions fall below 1.
    assert (min(res.valid_fractions) < 1.0) == (crop_ratio == 1.0)
    assert abs(metrics.cropping_ratio(w, h, res.crop, res.applied) - expected) <= 1e-12


@pytest.mark.parametrize("keep", [0, 5], ids=["empty", "short"])
def test_wrong_number_of_transforms_is_a_frame_mismatch(keep):
    clip, res = _oracle_stabilized(1, "mixed")
    with pytest.raises(MeasurementError, match=f"{keep} applied transforms for 12 frames"):
        metrics.evaluate(clip.frames, res.frames, res.applied[:keep], res.crop)


# ---------------------------------------------------------------------------
# Distortion of frames the stabilizer left unwarped
# ---------------------------------------------------------------------------


def _count_flow_calls(monkeypatch):
    """Record the (frames_a, frames_b) stacks of each ``compute_flow`` call."""
    calls = []
    real = metrics.compute_flow

    def counted(frame_a, frame_b, **kwargs):
        calls.append((frame_a, frame_b))
        return real(frame_a, frame_b, **kwargs)

    monkeypatch.setattr(metrics, "compute_flow", counted)
    return calls


def test_identity_stabilized_clip_scores_one_without_flow(monkeypatch):
    clip, _ = _oracle_stabilized(2, "random")
    identity = [AffineParams.identity()] * (len(clip.frames) - 1)
    res = stabilizer.stabilize_video(clip.frames, identity)
    calls = _count_flow_calls(monkeypatch)
    assert metrics.distortion_score(clip.frames, res.frames) == (1.0, [])
    assert calls == []


def test_unwarped_first_frame_runs_no_flow(monkeypatch):
    clip, res = _oracle_stabilized(1, "mixed")
    first = res.frames[0]
    crop = metrics._center_crop(clip.frames[0], *first.shape)
    assert np.array_equal(crop, first)
    calls = _count_flow_calls(monkeypatch)
    metrics.distortion_score(clip.frames, res.frames)
    # One stacked call over the warped frames 1..n-1; frame 0 is absent.
    [(crops, stabs)] = calls
    assert crops.shape == stabs.shape == (len(clip.frames) - 1, *first.shape)
    for p, i in enumerate(range(1, len(clip.frames))):
        assert np.array_equal(crops[p], metrics._center_crop(clip.frames[i], *first.shape))
        assert np.array_equal(stabs[p], res.frames[i])
        assert not np.array_equal(stabs[p], first)

