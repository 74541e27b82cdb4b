"""Direct tests for the stabilize pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from synthstab import estimator, stabilizer
from synthstab.affine import AffineParams, invert, params_to_matrix
from synthstab.errors import InvalidSpecError
from synthstab.generate import GenerateConfig, make_video
from synthstab.kernels import affine_bilinear
from synthstab.stabilizer import CROP_RATIO, CropWindow, _warp, stabilize_video


def full_frame_warp(frame, params):
    """The whole warped frame and its in-bounds mask, sampled at every
    frame pixel: the reference for the stabilizer's crop-window
    sampling, which must match its crop bit for bit."""
    sampling = invert(params_to_matrix(params))
    vals, inside = affine_bilinear(frame.astype(np.float64), sampling, *frame.shape)
    out = np.where(inside, np.clip(np.rint(vals), 0, 255), 0.0).astype(np.uint8)
    return out, inside


def test_identity_estimates_give_the_centre_crop_of_every_frame():
    cfg = GenerateConfig(n_videos=1, n_frames=10, width=64, height=48, seed=2)
    frames = make_video(cfg, 0).frames
    identity = AffineParams.identity()
    res = stabilize_video(frames, [identity] * (len(frames) - 1))
    assert res.crop == CropWindow.centered(64, 48, CROP_RATIO)
    assert res.applied == [identity] * len(frames)
    assert len(res.frames) == len(frames)
    for got, frame in zip(res.frames, frames):
        np.testing.assert_array_equal(got, res.crop.apply(frame))
    assert res.valid_fractions == [1.0] * len(frames)
    assert res.warnings == []


def test_frame_zero_is_cropped_without_a_warp(monkeypatch):
    cfg = GenerateConfig(n_videos=1, n_frames=12, width=64, height=48, seed=4)
    frames = make_video(cfg, 0).frames
    estimates = [
        AffineParams(tx=1.5 - 0.4 * i, ty=0.25 * i, theta=0.01 * (-1) ** i, s=1.0 + 0.002 * i)
        for i in range(len(frames) - 1)
    ]
    calls = []
    real = stabilizer.affine_bilinear

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stabilizer, "affine_bilinear", counting)
    res = stabilize_video(frames, estimates)
    assert len(calls) == len(frames) - 1
    assert res.applied[0] == AffineParams.identity()
    assert any(p != AffineParams.identity() for p in res.applied[1:])
    np.testing.assert_array_equal(res.frames[0], res.crop.apply(frames[0]))
    assert res.valid_fractions[0] == 1.0
    # Warping by the identity would have given the same bits.
    warped, inside = _warp(frames[0], AffineParams.identity(), res.crop)
    np.testing.assert_array_equal(res.frames[0], warped)
    assert inside.all()
    for i in range(1, len(frames)):
        warped, inside = _warp(frames[i], res.applied[i], res.crop)
        np.testing.assert_array_equal(res.frames[i], warped)
        assert res.valid_fractions[i] == float(inside.mean())
    # Every call samples the crop window only.
    assert {args[2:] for args in calls} == {(res.crop.height, res.crop.width)}


@pytest.mark.parametrize("layers, style", [(1, "mixed"), (2, "random")])
@pytest.mark.parametrize("backend", ["oracle", "blockmatch"])
@pytest.mark.parametrize("crop_ratio", [CROP_RATIO, 1.0])
def test_window_warp_equals_full_frame_warp_then_crop(layers, style, backend, crop_ratio):
    cfg = GenerateConfig(
        n_videos=1, n_frames=16, width=128, height=128, seed=6, n_layers=layers,
        texture_style=style,
    )
    clip = make_video(cfg, 0)
    est, _ = estimator.estimate_sequence(clip.frames, backend, marks=clip.marks)
    res = stabilize_video(clip.frames, est, crop_ratio=crop_ratio)
    for i in range(1, len(clip.frames)):
        warped, inside = full_frame_warp(clip.frames[i], res.applied[i])
        assert res.frames[i].tobytes() == res.crop.apply(warped).tobytes()
        want = float(res.crop.apply(inside.astype(np.uint8)).mean())
        assert res.valid_fractions[i] == want
    # The full-frame window shows warp fill and the 0.8 crop hides it,
    # so valid fractions below and at 1.0 are both compared.
    assert (min(res.valid_fractions) < 1.0) == (crop_ratio == 1.0)


@pytest.mark.parametrize("colour_index", [0, 1])
def test_colour_frame_is_rejected(colour_index):
    frames = [np.zeros((16, 16), dtype=np.uint8) for _ in range(3)]
    frames[colour_index] = np.zeros((16, 16, 3), dtype=np.uint8)
    with pytest.raises(InvalidSpecError):
        stabilize_video(frames, [AffineParams.identity()] * 2)
