"""Direct tests for the stabilize pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from synthstab.affine import AffineParams
from synthstab.errors import InvalidSpecError
from synthstab.generate import GenerateConfig, make_video
from synthstab.stabilizer import CROP_RATIO, CropWindow, stabilize_video


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


@pytest.mark.parametrize("colour_index", [0, 1])
def test_colour_frame_is_rejected(colour_index):
    frames = [np.zeros((16, 16), dtype=np.uint8) for _ in range(3)]
    frames[colour_index] = np.zeros((16, 16, 3), dtype=np.uint8)
    with pytest.raises(InvalidSpecError):
        stabilize_video(frames, [AffineParams.identity()] * 2)
