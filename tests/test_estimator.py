"""Tests for the oracle backend against the synthetic ground truth."""

from __future__ import annotations

import warnings

import pytest

from synthstab.affine import wrap_angle
from synthstab.estimator import estimate_sequence
from synthstab.generate import GenerateConfig, make_video


@pytest.mark.parametrize("layers, style", [(1, "mixed"), (2, "random")])
def test_oracle_estimates_reproduce_ground_truth(layers, style):
    cfg = GenerateConfig(
        n_videos=1, n_frames=12, width=96, height=96, seed=4, n_layers=layers, texture_style=style
    )
    clip = make_video(cfg, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, substituted = estimate_sequence(clip.frames, "oracle", marks=clip.marks)
    assert substituted == []
    assert len(est) == len(clip.gt) == cfg.n_frames - 1
    for got, want in zip(est, clip.gt):
        assert abs(got.tx - want.tx) <= 1e-9
        assert abs(got.ty - want.ty) <= 1e-9
        assert abs(wrap_angle(got.theta - want.theta)) <= 1e-9
        assert abs(got.s - want.s) <= 1e-9
