"""Direct tests for seeded video and training-pair generation."""

from __future__ import annotations

import numpy as np
import pytest

from synthstab.errors import InvalidSpecError
from synthstab.generate import GenerateConfig, make_video, sample_random_pairs


def _video_bytes(video):
    return (
        [f.tobytes() for f in video.frames],
        video.marks.tobytes(),
        video.gt,
        (video.video_id, video.fps, video.seed, video.n_layers),
    )


@pytest.mark.parametrize("n_layers", [1, 2])
def test_make_video_is_byte_identical_across_calls(n_layers):
    cfg = GenerateConfig(n_videos=2, n_frames=6, width=48, height=40, seed=3, n_layers=n_layers)
    first = make_video(cfg, 1)
    second = make_video(cfg, 1)
    assert _video_bytes(first) == _video_bytes(second)
    assert all(f.dtype == np.uint8 and f.shape == (40, 48) for f in first.frames)
    # Another index draws another scene and path.
    other = make_video(cfg, 0)
    assert [f.tobytes() for f in other.frames] != [f.tobytes() for f in first.frames]


@pytest.mark.parametrize("n_frames", [2, 7])
def test_make_video_has_one_gt_entry_per_pair(n_frames):
    cfg = GenerateConfig(n_videos=1, n_frames=n_frames, width=32, height=32, seed=1)
    video = make_video(cfg, 0)
    assert len(video.frames) == n_frames
    assert len(video.gt) == n_frames - 1


@pytest.mark.parametrize("field, value", [("n_layers", 0), ("n_frames", 1)])
def test_generate_config_rejects_degenerate_sizes(field, value):
    with pytest.raises(InvalidSpecError):
        GenerateConfig(**{field: value})


def _pairs_bytes(pairs):
    return [(p.frame_a.tobytes(), p.frame_b.tobytes(), p.params) for p in pairs]


def test_sample_random_pairs_repeats_per_seed_and_differs_across_seeds():
    first = sample_random_pairs(3, side=24, seed=4)
    again = sample_random_pairs(3, side=24, seed=4)
    other = sample_random_pairs(3, side=24, seed=5)
    assert _pairs_bytes(first) == _pairs_bytes(again)
    assert [p.params for p in first] != [p.params for p in other]
    assert [p.frame_a.tobytes() for p in first] != [p.frame_a.tobytes() for p in other]
