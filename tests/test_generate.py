"""Direct tests for seeded video and training-pair generation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from synthstab import synthworld
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


# Rendered frames pinned by sha256, recorded while scipy's uniform_filter
# blurred the textures and its make_interp_spline drew the wander.  Any
# drift in the blur or the splines that moves one pixel fails here.
# Config keys per case, and the digest of the clip's concatenated frames.
PINNED_FRAMES = {
    "checker": (
        dict(n_frames=3, width=48, height=40, seed=2, texture_style="checker"),
        "2295d732d07bd75bcbc063afa70288f97130c38fe77bd4514333679fe3927264",
    ),
    "noise": (
        dict(n_frames=3, width=48, height=40, seed=2, texture_style="noise"),
        "16ca5e32678edc856382be84cdcfc5d71edfadec830dbe1b427947f6e239af3b",
    ),
    "blobs": (
        dict(n_frames=3, width=48, height=40, seed=2, texture_style="blobs"),
        "d2f6b048c207a7aba1a3f653d700256fe517e72ec6a51cff5471bdca3df5e55b",
    ),
    "mixed": (
        dict(n_frames=3, width=48, height=40, seed=2, texture_style="mixed"),
        "d685b41fdf4adf2d379382633dbd068c86ce2a9d14f321cb4cd5143f0557dcef",
    ),
    "random-2-layer": (
        dict(n_frames=6, width=64, height=64, seed=7, n_layers=2, texture_style="random"),
        "db8bf335ae3cd3ba4d823d15c21cfb042c776640c1fbac43fe83eab0a7980c22",
    ),
    "wander-150": (
        dict(n_frames=150, width=64, height=64, seed=0, n_layers=2, texture_style="random"),
        "1159d3c3b66633aae6e6d5399caea4794a318a4a3a958307bd7dd6fb81d51cda",
    ),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def test_pinned_cases_cover_every_texture_style():
    assert set(synthworld.TEXTURE_STYLES) <= set(PINNED_FRAMES)


@pytest.mark.parametrize("case", sorted(PINNED_FRAMES))
def test_rendered_frames_are_pinned(case):
    config, digest = PINNED_FRAMES[case]
    video = make_video(GenerateConfig(n_videos=1, **config), 0)
    assert _digest(video.frames) == digest


def test_wander_clip_marks_and_ground_truth_are_pinned():
    # 150 frames give at least 4 waypoints, so the cubic wander spline
    # runs (25-frame clips only ever interpolate linearly).
    config, _ = PINNED_FRAMES["wander-150"]
    synthworld._natural_moments.cache_clear()
    video = make_video(GenerateConfig(n_videos=1, **config), 0)
    assert synthworld._natural_moments.cache_info().misses == 2
    assert len(video.marks) == 3612
    assert _digest([video.marks["frame"], video.marks["uid"]]) == (
        "3565e902cd2952077f966f3b5e5bf52c2a526c3bdc8da880fb4675870bf11ee3"
    )
    pinned = {
        0: (-0.20380685259152437, -3.243797546405504, -0.0009773630109852893, 1.00301041470551),
        74: (1.0414125809756227, -1.3265883990326781, 0.03135919618768383, 0.9974745873653162),
        148: (-2.4947420601174164, 2.3772913052244684, 0.008270494507973167, 1.0016361320237883),
    }
    for pair, want in pinned.items():
        gt = video.gt[pair]
        np.testing.assert_allclose([gt.tx, gt.ty, gt.theta, gt.s], want, rtol=0, atol=1e-12)
