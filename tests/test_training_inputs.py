"""Tests for the learned backend's network inputs and training arrays."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from synthstab import estimator
from synthstab.errors import InvalidSpecError
from synthstab.estimator import (
    INPUT_CHANNELS,
    TrainConfig,
    _resize_matrix,
    build_training_arrays,
    preprocess_pair,
    train,
    write_inputs,
)
from synthstab.flow import compute_flow, flow_to_dense
from synthstab.generate import sample_random_pairs
from synthstab.kernels import affine_bilinear


def resampled_inputs(fa, fb, side, flow):
    """Every channel through the resize sampler, whatever the frame size."""
    h, w = fa.shape
    m, r = _resize_matrix(h, w, side)
    du, dv = flow_to_dense(flow, h, w)
    channels = [fa.astype(np.float64) / 255.0, fb.astype(np.float64) / 255.0, du * r, dv * r]
    return np.stack([affine_bilinear(c, m, side, side)[0] for c in channels]), r


@pytest.mark.parametrize("frame_side, input_side", [(32, 32), (64, 64), (48, 32), (32, 48)])
def test_inputs_match_the_resize_sampler_bit_for_bit(frame_side, input_side):
    # At frame_side == input_side the sampler is skipped.
    flows = []
    for seed in range(3):
        for pair in sample_random_pairs(10, side=frame_side, seed=seed):
            flow = compute_flow(pair.frame_a, pair.frame_b)
            x, r = preprocess_pair(pair.frame_a, pair.frame_b, input_side, flow=flow)
            want, want_r = resampled_inputs(pair.frame_a, pair.frame_b, input_side, flow)
            assert x.shape == (INPUT_CHANNELS, input_side, input_side)
            assert r == want_r
            assert x.tobytes() == want.tobytes()
            flows.append(flow)
    # The flow channels hold negative, zero and positive motion.
    u = np.concatenate([f.u.ravel() for f in flows] + [f.v.ravel() for f in flows])
    assert (u < 0).any() and (u == 0).any() and (u > 0).any()


@pytest.mark.parametrize("frame_side, input_side", [(32, 32), (48, 32)])
def test_training_arrays_hold_each_pairs_inputs(frame_side, input_side):
    samples = sample_random_pairs(12, side=frame_side, seed=3)
    cfg = TrainConfig(input_side=input_side)
    if frame_side != input_side:
        # Training takes frames of the network's input size only.
        with pytest.raises(InvalidSpecError, match=f"{input_side}x{input_side}"):
            build_training_arrays(samples, cfg)
        return
    frames, flow, t_tr, t_rs = build_training_arrays(samples, cfg)
    assert frames.dtype == np.uint8 and frames.shape == (len(samples), 2, input_side, input_side)
    x = np.empty((len(samples), INPUT_CHANNELS, input_side, input_side))
    write_inputs(x, frames, flow, np.arange(len(samples)))
    for p, s in enumerate(samples):
        assert frames[p, 0].tobytes() == s.frame_a.tobytes()
        assert frames[p, 1].tobytes() == s.frame_b.tobytes()
        want, r = preprocess_pair(s.frame_a, s.frame_b, input_side)
        assert r == 1.0
        assert x[p].tobytes() == want.tobytes()
        assert t_tr[p].tolist() == [s.params.tx, s.params.ty]
        assert t_rs[p].tolist() == [s.params.theta, s.params.s]


@pytest.mark.parametrize("group", [1, 5, 12, 100])
def test_grouped_training_flow_equals_one_stacked_call(monkeypatch, group):
    # 12 pairs in groups of 5 leave a short last group.
    samples = sample_random_pairs(12, side=32, seed=4)
    monkeypatch.setattr(estimator, "TRAIN_FLOW_GROUP", group)
    _, flow, _, _ = build_training_arrays(samples, TrainConfig(input_side=32))
    one = compute_flow(
        np.stack([s.frame_a for s in samples]), np.stack([s.frame_b for s in samples])
    )
    assert flow.tobytes() == np.stack([one.u, one.v], axis=1).tobytes()


@pytest.mark.parametrize("side", [64, 32, 40])
def test_batch_writer_matches_preprocess_pair_bit_for_bit(side):
    # At 40 px the 16 px block grid leaves 8 px, which take the last
    # block row and column.
    samples = sample_random_pairs(80, side=side, seed=side)
    frames, flow, _, _ = build_training_arrays(samples, TrainConfig(input_side=side))
    rows = np.random.default_rng(side).permutation(80)[:40]
    xp = np.full((40, INPUT_CHANNELS, side + 2, side + 2), np.nan)
    write_inputs(xp[:, :, 1:-1, 1:-1], frames, flow, rows)
    want = np.stack([preprocess_pair(samples[r].frame_a, samples[r].frame_b, side)[0] for r in rows])
    assert xp[:, :, 1:-1, 1:-1].tobytes() == want.tobytes()
    # The zero border is the caller's: the writer leaves it alone.
    border = np.ones(xp.shape[2:], dtype=bool)
    border[1:-1, 1:-1] = False
    assert np.isnan(xp[:, :, border]).all()
    # The batch holds negative, zero and positive motion.
    u = flow[rows].ravel()
    assert (u < 0).any() and (u == 0).any() and (u > 0).any()


def test_training_memory_does_not_grow_with_float_inputs():
    # The float64 inputs of 120 more 32 x 32 pairs would take 3.9 MB.
    # Two batches or more per epoch, so that Adam's moments are alive at
    # the peak of both runs.
    cfg = TrainConfig(batch_size=20, input_side=32, epochs_tr=1, epochs_rs=1)
    samples = sample_random_pairs(160, side=32, seed=2)
    train(samples[:40], cfg)
    peaks = []
    for n in (40, 160):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            train(samples[:n], cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - before)
    assert peaks[1] - peaks[0] < 0.25 * 120 * INPUT_CHANNELS * 32 * 32 * 8
