"""Tests for the learned backend's network inputs and training arrays."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from synthstab.estimator import (
    INPUT_CHANNELS,
    TrainConfig,
    _resize_matrix,
    build_training_arrays,
    preprocess_pair,
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
    x, t_tr, t_rs = build_training_arrays(samples, TrainConfig(input_side=input_side))
    assert x.shape == (len(samples), INPUT_CHANNELS, input_side, input_side)
    for p, s in enumerate(samples):
        want, r = preprocess_pair(s.frame_a, s.frame_b, input_side)
        assert x[p].tobytes() == want.tobytes()
        assert t_tr[p].tolist() == [s.params.tx * r, s.params.ty * r]
        assert t_rs[p].tolist() == [s.params.theta, s.params.s]


def test_training_arrays_peak_memory_stays_near_the_result():
    samples = sample_random_pairs(80, side=64, seed=1)
    cfg = TrainConfig(input_side=64)
    build_training_arrays(samples[:2], cfg)
    tracemalloc.start()
    try:
        x, _, _ = build_training_arrays(samples, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes
