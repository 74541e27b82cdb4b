"""Tests for the callers that compute the flow of many frame pairs in one
stacked ``compute_flow`` call.

Every stacked result is compared with its serial reference: the same
work done one pair at a time, in order.
"""

from __future__ import annotations

import numpy as np
import pytest

from synthstab import estimator, metrics, stabilizer
from synthstab.affine import AffineParams
from synthstab.errors import SynthStabError
from synthstab.cnn import ConvRegressor, NetworkShape
from synthstab.estimator import (
    INPUT_CHANNELS,
    BlockMatchEstimator,
    LearnedEstimator,
    estimate_sequence,
)
from synthstab.flow import FlowField
from synthstab.generate import GenerateConfig, make_video


def _clip(layers, style, n_frames=12, seed=3):
    cfg = GenerateConfig(
        n_videos=1,
        n_frames=n_frames,
        width=128,
        height=128,
        seed=seed,
        n_layers=layers,
        texture_style=style,
    )
    return make_video(cfg, 0)


def _with_flat_frame(frames, index):
    """A copy of ``frames`` with frame ``index`` replaced by a flat grey one."""
    out = list(frames)
    out[index] = np.full_like(frames[index], 128)
    return out


CLIPS = [(1, "mixed", None), (2, "random", None), (1, "mixed", 5), (2, "random", 1)]


# ---------------------------------------------------------------------------
# estimate_sequence against one BlockMatchEstimator call per pair
# ---------------------------------------------------------------------------


def blockmatch_serial_reference(frames):
    """One ``BlockMatchEstimator.estimate`` call per pair, in order."""
    est, warns = [], []
    for i in range(len(frames) - 1):
        try:
            est.append(BlockMatchEstimator().estimate(frames[i], frames[i + 1]))
        except SynthStabError as exc:
            est.append(AffineParams.identity())
            warns.append(f"pair {i}: {exc}; substituted identity")
    return est, warns


@pytest.mark.parametrize("layers, style, flat", CLIPS)
def test_blockmatch_estimates_match_serial(layers, style, flat):
    frames = _clip(layers, style).frames
    if flat is not None:
        frames = _with_flat_frame(frames, flat)
    est, warn = estimate_sequence(frames, "blockmatch")
    assert (est, warn) == blockmatch_serial_reference(frames)
    if flat is None:
        assert warn == []
    else:
        # Both pairs touching the flat frame fall back to identity, in order.
        assert [w.split(":")[0] for w in warn] == [f"pair {flat - 1}", f"pair {flat}"]
        assert est[flat - 1] == est[flat] == AffineParams.identity()


def test_blockmatch_frames_smaller_than_a_block_fail_every_pair():
    frames = [np.full((12, 12), v, dtype=np.uint8) for v in (10, 90, 170)]
    est, warn = estimate_sequence(frames, "blockmatch")
    assert (est, warn) == blockmatch_serial_reference(frames)
    assert len(warn) == 2 and all("smaller than one 16px block" in w for w in warn)


# ---------------------------------------------------------------------------
# learned estimate_sequence against one LearnedEstimator call per pair
# ---------------------------------------------------------------------------


def _flow_regressors(side=16):
    """A learned backend with untrained weights."""
    tensors = {}
    for prefix, seed in (("tr", 1), ("rs", 2)):
        shape = NetworkShape(in_channels=INPUT_CHANNELS, input_side=side, dropout_rate=0.0)
        net = ConvRegressor(shape, seed=seed)
        for name in net.param_names():
            tensors[f"{prefix}_{name}"] = net.params[name]
        tensors[f"{prefix}_target_mean"] = np.array([0.5, 1.0])
        tensors[f"{prefix}_target_std"] = np.array([2.0, 0.01])
    tensors["meta_input_side"] = np.array([float(side)])
    return LearnedEstimator(tensors)


def learned_serial_reference(learned, frames):
    """One ``LearnedEstimator.estimate`` call per pair, in order."""
    est, warns = [], []
    for i in range(len(frames) - 1):
        try:
            est.append(learned.estimate(frames[i], frames[i + 1]))
        except SynthStabError as exc:
            est.append(AffineParams.identity())
            warns.append(f"pair {i}: {exc}; substituted identity")
    return est, warns


def _bits(estimates):
    return np.array([(e.tx, e.ty, e.theta, e.s) for e in estimates]).view(np.int64)


@pytest.mark.parametrize("layers, style", [(1, "mixed"), (2, "random")])
def test_learned_estimates_match_serial_with_one_flow_call(monkeypatch, layers, style):
    frames = _clip(layers, style, n_frames=8).frames
    learned = _flow_regressors()
    calls = []
    real = estimator.compute_flow
    monkeypatch.setattr(
        estimator, "compute_flow", lambda a, b: calls.append(np.shape(a)) or real(a, b)
    )
    est, warn = estimate_sequence(frames, "learned", weights=learned)
    assert calls == [(7, 128, 128)]
    ref_est, ref_warn = learned_serial_reference(learned, frames)
    assert warn == ref_warn == []
    np.testing.assert_array_equal(_bits(est), _bits(ref_est))


def test_learned_frames_smaller_than_a_block_fail_every_pair():
    frames = [np.full((12, 12), v, dtype=np.uint8) for v in (10, 90, 170)]
    learned = _flow_regressors()
    est, warn = estimate_sequence(frames, "learned", weights=learned)
    assert (est, warn) == learned_serial_reference(learned, frames)
    assert len(warn) == 2 and all("smaller than one 16px block" in w for w in warn)


# ---------------------------------------------------------------------------
# evaluate against one 2-D flow call per pair
# ---------------------------------------------------------------------------


def _serial_flow(real):
    """``compute_flow`` on a stack as a loop of 2-D calls, one per pair."""

    def loop(frames_a, frames_b, **kwargs):
        flows = [real(a, b, **kwargs) for a, b in zip(frames_a, frames_b)]
        return FlowField(
            u=np.stack([f.u for f in flows]),
            v=np.stack([f.v for f in flows]),
            valid=np.stack([f.valid for f in flows]),
            block_size=flows[0].block_size,
        )

    return loop


def _oracle_stabilized(layers, style):
    clip = _clip(layers, style, seed=5)
    est, _ = estimator.estimate_sequence(clip.frames, "oracle", marks=clip.marks)
    return clip.frames, stabilizer.stabilize_video(clip.frames, est)


@pytest.mark.parametrize("layers, style, flat", CLIPS)
def test_evaluate_report_matches_serial(monkeypatch, layers, style, flat):
    original, res = _oracle_stabilized(layers, style)
    stabilized = res.frames if flat is None else _with_flat_frame(res.frames, flat)
    report = metrics.evaluate(original, stabilized, res.applied, res.crop)
    with monkeypatch.context() as m:
        m.setattr(metrics, "compute_flow", _serial_flow(metrics.compute_flow))
        ref = metrics.evaluate(original, stabilized, res.applied, res.crop)
    assert report.rows() == ref.rows()
    assert report.warnings == ref.warnings
    if flat is not None:
        # Both pairs touching the flat frame carry zero motion, in order,
        # and the flat frame's distortion is skipped.
        assert [w.split(":")[:2] for w in report.warnings[:2]] == [
            ["stabilized", f" pair {flat - 1}"],
            ["stabilized", f" pair {flat}"],
        ]
        assert all("motion set to zero" in w for w in report.warnings[:2])
        assert report.warnings[-1].startswith(f"frame {flat}: distortion skipped")
