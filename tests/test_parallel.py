"""Tests for the flow loops that run frame pairs in parallel, as one stack.

Every stacked result is compared with its serial reference: the same
work done one pair at a time, in order.
"""

from __future__ import annotations

import numpy as np
import pytest

from synthstab import estimator, metrics, stabilizer
from synthstab.affine import AffineParams
from synthstab.errors import SynthStabError
from synthstab.estimator import BlockMatchEstimator, estimate_sequence
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
