"""The three benchmark workloads, each built from ``--seed`` alone.

A workload has a set-up step that builds its inputs, a timed
operation applied to one input at a time, and checks on every
output.  Every input of the set is run once whatever the time budget,
so accuracy figures and checks cover the same inputs on every run of
a seed; further operations reuse the inputs until the time is up.

Why these three (each stresses a different layer):

* ``stabilize_bm`` -- blockmatch estimation plus stabilization, the
  production flow setting (3 levels, 16->8->4 px blocks, radius 4),
  where ``sad_volume`` dominates ``compute_flow``.  Two-layer clips
  add parallax and textures of every style, which exercise the
  texture gate and the trimming of the robust fit.
* ``evaluate_oracle`` -- ``metrics.evaluate`` on oracle-stabilized
  clips: the metrics layer is the only heavy one, and flow runs on a
  crisp crop against a resampled frame whose size the block grid does
  not divide, with the widened SAD gate and per-cell refinement.
* ``train_small`` -- a small fixed training run plus held-out learned
  estimates: the conv kernels dominate, and flow runs on tiny frames
  where the fixed cost per call outweighs the array work.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from synthstab import estimator, generate, metrics, stabilizer
from synthstab.errors import SynthStabError
from synthstab.estimator import LearnedEstimator, TrainConfig
from synthstab.generate import GenerateConfig

# Per-clip accuracy bounds for blockmatch against ground truth, set
# from seed-commit runs with a wide margin (single-layer clips measure
# 0.03-0.09 px and 0.3-1 mrad; two-layer parallax clips up to about
# 1 px and 6 mrad).  Exceeding one is a failed check, not a slow run.
BM_BOUND_PX = {1: 0.25, 2: 2.5}
BM_BOUND_MRAD = {1: 2.5, 2: 25.0}
# The oracle fits mark tracks that move exactly like the ground truth.
ORACLE_TOL = 1e-9
# Recorded values a run of the same seed must reproduce: report fields
# within this absolute tolerance (float reduction order, nothing more),
# accuracy figures no worse than recorded by this relative tolerance.
GOLDEN_TOL = 1e-6
# Held-out pairs come from this offset of the workload seed.
HELDOUT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; :data:`FULL` is the benchmark.

    Clips are short so that one run covers several scenes: the work
    per pair and per frame does not depend on clip length, while cost
    and accuracy vary from scene to scene.
    """

    side: int = 128
    bm_clips: int = 8
    bm_frames: int = 25
    ev_clips: int = 6
    ev_frames: int = 12
    train_pairs: int = 80
    heldout_pairs: int = 30
    train_side: int = 64
    batch: int = 40
    # Enough epochs that preprocessing (mostly flow) is about a third
    # of training time.
    epochs_tr: int = 12
    epochs_rs: int = 4
    setup_repeats: int = 3


FULL = Sizes()
# Small enough for the benchmark's own tests; not a benchmark setting.
TINY = Sizes(
    side=64,
    bm_clips=2,
    bm_frames=5,
    ev_clips=2,
    ev_frames=10,
    train_pairs=4,
    heldout_pairs=2,
    train_side=16,
    batch=4,
    epochs_tr=1,
    epochs_rs=1,
    setup_repeats=2,
)


class Tally:
    """Attempted and failed operations, with the reason of each failure.

    ``check_failures`` counts failed correctness checks, the subset of
    failures that make a run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []
        self.check_failures = 0

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        """A correctness check is one attempted operation."""
        self.attempted += 1
        if not ok:
            self.reasons.append(reason)
            self.check_failures += 1

    @property
    def failed(self) -> int:
        return len(self.reasons)


def _clip_specs(n: int) -> list[tuple[int, str]]:
    """Alternate single-layer ``mixed`` and two-layer ``random`` clips."""
    return [((1, "mixed"), (2, "random"))[i % 2] for i in range(n)]


def _make_clips(seed: int, n: int, frames: int, side: int):
    clips = []
    for i, (layers, style) in enumerate(_clip_specs(n)):
        cfg = GenerateConfig(
            n_videos=n,
            n_frames=frames,
            width=side,
            height=side,
            seed=seed,
            n_layers=layers,
            texture_style=style,
        )
        clips.append(generate.make_video(cfg, i))
    return clips


def _frames_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _abs_errors(est, gt) -> tuple[list[float], list[float]]:
    """Per-pair translation error (mean of |dtx|, |dty|) and |dtheta| in mrad."""
    tr = [0.5 * (abs(e.tx - g.tx) + abs(e.ty - g.ty)) for e, g in zip(est, gt)]
    rot = [1e3 * abs(e.theta - g.theta) for e, g in zip(est, gt)]
    return tr, rot


@dataclass
class Workload:
    """One workload: inputs from a seed, a timed operation, checks.

    ``setup`` returns the inputs and ``same_inputs`` tells whether two
    set-ups agree.  ``op`` is the timed operation on one input.
    ``check`` records the failures of one output; on the first pass
    (``first`` is None) it returns a summary that later outputs for the
    same input must reproduce.  ``golden`` holds values recorded for
    this seed, if any.  ``rate`` gives the ``item``s per second of one
    timed operation (the throughput, also known as ``throughput_alias``);
    ``accuracy`` reads the first-pass summaries.  ``conv_share`` weights
    the machine-speed reference (see ``calibrate.speed``).
    """

    name: str
    item: str
    throughput_alias: str
    conv_share: float
    setup: Callable[[int, Sizes, Tally], list]
    same_inputs: Callable[[list, list], bool]
    op: Callable[[Any, Sizes], Any]
    check: Callable[[Any, Any, Any, Tally, dict | None], Any]
    rate: Callable[[float, Any, Sizes], float | None]
    accuracy: Callable[[list], dict]


# ---------------------------------------------------------------------------
# stabilize_bm
# ---------------------------------------------------------------------------


def _bm_setup(seed: int, sizes: Sizes, tally: Tally) -> list:
    return _make_clips(seed, sizes.bm_clips, sizes.bm_frames, sizes.side)


def _bm_same(a: list, b: list) -> bool:
    return all(_frames_equal(x.frames, y.frames) and x.gt == y.gt for x, y in zip(a, b))


def _bm_op(clip, sizes: Sizes):
    est, warnings = estimator.estimate_sequence(clip.frames, "blockmatch")
    result = stabilizer.stabilize_video(clip.frames, est)
    return est, warnings, result


def _bm_check(clip, out, first, tally: Tally, golden=None):
    est, warnings, result = out
    tally.attempt(len(est))
    for w in warnings:
        tally.fail(f"{clip.video_id}: {w}")
    if first is not None:
        tally.check(est == first[3], f"{clip.video_id}: repeated estimate differs")
        return None
    n = len(clip.frames)
    crop = result.crop
    tally.check(
        len(result.frames) == n
        and all(f.shape == (crop.height, crop.width) for f in result.frames),
        f"{clip.video_id}: stabilized frames have the wrong count or shape",
    )
    tr, rot = _abs_errors(est, clip.gt)
    m_tr, m_rot = statistics.fmean(tr), statistics.fmean(rot)
    tally.check(
        m_tr <= BM_BOUND_PX[clip.n_layers] and m_rot <= BM_BOUND_MRAD[clip.n_layers],
        f"{clip.video_id} ({clip.n_layers} layers): blockmatch error "
        f"{m_tr:.3f} px / {m_rot:.3f} mrad over bound",
    )
    return clip.n_layers, tr, rot, est


def _bm_rate(dt: float, out, sizes: Sizes) -> float:
    return sizes.bm_frames / dt


def _bm_accuracy(first) -> dict:
    # Accuracy is scored on single-layer clips, where the similarity
    # model is exact; parallax clips are checked against their bound.
    tr = [e for layers, t, _, _ in first if layers == 1 for e in t]
    rot = [e for layers, _, r, _ in first if layers == 1 for e in r]
    return {
        "bm_trans_err_px": (statistics.fmean(tr), "px", len(tr)),
        "bm_rot_err_mrad": (statistics.fmean(rot), "mrad", len(rot)),
    }


# ---------------------------------------------------------------------------
# evaluate_oracle
# ---------------------------------------------------------------------------


@dataclass
class EvalInput:
    video_id: str
    original: list[np.ndarray]
    stabilized: list[np.ndarray]
    applied: list
    crop: stabilizer.CropWindow
    valid_fractions: list[float]


def _ev_setup(seed: int, sizes: Sizes, tally: Tally) -> list:
    items = []
    for clip in _make_clips(seed, sizes.ev_clips, sizes.ev_frames, sizes.side):
        est, warnings = estimator.estimate_sequence(clip.frames, "oracle", marks=clip.marks)
        dev = max(
            max(abs(e.tx - g.tx), abs(e.ty - g.ty), abs(e.theta - g.theta), abs(e.s - g.s))
            for e, g in zip(est, clip.gt)
        )
        tally.check(
            not warnings and dev <= ORACLE_TOL,
            f"{clip.video_id}: oracle deviates from ground truth by {dev:.3e}",
        )
        res = stabilizer.stabilize_video(clip.frames, est)
        items.append(
            EvalInput(
                clip.video_id,
                clip.frames,
                res.frames,
                res.applied,
                res.crop,
                res.valid_fractions,
            )
        )
    return items


def _ev_same(a: list, b: list) -> bool:
    return all(
        _frames_equal(x.original, y.original)
        and _frames_equal(x.stabilized, y.stabilized)
        and x.applied == y.applied
        for x, y in zip(a, b)
    )


def _ev_op(item: EvalInput, sizes: Sizes):
    return metrics.evaluate(item.original, item.stabilized, item.applied, item.crop)


def _ev_check(item: EvalInput, report, first, tally: Tally, golden=None):
    n = len(item.original)
    # One attempt per tracked pair of each video plus one per
    # distortion frame; every warning is one of them failing.
    tally.attempt(2 * (n - 1) + n)
    for w in report.warnings:
        tally.fail(f"{item.video_id}: {w}")
    rows = dict(report.rows())
    if first is not None:
        tally.check(rows == first[1], f"{item.video_id}: repeated report differs")
        return None
    h, w = item.original[0].shape
    expected_crop = item.crop.area * statistics.fmean(item.valid_fractions) / (h * w)
    tally.check(
        abs(report.cropping - expected_crop) <= 1e-12,
        f"{item.video_id}: cropping {report.cropping!r} != {expected_crop!r} "
        "from the stabilizer's valid fractions",
    )
    tally.check(
        0.0 < report.distortion <= 1.0
        and all(
            0.0 <= v <= 1.0
            for v in (
                report.stability_translation,
                report.stability_rotation,
                report.original_stability_translation,
                report.original_stability_rotation,
            )
        ),
        f"{item.video_id}: report field out of range: {rows}",
    )
    if golden is not None:
        ref = golden.get(item.video_id)
        tally.check(
            ref is not None and _rows_match(rows, ref),
            f"{item.video_id}: report {rows} differs from recorded {ref}",
        )
    return item.video_id, rows


def _rows_match(rows: dict, ref: dict) -> bool:
    if rows.keys() != ref.keys():
        return False
    for k, v in rows.items():
        if v in ("true", "false") or ref[k] in ("true", "false"):
            if v != ref[k]:
                return False
        elif not math.isclose(float(v), float(ref[k]), rel_tol=0.0, abs_tol=GOLDEN_TOL):
            return False
    return True


def _ev_rate(dt: float, report, sizes: Sizes) -> float:
    return sizes.ev_frames / dt


# ---------------------------------------------------------------------------
# train_small
# ---------------------------------------------------------------------------


def train_config(sizes: Sizes) -> TrainConfig:
    """The fixed small config; the init seed is part of it, not of the input."""
    return TrainConfig(
        batch_size=sizes.batch,
        epochs_tr=sizes.epochs_tr,
        epochs_rs=sizes.epochs_rs,
        input_side=sizes.train_side,
        seed=0,
    )


@dataclass
class TrainInput:
    pairs: list
    heldout: list


def _tr_setup(seed: int, sizes: Sizes, tally: Tally) -> list:
    side = sizes.train_side
    pairs = generate.sample_random_pairs(sizes.train_pairs, side=side, seed=seed)
    heldout = generate.sample_random_pairs(
        sizes.heldout_pairs, side=side, seed=seed + HELDOUT_SEED_OFFSET
    )
    return [TrainInput(pairs, heldout)]


def _tr_same(a: list, b: list) -> bool:
    def flat(items: list) -> list:
        return [p for t in items for p in t.pairs + t.heldout]

    pa, pb = flat(a), flat(b)
    return len(pa) == len(pb) and all(
        np.array_equal(x.frame_a, y.frame_a)
        and np.array_equal(x.frame_b, y.frame_b)
        and x.params == y.params
        for x, y in zip(pa, pb)
    )


@dataclass
class TrainOutput:
    train_s: float
    tensors: dict | None
    estimates: list
    errors: list[str]


def _tr_op(item: TrainInput, sizes: Sizes) -> TrainOutput:
    t0 = time.perf_counter()
    try:
        result = estimator.train(item.pairs, train_config(sizes))
    except SynthStabError as exc:
        return TrainOutput(time.perf_counter() - t0, None, [], [f"train: {exc}"])
    train_s = time.perf_counter() - t0
    learned = LearnedEstimator(result.tensors)
    estimates, errors = [], []
    for i, p in enumerate(item.heldout):
        try:
            estimates.append(learned.estimate(p.frame_a, p.frame_b))
        except (SynthStabError, ValueError) as exc:
            estimates.append(None)
            errors.append(f"held-out pair {i}: {type(exc).__name__}: {exc}")
    return TrainOutput(train_s, result.tensors, estimates, errors)


def _tr_check(item: TrainInput, out: TrainOutput, first, tally: Tally, golden=None):
    tally.attempt(1 + len(item.heldout))
    for e in out.errors:
        tally.fail(e)
    if out.tensors is None:
        return None
    if first is not None:
        ref = first[0]
        same = ref.keys() == out.tensors.keys() and all(
            np.array_equal(ref[k], v) for k, v in out.tensors.items()
        )
        tally.check(same, "repeated training gave different weights")
        return None
    ok = [(e, p.params) for e, p in zip(out.estimates, item.heldout) if e is not None]
    tr, rot = _abs_errors([e for e, _ in ok], [g for _, g in ok])
    return out.tensors, tr, rot


def _tr_rate(dt: float, out: TrainOutput, sizes: Sizes) -> float | None:
    # Only the training call counts, preprocessing included.
    if out.tensors is None:
        return None
    return sizes.train_pairs * (sizes.epochs_tr + sizes.epochs_rs) / out.train_s


def _tr_accuracy(first) -> dict:
    if first[0] is None:
        return {}
    _, tr, rot = first[0]
    return {
        "learned_trans_err_px": (statistics.fmean(tr), "px", len(tr)),
        "learned_rot_err_mrad": (statistics.fmean(rot), "mrad", len(rot)),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stabilize_bm",
            "frame",
            "stabilize_fps",
            0.0,
            _bm_setup,
            _bm_same,
            _bm_op,
            _bm_check,
            _bm_rate,
            _bm_accuracy,
        ),
        Workload(
            "evaluate_oracle",
            "frame",
            "evaluate_fps",
            0.0,
            _ev_setup,
            _ev_same,
            _ev_op,
            _ev_check,
            _ev_rate,
            lambda first: {},
        ),
        Workload(
            "train_small",
            "pair-epoch",
            "train_pair_epochs_per_s",
            # Conv kernels and the CNN around them take about two thirds
            # of training time; the rest is flow preprocessing.
            0.65,
            _tr_setup,
            _tr_same,
            _tr_op,
            _tr_check,
            _tr_rate,
            _tr_accuracy,
        ),
    )
}
