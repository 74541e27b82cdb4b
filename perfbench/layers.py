"""Where the traced run intercepts synthstab, and the per-layer metrics.

Every patch point names the module (or class) whose lookup the caller
performs, so the table below is also the list of call sites.  A
kernel span is named after the layer that owns the kernel
(``kernels.sad_volume``) when one layer calls it, and after the
calling module (``metrics.affine_bilinear``) when several do.
"""

from __future__ import annotations

import numpy as np

from synthstab import cnn, estimator, flow, generate, metrics, stabilizer, synthworld
from synthstab.kernels import INVALID_SAD

from reference import check_affine_bilinear, check_sad_volume, conv_macs, sad_absdiffs
from tracer import LayerStats, PatchPoint

BILINEAR_CALLERS = ("estimator", "metrics", "stabilizer", "synthworld")


class Capture:
    """Copies of a few kernel calls per span name, for the reference check.

    Calls number 1, 2, 4, 8, ... of each name are kept, up to ``limit``,
    so the sample reaches past the first few calls without growing.
    """

    def __init__(self, limit: int = 6) -> None:
        self.limit = limit
        self.seen: dict[str, int] = {}
        self.samples: dict[str, list[tuple[tuple, object]]] = {}

    def want(self, name: str) -> bool:
        n = self.seen[name] = self.seen.get(name, 0) + 1
        return n & (n - 1) == 0 and len(self.samples.get(name, ())) < self.limit

    def add(self, name: str, args: tuple, out) -> None:
        self.samples.setdefault(name, []).append((args, out))

    def recheck(self, rng: np.random.Generator) -> list[tuple[str, list[str]]]:
        """Re-run every kept call on the brute-force reference.

        Returns (span name, mismatches) per kept call.
        """
        out = []
        for name, calls in self.samples.items():
            for args, result in calls:
                if name == "kernels.sad_volume":
                    out.append((name, check_sad_volume(args, result, INVALID_SAD, rng)))
                else:
                    out.append((name, check_affine_bilinear(args, result)))
        return out


def _sad_counter(capture: Capture):
    def count(span, args, kwargs, out):
        a, b, block, seed_du, seed_dv, radius = args
        absdiffs = sad_absdiffs(np.shape(a), block, seed_du, seed_dv, radius)
        span.counts["Mabsdiff"] = absdiffs / 1e6
        if capture.want(span.name):
            kept = (a.copy(), b.copy(), block, seed_du.copy(), seed_dv.copy(), radius)
            capture.add(span.name, kept, out.copy())

    return count


def _bilinear_counter(capture: Capture):
    def count(span, args, kwargs, out):
        tex, matrix, out_h, out_w = args
        span.counts["Msamples"] = out_h * out_w / 1e6
        if capture.want(span.name):
            kept = (np.array(tex, dtype=np.float64), np.array(matrix), out_h, out_w)
            capture.add(span.name, kept, (np.array(out[0]), np.array(out[1])))

    return count


def _flow_counter(span, args, kwargs, out):
    span.counts["valid"] = float(out.valid.sum())
    span.counts["cells"] = float(out.valid.size)


def _conv_forward_counter(span, args, kwargs, out):
    xp, w, _, stride = args
    span.counts["GMAC"] = conv_macs(np.shape(xp), np.shape(w), stride) / 1e9


def _conv_backward_counter(span, args, kwargs, out):
    # Weight and input gradients each cost one forward's MACs.
    xp, w, _, stride = args
    span.counts["GMAC"] = 2 * conv_macs(np.shape(xp), np.shape(w), stride) / 1e9


def patch_points(capture: Capture) -> list[PatchPoint]:
    """Every call site the traced run intercepts."""
    bil = _bilinear_counter(capture)
    return [
        PatchPoint(flow, "sad_volume", "kernels.sad_volume", _sad_counter(capture)),
        PatchPoint(estimator, "compute_flow", "flow.compute_flow", _flow_counter),
        PatchPoint(metrics, "compute_flow", "flow.compute_flow", _flow_counter),
        PatchPoint(estimator, "fit_similarity", "affine.fit_similarity"),
        PatchPoint(estimator, "estimate_sequence", "estimator.estimate_sequence"),
        PatchPoint(estimator, "robust_fit_flow", "estimator.robust_fit_flow"),
        PatchPoint(estimator, "preprocess_pair", "estimator.preprocess_pair"),
        PatchPoint(estimator, "train", "estimator.train"),
        PatchPoint(estimator.BlockMatchEstimator, "estimate", "estimator.estimate_pair"),
        PatchPoint(estimator.LearnedEstimator, "estimate", "estimator.estimate_pair"),
        PatchPoint(cnn, "conv2d_forward", "kernels.conv2d_forward", _conv_forward_counter),
        PatchPoint(
            cnn, "conv2d_backward", "kernels.conv2d_backward", _conv_backward_counter
        ),
        PatchPoint(cnn.ConvRegressor, "loss_and_grads", "cnn.loss_and_grads"),
        PatchPoint(cnn.ConvRegressor, "predict", "cnn.predict"),
        PatchPoint(cnn.Adam, "step", "cnn.Adam.step"),
        PatchPoint(stabilizer, "smooth_trajectory", "smoothing.smooth_trajectory"),
        PatchPoint(stabilizer, "stabilize_video", "stabilizer.stabilize_video"),
        PatchPoint(metrics, "evaluate", "metrics.evaluate"),
        PatchPoint(metrics, "video_stability", "metrics.video_stability"),
        PatchPoint(metrics, "distortion_score", "metrics.distortion_score"),
        PatchPoint(metrics, "cropping_ratio", "metrics.cropping_ratio"),
        PatchPoint(generate, "make_video", "generate.make_video"),
        PatchPoint(generate, "sample_random_pairs", "generate.sample_random_pairs"),
        PatchPoint(generate, "render_video", "synthworld.render_video"),
        PatchPoint(generate, "emit_mark_points", "synthworld.emit_mark_points"),
    ] + [
        PatchPoint(mod, "affine_bilinear", f"{caller}.affine_bilinear", bil)
        for caller, mod in zip(
            BILINEAR_CALLERS, (estimator, metrics, stabilizer, synthworld)
        )
    ]


# (metric, span, quantity, unit).  Quantity is ``calls``, ``s``
# (inclusive seconds), ``self_s``, a ``p50_ms``/``p90_ms`` duration
# percentile, ``valid_frac``, or the name of a computed count.
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("kernels.sad_volume.calls", "kernels.sad_volume", "calls", "count"),
    ("kernels.sad_volume.self_s", "kernels.sad_volume", "self_s", "s"),
    ("kernels.sad_volume.Mabsdiff", "kernels.sad_volume", "Mabsdiff", "Mop-computed"),
    ("flow.compute_flow.calls", "flow.compute_flow", "calls", "count"),
    ("flow.compute_flow.self_s", "flow.compute_flow", "self_s", "s"),
    ("flow.compute_flow.valid_frac", "flow.compute_flow", "valid_frac", "frac"),
    ("metrics.evaluate.s", "metrics.evaluate", "s", "s"),
    ("metrics.video_stability.s", "metrics.video_stability", "s", "s"),
    ("metrics.distortion_score.self_s", "metrics.distortion_score", "self_s", "s"),
    ("metrics.cropping_ratio.s", "metrics.cropping_ratio", "s", "s"),
    ("kernels.conv2d_forward.calls", "kernels.conv2d_forward", "calls", "count"),
    ("kernels.conv2d_forward.self_s", "kernels.conv2d_forward", "self_s", "s"),
    ("kernels.conv2d_forward.GMAC", "kernels.conv2d_forward", "GMAC", "GMAC-computed"),
    ("kernels.conv2d_backward.calls", "kernels.conv2d_backward", "calls", "count"),
    ("kernels.conv2d_backward.self_s", "kernels.conv2d_backward", "self_s", "s"),
    ("kernels.conv2d_backward.GMAC", "kernels.conv2d_backward", "GMAC", "GMAC-computed"),
    ("cnn.loss_and_grads.self_s", "cnn.loss_and_grads", "self_s", "s"),
    ("cnn.Adam.step.self_s", "cnn.Adam.step", "self_s", "s"),
    ("cnn.predict.self_s", "cnn.predict", "self_s", "s"),
    ("estimator.train.s", "estimator.train", "s", "s"),
    ("estimator.estimate_sequence.s", "estimator.estimate_sequence", "s", "s"),
    ("estimator.pair_ms_p50", "estimator.estimate_pair", "p50_ms", "ms"),
    ("estimator.pair_ms_p90", "estimator.estimate_pair", "p90_ms", "ms"),
    ("estimator.robust_fit_flow.self_s", "estimator.robust_fit_flow", "self_s", "s"),
    ("estimator.preprocess_pair.self_s", "estimator.preprocess_pair", "self_s", "s"),
    ("affine.fit_similarity.calls", "affine.fit_similarity", "calls", "count"),
    ("affine.fit_similarity.self_s", "affine.fit_similarity", "self_s", "s"),
    ("smoothing.smooth_trajectory.s", "smoothing.smooth_trajectory", "s", "s"),
    ("stabilizer.stabilize_video.self_s", "stabilizer.stabilize_video", "self_s", "s"),
    ("synthworld.render_video.s", "synthworld.render_video", "s", "s"),
    ("synthworld.emit_mark_points.s", "synthworld.emit_mark_points", "s", "s"),
] + [
    row
    for caller in BILINEAR_CALLERS
    for row in (
        (f"{caller}.affine_bilinear.calls", f"{caller}.affine_bilinear", "calls", "count"),
        (f"{caller}.affine_bilinear.self_s", f"{caller}.affine_bilinear", "self_s", "s"),
        (
            f"{caller}.affine_bilinear.Msamples",
            f"{caller}.affine_bilinear",
            "Msamples",
            "Msample-computed",
        ),
    )
]


# Accuracy of the estimator layer against ground truth, from the
# traced run's untraced first pass: (metric, workload metric, unit).
ACCURACY_METRICS = [
    ("estimator.bm_trans_err_px", "bm_trans_err_px", "px"),
    ("estimator.bm_rot_err_mrad", "bm_rot_err_mrad", "mrad"),
    ("estimator.learned_trans_err_px", "learned_trans_err_px", "px"),
    ("estimator.learned_rot_err_mrad", "learned_rot_err_mrad", "mrad"),
]


# Which end-to-end metric a change in each layer should move, by
# metric-name prefix; the first matching prefix applies.
FLOW_MOVES = (
    "throughput on stabilize_bm and evaluate_oracle; on train_small only "
    "through preprocessing"
)
MOVES: list[tuple[str, str]] = [
    ("kernels.sad_volume", FLOW_MOVES),
    ("flow.compute_flow.valid_frac", "must not drop on any workload"),
    ("flow.compute_flow", FLOW_MOVES),
    ("metrics.", "throughput on evaluate_oracle only; none on the other two"),
    ("kernels.conv2d", "throughput on train_small only"),
    ("cnn.", "throughput on train_small only"),
    ("estimator.preprocess_pair", "throughput on train_small"),
    ("estimator.affine_bilinear", "throughput on train_small"),
    ("estimator.train", "throughput on train_small"),
    ("estimator.learned", "must not change: gates conv and training numerics"),
    ("estimator.bm", "must not change: gates flow and fit numerics"),
    ("affine.fit_similarity.calls", "stabilize_bm (small); per pair: trimming rounds"),
    ("estimator.", "throughput on stabilize_bm (small); bm errors unchanged"),
    ("affine.", "throughput on stabilize_bm (small); bm errors unchanged"),
    ("smoothing.", "throughput on stabilize_bm (under 2%)"),
    ("stabilizer.stabilize_video", "throughput on stabilize_bm (under 2%)"),
    ("stabilizer.affine_bilinear", "setup_s on evaluate_oracle, throughput on stabilize_bm"),
    ("synthworld.", "setup_s on all workloads"),
    ("trace.", "none: cost and coverage of the traced run itself"),
]


def moves(metric: str) -> str:
    return next((text for prefix, text in MOVES if metric.startswith(prefix)), "")


def _quantity(st: LayerStats, q: str) -> float:
    if q == "calls":
        return st.calls
    if q == "s":
        return st.total_s
    if q == "self_s":
        return st.self_s
    if q in ("p50_ms", "p90_ms"):
        if not st.durations:
            return 0.0
        pct = 50 if q == "p50_ms" else 90
        return 1e3 * float(np.percentile(st.durations, pct))
    if q == "valid_frac":
        cells = st.counts.get("cells", 0.0)
        return st.counts.get("valid", 0.0) / cells if cells else 0.0
    return st.counts.get(q, 0.0)


def layer_metrics(stats: dict[str, LayerStats]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; a layer the workload does not use reads 0."""
    return {
        metric: (_quantity(stats.get(span, LayerStats()), q), unit)
        for metric, span, q, unit in LAYER_METRICS
    }
