"""Per-pair motion estimation backends and the training loop.

Three interchangeable backends produce the similarity parameters
between consecutive frames: ``oracle`` fits tracked mark points,
``blockmatch`` fits block-matching flow robustly, and ``learned`` runs
two trained regressors (translation head and rotation/scale head).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .affine import AffineParams, apply_transform, fit_similarity, params_to_matrix, wrap_angle
from .cnn import Adam, ConvRegressor, NetworkShape, load_tensors, save_tensors
from .dataset import atomic_write_text
from .errors import (
    DegenerateFlowError,
    FrameMismatchError,
    InvalidSpecError,
    IoFailureError,
    NonFiniteEstimateError,
    NonFiniteLossError,
    ShapeMismatchError,
    SynthStabError,
)
from .flow import FlowField, compute_flow, flow_to_dense, stack_frames
from .generate import PairSample
from .kernels import affine_bilinear
from .synthworld import MarkRecord, marks_by_frame, pair_correspondences

ROBUST_ROUNDS = 3
ROBUST_FACTOR = 3.0
MIN_FLOW_CELLS = 8
MIN_PREDICTED_SCALE = 0.01


# ---------------------------------------------------------------------------
# Oracle backend
# ---------------------------------------------------------------------------


class OracleEstimator:
    """Fits the ground-truth mark tracks; exact up to the solver."""

    def __init__(self, marks: list[MarkRecord]) -> None:
        self._by_frame = marks_by_frame(marks)

    def estimate(self, pair_index: int) -> AffineParams:
        return fit_similarity(*pair_correspondences(self._by_frame, pair_index))


# ---------------------------------------------------------------------------
# Block-matching backend
# ---------------------------------------------------------------------------


def robust_fit_flow(flow: FlowField) -> AffineParams:
    """Similarity fit of valid flow cells with median-residual trimming."""
    mask = flow.valid.ravel()
    if int(mask.sum()) < MIN_FLOW_CELLS:
        raise DegenerateFlowError(
            f"only {int(mask.sum())} trustworthy flow cells, need {MIN_FLOW_CELLS}"
        )
    centers = flow.block_centers()[mask]
    u = flow.u.ravel()[mask]
    v = flow.v.ravel()[mask]
    # Median prepass: the least-squares seed fit tolerates far fewer
    # outliers than the component-wise median does, so drop cells whose
    # vector strays from the median flow before the first fit.
    du = u - float(np.median(u))
    dv = v - float(np.median(v))
    dev = np.hypot(du, dv)
    limit = max(3.0, ROBUST_FACTOR * float(np.median(dev)))
    coarse_keep = dev <= limit
    if int(coarse_keep.sum()) >= MIN_FLOW_CELLS:
        centers = centers[coarse_keep]
        u = u[coarse_keep]
        v = v[coarse_keep]
    dst = centers + np.stack([u, v], axis=1)
    src = centers
    params = fit_similarity(src, dst)
    for _ in range(ROBUST_ROUNDS):
        pred = apply_transform(params_to_matrix(params), src)
        residuals = np.hypot(pred[:, 0] - dst[:, 0], pred[:, 1] - dst[:, 1])
        med = float(np.median(residuals))
        if med <= 1e-12:
            break
        keep = residuals <= ROBUST_FACTOR * med
        if keep.all() or int(keep.sum()) < 2:
            break
        src = src[keep]
        dst = dst[keep]
        params = fit_similarity(src, dst)
    return params


class BlockMatchEstimator:
    """Block-matching flow plus a trimmed least-squares similarity fit.

    This is the one-pair API; ``estimate_sequence`` runs the flow of a
    whole clip in one stacked ``compute_flow`` call instead.
    """

    def estimate(self, frame_a: np.ndarray, frame_b: np.ndarray) -> AffineParams:
        return robust_fit_flow(compute_flow(frame_a, frame_b))


# ---------------------------------------------------------------------------
# Learned backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and data-layout settings for the two regressors."""

    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 40
    epochs_tr: int = 65
    epochs_rs: int = 2
    lr_drop_epoch: int = 10
    lr_after_drop: float = 1e-5
    dropout_rate: float = 0.5
    input_side: int = 64
    use_flow: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidSpecError("batch_size must be at least 1")
        if self.epochs_tr < 1 or self.epochs_rs < 1:
            raise InvalidSpecError("epoch counts must be at least 1")
        if self.input_side < 16:
            raise InvalidSpecError("input_side must be at least 16")

    @property
    def n_channels(self) -> int:
        return 4 if self.use_flow else 2


def _resize_matrix(h: int, w: int, side: int) -> tuple[np.ndarray, float]:
    """Sampling matrix mapping output pixels to source pixels, plus scale."""
    r = side / min(h, w)
    m = np.array(
        [
            [1.0 / r, 0.0, (w - 1) / 2.0 - (side - 1) / (2.0 * r)],
            [0.0, 1.0 / r, (h - 1) / 2.0 - (side - 1) / (2.0 * r)],
        ]
    )
    return m, r


def preprocess_pair(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    input_side: int,
    use_flow: bool,
    flow: FlowField | None = None,
) -> tuple[np.ndarray, float]:
    """Stack the network input channels; returns (C, S, S) and the
    translation scale factor between original and network pixels."""
    fa = np.asarray(frame_a)
    fb = np.asarray(frame_b)
    if fa.shape != fb.shape or fa.ndim != 2:
        raise ShapeMismatchError(f"bad frame pair shapes {fa.shape} vs {fb.shape}")
    h, w = fa.shape
    m, r = _resize_matrix(h, w, input_side)
    ga, _ = affine_bilinear(fa.astype(np.float64) / 255.0, m, input_side, input_side)
    gb, _ = affine_bilinear(fb.astype(np.float64) / 255.0, m, input_side, input_side)
    channels = [ga, gb]
    if use_flow:
        if flow is None:
            flow = compute_flow(fa, fb)
        du, dv = flow_to_dense(flow, h, w)
        su, _ = affine_bilinear(du * r, m, input_side, input_side)
        sv, _ = affine_bilinear(dv * r, m, input_side, input_side)
        channels.extend([su, sv])
    return np.stack(channels, axis=0), r


def build_training_arrays(
    samples: list[PairSample], cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network inputs plus translation and rotation/scale target rows.

    With ``cfg.use_flow`` the flow of every pair comes from one stacked
    ``compute_flow`` call.
    """
    flows = None
    if cfg.use_flow:
        flows = compute_flow(
            stack_frames([s.frame_a for s in samples]),
            stack_frames([s.frame_b for s in samples]),
        )
    xs = []
    t_tr = []
    t_rs = []
    for p, s in enumerate(samples):
        flow = None if flows is None else flows.pair(p)
        x, r = preprocess_pair(s.frame_a, s.frame_b, cfg.input_side, cfg.use_flow, flow=flow)
        xs.append(x)
        t_tr.append((s.params.tx * r, s.params.ty * r))
        t_rs.append((s.params.theta, s.params.s))
    return (
        np.stack(xs, axis=0),
        np.array(t_tr, dtype=np.float64),
        np.array(t_rs, dtype=np.float64),
    )


@dataclass
class TrainResult:
    tensors: dict[str, np.ndarray]
    log: list[tuple[str, int, float]]
    config: TrainConfig


def _train_one(
    name: str,
    x: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    epochs: int,
    drop_lr: bool,
    seed: int,
) -> tuple[ConvRegressor, np.ndarray, np.ndarray, list[tuple[str, int, float]]]:
    mean = targets.mean(axis=0)
    std = np.maximum(targets.std(axis=0), 1e-8)
    t_std = (targets - mean) / std
    shape = NetworkShape(
        in_channels=cfg.n_channels,
        input_side=cfg.input_side,
        dropout_rate=cfg.dropout_rate,
    )
    net = ConvRegressor(shape, seed=seed)
    opt = Adam(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    n = x.shape[0]
    log: list[tuple[str, int, float]] = []
    for epoch in range(epochs):
        if drop_lr and epoch == cfg.lr_drop_epoch:
            opt.lr = cfg.lr_after_drop
        order = rng.permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            mask = net.make_dropout_mask(len(idx), rng)
            loss, grads = net.loss_and_grads(x[idx], t_std[idx], dropout_mask=mask)
            if not math.isfinite(loss):
                raise NonFiniteLossError(name, epoch, bi)
            opt.step(net.params, grads)
            losses.append(loss)
        log.append((name, epoch, float(np.mean(losses))))
    return net, mean, std, log


def train(samples: list[PairSample], cfg: TrainConfig) -> TrainResult:
    """Train the translation and rotation/scale regressors."""
    if len(samples) < cfg.batch_size:
        raise InvalidSpecError(
            f"need at least one full batch ({cfg.batch_size}), got {len(samples)}"
        )
    x, t_tr, t_rs = build_training_arrays(samples, cfg)
    net_tr, mean_tr, std_tr, log_tr = _train_one(
        "translation", x, t_tr, cfg, cfg.epochs_tr, drop_lr=True, seed=cfg.seed * 2 + 1
    )
    net_rs, mean_rs, std_rs, log_rs = _train_one(
        "rotscale", x, t_rs, cfg, cfg.epochs_rs, drop_lr=False, seed=cfg.seed * 2 + 2
    )
    tensors: dict[str, np.ndarray] = {}
    for prefix, net in (("tr", net_tr), ("rs", net_rs)):
        for pname in net.param_names():
            tensors[f"{prefix}_{pname}"] = net.params[pname]
    tensors["tr_target_mean"] = mean_tr
    tensors["tr_target_std"] = std_tr
    tensors["rs_target_mean"] = mean_rs
    tensors["rs_target_std"] = std_rs
    tensors["meta_input_side"] = np.array([float(cfg.input_side)])
    tensors["meta_use_flow"] = np.array([1.0 if cfg.use_flow else 0.0])
    return TrainResult(tensors=tensors, log=log_tr + log_rs, config=cfg)


def save_weights(path: str, result: TrainResult) -> None:
    """Write the weights file and its config echo sidecar."""
    save_tensors(path, result.tensors)
    lines = [f"{k}={v}" for k, v in asdict(result.config).items()]
    atomic_write_text(path + ".meta", "".join(ln + "\n" for ln in lines))


class LearnedEstimator:
    """Runs the two trained regressors on a preprocessed frame pair."""

    def __init__(self, tensors: dict[str, np.ndarray]) -> None:
        try:
            self.input_side = int(tensors["meta_input_side"][0])
            use_flow = bool(tensors["meta_use_flow"][0])
        except KeyError as exc:
            raise IoFailureError(f"weights file missing tensor {exc}") from exc
        self.use_flow = use_flow
        self.nets: dict[str, ConvRegressor] = {}
        self.norms: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for prefix in ("tr", "rs"):
            in_channels = tensors[f"{prefix}_conv1_w"].shape[1]
            shape = NetworkShape(
                in_channels=in_channels, input_side=self.input_side, dropout_rate=0.0
            )
            net = ConvRegressor(shape, seed=0)
            for pname in net.param_names():
                key = f"{prefix}_{pname}"
                if key not in tensors:
                    raise IoFailureError(f"weights file missing tensor {key}")
                if tensors[key].shape != net.params[pname].shape:
                    raise IoFailureError(
                        f"tensor {key} has shape {tensors[key].shape}, "
                        f"expected {net.params[pname].shape}"
                    )
                net.params[pname] = tensors[key].copy()
            self.nets[prefix] = net
            self.norms[prefix] = (
                tensors[f"{prefix}_target_mean"].copy(),
                tensors[f"{prefix}_target_std"].copy(),
            )

    @classmethod
    def from_file(cls, path: str) -> "LearnedEstimator":
        return cls(load_tensors(path))

    def estimate(self, frame_a: np.ndarray, frame_b: np.ndarray) -> AffineParams:
        x, r = preprocess_pair(frame_a, frame_b, self.input_side, self.use_flow)
        batch = x[None, :, :, :]
        mean_tr, std_tr = self.norms["tr"]
        mean_rs, std_rs = self.norms["rs"]
        out_tr = self.nets["tr"].predict(batch)[0] * std_tr + mean_tr
        out_rs = self.nets["rs"].predict(batch)[0] * std_rs + mean_rs
        if not (np.isfinite(out_tr).all() and np.isfinite(out_rs).all()):
            raise NonFiniteEstimateError(
                f"learned network output is not finite: {out_tr.tolist()}, {out_rs.tolist()}"
            )
        s = max(float(out_rs[1]), MIN_PREDICTED_SCALE)
        return AffineParams(
            tx=float(out_tr[0]) / r,
            ty=float(out_tr[1]) / r,
            theta=wrap_angle(float(out_rs[0])),
            s=s,
        )


# ---------------------------------------------------------------------------
# Sequence-level estimation
# ---------------------------------------------------------------------------

BACKENDS = ("oracle", "blockmatch", "learned")


def estimate_sequence(
    frames: list[np.ndarray],
    backend: str,
    marks: list[MarkRecord] | None = None,
    weights: "LearnedEstimator | str | None" = None,
) -> tuple[list[AffineParams], list[str]]:
    """Per-pair motion for a frame list; failed pairs become identity.

    Returns the estimates and a warning string per substituted pair.
    """
    if backend not in BACKENDS:
        raise InvalidSpecError(f"unknown backend {backend!r}, options: {BACKENDS}")
    if len(frames) < 2:
        raise InvalidSpecError("need at least two frames")
    if backend == "oracle":
        if marks is None:
            raise InvalidSpecError("oracle backend requires mark records")
        oracle = OracleEstimator(marks)
        runner = lambda i: oracle.estimate(i)
    elif backend == "blockmatch":
        try:
            stack = stack_frames(frames)
            flows = compute_flow(stack[:-1], stack[1:])
        except FrameMismatchError as exc:
            # The frames of the clip, not one pair, fail the check, so
            # every pair fails with it.
            failure = exc

            def runner(i: int) -> AffineParams:
                raise failure

        else:
            runner = lambda i: robust_fit_flow(flows.pair(i))
    else:
        if weights is None:
            raise InvalidSpecError("learned backend requires weights")
        learned = (
            weights
            if isinstance(weights, LearnedEstimator)
            else LearnedEstimator.from_file(weights)
        )
        runner = lambda i: learned.estimate(frames[i], frames[i + 1])

    def attempt(i: int) -> tuple[AffineParams, str | None]:
        try:
            return runner(i), None
        except SynthStabError as exc:
            return AffineParams.identity(), f"pair {i}: {exc}; substituted identity"

    results = [attempt(i) for i in range(len(frames) - 1)]
    return [e for e, _ in results], [w for _, w in results if w is not None]
