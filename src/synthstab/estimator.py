"""Per-pair motion estimation backends and the training loop.

Three interchangeable backends produce the similarity parameters
between consecutive frames: ``oracle`` fits tracked mark points,
``blockmatch`` fits block-matching flow robustly, and ``learned`` runs
two trained regressors (translation head and rotation/scale head).

Both regressors take the same ``INPUT_CHANNELS`` = 4 channels: the two
resized grayscale frames and the two components of their block flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .affine import AffineParams, apply_transform, fit_similarity, params_to_matrix, wrap_angle
from .cnn import Adam, ConvRegressor, NetworkShape, Workspace, load_tensors, save_tensors
from .dataset import atomic_write_text
from .errors import (
    InvalidSpecError,
    IoFailureError,
    MeasurementError,
    NonFiniteLossError,
    SynthStabError,
)
from .flow import BLOCK_SIZE, FlowField, compute_flow, flow_to_dense, stack_frames
from .generate import PairSample
from .kernels import affine_bilinear
from .synthworld import pair_correspondences

ROBUST_ROUNDS = 3
ROBUST_FACTOR = 3.0
MIN_FLOW_CELLS = 8
MIN_PREDICTED_SCALE = 0.01
# Frame a, frame b, flow u, flow v.
INPUT_CHANNELS = 4
# Pairs per compute_flow call of build_training_arrays: the flow of
# 1,200 64x64 pairs peaks at a fraction of one call's memory and takes
# no longer (table in CHANGES.md).
TRAIN_FLOW_GROUP = 100


# ---------------------------------------------------------------------------
# Block-matching backend
# ---------------------------------------------------------------------------


def robust_fit_flow(flow: FlowField) -> AffineParams:
    """Similarity fit of valid flow cells with median-residual trimming."""
    mask = flow.valid.ravel()
    if int(mask.sum()) < MIN_FLOW_CELLS:
        raise MeasurementError(
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
    batch_size: int = 40
    epochs_tr: int = 65
    epochs_rs: int = 2
    lr_drop_epoch: int = 10
    lr_after_drop: float = 1e-5
    dropout_rate: float = 0.5
    input_side: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidSpecError("batch_size must be at least 1")
        if self.epochs_tr < 1 or self.epochs_rs < 1:
            raise InvalidSpecError("epoch counts must be at least 1")
        if self.input_side < 16:
            raise InvalidSpecError("input_side must be at least 16")


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
    flow: FlowField | None = None,
) -> tuple[np.ndarray, float]:
    """Stack the ``INPUT_CHANNELS`` network inputs; returns
    (INPUT_CHANNELS, S, S) and the translation scale factor between
    original and network pixels.  ``flow`` is the pair's precomputed
    flow field, computed here when absent.

    An S x S frame is copied, not resampled: ``_resize_matrix`` is then
    the identity, which samples every pixel at its own integer position
    with zero weight on the neighbours and so returns each value
    unchanged (flow components are never -0.0, whose sign a zero-weight
    neighbour could flip).
    """
    fa = np.asarray(frame_a)
    fb = np.asarray(frame_b)
    if fa.shape != fb.shape or fa.ndim != 2:
        raise MeasurementError(f"bad frame pair shapes {fa.shape} vs {fb.shape}")
    if flow is None:
        flow = compute_flow(fa, fb)
    x = np.empty((INPUT_CHANNELS, input_side, input_side))
    h, w = fa.shape
    m, r = _resize_matrix(h, w, input_side)
    du, dv = flow_to_dense(flow, h, w)
    for c, channel in enumerate((fa / 255.0, fb / 255.0, du * r, dv * r)):
        if h == w == input_side:
            x[c] = channel
        else:
            x[c], _ = affine_bilinear(channel, m, input_side, input_side)
    return x, r


def build_training_arrays(
    samples: list[PairSample], cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compact training set: frames, block flow and target rows.

    Returns the ``(n, 2, S, S)`` uint8 frames of every pair, their
    ``(n, 2, nby, nbx)`` block flow (u, v) from stacked ``compute_flow``
    calls of ``TRAIN_FLOW_GROUP`` pairs each, and the translation and
    rotation/scale targets.  :func:`write_inputs` expands a batch of
    them into network inputs.  Frames must be S x S, so network pixels
    are frame pixels and the translation scale factor is 1.
    """
    side = cfg.input_side
    shapes = sorted({np.shape(f) for s in samples for f in (s.frame_a, s.frame_b)})
    if shapes != [(side, side)]:
        raise InvalidSpecError(f"training frames must be {side}x{side}, got {shapes}")
    frames = np.empty((len(samples), 2, side, side), dtype=np.uint8)
    for p, s in enumerate(samples):
        frames[p, 0] = s.frame_a
        frames[p, 1] = s.frame_b
    # Each pair's flow is bit-identical to a call on that pair alone, so
    # the group size changes memory and time only.
    flow = np.empty((len(samples), 2, side // BLOCK_SIZE, side // BLOCK_SIZE))
    for g in range(0, len(samples), TRAIN_FLOW_GROUP):
        group = slice(g, g + TRAIN_FLOW_GROUP)
        part = compute_flow(frames[group, 0], frames[group, 1])
        flow[group, 0] = part.u
        flow[group, 1] = part.v
    t_tr = np.array([(s.params.tx, s.params.ty) for s in samples], dtype=np.float64)
    t_rs = np.array([(s.params.theta, s.params.s) for s in samples], dtype=np.float64)
    return frames, flow, t_tr, t_rs


def write_inputs(dst: np.ndarray, frames: np.ndarray, flow: np.ndarray, rows: np.ndarray) -> None:
    """Write the network inputs of pairs ``rows`` into ``dst``.

    ``dst`` is an (len(rows), INPUT_CHANNELS, S, S) view, such as the
    first layer's padded interior; ``frames`` and ``flow`` are those of
    :func:`build_training_arrays`.  The bits equal
    :func:`preprocess_pair`'s: frames divided by 255, and each block's
    flow over its tile, the last block row and column repeated over any
    pixels the block grid leaves.
    """
    np.divide(frames[rows], 255.0, out=dst[:, :2])
    nby, nbx = flow.shape[2:]
    h, w = nby * BLOCK_SIZE, nbx * BLOCK_SIZE
    # The block grid's tiles, as a view: setting .shape raises rather
    # than copy.
    tiles = dst[:, 2:, :h, :w]
    tiles.shape = (len(rows), 2, nby, BLOCK_SIZE, nbx, BLOCK_SIZE)
    tiles[...] = flow[rows][:, :, :, None, :, None]
    dst[:, 2:, h:] = dst[:, 2:, h - 1 : h]
    dst[:, 2:, :, w:] = dst[:, 2:, :, w - 1 : w]


@dataclass
class TrainResult:
    tensors: dict[str, np.ndarray]
    log: list[tuple[str, int, float]]
    config: TrainConfig


def _train_one(
    name: str,
    frames: np.ndarray,
    flow: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    epochs: int,
    workspace: Workspace,
    drop_lr: bool,
    seed: int,
) -> tuple[ConvRegressor, np.ndarray, np.ndarray, list[tuple[str, int, float]]]:
    mean = targets.mean(axis=0)
    std = np.maximum(targets.std(axis=0), 1e-8)
    t_std = (targets - mean) / std
    shape = NetworkShape(
        in_channels=INPUT_CHANNELS,
        input_side=cfg.input_side,
        dropout_rate=cfg.dropout_rate,
    )
    net = ConvRegressor(shape, seed=seed, workspace=workspace)
    opt = Adam(cfg.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    n = len(frames)
    log: list[tuple[str, int, float]] = []
    for epoch in range(epochs):
        if drop_lr and epoch == cfg.lr_drop_epoch:
            opt.lr = cfg.lr_after_drop
        order = rng.permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            mask = net.make_dropout_mask(len(idx), rng)
            loss, grads = net.loss_and_grads(
                lambda dst: write_inputs(dst, frames, flow, idx), t_std[idx], dropout_mask=mask
            )
            if not math.isfinite(loss):
                raise NonFiniteLossError(name, epoch, bi)
            opt.step(net.params, grads)
            losses.append(loss)
        log.append((name, epoch, float(np.mean(losses))))
    return net, mean, std, log


def train(samples: list[PairSample], cfg: TrainConfig) -> TrainResult:
    """Train the translation and rotation/scale regressors.

    Training keeps the pairs' uint8 frames and block flow, not their
    float64 inputs: each step expands its batch straight into the first
    layer's padded input, so memory grows by about 8 kB per 64 x 64
    pair rather than 131 kB.  The two heads train one after the other
    on one ``Workspace``, which is dropped when this returns.
    """
    if len(samples) < cfg.batch_size:
        raise InvalidSpecError(
            f"need at least one full batch ({cfg.batch_size}), got {len(samples)}"
        )
    frames, flow, t_tr, t_rs = build_training_arrays(samples, cfg)
    ws = Workspace()
    net_tr, mean_tr, std_tr, log_tr = _train_one(
        "translation", frames, flow, t_tr, cfg, cfg.epochs_tr, ws,
        drop_lr=True, seed=cfg.seed * 2 + 1,
    )
    net_rs, mean_rs, std_rs, log_rs = _train_one(
        "rotscale", frames, flow, t_rs, cfg, cfg.epochs_rs, ws,
        drop_lr=False, seed=cfg.seed * 2 + 2,
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
    return TrainResult(tensors=tensors, log=log_tr + log_rs, config=cfg)


def save_weights(path: str, result: TrainResult) -> None:
    """Write the weights file and its config echo sidecar."""
    save_tensors(path, result.tensors)
    lines = [f"{k}={v}" for k, v in asdict(result.config).items()]
    atomic_write_text(path + ".meta", "".join(ln + "\n" for ln in lines))


class LearnedEstimator:
    """Runs the two trained regressors on a preprocessed frame pair.

    Tensors the regressors do not use, such as the ``meta_use_flow``
    flag that older weights files carry, are ignored.
    """

    def __init__(self, tensors: dict[str, np.ndarray]) -> None:
        def tensor(key: str) -> np.ndarray:
            if key not in tensors:
                raise IoFailureError(f"weights file missing tensor {key}")
            return tensors[key]

        self.input_side = int(tensor("meta_input_side")[0])
        self.nets: dict[str, ConvRegressor] = {}
        self.norms: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        ws = Workspace()
        for prefix in ("tr", "rs"):
            shape = NetworkShape(
                in_channels=INPUT_CHANNELS, input_side=self.input_side, dropout_rate=0.0
            )
            net = ConvRegressor(shape, seed=0, workspace=ws)
            for pname in net.param_names():
                key = f"{prefix}_{pname}"
                if tensor(key).shape != net.params[pname].shape:
                    raise IoFailureError(
                        f"tensor {key} has shape {tensors[key].shape}, "
                        f"expected {net.params[pname].shape}"
                    )
                net.params[pname] = tensors[key].copy()
            self.nets[prefix] = net
            self.norms[prefix] = (
                tensor(f"{prefix}_target_mean").copy(),
                tensor(f"{prefix}_target_std").copy(),
            )

    @classmethod
    def from_file(cls, path: str) -> "LearnedEstimator":
        return cls(load_tensors(path))

    def estimate(
        self, frame_a: np.ndarray, frame_b: np.ndarray, flow: FlowField | None = None
    ) -> AffineParams:
        """Motion from ``frame_a`` to ``frame_b``; ``flow`` is their
        precomputed flow field, computed here when absent."""
        x, r = preprocess_pair(frame_a, frame_b, self.input_side, flow=flow)
        batch = x[None, :, :, :]
        mean_tr, std_tr = self.norms["tr"]
        mean_rs, std_rs = self.norms["rs"]
        out_tr = self.nets["tr"].predict(batch)[0] * std_tr + mean_tr
        out_rs = self.nets["rs"].predict(batch)[0] * std_rs + mean_rs
        if not (np.isfinite(out_tr).all() and np.isfinite(out_rs).all()):
            raise MeasurementError(
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
    marks: np.ndarray | None = None,
    weights: "LearnedEstimator | str | None" = None,
) -> tuple[list[AffineParams], list[str]]:
    """Per-pair motion for a frame list; failed pairs become identity.

    The oracle fits the ``MARK_DTYPE`` array ``marks``, exact up to
    the solver.  Returns the estimates and a warning string per
    substituted pair.
    """
    if backend not in BACKENDS:
        raise InvalidSpecError(f"unknown backend {backend!r}, options: {BACKENDS}")
    if len(frames) < 2:
        raise InvalidSpecError("need at least two frames")
    if backend == "oracle":
        if marks is None:
            raise InvalidSpecError("oracle backend requires mark records")
        runner = lambda i: fit_similarity(*pair_correspondences(marks, i))
    else:
        if backend == "learned":
            if weights is None:
                raise InvalidSpecError("learned backend requires weights")
            learned = (
                weights
                if isinstance(weights, LearnedEstimator)
                else LearnedEstimator.from_file(weights)
            )
            fit = lambda i, flow: learned.estimate(frames[i], frames[i + 1], flow)
        else:
            fit = lambda i, flow: robust_fit_flow(flow)
        try:
            stack = stack_frames(frames)
            flows = compute_flow(stack[:-1], stack[1:])
        except MeasurementError as exc:
            # The frames of the clip, not one pair, fail the check, so
            # every pair fails with it.
            failure = exc

            def runner(i: int) -> AffineParams:
                raise failure

        else:
            runner = lambda i: fit(i, flows.pair(i))

    def attempt(i: int) -> tuple[AffineParams, str | None]:
        try:
            return runner(i), None
        except SynthStabError as exc:
            return AffineParams.identity(), f"pair {i}: {exc}; substituted identity"

    results = [attempt(i) for i in range(len(frames) - 1)]
    return [e for e, _ in results], [w for _, w in results if w is not None]
