"""Command-line interface.

Subcommands: ``generate`` (synthetic shaky videos), ``train`` (the two
learned regressors), ``stabilize`` (one video directory), ``evaluate``
(one stabilized video or a whole dataset).  Option precedence is
command line, then config file, then built-in defaults.  Exit codes:
0 success, 2 validation, 3 training, 4 file I/O, 5 evaluation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dataset as ds
from .affine import AffineParams
from .errors import (
    AllFramesFailedError,
    DegenerateError,
    FrameMismatchError,
    InvalidSpecError,
    IoFailureError,
    NonFiniteLossError,
    SeriesTooShortError,
    SynthStabError,
)
from .estimator import LearnedEstimator, TrainConfig, estimate_sequence, save_weights, train
from .generate import GenerateConfig, generate_dataset, sample_random_pairs
from .metrics import MetricsConfig, MetricsReport, batch_summary_rows, evaluate, write_report
from .smoothing import write_trajectory_csv
from .stabilizer import CropWindow, StabilizationResult, stabilize_video
from .synthworld import TEXTURE_STYLES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TRAINING = 3
EXIT_IO = 4
EXIT_EVALUATION = 5


def load_config(path: str | None) -> dict[str, str]:
    """Parse a UTF-8 ``key=value`` config file; ``#`` starts a comment."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InvalidSpecError(
                f"{path}:{lineno}: expected key=value, got {line.strip()!r}"
            )
        key, _, value = text.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidSpecError(f"config key {key} is not a boolean: {text!r}")


class Options:
    """Merged view of CLI args, config file, and defaults."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]) -> None:
        self._args = args
        self._config = config

    def get(self, name: str, default, cast=None):
        cli_value = getattr(self._args, name, None)
        if cli_value is not None:
            return cli_value
        if name in self._config:
            text = self._config[name]
            if cast is bool or isinstance(default, bool):
                return _parse_bool(text, name)
            caster = cast or type(default)
            try:
                return caster(text)
            except ValueError as exc:
                raise InvalidSpecError(
                    f"config key {name} has invalid value {text!r}"
                ) from exc
        return default


def _check_output_dir(path: str, force: bool) -> None:
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise InvalidSpecError(
            f"output directory {path} is not empty; pass --force to overwrite"
        )
    if os.path.isfile(path):
        raise InvalidSpecError(f"output path {path} is a file")


def _check_output_file(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise InvalidSpecError(
            f"output file {path} exists; pass --force to overwrite"
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace, config: dict[str, str]) -> int:
    opts = Options(args, config)
    seed = opts.get("seed", 0)
    print(f"seed: {seed}")
    out = args.out
    cfg = GenerateConfig(
        n_videos=opts.get("n_videos", 5),
        n_frames=opts.get("n_frames", 200),
        width=opts.get("width", 128),
        height=opts.get("height", 128),
        fps=opts.get("fps", 24),
        seed=seed,
        n_layers=opts.get("n_layers", 1),
        texture_style=opts.get("texture", "mixed"),
        mark_points=opts.get("mark_points", 16),
        mark_beta_frames=opts.get("mark_beta_frames", 24),
        mark_period=opts.get("mark_period", 12),
    )
    _check_output_dir(out, args.force)
    manifest = generate_dataset(out, cfg)
    for video_id in manifest.video_ids:
        print(f"wrote {os.path.join(out, video_id)} ({cfg.n_frames} frames)")
    return EXIT_OK


def cmd_train(args: argparse.Namespace, config: dict[str, str]) -> int:
    opts = Options(args, config)
    seed = opts.get("seed", 0)
    print(f"seed: {seed}")
    use_flow = not opts.get("no_flow_channel", False, cast=bool)
    cfg = TrainConfig(
        learning_rate=opts.get("learning_rate", 1e-4),
        adam_beta1=opts.get("adam_beta1", 0.9),
        adam_beta2=opts.get("adam_beta2", 0.999),
        adam_eps=opts.get("adam_eps", 1e-8),
        batch_size=opts.get("batch_size", 40),
        epochs_tr=opts.get("epochs_tr", 65),
        epochs_rs=opts.get("epochs_rs", 2),
        lr_drop_epoch=opts.get("lr_drop_epoch", 10),
        lr_after_drop=opts.get("lr_after_drop", 1e-5),
        dropout_rate=opts.get("dropout_rate", 0.5),
        input_side=opts.get("input_side", 64),
        use_flow=use_flow,
        seed=seed,
    )
    _check_output_file(args.out, args.force)
    n_pairs = opts.get("n_pairs", 500)
    print(f"sampling {n_pairs} training pairs")
    samples = sample_random_pairs(
        n_pairs,
        side=cfg.input_side,
        max_translation=opts.get("max_translation", 8.0),
        max_rotation=opts.get("max_rotation", 0.05),
        max_scale_delta=opts.get("max_scale_delta", 0.03),
        seed=seed,
    )
    result = train(samples, cfg)
    save_weights(args.out, result)
    for name in ("translation", "rotscale"):
        rows = [row for row in result.log if row[0] == name]
        if rows:
            print(f"{name}: {len(rows)} epochs, final loss {rows[-1][2]:.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_stabilize_outputs(
    out_dir: str,
    video: ds.VideoData,
    result: StabilizationResult,
    backend: str,
    window: int,
    polyorder: int,
    crop_ratio: float,
    est_warnings: list[str],
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, frame in enumerate(result.frames):
        ds.write_pgm(os.path.join(out_dir, ds.FRAME_PATTERN % i), frame)
    write_trajectory_csv(
        os.path.join(out_dir, "trajectory.csv"),
        result.raw_trajectory,
        result.smoothing.smoothed,
    )
    ds.write_params_file(
        os.path.join(out_dir, "applied_transforms.txt"), result.applied
    )
    ds.write_manifest(
        os.path.join(out_dir, "manifest.txt"),
        {
            "n_frames": len(result.frames),
            "fps": video.fps,
            "width": result.crop.width,
            "height": result.crop.height,
            "seed": video.seed,
            "n_layers": video.n_layers,
        },
    )
    fractions = result.valid_fractions
    lines = [
        f"backend: {backend}",
        f"window: {window}",
        f"polyorder: {polyorder}",
        f"crop_ratio: {float(crop_ratio)!r}",
        f"crop_x0: {result.crop.x0}",
        f"crop_y0: {result.crop.y0}",
        f"crop_width: {result.crop.width}",
        f"crop_height: {result.crop.height}",
        f"min_valid_fraction: {float(min(fractions))!r}",
        f"mean_valid_fraction: {float(np.mean(fractions))!r}",
        f"n_substituted_pairs: {len(est_warnings)}",
    ]
    lines.extend(f"warning: {msg}" for msg in est_warnings)
    lines.extend(f"warning: {msg}" for msg in result.warnings)
    ds.atomic_write_text(
        os.path.join(out_dir, "stabilize_report.txt"),
        "".join(ln + "\n" for ln in lines),
    )


def cmd_stabilize(args: argparse.Namespace, config: dict[str, str]) -> int:
    opts = Options(args, config)
    seed = opts.get("seed", 0)
    print(f"seed: {seed}")
    backend = opts.get("backend", "blockmatch")
    window = opts.get("window", 51)
    polyorder = opts.get("polyorder", 1)
    crop = opts.get("crop", 0.8)
    out_dir = args.out or os.path.join(args.input, "stabilized")
    _check_output_dir(out_dir, args.force)
    video = ds.read_video_dir(args.input)
    weights = None
    if backend == "learned":
        weights_path = opts.get("weights", None, cast=str)
        if not weights_path:
            raise InvalidSpecError("learned backend requires --weights")
        weights = LearnedEstimator.from_file(weights_path)
        if opts.get("no_flow_channel", False, cast=bool) and weights.use_flow:
            raise InvalidSpecError(
                "--no-flow-channel conflicts with weights trained on flow input"
            )
    estimates, est_warnings = estimate_sequence(
        video.frames,
        backend,
        marks=video.marks if backend == "oracle" else None,
        weights=weights,
    )
    result = stabilize_video(
        video.frames,
        estimates,
        window=window,
        polyorder=polyorder,
        crop_ratio=crop,
    )
    _write_stabilize_outputs(
        out_dir, video, result, backend, window, polyorder, crop, est_warnings
    )
    for msg in est_warnings:
        print(f"warning: {msg}", file=sys.stderr)
    print(
        f"wrote {len(result.frames)} frames to {out_dir} "
        f"(crop {result.crop.width}x{result.crop.height}, "
        f"min valid fraction {min(result.valid_fractions):.4f})"
    )
    return EXIT_OK


def _evaluate_one(
    original_dir: str, stabilized_dir: str, cfg: MetricsConfig
) -> MetricsReport:
    orig = ds.read_video_dir(original_dir)
    stab_manifest = ds.read_manifest(os.path.join(stabilized_dir, "manifest.txt"))
    stab_frames = ds.read_frames(stabilized_dir, stab_manifest["n_frames"])
    applied_path = os.path.join(stabilized_dir, "applied_transforms.txt")
    if os.path.exists(applied_path):
        applied = ds.read_params_file(applied_path)
    else:
        # No stabilizer metadata: treat the frames as a plain crop.
        applied = [AffineParams.identity() for _ in stab_frames]
    cw, ch = stab_manifest["width"], stab_manifest["height"]
    crop = CropWindow(
        (orig.width - cw) // 2, (orig.height - ch) // 2, cw, ch
    )
    return evaluate(orig.frames, stab_frames, applied, crop, cfg)


def cmd_evaluate(args: argparse.Namespace, config: dict[str, str]) -> int:
    opts = Options(args, config)
    seed = opts.get("seed", 0)
    print(f"seed: {seed}")
    cfg = MetricsConfig(
        translation_mode=opts.get("translation_mode", "magnitude", cast=str),
        block_size=opts.get("metric_block_size", 16),
    )
    if args.batch:
        root = args.batch
        entries: list[tuple[str, MetricsReport]] = []
        for video_dir in ds.list_video_dirs(root):
            if os.path.basename(video_dir) == "stabilized":
                continue
            stab_dir = os.path.join(video_dir, "stabilized")
            video_id = os.path.basename(video_dir)
            if not ds.is_video_dir(stab_dir):
                print(
                    f"warning: {video_id} has no stabilized output, skipping",
                    file=sys.stderr,
                )
                continue
            try:
                report = _evaluate_one(video_dir, stab_dir, cfg)
            except (
                AllFramesFailedError,
                SeriesTooShortError,
                DegenerateError,
                FrameMismatchError,
            ) as exc:
                print(f"warning: {video_id} failed: {exc}", file=sys.stderr)
                report = MetricsReport(
                    stability_translation=float("nan"),
                    stability_rotation=float("nan"),
                    stability_avg=float("nan"),
                    original_stability_translation=float("nan"),
                    original_stability_rotation=float("nan"),
                    original_stability_avg=float("nan"),
                    distortion=float("nan"),
                    cropping=float("nan"),
                    success=False,
                    warnings=[str(exc)],
                )
            write_report(os.path.join(stab_dir, "report.txt"), report)
            entries.append((video_id, report))
        if not entries:
            raise AllFramesFailedError(f"no evaluable videos under {root}")
        summary_path = args.summary or os.path.join(root, "batch_summary.csv")
        ds.atomic_write_text(summary_path, batch_summary_rows(entries))
        n_ok = sum(1 for _, r in entries if r.success)
        print(f"evaluated {len(entries)} videos, {n_ok} successful")
        print(f"wrote {summary_path}")
        return EXIT_OK
    if not args.original or not args.stabilized:
        raise InvalidSpecError(
            "evaluate needs either --batch or both --original and --stabilized"
        )
    report = _evaluate_one(args.original, args.stabilized, cfg)
    report_path = args.report or os.path.join(args.stabilized, "report.txt")
    write_report(report_path, report)
    for key, value in report.rows():
        print(f"{key}: {value}")
    print(f"wrote {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master random seed")
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument(
        "--force", action="store_true", help="overwrite existing outputs"
    )

    parser = argparse.ArgumentParser(
        prog="synthstab",
        description="Synthetic video generation, motion estimation, and stabilization.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate", parents=[common], help="render a synthetic shaky dataset"
    )
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--n-videos", dest="n_videos", type=int, default=None)
    p.add_argument("--n-frames", dest="n_frames", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--fps", type=int, default=None)
    p.add_argument("--n-layers", dest="n_layers", type=int, default=None)
    p.add_argument(
        "--texture",
        choices=TEXTURE_STYLES + ("random",),
        default=None,
        help="texture style for every video",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "train", parents=[common], help="train the learned motion estimator"
    )
    p.add_argument("--out", required=True, help="weights file to write")
    p.add_argument("--n-pairs", dest="n_pairs", type=int, default=None)
    p.add_argument("--input-side", dest="input_side", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs-tr", dest="epochs_tr", type=int, default=None)
    p.add_argument("--epochs-rs", dest="epochs_rs", type=int, default=None)
    p.add_argument(
        "--learning-rate", dest="learning_rate", type=float, default=None
    )
    p.add_argument(
        "--lr-drop-epoch", dest="lr_drop_epoch", type=int, default=None
    )
    p.add_argument(
        "--lr-after-drop", dest="lr_after_drop", type=float, default=None
    )
    p.add_argument("--dropout", dest="dropout_rate", type=float, default=None)
    p.add_argument(
        "--no-flow-channel",
        dest="no_flow_channel",
        action="store_true",
        default=None,
        help="train on the two grayscale channels only",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "stabilize", parents=[common], help="stabilize one video directory"
    )
    p.add_argument("--input", required=True, help="video directory to stabilize")
    p.add_argument(
        "--out", default=None, help="output directory (default INPUT/stabilized)"
    )
    p.add_argument(
        "--backend", choices=("oracle", "blockmatch", "learned"), default=None
    )
    p.add_argument("--weights", default=None, help="weights file (learned backend)")
    p.add_argument(
        "--no-flow-channel",
        dest="no_flow_channel",
        action="store_true",
        default=None,
        help="reject weights that expect flow input",
    )
    p.add_argument("--window", type=int, default=None, help="smoothing window")
    p.add_argument("--polyorder", type=int, default=None)
    p.add_argument("--crop", type=float, default=None, help="crop side ratio")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser(
        "evaluate", parents=[common], help="score stabilization quality"
    )
    p.add_argument("--original", default=None, help="original video directory")
    p.add_argument("--stabilized", default=None, help="stabilized video directory")
    p.add_argument("--report", default=None, help="report path (single mode)")
    p.add_argument(
        "--batch", default=None, help="dataset root with per-video stabilized dirs"
    )
    p.add_argument("--summary", default=None, help="batch summary CSV path")
    p.add_argument(
        "--translation-mode",
        dest="translation_mode",
        choices=("magnitude", "separate"),
        default=None,
    )
    p.set_defaults(func=cmd_evaluate)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonFiniteLossError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except IoFailureError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        AllFramesFailedError,
        SeriesTooShortError,
        DegenerateError,
        FrameMismatchError,
    ) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except SynthStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
