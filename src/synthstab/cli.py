"""Command-line interface.

Subcommands: ``generate`` (synthetic shaky videos), ``train`` (the two
learned regressors), ``stabilize`` (one video directory), ``evaluate``
(one stabilized video or a whole dataset).  Option precedence is
command line, then config file, then the library's defaults.  Exit codes
come from the error classes (see ``errors``): 0 success, 2 validation
(``InvalidSpecError``), 3 training (``NonFiniteLossError``), 4 file I/O
(``IoFailureError``), 5 evaluation (``MeasurementError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import dataset as ds
from .affine import AffineParams
from .errors import (
    InvalidSpecError,
    IoFailureError,
    MeasurementError,
    SynthStabError,
)
from .estimator import LearnedEstimator, TrainConfig, estimate_sequence, save_weights, train
from .generate import GenerateConfig, generate_dataset, sample_random_pairs
from .metrics import MetricsReport, batch_summary_rows, evaluate, write_report
from .smoothing import SMOOTHING_POLYORDER, SMOOTHING_WINDOW, write_trajectory_csv
from .stabilizer import CROP_RATIO, CropWindow, StabilizationResult, stabilize_video
from .synthworld import TEXTURE_STYLES

EXIT_OK = 0


def load_config(path: str | None) -> dict[str, str]:
    """Parse a UTF-8 ``key=value`` config file; ``#`` starts a comment."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


class Options:
    """Merged view of CLI args, config file, and defaults.

    Records every name it is asked for, so that :meth:`reject_unread`
    can refuse config keys the command never reads.
    """

    def __init__(self, args: argparse.Namespace, config: dict[str, str]) -> None:
        self._args = args
        self._config = config
        self._read: set[str] = set()

    def get(self, name: str, default):
        """The option ``name``; a config value is cast to ``default``'s type."""
        self._read.add(name)
        cli_value = getattr(self._args, name, None)
        if cli_value is not None:
            return cli_value
        if name in self._config:
            text = self._config[name]
            try:
                return type(default)(text)
            except ValueError as exc:
                raise InvalidSpecError(
                    f"config key {name} has invalid value {text!r}"
                ) from exc
        return default

    def fill(self, defaults, **keys):
        """``defaults`` with every field replaced by its option.

        Each field is read from the option of the same name, or of the
        name ``keys`` gives it.
        """
        values = {
            f.name: self.get(keys.get(f.name, f.name), getattr(defaults, f.name))
            for f in dataclasses.fields(defaults)
        }
        return dataclasses.replace(defaults, **values)

    def reject_unread(self) -> None:
        """Raise for config keys that no :meth:`get` call has read.

        Call once the command has read all of its options and before it
        writes anything, so that a mistyped key fails the run.
        """
        unread = sorted(set(self._config) - self._read)
        if unread:
            raise InvalidSpecError(
                f"{self._args.command} does not read config key(s): {', '.join(unread)}"
            )


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
    cfg = opts.fill(GenerateConfig(), texture_style="texture")
    opts.reject_unread()
    print(f"seed: {cfg.seed}")
    out = args.out
    _check_output_dir(out, args.force)
    for video_id in generate_dataset(out, cfg):
        print(f"wrote {os.path.join(out, video_id)} ({cfg.n_frames} frames)")
    return EXIT_OK


def cmd_train(args: argparse.Namespace, config: dict[str, str]) -> int:
    opts = Options(args, config)
    cfg = opts.fill(TrainConfig())
    n_pairs = opts.get("n_pairs", 500)
    opts.reject_unread()
    print(f"seed: {cfg.seed}")
    _check_output_file(args.out, args.force)
    print(f"sampling {n_pairs} training pairs")
    samples = sample_random_pairs(n_pairs, side=cfg.input_side, seed=cfg.seed)
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
    polyorder: int,
    crop_ratio: float,
    est_warnings: list[str],
) -> None:
    write_trajectory_csv(
        os.path.join(out_dir, "trajectory.csv"),
        result.raw_trajectory,
        result.smoothed_trajectory,
    )
    ds.write_params_file(
        os.path.join(out_dir, "applied_transforms.txt"), result.applied
    )
    # After applied_transforms.txt: a manifest without it reads as a
    # plain crop.
    ds.write_video_dir(
        out_dir,
        ds.VideoData(video.video_id, result.frames, video.fps, video.seed, video.n_layers),
    )
    fractions = result.valid_fractions
    lines = [
        f"backend: {backend}",
        f"window: {result.window}",
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
    backend = opts.get("backend", "blockmatch")
    window = opts.get("window", SMOOTHING_WINDOW)
    polyorder = opts.get("polyorder", SMOOTHING_POLYORDER)
    crop = opts.get("crop", CROP_RATIO)
    # Read even where the backend ignores it, so that one config file
    # serves every backend.
    weights_path = opts.get("weights", "")
    opts.reject_unread()
    out_dir = args.out or os.path.join(args.input, "stabilized")
    _check_output_dir(out_dir, args.force)
    video = ds.read_video_dir(args.input)
    weights = None
    if backend == "learned":
        if not weights_path:
            raise InvalidSpecError("learned backend requires --weights")
        weights = LearnedEstimator.from_file(weights_path)
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
        out_dir, video, result, backend, polyorder, crop, est_warnings
    )
    for msg in est_warnings:
        print(f"warning: {msg}", file=sys.stderr)
    print(
        f"wrote {len(result.frames)} frames to {out_dir} "
        f"(crop {result.crop.width}x{result.crop.height}, "
        f"min valid fraction {min(result.valid_fractions):.4f})"
    )
    return EXIT_OK


def _evaluate_one(original_dir: str, stabilized_dir: str) -> MetricsReport:
    orig = ds.read_video_dir(original_dir)
    stab = ds.read_video_dir(stabilized_dir)
    applied_path = os.path.join(stabilized_dir, "applied_transforms.txt")
    if os.path.exists(applied_path):
        applied = ds.read_params_file(applied_path)
        if len(applied) != len(stab.frames):
            raise IoFailureError(
                f"{applied_path}: {len(applied)} transforms for {len(stab.frames)} frames"
            )
    else:
        # No stabilizer metadata: treat the frames as a plain crop.
        applied = [AffineParams.identity() for _ in stab.frames]
    crop = CropWindow(
        (orig.width - stab.width) // 2, (orig.height - stab.height) // 2,
        stab.width, stab.height,
    )
    return evaluate(orig.frames, stab.frames, applied, crop)


def cmd_evaluate(args: argparse.Namespace, config: dict[str, str]) -> int:
    # evaluate reads no option, so every config key is refused.
    Options(args, config).reject_unread()
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
                report = _evaluate_one(video_dir, stab_dir)
            except MeasurementError as exc:
                # One failed video is a NaN row, not a failed batch.
                print(f"warning: {video_id} failed: {exc}", file=sys.stderr)
                report = MetricsReport(*[math.nan] * 8, success=False, warnings=[str(exc)])
            write_report(os.path.join(stab_dir, "report.txt"), report)
            entries.append((video_id, report))
        if not entries:
            raise MeasurementError(f"no evaluable videos under {root}")
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
    report = _evaluate_one(args.original, args.stabilized)
    report_path = args.report or os.path.join(args.stabilized, "report.txt")
    write_report(report_path, report)
    for key, value in report.rows():
        print(f"{key}: {value}")
    print(f"wrote {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _shared_options(top_level: bool) -> argparse.ArgumentParser:
    """``--seed``, ``--config`` and ``--force``, given before or after the subcommand.

    Only the top-level copy sets defaults.  The subcommand's copy sets
    nothing unless given, so it cannot overwrite a value parsed before
    the subcommand.
    """
    unset = None if top_level else argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=unset, help="master random seed (generate, train)"
    )
    common.add_argument("--config", default=unset, help="key=value config file")
    common.add_argument(
        "--force",
        action="store_true",
        default=False if top_level else argparse.SUPPRESS,
        help="overwrite existing outputs",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthstab",
        description="Synthetic video generation, motion estimation, and stabilization.",
        parents=[_shared_options(top_level=True)],
    )
    common = _shared_options(top_level=False)
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
    p.set_defaults(func=cmd_evaluate)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.command in ("stabilize", "evaluate"):
            raise InvalidSpecError(f"{args.command} takes no --seed")
        config = load_config(args.config)
        return args.func(args, config)
    except SynthStabError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
