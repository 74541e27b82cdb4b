"""Tests for the command-line entry point, driven through ``cli.run``."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from synthstab import cli, errors
from synthstab import dataset as ds
from synthstab.affine import AffineParams, wrap_angle
from synthstab.estimator import estimate_sequence
from synthstab.generate import GenerateConfig, generate_dataset, video_seed
from synthstab.metrics import evaluate, write_report
from synthstab.stabilizer import stabilize_video


def _tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("n_videos=1\nn_frames=10\nwidth=64\nheight=64\n", encoding="utf-8")
    return str(path)


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generate_is_byte_identical_and_quiet_about_kernels(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.run(["generate", "--config", cfg, "--out", str(first)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "wrote" in out
    assert "kernel backend:" not in out
    assert cli.run(["generate", "--force", "--config", cfg, "--out", str(second)]) == cli.EXIT_OK
    files = _files(first)
    assert len(files) == 13  # 10 frames, gt_affine, manifest, marks
    assert files == _files(second)


def test_threads_option_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.run(["--threads", "4", "generate", "--out", str(tmp_path / "out")])
    assert info.value.code == 2


def test_generate_into_non_empty_dir_needs_force(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("x", encoding="utf-8")
    args = ["generate", "--config", _tiny_config(tmp_path), "--out", str(out)]
    assert cli.run(args) == errors.InvalidSpecError.exit_code
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("n_layers", ["0", "-1"])
def test_generate_rejects_fewer_than_one_layer(tmp_path, n_layers):
    out = tmp_path / "out"
    args = ["generate", "--config", _tiny_config(tmp_path), "--n-layers", n_layers]
    assert cli.run(args + ["--out", str(out)]) == errors.InvalidSpecError.exit_code
    assert not out.exists()


def test_missing_config_is_an_io_error(tmp_path):
    missing = str(tmp_path / "missing.cfg")
    argv = ["generate", "--config", missing, "--out", str(tmp_path / "out")]
    assert cli.run(argv) == errors.IoFailureError.exit_code


def _shared_at(position, shared, rest, command="generate"):
    """``command`` argv with the shared options before or after the subcommand."""
    if position == "before":
        return shared + [command] + rest
    return [command] + shared + rest


@pytest.mark.parametrize("position", ["before", "after"])
def test_seed_is_honoured_in_either_position(tmp_path, capsys, position):
    out = tmp_path / "out"
    argv = _shared_at(position, ["--seed", "3"], ["--config", _tiny_config(tmp_path), "--out", str(out)])
    assert cli.run(argv) == cli.EXIT_OK
    assert "seed: 3" in capsys.readouterr().out.splitlines()
    manifest = next(out.rglob("manifest.txt")).read_text(encoding="utf-8")
    assert f"seed={video_seed(3, 0)}" in manifest.splitlines()


@pytest.mark.parametrize("command, rest", [("stabilize", ["--input"]), ("evaluate", ["--batch"])])
@pytest.mark.parametrize("position", ["before", "after"])
def test_seed_is_rejected_where_nothing_reads_it(tmp_path, capsys, position, command, rest):
    # A missing input alone would raise an IoFailureError.
    argv = _shared_at(position, ["--seed", "3"], rest + [str(tmp_path / "missing")], command)
    assert cli.run(argv) == errors.InvalidSpecError.exit_code
    assert f"{command} takes no --seed" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["before", "after"])
def test_missing_config_is_an_io_error_in_either_position(tmp_path, position):
    missing = str(tmp_path / "missing.cfg")
    argv = _shared_at(position, ["--config", missing], ["--out", str(tmp_path / "out")])
    assert cli.run(argv) == errors.IoFailureError.exit_code


@pytest.mark.parametrize("position", ["before", "after"])
def test_force_is_honoured_in_either_position(tmp_path, position):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("x", encoding="utf-8")
    argv = _shared_at(position, ["--force"], ["--config", _tiny_config(tmp_path), "--out", str(out)])
    assert cli.run(argv) == cli.EXIT_OK
    assert (out / "keep.txt").exists() and len(list(out.rglob("manifest.txt"))) == 1


@pytest.mark.parametrize("line", ["texture_style=checker", "n_frame=99"])
def test_config_key_the_command_does_not_read_is_rejected(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_videos=1\nwidth=64\nheight=64\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["generate", "--config", str(cfg), "--out", str(out)]
    assert cli.run(argv) == errors.InvalidSpecError.exit_code
    captured = capsys.readouterr()
    assert line.split("=")[0] in captured.err
    assert captured.out == ""
    assert not out.exists()


def _run_ok(argv, capsys):
    """``cli.run`` that must succeed; returns its stdout lines."""
    assert cli.run([str(a) for a in argv]) == cli.EXIT_OK
    return capsys.readouterr().out.splitlines()


def _stabilized(video_dir, backend, weights=None):
    """The library's stabilization of a video directory."""
    video = ds.read_video_dir(str(video_dir))
    marks = video.marks if backend == "oracle" else None
    est, _ = estimate_sequence(video.frames, backend, marks=marks, weights=weights)
    return video, stabilize_video(video.frames, est)


def _library_report(path, video, result):
    write_report(str(path), evaluate(video.frames, result.frames, result.applied, result.crop))
    return path.read_bytes()


def test_round_trip_matches_the_library(tmp_path, capsys):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("n_videos=2\nn_frames=12\nwidth=64\nheight=64\n", encoding="utf-8")
    data, ref = tmp_path / "data", tmp_path / "ref"
    _run_ok(["generate", "--config", gen_cfg, "--texture", "random", "--out", data], capsys)
    want = GenerateConfig(n_videos=2, n_frames=12, width=64, height=64, texture_style="random")
    generate_dataset(str(ref), want)
    assert _files(data) == _files(ref)
    # Each key changes the output, so the equality above shows that it arrived.
    for field, changed in (("texture_style", ds.FRAME_PATTERN % 1),):
        other = tmp_path / field
        generate_dataset(str(other), replace(want, **{field: getattr(GenerateConfig(), field)}))
        rel = f"video_000/{changed}"
        assert (other / rel).read_bytes() != (ref / rel).read_bytes()

    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "n_pairs=8\nbatch_size=4\nepochs_tr=1\nepochs_rs=1\ninput_side=16\n", encoding="utf-8"
    )
    weights = tmp_path / "w.bin"
    _run_ok(["train", "--config", train_cfg, "--out", weights], capsys)
    meta = (tmp_path / "w.bin.meta").read_text(encoding="utf-8").splitlines()
    assert "batch_size=4" in meta and "input_side=16" in meta

    # Defaults spelled out; weights is read, and ignored, by every backend.
    stab_cfg = tmp_path / "stab.cfg"
    stab_cfg.write_text("crop=0.8\nweights=unused.bin\n", encoding="utf-8")
    video_dir = data / "video_000"
    for backend in ("oracle", "blockmatch", "learned"):
        out, report = tmp_path / backend, tmp_path / f"{backend}_report.txt"
        argv = ["stabilize", "--config", stab_cfg, "--input", video_dir, "--backend", backend]
        if backend == "learned":
            argv += ["--weights", weights]
        lines = _run_ok(argv + ["--out", out], capsys)
        argv = ["evaluate", "--original", video_dir, "--stabilized", out, "--report", report]
        lines += _run_ok(argv, capsys)
        assert not any(ln.startswith("seed:") for ln in lines)
        video, result = _stabilized(video_dir, backend, str(weights))
        ds.write_params_file(str(tmp_path / "applied.txt"), result.applied)
        applied = (out / "applied_transforms.txt").read_bytes()
        assert applied == (tmp_path / "applied.txt").read_bytes()
        assert report.read_bytes() == _library_report(tmp_path / "want.txt", video, result)

    videos = sorted(p for p in data.iterdir() if p.is_dir())
    for video_dir in videos:
        _run_ok(["stabilize", "--input", video_dir, "--backend", "oracle"], capsys)
    _run_ok(["evaluate", "--batch", data], capsys)
    for video_dir in videos:
        got = (video_dir / "stabilized" / "report.txt").read_bytes()
        want_report = _library_report(tmp_path / "want.txt", *_stabilized(video_dir, "oracle"))
        assert got == want_report


def test_trajectory_csv_matches_the_world_oracle(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_videos=1\nn_frames=20\nwidth=64\nheight=64\nn_layers=1\n", encoding="utf-8")
    data = tmp_path / "data"
    _run_ok(["generate", "--config", cfg, "--out", data], capsys)
    video_dir = data / "video_000"
    _run_ok(["stabilize", "--input", video_dir, "--backend", "oracle"], capsys)
    stab = video_dir / "stabilized"
    lines = (stab / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "frame,tx_hat,ty_hat,th_hat,logs_hat,tx_tilde,ty_tilde,th_tilde,logs_tilde"
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    assert [row[0] for row in rows] == list(range(19))
    table = np.array(rows)
    hat, tilde = table[:, 1:5], table[:, 5:9]

    # The raw path is the running sum of the world's per-pair motion.
    gt = ds.read_params_file(str(video_dir / "gt_affine.txt"))
    steps = np.diff(hat, axis=0, prepend=0.0)
    want = np.array([[p.tx, p.ty, p.theta, math.log(p.s)] for p in gt])
    np.testing.assert_allclose(steps, want, rtol=0.0, atol=1e-9)

    # Frame i+1 is warped by the negated raw-minus-smoothed pose of pair i.
    applied = ds.read_params_file(str(stab / "applied_transforms.txt"))
    assert applied[0] == AffineParams.identity() and len(applied) == len(rows) + 1
    for (tx, ty, th, log_s), (sx, sy, sth, slog_s), got in zip(hat, tilde, applied[1:]):
        assert got.tx == -(tx - sx) and got.ty == -(ty - sy)
        assert got.theta == wrap_angle(-(th - sth)) and got.s == math.exp(-(log_s - slog_s))


def _set_manifest(video_dir, key, value):
    path = video_dir / "manifest.txt"
    lines = path.read_text(encoding="utf-8").splitlines(True)
    path.write_text(
        "".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln for ln in lines),
        encoding="utf-8",
    )


def _keep_five_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines(True)
    path.write_text("".join(lines[:5]), encoding="utf-8")


def _shrink_stabilized_frame(video_dir):
    frame = video_dir / "stabilized" / (ds.FRAME_PATTERN % 1)
    ds.write_pgm(str(frame), np.zeros((8, 8), np.uint8))


@pytest.mark.parametrize(
    "command, corrupt",
    [
        pytest.param("evaluate", _shrink_stabilized_frame, id="stabilized-frame-shape"),
        pytest.param(
            "evaluate",
            lambda d: _set_manifest(d / "stabilized", "n_frames", 0),
            id="stabilized-no-frames",
        ),
        pytest.param(
            "evaluate",
            lambda d: _keep_five_lines(d / "stabilized" / "applied_transforms.txt"),
            id="applied-truncated",
        ),
        pytest.param("stabilize", lambda d: _set_manifest(d, "fps", "abc"), id="fps-abc"),
        pytest.param(
            "stabilize",
            lambda d: (d / "marks.txt").write_bytes(b"0 1 2.0 3.0\n\xff\n"),
            id="marks-not-utf8",
        ),
    ],
)
def test_corrupt_video_directory_is_an_io_error(tmp_path, capsys, command, corrupt):
    data = tmp_path / "data"
    _run_ok(["generate", "--config", _tiny_config(tmp_path), "--out", data], capsys)
    video_dir = data / "video_000"
    _run_ok(["stabilize", "--input", video_dir, "--backend", "oracle"], capsys)
    corrupt(video_dir)
    if command == "evaluate":
        argv = ["evaluate", "--original", video_dir, "--stabilized", video_dir / "stabilized"]
    else:
        argv = ["stabilize", "--force", "--input", video_dir, "--backend", "oracle"]
    assert cli.run([str(a) for a in argv]) == errors.IoFailureError.exit_code
    captured = capsys.readouterr()
    assert captured.err.startswith("io error: ") and captured.out == ""


@pytest.mark.parametrize(
    "command, option",
    [
        ("train", "--no-flow-channel"),
        ("stabilize", "--no-flow-channel"),
        ("evaluate", "--translation-mode"),
        ("generate", "mark_points=6"),
        ("train", "no_flow_channel=1"),
        ("train", "adam_eps=1e-07"),
        ("train", "max_translation=4.0"),
        ("stabilize", "no_flow_channel=1"),
        ("evaluate", "translation_mode=magnitude"),
        ("evaluate", "metric_block_size=16"),
    ],
)
def test_removed_option_exits_2_and_names_itself(tmp_path, capsys, command, option):
    out = tmp_path / "out"
    argv = [command] + {
        "generate": ["--out", out],
        "train": ["--out", out],
        "stabilize": ["--input", tmp_path / "missing", "--out", out],
        "evaluate": ["--batch", tmp_path / "missing"],
    }[command]
    if option.startswith("--"):
        argv += [option] + (["magnitude"] if option == "--translation-mode" else [])
        with pytest.raises(SystemExit) as info:
            cli.run([str(a) for a in argv])
        code = info.value.code
    else:
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(option + "\n", encoding="utf-8")
        code = cli.run([str(a) for a in argv + ["--config", cfg]])
    # argparse's usage error and InvalidSpecError share exit code 2.
    assert code == 2
    captured = capsys.readouterr()
    assert option.split("=")[0] in captured.err
    assert captured.out == "" and not out.exists()


def test_bad_translation_mode_is_a_validation_error(tmp_path, capsys):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("translation_mode=foo\n", encoding="utf-8")
    # Missing directories alone would raise an IoFailureError.
    missing = str(tmp_path / "missing")
    argv = ["evaluate", "--config", str(cfg), "--original", missing, "--stabilized", missing]
    assert cli.run(argv) == errors.InvalidSpecError.exit_code
    assert "translation_mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code, stderr",
    [
        (errors.SynthStabError("boom"), 2, "error: boom"),
        (errors.InvalidSpecError("bad spec"), 2, "error: bad spec"),
        (
            errors.NonFiniteLossError("translation", 3, 1),
            3,
            "training error: non-finite loss in translation at epoch 3, batch 1",
        ),
        (errors.IoFailureError("bad file"), 4, "io error: bad file"),
        (errors.MeasurementError("no signal"), 5, "evaluation error: no signal"),
    ],
    ids=["base", "invalid-spec", "non-finite-loss", "io-failure", "measurement"],
)
def test_each_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch, error, code, stderr):
    def fail(args, config):
        raise error

    monkeypatch.setattr(cli, "cmd_generate", fail)
    assert cli.run(["generate", "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.err == stderr + "\n" and captured.out == ""


def _short_clip(tmp_path, capsys, n_frames):
    """A one-video dataset stabilized with the oracle; returns (data, video_dir)."""
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"n_videos=1\nn_frames={n_frames}\nwidth=64\nheight=64\n", encoding="utf-8")
    data = tmp_path / "data"
    _run_ok(["generate", "--config", cfg, "--out", data], capsys)
    video_dir = data / "video_000"
    _run_ok(["stabilize", "--input", video_dir, "--backend", "oracle"], capsys)
    return data, video_dir


def test_too_short_clip_is_an_evaluation_error_or_a_nan_row(tmp_path, capsys):
    data, video_dir = _short_clip(tmp_path, capsys, 6)
    argv = ["evaluate", "--original", video_dir, "--stabilized", video_dir / "stabilized"]
    assert cli.run([str(a) for a in argv]) == errors.MeasurementError.exit_code
    captured = capsys.readouterr()
    assert captured.err == "evaluation error: stability needs at least 8 samples, got 5\n"
    assert captured.out == ""
    _run_ok(["evaluate", "--batch", data], capsys)
    rows = (data / "batch_summary.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1:] == ["video_000,nan,nan,nan,false"]


def _report_window(video_dir, out):
    lines = (video_dir / out / "stabilize_report.txt").read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines if ln.startswith("window: ")]


def test_stabilize_report_records_the_window_used(tmp_path, capsys):
    # 24 frames are 23 pairs: the default 51 shrinks to 23, and 10 to 9.
    _, video_dir = _short_clip(tmp_path, capsys, 24)
    argv = ["stabilize", "--input", video_dir, "--backend", "oracle", "--window", "10"]
    _run_ok(argv + ["--out", video_dir / "w10"], capsys)
    assert _report_window(video_dir, "stabilized") == ["window: 23"]
    assert _report_window(video_dir, "w10") == ["window: 9"]
    # One pair is too short a path to smooth.
    (tmp_path / "two").mkdir()
    _, video_dir = _short_clip(tmp_path / "two", capsys, 2)
    assert _report_window(video_dir, "stabilized") == ["window: 0"]


def test_negative_polyorder_is_rejected_on_a_path_too_short_to_smooth(tmp_path, capsys):
    _, video_dir = _short_clip(tmp_path, capsys, 2)
    argv = ["stabilize", "--input", video_dir, "--backend", "oracle", "--out", video_dir / "bad"]
    argv += ["--window", "0", "--polyorder", "-1"]
    assert cli.run([str(a) for a in argv]) == errors.InvalidSpecError.exit_code
    captured = capsys.readouterr()
    assert captured.err == "error: polyorder must be >= 0, got -1\n" and captured.out == ""
    assert not (video_dir / "bad").exists()


# An even window smooths with the odd one below it: 2 with 1.
@pytest.mark.parametrize("window", ["0", "2"])
def test_too_small_window_is_named_as_given(tmp_path, capsys, window):
    _, video_dir = _short_clip(tmp_path, capsys, 24)
    argv = ["stabilize", "--input", video_dir, "--backend", "oracle", "--out", video_dir / "bad"]
    argv += ["--window", window]
    assert cli.run([str(a) for a in argv]) == errors.InvalidSpecError.exit_code
    captured = capsys.readouterr()
    assert captured.err == f"error: window {window} too small for polyorder 1\n"
    assert captured.out == ""
