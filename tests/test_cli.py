"""Tests for the command-line entry point, driven through ``cli.run``."""

from __future__ import annotations

import pytest

from synthstab import cli


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
    assert cli.run(args) == cli.EXIT_VALIDATION
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_missing_config_is_an_io_error(tmp_path):
    missing = str(tmp_path / "missing.cfg")
    assert cli.run(["generate", "--config", missing, "--out", str(tmp_path / "out")]) == cli.EXIT_IO
