"""Tests for on-disk formats: PGM frames, parameter files, marks, manifests."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from synthstab.affine import AffineParams
from synthstab.cli import load_config
from synthstab.dataset import (
    FRAME_PATTERN,
    MANIFEST_KEYS,
    VideoData,
    atomic_write_text,
    decode_pgm,
    encode_pgm,
    format_param_float,
    is_video_dir,
    list_video_dirs,
    params_from_line,
    params_to_line,
    read_manifest,
    read_marks,
    read_params_file,
    read_pgm,
    read_video_dir,
    write_manifest,
    write_marks,
    write_params_file,
    write_pgm,
    write_video_dir,
)
from synthstab.errors import IoFailureError
from synthstab.synthworld import MARK_DTYPE

# ---------------------------------------------------------------------------
# PGM round trips
# ---------------------------------------------------------------------------


def test_pgm_round_trip_bytes():
    rng = np.random.default_rng(3)
    frame = rng.integers(0, 256, size=(17, 23)).astype(np.uint8)
    back = decode_pgm(encode_pgm(frame))
    np.testing.assert_array_equal(back, frame)


def test_pgm_header_layout():
    frame = np.arange(6, dtype=np.uint8).reshape(2, 3)
    payload = encode_pgm(frame)
    assert payload.startswith(b"P5\n3 2\n255\n")
    assert payload[len(b"P5\n3 2\n255\n"):] == bytes(range(6))


def test_pgm_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    frame = rng.integers(0, 256, size=(31, 9)).astype(np.uint8)
    path = str(tmp_path / "frame.pgm")
    write_pgm(path, frame)
    np.testing.assert_array_equal(read_pgm(path), frame)


def test_pgm_decode_accepts_comments():
    payload = b"P5\n# a comment line\n2 2\n255\n\x00\x01\x02\x03"
    frame = decode_pgm(payload)
    np.testing.assert_array_equal(frame, [[0, 1], [2, 3]])


def test_pgm_rejects_bad_inputs(tmp_path):
    with pytest.raises(IoFailureError):
        encode_pgm(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(IoFailureError):
        encode_pgm(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(IoFailureError):
        decode_pgm(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(IoFailureError):
        decode_pgm(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(IoFailureError):
        decode_pgm(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(IoFailureError):
        decode_pgm(b"P5\n")
    with pytest.raises(IoFailureError):
        read_pgm(str(tmp_path / "missing.pgm"))


# ---------------------------------------------------------------------------
# Parameter files
# ---------------------------------------------------------------------------


def test_format_param_float_round_trips_exactly():
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = float(rng.normal(scale=10.0 ** rng.integers(-8, 8)))
        assert float(format_param_float(v)) == v
    assert float(format_param_float(math.pi)) == math.pi


def test_params_line_round_trip():
    p = AffineParams(1.25, -3.75, 0.6154797086703873, 1.0000000000000002)
    q = params_from_line(params_to_line(p))
    assert (q.tx, q.ty, q.theta, q.s) == (p.tx, p.ty, p.theta, p.s)


def test_params_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    params = [
        AffineParams(
            float(rng.normal()), float(rng.normal()),
            float(rng.uniform(-3.1, 3.1)), float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(25)
    ]
    path = str(tmp_path / "gt_affine.txt")
    write_params_file(path, params)
    back = read_params_file(path)
    assert len(back) == 25
    for p, q in zip(params, back):
        assert (q.tx, q.ty, q.theta, q.s) == (p.tx, p.ty, p.theta, p.s)


def test_params_line_errors():
    with pytest.raises(IoFailureError):
        params_from_line("1.0 2.0 3.0")
    with pytest.raises(IoFailureError):
        params_from_line("a b c d")


# ---------------------------------------------------------------------------
# Marks and manifests
# ---------------------------------------------------------------------------


def test_marks_round_trip_sorted(tmp_path):
    marks = np.array(
        [(1, 2, 4.5, -1.25), (0, 1, 0.1, 0.2), (1, 1, 0.3, 0.4)], dtype=MARK_DTYPE
    )
    path = str(tmp_path / "marks.txt")
    write_marks(path, marks)
    assert open(path).read() == "0 1 0.1 0.2\n1 1 0.3 0.4\n1 2 4.5 -1.25\n"
    back = read_marks(path)
    assert back.dtype == MARK_DTYPE
    assert back[["frame", "uid"]].tolist() == [(0, 1), (1, 1), (1, 2)]
    assert back[2].tolist() == (1, 2, 4.5, -1.25)


def test_marks_bad_line(tmp_path):
    path = str(tmp_path / "marks.txt")
    atomic_write_text(path, "0 1 2.0\n")
    with pytest.raises(IoFailureError):
        read_marks(path)


@pytest.mark.parametrize(
    "text",
    [
        "0 1 2.0 3.0\n1 1 2.0 3.0\n0 1 4.0 5.0\n",  # (0, 1) twice
        "0 1.5 2.0 3.0\n",  # non-integer uid
        "x 1 2.0 3.0\n",  # non-integer frame
        "0 99999999999999999999 2.0 3.0\n",  # uid beyond int64
    ],
)
def test_marks_reject_repeated_or_non_integer_ids(tmp_path, text):
    path = str(tmp_path / "marks.txt")
    atomic_write_text(path, text)
    with pytest.raises(IoFailureError):
        read_marks(path)


def test_empty_marks_file_reads_as_empty_array(tmp_path):
    path = str(tmp_path / "marks.txt")
    atomic_write_text(path, "")
    back = read_marks(path)
    assert back.dtype == MARK_DTYPE and back.shape == (0,)


def test_manifest_round_trip(tmp_path):
    values = {
        "n_frames": 12, "fps": 24, "width": 128,
        "height": 96, "seed": 42, "n_layers": 2,
    }
    path = str(tmp_path / "manifest.txt")
    write_manifest(path, values)
    assert read_manifest(path) == values
    text = open(path).read()
    assert text.splitlines()[0] == "n_frames=12"


@pytest.mark.parametrize("line", ["fps=abc", "n_frames=0", "n_frames=-2", "width=1.5"])
def test_manifest_rejects_bad_values(tmp_path, line):
    values = {k: "8" for k in MANIFEST_KEYS}
    key, _, value = line.partition("=")
    values[key] = value
    path = str(tmp_path / "manifest.txt")
    atomic_write_text(path, "".join(f"{k}={v}\n" for k, v in values.items()))
    with pytest.raises(IoFailureError, match=key):
        read_manifest(path)


@pytest.mark.parametrize(
    "reader", [read_params_file, read_marks, read_manifest, load_config]
)
def test_non_utf8_file_is_an_io_failure(tmp_path, reader):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"n_frames=4\n\xff\n")
    with pytest.raises(IoFailureError):
        reader(str(path))


def test_manifest_missing_key(tmp_path):
    with pytest.raises(IoFailureError):
        write_manifest(str(tmp_path / "m.txt"), {"n_frames": 1})
    path = str(tmp_path / "m2.txt")
    atomic_write_text(path, "n_frames=3\nfps=24\n")
    with pytest.raises(IoFailureError):
        read_manifest(path)
    assert set(MANIFEST_KEYS) == {
        "n_frames", "fps", "width", "height", "seed", "n_layers"
    }


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def test_atomic_write_no_temp_residue(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello\n")
    assert open(path).read() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_overwrites(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert open(path).read() == "two\n"


# ---------------------------------------------------------------------------
# Video directories
# ---------------------------------------------------------------------------


def make_video(rng: np.random.Generator, n_frames: int = 4) -> VideoData:
    frames = [
        rng.integers(0, 256, size=(24, 32)).astype(np.uint8) for _ in range(n_frames)
    ]
    marks = np.array([(i, 0, 1.0 * i, 2.0 * i) for i in range(n_frames)], dtype=MARK_DTYPE)
    gt = [AffineParams(0.5, -0.25, 0.01, 1.001) for _ in range(n_frames - 1)]
    return VideoData(
        video_id="video_0000", frames=frames, fps=24, seed=9, n_layers=1,
        marks=marks, gt=gt,
    )


def test_video_dir_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    video = make_video(rng)
    directory = str(tmp_path / "video_0000")
    write_video_dir(directory, video)
    assert is_video_dir(directory)
    back = read_video_dir(directory)
    assert back.video_id == "video_0000"
    assert back.fps == 24 and back.seed == 9 and back.n_layers == 1
    assert back.width == 32 and back.height == 24
    assert len(back.frames) == 4
    for a, b in zip(video.frames, back.frames):
        np.testing.assert_array_equal(a, b)
    assert back.marks.tobytes() == video.marks.tobytes()
    assert len(back.gt) == 3
    assert back.gt[0].tx == 0.5


def test_video_dir_frame_naming(tmp_path):
    rng = np.random.default_rng(17)
    video = make_video(rng, n_frames=3)
    directory = str(tmp_path / "v")
    write_video_dir(directory, video)
    names = sorted(os.listdir(directory))
    assert FRAME_PATTERN % 0 == "frame_000000.pgm"
    assert names == [
        "frame_000000.pgm", "frame_000001.pgm", "frame_000002.pgm",
        "gt_affine.txt", "manifest.txt", "marks.txt",
    ]


def test_video_dir_without_marks_or_gt(tmp_path):
    rng = np.random.default_rng(31)
    video = make_video(rng, n_frames=2)
    video.marks = np.empty(0, MARK_DTYPE)
    video.gt = []
    directory = str(tmp_path / "v")
    write_video_dir(directory, video)
    assert sorted(os.listdir(directory)) == [
        "frame_000000.pgm", "frame_000001.pgm", "manifest.txt",
    ]
    back = read_video_dir(directory)
    assert back.marks.dtype == MARK_DTYPE and len(back.marks) == 0
    assert back.gt == []


def test_video_dir_gt_length_check(tmp_path):
    rng = np.random.default_rng(19)
    video = make_video(rng)
    video.gt = video.gt[:1]
    directory = str(tmp_path / "bad")
    write_video_dir(directory, video)
    with pytest.raises(IoFailureError):
        read_video_dir(directory)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    videos = []
    for i in range(3):
        v = make_video(rng)
        v.video_id = f"video_{i:04d}"
        videos.append(v)
    root = tmp_path / "data"
    for v in reversed(videos):
        write_video_dir(str(root / v.video_id), v)
    # Neither a directory without a manifest nor a file is a video.
    (root / "notes").mkdir()
    (root / "notes.txt").write_text("x", encoding="utf-8")
    dirs = list_video_dirs(str(root))
    assert [os.path.basename(d) for d in dirs] == ["video_0000", "video_0001", "video_0002"]
    for d, v in zip(dirs, videos):
        np.testing.assert_array_equal(read_video_dir(d).frames[2], v.frames[2])
    with pytest.raises(IoFailureError):
        list_video_dirs(str(tmp_path / "nowhere"))


def test_frame_shape_contradicting_manifest(tmp_path):
    rng = np.random.default_rng(29)
    video = make_video(rng)
    directory = str(tmp_path / "v")
    write_video_dir(directory, video)
    write_pgm(
        os.path.join(directory, FRAME_PATTERN % 1),
        np.zeros((8, 8), dtype=np.uint8),
    )
    with pytest.raises(IoFailureError):
        read_video_dir(directory)
