"""On-disk dataset layout and file formats.

A dataset is a directory of video subdirectories.  Each video holds
binary PGM frames (``frame_%06d.pgm``), the tracked-point observations
(``marks.txt``), the per-pair motion parameters (``gt_affine.txt``),
and a ``manifest.txt`` with the video's shape and seed.  All writers
are atomic (temp file + rename) and all text is UTF-8.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineParams
from .errors import IoFailureError
from .synthworld import MarkRecord

FRAME_PATTERN = "frame_%06d.pgm"
MANIFEST_KEYS = ("n_frames", "fps", "width", "height", "seed", "n_layers")


def format_param_float(v: float) -> str:
    """Fixed 18-significant-digit form; round-trips float64 exactly."""
    return f"{float(v):.17e}"


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write a file atomically via a sibling temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# PGM frames
# ---------------------------------------------------------------------------


def encode_pgm(frame: np.ndarray) -> bytes:
    """Serialize a 2D uint8 array as binary PGM (P5, maxval 255)."""
    arr = np.asarray(frame)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise IoFailureError(
            f"PGM frames must be 2D uint8, got shape {arr.shape} dtype {arr.dtype}"
        )
    h, w = arr.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + arr.tobytes(order="C")


def write_pgm(path: str, frame: np.ndarray) -> None:
    atomic_write_bytes(path, encode_pgm(frame))


def decode_pgm(payload: bytes, path: str = "<memory>") -> np.ndarray:
    """Parse binary PGM bytes into a 2D uint8 array."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(payload):
            if payload[pos : pos + 1].isspace():
                pos += 1
            elif payload[pos : pos + 1] == b"#":
                while pos < len(payload) and payload[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(payload) and not payload[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise IoFailureError(f"truncated PGM header in {path}")
        return payload[start:pos]

    try:
        magic = next_token()
        if magic != b"P5":
            raise IoFailureError(f"{path}: expected P5 magic, got {magic!r}")
        w = int(next_token())
        h = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise IoFailureError(f"{path}: malformed PGM header: {exc}") from exc
    if maxval != 255:
        raise IoFailureError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    data = payload[pos : pos + w * h]
    if len(data) != w * h:
        raise IoFailureError(
            f"{path}: expected {w * h} pixel bytes, found {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def read_pgm(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    return decode_pgm(payload, path)


# ---------------------------------------------------------------------------
# Text records
# ---------------------------------------------------------------------------


def params_to_line(p: AffineParams) -> str:
    return " ".join(
        format_param_float(v) for v in (p.tx, p.ty, p.theta, p.s)
    )


def params_from_line(line: str, path: str = "<memory>") -> AffineParams:
    parts = line.split()
    if len(parts) != 4:
        raise IoFailureError(f"{path}: expected 4 fields, got {len(parts)}: {line!r}")
    try:
        tx, ty, theta, s = (float(v) for v in parts)
    except ValueError as exc:
        raise IoFailureError(f"{path}: bad float in {line!r}") from exc
    return AffineParams(tx, ty, theta, s)


def write_params_file(path: str, params: list[AffineParams]) -> None:
    atomic_write_text(path, "".join(params_to_line(p) + "\n" for p in params))


def read_params_file(path: str) -> list[AffineParams]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    return [params_from_line(ln, path) for ln in lines]


def write_marks(path: str, records: list[MarkRecord]) -> None:
    ordered = sorted(records, key=lambda r: (r.frame_id, r.uid))
    lines = [f"{r.frame_id} {r.uid} {float(r.x)!r} {float(r.y)!r}" for r in ordered]
    atomic_write_text(path, "".join(ln + "\n" for ln in lines))


def read_marks(path: str) -> list[MarkRecord]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    records = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 4:
            raise IoFailureError(f"{path}: expected 4 fields, got {ln!r}")
        try:
            records.append(
                MarkRecord(int(parts[1]), int(parts[0]), float(parts[2]), float(parts[3]))
            )
        except ValueError as exc:
            raise IoFailureError(f"{path}: bad value in {ln!r}") from exc
    return records


def write_manifest(path: str, values: dict) -> None:
    missing = [k for k in MANIFEST_KEYS if k not in values]
    if missing:
        raise IoFailureError(f"manifest missing keys: {missing}")
    lines = [f"{k}={values[k]}" for k in MANIFEST_KEYS]
    atomic_write_text(path, "".join(ln + "\n" for ln in lines))


def read_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    values: dict = {}
    for ln in lines:
        if "=" not in ln:
            raise IoFailureError(f"{path}: expected key=value, got {ln!r}")
        key, _, val = ln.partition("=")
        values[key.strip()] = val.strip()
    for key in MANIFEST_KEYS:
        if key not in values:
            raise IoFailureError(f"{path}: missing manifest key {key}")
        values[key] = int(values[key])
    return values


# ---------------------------------------------------------------------------
# Videos and datasets
# ---------------------------------------------------------------------------


@dataclass
class VideoData:
    """One synthetic video with its ground truth, in memory."""

    video_id: str
    frames: list[np.ndarray]
    fps: int
    seed: int
    n_layers: int
    marks: list[MarkRecord] = field(default_factory=list)
    gt: list[AffineParams] = field(default_factory=list)

    @property
    def width(self) -> int:
        return int(self.frames[0].shape[1])

    @property
    def height(self) -> int:
        return int(self.frames[0].shape[0])


@dataclass
class DatasetManifest:
    """Index of the videos found in (or written to) a dataset root."""

    root: str
    video_ids: list[str]


def write_video_dir(directory: str, video: VideoData) -> None:
    """Write one video's frames and ground-truth files."""
    os.makedirs(directory, exist_ok=True)
    for i, frame in enumerate(video.frames):
        write_pgm(os.path.join(directory, FRAME_PATTERN % i), frame)
    write_marks(os.path.join(directory, "marks.txt"), video.marks)
    write_params_file(os.path.join(directory, "gt_affine.txt"), video.gt)
    write_manifest(
        os.path.join(directory, "manifest.txt"),
        {
            "n_frames": len(video.frames),
            "fps": video.fps,
            "width": video.width,
            "height": video.height,
            "seed": video.seed,
            "n_layers": video.n_layers,
        },
    )


def write_dataset(root: str, videos: list[VideoData]) -> DatasetManifest:
    """Write every video under ``root``; returns the resulting index."""
    os.makedirs(root, exist_ok=True)
    for video in videos:
        write_video_dir(os.path.join(root, video.video_id), video)
    return DatasetManifest(root, [v.video_id for v in videos])


def read_frames(directory: str, n_frames: int) -> list[np.ndarray]:
    return [
        read_pgm(os.path.join(directory, FRAME_PATTERN % i)) for i in range(n_frames)
    ]


def read_video_dir(directory: str) -> VideoData:
    """Load one video directory back into memory."""
    manifest = read_manifest(os.path.join(directory, "manifest.txt"))
    frames = read_frames(directory, manifest["n_frames"])
    for frame in frames:
        if frame.shape != (manifest["height"], manifest["width"]):
            raise IoFailureError(
                f"{directory}: frame shape {frame.shape} contradicts manifest"
            )
    marks_path = os.path.join(directory, "marks.txt")
    gt_path = os.path.join(directory, "gt_affine.txt")
    marks = read_marks(marks_path) if os.path.exists(marks_path) else []
    gt = read_params_file(gt_path) if os.path.exists(gt_path) else []
    if gt and len(gt) != manifest["n_frames"] - 1:
        raise IoFailureError(
            f"{directory}: {len(gt)} ground-truth pairs for {manifest['n_frames']} frames"
        )
    return VideoData(
        video_id=os.path.basename(os.path.normpath(directory)),
        frames=frames,
        fps=manifest["fps"],
        seed=manifest["seed"],
        n_layers=manifest["n_layers"],
        marks=marks,
        gt=gt,
    )


def list_video_dirs(root: str) -> list[str]:
    """Video subdirectories of a dataset root, sorted by name."""
    if not os.path.isdir(root):
        raise IoFailureError(f"dataset root {root} is not a directory")
    out = []
    for name in sorted(os.listdir(root)):
        sub = os.path.join(root, name)
        if os.path.isdir(sub) and os.path.exists(os.path.join(sub, "manifest.txt")):
            out.append(sub)
    return out


def is_video_dir(path: str) -> bool:
    return os.path.isdir(path) and os.path.exists(os.path.join(path, "manifest.txt"))
