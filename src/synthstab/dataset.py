"""On-disk dataset layout and file formats.

A dataset is a directory of video subdirectories.  Each video holds
binary PGM frames (``frame_%06d.pgm``) and a ``manifest.txt`` with the
video's shape and seed; the manifest marks the directory as a video.
Two files are optional and written only when the video has them: the
tracked-point observations (``marks.txt``, one ``frame uid x y`` line
each, held in memory as one ``MARK_DTYPE`` array sorted by (frame,
uid)) and the per-pair motion parameters (``gt_affine.txt``).  No
other module knows these file names.  All writers are atomic (temp
file + rename) and all text is UTF-8.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineParams
from .errors import IoFailureError
from .synthworld import MARK_DTYPE

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


def read_lines(path: str) -> list[str]:
    """The non-blank lines of a UTF-8 text file, stripped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc


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
    return [params_from_line(ln, path) for ln in read_lines(path)]


def _by_frame_and_uid(marks: np.ndarray) -> np.ndarray:
    return marks[np.lexsort((marks["uid"], marks["frame"]))]


def write_marks(path: str, marks: np.ndarray) -> None:
    """Write a ``MARK_DTYPE`` array as ``frame uid x y`` lines."""
    lines = [f"{f} {u} {x!r} {y!r}" for f, u, x, y in _by_frame_and_uid(marks).tolist()]
    atomic_write_text(path, "".join(ln + "\n" for ln in lines))


def read_marks(path: str) -> np.ndarray:
    """The ``MARK_DTYPE`` array of a marks file, sorted by (frame, uid).

    Raises :class:`IoFailureError` for a malformed line or a (frame,
    uid) pair given twice.
    """
    rows = []
    for ln in read_lines(path):
        parts = ln.split()
        if len(parts) != 4:
            raise IoFailureError(f"{path}: expected 4 fields, got {ln!r}")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise IoFailureError(f"{path}: bad value in {ln!r}") from exc
    try:
        marks = _by_frame_and_uid(np.array(rows, dtype=MARK_DTYPE))
    except OverflowError as exc:
        raise IoFailureError(f"{path}: id out of range: {exc}") from exc
    keys = marks[["frame", "uid"]]
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if len(repeated):
        f, u = keys[repeated[0]].tolist()
        raise IoFailureError(f"{path}: frame {f} lists mark {u} twice")
    return marks


def write_manifest(path: str, values: dict) -> None:
    missing = [k for k in MANIFEST_KEYS if k not in values]
    if missing:
        raise IoFailureError(f"manifest missing keys: {missing}")
    lines = [f"{k}={values[k]}" for k in MANIFEST_KEYS]
    atomic_write_text(path, "".join(ln + "\n" for ln in lines))


def read_manifest(path: str) -> dict:
    values: dict = {}
    for ln in read_lines(path):
        if "=" not in ln:
            raise IoFailureError(f"{path}: expected key=value, got {ln!r}")
        key, _, val = ln.partition("=")
        values[key.strip()] = val.strip()
    for key in MANIFEST_KEYS:
        if key not in values:
            raise IoFailureError(f"{path}: missing manifest key {key}")
        try:
            values[key] = int(values[key])
        except ValueError as exc:
            raise IoFailureError(
                f"{path}: manifest key {key} is not an integer: {values[key]!r}"
            ) from exc
    if values["n_frames"] < 1:
        raise IoFailureError(f"{path}: n_frames must be at least 1, got {values['n_frames']}")
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
    marks: np.ndarray = field(default_factory=lambda: np.empty(0, MARK_DTYPE))
    gt: list[AffineParams] = field(default_factory=list)

    @property
    def width(self) -> int:
        return int(self.frames[0].shape[1])

    @property
    def height(self) -> int:
        return int(self.frames[0].shape[0])


def write_video_dir(directory: str, video: VideoData) -> None:
    """Write one video's frames and manifest, and its marks and
    ground truth when it has them.  The manifest comes last."""
    for i, frame in enumerate(video.frames):
        write_pgm(os.path.join(directory, FRAME_PATTERN % i), frame)
    if len(video.marks):
        write_marks(os.path.join(directory, "marks.txt"), video.marks)
    if video.gt:
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


def read_video_dir(directory: str) -> VideoData:
    """Load one video directory back into memory."""
    manifest = read_manifest(os.path.join(directory, "manifest.txt"))
    frames = [
        read_pgm(os.path.join(directory, FRAME_PATTERN % i))
        for i in range(manifest["n_frames"])
    ]
    for frame in frames:
        if frame.shape != (manifest["height"], manifest["width"]):
            raise IoFailureError(
                f"{directory}: frame shape {frame.shape} contradicts manifest"
            )
    marks_path = os.path.join(directory, "marks.txt")
    gt_path = os.path.join(directory, "gt_affine.txt")
    marks = read_marks(marks_path) if os.path.exists(marks_path) else np.empty(0, MARK_DTYPE)
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


def is_video_dir(path: str) -> bool:
    return os.path.isdir(path) and os.path.exists(os.path.join(path, "manifest.txt"))


def list_video_dirs(root: str) -> list[str]:
    """Video subdirectories of a dataset root, sorted by name."""
    if not os.path.isdir(root):
        raise IoFailureError(f"dataset root {root} is not a directory")
    subdirs = (os.path.join(root, name) for name in sorted(os.listdir(root)))
    return [sub for sub in subdirs if is_video_dir(sub)]
