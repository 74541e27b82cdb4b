"""Warping, cropping, and the end-to-end stabilization pipeline.

The stabilizer accumulates per-pair motion estimates into a camera
trajectory, smooths it, and warps every frame by the similarity taking
its raw pose to the smoothed pose.  A centered crop hides the border
that warping exposes, so only the crop window is sampled:
``window_sampling`` folds the window's origin into the sampling
matrix.  ``metrics.cropping_ratio`` uses the same matrix, so its
in-bounds test is the stabilizer's own, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineParams, invert, params_to_matrix
from .errors import InvalidSpecError
from .kernels import affine_bilinear
from .smoothing import (
    SMOOTHING_POLYORDER,
    SMOOTHING_WINDOW,
    accumulate,
    smooth_trajectory,
)

# Side of the centered crop window as a fraction of the frame side.
CROP_RATIO = 0.8


@dataclass(frozen=True)
class CropWindow:
    """Axis-aligned crop rectangle in pixel coordinates."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise InvalidSpecError("crop window must be at least 1x1")
        if self.x0 < 0 or self.y0 < 0:
            raise InvalidSpecError("crop window origin must be non-negative")

    @staticmethod
    def centered(frame_width: int, frame_height: int, ratio: float) -> "CropWindow":
        """Centered window of the given side ratio, floored to even sizes."""
        if not 0.0 < ratio <= 1.0:
            raise InvalidSpecError(f"crop ratio must lie in (0, 1], got {ratio}")
        w = int(frame_width * ratio) // 2 * 2
        h = int(frame_height * ratio) // 2 * 2
        w = max(w, 2)
        h = max(h, 2)
        return CropWindow((frame_width - w) // 2, (frame_height - h) // 2, w, h)

    def apply(self, frame: np.ndarray) -> np.ndarray:
        if self.y0 + self.height > frame.shape[0] or self.x0 + self.width > frame.shape[1]:
            raise InvalidSpecError(
                f"crop {self} exceeds frame of shape {frame.shape}"
            )
        return frame[
            self.y0 : self.y0 + self.height, self.x0 : self.x0 + self.width
        ].copy()

    @property
    def area(self) -> int:
        return self.width * self.height


def window_sampling(params: AffineParams, crop: CropWindow) -> np.ndarray:
    """2x3 matrix from crop-window pixels to source-frame coordinates.

    ``params`` is the forward warp.  Window pixel ``(x, y)`` is frame
    pixel ``(x + x0, y + y0)``, so the matrix is the inverse warp ``s``
    with column 2 replaced by ``s[:, 0]*x0 + s[:, 1]*y0 + s[:, 2]``.
    The sample positions can differ in the last bit from those of the
    whole frame's sampling, which the uint8 rounding of the warp absorbs;
    ``tests/test_stabilizer.py`` keeps the whole-frame warp as the
    reference and asserts byte-equal frames.
    """
    s = invert(params_to_matrix(params))
    s[:, 2] = s[:, 0] * crop.x0 + s[:, 1] * crop.y0 + s[:, 2]
    return s


def _warp(
    frame: np.ndarray, params: AffineParams, crop: CropWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Crop window of the warped frame, as uint8, and its in-bounds mask.

    ``params`` is the forward map: output pixel ``q`` shows the input at
    the preimage of ``q``.  Pixels mapping outside the input are 0.
    Only the window's pixels are sampled.
    """
    fwd = params_to_matrix(params)
    det = fwd[0, 0] * fwd[1, 1] - fwd[0, 1] * fwd[1, 0]
    if abs(det) < 1e-12:
        raise InvalidSpecError(f"transform {params} is not invertible")
    vals, inside = affine_bilinear(
        frame.astype(np.float64), window_sampling(params, crop), crop.height, crop.width
    )
    out = np.where(inside, np.clip(np.rint(vals), 0, 255), 0.0).astype(np.uint8)
    return out, inside


@dataclass
class StabilizationResult:
    """Everything the stabilize pipeline produced for one video.

    The trajectories are ``(4, len(frames) - 1)`` arrays whose rows are
    the cumulative tx, ty, theta and log-scale of each frame pair.
    ``window`` is the smoothing window used, 0 for an unsmoothed path.
    """

    frames: list[np.ndarray]
    applied: list[AffineParams]
    valid_fractions: list[float]
    crop: CropWindow
    raw_trajectory: np.ndarray
    smoothed_trajectory: np.ndarray
    window: int
    warnings: list[str]


def stabilize_video(
    frames: list[np.ndarray],
    estimates: list[AffineParams],
    window: int = SMOOTHING_WINDOW,
    polyorder: int = SMOOTHING_POLYORDER,
    crop_ratio: float = CROP_RATIO,
) -> StabilizationResult:
    """Smooth the estimated trajectory and warp every frame onto it.

    ``frames`` are uint8 grayscale.  Frame 0 is never warped: its output
    is its crop, with valid fraction 1.0.  Frame ``i`` (i >= 1) is
    warped by the correction taking column ``i - 1`` of the ``(4, n)``
    raw trajectory to the smoothed one.  Valid fractions are measured
    inside the crop window.
    """
    if len(frames) < 2:
        raise InvalidSpecError("need at least two frames to stabilize")
    if len(estimates) != len(frames) - 1:
        raise InvalidSpecError(
            f"{len(estimates)} estimates for {len(frames)} frames"
        )
    h, w = frames[0].shape[:2]
    for i, f in enumerate(frames):
        if f.ndim != 2:
            raise InvalidSpecError(
                f"frame {i} has shape {f.shape}, expected a 2D grayscale frame"
            )
        if f.shape != (h, w):
            raise InvalidSpecError(
                f"frame {i} has shape {f.shape}, expected {(h, w)}"
            )
    raw = accumulate(estimates)
    smoothed, corrections, used = smooth_trajectory(raw, window=window, polyorder=polyorder)
    crop = CropWindow.centered(w, h, crop_ratio)

    applied: list[AffineParams] = [AffineParams.identity()]
    applied.extend(corrections)

    out_frames: list[np.ndarray] = [crop.apply(frames[0])]
    fractions: list[float] = [1.0]
    warnings: list[str] = []
    for i in range(1, len(frames)):
        warped, inside = _warp(frames[i], applied[i], crop)
        fraction = float(inside.mean())
        out_frames.append(warped)
        fractions.append(fraction)
        if fraction < 1.0:
            warnings.append(
                f"frame {i}: {100.0 * (1.0 - fraction):.2f}% of the crop "
                "window fell outside the source frame"
            )
    return StabilizationResult(
        frames=out_frames,
        applied=applied,
        valid_fractions=fractions,
        crop=crop,
        raw_trajectory=raw,
        smoothed_trajectory=smoothed,
        window=used,
        warnings=warnings,
    )
