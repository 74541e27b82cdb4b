"""Quality metrics for stabilized video.

Stability measures how much of the inter-frame motion energy lives in
the low-frequency bins of the motion spectrum; distortion measures the
worst anisotropic scaling introduced by stabilization; the cropping
ratio measures how much of the original picture survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineParams, invert, params_to_matrix
from .dataset import atomic_write_text
from .errors import (
    AllFramesFailedError,
    DegenerateError,
    FrameMismatchError,
    SeriesTooShortError,
)
from .flow import FlowField, compute_flow, stack_frames
from .kernels import affine_bilinear, bilinear_sample
from .stabilizer import CropWindow

MIN_SERIES_LENGTH = 8
STABILITY_LOW_BIN = 2
STABILITY_HIGH_BIN = 6
RANK_RATIO_MIN = 1e-10

# A real warp leaves median fit residuals around a few hundredths of a
# pixel; unrelated frame content leaves them above a pixel.
MAX_FIT_RESIDUAL = 1.0
# Flow block side of the distortion match; ``MetricsConfig.block_size``
# sets only the stability series.
DISTORTION_BLOCK_SIZE = 16


# ---------------------------------------------------------------------------
# Homography estimation
# ---------------------------------------------------------------------------


def _normalization(points: np.ndarray) -> np.ndarray:
    """Hartley similarity: centroid to origin, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    dists = np.hypot(points[:, 0] - centroid[0], points[:, 1] - centroid[1])
    mean_dist = float(dists.mean())
    scale = math.sqrt(2.0) / max(mean_dist, 1e-12)
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Direct linear transform with Hartley normalization; h22 == 1."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise DegenerateError(f"bad correspondence shapes {src.shape} vs {dst.shape}")
    n = src.shape[0]
    if n < 4:
        raise DegenerateError(f"homography needs at least 4 points, got {n}")
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    ones = np.ones((n, 1))
    sh = np.hstack([src, ones]) @ t_src.T
    dh = np.hstack([dst, ones]) @ t_dst.T
    a = np.zeros((2 * n, 9), dtype=np.float64)
    x, y = sh[:, 0], sh[:, 1]
    u, v = dh[:, 0], dh[:, 1]
    a[0::2, 3] = -x
    a[0::2, 4] = -y
    a[0::2, 5] = -1.0
    a[0::2, 6] = v * x
    a[0::2, 7] = v * y
    a[0::2, 8] = v
    a[1::2, 0] = x
    a[1::2, 1] = y
    a[1::2, 2] = 1.0
    a[1::2, 6] = -u * x
    a[1::2, 7] = -u * y
    a[1::2, 8] = -u
    _, sigma, vt = np.linalg.svd(a, full_matrices=False)
    if sigma[7] / max(sigma[0], 1e-300) < RANK_RATIO_MIN:
        raise DegenerateError("correspondences do not determine a homography")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise DegenerateError("homography has a vanishing scale entry")
    return h / h[2, 2]


def _flow_correspondences(flow: FlowField) -> tuple[np.ndarray, np.ndarray]:
    """Block centres and their matches over the valid cells of one pair."""
    mask = flow.valid.ravel()
    if int(mask.sum()) < 4:
        raise DegenerateError(
            f"only {int(mask.sum())} trackable cells between frames"
        )
    centers = flow.block_centers()[mask]
    dst = centers + np.stack(
        [flow.u.ravel()[mask], flow.v.ravel()[mask]], axis=1
    )
    return centers, dst


def _refine_correspondences(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    block_size: int,
    iterations: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Photometric per-cell alignment around the block-match result.

    ``src`` holds (n, 2) block centres and ``dst`` their matches.
    Gradient descent on the sampled patch difference removes the
    integer-grid and window-clamping bias of SAD matching.  Cells whose
    template is flat, whose refined patch leaves the frame or lands on
    warp fill, or which drift more than 1.5 px from the seed are
    dropped as untrustworthy.  All cells are refined together: each
    iteration samples the patches of every cell still moving in one
    gather, and a cell stops once both steps are below 1e-3 px.
    """
    tpl_frame = np.asarray(frame_a, dtype=np.float64)
    tgt = np.asarray(frame_b, dtype=np.float64)
    bs = block_size
    half = (bs - 1) / 2.0
    cx, cy = src[:, 0], src[:, 1]
    x0 = np.round(cx - half).astype(np.int64)
    y0 = np.round(cy - half).astype(np.int64)
    span = np.arange(bs)
    tpl = tpl_frame[(y0[:, None] + span)[:, :, None], (x0[:, None] + span)[:, None, :]]
    gy, gx = np.gradient(tpl, axis=(1, 2))
    gxx = (gx * gx).sum(axis=(1, 2))
    gxy = (gx * gy).sum(axis=(1, 2))
    gyy = (gy * gy).sum(axis=(1, 2))
    det = gxx * gyy - gxy * gxy
    u0 = dst[:, 0] - cx
    v0 = dst[:, 1] - cy
    u = u0.copy()
    v = v0.copy()
    alive = det >= 1e-8
    active = np.flatnonzero(alive)
    pos = span.astype(np.float64)
    for _ in range(iterations):
        if active.size == 0:
            break
        # The coordinates affine_bilinear computes, bit for bit, from
        # [[1, 0, x0 + u], [0, 1, y0 + v]]; sx is (n, 1, bs) and sy is
        # (n, bs, 1), which broadcast to the (n, bs, bs) patch stack.
        sx = pos + (x0[active] + u[active])[:, None, None]
        sy = pos[:, None] + (y0[active] + v[active])[:, None, None]
        patch, _ = bilinear_sample(tgt, sx, sy)
        # Samples outside the frame read 0, so this also drops patches
        # that leave the frame.
        ok = patch.min(axis=(1, 2)) >= 4.0
        alive[active[~ok]] = False
        active = active[ok]
        err = patch[ok] - tpl[active]
        ex = (gx[active] * err).sum(axis=(1, 2))
        ey = (gy[active] * err).sum(axis=(1, 2))
        d = det[active]
        du = -(gyy[active] * ex - gxy[active] * ey) / d
        dv = -(gxx[active] * ey - gxy[active] * ex) / d
        u[active] += du
        v[active] += dv
        active = active[~((np.abs(du) < 1e-3) & (np.abs(dv) < 1e-3))]
    keep = alive & (np.abs(u - u0) <= 1.5) & (np.abs(v - v0) <= 1.5)
    n_kept = int(keep.sum())
    if n_kept < 4:
        raise DegenerateError(f"only {n_kept} cells survive photometric refinement")
    kept_src = src[keep]
    kept_dst = kept_src + np.stack([u[keep], v[keep]], axis=1)
    return kept_src, kept_dst


def apply_homography(hom: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map (N, 2) points through a 3x3 homography."""
    pts = np.asarray(points, dtype=np.float64)
    mapped = np.hstack([pts, np.ones((len(pts), 1))]) @ np.asarray(hom).T
    w = mapped[:, 2]
    w = np.where(np.abs(w) < 1e-12, np.nan, w)
    return mapped[:, :2] / w[:, None]


def estimate_homography_trimmed(
    src: np.ndarray, dst: np.ndarray, rounds: int = 4
) -> np.ndarray:
    """DLT fit on the cells consistent with a trimmed affine map.

    Outliers are identified against a least-squares affine fit, which
    represents every distortion the score must detect (anisotropic
    stretches included) but, unlike the eight-dof projective fit, cannot
    contort its perspective terms to absorb gross false matches.  While
    the fit is still polluted (median residual above half a pixel) only
    the better half of the cells is refitted; residuals are always
    recomputed over the full set, so cells the cleaner fit explains are
    re-admitted.  The homography itself is fitted once, on the final
    survivors.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if len(src) < 8:
        return estimate_homography(src, dst)
    design = np.hstack([src, np.ones((len(src), 1))])
    keep = np.ones(len(src), dtype=bool)
    for _ in range(rounds):
        coef, *_ = np.linalg.lstsq(design[keep], dst[keep], rcond=None)
        pred = design @ coef
        resid = np.hypot(pred[:, 0] - dst[:, 0], pred[:, 1] - dst[:, 1])
        med = float(np.median(resid))
        if med > 0.5:
            limit = med
        else:
            limit = max(0.5, 3.0 * med)
        new = resid <= limit
        if int(new.sum()) < 8 or bool((new == keep).all()):
            break
        keep = new
    return estimate_homography(src[keep], dst[keep])


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def stability_score(series: np.ndarray) -> float:
    """Fraction of non-DC motion energy in frequency bins 2 through 6."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < MIN_SERIES_LENGTH:
        raise SeriesTooShortError(
            f"stability needs at least {MIN_SERIES_LENGTH} samples, got {n}"
        )
    spectrum = np.fft.rfft(x)
    energy = np.abs(spectrum) ** 2
    half = n // 2
    total = float(energy[1 : half + 1].sum())
    if total == 0.0:
        return 1.0
    high = min(STABILITY_HIGH_BIN, half)
    kept = float(energy[STABILITY_LOW_BIN : high + 1].sum())
    return kept / total


@dataclass(frozen=True)
class MetricsConfig:
    """Evaluation knobs; translation defaults to the magnitude series.

    ``block_size`` sets the flow blocks of the stability motion series.
    """

    translation_mode: str = "magnitude"
    block_size: int = 16

    def __post_init__(self) -> None:
        if self.translation_mode not in ("magnitude", "separate"):
            raise DegenerateError(
                f"translation_mode must be magnitude or separate, "
                f"got {self.translation_mode!r}"
            )


def pair_motion_series(
    frames: list[np.ndarray], block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Per-pair (tx, ty, theta) series measured from the frames.

    Pairs that cannot be tracked contribute zero motion and a warning.
    """
    if len(frames) < 2:
        raise SeriesTooShortError("need at least two frames for a motion series")

    n_pairs = len(frames) - 1

    def untrackable(i: int, exc: Exception) -> tuple[tuple[float, float, float], str]:
        return (0.0, 0.0, 0.0), f"pair {i}: untrackable ({exc}); motion set to zero"

    try:
        stack = stack_frames(frames)
        flows = compute_flow(stack[:-1], stack[1:], block_size=block_size)
    except FrameMismatchError as exc:
        # A check on the frames, not on one pair, failed.
        results = [untrackable(i, exc) for i in range(n_pairs)]
    else:
        results = []
        for i in range(n_pairs):
            try:
                h = estimate_homography(*_flow_correspondences(flows.pair(i)))
            except DegenerateError as exc:
                results.append(untrackable(i, exc))
            else:
                results.append(((h[0, 2], h[1, 2], math.atan2(h[1, 0], h[0, 0])), None))
    tx, ty, theta = np.array([m for m, _ in results], dtype=np.float64).T.copy()
    return tx, ty, theta, [w for _, w in results if w is not None]


def video_stability(
    frames: list[np.ndarray], cfg: MetricsConfig
) -> tuple[float, float, float, list[str]]:
    """(translation score, rotation score, average, warnings)."""
    tx, ty, theta, warnings = pair_motion_series(frames, cfg.block_size)
    if cfg.translation_mode == "magnitude":
        s_tr = stability_score(np.hypot(tx, ty))
    else:
        s_tr = 0.5 * (stability_score(tx) + stability_score(ty))
    s_rot = stability_score(theta)
    return s_tr, s_rot, 0.5 * (s_tr + s_rot), warnings


# ---------------------------------------------------------------------------
# Distortion
# ---------------------------------------------------------------------------


def _center_crop(frame: np.ndarray, height: int, width: int) -> np.ndarray:
    h, w = frame.shape
    if h < height or w < width:
        raise FrameMismatchError(
            f"original frame {frame.shape} smaller than stabilized {(height, width)}"
        )
    y0 = (h - height) // 2
    x0 = (w - width) // 2
    return frame[y0 : y0 + height, x0 : x0 + width]


def _distortion_ratio(cropped: np.ndarray, stab: np.ndarray, flow: FlowField) -> float:
    """Singular-value ratio of the map fitted from ``cropped`` to ``stab``."""
    src, dst = _flow_correspondences(flow)
    src, dst = _refine_correspondences(cropped, stab, src, dst, DISTORTION_BLOCK_SIZE)
    hom = estimate_homography_trimmed(src, dst)
    resid = np.hypot(*(apply_homography(hom, src) - dst).T)
    med_resid = float(np.nanmedian(resid))
    if not med_resid < MAX_FIT_RESIDUAL:
        raise DegenerateError(f"no coherent map (median residual {med_resid:.2f} px)")
    sigma = np.linalg.svd(hom[:2, :2], compute_uv=False)
    return float(sigma[1] / max(sigma[0], 1e-300))


def distortion_score(
    original: list[np.ndarray],
    stabilized: list[np.ndarray],
) -> tuple[float, list[str]]:
    """Worst-frame ratio of the homography's singular values.

    The original frame is center-cropped to the stabilized size so the
    two can be block-matched without fill borders; the centered crop
    shifts coordinates without touching the affine block being scored.
    Frames whose best fit still leaves a median residual above a pixel
    carry no coherent map and are skipped instead of scored.  1.0 means
    no anisotropic distortion anywhere.
    """
    if len(original) != len(stabilized):
        raise FrameMismatchError(
            f"{len(original)} original vs {len(stabilized)} stabilized frames"
        )

    def skipped(i: int, exc: Exception) -> tuple[None, str]:
        return None, f"frame {i}: distortion skipped ({exc})"

    # (ratio, warning) per frame, in frame order.
    results: list[tuple[float | None, str | None]] = [(None, None)] * len(original)
    warped: list[int] = []
    crops: list[np.ndarray] = []
    for i, stab in enumerate(stabilized):
        try:
            cropped = _center_crop(original[i], *stab.shape)
        except FrameMismatchError as exc:
            results[i] = skipped(i, exc)
            continue
        # A frame the stabilizer left unwarped (frame 0, always) is its
        # own crop: its map is the identity.
        if np.array_equal(cropped, stab):
            results[i] = (1.0, None)
        else:
            warped.append(i)
            crops.append(cropped)
    if warped:
        stabs = [stabilized[i] for i in warped]
        try:
            # The stabilized frame is a resampled copy, so even perfect
            # matches have a large SAD against the crisp original; widen
            # the texture gate.  Border matches stay distrusted: a block
            # whose true match falls partly off-frame settles on an
            # in-frame false minimum instead.
            flows = compute_flow(
                stack_frames(crops),
                stack_frames(stabs),
                block_size=DISTORTION_BLOCK_SIZE,
                max_sad_per_pixel=120.0,
            )
        except FrameMismatchError as exc:
            for i in warped:
                results[i] = skipped(i, exc)
        else:
            for p, i in enumerate(warped):
                try:
                    results[i] = (_distortion_ratio(crops[p], stabs[p], flows.pair(p)), None)
                except DegenerateError as exc:
                    results[i] = skipped(i, exc)
    ratios = [r for r, _ in results if r is not None]
    if not ratios:
        raise AllFramesFailedError(
            "no frame pair supported a distortion estimate"
        )
    return min(ratios), [w for _, w in results if w is not None]


# ---------------------------------------------------------------------------
# Cropping ratio
# ---------------------------------------------------------------------------


def cropping_ratio(
    orig_width: int,
    orig_height: int,
    crop: CropWindow,
    applied: list[AffineParams],
) -> float:
    """Mean retained picture area, recomputed from the applied warps."""
    ones = np.ones((orig_height, orig_width), dtype=np.float64)
    total = 0.0
    for params in applied:
        sampling = invert(params_to_matrix(params))
        _, inside = affine_bilinear(ones, sampling, orig_height, orig_width)
        window = inside[
            crop.y0 : crop.y0 + crop.height, crop.x0 : crop.x0 + crop.width
        ]
        total += crop.area * float(window.mean())
    return total / (len(applied) * orig_width * orig_height)


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    stability_translation: float
    stability_rotation: float
    stability_avg: float
    original_stability_translation: float
    original_stability_rotation: float
    original_stability_avg: float
    distortion: float
    cropping: float
    success: bool
    warnings: list[str] = field(default_factory=list)

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("stability_translation", repr(float(self.stability_translation))),
            ("stability_rotation", repr(float(self.stability_rotation))),
            ("stability_avg", repr(float(self.stability_avg))),
            (
                "original_stability_translation",
                repr(float(self.original_stability_translation)),
            ),
            (
                "original_stability_rotation",
                repr(float(self.original_stability_rotation)),
            ),
            ("original_stability_avg", repr(float(self.original_stability_avg))),
            ("distortion", repr(float(self.distortion))),
            ("cropping", repr(float(self.cropping))),
            ("success", "true" if self.success else "false"),
        ]


def evaluate(
    original: list[np.ndarray],
    stabilized: list[np.ndarray],
    applied: list[AffineParams],
    crop: CropWindow,
    cfg: MetricsConfig | None = None,
) -> MetricsReport:
    """Full metrics comparing a stabilized video against its source."""
    cfg = cfg or MetricsConfig()
    warnings: list[str] = []
    frames_ok = len(stabilized) == len(original) and len(stabilized) >= 2
    if not frames_ok:
        raise AllFramesFailedError(
            f"{len(stabilized)} stabilized frames for {len(original)} originals"
        )
    s_tr, s_rot, s_avg, w = video_stability(stabilized, cfg)
    warnings.extend(f"stabilized: {msg}" for msg in w)
    o_tr, o_rot, o_avg, w = video_stability(original, cfg)
    warnings.extend(f"original: {msg}" for msg in w)
    try:
        distortion, w = distortion_score(original, stabilized)
        warnings.extend(w)
    except (AllFramesFailedError, FrameMismatchError) as exc:
        distortion = float("nan")
        warnings.append(f"distortion failed: {exc}")
    h0, w0 = original[0].shape
    cropping = cropping_ratio(w0, h0, crop, applied)
    success = frames_ok and distortion <= 1.0 + 1e-12
    return MetricsReport(
        stability_translation=s_tr,
        stability_rotation=s_rot,
        stability_avg=s_avg,
        original_stability_translation=o_tr,
        original_stability_rotation=o_rot,
        original_stability_avg=o_avg,
        distortion=distortion,
        cropping=cropping,
        success=success,
        warnings=warnings,
    )


def write_report(path: str, report: MetricsReport) -> None:
    lines = [f"{key}: {value}" for key, value in report.rows()]
    if report.warnings:
        lines.append(f"warnings: {len(report.warnings)}")
        lines.extend(f"warning: {msg}" for msg in report.warnings)
    atomic_write_text(path, "".join(ln + "\n" for ln in lines))


def batch_summary_rows(
    entries: list[tuple[str, MetricsReport]]
) -> str:
    """CSV body for a batch evaluation: one row per video."""
    lines = ["video_id,stability,distortion,cropping,success"]
    for video_id, rep in entries:
        lines.append(
            f"{video_id},{float(rep.stability_avg)!r},{float(rep.distortion)!r},"
            f"{float(rep.cropping)!r},{'true' if rep.success else 'false'}"
        )
    return "\n".join(lines) + "\n"
