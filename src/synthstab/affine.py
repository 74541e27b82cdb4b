"""4-DOF similarity transforms: translation, rotation, isotropic scale.

A transform is either an :class:`AffineParams` tuple (tx, ty, theta, s)
or the equivalent 2x3 matrix

    [[ s*cos(theta), -s*sin(theta), tx ],
     [ s*sin(theta),  s*cos(theta), ty ]]

acting on column points, ``dst = M[:, :2] @ src + M[:, 2]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, NonSimilarityError

# Tolerance below which a point cloud is treated as a single point.
_SPREAD_EPS = 1e-12
# Allowed deviation from perfect rotation-scale structure.
_SIMILARITY_TOL = 1e-6


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi], mapping the -pi boundary to +pi."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class AffineParams:
    """Similarity parameters: translation, rotation angle, scale.

    ``theta`` is in radians within (-pi, pi]; ``s`` must be positive
    and finite.
    """

    tx: float
    ty: float
    theta: float
    s: float

    def __post_init__(self):
        vals = (self.tx, self.ty, self.theta, self.s)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite affine parameters: {vals}")
        if self.s <= 0.0:
            raise ValueError(f"scale must be positive, got {self.s}")
        if not (-math.pi < self.theta <= math.pi):
            raise ValueError(f"theta must lie in (-pi, pi], got {self.theta}")

    @staticmethod
    def identity() -> "AffineParams":
        return AffineParams(0.0, 0.0, 0.0, 1.0)


def params_to_matrix(params: AffineParams) -> np.ndarray:
    """Build the 2x3 matrix for ``params``."""
    c = params.s * math.cos(params.theta)
    s = params.s * math.sin(params.theta)
    return np.array(
        [[c, -s, params.tx], [s, c, params.ty]],
        dtype=np.float64,
    )


def matrix_to_params(matrix: np.ndarray) -> AffineParams:
    """Recover parameters from a 2x3 similarity matrix.

    Raises :class:`NonSimilarityError` when the 2x2 block does not have
    rotation-scale structure (columns orthogonal with equal norm,
    positive determinant) within 1e-6 relative tolerance.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (2, 3):
        raise NonSimilarityError(f"expected a 2x3 matrix, got shape {m.shape}")
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    scale_sq = a * a + c * c
    norm = math.sqrt(scale_sq)
    if norm <= 0.0 or not math.isfinite(norm):
        raise NonSimilarityError("zero or non-finite scale")
    # Structure residuals, relative to the overall scale.
    err = max(abs(a - d), abs(b + c)) / norm
    if err > _SIMILARITY_TOL:
        raise NonSimilarityError(
            f"matrix deviates from rotation-scale structure by {err:.3e}"
        )
    theta = math.atan2(c, a)
    if theta <= -math.pi:
        theta = math.pi
    return AffineParams(float(m[0, 2]), float(m[1, 2]), theta, norm)


def apply_transform(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 2x3 transform to points of shape (n, 2)."""
    pts = np.asarray(points, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    return pts @ m[:, :2].T + m[:, 2]


def compose(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Return the 2x3 matrix applying ``first`` then ``second``."""
    a = np.asarray(second, dtype=np.float64)
    b = np.asarray(first, dtype=np.float64)
    out = np.empty((2, 3), dtype=np.float64)
    out[:, :2] = a[:, :2] @ b[:, :2]
    out[:, 2] = a[:, :2] @ b[:, 2] + a[:, 2]
    return out


def invert(matrix: np.ndarray) -> np.ndarray:
    """Return the 2x3 inverse of a 2x3 affine transform."""
    m = np.asarray(matrix, dtype=np.float64)
    inv2 = np.linalg.inv(m[:, :2])
    out = np.empty((2, 3), dtype=np.float64)
    out[:, :2] = inv2
    out[:, 2] = -inv2 @ m[:, 2]
    return out


def fit_similarity(src: np.ndarray, dst: np.ndarray) -> AffineParams:
    """Least-squares similarity mapping points ``src`` onto ``dst``.

    ``src`` and ``dst`` are ``(n, 2)`` arrays of matched (x, y) points.
    Solves the linear system in (a, b, tx, ty) with the 2x2 block
    [[a, -b], [b, a]], after centering both point clouds on their
    centroids; with two or more distinct source points the solution is
    unique.  Raises :class:`DegenerateConfigurationError` when the
    arrays are not both ``(n, 2)`` with the same ``n``, when fewer than
    two pairs are given or the source points coincide, and when the
    optimum collapses to zero scale.
    """
    # C order fixes the summation order of the centroids below.
    src = np.ascontiguousarray(src, dtype=np.float64)
    dst = np.ascontiguousarray(dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[1] != 2 or dst.shape != src.shape:
        raise DegenerateConfigurationError(
            f"need two (n, 2) point arrays, got shapes {src.shape} and {dst.shape}"
        )
    n = src.shape[0]
    if n < 2:
        raise DegenerateConfigurationError(f"need >= 2 correspondences, got {n}")
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    sx, sy = (src - src_c).T
    dx, dy = (dst - dst_c).T
    denom = float(np.dot(sx, sx) + np.dot(sy, sy))
    if denom <= _SPREAD_EPS:
        raise DegenerateConfigurationError("source points coincide")
    a = float(np.dot(sx, dx) + np.dot(sy, dy)) / denom
    b = float(np.dot(sx, dy) - np.dot(sy, dx)) / denom
    s = math.hypot(a, b)
    if s <= _SPREAD_EPS:
        raise DegenerateConfigurationError("fit collapsed to zero scale")
    theta = math.atan2(b, a)
    if theta <= -math.pi:
        theta = math.pi
    tx = float(dst_c[0] - (a * src_c[0] - b * src_c[1]))
    ty = float(dst_c[1] - (b * src_c[0] + a * src_c[1]))
    return AffineParams(tx, ty, theta, s)
