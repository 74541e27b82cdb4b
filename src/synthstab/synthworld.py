"""Procedural 2D world: scenes, camera paths, rendering, ground truth.

The world is a stack of textured planes.  A camera pose is a world
translation, a roll angle, and a zoom factor.  A plane at depth ``d``
reacts to camera translation scaled by ``1/d`` (parallax) while
rotation and zoom affect all planes equally, so a single-plane world
moves exactly like a 4-DOF similarity between consecutive frames.

Screen convention: pixel centers at integer coordinates, the screen
center at ``((w-1)/2, (h-1)/2)``.  A world point ``p`` seen from pose
``(c, theta, zoom)`` on the depth-``d`` plane projects to

    screen = center + zoom * R(theta) @ (p - c / d)

and conversely a screen point back-projects through ``R(-theta)`` and
division by ``zoom``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.ndimage import uniform_filter

from .affine import AffineParams, fit_similarity, wrap_angle
from .errors import InsufficientMarksError, InvalidSpecError
from .kernels import affine_bilinear

TEXTURE_STYLES = ("checker", "noise", "blobs", "mixed")

# Distinct RNG stream tags derived from the scene seed.
_STREAM_TEXTURE = 101
_STREAM_MARKS = 202


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneSpec:
    """World description; fully determines the scene given its seed."""

    seed: int = 0
    canvas_size: int = 512
    n_layers: int = 1
    layer_depths: tuple[float, ...] = (1.0,)
    texture_style: str = "mixed"
    frame_width: int = 128
    frame_height: int = 128

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if self.frame_width < 8 or self.frame_height < 8:
            raise InvalidSpecError(
                f"frame must be at least 8x8, got {self.frame_width}x{self.frame_height}"
            )
        side = max(self.frame_width, self.frame_height)
        if self.canvas_size < 4 * side:
            raise InvalidSpecError(
                f"canvas_size {self.canvas_size} smaller than 4x frame side {side}"
            )
        if self.n_layers < 1:
            raise InvalidSpecError("need at least one layer")
        if len(self.layer_depths) != self.n_layers:
            raise InvalidSpecError(
                f"{self.n_layers} layers but {len(self.layer_depths)} depths"
            )
        if self.layer_depths[0] != 1.0:
            raise InvalidSpecError("first layer depth must be exactly 1")
        depths = self.layer_depths
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise InvalidSpecError(f"layer depths must be ascending, got {depths}")
        if self.texture_style not in TEXTURE_STYLES:
            raise InvalidSpecError(
                f"texture_style must be one of {TEXTURE_STYLES}, got {self.texture_style!r}"
            )


@dataclass(frozen=True)
class NoiseProfile:
    """Shake model: summed random sinusoids plus white jitter.

    Frequencies are in cycles per frame.  Translation sinusoid
    amplitudes come from ``amp_range`` (pixels), rotation ones from
    ``rot_amp_range`` (radians), and zoom is perturbed multiplicatively
    by one sinusoid with relative amplitude from ``zoom_amp_range``.
    White jitter of ``jitter_sigma`` pixels (radians for the angle) is
    added to the two translation components and the roll angle.
    """

    n_sinusoids: int = 3
    amp_range: tuple[float, float] = (0.5, 3.0)
    freq_range: tuple[float, float] = (0.06, 0.35)
    rot_amp_range: tuple[float, float] = (0.002, 0.015)
    zoom_amp_range: tuple[float, float] = (0.0, 0.004)
    jitter_sigma: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_sinusoids < 0:
            raise InvalidSpecError("n_sinusoids must be >= 0")
        for name in ("amp_range", "freq_range", "rot_amp_range", "zoom_amp_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise InvalidSpecError(f"{name} must satisfy 0 <= low <= high")
        if self.jitter_sigma < 0:
            raise InvalidSpecError("jitter_sigma must be >= 0")
        if self.seed < 0:
            raise InvalidSpecError("seed must be >= 0")

    @staticmethod
    def still(seed: int = 0) -> "NoiseProfile":
        """A profile that adds no shake at all."""
        return NoiseProfile(
            n_sinusoids=0,
            amp_range=(0.0, 0.0),
            freq_range=(0.1, 0.1),
            rot_amp_range=(0.0, 0.0),
            zoom_amp_range=(0.0, 0.0),
            jitter_sigma=0.0,
            seed=seed,
        )


@dataclass(frozen=True)
class SmoothPathSpec:
    """Piecewise low-order polynomial camera track (position, roll, zoom).

    The position track is the quadratic base plus an optional slow
    wander: a natural cubic spline through waypoints ``wander_spacing``
    frames apart.  Empty waypoint lists give the plain polynomial, so a
    constant-velocity track is expressed exactly.
    """

    start_x: float = 0.0
    start_y: float = 0.0
    vel_x: float = 0.0
    vel_y: float = 0.0
    accel_x: float = 0.0
    accel_y: float = 0.0
    theta0: float = 0.0
    theta_rate: float = 0.0
    zoom0: float = 1.0
    zoom_rate: float = 0.0
    wander_x: tuple[float, ...] = ()
    wander_y: tuple[float, ...] = ()
    wander_spacing: float = 50.0


@dataclass(frozen=True)
class CameraPose:
    """World translation, roll angle (radians), and zoom factor."""

    cx: float
    cy: float
    theta: float
    zoom: float


@dataclass(frozen=True)
class Layer:
    depth: float
    color: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class Scene:
    spec: SceneSpec
    layers: tuple[Layer, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class MarkRecord:
    """One observation of a tracked world point on the screen."""

    uid: int
    frame_id: int
    x: float
    y: float


# ---------------------------------------------------------------------------
# Textures
# ---------------------------------------------------------------------------


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    return uniform_filter(img, size=2 * radius + 1, mode="wrap")


def _normalize(img: np.ndarray, lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    mn, mx = img.min(), img.max()
    if mx - mn < 1e-12:
        return np.full_like(img, (lo + hi) / 2)
    return lo + (hi - lo) * (img - mn) / (mx - mn)


def _texture_checker(rng: np.random.Generator, size: int) -> np.ndarray:
    # Rotated grid: an axis-aligned checker is periodic under integer
    # shifts, which gives block matching spurious identical minima.
    cell = float(rng.integers(18, 41))
    angle = rng.uniform(0.15, 1.4)
    jx = rng.uniform(0.0, cell)
    jy = rng.uniform(0.0, cell)
    g0 = rng.uniform(0.1, 0.4)
    g1 = rng.uniform(0.6, 0.9)
    iy, ix = np.indices((size, size), dtype=np.float64)
    xr = math.cos(angle) * ix + math.sin(angle) * iy + jx
    yr = -math.sin(angle) * ix + math.cos(angle) * iy + jy
    parity = (np.floor(xr / cell) + np.floor(yr / cell)) % 2
    return np.where(parity == 0, g0, g1).astype(np.float64)


def _texture_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    # Fine grain keeps block matching well conditioned; the coarse field
    # adds structure bigger than one block.
    fine = _box_blur(rng.uniform(0.0, 1.0, (size, size)), 1)
    coarse = _box_blur(rng.uniform(0.0, 1.0, (size, size)), 6)
    return _normalize(0.6 * _normalize(fine) + 0.4 * _normalize(coarse))


def _add_blobs(
    img: np.ndarray,
    rng: np.random.Generator,
    count: int,
    sigma_range: tuple[float, float],
    amp_range: tuple[float, float],
) -> None:
    size = img.shape[0]
    for _ in range(count):
        cx = rng.uniform(0, size)
        cy = rng.uniform(0, size)
        sigma = rng.uniform(*sigma_range)
        amp = rng.uniform(*amp_range)
        r = int(math.ceil(3 * sigma))
        x0, x1 = max(0, int(cx) - r), min(size, int(cx) + r + 1)
        y0, y1 = max(0, int(cy) - r), min(size, int(cy) + r + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        ys = np.arange(y0, y1)[:, None] - cy
        xs = np.arange(x0, x1)[None, :] - cx
        img[y0:y1, x0:x1] += amp * np.exp(-(xs * xs + ys * ys) / (2 * sigma * sigma))


def _texture_blobs(rng: np.random.Generator, size: int) -> np.ndarray:
    img = np.full((size, size), 0.08)
    count = max(16, (size * size) // 700)
    _add_blobs(img, rng, count, (2.0, 9.0), (0.3, 0.9))
    return np.clip(img, 0.0, 1.0)


def _texture_mixed(rng: np.random.Generator, size: int) -> np.ndarray:
    noise = _texture_noise(rng, size)
    blobs = _texture_blobs(rng, size)
    checker = _texture_checker(rng, size)
    return _normalize(0.55 * noise + 0.2 * blobs + 0.25 * checker, 0.02, 0.98)


_TEXTURE_BUILDERS = {
    "checker": _texture_checker,
    "noise": _texture_noise,
    "blobs": _texture_blobs,
    "mixed": _texture_mixed,
}


def _overlay_layer(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse blob field with a soft alpha mask for a non-base layer."""
    alpha = np.zeros((size, size))
    count = max(4, (size * size) // 6000)
    _add_blobs(alpha, rng, count, (5.0, 14.0), (0.8, 1.3))
    alpha = np.clip(alpha, 0.0, 1.0)
    color = _texture_noise(rng, size)
    return color, alpha


def build_scene(spec: SceneSpec) -> Scene:
    """Materialize layer textures for ``spec`` (deterministic in seed)."""
    layers = []
    for i, depth in enumerate(spec.layer_depths):
        rng = np.random.default_rng(
            np.random.SeedSequence((spec.seed, _STREAM_TEXTURE, i))
        )
        if i == 0:
            color = _TEXTURE_BUILDERS[spec.texture_style](rng, spec.canvas_size)
            alpha = np.ones_like(color)
        else:
            color, alpha = _overlay_layer(rng, spec.canvas_size)
        layers.append(Layer(float(depth), color, alpha))
    return Scene(spec, tuple(layers))


# ---------------------------------------------------------------------------
# Camera paths
# ---------------------------------------------------------------------------


def _wander_offset(values: tuple[float, ...], spacing: float, t: float) -> float:
    n = len(values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(values[0])
    knots = np.arange(n) * spacing
    # Clamp instead of extrapolating; cubic extrapolation diverges fast.
    tc = min(max(t, 0.0), float(knots[-1]))
    if n < 4:
        return float(np.interp(tc, knots, values))
    spline = make_interp_spline(knots, np.asarray(values, dtype=np.float64), k=3, bc_type="natural")
    return float(spline(tc))


def smooth_pose_at(spec: SmoothPathSpec, t: float) -> CameraPose:
    """Pose of the jitter-free track at (possibly fractional) frame t."""
    cx = spec.start_x + spec.vel_x * t + 0.5 * spec.accel_x * t * t
    cy = spec.start_y + spec.vel_y * t + 0.5 * spec.accel_y * t * t
    cx += _wander_offset(spec.wander_x, spec.wander_spacing, t)
    cy += _wander_offset(spec.wander_y, spec.wander_spacing, t)
    theta = spec.theta0 + spec.theta_rate * t
    zoom = spec.zoom0 + spec.zoom_rate * t
    return CameraPose(cx, cy, theta, zoom)


def _sample_sinusoids(rng, count, amp_range, freq_range):
    out = []
    for _ in range(count):
        amp = rng.uniform(*amp_range)
        freq = rng.uniform(*freq_range)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out.append((amp, freq, phase))
    return out


def _eval_sinusoids(terms, t: float) -> float:
    return sum(a * math.sin(2.0 * math.pi * f * t + p) for a, f, p in terms)


# jitter_sigma is specified in pixels; rotation jitter converts it to
# radians so the corner of a 128px frame moves by about that many pixels.
_ROT_JITTER_SCALE = 1.0 / (64.0 * math.sqrt(2.0))


def generate_camera_path(
    smooth: SmoothPathSpec, noise: NoiseProfile, n_frames: int
) -> tuple[list[CameraPose], list[CameraPose]]:
    """Smooth and shaky pose sequences for ``n_frames`` frames.

    The shaky path adds seeded sinusoids plus white jitter to the
    polynomial track on (cx, cy, theta) and one multiplicative sinusoid
    to zoom.  The noise RNG is consumed in a fixed order (x sinusoids,
    y sinusoids, roll sinusoids, the zoom sinusoid, then the jitter
    table), so a path is reproducible from its profile alone.
    """
    if n_frames < 2:
        raise InvalidSpecError(f"n_frames must be >= 2, got {n_frames}")
    rng = np.random.default_rng(noise.seed)
    sin_x = _sample_sinusoids(rng, noise.n_sinusoids, noise.amp_range, noise.freq_range)
    sin_y = _sample_sinusoids(rng, noise.n_sinusoids, noise.amp_range, noise.freq_range)
    sin_t = _sample_sinusoids(
        rng, noise.n_sinusoids, noise.rot_amp_range, noise.freq_range
    )
    sin_z = _sample_sinusoids(rng, 1, noise.zoom_amp_range, noise.freq_range)
    jitter = rng.normal(0.0, noise.jitter_sigma, (3, n_frames))
    smooth_poses = []
    shaky_poses = []
    for t in range(n_frames):
        base = smooth_pose_at(smooth, t)
        smooth_poses.append(base)
        cx = base.cx + _eval_sinusoids(sin_x, t) + jitter[0, t]
        cy = base.cy + _eval_sinusoids(sin_y, t) + jitter[1, t]
        theta = base.theta + _eval_sinusoids(sin_t, t) + jitter[2, t] * _ROT_JITTER_SCALE
        zoom = base.zoom * (1.0 + _eval_sinusoids(sin_z, t))
        if zoom <= 0.01:
            raise InvalidSpecError(f"zoom collapsed to {zoom} at frame {t}")
        shaky_poses.append(CameraPose(cx, cy, theta, zoom))
    return smooth_poses, shaky_poses


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _screen_center(width: int, height: int) -> tuple[float, float]:
    return (width - 1) / 2.0, (height - 1) / 2.0


def world_from_screen(
    px: float, py: float, pose: CameraPose, width: int, height: int, depth: float = 1.0
) -> tuple[float, float]:
    """Back-project a screen point onto the depth-``depth`` plane."""
    cx0, cy0 = _screen_center(width, height)
    ux = (px - cx0) / pose.zoom
    uy = (py - cy0) / pose.zoom
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    # R(-theta) applied to the zoom-corrected screen offset
    wx = pose.cx / depth + cos_t * ux + sin_t * uy
    wy = pose.cy / depth - sin_t * ux + cos_t * uy
    return wx, wy


def screen_from_world(
    wx: float, wy: float, pose: CameraPose, width: int, height: int, depth: float = 1.0
) -> tuple[float, float]:
    """Project a world point on the depth-``depth`` plane to the screen."""
    cx0, cy0 = _screen_center(width, height)
    dx = wx - pose.cx / depth
    dy = wy - pose.cy / depth
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    px = cx0 + pose.zoom * (cos_t * dx - sin_t * dy)
    py = cy0 + pose.zoom * (sin_t * dx + cos_t * dy)
    return px, py


def pose_delta_params(
    pose_a: CameraPose, pose_b: CameraPose, width: int, height: int
) -> AffineParams:
    """Similarity mapping base-plane screen points of pose_a to pose_b.

    Closed form of projecting through pose_a inverse then pose_b; on a
    single-plane world this is exactly the motion between the frames.
    """
    cx0, cy0 = _screen_center(width, height)
    d_theta = wrap_angle(pose_b.theta - pose_a.theta)
    sigma = pose_b.zoom / pose_a.zoom
    cos_d = math.cos(d_theta)
    sin_d = math.sin(d_theta)
    cos_b = math.cos(pose_b.theta)
    sin_b = math.sin(pose_b.theta)
    mx = pose_a.cx - pose_b.cx
    my = pose_a.cy - pose_b.cy
    tx = cx0 - sigma * (cos_d * cx0 - sin_d * cy0) + pose_b.zoom * (cos_b * mx - sin_b * my)
    ty = cy0 - sigma * (sin_d * cx0 + cos_d * cy0) + pose_b.zoom * (sin_b * mx + cos_b * my)
    return AffineParams(tx, ty, d_theta, sigma)


def pose_after_delta(
    pose_a: CameraPose, delta: AffineParams, width: int, height: int
) -> CameraPose:
    """The pose whose motion from ``pose_a`` equals ``delta`` exactly."""
    cx0, cy0 = _screen_center(width, height)
    theta_b = pose_a.theta + delta.theta
    zoom_b = pose_a.zoom * delta.s
    cos_d = math.cos(delta.theta)
    sin_d = math.sin(delta.theta)
    # required value of zoom_b * R(theta_b) @ (c_a - c_b)
    rx = delta.tx - cx0 + delta.s * (cos_d * cx0 - sin_d * cy0)
    ry = delta.ty - cy0 + delta.s * (sin_d * cx0 + cos_d * cy0)
    cos_b = math.cos(theta_b)
    sin_b = math.sin(theta_b)
    mx = (cos_b * rx + sin_b * ry) / zoom_b
    my = (-sin_b * rx + cos_b * ry) / zoom_b
    return CameraPose(pose_a.cx - mx, pose_a.cy - my, theta_b, zoom_b)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _layer_sampling_matrix(
    pose: CameraPose, depth: float, width: int, height: int
) -> np.ndarray:
    """2x3 map from output pixel (x, y) to texture coordinates.

    Texture pixels coincide with world coordinates, so a camera sees
    its surroundings when centered inside the canvas.
    """
    cx0, cy0 = _screen_center(width, height)
    cos_t = math.cos(pose.theta)
    sin_t = math.sin(pose.theta)
    m00 = cos_t / pose.zoom
    m01 = sin_t / pose.zoom
    m10 = -sin_t / pose.zoom
    m11 = cos_t / pose.zoom
    ox = pose.cx / depth - (m00 * cx0 + m01 * cy0)
    oy = pose.cy / depth - (m10 * cx0 + m11 * cy0)
    return np.array([[m00, m01, ox], [m10, m11, oy]], dtype=np.float64)


def render_frame(scene: Scene, pose: CameraPose) -> np.ndarray:
    """Render one grayscale frame, uint8 of shape (frame_height, frame_width).

    The base plane is an opaque backdrop; deeper layers are sparse
    alpha-masked overlays composited on top, farthest first.  Samples
    that fall outside a layer's canvas contribute nothing.  The [0, 1]
    composite is quantized with :func:`to_gray_u8`.
    """
    spec = scene.spec
    w, h = spec.frame_width, spec.frame_height
    base = scene.layers[0]
    m = _layer_sampling_matrix(pose, base.depth, w, h)
    out, inside = affine_bilinear(base.color, m, h, w)
    out = out * inside
    for layer in sorted(scene.layers[1:], key=lambda l: -l.depth):
        m = _layer_sampling_matrix(pose, layer.depth, w, h)
        vals, inside = affine_bilinear(layer.color, m, h, w)
        alph, _ = affine_bilinear(layer.alpha, m, h, w)
        a_eff = alph * inside
        out = out * (1.0 - a_eff) + vals * a_eff
    return to_gray_u8(out)


def to_gray_u8(img: np.ndarray) -> np.ndarray:
    """Quantize a [0, 1] float image to uint8 gray levels."""
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def render_video(scene: Scene, path: list[CameraPose]) -> list[np.ndarray]:
    """Render every pose with :func:`render_frame`, one uint8 frame each."""
    return [render_frame(scene, pose) for pose in path]


# ---------------------------------------------------------------------------
# Mark points and ground truth
# ---------------------------------------------------------------------------


def emit_mark_points(
    scene: Scene,
    path: list[CameraPose],
    k_points: int = 16,
    beta_frames: int = 24,
    sampling_period: int = 12,
    all_layers: bool = False,
) -> list[MarkRecord]:
    """Track short-lived stationary base-plane points across the path.

    Every ``sampling_period`` frames, ``k_points`` fresh screen
    positions are back-projected to world points and assigned new uids.
    Each point is recorded on every subsequent frame while it stays on
    screen and is younger than ``beta_frames``, then discarded, so a
    uid's observations form one contiguous frame range of at most
    ``beta_frames`` entries.

    By default points attach to the base plane, which keeps the fitted
    per-pair motion exact; ``all_layers`` scatters them uniformly
    across layers instead, deliberately reintroducing parallax error.
    """
    if k_points < 1 or beta_frames < 1 or sampling_period < 1:
        raise InvalidSpecError("k_points, beta_frames, sampling_period must be >= 1")
    if not path:
        raise InvalidSpecError("camera path is empty")
    spec = scene.spec
    w, h = spec.frame_width, spec.frame_height
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _STREAM_MARKS)))
    records: list[MarkRecord] = []
    alive: list[tuple[int, float, float, int, float]] = []  # uid, wx, wy, birth, depth
    next_uid = 0
    for f, pose in enumerate(path):
        alive = [obj for obj in alive if f - obj[3] < beta_frames]
        if f % sampling_period == 0:
            for _ in range(k_points):
                px = rng.uniform(0.0, w)
                py = rng.uniform(0.0, h)
                depth = 1.0
                if all_layers:
                    depth = float(
                        spec.layer_depths[rng.integers(0, spec.n_layers)]
                    )
                wx, wy = world_from_screen(px, py, pose, w, h, depth)
                alive.append((next_uid, wx, wy, f, depth))
                next_uid += 1
        survivors = []
        for uid, wx, wy, birth, depth in alive:
            px, py = screen_from_world(wx, wy, pose, w, h, depth)
            if 0.0 <= px < w and 0.0 <= py < h:
                records.append(MarkRecord(uid, f, px, py))
                survivors.append((uid, wx, wy, birth, depth))
        alive = survivors
    records.sort(key=lambda r: (r.frame_id, r.uid))
    return records


def marks_by_frame(records: list[MarkRecord]) -> dict[int, dict[int, tuple[float, float]]]:
    """Index mark records as frame_id -> uid -> (x, y)."""
    table: dict[int, dict[int, tuple[float, float]]] = {}
    for r in records:
        table.setdefault(r.frame_id, {})[r.uid] = (r.x, r.y)
    return table


def pair_correspondences(
    table: dict[int, dict[int, tuple[float, float]]], pair_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Matched mark positions between frame ``pair_index`` and the next.

    Returns ``(src, dst)``, two ``(n, 2)`` float64 arrays of (x, y)
    positions whose rows follow ascending mark uid.
    """
    a = table.get(pair_index, {})
    b = table.get(pair_index + 1, {})
    shared = sorted(set(a) & set(b))
    if len(shared) < 2:
        raise InsufficientMarksError(pair_index, len(shared))
    src = np.array([a[uid] for uid in shared], dtype=np.float64)
    dst = np.array([b[uid] for uid in shared], dtype=np.float64)
    return src, dst


def ground_truth_pairs(records: list[MarkRecord], n_frames: int) -> list[AffineParams]:
    """Fit the per-pair similarity from shared marks for every frame pair."""
    table = marks_by_frame(records)
    return [fit_similarity(*pair_correspondences(table, i)) for i in range(n_frames - 1)]
