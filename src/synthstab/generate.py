"""Seeded generation of synthetic shaky videos and training pairs.

Every random quantity derives from ``SeedSequence((master_seed, index,
stream))`` so that a rerun with the same seed produces byte-identical
output files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .affine import AffineParams
from .dataset import VideoData, write_video_dir
from .errors import InvalidSpecError
from .synthworld import (
    TEXTURE_STYLES,
    CameraPose,
    NoiseProfile,
    SceneSpec,
    Scene,
    SmoothPathSpec,
    build_scene,
    generate_camera_path,
    emit_mark_points,
    pose_after_delta,
    pose_delta_params,
    render_video,
)

_STREAM_PATH = 301
_STREAM_SCENE = 302
_STREAM_PAIRS = 303

# Training-pair motion bounds: |tx|, |ty| in pixels, |theta| in
# radians, |s - 1|.
MAX_TRANSLATION = 8.0
MAX_ROTATION = 0.05
MAX_SCALE_DELTA = 0.03
# Consecutive training pairs rendered from one scene.
PAIRS_PER_SCENE = 10


@dataclass(frozen=True)
class GenerateConfig:
    """Knobs for dataset generation; defaults give 128x128, 24 fps clips."""

    n_videos: int = 5
    n_frames: int = 200
    width: int = 128
    height: int = 128
    fps: int = 24
    seed: int = 0
    n_layers: int = 1
    texture_style: str = "mixed"

    def __post_init__(self) -> None:
        if self.n_videos < 1:
            raise InvalidSpecError("n_videos must be at least 1")
        if self.n_frames < 2:
            raise InvalidSpecError("n_frames must be at least 2")
        if self.fps < 1:
            raise InvalidSpecError("fps must be positive")
        if self.n_layers < 1:
            raise InvalidSpecError("n_layers must be at least 1")


def video_seed(master_seed: int, index: int) -> int:
    """Stable per-video seed derived from the master seed."""
    return int(
        np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0]
        % (2**31 - 1)
    )


def random_smooth_path(
    rng: np.random.Generator, spec: SceneSpec, n_frames: int
) -> SmoothPathSpec:
    """Gentle wandering path that keeps the view inside the canvas.

    The wander waypoints give the intentional track real energy at
    periods of tens of frames, which the jitter sinusoids (much faster)
    never reach; stabilization must keep the former and drop the latter.
    """
    c = spec.canvas_size / 2.0
    spacing = rng.uniform(30.0, 55.0)
    n_points = int(n_frames / spacing) + 2
    return SmoothPathSpec(
        start_x=c + rng.uniform(-20.0, 20.0),
        start_y=c + rng.uniform(-20.0, 20.0),
        vel_x=rng.uniform(-0.3, 0.3),
        vel_y=rng.uniform(-0.3, 0.3),
        accel_x=rng.uniform(-0.001, 0.001),
        accel_y=rng.uniform(-0.001, 0.001),
        theta0=rng.uniform(-0.05, 0.05),
        theta_rate=rng.uniform(-0.001, 0.001),
        zoom0=rng.uniform(0.95, 1.05),
        zoom_rate=rng.uniform(-1e-4, 1e-4),
        wander_x=tuple(rng.uniform(-25.0, 25.0, size=n_points)),
        wander_y=tuple(rng.uniform(-25.0, 25.0, size=n_points)),
        wander_spacing=spacing,
    )


def random_scene_spec(
    rng: np.random.Generator, cfg: GenerateConfig, seed: int
) -> SceneSpec:
    if cfg.n_layers == 1:
        depths = (1.0,)
    else:
        extra = np.sort(rng.uniform(1.3, 4.0, size=cfg.n_layers - 1))
        depths = (1.0,) + tuple(float(d) for d in extra)
    style = cfg.texture_style
    if style == "random":
        style = str(rng.choice(TEXTURE_STYLES))
    canvas = max(512, 4 * max(cfg.width, cfg.height))
    return SceneSpec(
        seed=seed,
        canvas_size=canvas,
        n_layers=cfg.n_layers,
        layer_depths=depths,
        texture_style=style,
        frame_width=cfg.width,
        frame_height=cfg.height,
    )


def make_video(cfg: GenerateConfig, index: int) -> VideoData:
    """Render one shaky video with marks and per-pair ground truth."""
    seed = video_seed(cfg.seed, index)
    path_rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_PATH)))
    scene_rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_SCENE)))
    spec = random_scene_spec(scene_rng, cfg, seed)
    scene = build_scene(spec)
    smooth_spec = random_smooth_path(path_rng, spec, cfg.n_frames)
    noise = replace(NoiseProfile(), seed=seed)
    _, shaky = generate_camera_path(smooth_spec, noise, cfg.n_frames)
    frames = render_video(scene, shaky)
    marks = emit_mark_points(scene, shaky)
    gt = [
        pose_delta_params(shaky[i], shaky[i + 1], cfg.width, cfg.height)
        for i in range(cfg.n_frames - 1)
    ]
    return VideoData(
        video_id=f"video_{index:03d}",
        frames=frames,
        fps=cfg.fps,
        seed=seed,
        n_layers=cfg.n_layers,
        marks=marks,
        gt=gt,
    )


def generate_dataset(root: str, cfg: GenerateConfig) -> list[str]:
    """Render every video into its directory under ``root``; returns the ids."""
    video_ids = []
    for i in range(cfg.n_videos):
        video = make_video(cfg, i)
        write_video_dir(os.path.join(root, video.video_id), video)
        video_ids.append(video.video_id)
    return video_ids


# ---------------------------------------------------------------------------
# Training pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSample:
    """One training example: two frames and the exact motion between them."""

    frame_a: np.ndarray
    frame_b: np.ndarray
    params: AffineParams


def sample_random_pairs(n_pairs: int, side: int = 64, seed: int = 0) -> list[PairSample]:
    """Frame pairs under known similarity motion, exact targets included.

    Each motion is drawn uniformly within ``MAX_TRANSLATION``,
    ``MAX_ROTATION`` and ``MAX_SCALE_DELTA``.

    The second pose is solved so that the screen-space motion between the
    two renders equals the sampled parameters exactly.
    """
    if n_pairs < 1:
        raise InvalidSpecError("n_pairs must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_PAIRS)))
    canvas = max(512, 4 * side)
    samples: list[PairSample] = []
    scene: Scene | None = None
    for j in range(n_pairs):
        if j % PAIRS_PER_SCENE == 0 or scene is None:
            spec = SceneSpec(
                seed=int(rng.integers(0, 2**31 - 1)),
                canvas_size=canvas,
                n_layers=1,
                layer_depths=(1.0,),
                texture_style="mixed",
                frame_width=side,
                frame_height=side,
            )
            scene = build_scene(spec)
        c = canvas / 2.0
        pose_a = CameraPose(
            cx=c + rng.uniform(-15.0, 15.0),
            cy=c + rng.uniform(-15.0, 15.0),
            theta=rng.uniform(-0.1, 0.1),
            zoom=float(np.exp(rng.uniform(-0.05, 0.05))),
        )
        params = AffineParams(
            tx=rng.uniform(-MAX_TRANSLATION, MAX_TRANSLATION),
            ty=rng.uniform(-MAX_TRANSLATION, MAX_TRANSLATION),
            theta=rng.uniform(-MAX_ROTATION, MAX_ROTATION),
            s=1.0 + rng.uniform(-MAX_SCALE_DELTA, MAX_SCALE_DELTA),
        )
        pose_b = pose_after_delta(pose_a, params, side, side)
        frame_a = render_video(scene, [pose_a])[0]
        frame_b = render_video(scene, [pose_b])[0]
        samples.append(PairSample(frame_a, frame_b, params))
    return samples
