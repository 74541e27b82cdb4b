"""Synthetic video generation, motion estimation, and stabilization."""

from .affine import AffineParams, fit_similarity
from .errors import SynthStabError
from .estimator import TrainConfig, estimate_sequence, train
from .generate import GenerateConfig, generate_dataset, sample_random_pairs
from .metrics import MetricsReport, evaluate
from .smoothing import smooth_trajectory
from .stabilizer import CropWindow, StabilizationResult, stabilize_video
from .synthworld import CameraPose, NoiseProfile, SceneSpec, SmoothPathSpec

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "CameraPose",
    "CropWindow",
    "GenerateConfig",
    "MetricsReport",
    "NoiseProfile",
    "SceneSpec",
    "SmoothPathSpec",
    "StabilizationResult",
    "SynthStabError",
    "TrainConfig",
    "estimate_sequence",
    "evaluate",
    "fit_similarity",
    "generate_dataset",
    "sample_random_pairs",
    "smooth_trajectory",
    "stabilize_video",
    "train",
    "__version__",
]
