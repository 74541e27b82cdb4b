"""Tests for the learned backend's weights file and non-finite output."""

from __future__ import annotations

import numpy as np
import pytest

from synthstab.affine import AffineParams
from synthstab.cnn import ConvRegressor, NetworkShape, load_tensors, save_tensors
from synthstab.errors import IoFailureError, MeasurementError
from synthstab.estimator import LearnedEstimator, estimate_sequence

SIDE = 16


def untrained_tensors() -> dict[str, np.ndarray]:
    """A complete weights set for two untrained frame-only regressors."""
    tensors: dict[str, np.ndarray] = {}
    for prefix in ("tr", "rs"):
        net = ConvRegressor(NetworkShape(in_channels=2, input_side=SIDE, dropout_rate=0.0))
        for name in net.param_names():
            tensors[f"{prefix}_{name}"] = net.params[name]
        tensors[f"{prefix}_target_mean"] = np.array([0.0, 1.0])
        tensors[f"{prefix}_target_std"] = np.array([1.0, 0.01])
    tensors["meta_input_side"] = np.array([float(SIDE)])
    tensors["meta_use_flow"] = np.array([0.0])
    return tensors


def _frames(n: int = 3) -> list[np.ndarray]:
    rng = np.random.default_rng(0)
    return [rng.integers(0, 256, size=(32, 32)).astype(np.uint8) for _ in range(n)]


def test_nan_weight_becomes_identity_with_warning():
    tensors = untrained_tensors()
    tensors["tr_fc3_b"] = np.array([np.nan, 0.0])
    learned = LearnedEstimator(tensors)
    with pytest.raises(MeasurementError):
        learned.estimate(*_frames(2))
    estimates, warnings = estimate_sequence(_frames(), "learned", weights=learned)
    assert estimates == [AffineParams.identity()] * 2
    assert len(warnings) == 2
    assert all("substituted identity" in w for w in warnings)


def test_finite_weights_give_finite_estimates():
    estimates, warnings = estimate_sequence(
        _frames(), "learned", weights=LearnedEstimator(untrained_tensors())
    )
    assert warnings == []
    assert all(np.isfinite([e.tx, e.ty, e.theta, e.s]).all() for e in estimates)


def test_weights_round_trip(tmp_path):
    tensors = untrained_tensors()
    path = str(tmp_path / "w.bin")
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_tensors_rejects_non_finite(tmp_path, bad):
    tensors = untrained_tensors()
    tensors["rs_conv2_w"] = tensors["rs_conv2_w"].copy()
    tensors["rs_conv2_w"][1, 0, 2, 1] = bad
    path = str(tmp_path / "w.bin")
    save_tensors(path, tensors)
    with pytest.raises(IoFailureError, match="rs_conv2_w"):
        load_tensors(path)
    with pytest.raises(IoFailureError):
        estimate_sequence(_frames(), "learned", weights=path)
