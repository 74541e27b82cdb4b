"""Tests for the learned backend's weights file and non-finite output."""

from __future__ import annotations

import numpy as np
import pytest

from synthstab import cli
from synthstab.affine import AffineParams
from synthstab.cnn import ConvRegressor, NetworkShape, load_tensors, save_tensors
from synthstab.errors import IoFailureError, MeasurementError
from synthstab.estimator import INPUT_CHANNELS, LearnedEstimator, estimate_sequence

SIDE = 16


def untrained_tensors(in_channels: int = INPUT_CHANNELS) -> dict[str, np.ndarray]:
    """A complete weights set for two untrained regressors."""
    tensors: dict[str, np.ndarray] = {}
    for prefix in ("tr", "rs"):
        net = ConvRegressor(
            NetworkShape(in_channels=in_channels, input_side=SIDE, dropout_rate=0.0)
        )
        for name in net.param_names():
            tensors[f"{prefix}_{name}"] = net.params[name]
        tensors[f"{prefix}_target_mean"] = np.array([0.0, 1.0])
        tensors[f"{prefix}_target_std"] = np.array([1.0, 0.01])
    tensors["meta_input_side"] = np.array([float(SIDE)])
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


def test_weights_with_the_old_flow_flag_load_and_estimate_alike(tmp_path):
    # Weights files of earlier versions carry a ``meta_use_flow`` tensor.
    tensors = untrained_tensors()
    old, new = str(tmp_path / "old.bin"), str(tmp_path / "new.bin")
    save_tensors(old, {**tensors, "meta_use_flow": np.array([1.0])})
    save_tensors(new, tensors)
    assert "meta_use_flow" in load_tensors(old)
    assert estimate_sequence(_frames(), "learned", weights=old) == estimate_sequence(
        _frames(), "learned", weights=new
    )


def _stabilize_learned(tmp_path, tensors):
    """Exit code and stderr of ``stabilize --backend learned`` with the
    weights ``tensors`` on a generated clip, and the clip's directory."""
    weights = tmp_path / "w.bin"
    save_tensors(str(weights), tensors)
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_videos=1\nn_frames=4\nwidth=32\nheight=32\n", encoding="utf-8")
    assert cli.run(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    video_dir = tmp_path / "data" / "video_000"
    argv = ["stabilize", "--input", video_dir, "--backend", "learned", "--weights", weights]
    return cli.run([str(a) for a in argv]), video_dir


def test_two_channel_weights_are_an_io_error(tmp_path, capsys):
    code, video_dir = _stabilize_learned(tmp_path, untrained_tensors(in_channels=2))
    assert code == IoFailureError.exit_code
    err = capsys.readouterr().err
    assert err == (
        "io error: tensor tr_conv1_w has shape (16, 2, 3, 3), expected (16, 4, 3, 3)\n"
    )
    assert not (video_dir / "stabilized").exists()


@pytest.mark.parametrize(
    "missing", ["rs_target_std", "tr_target_mean", "meta_input_side", "rs_fc3_b"]
)
def test_missing_tensor_is_an_io_error_naming_it(tmp_path, capsys, missing):
    tensors = untrained_tensors()
    del tensors[missing]
    code, video_dir = _stabilize_learned(tmp_path, tensors)
    assert code == IoFailureError.exit_code
    assert capsys.readouterr().err == f"io error: weights file missing tensor {missing}\n"
    assert not (video_dir / "stabilized").exists()
