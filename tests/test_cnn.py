"""Tests for the convolutional regressor and its backward pass."""

from __future__ import annotations

import numpy as np
import pytest

from synthstab import cnn
from synthstab.cnn import ConvRegressor, NetworkShape
from synthstab.estimator import TrainConfig, train
from synthstab.generate import sample_random_pairs
from synthstab.kernels import conv2d_backward, conv2d_weight_grads

# ---------------------------------------------------------------------------
# Reference: the einsum form of the backward pass
# ---------------------------------------------------------------------------


def einsum_conv2d_backward(xp, w, dy, stride):
    """Input, weight and bias gradients computed with ``einsum``.

    The kernels reorder this computation but promise the same bits.
    """
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    db = dy.sum(axis=(0, 2, 3))
    dw = np.einsum("nchwij,nfhw->fcij", win, dy, optimize=True)
    dcols = np.einsum("fcij,nfhw->nchwij", w, dy, optimize=True)
    dxp = np.zeros_like(xp)
    ho, wo = dy.shape[2], dy.shape[3]
    for ky in range(kh):
        for kx in range(kw):
            dxp[:, :, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride] += dcols[
                :, :, :, :, ky, kx
            ]
    return dxp, dw, db


def einsum_conv2d_weight_grads(xp, dy, kh, kw, stride):
    """Weight and bias gradients of :func:`einsum_conv2d_backward`."""
    w = np.zeros((dy.shape[1], xp.shape[1], kh, kw))
    _, dw, db = einsum_conv2d_backward(xp, w, dy, stride)
    return dw, db


# ---------------------------------------------------------------------------
# Kernels against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize(
    "n, c, f, side",
    [(1, 1, 1, 5), (1, 2, 3, 7), (2, 3, 4, 9), (3, 4, 5, 10), (5, 2, 16, 17), (4, 16, 8, 12)],
)
def test_backward_is_bit_identical_to_einsum(n, c, f, side, stride):
    rng = np.random.default_rng(n * 1000 + c * 100 + f * 10 + side)
    xp = rng.normal(size=(n, c, side, side))
    w = rng.normal(size=(f, c, 3, 3))
    out = (side - 3) // stride + 1
    dy = rng.normal(size=(n, f, out, out))
    want_dxp, want_dw, want_db = einsum_conv2d_backward(xp, w, dy, stride)
    dxp, dw, db = conv2d_backward(xp, w, dy, stride)
    assert dxp.shape == xp.shape
    np.testing.assert_array_equal(dxp, want_dxp)
    np.testing.assert_array_equal(dw, want_dw)
    np.testing.assert_array_equal(db, want_db)
    dw, db = conv2d_weight_grads(xp, dy, 3, 3, stride)
    np.testing.assert_array_equal(dw, want_dw)
    np.testing.assert_array_equal(db, want_db)


# ---------------------------------------------------------------------------
# ConvRegressor gradients against finite differences
# ---------------------------------------------------------------------------

TINY = NetworkShape(
    in_channels=2, conv_widths=(3, 4), fc_widths=(5,), out_dim=2, input_side=8, dropout_rate=0.5
)


@pytest.mark.parametrize("dropout", [False, True])
def test_loss_and_grads_match_central_differences(dropout):
    rng = np.random.default_rng(17)
    net = ConvRegressor(TINY, seed=3)
    for name, value in net.params.items():
        if name.endswith("_b"):
            value[:] = rng.normal(0.0, 0.1, size=value.shape)
    x = rng.normal(size=(3, 2, 8, 8))
    targets = rng.normal(size=(3, 2))
    mask = net.make_dropout_mask(3, rng) if dropout else None
    _, grads = net.loss_and_grads(x, targets, dropout_mask=mask)
    assert set(grads) == set(net.params)
    eps = 1e-6
    for name, value in net.params.items():
        flat = value.reshape(-1)
        numeric = np.empty_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up, _ = net.loss_and_grads(x, targets, dropout_mask=mask)
            flat[k] = orig - eps
            down, _ = net.loss_and_grads(x, targets, dropout_mask=mask)
            flat[k] = orig
            numeric[k] = (up - down) / (2 * eps)
        np.testing.assert_allclose(
            grads[name].reshape(-1), numeric, rtol=1e-5, atol=1e-8, err_msg=name
        )


# ---------------------------------------------------------------------------
# Training is unchanged by the reordered backward pass
# ---------------------------------------------------------------------------


def test_training_matches_einsum_backward_bitwise(monkeypatch):
    # At 24 px the layer products are small enough for BLAS to pick
    # kernels whose result depends on operand layout, so a product laid
    # out unlike einsum's changes the trained weights.
    pairs = sample_random_pairs(8, side=24, seed=5)
    cfg = TrainConfig(batch_size=4, epochs_tr=2, epochs_rs=1, input_side=24, seed=1)
    got = train(pairs, cfg).tensors
    monkeypatch.setattr(cnn, "conv2d_backward", einsum_conv2d_backward)
    monkeypatch.setattr(cnn, "conv2d_weight_grads", einsum_conv2d_weight_grads)
    want = train(pairs, cfg).tensors
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
