"""Tests for the convolutional regressor and its backward pass."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from synthstab.affine import AffineParams
from synthstab.cnn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam, ConvRegressor, NetworkShape
from synthstab.estimator import INPUT_CHANNELS, TrainConfig, train
from synthstab.generate import PairSample, sample_random_pairs
from synthstab.kernels import conv2d_backward, conv2d_weight_grads

# ---------------------------------------------------------------------------
# Reference: the einsum form of the convolutions and of the whole network
# ---------------------------------------------------------------------------


def einsum_conv2d_forward(xp, w, b, stride):
    """Strided convolution of pre-padded ``xp`` as one ``einsum``."""
    xp = np.ascontiguousarray(xp, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    y = np.einsum("nchwij,fcij->nfhw", win, w, optimize=True)
    return y + b[None, :, None, None]


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


def reference_forward(net, x, dropout_mask=None):
    """``ConvRegressor.forward`` with freshly padded inputs and einsum
    convolutions; returns the output and the cache of
    :func:`reference_backward`."""
    x = np.asarray(x, dtype=np.float64)
    cache = {"conv": [], "mask": dropout_mask}
    a = x
    for i in range(1, len(net.shape.conv_widths) + 1):
        xp = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
        z = einsum_conv2d_forward(xp, net.params[f"conv{i}_w"], net.params[f"conv{i}_b"], 2)
        a = np.maximum(z, 0.0)
        cache["conv"].append((xp, z > 0))
    cache["pool_shape"] = a.shape
    g = a.mean(axis=(2, 3))
    h = g if dropout_mask is None else g * dropout_mask
    cache["fc"] = []
    n_fc = len(net.shape.fc_widths) + 1
    for i in range(1, n_fc + 1):
        z = h @ net.params[f"fc{i}_w"].T + net.params[f"fc{i}_b"]
        cache["fc"].append((h, z > 0))
        h = np.maximum(z, 0.0) if i < n_fc else z
    return h, cache


def reference_backward(net, cache, dy):
    """Parameter gradients of :func:`reference_forward` by einsum."""
    grads = {}
    n_fc = len(net.shape.fc_widths) + 1
    d = np.asarray(dy, dtype=np.float64)
    for i in range(n_fc, 0, -1):
        h, pos = cache["fc"][i - 1]
        if i < n_fc:
            d = d * pos
        grads[f"fc{i}_w"] = d.T @ h
        grads[f"fc{i}_b"] = d.sum(axis=0)
        d = d @ net.params[f"fc{i}_w"]
    if cache["mask"] is not None:
        d = d * cache["mask"]
    n, c, ho, wo = cache["pool_shape"]
    d = np.broadcast_to(d[:, :, None, None] / (ho * wo), (n, c, ho, wo))
    for i in range(len(net.shape.conv_widths), 0, -1):
        xp, pos = cache["conv"][i - 1]
        w = net.params[f"conv{i}_w"]
        d = d * pos
        if i == 1:
            dw, db = einsum_conv2d_weight_grads(xp, d, w.shape[2], w.shape[3], 2)
        else:
            dxp, dw, db = einsum_conv2d_backward(xp, w, d, 2)
            d = dxp[:, :, 1:-1, 1:-1]
        grads[f"conv{i}_w"] = dw
        grads[f"conv{i}_b"] = db
    return grads


def reference_loss_and_grads(net, write, targets, dropout_mask=None):
    """``ConvRegressor.loss_and_grads`` through the einsum reference, on
    the batch ``write`` puts into a fresh array."""
    s = net.shape
    x = np.empty((len(targets), s.in_channels, s.input_side, s.input_side))
    write(x)
    y, cache = reference_forward(net, x, dropout_mask)
    diff = y - targets
    return float(np.mean(diff * diff)), reference_backward(net, cache, 2.0 * diff / diff.size)


def batch(x):
    """A batch writer that copies ``x``."""
    return lambda dst: np.copyto(dst, x)


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
    # The kernels read gradients as NCHW-shaped views of channels-last or
    # channel-major memory too, and must give the same bits for each.
    dy_last = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    dy_chan = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    # Scratch arrays, filled with garbage, must not change the result.
    size = max(xp.size, dy.size) * 9
    scratch = {k: np.full(size, np.nan) for k in ("cols", "dy_rows", "dxp")}
    # dy_rows is dead before dxp is zeroed, so one array may hold both.
    shared = np.full(max(xp.size, dy.size), np.nan)
    aliased = {"cols": np.full(size, np.nan), "dy_rows": shared, "dxp": shared}
    for dy_in, kw in [(dy, {}), (dy_last, {}), (dy_chan, {}), (dy, scratch), (dy, aliased)]:
        dxp, dw, db = conv2d_backward(xp, w, dy_in, stride, **kw)
        assert dxp.shape == xp.shape
        np.testing.assert_array_equal(dxp, want_dxp)
        np.testing.assert_array_equal(dw, want_dw)
        np.testing.assert_array_equal(db, want_db)
        dw, db = conv2d_weight_grads(xp, dy_in, 3, 3, stride, cols=kw.get("cols"))
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
    _, grads = net.loss_and_grads(batch(x), targets, dropout_mask=mask)
    assert set(grads) == set(net.params)
    eps = 1e-6
    for name, value in net.params.items():
        flat = value.reshape(-1)
        numeric = np.empty_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up, _ = net.loss_and_grads(batch(x), targets, dropout_mask=mask)
            flat[k] = orig - eps
            down, _ = net.loss_and_grads(batch(x), targets, dropout_mask=mask)
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
    monkeypatch.setattr(ConvRegressor, "loss_and_grads", reference_loss_and_grads)
    want = train(pairs, cfg).tensors
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


# ---------------------------------------------------------------------------
# The network against the einsum reference at the benchmark's shapes
# ---------------------------------------------------------------------------


def _benchmark_net(side=64, seed=4):
    """A translation-head regressor with nonzero biases, and inputs
    scaled like frames in [0, 1] and flow of a few pixels."""
    shape = NetworkShape(in_channels=INPUT_CHANNELS, input_side=side)
    net = ConvRegressor(shape, seed=seed)
    rng = np.random.default_rng(seed)
    for name, value in net.params.items():
        if name.endswith("_b"):
            value[:] = rng.normal(0.0, 0.05, size=value.shape)
    x = np.empty((40, INPUT_CHANNELS, side, side))
    x[:, :2] = rng.uniform(0.0, 1.0, size=(40, 2, side, side))
    x[:, 2:] = rng.normal(0.0, 3.0, size=(40, 2, side, side))
    return net, x, rng


@pytest.mark.parametrize("dropout", [False, True])
def test_loss_and_grads_is_bit_identical_to_einsum_reference(dropout):
    net, x, rng = _benchmark_net()
    targets = rng.normal(size=(40, 2))
    mask = net.make_dropout_mask(40, rng) if dropout else None
    want_loss, want = reference_loss_and_grads(net, batch(x), targets, dropout_mask=mask)
    # The second step runs on reused memory and takes its batch as rows
    # of a larger array.
    rows = rng.permutation(80)[:40]
    pool = rng.normal(size=(80, *x.shape[1:]))
    pool[rows] = x
    for write in (batch(x), lambda dst: np.take(pool, rows, axis=0, out=dst)):
        loss, grads = net.loss_and_grads(write, targets, dropout_mask=mask)
        assert loss == want_loss
        assert set(grads) == set(want)
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("side, n", [(64, 1), (64, 3), (32, 1), (16, 1), (16, 5)])
def test_predict_is_bit_identical_to_einsum_reference(side, n):
    net, x, _ = _benchmark_net(side)
    want, _ = reference_forward(net, x[:n])
    assert net.predict(x[:n]).tobytes() == want.tobytes()


def test_adam_step_is_bit_identical_to_textbook_update():
    rng = np.random.default_rng(12)
    params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
    want = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    opt = Adam(1e-3)
    for t in range(1, 6):
        if t == 4:
            opt.lr = 1e-4
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        opt.step(params, grads)
        for k, g in grads.items():
            m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
            v2[k] = ADAM_BETA2 * v2[k] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m[k] / (1.0 - ADAM_BETA1**t)
            v_hat = v2[k] / (1.0 - ADAM_BETA2**t)
            want[k] -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for k in params:
            assert params[k].tobytes() == want[k].tobytes(), (t, k)


# ---------------------------------------------------------------------------
# Memory: a training step reuses one workspace, which training drops
# ---------------------------------------------------------------------------


def test_second_training_step_allocates_little():
    # Without a reused workspace a step allocates about 45 MB here.
    net, x, rng = _benchmark_net()
    targets = rng.normal(size=(40, 2))
    mask = net.make_dropout_mask(40, rng)
    net.loss_and_grads(batch(x), targets, dropout_mask=mask)
    tracemalloc.start()
    try:
        net.loss_and_grads(batch(x), targets, dropout_mask=mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_no_workspace_outlives_training():
    rng = np.random.default_rng(8)
    pairs = [
        PairSample(
            rng.integers(0, 256, size=(64, 64), dtype=np.uint8),
            rng.integers(0, 256, size=(64, 64), dtype=np.uint8),
            AffineParams(tx=float(k % 5), ty=-1.0, theta=0.01 * k, s=1.0),
        )
        for k in range(40)
    ]
    cfg = TrainConfig(batch_size=40, epochs_tr=1, epochs_rs=1)
    # The workspace training holds at its peak: one head's, after a step
    # on a batch of the same shape.
    net, x, rng = _benchmark_net(side=cfg.input_side)
    net.loss_and_grads(batch(x), rng.normal(size=(40, 2)))
    ws = net.workspace
    ws_bytes = sum(a.nbytes for a in (*ws._flat.values(), *ws._padded.values()))
    del net, x, ws
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = train(pairs, cfg)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before > ws_bytes
    # Only the returned tensors of both heads, about 1 MB, remain.
    assert after - before < 3e6
    assert len(result.log) == 2
