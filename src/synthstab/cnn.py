"""Small float64 convolutional regressors, trained from scratch.

Two instances of the same architecture predict the translation pair
and the rotation/scale pair between two frames.  Everything is plain
numpy (with the shared kernels module doing the convolution work), so
gradients can be checked against finite differences.

Memory.  A regressor runs on a :class:`Workspace` that keeps every
conv layer's padded input and ReLU mask and the kernels' scratch
arrays from one step to the next, so a training step allocates only
its small fully connected temporaries and the gradients it returns.
A batch enters through a writer that fills the first layer's padded
interior, so the inputs need never exist as one array: ``predict``'s
writer copies its array, and ``estimator.train``'s builds each batch
from the uint8 frames and the block flow.  Activations and gradients
stay in the layout the next matrix product reads (see ``kernels``): the
ReLU writes each conv output straight into the next layer's
zero-bordered padded input, and each output gradient is formed in the
(F, N, Ho, Wo) memory of its mask.  The channels-last copy of an output
gradient and the input-gradient accumulator share one array.
``estimator.train`` shares one workspace between its two heads, which
train one after the other, and drops it when it returns; a regressor
built without one makes its own, which lives as long as the regressor.

Fixed reduction order.  The pooled mean reduces the last conv output
in the (F, N, Ho, Wo) memory the forward product leaves it in, the
layout the einsum form of the forward pass gave it.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import atomic_write_bytes
from .errors import IoFailureError, InvalidSpecError
from .kernels import conv2d_backward, conv2d_forward, conv2d_weight_grads

WEIGHTS_MAGIC = b"STBW1"

# Writes a batch's inputs into the (N, C, S, S) view it is given.
BatchWriter = Callable[[np.ndarray], None]


@dataclass(frozen=True)
class NetworkShape:
    """Architecture hyperparameters of one regressor head."""

    in_channels: int
    conv_widths: tuple[int, ...] = (16, 32, 64, 64)
    fc_widths: tuple[int, ...] = (64, 32)
    out_dim: int = 2
    input_side: int = 64
    dropout_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.in_channels < 1 or self.out_dim < 1:
            raise InvalidSpecError("channel and output counts must be positive")
        if self.input_side < 2 ** len(self.conv_widths):
            raise InvalidSpecError(
                f"input side {self.input_side} too small for "
                f"{len(self.conv_widths)} stride-2 layers"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidSpecError("dropout_rate must lie in [0, 1)")


class Workspace:
    """Arrays that training steps reuse instead of reallocating.

    Named flat arrays, grown to the largest size asked for, hold the
    kernels' scratch, the gradients and the ReLU masks; per layer it
    keeps the zero-bordered padded input.  Two regressors may share a
    workspace as long as each ``backward`` follows its own ``forward``.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}
        self._padded: dict[int, np.ndarray] = {}

    def flat(self, name: str, size: int, dtype: type = np.float64) -> np.ndarray:
        """A flat array of at least ``size`` entries."""
        buf = self._flat.get(name)
        if buf is None or buf.size < size:
            buf = self._flat[name] = np.empty(size, dtype=dtype)
        return buf

    def padded(self, layer: int, n: int, c: int, side: int) -> np.ndarray:
        """Layer input (n, c, side + 2, side + 2) whose one-pixel border
        is zero; callers write only the interior."""
        buf = self._padded.get(layer)
        if buf is None or buf.shape[1:] != (c, side + 2, side + 2) or buf.shape[0] < n:
            buf = self._padded[layer] = np.zeros((n, c, side + 2, side + 2))
        return buf[:n]


class ConvRegressor:
    """Conv stack, global average pool, dropout, three linear layers.

    A forward pass writes its activations into ``workspace``, so the
    cache it returns is valid until the next forward pass on that
    workspace.  A regressor built without one makes its own.
    """

    def __init__(
        self, shape: NetworkShape, seed: int = 0, workspace: Workspace | None = None
    ) -> None:
        self.shape = shape
        self.workspace = Workspace() if workspace is None else workspace
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        c_in = shape.in_channels
        for i, width in enumerate(shape.conv_widths, start=1):
            fan_in = c_in * 9
            self.params[f"conv{i}_w"] = rng.normal(
                0.0, np.sqrt(2.0 / fan_in), size=(width, c_in, 3, 3)
            )
            self.params[f"conv{i}_b"] = np.zeros(width, dtype=np.float64)
            c_in = width
        d_in = shape.conv_widths[-1]
        dims = (*shape.fc_widths, shape.out_dim)
        for i, d_out in enumerate(dims, start=1):
            self.params[f"fc{i}_w"] = rng.normal(
                0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in)
            )
            self.params[f"fc{i}_b"] = np.zeros(d_out, dtype=np.float64)
            d_in = d_out

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        s = self.shape
        if x.ndim != 4 or x.shape[1:] != (s.in_channels, s.input_side, s.input_side):
            raise InvalidSpecError(
                f"expected (N, {s.in_channels}, {s.input_side}, {s.input_side}), "
                f"got {x.shape}"
            )
        return x

    def make_dropout_mask(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverted-dropout mask for a batch of ``n`` pooled vectors."""
        rate = self.shape.dropout_rate
        if rate == 0.0:
            return np.ones((n, self.shape.conv_widths[-1]), dtype=np.float64)
        keep = rng.random((n, self.shape.conv_widths[-1])) >= rate
        return keep.astype(np.float64) / (1.0 - rate)

    def _kernel_scratch(self, n: int) -> dict[str, np.ndarray]:
        """The kernels' flat scratch arrays, sized for the largest layer."""
        sizes = {"cols": 0, "out": 0}
        c, side = self.shape.in_channels, self.shape.input_side
        for f in self.shape.conv_widths:
            side = (side - 1) // 2 + 1
            sizes["cols"] = max(sizes["cols"], 9 * c * n * side * side)
            sizes["out"] = max(sizes["out"], f * n * side * side)
            c = f
        ws = self.workspace
        return {name: ws.flat(name, size) for name, size in sizes.items()}

    def forward(
        self, write: BatchWriter, n: int, dropout_mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict]:
        """Run the network on the batch of ``n`` samples that ``write``
        puts into the first layer's padded interior; dropout applies
        only when a mask is given."""
        ws = self.workspace
        scratch = self._kernel_scratch(n)
        xp = ws.padded(1, n, self.shape.in_channels, self.shape.input_side)
        write(xp[:, :, 1:-1, 1:-1])
        cache: dict = {"conv": [], "mask": dropout_mask}
        n_conv = len(self.shape.conv_widths)
        for i in range(1, n_conv + 1):
            w = self.params[f"conv{i}_w"]
            z = conv2d_forward(xp, w, self.params[f"conv{i}_b"], 2, **scratch)
            f, ho, wo = z.shape[1:]
            pos = ws.flat(f"mask{i}", z.size, bool)[: z.size].reshape(f, n, ho, wo)
            pos = np.greater(z, 0.0, out=pos.transpose(1, 0, 2, 3))
            cache["conv"].append((xp, pos))
            if i < n_conv:
                xp = ws.padded(i + 1, n, f, ho)
                np.maximum(z, 0.0, out=xp[:, :, 1:-1, 1:-1])
        # The last activation keeps the conv output's (F, N, Ho, Wo)
        # memory, over which the pooled mean reduces as it always has.
        a = np.maximum(z, 0.0, out=z)
        cache["pool_shape"] = a.shape
        g = a.mean(axis=(2, 3))
        h = g if dropout_mask is None else g * dropout_mask
        cache["fc"] = []
        n_fc = len(self.shape.fc_widths) + 1
        for i in range(1, n_fc + 1):
            w = self.params[f"fc{i}_w"]
            b = self.params[f"fc{i}_b"]
            z = h @ w.T + b
            cache["fc"].append((h, z > 0))
            h = np.maximum(z, 0.0) if i < n_fc else z
        return h, cache

    def backward(self, cache: dict, dy: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of every parameter given d(loss)/d(output).

        Each conv layer's output gradient is formed in the (F, N, Ho, Wo)
        memory of its mask and passed to the kernels as an NCHW-shaped
        view.
        """
        grads: dict[str, np.ndarray] = {}
        n_fc = len(self.shape.fc_widths) + 1
        d = np.asarray(dy, dtype=np.float64)
        for i in range(n_fc, 0, -1):
            h, pos = cache["fc"][i - 1]
            if i < n_fc:
                d = d * pos
            grads[f"fc{i}_w"] = d.T @ h
            grads[f"fc{i}_b"] = d.sum(axis=0)
            d = d @ self.params[f"fc{i}_w"]
        if cache["mask"] is not None:
            d = d * cache["mask"]
        n, c, ho, wo = cache["pool_shape"]
        d = np.broadcast_to(d[:, :, None, None] / (ho * wo), (n, c, ho, wo))
        ws = self.workspace
        scratch = self._kernel_scratch(n)
        # conv2d_backward is done with the channels-last copy of dy once
        # it has formed dcols, before it zeroes dxp, so one array holds
        # both, sized for the larger.
        pads = [xp.size for xp, _ in cache["conv"][1:]]
        shared = ws.flat("dxp", max(scratch["out"].size, *pads))
        for i in range(len(self.shape.conv_widths), 0, -1):
            xp, pos = cache["conv"][i - 1]
            w = self.params[f"conv{i}_w"]
            _, f, ho, wo = pos.shape
            dy_i = scratch["out"][: pos.size].reshape(f, n, ho, wo).transpose(1, 0, 2, 3)
            np.multiply(d, pos, out=dy_i)
            if i == 1:
                # The input gradient of the first layer is never used.
                dw, db = conv2d_weight_grads(
                    xp, dy_i, w.shape[2], w.shape[3], 2, cols=scratch["cols"]
                )
            else:
                dxp, dw, db = conv2d_backward(
                    xp, w, dy_i, 2, cols=scratch["cols"], dy_rows=shared, dxp=shared
                )
                d = dxp[:, :, 1:-1, 1:-1]
            grads[f"conv{i}_w"] = dw
            grads[f"conv{i}_b"] = db
        return grads

    def loss_and_grads(
        self,
        write: BatchWriter,
        targets: np.ndarray,
        dropout_mask: np.ndarray | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean-squared-error loss and its parameter gradients on the
        batch that ``write`` puts in, one sample per target row."""
        t = np.asarray(targets, dtype=np.float64)
        y, cache = self.forward(write, len(t), dropout_mask=dropout_mask)
        if t.shape != y.shape:
            raise InvalidSpecError(f"targets {t.shape} vs outputs {y.shape}")
        diff = y - t
        loss = float(np.mean(diff * diff))
        dy = 2.0 * diff / diff.size
        return loss, self.backward(cache, dy)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Forward pass with dropout disabled, in bounded batches."""
        x = self._check_input(x)
        outs = []
        for start in range(0, x.shape[0], batch_size):
            chunk = x[start : start + batch_size]
            y, _ = self.forward(lambda dst: np.copyto(dst, chunk), len(chunk))
            outs.append(y)
        return np.concatenate(outs, axis=0)


# Adam's moment decay rates and the denominator's guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; ``lr`` may be changed between steps.

    A step updates the moments and the parameters in place, through two
    scratch arrays per parameter, one rounding per operation in the
    order of the textbook expressions.
    """

    def __init__(self, lr: float = 1e-4) -> None:
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._tmp: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
                self._tmp[name] = (np.empty_like(g), np.empty_like(g))
            m, v = self.m[name], self.v[name]
            num, den = self._tmp[name]
            # m = B1*m + (1-B1)*g and v = B2*v + (1-B2)*(g*g).
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=num)
            v *= ADAM_BETA2
            np.multiply(g, g, out=num)
            num *= 1.0 - ADAM_BETA2
            v += num
            # params -= lr * (m/b1t) / (sqrt(v/b2t) + eps).
            np.divide(m, b1t, out=num)
            num *= self.lr
            np.sqrt(np.divide(v, b2t, out=den), out=den)
            den += ADAM_EPS
            num /= den
            params[name] -= num


# ---------------------------------------------------------------------------
# Weights file
# ---------------------------------------------------------------------------


def save_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors in insertion order (little-endian)."""
    chunks = [WEIGHTS_MAGIC]
    for name, arr in tensors.items():
        a = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(a.tobytes(order="C"))
    atomic_write_bytes(path, b"".join(chunks))


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read a tensors file back; dict preserves on-disk order.

    A tensor holding NaN or infinite values is rejected like a corrupt file.
    """
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    if payload[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise IoFailureError(f"{path}: bad weights magic")
    pos = len(WEIGHTS_MAGIC)
    tensors: dict[str, np.ndarray] = {}

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(payload):
            raise IoFailureError(f"{path}: truncated weights file")
        out = payload[pos : pos + n]
        pos += n
        return out

    while pos < len(payload):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        count = int(np.prod(dims)) if dims else 1
        data = take(8 * count)
        arr = np.frombuffer(data, dtype="<f8").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise IoFailureError(f"{path}: tensor {name} holds non-finite values")
        tensors[name] = arr
    return tensors
