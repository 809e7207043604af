"""Dense tensors with reverse-mode differentiation on an explicit tape.

The operator set is the minimum needed for small convolutional
classifiers: conv2d (dense and depthwise), batch norm,
channel gating, ReLU, average pooling, global average pooling, linear,
residual add, and label-smoothed cross-entropy. Convolution uses im2col
with plain numpy matmul; correctness wins over throughput.

Gradients are requested explicitly: run ops with a ``Tape``, then call
``tape.backward(loss, targets)`` to obtain ``{tensor: gradient}`` for
exactly the requested targets. Tensors never store gradients, so
parameters that are not targets are guaranteed untouched by backward.

Every op validates that its output is finite; NaN/Inf raises
``NonFiniteError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GeometryError,
    GraphError,
    LabelError,
    NonFiniteError,
    ShapeError,
    StatsError,
)

_DEFAULT_DTYPE: type = np.float32


def set_default_dtype(dtype) -> None:
    """Set the dtype for newly created tensors (float32 or float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"unsupported default dtype {dt}")
    _DEFAULT_DTYPE = dt.type


def default_dtype() -> type:
    return _DEFAULT_DTYPE


class Tensor:
    """Dense n-d array plus a ``requires_grad`` flag.

    ``data`` is held as-is when the dtype already matches, so optimizers
    may update parameters in place through ``.data``.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    __float__ = item

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# Backward closure: (upstream_grad, needs) -> per-input gradients, None
# where the matching input does not need one.
BackwardFn = Callable[[np.ndarray, tuple[bool, ...]], tuple]


@dataclass
class TapeNode:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: BackwardFn


class Tape:
    """Ordered record of differentiable operations.

    Nodes are appended in execution order, which is a topological order
    of the graph by construction. ``backward`` walks the list once, in
    reverse, accumulating gradients in a table keyed by output identity.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def record(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
               backward: BackwardFn) -> None:
        self.nodes.append(TapeNode(op, inputs, output, backward))

    def backward(self, loss: Tensor, targets: Sequence[Tensor]) -> dict[Tensor, np.ndarray]:
        """Return ``{t: dloss/dt}`` for every tensor in ``targets``.

        ``loss`` must be a scalar produced on this tape. Targets the loss
        does not depend on receive a zero gradient. No tensor outside the
        returned map is mutated or annotated.
        """
        if loss.size != 1:
            raise GraphError(f"loss must be scalar, got shape {loss.shape}")
        if not any(node.output is loss for node in self.nodes):
            raise GraphError("loss was not produced on this tape")

        table: dict[int, np.ndarray] = {
            id(loss): np.ones_like(loss.data)
        }
        for node in reversed(self.nodes):
            gout = table.get(id(node.output))
            if gout is None:
                continue
            needs = tuple(t.requires_grad for t in node.inputs)
            if not any(needs):
                continue
            gins = node.backward(gout, needs)
            for tin, gin, need in zip(node.inputs, gins, needs):
                if not need or gin is None:
                    continue
                key = id(tin)
                if key in table:
                    table[key] = table[key] + gin
                else:
                    table[key] = gin
        return {t: table.get(id(t), np.zeros_like(t.data)) for t in targets}


def _emit(tape: Tape | None, op: str, inputs: tuple[Tensor, ...],
          data: np.ndarray, backward: BackwardFn) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values in output of {op}")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    if tape is not None and out.requires_grad:
        tape.record(op, inputs, out, backward)
    return out


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


# ---------------------------------------------------------------------------
# convolution

def _windows(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    # view of shape [N, C, Ho, Wo, kh, kw]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw]


def _scatter_windows(shape, grad_win_fn, kh, kw, sh, sw, ho, wo, ph, pw, h, w):
    """Accumulate per-window gradients back onto a padded input buffer.

    ``grad_win_fn(i, j)`` must return the [N, C, Ho, Wo] gradient slab for
    kernel offset (i, j).
    """
    first = grad_win_fn(0, 0)
    dxp = np.zeros(shape, dtype=first.dtype)
    for i in range(kh):
        for j in range(kw):
            slab = first if (i == 0 and j == 0) else grad_win_fn(i, j)
            dxp[:, :, i:i + ho * sh:sh, j:j + wo * sw:sw] += slab
    return dxp[:, :, ph:ph + h, pw:pw + w]


def conv2d(x: Tensor, w: Tensor, stride=1, padding=0, groups: int = 1,
           tape: Tape | None = None) -> Tensor:
    """2-d cross-correlation of [N,Cin,H,W] with [Cout,Cin/groups,kh,kw].

    Differentiable w.r.t. both input and weight. Two forms exist: dense
    (``groups == 1``) and depthwise (``groups == Cin == Cout``); any
    other ``groups`` raises ``ShapeError``.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.shape}/{w.shape}")
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if groups != 1 and not groups == cin == cout:
        raise ShapeError(f"groups={groups} with Cin={cin}, Cout={cout} is "
                         "neither dense nor depthwise")
    if cin_g != cin // groups:
        raise ShapeError(f"weight expects Cin/groups={cin_g}, input gives {cin // groups}")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1 or kh > h + 2 * ph or kw > wd + 2 * pw:
        raise GeometryError(
            f"conv2d output {ho}x{wo} non-positive for input {h}x{wd}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    if groups == cin == cout:
        wsq = w.data[:, 0]  # [C, kh, kw]
        win = _windows(xp, kh, kw, sh, sw)
        out = np.einsum("nchwij,cij->nchw", win, wsq, optimize=True)

        def bwd(gout, needs):
            dx = dw = None
            if needs[0]:
                dx = _scatter_windows(
                    xp.shape,
                    lambda i, j: gout * wsq[None, :, i, j, None, None],
                    kh, kw, sh, sw, ho, wo, ph, pw, h, wd)
            if needs[1]:
                dw = np.einsum("nchwij,nchw->cij", win, gout,
                               optimize=True)[:, None]
            return dx, dw

        return _emit(tape, "conv2d", (x, w), out, bwd)

    win = _windows(xp, kh, kw, sh, sw)
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n, ho * wo, -1)
    wm = w.data.reshape(cout, -1)
    out = (cols @ wm.T).transpose(0, 2, 1).reshape(n, cout, ho, wo)

    def bwd(gout, needs):
        g2 = gout.transpose(0, 2, 3, 1).reshape(n, ho * wo, cout)
        dx = dw = None
        if needs[0]:
            dcols = (g2 @ wm).reshape(n, ho, wo, cin, kh, kw)
            dx = _scatter_windows(
                xp.shape,
                lambda i, j: dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2),
                kh, kw, sh, sw, ho, wo, ph, pw, h, wd)
        if needs[1]:
            dw = np.tensordot(g2, cols, axes=((0, 1), (0, 1))).reshape(w.shape)
        return dx, dw

    return _emit(tape, "conv2d", (x, w), out, bwd)


# ---------------------------------------------------------------------------
# normalization and gating

@dataclass
class RunningStats:
    """Per-channel running mean/variance, updated in train mode only."""
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, channels: int, dtype=None) -> "RunningStats":
        dt = dtype or _DEFAULT_DTYPE
        return cls(np.zeros(channels, dtype=dt), np.ones(channels, dtype=dt))

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, running: RunningStats,
              train: bool, momentum: float = 0.1, eps: float = 1e-5,
              tape: Tape | None = None) -> Tensor:
    """Per-channel batch normalization with affine transform.

    Train mode normalizes by biased batch statistics and updates
    ``running`` in place with the given momentum; eval mode normalizes
    by the running statistics and leaves them untouched.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm expects 4-d input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    if eps <= 0:
        raise StatsError(f"eps must be positive, got {eps}")

    if train:
        if x.shape[0] == 0:
            raise StatsError("batch statistics over an empty batch")
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running.mean += momentum * (mu.astype(running.mean.dtype) - running.mean)
        running.var += momentum * (var.astype(running.var.dtype) - running.var)
    else:
        mu = running.mean.astype(x.dtype)
        var = running.var.astype(x.dtype)

    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None, None]) * invstd[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bwd(gout, needs):
        dx = dgamma = dbeta = None
        if needs[1]:
            dgamma = (gout * xhat).sum(axis=(0, 2, 3))
        if needs[2]:
            dbeta = gout.sum(axis=(0, 2, 3))
        if needs[0]:
            dxhat = gout * gamma.data[None, :, None, None]
            if train:
                m1 = dxhat.mean(axis=(0, 2, 3), keepdims=True)
                m2 = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
                dx = invstd[None, :, None, None] * (dxhat - m1 - xhat * m2)
            else:
                dx = dxhat * invstd[None, :, None, None]
        return dx, dgamma, dbeta

    return _emit(tape, "batchnorm", (x, gamma, beta), out, bwd)


def gate_modulate(x: Tensor, gates: Tensor, tape: Tape | None = None) -> Tensor:
    """Scale each channel of [N,C,H,W] by the matching entry of ``gates``."""
    if x.ndim != 4 or gates.ndim != 1 or gates.shape[0] != x.shape[1]:
        raise ShapeError(
            f"gates of shape {gates.shape} do not match input channels {x.shape}")
    out = x.data * gates.data[None, :, None, None]

    def bwd(gout, needs):
        dx = gout * gates.data[None, :, None, None] if needs[0] else None
        dg = np.einsum("nchw,nchw->c", gout, x.data, optimize=True) \
            if needs[1] else None
        return dx, dg

    return _emit(tape, "gate_modulate", (x, gates), out, bwd)


# ---------------------------------------------------------------------------
# pointwise, pooling, linear

def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = np.maximum(x.data, 0)

    def bwd(gout, needs):
        return (gout * (x.data > 0),) if needs[0] else (None,)

    return _emit(tape, "relu", (x,), out, bwd)


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise sum of two same-shape tensors (residual join)."""
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} vs {b.shape}")

    def bwd(gout, needs):
        return (gout if needs[0] else None, gout if needs[1] else None)

    return _emit(tape, "add", (a, b), a.data + b.data, bwd)


def avg_pool2d(x: Tensor, kernel, stride=None, tape: Tape | None = None) -> Tensor:
    """Average pooling without padding; stride defaults to the kernel."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-d input, got {x.shape}")
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    n, c, h, w = x.shape
    if kh > h or kw > w:
        raise GeometryError(f"pool kernel {kh}x{kw} exceeds input {h}x{w}")
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    win = _windows(x.data, kh, kw, sh, sw)
    out = win.mean(axis=(4, 5))
    scale = 1.0 / (kh * kw)

    def bwd(gout, needs):
        if not needs[0]:
            return (None,)
        dx = _scatter_windows(
            x.data.shape,
            lambda i, j: gout * scale,
            kh, kw, sh, sw, ho, wo, 0, 0, h, w)
        return (dx,)

    return _emit(tape, "avg_pool2d", (x,), out, bwd)


def global_avg_pool(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Spatial mean of [N,C,H,W], returned as [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(gout, needs):
        if not needs[0]:
            return (None,)
        return (np.broadcast_to(gout[:, :, None, None] / (h * w), x.shape).copy(),)

    return _emit(tape, "global_avg_pool", (x,), out, bwd)


def linear(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map of [N,F] by weight [out,F] and bias [out]."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear shapes incompatible: {x.shape} vs {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias must have shape ({w.shape[0]},), got {b.shape}")
    out = x.data @ w.data.T + b.data

    def bwd(gout, needs):
        dx = gout @ w.data if needs[0] else None
        dw = gout.T @ x.data if needs[1] else None
        db = gout.sum(axis=0) if needs[2] else None
        return dx, dw, db

    return _emit(tape, "linear", (x, w, b), out, bwd)


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = np.asarray(x.data.sum(), dtype=x.dtype)

    def bwd(gout, needs):
        return (np.full_like(x.data, gout),) if needs[0] else (None,)

    return _emit(tape, "sum_all", (x,), out, bwd)


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float = 0.0,
                  tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy of [N,K] logits against integer labels.

    Stabilized by max subtraction. With ``smoothing`` > 0 the target
    distribution is (1-smoothing) on the true class plus smoothing/K
    uniform mass.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelError(
            f"labels must lie in [0, {k}), got range "
            f"[{labels.min()}, {labels.max()}]")
    if not 0.0 <= smoothing < 1.0:
        raise ShapeError(f"smoothing must be in [0, 1), got {smoothing}")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    nll = -logp[rows, labels]
    if smoothing:
        nll = (1.0 - smoothing) * nll - smoothing * logp.mean(axis=1)
    out = np.asarray(nll.mean(), dtype=logits.dtype)

    def bwd(gout, needs):
        if not needs[0]:
            return (None,)
        p = np.exp(logp)
        t = np.full_like(p, smoothing / k)
        t[rows, labels] += 1.0 - smoothing
        return ((p - t) * (gout / n),)

    return _emit(tape, "cross_entropy", (logits,), out, bwd)
