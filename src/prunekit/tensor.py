"""Reverse-mode differentiation of numpy arrays on an explicit tape.

The operator set is the minimum needed for small convolutional
classifiers: conv2d (dense and depthwise), batch norm,
channel gating, ReLU, average pooling, global average pooling, linear,
residual add, and label-smoothed cross-entropy.

One layout rule: every op takes [N, C, H, W] arrays in any memory
layout, and every 4-d output of convolution, batch norm and pooling is
batch-last: the [N, C, H, W] shape as a view of [C, H, W, N] memory.
Elementwise ops follow their input's layout. Results do not depend on
the memory layout of the input.

At 10-80 channels, per-channel work is loop overhead unless a channel
is one contiguous run: ``_rows`` is the free [C, H*W*N] view of
batch-last memory, whose rows batch norm, gating and global pooling
reduce and scale. Convolution is im2col, the one way windows are
walked: kh*kw slab copies of a padded batch-last buffer fill
[kh*kw*C, Ho*Wo*N] patches, which the dense conv contracts in one GEMM
and the depthwise conv per channel. Every conv's input gradient is the
transposed conv, the same product over the upstream gradient spread
stride apart and the flipped weight. Average pooling averages the
kh*kw tiles of its map, which are free views of it.

Ops take and return plain ``np.ndarray``. Run them with a ``Tape``,
then call ``tape.backward(loss, targets)`` for one gradient per target,
in target order: the targets alone decide what is differentiated, and
backward modifies no array. The tape keys values by identity, so every
op returns a new array, and an array on a tape must not be modified in
place before ``backward`` runs. Batch norm's running statistics are
plain arrays as well, which train-mode ``batchnorm`` updates in place;
they are never tape inputs.

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
    """Set the dtype for new parameters and inputs (float32 or float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"unsupported default dtype {dt}")
    _DEFAULT_DTYPE = dt.type


def default_dtype() -> type:
    return _DEFAULT_DTYPE


# Backward closure: (upstream_grad, needs) -> per-input gradients, None
# where the matching input does not need one.
BackwardFn = Callable[[np.ndarray, tuple[bool, ...]], tuple]


@dataclass
class TapeNode:
    op: str
    inputs: tuple[np.ndarray, ...]
    output: np.ndarray
    backward: BackwardFn


class Tape:
    """Ordered record of differentiable operations.

    Nodes are appended in execution order, which is a topological order
    of the graph by construction. ``backward`` walks the list once
    forward, marking every value a target flows into, then once in
    reverse, accumulating gradients in a table keyed by value identity.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def record(self, op: str, inputs: tuple[np.ndarray, ...],
               output: np.ndarray, backward: BackwardFn) -> None:
        self.nodes.append(TapeNode(op, inputs, output, backward))

    def backward(self, loss: np.ndarray,
                 targets: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return ``[dloss/dt for t in targets]``.

        ``loss`` must be a scalar produced on this tape. Targets the loss
        does not depend on receive a zero gradient. A node's backward
        closure is asked only for the inputs a target flows into.
        """
        if loss.size != 1:
            raise GraphError(f"loss must be scalar, got shape {loss.shape}")
        if not any(node.output is loss for node in self.nodes):
            raise GraphError("loss was not produced on this tape")

        marked = {id(t) for t in targets}
        needs_of = []
        for node in self.nodes:
            needs = tuple(id(t) in marked for t in node.inputs)
            if any(needs):
                marked.add(id(node.output))
            needs_of.append(needs)

        table: dict[int, np.ndarray] = {id(loss): np.ones_like(loss)}
        for node, needs in zip(reversed(self.nodes), reversed(needs_of)):
            gout = table.get(id(node.output))
            if gout is None or not any(needs):
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
        return [table.get(id(t), np.zeros_like(t)) for t in targets]


def _emit(tape: Tape | None, op: str, inputs: tuple[np.ndarray, ...],
          out: np.ndarray, backward: BackwardFn) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"non-finite values in output of {op}")
    if tape is not None:
        tape.record(op, inputs, out, backward)
    return out


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


# ---------------------------------------------------------------------------
# convolution

def _rows(x: np.ndarray) -> np.ndarray:
    """[C, H*W*N] rows of [N,C,H,W] ``x``: a free view of batch-last
    memory, one copy from any other layout."""
    return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)


def _patches(x: np.ndarray, kh: int, kw: int, stride=(1, 1), pad=(0, 0),
             spread=(1, 1), extra=(0, 0)) -> np.ndarray:
    """[kh*kw*C, Ho*Wo*N] im2col copy of [N,C,H,W] ``x`` placed ``spread``
    apart in a zero batch-last buffer padded by ``pad``, plus ``extra`` at
    the bottom and right: kh*kw slab copies, in runs of Wo*N values."""
    n, c, h, w = x.shape
    if kh == kw == 1 and (stride, pad, spread, extra) == (
            (1, 1), (0, 0), (1, 1), (0, 0)):
        return _rows(x)
    (sh, sw), (ph, pw), (dh, dw), (eh, ew) = stride, pad, spread, extra
    hp, wp = (h - 1) * dh + 1 + 2 * ph + eh, (w - 1) * dw + 1 + 2 * pw + ew
    xp = np.zeros((c, hp, wp, n), dtype=x.dtype)
    xp[:, ph:ph + h * dh:dh, pw:pw + w * dw:dw] = x.transpose(1, 2, 3, 0)
    ho, wo = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    cols = np.empty((kh, kw, c, ho, wo, n), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[i, j] = xp[:, i:i + ho * sh:sh, j:j + wo * sw:sw]
    return cols.reshape(kh * kw * c, -1)


def conv2d(x: np.ndarray, w: np.ndarray, stride=1, padding=0,
           groups: int = 1, tape: Tape | None = None) -> np.ndarray:
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
    if ho < 1 or wo < 1 or ph >= kh or pw >= kw:
        raise GeometryError(
            f"conv2d output {ho}x{wo} for input {h}x{wd}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}: the output must be "
            "positive and the padding below the kernel")

    # batch-last patches, rows in (kh, kw, Cin) order, against a weight:
    # one GEMM when dense, one [1, kh*kw] product per channel when
    # depthwise; either way the output is batch-last
    depthwise = groups > 1

    def contract(wt, cols):
        if depthwise:
            rows = cols.reshape(kh * kw, cin, -1).transpose(1, 0, 2)
            return (wt.reshape(cin, 1, -1) @ rows).reshape(cin, -1)
        return wt.transpose(0, 2, 3, 1).reshape(len(wt), -1) @ cols

    cols = _patches(x, kh, kw, (sh, sw), (ph, pw))
    out = contract(w, cols).reshape(cout, ho, wo, n).transpose(3, 0, 1, 2)

    def bwd(gout, needs):
        g2 = _rows(gout)
        dx = dw = None
        if needs[0]:
            # transposed conv: the upstream gradient spread stride apart,
            # padded by k-1-p plus the rows past the last window, against
            # the flipped weight, copied contiguous so that the depthwise
            # product stays on BLAS, with in/out channels swapped
            wt = w if depthwise else w.transpose(1, 0, 2, 3)
            gcols = _patches(gout, kh, kw, pad=(kh - 1 - ph, kw - 1 - pw),
                             spread=(sh, sw),
                             extra=((h + 2 * ph - kh) % sh,
                                    (wd + 2 * pw - kw) % sw))
            dx = contract(np.ascontiguousarray(wt[:, :, ::-1, ::-1]), gcols)
            dx = dx.reshape(cin, h, wd, n).transpose(3, 0, 1, 2)
        if needs[1] and depthwise:
            rows = cols.reshape(kh * kw, cin, -1).transpose(1, 0, 2)
            dw = (rows @ g2[:, :, None]).reshape(cout, 1, kh, kw)
        elif needs[1]:
            dw = (cols @ g2.T).reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
        return dx, dw

    return _emit(tape, "conv2d", (x, w), out, bwd)


# ---------------------------------------------------------------------------
# normalization and gating

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batchnorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              running_mean: np.ndarray, running_var: np.ndarray, train: bool,
              tape: Tape | None = None) -> np.ndarray:
    """Per-channel batch normalization with affine transform.

    Train mode normalizes by biased batch statistics and moves
    ``running_mean`` and ``running_var`` in place one ``BN_MOMENTUM``
    step toward them; eval mode normalizes by the running statistics and
    leaves them untouched.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm expects 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")

    x2, m = _rows(x), n * h * w
    if train:
        if n == 0:
            raise StatsError("batch statistics over an empty batch")
        mu = np.add.reduce(x2, axis=1) / m
        d = x2 - mu[:, None]
        var = np.add.reduce(d * d, axis=1) / m
        for run, batch in ((running_mean, mu), (running_var, var)):
            run += BN_MOMENTUM * (batch.astype(run.dtype) - run)
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        xhat = d * invstd[:, None]
        out = xhat * gamma[:, None] + beta[:, None]
    else:
        # the running statistics as one per-channel scale and shift
        mu = running_mean.astype(x.dtype)
        invstd = 1.0 / np.sqrt(running_var.astype(x.dtype) + BN_EPS)
        scale = gamma * invstd
        out = x2 * scale[:, None] + (beta - mu * scale)[:, None]
    out = out.reshape(c, h, w, n).transpose(3, 0, 1, 2)

    def bwd(gout, needs):
        g2 = _rows(gout)
        xh = xhat if train else (x2 - mu[:, None]) * invstd[:, None]
        sg = np.add.reduce(g2, axis=1)
        sgx = np.add.reduce(g2 * xh, axis=1)
        dx = None
        if needs[0]:
            if train:
                g2 = g2 - (sg / m)[:, None] - xh * (sgx / m)[:, None]
            dx = (g2 * (gamma * invstd)[:, None]).reshape(c, h, w, n)
            dx = dx.transpose(3, 0, 1, 2)
        return dx, sgx if needs[1] else None, sg if needs[2] else None

    return _emit(tape, "batchnorm", (x, gamma, beta), out, bwd)


def gate_modulate(x: np.ndarray, gates: np.ndarray,
                  tape: Tape | None = None) -> np.ndarray:
    """Scale each channel of [N,C,H,W] by the matching entry of ``gates``."""
    if x.ndim != 4 or gates.ndim != 1 or gates.shape[0] != x.shape[1]:
        raise ShapeError(
            f"gates of shape {gates.shape} do not match input channels {x.shape}")
    out = x * gates[None, :, None, None]

    def bwd(gout, needs):
        dx = gout * gates[None, :, None, None] if needs[0] else None
        dg = np.add.reduce(_rows(gout * x), axis=1) if needs[1] else None
        return dx, dg

    return _emit(tape, "gate_modulate", (x, gates), out, bwd)


# ---------------------------------------------------------------------------
# pointwise, pooling, linear

def relu(x: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    out = np.maximum(x, 0)

    def bwd(gout, needs):
        return (gout * (x > 0),) if needs[0] else (None,)

    return _emit(tape, "relu", (x,), out, bwd)


def add(a: np.ndarray, b: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Elementwise sum of two same-shape tensors (residual join)."""
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} vs {b.shape}")

    def bwd(gout, needs):
        return (gout if needs[0] else None, gout if needs[1] else None)

    return _emit(tape, "add", (a, b), a + b, bwd)


def avg_pool2d(x: np.ndarray, kernel, tape: Tape | None = None) -> np.ndarray:
    """Mean of each kh x kw tile of the map, without padding; rows and
    columns past the last whole tile are not read."""
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects 4-d input, got {x.shape}")
    kh, kw = _pair(kernel)
    n, c, h, w = x.shape
    if kh > h or kw > w:
        raise GeometryError(f"pool kernel {kh}x{kw} exceeds input {h}x{w}")
    ho, wo, scale = h // kh, w // kw, 1.0 / (kh * kw)

    def tiles(a):  # [C, Ho, kh, Wo, kw, N] view of [C, H, W, N] memory
        return a[:, :ho * kh, :wo * kw].reshape(c, ho, kh, wo, kw, n)

    xt = tiles(x.transpose(1, 2, 3, 0))
    acc = xt[:, :, 0, :, 0].copy()
    for k in range(1, kh * kw):
        acc += xt[:, :, k // kw, :, k % kw]
    out = (acc * scale).transpose(3, 0, 1, 2)

    def bwd(gout, needs):
        if not needs[0]:
            return (None,)
        dx = np.zeros((c, h, w, n), dtype=gout.dtype)
        g = gout.transpose(1, 2, 3, 0) * scale
        tiles(dx)[...] = g[:, :, None, :, None]
        return (dx.transpose(3, 0, 1, 2),)

    return _emit(tape, "avg_pool2d", (x,), out, bwd)


def global_avg_pool(x: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Spatial mean of [N,C,H,W], returned as [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    out = (np.add.reduce(_rows(x).reshape(c, h * w, n), axis=1) / (h * w)).T

    def bwd(gout, needs):
        if not needs[0]:
            return (None,)
        g = np.broadcast_to((gout / (h * w)).T[:, None, None], (c, h, w, n))
        return (g.copy().transpose(3, 0, 1, 2),)

    return _emit(tape, "global_avg_pool", (x,), out, bwd)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray,
           tape: Tape | None = None) -> np.ndarray:
    """Affine map of [N,F] by weight [out,F] and bias [out]."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear shapes incompatible: {x.shape} vs {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias must have shape ({w.shape[0]},), got {b.shape}")
    out = x @ w.T + b

    def bwd(gout, needs):
        dx = gout @ w if needs[0] else None
        dw = gout.T @ x if needs[1] else None
        db = gout.sum(axis=0) if needs[2] else None
        return dx, dw, db

    return _emit(tape, "linear", (x, w, b), out, bwd)


def sum_all(x: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Sum of all elements, as a scalar tensor."""
    out = np.asarray(x.sum(), dtype=x.dtype)

    def bwd(gout, needs):
        return (np.full_like(x, gout),) if needs[0] else (None,)

    return _emit(tape, "sum_all", (x,), out, bwd)


# ---------------------------------------------------------------------------
# loss

def cross_entropy(logits: np.ndarray, labels: np.ndarray,
                  smoothing: float = 0.0,
                  tape: Tape | None = None) -> np.ndarray:
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

    z = logits - logits.max(axis=1, keepdims=True)
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
