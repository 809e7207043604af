"""Channel-importance learning on frozen random weights.

Per-channel gates in [0,1] multiply the outputs of selected batch-norm
layers. Only the gates receive gradient updates: the optimizer walks
them down a classification loss plus a sparsity penalty that pulls the
element-wise mean of all gates toward a target ratio, projecting back
into the box after every step. Weights never enter the gradient target
set, so they stay bitwise intact; batch-norm running statistics do
update, since the forward pass runs in training mode.

All gates live in one flat buffer, all ones at the start, whose
per-layer views are the forward gates and the tape's targets: Adam and
the projection each run as one pass over it, while the mean gate is
summed per layer in float64. A snapshot keeps views of its own copy of
the buffer, and its accuracy comes from an eval with folded batch norms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import blas
from . import tensor as T
from .arch import Model, evaluate_accuracy
from .data import Dataset, derive_rng
from .errors import ConfigError, DivergenceError, NonFiniteError

PENALTY_KINDS = ("ratio",)


@dataclass
class GateState:
    """Per-gated-layer gate vectors."""
    lam: list[np.ndarray]

    @property
    def sparsity(self) -> float:
        """Element-wise mean of all gates across layers."""
        return _mean_gate(self.lam)


@dataclass(frozen=True)
class GateSnapshot:
    """Gate values at one evaluation point during importance learning.

    ``train_loss`` is the mean classification loss over the batches of
    the enclosing epoch seen so far (train-mode statistics)."""
    gates: GateState
    val_accuracy: float
    epoch: int
    train_loss: float

    @property
    def sparsity(self) -> float:
        return self.gates.sparsity


@dataclass(frozen=True)
class ImportanceConfig:
    """Hyperparameters for channel-importance learning; ``penalty`` names
    the one penalty, ``sparsity_penalty``, so stored configs stay explicit."""
    gamma: float = 1.0
    target_sparsity: float = 0.5
    epochs: int = 10
    lr: float = 0.02
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    penalty: str = "ratio"
    evals_per_epoch: int = 1

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ConfigError(
                f"gamma must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, "
                              f"got {self.lr}")
        if not 0.0 < self.target_sparsity <= 1.0:
            raise ConfigError(
                f"target sparsity must be in (0, 1], got "
                f"{self.target_sparsity}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.penalty not in PENALTY_KINDS:
            raise ConfigError(f"penalty must be one of {PENALTY_KINDS}")
        if self.evals_per_epoch < 1:
            raise ConfigError("need at least one evaluation per epoch")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1/beta2 must lie in [0, 1), got "
                              f"{self.beta1}/{self.beta2}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and positive, "
                              f"got {self.eps}")


def _mean_gate(vectors: list[np.ndarray]) -> float:
    """Element-wise mean of all gates, accumulated in float64."""
    count = sum(v.size for v in vectors)
    if count == 0:
        raise ConfigError("no gate values to average")
    return sum(float(np.sum(v, dtype=np.float64)) for v in vectors) / count


def sparsity_penalty(vectors: list[np.ndarray], r: float) -> float:
    """Squared deviation of the mean gate from ``r``, accumulated in
    float64."""
    return (_mean_gate(vectors) - r) ** 2


def sparsity_penalty_grad(vectors: list[np.ndarray],
                          r: float) -> list[np.ndarray]:
    """Gradient of ``sparsity_penalty`` per gate entry: uniform
    2(mean - r)/count."""
    g = 2.0 * (_mean_gate(vectors) - r) / sum(v.size for v in vectors)
    return [np.full_like(v, g) for v in vectors]


@blas.loop_policy()
def learn_channel_importance(model: Model, train: Dataset, val: Dataset,
                             cfg: ImportanceConfig,
                             seed: int) -> list[GateSnapshot]:
    """Adaptive-moment subgradient descent on the gates of ``model``.

    The model's weights are left untouched (they are never gradient
    targets); batch-norm running statistics update as a side effect of
    train-mode forward passes. Returns one snapshot per evaluation point,
    at least one per epoch, each with its own copy of the gates and its
    validation accuracy.
    """
    if val.split == "test" or train.split == "test":
        raise ConfigError("importance learning must not touch the test split")
    if len(train) == 0:
        raise ConfigError("importance learning needs a non-empty train split")
    # one flat buffer of every gate, updated in place, split into views
    widths = [model.widths[lid].cout for lid in model.arch.gated_ids]
    cuts = np.cumsum(widths)[:-1]
    flat = np.ones(sum(widths), dtype=T.default_dtype())
    lam = np.split(flat, cuts)
    gate_map = dict(zip(model.arch.gated_ids, lam))
    m, v2 = np.zeros_like(flat), np.zeros_like(flat)
    snapshots: list[GateSnapshot] = []
    n = len(train)
    steps_per_epoch = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)
    eval_every = max(1, steps_per_epoch // cfg.evals_per_epoch)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = derive_rng(seed, "gate-shuffle", str(epoch)).permutation(n)
        ce_sum = 0.0
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            tape = T.Tape()
            try:
                logits = model.forward(train.images[idx], train=True,
                                       gates=gate_map, tape=tape)
                ce = T.cross_entropy(logits, train.labels[idx], tape=tape)
                grads = tape.backward(ce, lam)
            except NonFiniteError as e:
                raise DivergenceError(
                    f"non-finite loss at step {step}: {e}", step=step) from e
            ce_sum += float(ce)
            pen = sparsity_penalty_grad(lam, cfg.target_sparsity)
            step += 1
            g = np.concatenate(grads) + cfg.gamma * np.concatenate(pen)
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v2 *= cfg.beta2
            v2 += (1 - cfg.beta2) * g * g
            mhat = m / (1 - cfg.beta1 ** step)
            vhat = v2 / (1 - cfg.beta2 ** step)
            flat -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
            np.clip(flat, 0.0, 1.0, out=flat)
            if (b + 1) % eval_every == 0 or b + 1 == steps_per_epoch:
                acc = evaluate_accuracy(model, val.images, val.labels,
                                        gates=gate_map)
                snapshots.append(GateSnapshot(
                    GateState(np.split(flat.copy(), cuts)), acc, epoch,
                    ce_sum / (b + 1)))
    return snapshots


def select_best_gates(snapshots: list[GateSnapshot], r: float) -> GateState:
    """Best snapshot rule: among snapshots with sparsity <= r, maximize
    validation accuracy (ties go to the later one). If none qualifies,
    fall back to the minimum-sparsity snapshot with a warning."""
    if not snapshots:
        raise ConfigError("snapshot list is empty")
    qualifying = [(i, s) for i, s in enumerate(snapshots) if s.sparsity <= r]
    if qualifying:
        _, best = max(qualifying,
                      key=lambda p: (p[1].val_accuracy, p[1].epoch, p[0]))
        return best.gates
    warnings.warn(
        f"no snapshot reached sparsity <= {r}; "
        "falling back to the sparsest one", RuntimeWarning)
    _, best = min(enumerate(snapshots),
                  key=lambda p: (p[1].sparsity, -p[0]))
    return best.gates


def snapshot_dump(snapshots: list[GateSnapshot]) -> tuple[list[dict],
                                                          np.ndarray]:
    """Persistable view: per-snapshot scalars plus a [S, total] gate
    matrix (rows in snapshot order, columns in layer order)."""
    if not snapshots:
        raise ConfigError("snapshot list is empty")
    meta = [{"epoch": s.epoch, "sparsity": float(s.sparsity),
             "val_accuracy": float(s.val_accuracy),
             "train_loss": float(s.train_loss)} for s in snapshots]
    return meta, np.stack([np.concatenate(s.gates.lam).astype(np.float32)
                           for s in snapshots])

