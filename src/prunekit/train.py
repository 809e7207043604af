"""From-scratch training with budget-scaled epochs, and the pruning unit.

A pruned network gets its epoch count scaled by the FLOPS ratio so the
total compute spent matches what the full network would have used. Runs
are seeded end to end: weight init, data order, and augmentation all
derive from one run seed, so paired comparisons see identical sample
streams.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import arch as A
from . import blas
from . import gates as G
from . import search as S
from . import tensor as T
from .data import (Dataset, RunRecord, augment_batch, derive_rng,
                   derive_seed)
from .errors import (BudgetError, ConfigError, DivergenceError,
                     NonFiniteError, PipelineError, PruneKitError)

OPTIMIZERS = ("sgd",)
LR_POLICIES = ("step-decay", "cosine")


@dataclass(frozen=True)
class TrainSchedule:
    """Optimizer and schedule settings for one training run.

    The optimizer is SGD with momentum and weight decay; ``optimizer``
    names it so stored configs stay explicit. ``effective_epochs`` is the
    number actually run; None means run the base count. Budget-scaled
    runs pass the output of ``budget_epochs`` here.
    """
    base_epochs: int = 20
    effective_epochs: int | None = None
    optimizer: str = "sgd"
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_policy: str = "step-decay"
    lr0: float = 0.05
    batch_size: int = 32
    label_smoothing: float = 0.0
    milestones: tuple[float, ...] = (0.5, 0.75)
    decay_factor: float = 0.1
    augment: bool = False

    def __post_init__(self):
        if self.base_epochs < 0:
            raise ConfigError("base_epochs must be >= 0")
        if self.effective_epochs is not None and self.effective_epochs < 0:
            raise ConfigError("effective_epochs must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.lr_policy not in LR_POLICIES:
            raise ConfigError(f"unknown lr policy {self.lr_policy!r}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0.0):
            raise ConfigError(f"lr0 must be finite and positive, "
                              f"got {self.lr0}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label_smoothing must lie in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.weight_decay)
                and self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be finite and >= 0, "
                              f"got {self.weight_decay}")
        if any(not 0.0 < m <= 1.0 for m in self.milestones):
            raise ConfigError("milestones are fractions in (0, 1]")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must lie in (0, 1], "
                              f"got {self.decay_factor}")

    @property
    def epochs(self) -> int:
        return (self.base_epochs if self.effective_epochs is None
                else self.effective_epochs)


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch metrics, the one test-set reading taken at the end, and
    the weights ``fit`` kept (neither compared nor serialized)."""
    seed: int
    train_loss: tuple[float, ...]
    val_accuracy: tuple[float, ...]
    lr: tuple[float, ...]
    test_accuracy: float
    wall_time: float
    states: dict[int, dict[str, np.ndarray]] = field(
        default_factory=dict, compare=False, repr=False)


def budget_epochs(base_epochs: int, full_flops: int,
                  pruned_flops: int) -> int:
    """Epoch count that spends the full model's compute on the pruned one."""
    if pruned_flops <= 0:
        raise BudgetError("pruned FLOPS must be positive")
    if pruned_flops > full_flops:
        raise BudgetError(
            f"pruned FLOPS {pruned_flops} exceeds full FLOPS {full_flops}")
    return round(base_epochs * full_flops / pruned_flops)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def epoch_lr(schedule: TrainSchedule, epoch: int, total_epochs: int) -> float:
    """Learning rate for a 0-based epoch index under the schedule policy."""
    if schedule.lr_policy == "cosine":
        return cosine_lr(epoch, max(1, total_epochs), schedule.lr0)
    passed = sum(1 for m in schedule.milestones
                 if epoch >= m * total_epochs)
    return schedule.lr0 * schedule.decay_factor ** passed


# ---------------------------------------------------------------------------
# lottery-ticket slicing

def lottery_slice_init(full_model: A.Model,
                       config: A.ChannelConfig | None) -> dict[str, np.ndarray]:
    """Sub-tensors of a full-width model's state along kept channels.

    Output-channel axes take the layer's kept set, input-channel axes the
    producing layer's, so connectivity is preserved and the sliced net
    computes exactly what the gated full net computes under 0/1 gates.
    """
    if full_model.config is not None:
        raise ConfigError("lottery slicing starts from a full-width model")
    widths = A.resolve_widths(full_model.arch, config)
    state = full_model.state_arrays()
    out: dict[str, np.ndarray] = {}
    for l in full_model.arch.layers:
        lw = widths[l.id]
        osel = (slice(None) if lw.out_idx is None
                else np.asarray(lw.out_idx, dtype=np.intp))
        isel = (slice(None) if lw.in_idx is None
                else np.asarray(lw.in_idx, dtype=np.intp))
        if l.kind in ("conv", "linear"):
            out[f"{l.id}.w"] = state[f"{l.id}.w"][osel][:, isel]
            if l.kind == "linear":
                out[f"{l.id}.b"] = state[f"{l.id}.b"][osel]
        elif l.kind == "depthwise-conv":
            out[f"{l.id}.w"] = state[f"{l.id}.w"][osel]
        elif l.kind == "batchnorm":
            for part in ("gamma", "beta", "running_mean", "running_var"):
                out[f"{l.id}.{part}"] = state[f"{l.id}.{part}"][osel]
    return out


def lottery_model(full_model: A.Model, config: A.ChannelConfig) -> A.Model:
    """Pruned model carrying the full model's sliced weights and stats."""
    pruned = A.Model(full_model.arch, config, seed=0)
    pruned.load_state(lottery_slice_init(full_model, config))
    return pruned


# ---------------------------------------------------------------------------
# training loop

@blas.loop_policy()
def fit(model: A.Model, data: dict[str, Dataset], schedule: TrainSchedule,
        seed: int, keep=()) -> TrainReport:
    """Train ``model`` in place and report per-epoch metrics.

    The report's ``states`` maps each epoch in ``keep`` that the run
    reaches, and always the last, to ``model.state_arrays()`` after that
    epoch; epoch 0 is the initial weights. The test split is evaluated
    exactly once, after the last epoch.
    """
    for split in ("train", "val", "test"):
        if split not in data:
            raise ConfigError(f"missing data split {split!r}")
    train, val, test = data["train"], data["val"], data["test"]
    if len(train) == 0:
        raise ConfigError("training needs a non-empty train split")
    params = [p for _, p in model.trainable()]
    vel = [np.zeros_like(p) for p in params]
    total = schedule.epochs
    losses: list[float] = []
    accs: list[float] = []
    lrs: list[float] = []
    step = 0
    t0 = time.perf_counter()
    states = {0: model.state_arrays()} if 0 in keep or total == 0 else {}
    for epoch in range(total):
        lr = epoch_lr(schedule, epoch, total)
        order = derive_rng(seed, "scratch-shuffle",
                           str(epoch)).permutation(len(train.images))
        aug_rng = derive_rng(seed, "scratch-augment", str(epoch))
        loss_sum = 0.0
        seen = 0
        for i in range(0, len(order), schedule.batch_size):
            idx = order[i:i + schedule.batch_size]
            xb = train.images[idx]
            if schedule.augment:
                xb = augment_batch(xb, aug_rng)
            tape = T.Tape()
            try:
                logits = model.forward(xb, train=True, tape=tape)
                loss = T.cross_entropy(logits, train.labels[idx],
                                       schedule.label_smoothing, tape)
            except NonFiniteError as exc:
                raise DivergenceError(str(exc), step=step) from exc
            grads = tape.backward(loss, params)
            step += 1
            for j, p in enumerate(params):
                v = vel[j]
                v *= schedule.momentum
                v += grads[j] + schedule.weight_decay * p
                p -= lr * v
            loss_sum += float(loss) * len(idx)
            seen += len(idx)
        losses.append(loss_sum / seen)
        accs.append(A.evaluate_accuracy(model, val.images, val.labels))
        lrs.append(lr)
        if epoch + 1 in keep or epoch + 1 == total:
            states[epoch + 1] = model.state_arrays()
    test_acc = A.evaluate_accuracy(model, test.images, test.labels)
    return TrainReport(seed=seed, train_loss=tuple(losses),
                       val_accuracy=tuple(accs), lr=tuple(lrs),
                       test_accuracy=test_acc,
                       wall_time=time.perf_counter() - t0, states=states)


def train_from_scratch(arch: A.ArchSpec, config: A.ChannelConfig | None,
                       data: dict[str, Dataset], schedule: TrainSchedule,
                       seed: int) -> TrainReport:
    """Fresh seeded weights for ``config``, then a full ``fit`` run."""
    model = A.Model(arch, config, derive_seed(seed, "scratch-init"))
    return fit(model, data, schedule, seed)


class Stages:
    """Named stages of one labelled job, ``with stages("gates"): ...``;
    ``current`` is the last one entered. A finished stage reports
    ``<label>: <stage> done in X.XX s`` to ``say``, on the ``sys.stderr``
    of the moment; a ``PruneKitError``, ``MemoryError`` or ``OSError``
    inside one becomes a ``PipelineError`` naming both."""

    def __init__(self, label: str):
        self.label = label
        self.current: str | None = None

    def say(self, msg: str) -> None:
        print(f"{self.label}: {msg}", file=sys.stderr)

    @contextmanager
    def __call__(self, stage: str):
        self.current = stage
        t0 = time.perf_counter()
        try:
            yield
        except (PruneKitError, MemoryError, OSError) as exc:
            raise PipelineError(stage, f"{self.label}: {exc}") from exc
        self.say(f"{stage} done in {time.perf_counter() - t0:.2f} s")


def prune_and_train(source: A.Model, data: dict[str, Dataset],
                    importance: G.ImportanceConfig, search: S.SearchConfig,
                    schedule: TrainSchedule, gate_seed: int, train_seed: int,
                    *, record: RunRecord, stages: Stages,
                    lottery: bool = False
                    ) -> tuple[S.SearchResult, TrainReport]:
    """Learn gates on the frozen full-width ``source``, bisect the best
    snapshot to ``search``'s budget, and train the structure on
    budget-scaled epochs from fresh weights of ``train_seed``, or from
    ``source``'s slice with ``lottery``: ``stages`` "gates", "search" and
    "train", each filling ``record`` as it finishes, so a failed unit's
    record keeps what came before. An unconverged search is said too."""
    full = A.count_flops(source.arch)
    with stages("gates"):
        snaps = G.learn_channel_importance(source, data["train"], data["val"],
                                           importance, gate_seed)
        best = G.select_best_gates(snaps, importance.target_sparsity)
        record.snapshots, record.gate_blob = G.snapshot_dump(snaps)
    with stages("search"):
        result = S.search_structure(best, source.arch, search)
        record.search = S.result_to_dict(result)
        if not result.converged:
            stages.say(f"search stopped outside tolerance at flops ratio "
                       f"{result.achieved_flops / full:.3f}")
    with stages("train"):
        sched = replace(schedule, effective_epochs=budget_epochs(
            schedule.base_epochs, full, result.achieved_flops))
        if lottery:
            report = fit(lottery_model(source, result.config), data, sched,
                         train_seed)
        else:
            report = train_from_scratch(source.arch, result.config, data,
                                        sched, train_seed)
        record.train_reports.append(report_to_dict(report))
    return result, report


def train_baseline(arch: A.ArchSpec, data: dict[str, Dataset],
                   schedule: TrainSchedule, seed: int, keep: set[int]
                   ) -> tuple[TrainReport, dict[int, dict[str, np.ndarray]]]:
    """The seed's full-width baseline, trained under ``schedule``; returns
    the report and its ``states``: ``state_arrays()`` for each epoch in
    ``keep`` that the run reaches (0 is the initial weights) and for the
    last."""
    model = A.Model(arch, None, derive_seed(seed, "study-baseline"))
    report = fit(model, data, schedule, seed, keep=keep)
    return report, report.states


# ---------------------------------------------------------------------------
# report serialization

def report_csv(report: TrainReport) -> str:
    """Per-epoch metrics as CSV (repr floats round-trip exactly)."""
    lines = ["epoch,lr,train_loss,val_acc"]
    rows = zip(report.lr, report.train_loss, report.val_accuracy)
    for e, (lr, tl, va) in enumerate(rows, start=1):
        lines.append(f"{e},{lr!r},{tl!r},{va!r}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: TrainReport) -> dict:
    return {"seed": report.seed,
            "train_loss": list(report.train_loss),
            "val_accuracy": list(report.val_accuracy),
            "lr": list(report.lr),
            "test_accuracy": report.test_accuracy,
            "wall_time": report.wall_time}


def report_from_dict(d: dict) -> TrainReport:
    return TrainReport(seed=int(d["seed"]),
                       train_loss=tuple(d["train_loss"]),
                       val_accuracy=tuple(d["val_accuracy"]),
                       lr=tuple(d["lr"]),
                       test_accuracy=float(d["test_accuracy"]),
                       wall_time=float(d["wall_time"]))
