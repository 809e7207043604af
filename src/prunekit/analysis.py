"""Structure similarity: do pruned architectures depend on the weights
they were pruned from?

A pruned structure is summarized by its per-layer keep ratios. Pearson
correlation between two such vectors measures how alike two structures
are; the study compares structures grown from random weights against
structures grown from trained checkpoints, across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from . import arch as A
from . import data as D
from . import gates as G
from . import search as S
from . import train as TR
from .errors import ConfigError, DegenerateFeatureError


@dataclass(frozen=True)
class StructureFeature:
    """Keep ratios (kept/original) per gated layer, plus a source label."""
    ratios: tuple[float, ...]
    label: str

    def __post_init__(self):
        if not self.ratios:
            raise ConfigError("feature must have at least one entry")
        if any(not 0.0 < r <= 1.0 for r in self.ratios):
            raise ConfigError("keep ratios must lie in (0, 1]")


class SimilarityMatrix:
    """Symmetric Pearson-correlation matrix with row/column labels."""

    def __init__(self, labels: tuple[str, ...], values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        n = len(labels)
        if values.shape != (n, n):
            raise ConfigError(f"expected {n}x{n} values, got {values.shape}")
        _check_unique(labels)
        if not np.array_equal(values, values.T):
            raise ConfigError("similarity matrix must be symmetric")
        if not np.array_equal(np.diag(values), np.ones(n)):
            raise ConfigError("similarity matrix must have unit diagonal")
        if np.abs(values).max() > 1.0:
            raise ConfigError("correlations must lie in [-1, 1]")
        self.labels = tuple(labels)
        self.values = values

    def __eq__(self, other):
        return (isinstance(other, SimilarityMatrix)
                and self.labels == other.labels
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"SimilarityMatrix(labels={self.labels!r})"


def structure_feature(config: A.ChannelConfig, base: A.ArchSpec,
                      label: str = "") -> StructureFeature:
    """Per-gated-layer keep ratios of ``config`` relative to ``base``."""
    A.resolve_widths(base, config)
    ratios = tuple(k / c for k, c in zip(config.kept_counts,
                                         base.gated_widths))
    return StructureFeature(ratios, label)


def correlation_matrix(features: list[StructureFeature]) -> SimilarityMatrix:
    """Pairwise Pearson correlation of equal-length features."""
    if len(features) < 2:
        raise ConfigError("need at least two features to correlate")
    n = len(features[0].ratios)
    for f in features:
        if len(f.ratios) != n:
            raise ConfigError(
                f"feature {f.label!r} has length {len(f.ratios)}, "
                f"expected {n}")
    mat = np.array([f.ratios for f in features], dtype=np.float64)
    spread = mat.std(axis=1)
    for f, s in zip(features, spread):
        if s == 0.0:
            raise DegenerateFeatureError(
                f"feature {f.label!r} has zero variance")
    vals = np.corrcoef(mat)
    vals = np.clip((vals + vals.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(vals, 1.0)
    return SimilarityMatrix(tuple(f.label for f in features), vals)


def _check_unique(labels) -> None:
    for i, l in enumerate(labels):
        if l in labels[:i]:
            raise ConfigError(f"label {l!r} is repeated")


def mean_pairwise_correlation(matrix: SimilarityMatrix,
                              labels: list[str]) -> float:
    """Mean off-diagonal correlation among the named rows, each named
    once."""
    _check_unique(labels)
    for l in labels:
        if l not in matrix.labels:
            raise ConfigError(f"label {l!r} is not in the matrix")
    idx = [matrix.labels.index(l) for l in labels]
    if len(idx) < 2:
        raise ConfigError("need at least two labels")
    return float(np.mean([matrix.values[i, j]
                          for i, j in combinations(idx, 2)]))


# ---------------------------------------------------------------------------
# pretraining-effect study

def feature_label(seed: int, epoch: int) -> str:
    return f"s{seed}:rand" if epoch == 0 else f"s{seed}:e{epoch}"


@dataclass
class StudyBundle:
    """Everything one pretraining-effect study produced; ``records`` maps
    each label to the record its unit filled, in unit order."""
    arch: A.ArchSpec
    checkpoint_epochs: tuple[int, ...]
    seeds: tuple[int, ...]
    records: dict[str, D.RunRecord]
    features: list[StructureFeature]
    per_seed: dict[int, SimilarityMatrix]
    cross: SimilarityMatrix

    def labels_for(self, epoch: int) -> list[str]:
        return [feature_label(s, epoch) for s in self.seeds]


def study_summary(bundle: StudyBundle) -> list[tuple[str, float, float, float]]:
    """(source level, mean acc, std acc, mean FLOPS ratio) across seeds."""
    full = A.count_flops(bundle.arch)
    rows = []
    for epoch in (0,) + bundle.checkpoint_epochs:
        records = [bundle.records[l] for l in bundle.labels_for(epoch)]
        accs = np.array([r.train_reports[0]["test_accuracy"] for r in records])
        ratios = np.array([r.search["achieved_flops"] for r in records]) / full
        level = "rand" if epoch == 0 else f"e{epoch}"
        rows.append((level, float(accs.mean()), float(accs.std()),
                     float(ratios.mean())))
    return rows


def run_pretrain_effect_study(
        arch: A.ArchSpec, data: dict[str, D.Dataset],
        importance: G.ImportanceConfig, schedule: TR.TrainSchedule,
        checkpoint_epochs, seeds, budget_ratio: float,
        tolerance: float, max_iters: int) -> StudyBundle:
    """Prune from random weights and from checkpoints, then compare.

    For every seed: train a baseline (checkpointing at the given epochs),
    then run the pruning unit ``train.prune_and_train`` from the epoch-0
    weights and from every checkpoint: learn gates, bisect them to the
    FLOPS budget, and train the structure from scratch under budget
    scaling. Structures are compared by keep-ratio correlation and by
    from-scratch test accuracy. Each search bisects for at most
    ``max_iters`` steps towards a relative FLOPS gap of ``tolerance``.
    Every run trains under ``schedule``: the baseline up to the last
    checkpoint, each structure for its budget-scaled epochs.

    The baseline is the seed's stage "baseline"; a unit's stages run under
    its structure label and fill the unit's record in ``records``.
    Stage wall times, and any search stopped outside its tolerance, go to
    standard error; a failure is a ``PipelineError`` naming the stage and
    the seed or label.
    """
    if not 0.0 < budget_ratio < 1.0:
        # at 1.0 every structure keeps every channel, so no keep-ratio
        # feature varies and the correlations are undefined
        raise ConfigError(
            f"study budget_ratio must lie in (0, 1), got {budget_ratio}")
    epochs = tuple(sorted({int(e) for e in checkpoint_epochs if int(e) > 0}))
    seeds = tuple(int(s) for s in seeds)
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"study seeds must be distinct: {list(seeds)}")
    structures = len(seeds) * (1 + len(epochs))
    if structures < 2:
        # the cross-seed matrix correlates every structure with the rest
        raise ConfigError(
            f"study needs at least two structures to correlate, got "
            f"{structures}: {len(seeds)} seed(s) x {1 + len(epochs)} "
            "gate source(s)")
    baseline_schedule = replace(schedule, base_epochs=max(epochs, default=0),
                                effective_epochs=None)

    full = A.count_flops(arch)
    search = S.SearchConfig(budget=int(round(budget_ratio * full)),
                            max_iters=max_iters, rel_tolerance=tolerance)
    records: dict[str, D.RunRecord] = {}
    features: list[StructureFeature] = []
    per_seed: dict[int, SimilarityMatrix] = {}

    for seed in seeds:
        labels = [feature_label(seed, epoch) for epoch in (0,) + epochs]
        stages = TR.Stages(f"seed {seed}")
        stages.say(f"training baseline ({baseline_schedule.epochs} epochs)")
        with stages("baseline"):
            states = TR.train_baseline(arch, data, baseline_schedule,
                                       seed, {0, *epochs}).states
        for epoch, label in zip((0,) + epochs, labels):
            source = A.Model(arch, None, seed=0)
            source.load_state(states[epoch])
            records[label] = D.RunRecord({}, seed, __version__)
            TR.prune_and_train(
                source, data, importance, search, schedule,
                D.derive_seed(seed, "study-gates", str(epoch)),
                D.derive_seed(seed, "study-scratch", label),
                record=records[label], stages=TR.Stages(label))
        # per seed, so a degenerate structure stops the study early
        seed_features = [structure_feature(A.ChannelConfig(
            records[l].search["kept_indices"]), arch, l) for l in labels]
        features += seed_features
        if len(seed_features) >= 2:
            per_seed[seed] = correlation_matrix(seed_features)

    return StudyBundle(arch=arch, checkpoint_epochs=epochs, seeds=seeds,
                       records=records, features=features, per_seed=per_seed,
                       cross=correlation_matrix(features))


# ---------------------------------------------------------------------------
# CSV emission

def matrix_csv(matrix: SimilarityMatrix) -> str:
    lines = ["label," + ",".join(matrix.labels)]
    for label, row in zip(matrix.labels, matrix.values):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def emit_report(bundle: StudyBundle, out_dir) -> list[Path]:
    """Write matrix, channel-count, and summary CSVs; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    path = out / "similarity_cross.csv"
    D.write_atomic(path, matrix_csv(bundle.cross))
    files.append(path)
    for seed in bundle.seeds:
        if seed in bundle.per_seed:
            path = out / f"similarity_seed{seed}.csv"
            D.write_atomic(path, matrix_csv(bundle.per_seed[seed]))
            files.append(path)

    path = out / "channels.csv"
    rows = ["layer_id,label,kept,original"]
    rows += [f"{lid},{label},{kept},{orig}"
             for label, record in bundle.records.items()
             for lid, kept, orig in zip(bundle.arch.gated_ids,
                                        record.search["kept_counts"],
                                        bundle.arch.gated_widths)]
    D.write_atomic(path, "\n".join(rows) + "\n")
    files.append(path)

    path = out / "summary.csv"
    rows = ["label,mean_acc,std_acc,flops_ratio"]
    rows += [f"{level},{acc!r},{std!r},{ratio!r}"
             for level, acc, std, ratio in study_summary(bundle)]
    D.write_atomic(path, "\n".join(rows) + "\n")
    files.append(path)
    return files
