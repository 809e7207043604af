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
    widths = A.gated_channel_counts(base)
    ratios = tuple(k / c for k, c in zip(config.kept_counts, widths))
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


def mean_pairwise_correlation(matrix: SimilarityMatrix,
                              labels: list[str]) -> float:
    """Mean off-diagonal correlation among the named rows."""
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
    """Everything one pretraining-effect study produced."""
    arch_name: str
    budget_ratio: float
    checkpoint_epochs: tuple[int, ...]
    seeds: tuple[int, ...]
    features: list[StructureFeature]
    configs: dict[str, A.ChannelConfig]
    accuracies: dict[str, float]
    flops_ratios: dict[str, float]
    per_seed: dict[int, SimilarityMatrix]
    cross: SimilarityMatrix
    channel_rows: list[tuple[str, str, int, int]]

    def labels_for(self, epoch: int) -> list[str]:
        return [feature_label(s, epoch) for s in self.seeds]


def study_summary(bundle: StudyBundle) -> list[tuple[str, float, float, float]]:
    """(source level, mean acc, std acc, mean FLOPS ratio) across seeds."""
    rows = []
    for epoch in (0,) + bundle.checkpoint_epochs:
        labels = bundle.labels_for(epoch)
        accs = np.array([bundle.accuracies[l] for l in labels])
        ratios = np.array([bundle.flops_ratios[l] for l in labels])
        level = "rand" if epoch == 0 else f"e{epoch}"
        rows.append((level, float(accs.mean()), float(accs.std()),
                     float(ratios.mean())))
    return rows


def run_pretrain_effect_study(
        arch: A.ArchSpec, data: dict[str, D.Dataset],
        importance: G.ImportanceConfig, schedule: TR.TrainSchedule,
        checkpoint_epochs, seeds, budget_ratio: float,
        progress=None) -> StudyBundle:
    """Prune from random weights and from checkpoints, then compare.

    For every seed: train a baseline (checkpointing at the given epochs),
    learn gates from the epoch-0 weights and from every checkpoint,
    bisect each gate set to the FLOPS budget, and train every resulting
    structure from scratch under budget scaling. Structures are compared
    by keep-ratio correlation and by from-scratch test accuracy.

    Every run trains under ``schedule``: the baseline up to the last
    checkpoint, each structure for its budget-scaled epochs.
    """
    if not 0.0 < budget_ratio <= 1.0:
        raise ConfigError("budget_ratio must lie in (0, 1]")
    epochs = tuple(sorted({int(e) for e in checkpoint_epochs if int(e) > 0}))
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("study needs at least one seed")
    baseline_schedule = replace(schedule, base_epochs=max(epochs, default=0),
                                effective_epochs=None)
    say = progress if progress is not None else (lambda msg: None)

    full = A.count_flops(arch)
    budget = int(round(budget_ratio * full))
    wanted = {0, *epochs}
    features: list[StructureFeature] = []
    configs: dict[str, A.ChannelConfig] = {}
    accuracies: dict[str, float] = {}
    flops_ratios: dict[str, float] = {}
    per_seed: dict[int, SimilarityMatrix] = {}
    channel_rows: list[tuple[str, str, int, int]] = []
    gated_ids = A.place_gates(arch).gated_layer_ids
    widths = A.gated_channel_counts(arch)

    for seed in seeds:
        states: dict[int, dict[str, np.ndarray]] = {}

        def sink(epoch, model, states=states):
            if epoch in wanted:
                states[epoch] = model.state_arrays()

        say(f"seed {seed}: training baseline ({baseline_schedule.epochs} "
            "epochs)")
        baseline = A.Model(arch, None, D.derive_seed(seed, "study-baseline"))
        TR.fit(baseline, data, baseline_schedule, seed, checkpoint_sink=sink)

        seed_features = []
        for epoch in (0,) + epochs:
            label = feature_label(seed, epoch)
            say(f"seed {seed}: gates from "
                + ("random init" if epoch == 0 else f"epoch {epoch}"))
            source = A.Model(arch, None, seed=0)
            source.load_state(states[epoch])
            snaps = G.learn_channel_importance(
                source, data["train"], data["val"], importance,
                D.derive_seed(seed, "study-gates", str(epoch)))
            best = G.select_best_gates(snaps, importance.target_sparsity)
            result = S.search_structure(best, arch,
                                        S.SearchConfig(budget=budget))
            config = result.config
            configs[label] = config
            feat = structure_feature(config, arch, label)
            features.append(feat)
            seed_features.append(feat)
            pruned = A.count_flops(arch, config)
            flops_ratios[label] = pruned / full
            for lid, kept, orig in zip(gated_ids, config.kept_counts,
                                       widths):
                channel_rows.append((lid, label, kept, orig))
            eff = TR.budget_epochs(schedule.base_epochs, full, pruned)
            say(f"seed {seed}: scratch-training {label} ({eff} epochs)")
            rep = TR.train_from_scratch(
                arch, config, data, replace(schedule, effective_epochs=eff),
                D.derive_seed(seed, "study-scratch", label))
            accuracies[label] = rep.test_accuracy
        if len(seed_features) >= 2:
            per_seed[seed] = correlation_matrix(seed_features)

    cross = correlation_matrix(features)
    return StudyBundle(arch_name=arch.name, budget_ratio=budget_ratio,
                       checkpoint_epochs=epochs, seeds=seeds,
                       features=features, configs=configs,
                       accuracies=accuracies, flops_ratios=flops_ratios,
                       per_seed=per_seed, cross=cross,
                       channel_rows=channel_rows)


# ---------------------------------------------------------------------------
# CSV emission

def matrix_csv(matrix: SimilarityMatrix) -> str:
    lines = ["label," + ",".join(matrix.labels)]
    for label, row in zip(matrix.labels, matrix.values):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> SimilarityMatrix:
    lines = text.strip().split("\n")
    labels = tuple(lines[0].split(",")[1:])
    values = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    return SimilarityMatrix(labels, values)


def emit_report(bundle: StudyBundle, out_dir) -> list[Path]:
    """Write matrix, channel-count, and summary CSVs; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    path = out / "similarity_cross.csv"
    path.write_text(matrix_csv(bundle.cross))
    files.append(path)
    for seed in bundle.seeds:
        if seed in bundle.per_seed:
            path = out / f"similarity_seed{seed}.csv"
            path.write_text(matrix_csv(bundle.per_seed[seed]))
            files.append(path)

    path = out / "channels.csv"
    rows = ["layer_id,label,kept,original"]
    rows += [f"{lid},{label},{kept},{orig}"
             for lid, label, kept, orig in bundle.channel_rows]
    path.write_text("\n".join(rows) + "\n")
    files.append(path)

    path = out / "summary.csv"
    rows = ["label,mean_acc,std_acc,flops_ratio"]
    rows += [f"{level},{acc!r},{std!r},{ratio!r}"
             for level, acc, std, ratio in study_summary(bundle)]
    path.write_text("\n".join(rows) + "\n")
    files.append(path)
    return files
