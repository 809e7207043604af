"""Keep-ratio features, correlation matrices, and the pretraining study."""

import numpy as np
import pytest

from prunekit import analysis as AN
from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G
from prunekit import train as TR
from prunekit.errors import ConfigError, DegenerateFeatureError

from helpers import DiesMidWrite, parse_matrix_csv, pearson_oracle


# ---------------------------------------------------------------------------
# features

def test_full_config_gives_all_ones():
    arch = A.preset("vgg-small")
    feat = AN.structure_feature(A.full_config(arch), arch, "full")
    assert feat.ratios == (1.0,) * len(arch.gated_widths)
    assert feat.label == "full"


def test_uniform_half_pruning():
    arch = A.preset("vgg-small")
    widths = arch.gated_widths
    config = A.ChannelConfig(tuple(tuple(range(c // 2)) for c in widths))
    feat = AN.structure_feature(config, arch)
    assert feat.ratios == (0.5,) * len(widths)


def test_resnet_feature_length_matches_gated_layers():
    arch = A.preset("resnet-tiny")
    feat = AN.structure_feature(A.full_config(arch), arch)
    assert len(feat.ratios) == len(arch.gated_ids)


def test_threshold_zero_yields_ones():
    arch = A.preset("resnet-tiny")
    rng = np.random.default_rng(0)
    gates = [rng.uniform(0.1, 1.0, c) for c in arch.gated_widths]
    config = A.prune_by_threshold(gates, 0.0)
    assert AN.structure_feature(config, arch).ratios == (
        1.0,) * len(gates)


def test_feature_rejects_out_of_range_ratios():
    with pytest.raises(ConfigError):
        AN.StructureFeature((0.5, 0.0), "bad")
    with pytest.raises(ConfigError):
        AN.StructureFeature((1.5,), "bad")
    with pytest.raises(ConfigError):
        AN.StructureFeature((), "empty")


def test_feature_validates_config_against_arch():
    arch = A.preset("vgg-small")
    with pytest.raises(ConfigError):
        AN.structure_feature(A.ChannelConfig(((0,),)), arch)


# ---------------------------------------------------------------------------
# correlation

def test_identical_features_correlate_fully():
    f = AN.StructureFeature((0.5, 1.0, 0.25), "a")
    g = AN.StructureFeature((0.5, 1.0, 0.25), "b")
    m = AN.correlation_matrix([f, g])
    assert m.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_hand_computed_pair():
    m = AN.correlation_matrix([AN.StructureFeature((0.5, 0.5, 1.0), "a"),
                               AN.StructureFeature((1.0, 0.5, 0.5), "b")])
    assert m.values[0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_matrix_matches_definition_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(3, 9))
        feats = [AN.StructureFeature(tuple(rng.uniform(0.05, 1.0, n)),
                                     f"f{i}") for i in range(k)]
        m = AN.correlation_matrix(feats)
        assert m.values.shape == (k, k)
        assert np.array_equal(m.values, m.values.T)
        assert np.array_equal(np.diag(m.values), np.ones(k))
        assert np.abs(m.values).max() <= 1.0
        for i in range(k):
            for j in range(i + 1, k):
                want = pearson_oracle(feats[i].ratios, feats[j].ratios)
                assert abs(m.values[i, j] - want) < 1e-10


def test_zero_variance_feature_named():
    feats = [AN.StructureFeature((0.5, 0.5, 0.5), "flat"),
             AN.StructureFeature((0.2, 0.5, 0.9), "ok")]
    with pytest.raises(DegenerateFeatureError, match="flat"):
        AN.correlation_matrix(feats)


def test_correlation_preconditions():
    f = AN.StructureFeature((0.5, 1.0), "a")
    with pytest.raises(ConfigError):
        AN.correlation_matrix([f])
    with pytest.raises(ConfigError):
        AN.correlation_matrix([f, AN.StructureFeature((0.5, 1.0, 0.2), "b")])


def test_matrix_constructor_guards():
    with pytest.raises(ConfigError):
        AN.SimilarityMatrix(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ConfigError):
        AN.SimilarityMatrix(("a", "b"), np.array([[0.9, 0.2], [0.2, 1.0]]))
    with pytest.raises(ConfigError):
        AN.SimilarityMatrix(("a", "b"), np.array([[1.0, 1.2], [1.2, 1.0]]))
    with pytest.raises(ConfigError):
        AN.SimilarityMatrix(("a",), np.ones((2, 2)))
    with pytest.raises(ConfigError, match="'a' is repeated"):
        AN.SimilarityMatrix(("a", "a"), np.ones((2, 2)))


def test_mean_pairwise_correlation():
    vals = np.array([[1.0, 0.5, 0.0],
                     [0.5, 1.0, -0.5],
                     [0.0, -0.5, 1.0]])
    m = AN.SimilarityMatrix(("a", "b", "c"), vals)
    assert AN.mean_pairwise_correlation(m, ["a", "b"]) == 0.5
    assert AN.mean_pairwise_correlation(m, ["a", "b", "c"]) == pytest.approx(0.0)
    with pytest.raises(ConfigError):
        AN.mean_pairwise_correlation(m, ["a"])
    with pytest.raises(ConfigError, match="'d' is not in the matrix"):
        AN.mean_pairwise_correlation(m, ["a", "d"])
    with pytest.raises(ConfigError, match="'a' is repeated"):
        AN.mean_pairwise_correlation(m, ["a", "a"])


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(2)
    feats = [AN.StructureFeature(tuple(rng.uniform(0.1, 1.0, 6)), f"s{i}")
             for i in range(4)]
    m = AN.correlation_matrix(feats)
    assert parse_matrix_csv(AN.matrix_csv(m)) == m


# ---------------------------------------------------------------------------
# the study

def tiny_study_kwargs():
    data = D.synth_suite(D.SynthSpec(classes=3, per_class=12, image_size=8,
                                     channels=3, noise=0.5), seed=0)
    importance = G.ImportanceConfig(gamma=1.0, target_sparsity=0.5, epochs=2,
                                    lr=0.05, batch_size=12)
    schedule = TR.TrainSchedule(base_epochs=2, lr0=0.05, batch_size=12)
    return dict(arch=A.preset("vgg-small"), seeds=(0, 1), budget_ratio=0.5,
                tolerance=0.02, max_iters=20, data=data,
                importance=importance, schedule=schedule)


def test_smallest_study_is_random_only():
    bundle = AN.run_pretrain_effect_study(checkpoint_epochs=[0],
                                          **tiny_study_kwargs())
    assert bundle.checkpoint_epochs == ()
    assert [f.label for f in bundle.features] == ["s0:rand", "s1:rand"]
    assert bundle.cross.values.shape == (2, 2)
    assert bundle.per_seed == {}
    assert list(bundle.records) == ["s0:rand", "s1:rand"]


def test_study_rejects_full_budget_before_training(monkeypatch):
    # at budget 1.0 every keep ratio is 1, so the correlations would fail
    # on zero variance only after every run had trained
    def no_training(*args, **kwargs):
        raise AssertionError("the study trained before rejecting the budget")
    monkeypatch.setattr(TR, "fit", no_training)
    kwargs = dict(tiny_study_kwargs(), budget_ratio=1.0)
    with pytest.raises(ConfigError, match="budget_ratio"):
        AN.run_pretrain_effect_study(checkpoint_epochs=[2], **kwargs)


def test_study_rejects_repeated_seeds_before_training(monkeypatch):
    # the study keys its structures by seed and source, so a repeated seed
    # would overwrite its own results
    def no_training(*args, **kwargs):
        raise AssertionError("the study trained before rejecting the seeds")
    monkeypatch.setattr(TR, "fit", no_training)
    kwargs = dict(tiny_study_kwargs(), seeds=(0, 0))
    with pytest.raises(ConfigError, match="distinct"):
        AN.run_pretrain_effect_study(checkpoint_epochs=[2], **kwargs)


def test_study_stops_at_a_degenerate_seed_before_the_next_baseline(
        monkeypatch):
    baselines = []
    real_baseline = TR.train_baseline

    def baseline_spy(arch, data, schedule, seed, keep):
        baselines.append(seed)
        return real_baseline(arch, data, schedule, seed, keep)

    def degenerate(features):
        raise DegenerateFeatureError(
            f"feature {features[0].label!r} has zero variance")

    monkeypatch.setattr(TR, "train_baseline", baseline_spy)
    monkeypatch.setattr(AN, "correlation_matrix", degenerate)
    with pytest.raises(DegenerateFeatureError, match="s0:rand"):
        AN.run_pretrain_effect_study(checkpoint_epochs=[1],
                                     **tiny_study_kwargs())
    assert baselines == [0]


@pytest.fixture(scope="module")
def small_bundle():
    return AN.run_pretrain_effect_study(checkpoint_epochs=[2],
                                        **tiny_study_kwargs())


def test_study_bookkeeping(small_bundle):
    b = small_bundle
    assert b.checkpoint_epochs == (2,)
    assert [f.label for f in b.features] == ["s0:rand", "s0:e2",
                                             "s1:rand", "s1:e2"]
    assert b.cross.labels == ("s0:rand", "s0:e2", "s1:rand", "s1:e2")
    assert set(b.per_seed) == {0, 1}
    assert b.per_seed[0].labels == ("s0:rand", "s0:e2")
    # one record per unit, filled by its stages, in unit order
    assert list(b.records) == ["s0:rand", "s0:e2", "s1:rand", "s1:e2"]
    full = A.count_flops(b.arch)
    for label, record in b.records.items():
        assert record.seed == int(label[1]), label
        assert record.snapshots and record.gate_blob is not None, label
        assert 0.0 < record.search["achieved_flops"] / full <= 0.52, label
        assert len(record.train_reports) == 1, label
        assert 0.0 <= record.train_reports[0]["test_accuracy"] <= 1.0, label
    rows = AN.study_summary(b)
    assert [r[0] for r in rows] == ["rand", "e2"]


def test_study_configs_respect_budget(small_bundle):
    arch = A.preset("vgg-small")
    full = A.count_flops(arch)
    for label, record in small_bundle.records.items():
        config = A.ChannelConfig(record.search["kept_indices"])
        assert config.kept_counts == tuple(record.search["kept_counts"])
        assert A.count_flops(arch, config) == record.search["achieved_flops"]
        assert A.count_flops(arch, config) <= 0.52 * full, label


def test_report_emission(tmp_path, small_bundle):
    files = AN.emit_report(small_bundle, tmp_path)
    names = {f.name for f in files}
    assert names == {"similarity_cross.csv", "similarity_seed0.csv",
                     "similarity_seed1.csv", "channels.csv", "summary.csv"}
    cross = parse_matrix_csv((tmp_path / "similarity_cross.csv")
                             .read_text())
    assert cross == small_bundle.cross
    channels = (tmp_path / "channels.csv").read_text().strip().split("\n")
    assert channels[0] == "layer_id,label,kept,original"
    gated = len(A.preset("vgg-small").gated_ids)
    assert len(channels) == 1 + 4 * gated
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "label,mean_acc,std_acc,flops_ratio"
    assert len(summary) == 3


def test_channel_and_summary_csvs_are_recomputed_from_the_records(
        tmp_path, small_bundle):
    # a reader of the unit records alone must arrive at the same reports
    AN.emit_report(small_bundle, tmp_path)
    arch = A.preset("vgg-small")
    full = A.count_flops(arch)
    channels = [line.split(",") for line in
                (tmp_path / "channels.csv").read_text().splitlines()[1:]]
    assert channels == [
        [lid, label, str(len(kept)), str(orig)]
        for label, record in small_bundle.records.items()
        for lid, kept, orig in zip(arch.gated_ids,
                                   record.search["kept_indices"],
                                   arch.gated_widths)]
    by_level: dict[str, list] = {}
    for label, record in small_bundle.records.items():
        by_level.setdefault(label.split(":")[1], []).append(record)
    summary = [line.split(",") for line in
               (tmp_path / "summary.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in summary] == list(by_level) == ["rand", "e2"]
    for level, acc, std, ratio in summary:
        accs = np.array([r.train_reports[0]["test_accuracy"]
                         for r in by_level[level]])
        ratios = np.array([r.search["achieved_flops"] / full
                           for r in by_level[level]])
        assert (float(acc), float(std), float(ratio)) == (
            accs.mean(), accs.std(), ratios.mean()), level


@pytest.mark.parametrize("failing", [
    "similarity_cross.csv", "similarity_seed1.csv", "channels.csv",
    "summary.csv"])
def test_report_write_failure_leaves_no_partial_file(tmp_path, monkeypatch,
                                                     small_bundle, failing):
    AN.emit_report(small_bundle, tmp_path / "clean")
    real_open = open

    def flaky_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return DiesMidWrite(fh) if failing in str(path) else fh

    monkeypatch.setattr(D, "open", flaky_open, raising=False)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="no space"):
        AN.emit_report(small_bundle, out)
    assert not (out / failing).exists()
    assert not list(out.glob("*.tmp"))
    for f in out.iterdir():
        assert f.read_bytes() == (tmp_path / "clean" / f.name).read_bytes()


def test_report_is_deterministic(tmp_path, small_bundle):
    AN.emit_report(small_bundle, tmp_path / "a")
    AN.emit_report(small_bundle, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
