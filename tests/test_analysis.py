"""Keep-ratio features, correlation matrices, and the pretraining study."""

import numpy as np
import pytest

from prunekit import analysis as AN
from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G
from prunekit import train as TR
from prunekit.errors import ConfigError, DegenerateFeatureError

from helpers import pearson_oracle


# ---------------------------------------------------------------------------
# features

def test_full_config_gives_all_ones():
    arch = A.preset("vgg-small")
    feat = AN.structure_feature(A.full_config(arch), arch, "full")
    assert feat.ratios == (1.0,) * len(A.gated_channel_counts(arch))
    assert feat.label == "full"


def test_uniform_half_pruning():
    arch = A.preset("vgg-small")
    widths = A.gated_channel_counts(arch)
    config = A.ChannelConfig(tuple(c // 2 for c in widths),
                             tuple(tuple(range(c // 2)) for c in widths))
    feat = AN.structure_feature(config, arch)
    assert feat.ratios == (0.5,) * len(widths)


def test_resnet_feature_length_matches_gated_layers():
    arch = A.preset("resnet-tiny")
    feat = AN.structure_feature(A.full_config(arch), arch)
    assert len(feat.ratios) == len(A.place_gates(arch).gated_layer_ids)


def test_threshold_zero_yields_ones():
    arch = A.preset("resnet-tiny")
    rng = np.random.default_rng(0)
    gates = [rng.uniform(0.1, 1.0, c) for c in A.gated_channel_counts(arch)]
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
        AN.structure_feature(A.ChannelConfig((1,), ((0,),)), arch)


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


def test_mean_pairwise_correlation():
    vals = np.array([[1.0, 0.5, 0.0],
                     [0.5, 1.0, -0.5],
                     [0.0, -0.5, 1.0]])
    m = AN.SimilarityMatrix(("a", "b", "c"), vals)
    assert AN.mean_pairwise_correlation(m, ["a", "b"]) == 0.5
    assert AN.mean_pairwise_correlation(m, ["a", "b", "c"]) == pytest.approx(0.0)
    with pytest.raises(ConfigError):
        AN.mean_pairwise_correlation(m, ["a"])


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(2)
    feats = [AN.StructureFeature(tuple(rng.uniform(0.1, 1.0, 6)), f"s{i}")
             for i in range(4)]
    m = AN.correlation_matrix(feats)
    assert AN.parse_matrix_csv(AN.matrix_csv(m)) == m


# ---------------------------------------------------------------------------
# the study

def tiny_study_kwargs():
    data = D.synth_suite(D.SynthSpec(classes=3, per_class=12, image_size=8,
                                     channels=3, noise=0.5), seed=0)
    importance = G.ImportanceConfig(gamma=1.0, target_sparsity=0.5, epochs=2,
                                    lr=0.05, batch_size=12)
    schedule = TR.TrainSchedule(base_epochs=2, lr0=0.05, batch_size=12)
    return dict(arch=A.preset("vgg-small"), seeds=(0, 1), budget_ratio=0.5,
                data=data, importance=importance, schedule=schedule)


def test_smallest_study_is_random_only():
    bundle = AN.run_pretrain_effect_study(checkpoint_epochs=[0],
                                          **tiny_study_kwargs())
    assert bundle.checkpoint_epochs == ()
    assert [f.label for f in bundle.features] == ["s0:rand", "s1:rand"]
    assert bundle.cross.values.shape == (2, 2)
    assert bundle.per_seed == {}
    assert set(bundle.accuracies) == {"s0:rand", "s1:rand"}


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
    gated = len(A.place_gates(A.preset("vgg-small")).gated_layer_ids)
    assert len(b.channel_rows) == 4 * gated
    for label, ratio in b.flops_ratios.items():
        assert 0.0 < ratio <= 0.52, label
    for label, acc in b.accuracies.items():
        assert 0.0 <= acc <= 1.0, label
    rows = AN.study_summary(b)
    assert [r[0] for r in rows] == ["rand", "e2"]


def test_study_configs_respect_budget(small_bundle):
    arch = A.preset("vgg-small")
    full = A.count_flops(arch)
    for label, config in small_bundle.configs.items():
        assert A.count_flops(arch, config) <= 0.52 * full


def test_report_emission(tmp_path, small_bundle):
    files = AN.emit_report(small_bundle, tmp_path)
    names = {f.name for f in files}
    assert names == {"similarity_cross.csv", "similarity_seed0.csv",
                     "similarity_seed1.csv", "channels.csv", "summary.csv"}
    cross = AN.parse_matrix_csv((tmp_path / "similarity_cross.csv")
                                .read_text())
    assert cross == small_bundle.cross
    channels = (tmp_path / "channels.csv").read_text().strip().split("\n")
    assert channels[0] == "layer_id,label,kept,original"
    assert len(channels) == 1 + len(small_bundle.channel_rows)
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == "label,mean_acc,std_acc,flops_ratio"
    assert len(summary) == 3


def test_report_is_deterministic(tmp_path, small_bundle):
    AN.emit_report(small_bundle, tmp_path / "a")
    AN.emit_report(small_bundle, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
