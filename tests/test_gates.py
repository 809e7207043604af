"""Sparsity penalty, projection, and channel-importance learning."""

import numpy as np
import pytest

from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G
from prunekit import tensor as T
from prunekit.errors import ConfigError, DivergenceError

from helpers import (float64_mode, numeric_grad, objective, rel_err,
                     restore_stats)


def two_conv_arch(c1=4, c2=5, classes=3):
    return A.ArchSpec("toy2", (
        A.LayerSpec("conv1", "conv", channels=c1, kernel=3, padding=1),
        A.LayerSpec("bn1", "batchnorm", inputs=("conv1",), gated=True),
        A.LayerSpec("relu1", "relu", inputs=("bn1",)),
        A.LayerSpec("conv2", "conv", inputs=("relu1",), channels=c2,
                    kernel=3, padding=1),
        A.LayerSpec("bn2", "batchnorm", inputs=("conv2",), gated=True),
        A.LayerSpec("relu2", "relu", inputs=("bn2",)),
        A.LayerSpec("gap", "global-pool", inputs=("relu2",)),
        A.LayerSpec("fc", "linear", inputs=("gap",), channels=classes),
    ), (2, 6, 6), classes)


# ---------------------------------------------------------------------------
# sparsity penalty

def test_penalty_zero_at_target():
    r = 0.37
    gates = [np.full(6, r), np.full(10, r)]
    assert G.sparsity_penalty(gates, r) == 0.0


def test_penalty_all_ones_half_target():
    gates = [np.ones(7), np.ones(9)]
    assert G.sparsity_penalty(gates, 0.5) == 0.25


def test_penalty_mixed_example():
    gates = [np.array([1.0, 0.0, 1.0, 0.0])]
    assert G.sparsity_penalty(gates, 0.25) == pytest.approx(0.0625, abs=0)
    grad = G.sparsity_penalty_grad(gates, 0.25)
    assert np.allclose(grad[0], 0.125)


def test_penalty_nonnegative_and_positive_off_target():
    rng = np.random.default_rng(0)
    for _ in range(50):
        gates = [rng.random(rng.integers(1, 9)) for _ in range(3)]
        r = rng.random() * 0.9 + 0.05
        p = G.sparsity_penalty(gates, r)
        assert p >= 0.0
        mean = np.concatenate(gates).mean()
        if abs(mean - r) > 1e-6:
            assert p > 0.0


def test_penalty_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    gates = [rng.random(5), rng.random(3)]
    r = 0.4
    grad = G.sparsity_penalty_grad(gates, r)
    h = 1e-6
    for j, v in enumerate(gates):
        for i in range(v.size):
            orig = v[i]
            v[i] = orig + h
            fp = G.sparsity_penalty(gates, r)
            v[i] = orig - h
            fm = G.sparsity_penalty(gates, r)
            v[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grad[j][i] - fd) < 1e-8


@pytest.mark.parametrize("field", ["gamma", "lr"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_gamma_and_lr(field, value):
    with pytest.raises(ConfigError, match=field):
        G.ImportanceConfig(**{field: value})


def test_config_rejects_penalties_other_than_ratio():
    with pytest.raises(ConfigError, match="penalty"):
        G.ImportanceConfig(penalty="l1")


# ---------------------------------------------------------------------------
# projection

def test_project_identity_in_range():
    state = G.GateState([np.array([0.0, 0.5, 1.0])])
    before = state.lam[0].copy()
    G.project_gates(state)
    assert np.array_equal(state.lam[0], before)


def test_project_clamps_endpoints():
    state = G.GateState([np.array([1.7, -0.2, 0.3])])
    G.project_gates(state)
    assert np.array_equal(state.lam[0], [1.0, 0.0, 0.3])


def test_project_after_random_updates():
    rng = np.random.default_rng(2)
    state = G.GateState([rng.random(8), rng.random(4)])
    for _ in range(100):
        for v in state.lam:
            v += rng.normal(0, 0.5, v.shape)
        G.project_gates(state)
        for v in state.lam:
            assert v.min() >= 0.0 and v.max() <= 1.0


# ---------------------------------------------------------------------------
# gradient of the full objective

@pytest.mark.parametrize("train_mode", [False, True])
def test_gate_gradients_match_finite_differences(train_mode):
    gamma, r = 0.5, 0.4
    with float64_mode():
        arch = two_conv_arch()
        model = A.Model(arch, None, seed=0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 2, 6, 6))
        y = rng.integers(0, 3, 4)
        backup = {name: a.copy() for name, a in model.stats.items()}
        for trial in range(3):
            lam = [rng.random(4), rng.random(5)]
            gmap = dict(zip(arch.gated_ids, lam))
            tape = T.Tape()
            logits = model.forward(x, train=train_mode, gates=gmap,
                                   tape=tape)
            ce = T.cross_entropy(logits, y, tape=tape)
            restore_stats(model, backup)
            grads = tape.backward(ce, lam)
            pen = G.sparsity_penalty_grad(lam, r)
            analytic = [g + gamma * p for g, p in zip(grads, pen)]

            for j, v in enumerate(lam):
                def loss_fn():
                    out = objective(model, x, y, lam, gamma, r,
                                    train=train_mode)
                    restore_stats(model, backup)
                    return out
                fd = numeric_grad(loss_fn, v)
                assert rel_err(analytic[j], fd) < 1e-6


# ---------------------------------------------------------------------------
# importance learning

def toy_setup(noise=0.4, per_class=24, seed=0):
    spec = D.SynthSpec(classes=3, per_class=per_class, image_size=6,
                       channels=2, noise=noise)
    suite = D.synth_suite(spec, seed)
    arch = two_conv_arch()
    model = A.Model(arch, None, seed=seed)
    return model, suite


def test_init_gates_all_ones():
    model, _ = toy_setup()
    state = G.init_gates(model)
    assert [v.size for v in state.lam] == [4, 5]
    assert all(np.all(v == 1.0) for v in state.lam)
    assert state.sparsity == 1.0


def test_learning_keeps_weights_bitwise_frozen():
    model, suite = toy_setup()
    before = model.weight_hash()
    cfg = G.ImportanceConfig(epochs=2, batch_size=16, gamma=0.5,
                             target_sparsity=0.5)
    snaps = G.learn_channel_importance(model, suite["train"], suite["val"],
                                       cfg, seed=1)
    assert model.weight_hash() == before
    assert len(snaps) == 2
    assert [s.epoch for s in snaps] == [1, 2]
    for s in snaps:
        assert 0.0 <= s.val_accuracy <= 1.0
        assert all(v.min() >= 0 and v.max() <= 1 for v in s.gates.lam)
        assert s.sparsity == pytest.approx(s.gates.sparsity)


def test_huge_gamma_drives_sparsity_to_target():
    model, suite = toy_setup()
    cfg = G.ImportanceConfig(gamma=1e6, target_sparsity=0.5, epochs=1,
                             batch_size=1, lr=0.02)
    snaps = G.learn_channel_importance(model, suite["train"], suite["val"],
                                       cfg, seed=2)
    assert abs(snaps[-1].sparsity - 0.5) < 0.05


def test_zero_gamma_learns_without_sparsifying():
    # without the penalty, gates only chase the classification loss:
    # the mean stays near its 1.0 start and the per-epoch loss drops
    for seed in range(5):
        model, suite = toy_setup(seed=seed)
        cfg = G.ImportanceConfig(gamma=0.0, epochs=5, lr=0.01,
                                 batch_size=16)
        snaps = G.learn_channel_importance(model, suite["train"],
                                           suite["val"], cfg, seed=seed)
        assert snaps[-1].train_loss < snaps[0].train_loss
        # mean gate stays far above the 0.5 a sparsity push would reach
        assert snaps[-1].sparsity > 0.8


def test_intra_epoch_snapshots():
    model, suite = toy_setup()
    cfg = G.ImportanceConfig(epochs=1, batch_size=8, evals_per_epoch=3)
    snaps = G.learn_channel_importance(model, suite["train"], suite["val"],
                                       cfg, seed=3)
    assert len(snaps) == 3
    assert all(s.epoch == 1 for s in snaps)


def test_divergence_reports_step():
    model, suite = toy_setup()
    poisoned = suite["train"]
    poisoned.images[0] = np.inf
    cfg = G.ImportanceConfig(epochs=1, batch_size=len(poisoned))
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            G.learn_channel_importance(model, poisoned, suite["val"], cfg,
                                       seed=4)
    assert exc.value.step == 0


def test_learning_rejects_test_split():
    model, suite = toy_setup()
    cfg = G.ImportanceConfig(epochs=1)
    with pytest.raises(ConfigError):
        G.learn_channel_importance(model, suite["train"], suite["test"],
                                   cfg, seed=0)


def test_learning_rejects_an_empty_train_split():
    model, suite = toy_setup()
    train = suite["train"]
    empty = D.Dataset(train.images[:0], train.labels[:0], "train",
                      train.class_count, train.norm_mean, train.norm_std)
    with pytest.raises(ConfigError, match="non-empty train split"):
        G.learn_channel_importance(model, empty, suite["val"],
                                   G.ImportanceConfig(epochs=1), seed=0)


def test_learning_is_deterministic():
    outs = []
    for _ in range(2):
        model, suite = toy_setup()
        cfg = G.ImportanceConfig(epochs=2, batch_size=16)
        snaps = G.learn_channel_importance(model, suite["train"],
                                           suite["val"], cfg, seed=9)
        outs.append(np.concatenate(snaps[-1].gates.lam))
    assert outs[0].tobytes() == outs[1].tobytes()


# ---------------------------------------------------------------------------
# snapshot selection

def snap(sparsity, acc, epoch):
    return G.GateSnapshot(G.GateState([np.full(4, sparsity)]), acc, epoch,
                          train_loss=1.0)


def test_select_singleton():
    s = snap(0.4, 0.5, 1)
    assert G.select_best_gates([s], 0.5) is s.gates


def test_select_filters_then_maximizes():
    snaps = [snap(0.45, 0.60, 1), snap(0.48, 0.72, 2), snap(0.55, 0.80, 3)]
    assert G.select_best_gates(snaps, 0.5) is snaps[1].gates


def test_select_tie_goes_to_later_epoch():
    snaps = [snap(0.4, 0.7, 1), snap(0.45, 0.7, 2)]
    assert G.select_best_gates(snaps, 0.5) is snaps[1].gates


def test_select_fallback_warns_min_sparsity():
    snaps = [snap(0.9, 0.9, 1), snap(0.7, 0.1, 2), snap(0.8, 0.5, 3)]
    with pytest.warns(RuntimeWarning):
        out = G.select_best_gates(snaps, 0.5)
    assert out is snaps[1].gates


def test_select_empty_rejected():
    with pytest.raises(ConfigError):
        G.select_best_gates([], 0.5)


def test_select_agrees_with_exhaustive_scan():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        snaps = [snap(float(rng.random()), float(rng.random()), e + 1)
                 for e in range(n)]
        r = float(rng.random())
        import warnings as W
        with W.catch_warnings():
            W.simplefilter("ignore")
            chosen = G.select_best_gates(snaps, r)
        owner = next(s for s in snaps if s.gates is chosen)
        qualifying = [s for s in snaps if s.sparsity <= r]
        if qualifying:
            assert owner.sparsity <= r
            for s in qualifying:
                assert (s.val_accuracy, s.epoch) <= (owner.val_accuracy,
                                                     owner.epoch)
        else:
            for s in snaps:
                assert owner.sparsity <= s.sparsity


def test_snapshot_dump_round_trip():
    model, suite = toy_setup()
    cfg = G.ImportanceConfig(epochs=2, batch_size=16)
    snaps = G.learn_channel_importance(model, suite["train"], suite["val"],
                                       cfg, seed=6)
    meta, blob = G.snapshot_dump(snaps)
    assert blob.shape == (2, 9)
    assert meta[0]["epoch"] == 1
    for row, snap in zip(blob, snaps):
        assert np.allclose(row, np.concatenate(snap.gates.lam), atol=1e-7)
