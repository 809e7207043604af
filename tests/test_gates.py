"""Sparsity penalty, channel-importance learning and snapshot selection."""

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


@pytest.mark.parametrize("helper", [G.sparsity_penalty,
                                    G.sparsity_penalty_grad])
@pytest.mark.parametrize("gates", [[], [np.array([])]],
                         ids=["no-layers", "empty-layer"])
def test_penalty_rejects_empty_gates(helper, gates):
    with pytest.raises(ConfigError, match="no gate values"):
        helper(gates, 0.5)


@pytest.mark.parametrize("field", ["gamma", "lr"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_gamma_and_lr(field, value):
    with pytest.raises(ConfigError, match=field):
        G.ImportanceConfig(**{field: value})


def test_config_rejects_penalties_other_than_ratio():
    with pytest.raises(ConfigError, match="penalty"):
        G.ImportanceConfig(penalty="l1")


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


def per_layer_adam(model, train, val, cfg, seed):
    """Gate learning with one gate array and one pair of Adam moments
    per gated layer, each updated and clipped on its own: the reference
    that the one flat buffer of ``learn_channel_importance`` must
    reproduce byte for byte."""
    lam = [np.ones(model.widths[lid].cout, dtype=T.default_dtype())
           for lid in model.arch.gated_ids]
    gate_map = dict(zip(model.arch.gated_ids, lam))
    m = [np.zeros_like(v) for v in lam]
    v2 = [np.zeros_like(v) for v in lam]
    n = len(train)
    steps_per_epoch = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)
    eval_every = max(1, steps_per_epoch // cfg.evals_per_epoch)
    snaps, step = [], 0
    for epoch in range(1, cfg.epochs + 1):
        order = D.derive_rng(seed, "gate-shuffle", str(epoch)).permutation(n)
        ce_sum = ce_count = 0
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            tape = T.Tape()
            logits = model.forward(train.images[idx], train=True,
                                   gates=gate_map, tape=tape)
            ce = T.cross_entropy(logits, train.labels[idx], tape=tape)
            grads = tape.backward(ce, lam)
            ce_sum, ce_count = ce_sum + float(ce), ce_count + 1
            pen = G.sparsity_penalty_grad(lam, cfg.target_sparsity)
            step += 1
            for v, mj, vj, gj, pj in zip(lam, m, v2, grads, pen):
                g = gj + cfg.gamma * pj
                mj *= cfg.beta1
                mj += (1 - cfg.beta1) * g
                vj *= cfg.beta2
                vj += (1 - cfg.beta2) * g * g
                mhat = mj / (1 - cfg.beta1 ** step)
                vhat = vj / (1 - cfg.beta2 ** step)
                v -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
                np.clip(v, 0.0, 1.0, out=v)
            last = b + 1 == steps_per_epoch
            if last or (b + 1) % eval_every == 0 and cfg.evals_per_epoch > 1:
                acc = A.evaluate_accuracy(model, val.images, val.labels,
                                          gates=gate_map)
                snaps.append(([v.copy() for v in lam], acc, epoch,
                              ce_sum / ce_count))
    return snaps


# six steps per epoch: one, two or six snapshots in each of three epochs
@pytest.mark.parametrize("preset,evals,count", [
    pytest.param(p, e, n, id=p if e == 2 else f"{p}-evals{e}")
    for p in ("vgg-small", "resnet-tiny", "depthwise-tiny")
    for e, n in ((1, 3), (2, 6), (4, 18))])
def test_flat_gate_buffer_matches_a_per_layer_adam_reference(preset, evals,
                                                             count):
    spec = D.SynthSpec(classes=3, per_class=16, image_size=8, channels=3,
                       noise=1.0)
    suite = D.synth_suite(spec, 0)
    arch = A.preset(preset)
    cfg = G.ImportanceConfig(gamma=4.0, epochs=3, batch_size=8, lr=0.05,
                             evals_per_epoch=evals)
    got = G.learn_channel_importance(A.Model(arch, None, seed=3),
                                     suite["train"], suite["val"], cfg, 5)
    want = per_layer_adam(A.Model(arch, None, seed=3), suite["train"],
                          suite["val"], cfg, 5)
    assert len(got) == len(want) == count
    for snap, (lam, acc, epoch, loss) in zip(got, want):
        assert [v.tobytes() for v in snap.gates.lam] == [
            v.tobytes() for v in lam]
        assert (snap.val_accuracy, snap.epoch, snap.train_loss) == (
            acc, epoch, loss)
    # the gates moved, and some were clipped at 1, so the match covers
    # the update and the projection
    assert got[-1].sparsity < got[0].sparsity < 1.0
    assert any((v == 1.0).any() for s in got for v in s.gates.lam)


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


def test_snapshot_dump_empty_rejected():
    with pytest.raises(ConfigError, match="empty"):
        G.snapshot_dump([])


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
