"""Budget arithmetic, schedules, lottery slicing, and training runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from prunekit import arch as A
from prunekit import data as D
from prunekit import search as S
from prunekit import tensor as T
from prunekit import train as TR
from prunekit.errors import BudgetError, ConfigError, DivergenceError


# ---------------------------------------------------------------------------
# budget arithmetic

def test_budget_epochs_identity():
    assert TR.budget_epochs(160, 1000, 1000) == 160


def test_budget_epochs_doubles_at_half_flops():
    f = 442368
    assert TR.budget_epochs(160, f, f // 2) == 320


def test_budget_epochs_ratio():
    assert TR.budget_epochs(160, 1000, 400) == 400


def test_budget_epochs_conservation():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = int(rng.integers(100, 10 ** 9))
        p = int(rng.integers(1, f + 1))
        b = int(rng.integers(1, 500))
        e = TR.budget_epochs(b, f, p)
        assert b - 1 <= e * p / f <= b + 1


def test_budget_epochs_rejects_bad_flops():
    with pytest.raises(BudgetError):
        TR.budget_epochs(160, 1000, 0)
    with pytest.raises(BudgetError):
        TR.budget_epochs(160, 1000, 1001)


# ---------------------------------------------------------------------------
# learning-rate schedules

def test_cosine_endpoints_and_midpoint():
    assert TR.cosine_lr(0, 100, 0.4) == pytest.approx(0.4)
    assert TR.cosine_lr(100, 100, 0.4) == pytest.approx(0.0, abs=1e-12)
    assert TR.cosine_lr(50, 100, 0.4) == pytest.approx(0.2)


def test_cosine_rejects_out_of_range():
    with pytest.raises(ConfigError):
        TR.cosine_lr(-1, 10, 0.1)
    with pytest.raises(ConfigError):
        TR.cosine_lr(11, 10, 0.1)


def test_step_decay_milestones():
    sched = TR.TrainSchedule(base_epochs=100, lr0=0.1)
    assert TR.epoch_lr(sched, 0, 100) == pytest.approx(0.1)
    assert TR.epoch_lr(sched, 49, 100) == pytest.approx(0.1)
    assert TR.epoch_lr(sched, 50, 100) == pytest.approx(0.01)
    assert TR.epoch_lr(sched, 74, 100) == pytest.approx(0.01)
    assert TR.epoch_lr(sched, 75, 100) == pytest.approx(0.001)
    assert TR.epoch_lr(sched, 99, 100) == pytest.approx(0.001)


def test_cosine_policy_per_epoch():
    sched = TR.TrainSchedule(base_epochs=10, lr_policy="cosine", lr0=0.2)
    assert TR.epoch_lr(sched, 0, 10) == pytest.approx(0.2)
    assert TR.epoch_lr(sched, 5, 10) == pytest.approx(0.1)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        TR.TrainSchedule(base_epochs=-1)
    with pytest.raises(ConfigError):
        TR.TrainSchedule(base_epochs=1, optimizer="lbfgs")
    with pytest.raises(ConfigError):
        TR.TrainSchedule(base_epochs=1, optimizer="adam")
    with pytest.raises(ConfigError):
        TR.TrainSchedule(base_epochs=1, lr_policy="linear")
    with pytest.raises(ConfigError):
        TR.TrainSchedule(base_epochs=1, label_smoothing=1.0)
    with pytest.raises(ConfigError):
        TR.TrainSchedule(base_epochs=1, lr0=0.0)
    assert TR.TrainSchedule(base_epochs=5).epochs == 5
    assert TR.TrainSchedule(base_epochs=5, effective_epochs=9).epochs == 9


# ---------------------------------------------------------------------------
# label smoothing

def test_zero_smoothing_equals_cross_entropy():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(6, 4)).astype(np.float32)
    labels = rng.integers(0, 4, size=6)
    a = float(T.cross_entropy(logits, labels, 0.0))
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    assert a == pytest.approx(-logp[np.arange(6), labels].mean(), rel=1e-6)


def test_uniform_logits_give_log_classes():
    logits = np.zeros((5, 7), dtype=np.float32)
    labels = np.arange(5) % 7
    for eps in (0.0, 0.1, 0.5):
        val = float(T.cross_entropy(logits, labels, eps))
        assert val == pytest.approx(math.log(7), rel=1e-6)


def test_smoothing_matches_formula_oracle():
    # targets: (1-eps) on the true class plus eps/K spread uniformly
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    eps = 0.1
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expect = 0.0
    for i in range(4):
        t = np.full(5, eps / 5)
        t[labels[i]] += 1.0 - eps
        expect -= float(t @ logp[i])
    expect /= 4
    got = float(T.cross_entropy(logits.astype(np.float32), labels, eps))
    assert abs(got - expect) < 1e-6


# ---------------------------------------------------------------------------
# lottery slicing

def two_conv_arch():
    return A.ArchSpec("pair", (
        A.LayerSpec("c1", "conv", channels=4, kernel=3, padding=1),
        A.LayerSpec("b1", "batchnorm", inputs=("c1",), gated=True),
        A.LayerSpec("r1", "relu", inputs=("b1",)),
        A.LayerSpec("c2", "conv", channels=6, kernel=3, padding=1,
                    inputs=("r1",)),
        A.LayerSpec("b2", "batchnorm", inputs=("c2",), gated=True),
        A.LayerSpec("r2", "relu", inputs=("b2",)),
        A.LayerSpec("gp", "global-pool", inputs=("r2",)),
        A.LayerSpec("fc", "linear", inputs=("gp",), channels=3),
    ), (2, 6, 6), 3)


def test_full_config_slice_is_identity():
    arch = two_conv_arch()
    full = A.Model(arch, None, seed=3)
    state = TR.lottery_slice_init(full, A.full_config(arch))
    for name, arr in full.state_arrays().items():
        assert np.array_equal(state[name], arr)


def test_slice_shapes_follow_connectivity():
    arch = two_conv_arch()
    full = A.Model(arch, None, seed=3)
    config = A.ChannelConfig(((0, 2), (1, 4, 5)))
    state = TR.lottery_slice_init(full, config)
    assert state["c1.w"].shape == (2, 2, 3, 3)
    assert state["c2.w"].shape == (3, 2, 3, 3)
    assert state["b1.gamma"].shape == (2,)
    assert state["b2.running_var"].shape == (3,)
    assert state["fc.w"].shape == (3, 3)
    # rows are the original sub-tensors, not re-draws
    assert np.array_equal(state["c1.w"],
                          full.params["c1.w"][[0, 2]])
    assert np.array_equal(state["c2.w"],
                          full.params["c2.w"][[1, 4, 5]][:, [0, 2]])


def test_slice_requires_full_width_source():
    arch = two_conv_arch()
    pruned = A.Model(arch, A.ChannelConfig(((0, 2), (1, 4, 5))),
                     seed=3)
    with pytest.raises(ConfigError):
        TR.lottery_slice_init(pruned, A.full_config(arch))


def test_slice_rejects_out_of_range_indices():
    arch = two_conv_arch()
    full = A.Model(arch, None, seed=3)
    with pytest.raises(ConfigError):
        TR.lottery_slice_init(full, A.ChannelConfig(((9,), (0,))))


@pytest.mark.parametrize("name", ["vgg-small", "resnet-tiny",
                                  "depthwise-tiny"])
def test_masked_equals_sliced(name):
    # hard 0/1 gates on the full net vs actually removing the channels:
    # logits must agree elementwise at fresh initialization
    arch = A.preset(name)
    full = A.Model(arch, None, seed=11)
    widths = arch.gated_widths
    rng = np.random.default_rng(5)
    indices = []
    for c in widths:
        k = int(rng.integers(1, c + 1))
        indices.append(tuple(sorted(rng.choice(c, size=k, replace=False))))
    config = A.ChannelConfig(tuple(indices))
    gates = {}
    for lid, c, kept in zip(arch.gated_ids, widths, indices):
        v = np.zeros(c, dtype=T.default_dtype())
        v[list(kept)] = 1.0
        gates[lid] = v
    sliced = TR.lottery_model(full, config)
    x = rng.normal(size=(10, *arch.input_shape))
    masked_logits = full.forward(x, train=False, gates=gates)
    sliced_logits = sliced.forward(x, train=False)
    assert np.max(np.abs(masked_logits - sliced_logits)) < 1e-5


# ---------------------------------------------------------------------------
# training runs

def toy_suite(seed=0):
    spec = D.SynthSpec(classes=3, per_class=24, image_size=8, channels=3,
                       noise=0.4)
    return D.synth_suite(spec, seed)


def test_zero_epochs_scores_chance():
    data = toy_suite()
    accs = []
    for seed in range(5):
        rep = TR.train_from_scratch(A.preset("vgg-small"), None, data,
                                    TR.TrainSchedule(base_epochs=0), seed)
        assert rep.train_loss == ()
        assert rep.val_accuracy == ()
        accs.append(rep.test_accuracy)
    assert abs(float(np.mean(accs)) - 1 / 3) < 0.05


def test_loss_drops_over_training():
    data = toy_suite()
    sched = TR.TrainSchedule(base_epochs=30, lr0=0.05, batch_size=24)
    for seed in range(5):
        rep = TR.train_from_scratch(A.preset("vgg-small"), None, data,
                                    sched, seed)
        assert rep.train_loss[-1] < rep.train_loss[0]
        assert len(rep.train_loss) == 30
        assert len(rep.lr) == 30


def test_budget_training_beats_base_on_average():
    data = toy_suite()
    arch = A.preset("vgg-small")
    full = A.count_flops(arch)
    gates = [np.random.default_rng(5).random(c)
             for c in arch.gated_widths]
    res = S.search_structure(gates, arch, S.SearchConfig(budget=full // 2))
    pruned_flops = A.count_flops(arch, res.config)
    base = TR.TrainSchedule(base_epochs=6, lr0=0.05, batch_size=24)
    budget = TR.TrainSchedule(
        base_epochs=6,
        effective_epochs=TR.budget_epochs(6, full, pruned_flops),
        lr0=0.05, batch_size=24)
    assert budget.effective_epochs > base.base_epochs
    base_acc, budget_acc = [], []
    for seed in range(5):
        base_acc.append(TR.train_from_scratch(
            arch, res.config, data, base, seed).test_accuracy)
        budget_acc.append(TR.train_from_scratch(
            arch, res.config, data, budget, seed).test_accuracy)
    assert float(np.mean(budget_acc)) >= float(np.mean(base_acc))


def test_training_is_reproducible():
    data = toy_suite()
    sched = TR.TrainSchedule(base_epochs=3, lr0=0.05, batch_size=24)
    a = TR.train_from_scratch(A.preset("vgg-small"), None, data, sched, 7)
    b = TR.train_from_scratch(A.preset("vgg-small"), None, data, sched, 7)
    assert a.train_loss == b.train_loss
    assert a.val_accuracy == b.val_accuracy
    assert a.test_accuracy == b.test_accuracy
    c = TR.train_from_scratch(A.preset("vgg-small"), None, data, sched, 8)
    assert c.train_loss != a.train_loss


def _bits(state):
    return {name: a.tobytes() for name, a in state.items()}


def test_fit_keeps_the_states_of_the_requested_epochs():
    data = toy_suite()
    sched = TR.TrainSchedule(base_epochs=3, lr0=0.05, batch_size=24)
    model = A.Model(A.preset("vgg-small"), None, 0)
    initial = model.state_arrays()
    report = TR.fit(model, data, sched, 0, keep={0, 1, 7})
    # epochs the run never reaches are not kept; the last always is
    assert list(report.states) == [0, 1, 3]
    assert _bits(report.states[0]) == _bits(initial)
    assert _bits(report.states[3]) == _bits(model.state_arrays())
    # copies taken after each epoch, not views of the trained weights
    kept = [_bits(report.states[e]) for e in (0, 1, 3)]
    assert kept[0] != kept[1] != kept[2] != kept[0]
    # the states are data for the caller, not part of the report's value
    assert "states" not in TR.report_to_dict(report)
    assert "states" not in repr(report)
    assert replace(report, states={}) == report
    # a run of no epochs keeps its initial weights as the last state
    untrained = TR.fit(model, data, TR.TrainSchedule(base_epochs=0), 0)
    assert list(untrained.states) == [0]
    assert _bits(untrained.states[0]) == _bits(model.state_arrays())


def test_fit_rejects_an_empty_train_split():
    data = toy_suite()
    train = data["train"]
    empty = dict(data, train=D.Dataset(
        train.images[:0], train.labels[:0], "train", train.class_count,
        train.norm_mean, train.norm_std))
    model = A.Model(A.preset("vgg-small"), None, 0)
    before = model.weight_hash()
    with pytest.raises(ConfigError, match="non-empty train split"):
        TR.fit(model, empty, TR.TrainSchedule(base_epochs=1), 0)
    assert model.weight_hash() == before


def test_divergence_reports_epoch():
    data = toy_suite()
    poisoned = D.Dataset(data["train"].images.copy(),
                         data["train"].labels.copy(), "train", 3,
                         data["train"].norm_mean, data["train"].norm_std)
    poisoned.images[0] = np.inf
    bad = dict(data)
    bad["train"] = poisoned
    sched = TR.TrainSchedule(base_epochs=1, lr0=0.05, batch_size=72)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as err:
            TR.train_from_scratch(A.preset("vgg-small"), None, bad, sched, 0)
    assert err.value.step == 0


def test_divergence_reports_optimizer_step(monkeypatch):
    # two steps per epoch; weights poisoned by epoch 1's validation pass,
    # so the loss goes non-finite on the first batch of epoch 2 with 2
    # steps done
    data = toy_suite()
    sched = TR.TrainSchedule(base_epochs=2, lr0=0.05, batch_size=36)
    real_evaluate = A.evaluate_accuracy

    def poison(model, *args):
        accuracy = real_evaluate(model, *args)
        model.params["fc.w"][:] = np.inf
        return accuracy

    monkeypatch.setattr(A, "evaluate_accuracy", poison)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError) as err:
            TR.fit(A.Model(A.preset("vgg-small"), None, 0), data, sched, 0)
    assert err.value.step == 2


def test_report_csv_round_trips():
    rep = TR.TrainReport(seed=4, train_loss=(1.5, 0.75),
                         val_accuracy=(0.5, 0.625), lr=(0.1, 0.01),
                         test_accuracy=0.6, wall_time=1.0)
    text = TR.report_csv(TR.report_to_dict(rep))
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,val_acc"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == 0.1
    assert float(row[2]) == 1.5
    assert TR.report_csv(TR.report_to_dict(rep)) == text


def test_report_dict_round_trips(tmp_path):
    # a run record stores the dict form; inspect reads it back from there
    rep = TR.TrainReport(seed=4, train_loss=(1.5,), val_accuracy=(0.5,),
                         lr=(0.1,), test_accuracy=0.6, wall_time=1.0)
    record = D.RunRecord({}, 0, "0", train_reports=[TR.report_to_dict(rep)])
    D.save_run(record, tmp_path / "r.pkrun")
    back = D.load_run(tmp_path / "r.pkrun").train_reports[0]
    assert back == TR.report_to_dict(rep)
    assert TR.report_csv(back) == TR.report_csv(TR.report_to_dict(rep))
