"""Architecture graph, gate placement, FLOPS model, and model generation."""

import numpy as np
import pytest

from prunekit import arch as A
from prunekit import tensor as T
from prunekit.errors import ArchError, ConfigError

from helpers import model_flops_oracle, random_config


@pytest.fixture(params=["vgg-small", "resnet-tiny", "depthwise-tiny"])
def any_arch(request):
    return A.preset(request.param)


def layer(arch, lid):
    return next(l for l in arch.layers if l.id == lid)


# ---------------------------------------------------------------------------
# spec validation

def test_arch_rejects_duplicate_ids():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("c", "conv", channels=4, kernel=3),
            A.LayerSpec("c", "relu", inputs=("c",)),
        ), (), (3, 8, 8), 3)


def test_arch_rejects_forward_reference():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("r", "relu", inputs=("c",)),
            A.LayerSpec("c", "conv", channels=4, kernel=3),
        ), (), (3, 8, 8), 3)


def test_arch_rejects_multiple_outputs():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("c1", "conv", channels=4, kernel=3),
            A.LayerSpec("c2", "conv", inputs=("c1",), channels=4, kernel=1),
            A.LayerSpec("c3", "conv", inputs=("c1",), channels=4, kernel=1),
        ), (), (3, 8, 8), 3)


def test_arch_rejects_join_width_mismatch():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("c1", "conv", channels=4, kernel=1),
            A.LayerSpec("c2", "conv", inputs=("c1",), channels=6, kernel=1),
            A.LayerSpec("j", "add-join", inputs=("c1", "c2")),
        ), (), (3, 8, 8), 3)


@pytest.mark.parametrize("stride,padding", [(1, 0), (3, 0), (2, 1)],
                         ids=["overlapping", "gapped", "padded"])
def test_pool_must_tile_its_map(stride, padding):
    # avg_pool2d averages the kernel x kernel tiles of its map
    A.LayerSpec("p", "pool", kernel=2, stride=2)
    with pytest.raises(ArchError, match="stride must equal its kernel"):
        A.LayerSpec("p", "pool", kernel=2, stride=stride, padding=padding)


def test_unknown_block_kind_rejected():
    with pytest.raises(ArchError):
        A.Block("spiral", ("x",))


# ---------------------------------------------------------------------------
# gate placement

def test_vgg_gates_every_bn():
    arch = A.preset("vgg-small")
    assert A.place_gates(arch) == tuple(f"bn{i}" for i in range(1, 9))


def test_resnet_gates_only_middle_bns():
    arch = A.preset("resnet-tiny")
    gated = A.place_gates(arch)
    assert len(gated) == 6
    assert all(g.endswith(".bn1") for g in gated)
    # block-output and projection norms never carry gates
    assert not any(g.endswith(".bn2") or g.endswith(".projbn")
                   for g in gated)


def test_depthwise_gates_second_bn():
    assert A.place_gates(A.preset("depthwise-tiny")) == (
        "dw1.bn2", "dw2.bn2", "dw3.bn2", "dw4.bn2")


def test_gates_always_point_at_batchnorms(any_arch):
    gated = A.place_gates(any_arch)
    assert len(gated) >= 1
    for lid in gated:
        assert layer(any_arch, lid).kind == "batchnorm"


# ---------------------------------------------------------------------------
# channel expansion

def test_expand_identity(any_arch):
    assert A.expand_channels(any_arch, 1.0) == any_arch


@pytest.mark.parametrize("base,mult,want", [
    (64, 1.25, 80),
    (64, 0.75, 48),
    (10, 1.25, 13),   # 12.5 rounds half up
    (1, 0.1, 1),      # floor of one channel
])
def test_expand_rounding(base, mult, want):
    arch = A.ArchSpec("one", (
        A.LayerSpec("c", "conv", channels=base, kernel=3, padding=1),
        A.LayerSpec("b", "batchnorm", inputs=("c",)),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=5),
    ), (A.Block("plain", ("c", "b")),), (3, 8, 8), 5)
    out = A.expand_channels(arch, mult)
    assert layer(out, "c").channels == want
    assert layer(out, "fc").channels == 5  # classifier untouched


def test_expand_classifier_unchanged(any_arch):
    out = A.expand_channels(any_arch, 1.25)
    assert layer(out, out.output_layer).channels == any_arch.num_classes


def test_expand_round_trip_within_one(any_arch):
    m = 1.25
    back = A.expand_channels(A.expand_channels(any_arch, m), 1.0 / m)
    for a, b in zip(any_arch.layers, back.layers):
        if a.kind in ("conv", "linear"):
            assert abs(a.channels - b.channels) <= 1


def test_expand_rejects_nonpositive():
    with pytest.raises(ConfigError):
        A.expand_channels(A.preset("vgg-small"), 0.0)


def test_expanded_residual_joins_stay_consistent():
    # widths on both sides of every add-join must scale together
    out = A.expand_channels(A.preset("resnet-tiny"), 1.25)
    assert layer(out, "s1b1.conv1").channels == 10
    A.count_flops(out)  # group resolution re-validates joins


# ---------------------------------------------------------------------------
# threshold pruning

def test_channel_config_counts_its_indices():
    assert A.ChannelConfig(((0, 2), (1,))).kept_counts == (2, 1)
    for bad in (((),), ((1, 0),), ((0, 0),), ((-1, 0),)):
        with pytest.raises(ConfigError):
            A.ChannelConfig(bad)


def test_prune_keep_all_at_zero(any_arch):
    widths = A.gated_channel_counts(any_arch)
    gates = [np.full(c, 0.7) for c in widths]
    cfg = A.prune_by_threshold(gates, 0.0)
    assert cfg == A.full_config(any_arch)


def test_prune_direct_comparison():
    cfg = A.prune_by_threshold([np.array([0.9, 0.6, 0.3, 0.1])], 0.5)
    assert cfg.kept_counts == (2,)
    assert cfg.kept_indices == ((0, 1),)


def test_prune_tie_at_threshold_is_pruned():
    cfg = A.prune_by_threshold([np.array([0.5, 0.6])], 0.5)
    assert cfg.kept_indices == ((1,),)


def test_prune_zero_survivors_clamps_to_strongest():
    cfg = A.prune_by_threshold([np.array([0.1, 0.4, 0.2])], 0.9)
    assert cfg.kept_counts == (1,)
    assert cfg.kept_indices == ((1,),)


def test_prune_monotone_in_threshold():
    # holds even through the zero-survivor clamp: the strongest channel
    # is always part of any nonempty keep set
    rng = np.random.default_rng(21)
    for _ in range(100):
        v = rng.random(12)
        t1, t2 = sorted(rng.random(2))
        keep1 = set(A.prune_by_threshold([v], t1).kept_indices[0])
        keep2 = set(A.prune_by_threshold([v], t2).kept_indices[0])
        assert keep2 <= keep1


def test_prune_rejects_bad_threshold():
    with pytest.raises(ConfigError):
        A.prune_by_threshold([np.array([0.5])], 1.5)


# ---------------------------------------------------------------------------
# FLOPS model

def test_count_flops_unit_conv():
    arch = A.ArchSpec("unit", (
        A.LayerSpec("c", "conv", channels=1, kernel=1),
        A.LayerSpec("b", "batchnorm", inputs=("c",)),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=1),
    ), (A.Block("plain", ("c", "b")),), (1, 1, 1), 1)
    # 1 MAC for the conv plus 1 for the 1->1 classifier
    assert A.count_flops(arch) == 2


def test_count_flops_known_conv():
    arch = A.ArchSpec("known32", (
        A.LayerSpec("c", "conv", channels=16, kernel=3, padding=1),
        A.LayerSpec("b", "batchnorm", inputs=("c",)),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=10),
    ), (A.Block("plain", ("c", "b")),), (3, 32, 32), 10)
    # 3*16*3*3*32*32 = 442368 conv MACs, plus 160 classifier MACs
    assert A.count_flops(arch) == 442368 + 160
    cfg = A.ChannelConfig((tuple(range(8)),))
    assert A.count_flops(arch, cfg) == 442368 // 2 + 80


def test_count_flops_halving_two_conv_chain():
    arch = A.ArchSpec("two", (
        A.LayerSpec("c1", "conv", channels=8, kernel=3, padding=1),
        A.LayerSpec("b1", "batchnorm", inputs=("c1",)),
        A.LayerSpec("c2", "conv", inputs=("b1",), channels=8, kernel=3,
                    padding=1),
        A.LayerSpec("b2", "batchnorm", inputs=("c2",)),
        A.LayerSpec("g", "global-pool", inputs=("b2",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=2),
    ), (A.Block("plain", ("c1", "b1")), A.Block("plain", ("c2", "b2"))),
        (3, 8, 8), 2)
    full = A.count_flops(arch)
    half = A.ChannelConfig((tuple(range(4)), tuple(range(4))))
    pruned = A.count_flops(arch, half)
    # boundary convs halve once, the interior conv quarters
    c1, c2, fc = 3 * 8 * 9 * 64, 8 * 8 * 9 * 64, 8 * 2
    assert full == c1 + c2 + fc
    assert pruned == c1 // 2 + c2 // 4 + fc // 2


def test_count_flops_matches_execution_oracle(any_arch):
    rng = np.random.default_rng(33)
    full_model = A.Model(any_arch, None, seed=0)
    assert A.count_flops(any_arch) == model_flops_oracle(
        full_model, any_arch.input_shape)
    for _ in range(5):
        cfg = random_config(A, any_arch, rng)
        model = A.Model(any_arch, cfg, seed=0)
        assert A.count_flops(any_arch, cfg) == model_flops_oracle(
            model, any_arch.input_shape)


def test_count_flops_monotone_under_threshold(any_arch):
    rng = np.random.default_rng(5)
    gates = [rng.random(c) for c in A.gated_channel_counts(any_arch)]
    taus = np.linspace(0, 1, 11)
    flops = [A.count_flops(any_arch, A.prune_by_threshold(gates, t))
             for t in taus]
    assert all(a >= b for a, b in zip(flops, flops[1:]))


def test_count_flops_rejects_inconsistent_config(any_arch):
    widths = A.gated_channel_counts(any_arch)
    too_many = A.ChannelConfig(tuple(tuple(range(c + 1)) for c in widths))
    with pytest.raises(ConfigError):
        A.count_flops(any_arch, too_many)
    wrong_len = A.ChannelConfig(((0,),) * (len(widths) + 1))
    with pytest.raises(ConfigError):
        A.count_flops(any_arch, wrong_len)


# ---------------------------------------------------------------------------
# model generation

def test_generate_model_forward_shape(any_arch):
    model = A.Model(any_arch, None, seed=3)
    x = np.random.default_rng(0).standard_normal(
        (4,) + tuple(any_arch.input_shape)).astype(np.float32)
    logits = model.forward(x)
    assert logits.shape == (4, any_arch.num_classes)


def test_generate_model_same_seed_bitwise_identical(any_arch):
    m1 = A.Model(any_arch, None, seed=11)
    m2 = A.Model(any_arch, None, seed=11)
    for (n1, t1), (n2, t2) in zip(m1.trainable(), m2.trainable()):
        assert n1 == n2
        assert t1.tobytes() == t2.tobytes()
    m3 = A.Model(any_arch, None, seed=12)
    assert m3.weight_hash() != m1.weight_hash()


def test_generate_model_full_config_flops_identity(any_arch):
    full = A.full_config(any_arch)
    assert A.count_flops(any_arch, full) == A.count_flops(any_arch)


def test_pruned_model_forward_shape(any_arch):
    rng = np.random.default_rng(9)
    cfg = random_config(A, any_arch, rng)
    model = A.Model(any_arch, cfg, seed=1)
    x = rng.standard_normal((2,) + tuple(any_arch.input_shape)).astype(
        np.float32)
    assert model.forward(x).shape == (2, any_arch.num_classes)


def test_state_round_trip(any_arch):
    m1 = A.Model(any_arch, None, seed=5)
    state = m1.state_arrays()
    m2 = A.Model(any_arch, None, seed=6)
    arrays = dict(m2.params)
    m2.load_state(state)
    assert m1.weight_hash() == m2.weight_hash()
    # loaded in place: the parameter arrays keep their identity
    assert all(m2.params[name] is p for name, p in arrays.items())
    x = np.random.default_rng(1).standard_normal(
        (2,) + tuple(any_arch.input_shape)).astype(np.float32)
    assert np.array_equal(m1.forward(x), m2.forward(x))


def test_load_state_rejects_wrong_shaped_or_missing_arrays():
    model = A.Model(A.preset("vgg-small"), None, seed=0)
    state = model.state_arrays()
    wrong = dict(state, **{"bn1.running_mean": np.zeros(5, np.float32)})
    with pytest.raises(ConfigError, match="'bn1.running_mean'.*shape"):
        model.load_state(wrong)
    del state["bn1.running_var"]
    with pytest.raises(ConfigError, match="'bn1.running_var'"):
        model.load_state(state)


def test_gate_dict_applies_to_forward():
    arch = A.preset("vgg-small")
    model = A.Model(arch, None, seed=2)
    widths = A.gated_channel_counts(arch)
    ones = {lid: np.ones(c, dtype=np.float32)
            for lid, c in zip(model.gated_ids, widths)}
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8)).astype(
        np.float32)
    base = model.forward(x)
    gated = model.forward(x, gates=ones)
    assert np.allclose(base, gated, atol=1e-6)
    zeros = {lid: np.zeros(c, dtype=np.float32)
             for lid, c in zip(model.gated_ids, widths)}
    dead = model.forward(x, gates=zeros)
    # killing every gated channel collapses logits to the classifier bias
    assert np.allclose(dead, dead[0], atol=1e-6)


def test_forward_calls_one_op_per_layer(monkeypatch):
    # the per-op timings of the benchmark rebind these names, so a fused
    # op would hide their time
    arch = A.preset("vgg-small")
    model = A.Model(arch, None, seed=0)
    gates = {lid: np.full(model.widths[lid].cout, 0.5, np.float32)
             for lid in model.gated_ids}
    calls = {name: 0 for name in ("conv2d", "batchnorm", "gate_modulate",
                                  "relu", "avg_pool2d")}
    for name in calls:
        def spy(*args, _op=getattr(T, name), _name=name, **kwargs):
            calls[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(T, name, spy)
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
    model.forward(x, train=True, gates=gates, tape=T.Tape())
    kinds = [l.kind for l in arch.layers]
    assert calls == {"conv2d": kinds.count("conv"),
                     "batchnorm": kinds.count("batchnorm"),
                     "gate_modulate": len(model.gated_ids),
                     "relu": kinds.count("relu"),
                     "avg_pool2d": kinds.count("pool")}
    assert len(model.gated_ids) == kinds.count("batchnorm")


def test_train_step_keeps_every_activation_batch_last(any_arch):
    # one train-mode forward and backward with gates, as gate learning
    # runs; the layout contract is batch-last: [C, H, W, N] memory
    model = A.Model(any_arch, None, seed=0)
    gates = {lid: np.full(model.widths[lid].cout, 0.5, np.float32)
             for lid in model.gated_ids}
    x = np.random.default_rng(0).standard_normal(
        (4,) + tuple(any_arch.input_shape)).astype(np.float32)
    tape = T.Tape()
    logits = model.forward(x, train=True, gates=gates, tape=tape)
    loss = T.cross_entropy(logits, np.arange(4) % any_arch.num_classes,
                           tape=tape)
    tape.backward(loss, list(gates.values()))
    outs = [(node.op, node.output) for node in tape.nodes
            if node.output.ndim == 4]
    assert {op for op, _ in outs} >= {"conv2d", "batchnorm", "relu"}
    for op, out in outs:
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous, op


def test_evaluate_accuracy_perfect_and_chance():
    arch = A.preset("vgg-small")
    model = A.Model(arch, None, seed=0)
    x = np.random.default_rng(3).standard_normal((30, 3, 8, 8)).astype(
        np.float32)
    logits = model.forward(x)
    labels = logits.argmax(axis=1)
    assert A.evaluate_accuracy(model, x, labels, batch_size=7) == 1.0
    wrong = (labels + 1) % arch.num_classes
    assert A.evaluate_accuracy(model, x, wrong, batch_size=7) == 0.0

