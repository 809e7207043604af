"""Architecture graph, gate placement, FLOPS model, and model generation."""

import pickle
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from prunekit import arch as A
from prunekit import tensor as T
from prunekit import train as TR
from prunekit.errors import (ArchError, ConfigError, GeometryError,
                             LabelError, ShapeError)

from helpers import model_flops_oracle, random_config, rel_err


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
        ), (3, 8, 8), 3)


def test_arch_rejects_forward_reference():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("r", "relu", inputs=("c",)),
            A.LayerSpec("c", "conv", channels=4, kernel=3),
        ), (3, 8, 8), 3)


def test_arch_rejects_multiple_outputs():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("c1", "conv", channels=4, kernel=3),
            A.LayerSpec("c2", "conv", inputs=("c1",), channels=4, kernel=1),
            A.LayerSpec("c3", "conv", inputs=("c1",), channels=4, kernel=1),
        ), (3, 8, 8), 3)


def test_arch_rejects_join_width_mismatch():
    with pytest.raises(ArchError):
        A.ArchSpec("bad", (
            A.LayerSpec("c1", "conv", channels=4, kernel=1),
            A.LayerSpec("c2", "conv", inputs=("c1",), channels=6, kernel=1),
            A.LayerSpec("j", "add-join", inputs=("c1", "c2")),
        ), (3, 8, 8), 3)


@pytest.mark.parametrize("stride,padding", [(1, 0), (3, 0), (2, 1)],
                         ids=["overlapping", "gapped", "padded"])
def test_pool_must_tile_its_map(stride, padding):
    # avg_pool2d averages the kernel x kernel tiles of its map
    A.LayerSpec("p", "pool", kernel=2, stride=2)
    with pytest.raises(ArchError, match="stride must equal its kernel"):
        A.LayerSpec("p", "pool", kernel=2, stride=stride, padding=padding)


def _head(prev):
    return (A.LayerSpec("g", "global-pool", inputs=(prev,)),
            A.LayerSpec("fc", "linear", inputs=("g",), channels=3))


_CONV_BN = (A.LayerSpec("c", "conv", channels=4, kernel=1),
            A.LayerSpec("b", "batchnorm", inputs=("c",))) + _head("b")
_JOIN = (A.LayerSpec("c1", "conv", channels=4, kernel=1),
         A.LayerSpec("c2", "conv", inputs=("c1",), channels=4, kernel=1,
                     stride=2),
         A.LayerSpec("j", "add-join", inputs=("c1", "c2")),
         A.LayerSpec("b", "batchnorm", inputs=("j",), gated=True)
         ) + _head("b")
# three convs tied by two joins; the second relabels the merged group
_TIED = (A.LayerSpec("c1", "conv", channels=4, kernel=1),
         A.LayerSpec("b1", "batchnorm", inputs=("c1",)),
         A.LayerSpec("c2", "conv", inputs=("b1",), channels=4, kernel=1),
         A.LayerSpec("j1", "add-join", inputs=("b1", "c2")),
         A.LayerSpec("c3", "conv", inputs=("j1",), channels=4, kernel=1),
         A.LayerSpec("j2", "add-join", inputs=("c3", "j1")),
         A.LayerSpec("b", "batchnorm", inputs=("j2",), gated=True)
         ) + _head("b")
_TWO_GATES_ONE_GROUP = (
    A.LayerSpec("c", "conv", channels=4, kernel=1),
    A.LayerSpec("b1", "batchnorm", inputs=("c",), gated=True),
    A.LayerSpec("b2", "batchnorm", inputs=("b1",), gated=True)) + _head("b2")


@pytest.mark.parametrize("build,error,match", [
    (lambda: A.preset("vgg-small", (3, 4, 4)), GeometryError,
     "'pool3' output 0x0"),
    (lambda: A.LayerSpec("c", "conv", channels=4, kernel=1, gated=True),
     ArchError, "only a batch norm carries a gate, not a conv"),
    (lambda: A.ArchSpec("bad", _CONV_BN, (3, 8, 8), 3), ArchError,
     "no gated layers"),
    (lambda: A.ArchSpec("bad", _TWO_GATES_ONE_GROUP, (3, 8, 8), 3),
     ArchError, "two gates share a channel group"),
    (lambda: A.ArchSpec("bad", _JOIN, (3, 8, 8), 3), GeometryError,
     r"'j' operands \(8, 8\) vs \(4, 4\)"),
    (lambda: A.ArchSpec("bad", tuple(
        replace(l, gated=True) if l.id == "b1" else l for l in _TIED),
        (3, 8, 8), 3), ArchError, "two gates share a channel group"),
], ids=["geometry", "gated-conv", "no-gates", "shared-group",
        "join-map-sizes", "shared-group-after-two-joins"])
def test_malformed_spec_rejected_when_built(build, error, match):
    # before any gate, width or FLOPS question is asked of it
    with pytest.raises(error, match=match):
        build()


def test_two_joins_tie_three_convs_to_one_gate():
    arch = A.ArchSpec("tied", _TIED, (3, 8, 8), 3)
    assert (arch.gated_ids, arch.gated_widths, arch.output_layer) == (
        ("b",), (4,), "fc")
    widths = A.resolve_widths(arch, A.ChannelConfig(((0, 2),)))
    for lid in ("c1", "c2", "c3"):
        assert (widths[lid].cout, widths[lid].out_idx) == (2, (0, 2))
    # every consumer of the group reads the two kept channels
    for lid in ("b1", "c2", "c3", "b", "fc"):
        assert (widths[lid].cin, widths[lid].in_idx) == (2, (0, 2))
    assert (widths["c1"].cin, widths["fc"].cout) == (3, 3)


def test_checked_results_stay_out_of_the_description(any_arch):
    assert A.expand_channels(any_arch, 1.0) == any_arch
    assert hash(A.expand_channels(any_arch, 1.0)) == hash(any_arch)
    assert repr(any_arch) == "ArchSpec(" + ", ".join(
        f"{f.name}={getattr(any_arch, f.name)!r}"
        for f in fields(any_arch)) + ")"
    # worker processes receive pickled specs
    back = pickle.loads(pickle.dumps(any_arch))
    assert back == any_arch
    cfg = random_config(any_arch, np.random.default_rng(4))
    assert ((back.gated_ids, back.gated_widths, back.output_layer)
            == (any_arch.gated_ids, any_arch.gated_widths,
                any_arch.output_layer))
    assert A.count_flops(back, cfg) == A.count_flops(any_arch, cfg)
    # replace builds anew, so the walk sees the new fields
    larger = replace(any_arch, input_shape=(3, 16, 16))
    assert A.count_flops(larger) == A.count_flops(
        A.preset(any_arch.name, (3, 16, 16)))
    first = any_arch.gated_ids[0]
    ungated = tuple(replace(l, gated=False) if l.gated and l.id != first
                    else l for l in any_arch.layers)
    assert replace(any_arch, layers=ungated).gated_ids == (first,)


# ---------------------------------------------------------------------------
# gate placement

def test_vgg_gates_every_bn():
    arch = A.preset("vgg-small")
    assert arch.gated_ids == tuple(f"bn{i}" for i in range(1, 9))


def test_resnet_gates_only_middle_bns():
    # the order fixes the gate_blob columns and kept_indices of a record;
    # block-output and projection norms, on the residual stream, never
    # carry gates
    assert A.preset("resnet-tiny").gated_ids == (
        "s1b1.bn1", "s1b2.bn1", "s2b1.bn1", "s2b2.bn1", "s3b1.bn1",
        "s3b2.bn1")


def test_depthwise_gates_second_bn():
    assert A.preset("depthwise-tiny").gated_ids == (
        "dw1.bn2", "dw2.bn2", "dw3.bn2", "dw4.bn2")


def test_gates_always_point_at_batchnorms(any_arch):
    gated = any_arch.gated_ids
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
        A.LayerSpec("b", "batchnorm", inputs=("c",), gated=True),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=5),
    ), (3, 8, 8), 5)
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
    widths = any_arch.gated_widths
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


def test_prune_rejects_a_layer_without_gates():
    with pytest.raises(ConfigError, match="layer 1 has no gates"):
        A.prune_by_threshold([np.array([0.5]), np.array([])], 0.3)


# ---------------------------------------------------------------------------
# FLOPS model

def test_count_flops_unit_conv():
    arch = A.ArchSpec("unit", (
        A.LayerSpec("c", "conv", channels=1, kernel=1),
        A.LayerSpec("b", "batchnorm", inputs=("c",), gated=True),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=1),
    ), (1, 1, 1), 1)
    # 1 MAC for the conv plus 1 for the 1->1 classifier
    assert A.count_flops(arch) == 2


def test_count_flops_known_conv():
    arch = A.ArchSpec("known32", (
        A.LayerSpec("c", "conv", channels=16, kernel=3, padding=1),
        A.LayerSpec("b", "batchnorm", inputs=("c",), gated=True),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=10),
    ), (3, 32, 32), 10)
    # 3*16*3*3*32*32 = 442368 conv MACs, plus 160 classifier MACs
    assert A.count_flops(arch) == 442368 + 160
    cfg = A.ChannelConfig((tuple(range(8)),))
    assert A.count_flops(arch, cfg) == 442368 // 2 + 80


def test_count_flops_halving_two_conv_chain():
    arch = A.ArchSpec("two", (
        A.LayerSpec("c1", "conv", channels=8, kernel=3, padding=1),
        A.LayerSpec("b1", "batchnorm", inputs=("c1",), gated=True),
        A.LayerSpec("c2", "conv", inputs=("b1",), channels=8, kernel=3,
                    padding=1),
        A.LayerSpec("b2", "batchnorm", inputs=("c2",), gated=True),
        A.LayerSpec("g", "global-pool", inputs=("b2",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=2),
    ), (3, 8, 8), 2)
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
        cfg = random_config(any_arch, rng)
        model = A.Model(any_arch, cfg, seed=0)
        assert A.count_flops(any_arch, cfg) == model_flops_oracle(
            model, any_arch.input_shape)


def test_count_flops_monotone_under_threshold(any_arch):
    rng = np.random.default_rng(5)
    gates = [rng.random(c) for c in any_arch.gated_widths]
    taus = np.linspace(0, 1, 11)
    flops = [A.count_flops(any_arch, A.prune_by_threshold(gates, t))
             for t in taus]
    assert all(a >= b for a, b in zip(flops, flops[1:]))


def test_count_flops_rejects_inconsistent_config(any_arch):
    widths = any_arch.gated_widths
    too_many = A.ChannelConfig(tuple(tuple(range(c + 1)) for c in widths))
    with pytest.raises(ConfigError):
        A.count_flops(any_arch, too_many)
    wrong_len = A.ChannelConfig(((0,),) * (len(widths) + 1))
    with pytest.raises(ConfigError):
        A.count_flops(any_arch, wrong_len)


def test_count_params_matches_the_model(any_arch):
    arch = A.expand_channels(any_arch, 1.25)
    model = A.Model(arch, None, seed=0)
    assert A.count_params(arch) == sum(p.size for p in model.params.values())
    # exact at widths no array could hold: the config's size guard reads it
    huge = A.count_params(A.expand_channels(any_arch, 1e17))
    assert isinstance(huge, int) and huge > 10 ** 33


def test_lottery_slice_takes_the_kept_channels_of_every_array(any_arch):
    arch = A.expand_channels(any_arch, 1.25)
    full = A.Model(arch, None, seed=0)
    state = full.state_arrays()
    kinds = {l.id: l.kind for l in arch.layers}
    rng = np.random.default_rng(21)
    for _ in range(20):
        config = random_config(arch, rng)
        sliced = TR.lottery_slice_init(full, config)
        model = A.Model(arch, config, 0).state_arrays()
        assert ({n: a.shape for n, a in sliced.items()}
                == {n: a.shape for n, a in model.items()})
        widths = A.resolve_widths(arch, config)
        for name, got in sliced.items():
            lid, part = name.rsplit(".", 1)
            want, lw = state[name], widths[lid]
            if lw.out_idx is not None:
                want = want[list(lw.out_idx)]
            if (kinds[lid] in ("conv", "linear") and part == "w"
                    and lw.in_idx is not None):
                want = want[:, list(lw.in_idx)]
            assert np.array_equal(got, want), name


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
    cfg = random_config(any_arch, rng)
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
    widths = arch.gated_widths
    ones = {lid: np.ones(c, dtype=np.float32)
            for lid, c in zip(arch.gated_ids, widths)}
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8)).astype(
        np.float32)
    base = model.forward(x)
    gated = model.forward(x, gates=ones)
    assert np.allclose(base, gated, atol=1e-6)
    zeros = {lid: np.zeros(c, dtype=np.float32)
             for lid, c in zip(arch.gated_ids, widths)}
    dead = model.forward(x, gates=zeros)
    # killing every gated channel collapses logits to the classifier bias
    assert np.allclose(dead, dead[0], atol=1e-6)


def test_forward_calls_one_op_per_layer(monkeypatch):
    # the per-op timings of the benchmark rebind these names, so a fused
    # op would hide their time
    arch = A.preset("vgg-small")
    model = A.Model(arch, None, seed=0)
    gates = {lid: np.full(model.widths[lid].cout, 0.5, np.float32)
             for lid in arch.gated_ids}
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
                     "gate_modulate": len(arch.gated_ids),
                     "relu": kinds.count("relu"),
                     "avg_pool2d": kinds.count("pool")}
    assert len(arch.gated_ids) == kinds.count("batchnorm")


def test_train_step_keeps_every_activation_batch_last(any_arch):
    # one train-mode forward and backward with gates, as gate learning
    # runs; the layout contract is batch-last: [C, H, W, N] memory
    model = A.Model(any_arch, None, seed=0)
    gates = {lid: np.full(model.widths[lid].cout, 0.5, np.float32)
             for lid in any_arch.gated_ids}
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


def test_eval_forward_holds_only_the_activations_it_still_reads(
        any_arch, monkeypatch):
    # an eval pass used to keep every layer's output until it returned;
    # by the classifier, only the pooled features it reads may be alive.
    # It runs one op per layer, except the batch norms (and their gates),
    # which every preset folds into the conv before them
    model = A.Model(any_arch, None, seed=0)
    gates = {lid: np.full(model.widths[lid].cout, 0.5, np.float32)
             for lid in any_arch.gated_ids}
    outputs: list[tuple[str, weakref.ref]] = []
    alive_at_fc: list[str] = []

    for name in ("conv2d", "batchnorm", "gate_modulate", "relu",
                 "avg_pool2d", "global_avg_pool", "add", "linear"):
        def spy(*args, _op=getattr(T, name), _name=name, **kwargs):
            if _name == "linear":
                alive_at_fc.extend(
                    op for op, ref in outputs
                    if ref() is not None and ref() is not args[0])
            out = _op(*args, **kwargs)
            outputs.append((_name, weakref.ref(out)))
            return out
        monkeypatch.setattr(T, name, spy)
    x = np.random.default_rng(0).standard_normal(
        (4,) + tuple(any_arch.input_shape)).astype(np.float32)
    logits = model.forward(x, gates=gates)
    assert logits.shape == (4, any_arch.num_classes)
    assert len(outputs) == sum(l.kind != "batchnorm"
                               for l in any_arch.layers)
    assert alive_at_fc == []


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6),
                                       (np.float64, 1e-14)],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_folded_eval_matches_the_taped_eval(any_arch, gated, dtype, tol):
    # the reference runs batch norm and gate as ops, since a taped pass
    # does not fold; train-mode passes first move the running statistics
    old = T.default_dtype()
    T.set_default_dtype(dtype)
    try:
        model = A.Model(any_arch, None, seed=0)
        rng = np.random.default_rng(1)
        shape = tuple(any_arch.input_shape)
        for _ in range(3):
            model.forward(rng.standard_normal((8,) + shape), train=True)
        for name, p in model.params.items():
            if name.endswith((".gamma", ".beta")):
                p[...] = rng.uniform(-1.5, 1.5, p.shape)
        gates = ({lid: rng.uniform(0.0, 1.0, model.widths[lid].cout)
                  .astype(dtype) for lid in any_arch.gated_ids}
                 if gated else None)
        x = rng.standard_normal((6,) + shape)
        folded = model.forward(x, gates=gates)
        taped = model.forward(x, gates=gates, tape=T.Tape())
    finally:
        T.set_default_dtype(old)
    assert folded.dtype == taped.dtype == dtype
    assert rel_err(folded, taped) < tol


def test_evaluate_accuracy_runs_no_batchnorm_or_gate_op(any_arch,
                                                        monkeypatch):
    model = A.Model(any_arch, None, seed=0)
    gates = {lid: np.full(model.widths[lid].cout, 0.5, np.float32)
             for lid in any_arch.gated_ids}
    calls = dict.fromkeys(("conv2d", "batchnorm", "gate_modulate"), 0)
    for name in calls:
        def spy(*args, _op=getattr(T, name), _name=name, **kwargs):
            calls[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(T, name, spy)
    x = np.random.default_rng(0).standard_normal(
        (10,) + tuple(any_arch.input_shape)).astype(np.float32)
    A.evaluate_accuracy(model, x, np.arange(10) % any_arch.num_classes,
                        batch_size=4, gates=gates)
    convs = sum(l.kind in ("conv", "depthwise-conv") for l in any_arch.layers)
    assert calls == {"conv2d": 3 * convs, "batchnorm": 0, "gate_modulate": 0}


@pytest.mark.parametrize("kwargs,error", [
    ({"batch_size": 0}, ConfigError),
    ({"batch_size": -1}, ConfigError),
    ({"labels": np.zeros(5, int)}, ShapeError),
    ({"labels": np.zeros((6, 1), int)}, ShapeError),
    ({"labels": np.array([0, 1, 2, 0, 1, -1])}, LabelError),
    ({"labels": np.array([0, 1, 2, 0, 1, 3])}, LabelError),
], ids=["batch-0", "batch-negative", "labels-short", "labels-2d",
        "label-negative", "label-past-classes"])
def test_evaluate_accuracy_rejects_bad_input_before_any_pass(
        kwargs, error, monkeypatch):
    model = A.Model(A.preset("vgg-small"), None, seed=0)

    def no_pass(*args, **kw):
        raise AssertionError("forward ran")
    monkeypatch.setattr(model, "forward", no_pass)
    call = {"images": np.zeros((6, 3, 8, 8), np.float32),
            "labels": np.arange(6) % 3} | kwargs
    with pytest.raises(error):
        A.evaluate_accuracy(model, **call)


@pytest.mark.parametrize("path", ["evaluate", "eval", "eval-taped", "train"])
def test_wrong_gate_shape_is_a_shape_error_on_every_path(path):
    # vgg-small's gated batch norms are 8 to 64 wide: 3 gates fit none
    arch = A.preset("vgg-small")
    model = A.Model(arch, None, seed=0)
    gates = {lid: np.ones(3, np.float32) for lid in arch.gated_ids}
    x = np.zeros((2, 3, 8, 8), np.float32)
    with pytest.raises(ShapeError, match="gates of shape"):
        if path == "evaluate":
            A.evaluate_accuracy(model, x, np.zeros(2, int), gates=gates)
        else:
            model.forward(x, train=path == "train", gates=gates,
                          tape=T.Tape() if path != "eval" else None)


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

