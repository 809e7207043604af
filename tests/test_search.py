"""Threshold bisection under a FLOPS budget."""

import numpy as np
import pytest

from prunekit import arch as A
from prunekit import search as S
from prunekit.errors import BudgetError, ConfigError


def single_conv_arch(cout=4):
    return A.ArchSpec("one", (
        A.LayerSpec("c", "conv", channels=cout, kernel=3, padding=1),
        A.LayerSpec("b", "batchnorm", inputs=("c",), gated=True),
        A.LayerSpec("g", "global-pool", inputs=("b",)),
        A.LayerSpec("fc", "linear", inputs=("g",), channels=2),
    ), (3, 8, 8), 2)


def test_config_validation():
    with pytest.raises(ConfigError):
        S.SearchConfig(budget=10, rel_tolerance=0.0)
    with pytest.raises(ConfigError):
        S.SearchConfig(budget=10, max_iters=0)


def test_budget_above_full_rejected():
    arch = single_conv_arch()
    full = A.count_flops(arch)
    with pytest.raises(BudgetError):
        S.search_structure([np.ones(4)], arch,
                           S.SearchConfig(budget=full + 1))
    with pytest.raises(BudgetError):
        S.search_structure([np.ones(4)], arch, S.SearchConfig(budget=0))


def test_keep_all_budget_converges_to_full():
    arch = single_conv_arch()
    full = A.count_flops(arch)
    res = S.search_structure([np.ones(4)], arch, S.SearchConfig(budget=full))
    assert res.converged
    assert res.iterations <= 20
    assert res.config == A.full_config(arch)
    assert res.achieved_flops == full
    assert 0.0 <= res.tau_star < 1.0


def test_full_budget_keeps_channels_whose_gate_is_zero():
    # a zero gate survives no threshold, so bisection alone never gets
    # back to the full structure
    arch = single_conv_arch()
    full = A.count_flops(arch)
    res = S.search_structure([np.array([0.0, 0.3, 0.0, 1.0])], arch,
                             S.SearchConfig(budget=full))
    assert res.config == A.full_config(arch)
    assert res.achieved_flops == full
    assert (res.tau_star, res.iterations, res.converged, res.history) \
        == (0.0, 0, True, ())


def test_four_channel_enumeration():
    # per-regime FLOPS are k/4 of full for kept count k; only k=2 meets
    # a half-budget within 2%
    arch = single_conv_arch()
    full = A.count_flops(arch)
    gates = [np.array([0.9, 0.6, 0.3, 0.1])]
    for k in range(1, 5):
        cfg = A.ChannelConfig((tuple(range(k)),))
        assert A.count_flops(arch, cfg) == full * k // 4
    res = S.search_structure(gates, arch,
                             S.SearchConfig(budget=full // 2,
                                            rel_tolerance=0.02))
    assert res.converged
    assert res.config.kept_counts == (2,)
    assert res.config.kept_indices == ((0, 1),)
    assert 0.3 < res.tau_star < 0.6
    assert res.achieved_flops == full // 2


def test_converged_satisfies_tolerance_on_recount():
    arch = A.preset("resnet-tiny")
    widths = arch.gated_widths
    budget = A.count_flops(arch) // 2
    cfg = S.SearchConfig(budget=budget, rel_tolerance=0.02, max_iters=20)
    rng = np.random.default_rng(7)
    seen_converged = 0
    for _ in range(20):
        gates = [rng.random(c) for c in widths]
        res = S.search_structure(gates, arch, cfg)
        recount = A.count_flops(arch, res.config)
        assert recount == res.achieved_flops
        if res.converged:
            seen_converged += 1
            assert abs(recount - budget) / budget <= 0.02
            # the returned threshold reproduces the returned structure
            assert A.prune_by_threshold(gates, res.tau_star) == res.config
    assert seen_converged > 0


def test_interval_halves_each_iteration():
    arch = A.preset("resnet-tiny")
    widths = arch.gated_widths
    gates = [np.random.default_rng(3).random(c) for c in widths]
    res = S.search_structure(
        gates, arch, S.SearchConfig(budget=A.count_flops(arch) // 2))
    spans = [s.hi - s.lo for s in res.history]
    assert spans[0] == 1.0
    for a, b in zip(spans, spans[1:]):
        assert b == pytest.approx(a / 2, rel=1e-12)
    # every probe is the midpoint of its interval
    for s in res.history:
        assert s.tau == pytest.approx((s.lo + s.hi) / 2, rel=1e-12)


def test_degenerate_gates_exhaust_with_diagnostics():
    arch = single_conv_arch()
    full = A.count_flops(arch)
    res = S.search_structure([np.full(4, 0.7)], arch,
                             S.SearchConfig(budget=full // 2, max_iters=8))
    assert not res.converged
    assert res.iterations == 8
    assert len(res.history) == 8
    # best-seen result: no probe in the history beats the returned gap
    best_gap = min(s.rel_gap for s in res.history)
    assert abs(res.achieved_flops - full // 2) / (full // 2) == best_gap


def test_search_deterministic():
    arch = A.preset("vgg-small")
    widths = arch.gated_widths
    gates = [np.random.default_rng(11).random(c) for c in widths]
    cfg = S.SearchConfig(budget=A.count_flops(arch) // 2)
    a = S.search_structure(gates, arch, cfg)
    b = S.search_structure(gates, arch, cfg)
    assert a == b


def test_result_dict_round_trip():
    arch = single_conv_arch()
    res = S.search_structure([np.array([0.9, 0.6, 0.3, 0.1])], arch,
                             S.SearchConfig(budget=A.count_flops(arch) // 2))
    d = S.result_to_dict(res)
    assert d["converged"] is True
    assert d["kept_counts"] == [2]
    assert d["kept_indices"] == [[0, 1]]
    assert d["kept_indices"] == [list(ix) for ix in res.config.kept_indices]
    assert len(d["history"]) == res.iterations
