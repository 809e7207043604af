"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test registers a "criterion NN <name>: PASS/FAIL" line through
conftest so the run summary lists each guarantee explicitly. Checks with
a runtime budget assert it; the two study-based checks share one
module-scoped pruning study.
"""

import contextlib
import time

import numpy as np
import pytest

import conftest
from prunekit import analysis as AN
from prunekit import arch as A
from prunekit import cli as CLI
from prunekit import data as D
from prunekit import gates as G
from prunekit import search as S
from prunekit import tensor as T
from prunekit import train as TR
from prunekit.errors import FormatError

from helpers import (encode_cifar_batch, float64_mode, model_flops_oracle,
                     numeric_grad, objective, parse_matrix_csv,
                     pearson_oracle, random_config, rel_err, restore_stats)


@contextlib.contextmanager
def verdict(num, name, budget_s=None):
    """Register one PASS/FAIL summary line for the enclosed checks.

    Yields a list the test may append short detail strings to. When
    ``budget_s`` is given, the block itself must finish inside it.
    """
    t0 = time.perf_counter()
    notes = []
    ok = False
    try:
        yield notes
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            notes.append(f"{elapsed:.1f}s of {budget_s:.0f}s allowed")
        detail = f" ({', '.join(notes)})" if notes else ""
        line = (f"criterion {num:02d} {name}: "
                f"{'PASS' if ok else 'FAIL'}{detail}")
        print(line)
        conftest.VERDICTS.append(line)


def _two_conv(c1=4, c2=5, classes=3):
    return A.ArchSpec("accept2", (
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


def test_criterion_01_gate_gradients():
    # analytic gate gradients of loss + gamma * penalty vs central
    # differences, weights frozen throughout; batch norm in eval mode and
    # in the train mode that gate learning runs, with the running
    # statistics a train-mode forward updates restored after each
    with verdict(1, "gate gradients match finite differences",
                 budget_s=30) as notes:
        gamma, r = 0.5, 0.4
        worst = {False: 0.0, True: 0.0}
        with float64_mode():
            arch = _two_conv()
            model = A.Model(arch, None, seed=0)
            frozen = model.weight_hash()
            backup = {name: a.copy() for name, a in model.stats.items()}
            rng = np.random.default_rng(10)
            x = rng.standard_normal((4, 2, 6, 6))
            y = rng.integers(0, 3, 4)
            for _setting in range(10):
                lam = [rng.random(4), rng.random(5)]
                gmap = dict(zip(arch.gated_ids, lam))
                pen = G.sparsity_penalty_grad(lam, r)
                for train in (False, True):
                    tape = T.Tape()
                    logits = model.forward(x, train=train, gates=gmap,
                                           tape=tape)
                    ce = T.cross_entropy(logits, y, tape=tape)
                    restore_stats(model, backup)
                    grads = tape.backward(ce, lam)

                    def loss_fn():
                        out = objective(model, x, y, lam, gamma, r,
                                        train=train)
                        restore_stats(model, backup)
                        return out

                    for j, v in enumerate(lam):
                        fd = numeric_grad(loss_fn, v)
                        err = rel_err(grads[j] + gamma * pen[j], fd)
                        worst[train] = max(worst[train], err)
                        assert err < 1e-4
            assert model.weight_hash() == frozen
        notes.append(f"worst rel err {worst[False]:.2e} eval mode, "
                     f"{worst[True]:.2e} train mode, over 10 settings")


def test_criterion_02_penalty_exactness():
    with verdict(2, "sparsity penalty exact at target") as notes:
        assert G.sparsity_penalty([np.ones(7), np.ones(9)], 0.5) == 0.25
        # dyadic gate values make the mean hit the target exactly
        for r in (0.25, 0.375, 0.5, 0.75):
            flat = np.full(8, r)
            split = np.array([r - 0.125, r + 0.125] * 4)
            for gates in ([flat], [split], [flat, split]):
                assert abs(G.sparsity_penalty(gates, r)) < 1e-7
        # and the penalty is strictly positive anywhere else
        rng = np.random.default_rng(2)
        for _ in range(50):
            gates = [rng.random(int(rng.integers(1, 9))) for _ in range(3)]
            r = float(rng.uniform(0.05, 0.95))
            mean = float(np.concatenate(gates).mean())
            if abs(mean - r) > 1e-6:
                assert G.sparsity_penalty(gates, r) > 0.0
            assert abs(G.sparsity_penalty(gates, mean)) < 1e-7
        notes.append("zero iff mean equals target, all-ones at 0.5 = 0.25")


def test_criterion_03_search_convergence():
    # 100 random gate vectors bisected to a 50% budget: converged runs
    # must land within 2% on an independent recount, and every step must
    # halve the bracketing interval around its midpoint probe
    with verdict(3, "threshold search convergence", budget_s=60) as notes:
        arch = A.preset("resnet-tiny")
        widths = arch.gated_widths
        cfg = S.SearchConfig(budget=A.count_flops(arch) // 2,
                             max_iters=20, rel_tolerance=0.02)
        rng = np.random.default_rng(3)
        converged_runs = 0
        for _trial in range(100):
            gates = [rng.random(c) for c in widths]
            res = S.search_structure(gates, arch, cfg)
            assert res.iterations <= 20
            spans = [step.hi - step.lo for step in res.history]
            assert spans[0] == 1.0
            for prev, step, span_p, span in zip(res.history,
                                                res.history[1:],
                                                spans, spans[1:]):
                assert span == pytest.approx(span_p / 2.0, rel=1e-12)
                assert step.tau == 0.5 * (step.lo + step.hi)
                kept_lo = step.lo == prev.lo and step.hi == prev.tau
                kept_hi = step.hi == prev.hi and step.lo == prev.tau
                assert kept_lo != kept_hi
            if res.converged:
                converged_runs += 1
                recount = model_flops_oracle(A.Model(arch, res.config, 0),
                                             arch.input_shape)
                assert recount == res.achieved_flops
                assert abs(recount - cfg.budget) / cfg.budget <= 0.02
        assert converged_runs >= 50  # the recount check must not be vacuous
        notes.append(f"{converged_runs}/100 converged")


def test_criterion_04_flops_oracle():
    with verdict(4, "flops count matches brute-force oracle") as notes:
        rng = np.random.default_rng(4)
        for name in sorted(A.PRESETS):
            arch = A.preset(name)
            assert A.count_flops(arch) == model_flops_oracle(
                A.Model(arch, None, 0), arch.input_shape)
            for _ in range(20):
                config = random_config(arch, rng)
                assert A.count_flops(arch, config) == model_flops_oracle(
                    A.Model(arch, config, 0), arch.input_shape)
        notes.append(f"exact on 20 random configs x {len(A.PRESETS)} presets")


def test_criterion_05_masked_equals_sliced():
    # hard 0/1 gates on the full net vs physically removing the channels
    with verdict(5, "masked gates equal sliced model") as notes:
        rng = np.random.default_rng(5)
        worst = 0.0
        for name in sorted(A.PRESETS):
            arch = A.preset(name)
            full = A.Model(arch, None, seed=11)
            widths = arch.gated_widths
            indices = []
            for c in widths:
                k = int(rng.integers(1, c + 1))
                indices.append(tuple(sorted(
                    rng.choice(c, size=k, replace=False))))
            config = A.ChannelConfig(tuple(indices))
            gates = {}
            for lid, c, kept in zip(arch.gated_ids, widths, indices):
                v = np.zeros(c, dtype=T.default_dtype())
                v[list(kept)] = 1.0
                gates[lid] = v
            sliced = TR.lottery_model(full, config)
            x = rng.normal(size=(10, *arch.input_shape))
            masked = full.forward(x, train=False, gates=gates)
            direct = sliced.forward(x, train=False)
            worst = max(worst, float(np.max(np.abs(masked - direct))))
        assert worst < 1e-5
        notes.append(f"max logit gap {worst:.2e} across presets")


def test_criterion_06_weights_frozen():
    with verdict(6, "weights frozen during importance learning") as notes:
        spec = D.SynthSpec(classes=3, per_class=16, image_size=6,
                           channels=2, noise=0.4)
        suite = D.synth_suite(spec, seed=0)
        model = A.Model(_two_conv(), None, seed=3)
        before = model.weight_hash()
        cfg = G.ImportanceConfig(gamma=1.0, target_sparsity=0.5, epochs=3,
                                 lr=0.05, batch_size=16)
        snaps = G.learn_channel_importance(model, suite["train"],
                                           suite["val"], cfg, seed=4)
        assert model.weight_hash() == before
        # the gates did move, so the hash check is not vacuous
        assert any(np.any(v != 1.0) for v in snaps[-1].gates.lam)
        notes.append("sha256 of every learnable tensor unchanged")


# ---------------------------------------------------------------------------
# desk-scale pruning study shared by the two reproduction checks

STUDY_BUDGET_S = 900.0


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    t0 = time.perf_counter()
    # the defaults of `prunekit study`, on five seeds
    cfg = CLI.PipelineConfig(seeds=(0, 1, 2, 3, 4))
    bundle = AN.run_pretrain_effect_study(
        arch=A.preset(cfg.arch),
        data=D.synth_suite(cfg.synth, seed=cfg.data_seed),
        importance=cfg.importance,
        schedule=cfg.schedule,
        checkpoint_epochs=cfg.checkpoint_epochs,
        seeds=cfg.seeds,
        budget_ratio=cfg.budget,
        tolerance=cfg.tolerance,
        max_iters=cfg.max_iters)
    elapsed = time.perf_counter() - t0
    report = AN.emit_report(bundle, tmp_path_factory.mktemp("study-report"))
    return bundle, report, elapsed


def test_criterion_07_scratch_accuracy_parity(study):
    # structures pruned from random weights train from scratch to within
    # 2 accuracy points of structures pruned from trained checkpoints
    bundle, _report, elapsed = study
    with verdict(7, "random-init structures train comparably") as notes:
        assert elapsed < STUDY_BUDGET_S, (
            f"study took {elapsed:.0f}s, budget {STUDY_BUDGET_S:.0f}s")
        acc = {level: mean for level, mean, _std, _fl in
               AN.study_summary(bundle)}
        checked = []
        for epoch in bundle.checkpoint_epochs:
            if epoch < 10:
                continue
            gap = abs(acc["rand"] - acc[f"e{epoch}"]) * 100.0
            checked.append(f"e{epoch} gap {gap:.2f}pt")
            assert gap <= 2.0
        assert checked, "study produced no checkpoint level to compare"
        assert len(bundle.seeds) == 5
        notes.append(f"rand acc {acc['rand']:.3f}, " + ", ".join(checked)
                     + f", study {elapsed:.0f}s")


def test_criterion_08_similarity_trend(study):
    # checkpoint-derived structures correlate more with each other than
    # random-init structures do across seeds
    bundle, report, _elapsed = study
    with verdict(8, "checkpoint structures more similar than random") \
            as notes:
        rand_corr = AN.mean_pairwise_correlation(bundle.cross,
                                                 bundle.labels_for(0))
        ckpt_labels = [l for l in bundle.cross.labels
                       if ":e" in l and int(l.split(":e")[1]) >= 10]
        assert len(ckpt_labels) == 10  # 5 seeds x 2 checkpoint levels
        ckpt_corr = AN.mean_pairwise_correlation(bundle.cross, ckpt_labels)
        assert ckpt_corr > rand_corr
        # the matrices are on disk as CSV and read back identically
        by_name = {p.name: p for p in report}
        assert "similarity_cross.csv" in by_name
        seed_csvs = [n for n in by_name if n.startswith("similarity_seed")]
        assert len(seed_csvs) == len(bundle.seeds)
        reread = parse_matrix_csv(
            by_name["similarity_cross.csv"].read_text())
        assert reread == bundle.cross
        notes.append(f"checkpoint corr {ckpt_corr:.3f} > "
                     f"random-init corr {rand_corr:.3f}")


def test_criterion_09_budget_epoch_scaling():
    with verdict(9, "epoch budget doubles at half flops") as notes:
        presets = [A.count_flops(A.preset(n)) for n in sorted(A.PRESETS)]
        for full in [320, 64, 2_000_000] + [f - f % 2 for f in presets]:
            assert TR.budget_epochs(160, full, full // 2) == 320
            assert TR.budget_epochs(160, full, full) == 160
        notes.append("budget_epochs(160, f, f/2) == 320")


def test_criterion_10_pearson_oracle():
    with verdict(10, "correlation matrix matches textbook Pearson") as notes:
        rng = np.random.default_rng(10)
        worst = 0.0
        for _case in range(100):
            n = int(rng.integers(2, 7))
            length = int(rng.integers(3, 13))
            feats = [AN.StructureFeature(
                tuple(rng.uniform(0.05, 1.0, length).tolist()), f"f{i}")
                for i in range(n)]
            m = AN.correlation_matrix(feats)
            assert np.array_equal(m.values, m.values.T)
            assert np.all(np.diag(m.values) == 1.0)
            for i in range(n):
                for j in range(i + 1, n):
                    gap = abs(m.values[i, j] - pearson_oracle(
                        feats[i].ratios, feats[j].ratios))
                    worst = max(worst, gap)
                    assert gap < 1e-10
        notes.append(f"worst abs gap {worst:.2e} over 100 feature sets")


def test_criterion_11_batch_format_round_trip():
    with verdict(11, "binary image batches round-trip, truncation "
                 "rejected with offset") as notes:
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, size=(25, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, size=25).astype(np.uint8)
        raw = encode_cifar_batch(images, labels)
        assert len(raw) == 25 * 3073
        imgs, labs = D.parse_cifar_batch(raw)
        assert np.array_equal(imgs, images)
        assert np.array_equal(labs, labels)
        assert encode_cifar_batch(imgs, labs) == raw
        for cut, start in ((len(raw) - 1, 24 * 3073),
                           (3 * 3073 + 512, 3 * 3073),
                           (100, 0)):
            with pytest.raises(FormatError) as exc:
                D.parse_cifar_batch(raw[:cut])
            assert exc.value.offset == start
            assert "offset" in str(exc.value)
        notes.append("bit-exact over 25 records, 3 truncations diagnosed")


def test_criterion_12_pipeline_determinism(tmp_path):
    with verdict(12, "prune pipeline is deterministic") as notes:
        base = {
            "budget": 0.5, "expand": 1.25, "seeds": [3],
            "synth": {"classes": 3, "per_class": 24, "image_size": 8,
                      "channels": 3, "noise": 4.0},
            "importance": {"gamma": 1.0, "target_sparsity": 0.5,
                           "epochs": 3, "lr": 0.05, "batch_size": 24},
            "schedule": {"base_epochs": 3, "lr0": 0.05, "batch_size": 24},
        }
        runs = []
        for sub in ("a", "b"):
            cfg = CLI.resolve_config(
                flag_overrides=dict(base, out=str(tmp_path / sub)))
            runs.append(CLI.cmd_prune(cfg)[0])
        first, second = runs
        assert first.search["kept_counts"] == second.search["kept_counts"]
        assert first.search["kept_indices"] == second.search["kept_indices"]
        acc = first.train_reports[0]["test_accuracy"]
        assert acc == second.train_reports[0]["test_accuracy"]
        assert np.array_equal(first.gate_blob, second.gate_blob)
        notes.append(f"identical structure, test accuracy {acc:.3f}")
