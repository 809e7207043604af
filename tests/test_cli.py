"""Pipeline subcommands: config layering, prune, study, inspect."""

import argparse
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from prunekit import analysis as AN
from prunekit import arch as A
from prunekit import blas
from prunekit import cli as CLI
from prunekit import data as D
from prunekit import gates as G
from prunekit import search as S
from prunekit import tensor as T
from prunekit import train as TR
from prunekit.errors import (BudgetError, ConfigError, FormatError,
                             PipelineError)

from helpers import checksummed_container, encode_cifar_batch

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "budget": 0.5,
    "expand": 1.25,
    "seeds": [0],
    "synth": {"classes": 3, "per_class": 12, "image_size": 8,
              "channels": 3, "noise": 0.5, "template_seed": 77},
    "importance": {"gamma": 1.0, "target_sparsity": 0.5, "epochs": 2,
                   "lr": 0.05, "batch_size": 12},
    "schedule": {"base_epochs": 2, "lr0": 0.05, "batch_size": 12},
}


def tiny_config(out, **extra):
    over = dict(TINY, out=str(out), **extra)
    return CLI.resolve_config(flag_overrides=over)


def _prune_argv(tmp_path, name="runs", **extra):
    """``prune`` on TINY at budget 1.0 (or ``extra``'s), out in ``name``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / name),
                                    **{"budget": 1.0, **extra})))
    return ["prune", "--config", str(path)]


# ---------------------------------------------------------------------------
# configuration

def test_defaults_round_trip():
    cfg = CLI.PipelineConfig()
    assert CLI.config_from_dict(CLI.config_to_dict(cfg)) == cfg
    via_json = json.loads(json.dumps(CLI.config_to_dict(cfg)))
    assert CLI.config_from_dict(via_json) == cfg


def test_pipeline_blocks_are_the_dataclass_defaults():
    cfg = CLI.PipelineConfig()
    assert cfg.synth == D.SynthSpec()
    assert cfg.importance == G.ImportanceConfig()
    assert cfg.schedule == TR.TrainSchedule()


def test_bench_prune_config_is_the_default_config():
    # bench/README.md: the pinned prune-vgg config is the CLI's default
    pinned = json.loads(
        (ROOT / "bench" / "configs" / "prune-vgg.json").read_text())
    default = CLI.config_to_dict(CLI.PipelineConfig())
    for key in ("out", "seeds"):
        default.pop(key)
    assert pinned == default


def test_file_then_flags_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budget": 0.7, "out": "from-file",
                                "importance": {"gamma": 2.0}}))
    cfg = CLI.resolve_config(str(path), {"budget": 0.6})
    assert cfg.budget == 0.6
    assert cfg.out == "from-file"
    assert cfg.importance.gamma == 2.0


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budgett": 0.7}))
    with pytest.raises(ConfigError,
                       match=r"^config has unknown key\(s\) 'budgett'$"):
        CLI.resolve_config(str(path))


def test_config_validation():
    with pytest.raises(ConfigError):
        CLI.resolve_config(flag_overrides={"budget": 0.0})
    with pytest.raises(ConfigError):
        CLI.resolve_config(flag_overrides={"budget": 1.5})
    with pytest.raises(ConfigError):
        CLI.resolve_config(flag_overrides={"arch": "vgg-huge"})
    with pytest.raises(ConfigError):
        CLI.resolve_config(flag_overrides={"dataset": "imagenet"})
    with pytest.raises(ConfigError):
        CLI.resolve_config(flag_overrides={"seeds": []})


@pytest.mark.parametrize("overrides", [
    {"importance": {"batch_size": 0}},
    {"synth": {"per_class": 0}},
    {"synth": {"channels": 0}},
    {"tolerance": 0},
    {"max_iters": 0},
    {"expand": float("inf")},
    {"schedule": {"lr0": float("inf")}},
    {"schedule": {"lr0": float("nan")}},
    {"schedule": {"weight_decay": float("nan")}},
    {"tolerance": float("inf")},
    {"importance": {"epochs": 0}},
    {"schedule": {"decay_factor": float("nan")}},
    {"importance": {"beta1": 1.0}},
    {"importance": {"beta2": float("nan")}},
    {"importance": {"eps": 0.0}},
    {"synth": {"image_size": 1}},
    {"seeds": [0, 0]},
    {"synth": {"noise": float("nan")}},
    {"synth": {"noise": float("inf")}},
    {"importance": {"lr": 0.0}},
    {"importance": {"lr": -0.02}},
    {"expand": 1e308},
    {"expand": 1e20},
    {"expand": 1e17},
    {"expand": 1e9},
], ids=["gate-batch-0", "per-class-0", "channels-0", "tolerance-0",
        "max-iters-0", "expand-inf", "lr0-inf", "lr0-nan",
        "weight-decay-nan", "tolerance-inf", "gate-epochs-0",
        "decay-factor-nan", "beta1-1", "beta2-nan", "eps-0",
        "image-size-1", "seeds-repeated", "noise-nan", "noise-inf",
        "gate-lr-0", "gate-lr-negative", "expand-1e308", "expand-1e20",
        "expand-1e17", "expand-1e9"])
def test_config_rejects_inputs_that_would_crash(tmp_path, capsys,
                                                overrides):
    # each used to pass validation and fail or mislead mid-run: sizes of
    # 0 in a ZeroDivisionError, an infinite expansion in an OverflowError,
    # the search settings after the whole gate phase, an infinite lr0 or
    # a NaN decay factor in training, beta1 = 1 in a division by zero at
    # the first gate step, zero gate epochs with no snapshot to select,
    # an image too small for the preset at stage expand, after the data
    # was built; a repeated seed trained twice into the same files, and in
    # a study correlated one seed with itself; NaN slipped past the range
    # checks; a NaN or infinite synth noise built the data, then failed
    # the first gate step on a non-finite loss; a gate lr of 0 learned
    # nothing, and a negative one walked the gates up the loss. An
    # expansion of 1e308 overflowed to an infinite width and one of 1e20
    # passed numpy's largest dimension, both in a traceback after the
    # failed:init record was saved; one of 1e17 kept every width below
    # that dimension but not a conv weight's bytes, which ended in numpy's
    # bare "array is too big" traceback, and one of 1e9 in a MemoryError
    # at init. Python's json reads Infinity and NaN.
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "runs"),
                                    **overrides)))
    assert CLI.main(["prune", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_validation_split_that_empties_a_class_is_an_error(tmp_path,
                                                           capsys):
    # every class has 10 training images and validation takes all 10:
    # gate learning ran on the empty rest, then training ended in a bare
    # ZeroDivisionError
    root = tmp_path / "cifar"
    root.mkdir()
    rng = np.random.default_rng(0)
    for name in D.CIFAR_FILES:
        images = rng.integers(0, 256, (20, 3, 32, 32), dtype=np.uint8)
        labels = np.repeat(np.arange(10, dtype=np.uint8), 2)
        (root / name).write_bytes(encode_cifar_batch(images, labels))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cifar_val_per_class": 10,
                                "importance": {"epochs": 1}}))
    out = tmp_path / "runs"
    assert CLI.main(["prune", "--dataset", f"cifar10:{root}", "--config",
                     str(path), "--epochs", "1", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("study", {"checkpoint_epochs": [-3, 2]}),
    ("train-baseline", {"checkpoint_epochs": [-3, 2]}),
    ("prune", {"cifar_val_per_class": -1}),
    ("prune", {"cifar_val_per_class": 0}),
    ("prune", {"schedule": {"base_epochs": 2, "effective_epochs": 5}}),
    ("train-baseline", {"schedule": {"base_epochs": 2,
                                     "effective_epochs": 5}}),
], ids=["checkpoint-negative-study", "checkpoint-negative-baseline",
        "val-per-class-negative", "val-per-class-zero",
        "effective-epochs-prune",
        "effective-epochs-baseline"])
def test_config_rejects_inputs_that_would_be_misread(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     overrides):
    # each used to be dropped or misread without a word: a negative
    # checkpoint epoch was filtered out (-3,2 ran as 2); a negative
    # validation count put all but that many samples of each class into
    # validation; a zero one left validation empty, so every val
    # accuracy read 0.0 and gate selection fell to its tie rule; a set
    # effective_epochs was overwritten by budget
    # scaling in prune and study, and read as the epoch count in
    # train-baseline
    monkeypatch.setattr(TR, "fit", _no_training)
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "runs"),
                                    **overrides)))
    assert CLI.main([command, "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"importance": {"epochs": "3"}}, "importance.epochs"),
    ({"schedule": {"lr0": "0.1"}}, "schedule.lr0"),
    ({"synth": {"noise": True}}, "synth.noise"),
    ({"importance": {"batch_size": True}}, "importance.batch_size"),
    ({"importance": {"epochs": 3.0}}, "importance.epochs"),
    ({"schedule": {"augment": 1}}, "schedule.augment"),
    ({"schedule": {"milestones": 0.5}}, "schedule.milestones"),
    ({"schedule": {"milestones": [0.5, "0.75"]}}, "schedule.milestones"),
    ({"importance": {"epochs": None}}, "importance.epochs"),
    ({"lottery_init": "false"}, "lottery_init"),
    ({"seeds": [2.9]}, "seeds"),
    ({"expand": True}, "expand"),
    ({"max_iters": None}, "max_iters"),
], ids=["int-as-str", "float-as-str", "float-as-bool", "int-as-bool",
        "int-as-float", "bool-as-int", "tuple-as-float",
        "tuple-with-str", "null-for-int", "top-bool-as-str",
        "top-tuple-with-float", "top-float-as-bool", "top-null-for-int"])
def test_config_rejects_wrong_json_types(tmp_path, capsys, overrides, key):
    assert CLI.main(_prune_argv(tmp_path, **overrides)) == 1
    assert f"error: config key '{key}' must be" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.pkrun"))


def test_config_null_only_for_optional_fields(tmp_path):
    cfg = tiny_config(tmp_path, schedule={
        "base_epochs": 2, "effective_epochs": None, "lr0": 1,
        "milestones": [0.5, 1], "augment": False, "batch_size": 12})
    assert cfg.schedule.effective_epochs is None
    assert cfg.schedule.lr0 == 1
    assert cfg.schedule.milestones == (0.5, 1)
    # a null for a non-optional field reaches the type check, from a
    # record as from a config file
    d = CLI.config_to_dict(cfg)
    d["importance"]["epochs"] = None
    with pytest.raises(ConfigError, match="'importance.epochs' must be int"):
        CLI.config_from_dict(d)
    # a record names every key: a missing one is never filled in, even
    # where the field has a default
    for key in ("base_epochs", "momentum"):
        d = CLI.config_to_dict(cfg)
        del d["schedule"][key]
        with pytest.raises(ConfigError, match=f"'schedule' lacks '{key}'"):
            CLI.config_from_dict(d)


@pytest.mark.parametrize("content, problem", [
    ('{"budget": 0.5,', "not valid JSON"),
    ("[1,2]", "must hold a JSON object, got list"),
], ids=["truncated", "list"])
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, content,
                                                 problem):
    path = tmp_path / "cfg.json"
    path.write_text(content)
    with pytest.raises(ConfigError, match=problem):
        CLI.resolve_config(str(path))
    argv = ["prune", "--config", str(path), "--out", str(tmp_path / "runs")]
    assert CLI.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file ")
    assert str(path) in err and problem in err
    assert not (tmp_path / "runs").exists()


FLAG_SETS = [  # (argv, the config keys they set)
    (["prune", "--budget", "0.4", "--gamma", "3.0", "--sparsity-r", "0.6",
      "--epochs", "7", "--seeds", "1,2", "--tolerance", "0.05",
      "--max-iters", "12", "--lottery-init", "--expand", "1.5"],
     {"budget": 0.4, "importance.gamma": 3.0,
      "importance.target_sparsity": 0.6, "schedule.base_epochs": 7,
      "seeds": [1, 2], "tolerance": 0.05, "max_iters": 12,
      "lottery_init": True, "expand": 1.5}),
    (["study", "--checkpoint-epochs", "0,5", "--arch", "resnet-tiny",
      "--dataset", "cifar10:data", "--budget", "0.3", "--gamma", "2.0",
      "--seeds", "3,4"],
     {"checkpoint_epochs": [0, 5], "arch": "resnet-tiny",
      "dataset": "cifar10:data", "budget": 0.3, "importance.gamma": 2.0,
      "seeds": [3, 4]}),
    (["train-baseline", "--checkpoint-epochs", "1", "--arch",
      "depthwise-tiny", "--dataset", "synth", "--epochs", "3",
      "--seeds", "5"],
     {"checkpoint_epochs": [1], "arch": "depthwise-tiny",
      "dataset": "synth", "schedule.base_epochs": 3, "seeds": [5]}),
]


def test_flag_parsing_maps_to_config(tmp_path):
    for argv, expected in FLAG_SETS:
        args = CLI.build_parser().parse_args(argv + ["--out", str(tmp_path)])
        expected = dict(expected, out=str(tmp_path))
        # each flag is stored under the config key it sets
        assert {key: value for key, value in vars(args).items()
                if value is not None} == dict(expected, command=argv[0])
        resolved = CLI.config_to_dict(
            CLI.resolve_config(args.config, CLI._flag_overrides(args)))
        for key, value in expected.items():
            block, _, name = key.rpartition(".")
            assert (resolved[block] if block else resolved)[name] == value


UNREAD_FLAGS = [("train-baseline", flag) for flag in (
    "--budget", "--gamma", "--sparsity-r", "--tolerance", "--max-iters",
    "--expand", "--lottery-init")] + [
    ("prune", "--checkpoint-epochs"), ("study", "--expand"),
    ("study", "--lottery-init")]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[" ".join(pair) for pair in UNREAD_FLAGS])
def test_subcommand_rejects_flags_it_does_not_read(capsys, command, flag):
    argv = [command, flag] + ([] if flag == "--lottery-init" else ["1"])
    with pytest.raises(SystemExit) as exc:
        CLI.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_train_baseline_refuses_search_flags_before_any_work(
        tmp_path, capsys, monkeypatch):
    # these flags used to land in the record's config and change nothing
    monkeypatch.setattr(TR, "fit", _no_training)
    out = tmp_path / "base"
    with pytest.raises(SystemExit) as exc:
        CLI.main(["train-baseline", "--lottery-init", "--budget", "0.3",
                  "--gamma", "9", "--epochs", "1", "--checkpoint-epochs",
                  "1", "--out", str(out)])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --lottery-init --budget 0.3 --gamma 9"
            in capsys.readouterr().err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# prune

def test_prune_smoke(tmp_path):
    cfg = tiny_config(tmp_path)
    records = CLI.cmd_prune(cfg)
    assert len(records) == 1
    record = records[0]
    assert record.status == "completed"
    assert (tmp_path / "run_s0.pkrun").exists()
    assert (tmp_path / "run_s0.weights").exists()
    assert (tmp_path / "run_s0_train.csv").exists()
    loaded = D.load_run(tmp_path / "run_s0.pkrun")
    assert loaded == record
    arch = A.expand_channels(A.preset("vgg-small"), 1.25)
    achieved = record.search["achieved_flops"]
    kept = A.ChannelConfig(record.search["kept_indices"])
    assert A.count_flops(arch, kept) == achieved


def test_prune_is_deterministic(tmp_path):
    a = CLI.cmd_prune(tiny_config(tmp_path / "a"))[0]
    b = CLI.cmd_prune(tiny_config(tmp_path / "b"))[0]
    assert a.search["kept_counts"] == b.search["kept_counts"]
    assert a.search["kept_indices"] == b.search["kept_indices"]
    assert (a.train_reports[0]["test_accuracy"]
            == b.train_reports[0]["test_accuracy"])


def test_budget_one_keeps_everything(tmp_path):
    cfg = tiny_config(tmp_path, budget=1.0)
    record = CLI.cmd_prune(cfg)[0]
    arch = A.expand_channels(A.preset("vgg-small"), 1.25)
    assert tuple(record.search["kept_counts"]) == arch.gated_widths
    assert record.search["converged"] is True
    assert record.search["iterations"] == 0


def test_prune_failure_saves_partial_record(tmp_path):
    cfg = tiny_config(tmp_path, schedule={"base_epochs": 2, "lr0": 1e10,
                                          "batch_size": 12})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PipelineError, match="train"):
            CLI.cmd_prune(cfg)
    record = D.load_run(tmp_path / "run_s0.pkrun")
    assert record.status == "failed:train"
    assert record.search is not None
    assert record.artifacts == []


def _raises(exc, real=None, passes=0):
    """A stand-in that raises ``exc``, once ``real`` has served its first
    ``passes`` calls."""
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        if len(calls) > passes:
            raise exc
        return real(*args, **kwargs)
    return fail


def _disk_full_at(name):
    """``D.write_atomic``, raising ENOSPC for a file called ``name``."""
    real = D.write_atomic

    def write(path, content):
        if Path(path).name == name:
            raise OSError(28, "No space left on device")
        return real(path, content)
    return write


@pytest.mark.parametrize("name, rerun", [
    ("run_s0.weights", False), ("run_s0_train.csv", False),
    ("run_s0.weights", True), ("run_s0_train.csv", True),
], ids=["weights", "curve", "weights-rerun", "curve-rerun"])
def test_prune_failed_save_leaves_only_the_failed_record(
        tmp_path, capsys, monkeypatch, name, rerun):
    # a failed curve write left run_s0.weights, its metadata saying
    # "budget-trained", beside the failed:save record; on a rerun into
    # the same out, a failed write left the earlier run's files
    if rerun:
        assert CLI.main(_prune_argv(tmp_path)) == 0
        capsys.readouterr()
    monkeypatch.setattr(D, "write_atomic", _disk_full_at(name))
    assert CLI.main(_prune_argv(tmp_path)) == 1
    *done, last = capsys.readouterr().err.splitlines()
    assert [line.split(" done in ")[0] for line in done] == [
        f"seed 0: {stage}" for stage in ("init", "gates", "search", "train")]
    assert last == ("error: stage 'save' failed: seed 0: [Errno 28] No "
                    "space left on device")
    out = tmp_path / "runs"
    assert [p.name for p in out.iterdir()] == ["run_s0.pkrun"]
    record = D.load_run(out / "run_s0.pkrun")
    assert record.status == "failed:save"
    assert record.artifacts == []
    assert len(record.train_reports) == 1


def test_prune_output_follows_redirected_streams(tmp_path, capfd):
    # bench/workloads.py captures a run with contextlib.redirect_stdout and
    # redirect_stderr, so no line may go to a stream bound before them
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert CLI.main(_prune_argv(tmp_path)) == 0
    [result] = out.getvalue().splitlines()
    assert result.startswith("seed 0: flops ratio 1.000 (converged=True), "
                             "test accuracy ")
    assert [line.split(" done in ")[0]
            for line in err.getvalue().splitlines()] == [
        f"seed 0: {stage}"
        for stage in ("init", "gates", "search", "train", "save")]
    assert capfd.readouterr() == ("", "")


def test_prune_out_of_memory_is_a_stage_error(tmp_path, capsys,
                                              monkeypatch):
    # "expand": 1000 asks numpy for 8.58 GiB for one conv weight; the
    # failed:init record was saved, then a bare _ArrayMemoryError ended
    # the run in a traceback. Its bytes are addressable, so the config
    # takes it and only the allocation fails
    monkeypatch.setattr(A, "Model", _raises(MemoryError(
        "Unable to allocate 8.58 GiB for an array")))
    assert CLI.main(_prune_argv(tmp_path, expand=1000)) == 1
    assert capsys.readouterr().err == ("error: stage 'init' failed: seed 0: "
                                       "Unable to allocate 8.58 GiB for an "
                                       "array\n")
    record = D.load_run(tmp_path / "runs" / "run_s0.pkrun")
    assert record.status == "failed:init"
    assert record.artifacts == []


def test_exit_codes(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "runs"),
                                    budget=1.0)))
    assert CLI.main(["prune", "--config", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"budget": 7}))
    assert CLI.main(["prune", "--config", str(bad)]) == 1


def _hand_unit(source, data, importance, search, schedule, gate_seed,
               pruned_model, train_seed):
    """The pruning chain written out in library calls: gates on the
    frozen ``source``, the best snapshot, the search, then ``fit`` of
    ``pruned_model(config)`` on budget-scaled epochs."""
    snaps = G.learn_channel_importance(source, data["train"], data["val"],
                                       importance, gate_seed)
    best = G.select_best_gates(snaps, importance.target_sparsity)
    result = S.search_structure(best, source.arch, search)
    full = A.count_flops(source.arch)
    sched = replace(schedule, effective_epochs=TR.budget_epochs(
        schedule.base_epochs, full, result.achieved_flops))
    model = pruned_model(result.config)
    return result, model, TR.fit(model, data, sched, train_seed)


def test_prune_and_study_derive_each_seed_as_the_hand_chain(tmp_path):
    # fixes the derive_seed label of every stage: prune inits from
    # "pipeline-init", learns gates on the run seed and trains from
    # "scratch-init"; the study learns gates from "study-gates" and
    # trains from "study-scratch"
    cfg = tiny_config(tmp_path / "runs")
    CLI.cmd_prune(cfg)
    data = CLI.resolve_dataset(cfg)
    arch = A.expand_channels(CLI._pipeline_arch(cfg, data), cfg.expand)
    search = S.SearchConfig(budget=int(round(0.5 * A.count_flops(arch))),
                            rel_tolerance=cfg.tolerance,
                            max_iters=cfg.max_iters)
    source = A.Model(arch, None, D.derive_seed(0, "pipeline-init"))
    result, model, _ = _hand_unit(
        source, data, cfg.importance, search, cfg.schedule, 0,
        lambda c: A.Model(arch, c, D.derive_seed(0, "scratch-init")), 0)
    record = D.load_run(tmp_path / "runs" / "run_s0.pkrun")
    assert record.search["kept_indices"] == [
        list(ix) for ix in result.config.kept_indices]
    saved, _ = D.load_weights(tmp_path / "runs" / "run_s0.weights")
    assert _bits(saved) == _bits(model.state_arrays())

    arch = CLI._pipeline_arch(cfg, data)
    bundle = AN.run_pretrain_effect_study(
        arch, data, cfg.importance, cfg.schedule, [2], [0], 0.5,
        cfg.tolerance, cfg.max_iters)
    states = TR.train_baseline(arch, data, cfg.schedule, 0, {0, 2}).states
    search = replace(search, budget=int(round(0.5 * A.count_flops(arch))))
    for epoch, label in ((0, "s0:rand"), (2, "s0:e2")):
        source = A.Model(arch, None, seed=0)
        source.load_state(states[epoch])
        scratch = D.derive_seed(0, "study-scratch", label)
        result, _, report = _hand_unit(
            source, data, cfg.importance, search, cfg.schedule,
            D.derive_seed(0, "study-gates", str(epoch)),
            lambda c: A.Model(arch, c, D.derive_seed(scratch,
                                                     "scratch-init")),
            scratch)
        record = bundle.records[label]
        assert record.search["kept_indices"] == [
            list(ix) for ix in result.config.kept_indices]
        assert record.search["achieved_flops"] == result.achieved_flops
        assert record.train_reports[0]["test_accuracy"] == \
            report.test_accuracy
    assert list(bundle.records) == ["s0:rand", "s0:e2"]


def test_prune_reports_each_stage(tmp_path, capsys):
    assert CLI.main(_prune_argv(tmp_path, seeds=[0, 1])) == 0
    captured = capsys.readouterr()
    stages = [line.split(" done in ")[0]
              for line in captured.err.splitlines() if " done in " in line]
    assert stages == [f"seed {s}: {stage}" for s in (0, 1)
                      for stage in ("init", "gates", "search", "train",
                                    "save")]
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "seed 0", "seed 1"]


def test_prune_reports_a_search_stopped_outside_tolerance(tmp_path, capsys,
                                                          monkeypatch):
    # the study printed this line and prune did not; the unit prints it
    real_search = S.search_structure
    monkeypatch.setattr(S, "search_structure", lambda *args: replace(
        real_search(*args), converged=False))
    assert CLI.main(_prune_argv(tmp_path, budget=0.5)) == 1
    err = capsys.readouterr().err.splitlines()
    stopped = [line for line in err if "outside tolerance" in line]
    assert len(stopped) == 1
    assert stopped[0].startswith("seed 0: search stopped outside tolerance "
                                 "at flops ratio 0.")
    assert err.index(stopped[0]) < err.index(next(
        line for line in err if line.startswith("seed 0: search done in ")))
    record = D.load_run(tmp_path / "runs" / "run_s0.pkrun")
    assert record.status == "completed"
    assert record.search["converged"] is False


@pytest.mark.parametrize("command", ["prune", "study", "train-baseline"])
def test_out_of_memory_building_the_dataset_is_one_error_line(
        tmp_path, capsys, monkeypatch, command):
    # a huge synth.per_class fails in synth_suite, before any stage; the
    # MemoryError escaped main as a traceback
    monkeypatch.setattr(D, "synth_suite", _raises(MemoryError(
        "Unable to allocate 40.0 GiB for an array")))
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(out), seeds=[0, 1],
                                    checkpoint_epochs=[2])))
    assert CLI.main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == ("error: Unable to allocate 40.0 GiB "
                                       "for an array\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# BLAS threads

BLAS = blas.openblas()
needs_blas = pytest.mark.skipif(
    BLAS is None, reason="numpy's bundled OpenBLAS not found")


@pytest.fixture
def blas_pool(monkeypatch):
    """A two-thread pool and no thread variable set; the test's count
    is restored after."""
    for var in blas.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    get, set_ = BLAS
    before = get()
    set_(2)
    yield get
    set_(before)


def _conv_spy(monkeypatch, get):
    """The set of pool sizes that ``T.conv2d`` calls ran on."""
    seen = set()
    real_conv = T.conv2d

    def spy(*args, **kwargs):
        seen.add(get())
        return real_conv(*args, **kwargs)
    monkeypatch.setattr(T, "conv2d", spy)
    return seen


@needs_blas
def test_prune_trains_on_one_blas_thread(tmp_path, monkeypatch, blas_pool):
    seen = _conv_spy(monkeypatch, blas_pool)
    assert CLI.main(_prune_argv(tmp_path)) == 0
    assert seen == {1}
    assert blas_pool() == 2


@needs_blas
def test_library_loops_run_on_one_blas_thread(tmp_path, monkeypatch,
                                              blas_pool):
    cfg = tiny_config(tmp_path)
    data = D.synth_suite(cfg.synth, seed=0)
    arch = A.expand_channels(A.preset(cfg.arch), cfg.expand)
    model = A.Model(arch, None, seed=0)
    seen = _conv_spy(monkeypatch, blas_pool)
    G.learn_channel_importance(model, data["train"], data["val"],
                               cfg.importance, seed=0)
    assert seen == {1} and blas_pool() == 2
    seen.clear()
    TR.fit(model, data, cfg.schedule, seed=0)
    assert seen == {1} and blas_pool() == 2
    seen.clear()
    A.evaluate_accuracy(model, data["test"].images, data["test"].labels)
    assert seen == {1} and blas_pool() == 2


@needs_blas
def test_blas_threads_restored_after_error_exit(tmp_path, blas_pool):
    assert CLI.main(_prune_argv(tmp_path, budget=7)) == 1
    assert blas_pool() == 2


@needs_blas
@pytest.mark.parametrize("var", blas.THREAD_VARS)
def test_thread_variable_leaves_blas_pool_alone(tmp_path, monkeypatch,
                                                blas_pool, var):
    monkeypatch.setenv(var, "2")
    seen = _conv_spy(monkeypatch, blas_pool)
    assert CLI.main(_prune_argv(tmp_path)) == 0
    assert seen == {2}


def test_prune_completes_without_blas_symbols(tmp_path, monkeypatch):
    # the lookup is cached per process: run it afresh on missing symbols
    monkeypatch.setattr(blas, "_BLAS_SYMBOLS", (("no_get", "no_set"),))
    lookup = blas.openblas.__wrapped__
    assert lookup() is None
    monkeypatch.setattr(blas, "openblas", lookup)
    assert CLI.main(_prune_argv(tmp_path)) == 0
    assert (tmp_path / "runs" / "run_s0.weights").exists()


@needs_blas
def test_blas_pool_does_not_change_weights(tmp_path, monkeypatch, blas_pool):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    CLI.main(_prune_argv(tmp_path, "pool", budget=0.5))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    CLI.main(_prune_argv(tmp_path, "one", budget=0.5))
    assert ((tmp_path / "pool" / "run_s0.weights").read_bytes()
            == (tmp_path / "one" / "run_s0.weights").read_bytes())


# ---------------------------------------------------------------------------
# inspect

def test_inspect_round_trip(tmp_path, capsys):
    CLI.cmd_prune(tiny_config(tmp_path))
    code = CLI.cmd_inspect(tmp_path / "run_s0.pkrun", tmp_path / "views")
    out = capsys.readouterr().out
    assert code == 0
    assert "gate learning trajectory:\n  epoch 1: sparsity " in out
    arch = A.expand_channels(A.preset("vgg-small"), 1.25)
    gated = arch.gated_ids
    for lid in gated:
        assert f"  {lid}: " in out
    curve = (tmp_path / "views" / "run_s0_curve0.csv").read_text()
    record = D.load_run(tmp_path / "run_s0.pkrun")
    rows = curve.strip().split("\n")[1:]
    losses = [float(r.split(",")[2]) for r in rows]
    assert losses == record.train_reports[0]["train_loss"]


def test_inspect_failed_record(tmp_path, capsys):
    cfg = tiny_config(tmp_path, schedule={"base_epochs": 2, "lr0": 1e10,
                                          "batch_size": 12})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PipelineError):
            CLI.cmd_prune(cfg)
    code = CLI.cmd_inspect(tmp_path / "run_s0.pkrun")
    assert code == 1
    assert "failed stage: train" in capsys.readouterr().out


def test_inspect_missing_file_exits_nonzero(tmp_path):
    assert CLI.main(["inspect", str(tmp_path / "nope.pkrun")]) == 1


@pytest.mark.parametrize("content,named", [
    (b'{"schema": "prunekit/run/v1", ', ""),
    (b'{"arrays": [{"name": "gate_blob", "shape": [4, 4]}]}', ""),
    (b'{"schema": "prunekit/run/v1"}', "'config'"),
    ({"config": {}}, "'schedule'"),
    ({"status": "running"}, "'running'"),
    ({"search": {}}, "'kept_counts'"),
    ({"train_reports": [{}]}, "'seed'"),
    ({"snapshots": [{}]}, "'epoch'"),
    ({"search": {"kept_counts": [1, 2, 3]}}, "3 entries for 8 gated layers"),
    ({"train_reports": [{"seed": 0, "train_loss": [1.0, 0.5],
                         "val_accuracy": [0.5, 0.6], "lr": [0.1],
                         "test_accuracy": 0.6, "wall_time": 1.0}]},
     "differ in length"),
], ids=["truncated-json", "shape-past-payload", "missing-config",
        "empty-config", "unknown-status", "search-without-kept-counts",
        "report-without-seed", "snapshot-without-epoch",
        "kept-counts-short-of-the-gates", "report-lists-of-two-lengths"])
def test_inspect_malformed_record_exits_nonzero(tmp_path, capsys, content,
                                                named):
    bad = tmp_path / "bad.pkrun"
    if isinstance(content, bytes):
        bad.write_bytes(checksummed_container(D.RUN_MAGIC, content))
    else:  # a record with a valid checksum and the fields in ``content``
        config = CLI.config_to_dict(tiny_config(tmp_path))
        D.save_run(D.RunRecord(**{"config": config, "seed": 0,
                                  "tool_version": "0", **content}), bad)
    assert CLI.main(["inspect", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


@pytest.fixture(scope="module")
def prune_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("prune")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        CLI.cmd_prune(tiny_config(out))
    return out / "run_s0.pkrun"


def test_inspect_survives_seeded_record_mutations(prune_record, tmp_path,
                                                   capsys):
    # 50 seeded mutations of a completed prune record, each a dropped key
    # or a value set to None, a string or a list, in the status, the
    # search, one train report or one snapshot, or the search's
    # kept_counts or one report list cut short: inspect exits 0, or 1
    # with one error line, never with a traceback; a cut list exits 1
    meta, arrays = D.read_container(prune_record, D.RUN_MAGIC)
    rng = np.random.default_rng(0)
    values = (None, "x", [], ["x"])
    seen = set()
    for case in range(50):
        m = copy.deepcopy(meta)
        choice = int(rng.integers(len(values) + 2))
        cut = choice == len(values) + 1
        if cut:
            key = ("kept_counts", "lr", "train_loss",
                   "val_accuracy")[rng.integers(4)]
            block = "search" if key == "kept_counts" else "train_reports"
        else:
            block = ("status", "search", "train_reports",
                     "snapshots")[rng.integers(4)]
        if block == "status":
            holder, key = m, "status"
        else:
            holder = m[block] if block == "search" else m[block][
                rng.integers(len(m[block]))]
            if not cut:
                key = sorted(holder)[rng.integers(len(holder))]
        if cut:
            holder[key] = holder[key][:rng.integers(len(holder[key]))]
            what = f"{block}: cut {key!r} to {len(holder[key])}"
        elif choice == len(values):
            del holder[key]
            what = f"{block}: drop {key!r}"
        else:
            holder[key] = values[choice]
            what = f"{block}: {key!r} = {values[choice]!r}"
        path = tmp_path / f"case{case}.pkrun"
        D.write_container(path, D.RUN_MAGIC, m, arrays)
        try:
            code = CLI.main(["inspect", str(path),
                             "--out", str(tmp_path / "views")])
        except Exception as exc:
            pytest.fail(f"{what}: {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1), what
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, what
        else:
            assert err == "" and not cut, what
        seen.add((block, code, cut))
    # every block was mutated, a list was cut, and both outcomes were
    # reached
    assert {b for b, _, _ in seen} == {"status", "search", "train_reports",
                                       "snapshots"}
    assert {c for _, c, _ in seen} == {0, 1}
    assert any(cut for _, _, cut in seen)


def test_inspect_record_without_search(tmp_path, capsys):
    # a train-baseline record is completed but holds no structure search
    CLI.cmd_train_baseline(tiny_config(tmp_path, checkpoint_epochs=[1]))
    capsys.readouterr()
    record_path = tmp_path / "baseline_s0.pkrun"
    assert CLI.main(["inspect", str(record_path),
                     "--out", str(tmp_path / "views")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run seed=0 status=completed")
    assert "no structure search" in out
    # the record holds no gate snapshots, so no empty trajectory header
    assert "gate learning trajectory" not in out
    curve = (tmp_path / "views" / "baseline_s0_curve0.csv").read_text()
    record = D.load_run(record_path)
    assert curve == TR.report_csv(record.train_reports[0])


@pytest.mark.parametrize("block", [None, "synth", "importance",
                                   "schedule"],
                         ids=["top", "synth", "importance", "schedule"])
def test_inspect_rejects_unknown_config_key(tmp_path, capsys, block):
    # the top level is read as each block is
    config = CLI.config_to_dict(tiny_config(tmp_path))
    (config[block] if block else config)["bogus"] = 1
    message = (f"config block {block!r}" if block else "config") + (
        " has unknown key(s) 'bogus'")
    with pytest.raises(ConfigError) as exc:
        CLI.config_from_dict(config)
    assert str(exc.value) == message
    bad = tmp_path / "bad.pkrun"
    D.save_run(D.RunRecord(config=config, seed=0, tool_version="0"), bad)
    assert CLI.main(["inspect", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# study and baseline

def test_study_emits_reports(tmp_path):
    cfg = tiny_config(tmp_path / "study", seeds=[0, 1],
                      checkpoint_epochs=[2])
    files = CLI.cmd_study(cfg)
    names = {f.name for f in files}
    assert "similarity_cross.csv" in names
    assert (tmp_path / "study" / "summary.csv").exists()
    cfg2 = tiny_config(tmp_path / "study2", seeds=[0, 1],
                       checkpoint_epochs=[2])
    CLI.cmd_study(cfg2)
    for name in sorted(names):
        assert ((tmp_path / "study" / name).read_bytes()
                == (tmp_path / "study2" / name).read_bytes())


def test_study_trains_under_the_config_schedule(tmp_path, monkeypatch):
    # baseline and scratch runs differ from cfg.schedule only in length
    schedules = []
    real_fit = TR.fit

    def recording_fit(model, data, schedule, seed, **kwargs):
        schedules.append(schedule)
        return real_fit(model, data, schedule, seed, **kwargs)

    monkeypatch.setattr(TR, "fit", recording_fit)
    cfg = tiny_config(tmp_path, seeds=[0], checkpoint_epochs=[1],
                      schedule={"base_epochs": 2, "lr0": 0.05,
                                "batch_size": 12, "lr_policy": "cosine",
                                "augment": True, "momentum": 0.8,
                                "weight_decay": 1e-3, "milestones": [0.4],
                                "label_smoothing": 0.1})
    CLI.cmd_study(cfg)
    assert len(schedules) == 3  # baseline, then rand and e1 structures
    assert schedules[0].epochs == 1
    for sched in schedules:
        assert sched == replace(cfg.schedule, base_epochs=sched.base_epochs,
                                effective_epochs=sched.effective_epochs)
    assert [s.base_epochs for s in schedules[1:]] == [2, 2]


def test_study_searches_under_the_config_tolerance(tmp_path, capsys,
                                                  monkeypatch):
    searches = []
    real_search = S.search_structure

    def unconverged_search(gates, arch, cfg):
        searches.append(cfg)
        return replace(real_search(gates, arch, cfg), converged=False)

    monkeypatch.setattr(S, "search_structure", unconverged_search)
    cfg = tiny_config(tmp_path, seeds=[0], checkpoint_epochs=[1],
                      tolerance=0.2, max_iters=3)
    CLI.cmd_study(cfg)
    messages = capsys.readouterr().err.splitlines()
    assert [(c.rel_tolerance, c.max_iters) for c in searches] == [(0.2, 3),
                                                                  (0.2, 3)]
    stopped = [m for m in messages if "outside tolerance" in m]
    assert len(stopped) == 2
    assert "s0:rand" in stopped[0] and "flops ratio 0." in stopped[0]
    assert "s0:e1" in stopped[1]


@pytest.mark.parametrize("overrides, patch, error", [
    ({"schedule": {"base_epochs": 2, "lr0": 1e10, "batch_size": 12}}, None,
     "stage 'baseline' failed: seed 0: non-finite values"),
    ({}, (S, "search_structure", BudgetError("no threshold meets it")),
     "stage 'search' failed: s0:rand: no threshold meets it"),
    ({}, (G, "learn_channel_importance", MemoryError("Unable to allocate")),
     "stage 'gates' failed: s0:rand: Unable to allocate"),
], ids=["baseline-diverges", "search-fails", "gates-out-of-memory"])
def test_study_failure_names_its_seed_and_stage(tmp_path, capsys,
                                                monkeypatch, overrides,
                                                patch, error):
    # a diverging baseline ended in "error: non-finite values in output of
    # conv2d", naming neither the seed nor the stage
    if patch is not None:
        module, name, exc = patch
        monkeypatch.setattr(module, name, _raises(exc))
    out = tmp_path / "study"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(out), seeds=[0, 1],
                                    checkpoint_epochs=[2], **overrides)))
    assert CLI.main(["study", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"error: {error}")
    assert not out.exists()


def test_diverging_study_prints_one_error_line(tmp_path, capsys):
    # numpy printed ten overflow and invalid-value RuntimeWarnings before
    # the error line; the first op whose output is not finite reports it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(
        TINY, out=str(tmp_path / "study"), seeds=[0, 1], checkpoint_epochs=[2],
        schedule={"base_epochs": 2, "lr0": 1e10, "batch_size": 12})))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert CLI.main(["study", "--config", str(path)]) == 1
    assert [str(w.message) for w in seen
            if issubclass(w.category, RuntimeWarning)
            and "encountered" in str(w.message)] == []
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: stage 'baseline' failed: seed 0: non-finite "
                      "values in output of conv2d"]


def test_study_reports_each_stage_under_its_label(tmp_path, capsys):
    # the unit's lines read "seed 0: gates done for s0:rand", untimed,
    # and the baseline had none
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "study"),
                                    seeds=[0, 1], checkpoint_epochs=[1])))
    assert CLI.main(["study", "--config", str(path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" done in ")[0] for line in err
            if " done in " in line] == [
        f"{label}: {stage}" for s in (0, 1)
        for label, stages in ((f"seed {s}", ("baseline",)),
                              (f"s{s}:rand", ("gates", "search", "train")),
                              (f"s{s}:e1", ("gates", "search", "train")))
        for stage in stages]
    assert all(line.endswith(" s") for line in err if " done in " in line)


def _no_training(*args, **kwargs):
    raise AssertionError("trained before rejecting the config")


def test_study_rejects_a_single_structure_before_training(tmp_path, capsys,
                                                          monkeypatch):
    # one seed and no checkpoint leave one structure, and the cross-seed
    # matrix needs two
    monkeypatch.setattr(TR, "fit", _no_training)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "study"),
                                    seeds=[0], checkpoint_epochs=[0])))
    assert CLI.main(["study", "--config", str(path)]) == 1
    assert "error: study needs at least two structures" in (
        capsys.readouterr().err)
    assert not (tmp_path / "study").exists()


def test_study_rejects_lottery_init_before_building_data(tmp_path, capsys,
                                                         monkeypatch):
    # the study trains every structure from fresh weights, so
    # lottery_init would change nothing: a config file that sets it is a
    # config error, and study has no such flag
    def no_data(cfg):
        raise AssertionError("built the dataset before rejecting the key")
    monkeypatch.setattr(CLI, "resolve_dataset", no_data)
    out = tmp_path / "study"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lottery_init": True, "out": str(out)}))
    assert CLI.main(["study", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: lottery_init applies to prune only")
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        CLI.main(["study", "--lottery-init", "--out", str(out)])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --lottery-init"
            in capsys.readouterr().err)
    assert not out.exists()


def test_train_baseline_rejects_checkpoints_beyond_the_schedule(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(TR, "fit", _no_training)
    out = tmp_path / "base"
    assert CLI.main(["train-baseline", "--epochs", "2",
                     "--checkpoint-epochs", "1,5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint epoch(s) 5 lie beyond")
    assert not out.exists()


def test_train_baseline_saves_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path, checkpoint_epochs=[1])
    records = CLI.cmd_train_baseline(cfg)
    assert len(records) == 1
    assert (tmp_path / "baseline_s0_e1.weights").exists()
    assert (tmp_path / "baseline_s0_final.weights").exists()
    loaded = D.load_run(tmp_path / "baseline_s0.pkrun")
    assert loaded.status == "completed"
    state, meta = D.load_weights(tmp_path / "baseline_s0_e1.weights")
    assert meta["epoch"] == 1
    assert "c1.w" in state or any(k.endswith(".w") for k in state)


@pytest.mark.parametrize("overrides, patch, error", [
    ({"schedule": {"base_epochs": 2, "lr0": 1e10, "batch_size": 12}}, None,
     "stage 'baseline' failed: seed 0: non-finite values in output of "
     "conv2d"),
    ({}, (TR, "train_baseline", MemoryError("Unable to allocate 2.00 GiB")),
     "stage 'baseline' failed: seed 0: Unable to allocate 2.00 GiB"),
    ({}, (D, "save_weights", FormatError("state array 'c1.w' has dtype "
                                         "float64")),
     "stage 'save' failed: seed 0: state array 'c1.w' has dtype float64"),
    ({}, (D, "save_weights", OSError(28, "No space left on device")),
     "stage 'save' failed: seed 0: [Errno 28] No space left on device"),
    ({}, (D, "save_weights", OSError(28, "No space left on device"), 1),
     "stage 'save' failed: seed 0: [Errno 28] No space left on device"),
], ids=["diverges", "out-of-memory", "save-fails", "disk-full",
        "disk-full-at-second-checkpoint"])
def test_train_baseline_failure_names_its_seed_and_stage(
        tmp_path, capsys, monkeypatch, overrides, patch, error):
    # a diverging baseline ended in "error: non-finite values in output of
    # conv2d", and a MemoryError in a traceback; both left no record. A
    # full disk ended in a bare "error: [Errno 28] ..." line, and one at
    # the second checkpoint left the first beside the failed record
    if patch is not None:
        module, name, exc, *passes = patch
        monkeypatch.setattr(module, name,
                            _raises(exc, getattr(module, name), *passes))
    out = tmp_path / "base"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(out), checkpoint_epochs=[1],
                                    **overrides)))
    assert CLI.main(["train-baseline", "--config", str(path)]) == 1
    stage = error.split("'")[1]
    *done, last = capsys.readouterr().err.splitlines()
    assert [line.split(" done in ")[0] for line in done] == (
        ["seed 0: baseline"] if stage == "save" else [])
    assert last == f"error: {error}"
    # the seed's record, and no weights
    assert [p.name for p in out.iterdir()] == ["baseline_s0.pkrun"]
    record = D.load_run(out / "baseline_s0.pkrun")
    assert record.status == f"failed:{stage}"
    assert record.artifacts == []
    # what the stages before the failed one produced stays
    assert len(record.train_reports) == (stage == "save")
    assert CLI.main(["inspect", str(out / "baseline_s0.pkrun")]) == 1
    assert f"failed stage: {stage}\n" in capsys.readouterr().out


def test_train_baseline_failed_save_on_a_rerun_leaves_only_the_failed_record(
        tmp_path, capsys, monkeypatch):
    # a full disk at the rerun's first checkpoint left both checkpoints of
    # the earlier run into the same out beside the failed:save record
    out = tmp_path / "base"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(out),
                                    checkpoint_epochs=[1])))
    assert CLI.main(["train-baseline", "--config", str(path)]) == 0
    monkeypatch.setattr(D, "save_weights", _raises(
        OSError(28, "No space left on device")))
    assert CLI.main(["train-baseline", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: stage 'save' failed: seed 0: [Errno 28] No space left on "
        "device")
    assert [p.name for p in out.iterdir()] == ["baseline_s0.pkrun"]
    record = D.load_run(out / "baseline_s0.pkrun")
    assert record.status == "failed:save"
    assert record.artifacts == []


def test_train_baseline_failure_at_a_later_seed_keeps_the_earlier_one(
        tmp_path, monkeypatch):
    real_baseline = TR.train_baseline

    def fails_at_seed_1(arch, data, schedule, seed, keep):
        if seed == 1:
            raise MemoryError("Unable to allocate 2.00 GiB")
        return real_baseline(arch, data, schedule, seed, keep)

    monkeypatch.setattr(TR, "train_baseline", fails_at_seed_1)
    cfg = tiny_config(tmp_path, seeds=[0, 1], checkpoint_epochs=[1])
    with pytest.raises(PipelineError, match="seed 1: Unable to allocate"):
        CLI.cmd_train_baseline(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "baseline_s0.pkrun", "baseline_s0_e1.weights",
        "baseline_s0_final.weights", "baseline_s1.pkrun"]
    done = D.load_run(tmp_path / "baseline_s0.pkrun")
    assert done.status == "completed"
    assert len(done.artifacts) == 2
    failed = D.load_run(tmp_path / "baseline_s1.pkrun")
    assert failed.status == "failed:baseline"
    assert failed.artifacts == []


@pytest.mark.parametrize("epochs,printed", [
    ("2", r"seed 0: baseline val accuracy \d\.\d{3}, "
          r"test accuracy \d\.\d{3}"),
    ("0", r"seed 0: baseline test accuracy \d\.\d{3}"),
], ids=["trained", "no-epoch"])
def test_train_baseline_prints_val_accuracy_only_after_an_epoch(
        tmp_path, capsys, epochs, printed):
    # at --epochs 0 no validation pass runs, yet "val accuracy 0.000" was
    # printed for it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "base"))))
    assert CLI.main(["train-baseline", "--config", str(path), "--epochs",
                     epochs, "--checkpoint-epochs", "0"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert re.fullmatch(printed, line)


def test_train_baseline_reports_each_seeds_stage(tmp_path, capsys):
    cfg = tiny_config(tmp_path, seeds=[0, 1], checkpoint_epochs=[1])
    CLI.cmd_train_baseline(cfg)
    assert [line.split(" done in ")[0]
            for line in capsys.readouterr().err.splitlines()] == [
        "seed 0: baseline", "seed 0: save", "seed 1: baseline",
        "seed 1: save"]


def _bits(state):
    return {name: a.tobytes() for name, a in state.items()}


def test_train_baseline_weights_read_back_bit_for_bit(tmp_path):
    cfg = tiny_config(tmp_path, checkpoint_epochs=[1])
    CLI.cmd_train_baseline(cfg)
    data = CLI.resolve_dataset(cfg)
    arch = CLI._pipeline_arch(cfg, data)
    states = TR.train_baseline(arch, data, cfg.schedule, 0, {1, 2}).states
    for name, epoch in (("e1", 1), ("final", 2)):
        saved, meta = D.load_weights(tmp_path / f"baseline_s0_{name}.weights")
        assert meta == {"seed": 0, "epoch": epoch, "arch": cfg.arch}
        model = A.Model(arch, None, seed=1)
        model.load_state(saved)
        assert _bits(model.state_arrays()) == _bits(states[epoch])


def test_train_baseline_and_study_share_one_baseline_path(tmp_path,
                                                          monkeypatch):
    baselines, structures = [], []
    real_baseline, real_scratch = TR.train_baseline, TR.train_from_scratch

    def baseline_spy(arch, data, schedule, seed, keep):
        report = real_baseline(arch, data, schedule, seed, keep)
        baselines.append((seed, set(keep), report.states))
        return report

    def scratch_spy(arch, config, *args, **kwargs):
        structures.append(config)
        return real_scratch(arch, config, *args, **kwargs)

    monkeypatch.setattr(TR, "train_baseline", baseline_spy)
    monkeypatch.setattr(TR, "train_from_scratch", scratch_spy)
    cfg = tiny_config(tmp_path / "base", seeds=[0, 1], checkpoint_epochs=[2])
    CLI.cmd_train_baseline(cfg)
    assert [b[:2] for b in baselines] == [(0, {2}), (1, {2})]
    assert structures == []
    CLI.cmd_study(replace(cfg, out=str(tmp_path / "study")))
    assert [b[:2] for b in baselines[2:]] == [(0, {0, 2}), (1, {0, 2})]
    # every structure, and only structures, trains from scratch
    assert len(structures) == 4
    assert all(isinstance(c, A.ChannelConfig) for c in structures)
    # the study's last checkpoint is the schedule's end, so its baseline
    # is the one train-baseline saved
    for (_, _, saved), (_, _, studied) in zip(baselines, baselines[2:]):
        assert _bits(saved[2]) == _bits(studied[2])


@pytest.mark.parametrize("lottery", [False, True], ids=["fresh", "lottery"])
def test_prune_trains_through_the_benchmark_hooks(tmp_path, monkeypatch,
                                                  lottery):
    # bench/workloads.py wraps train.train_from_scratch, called with five
    # positional arguments and no keyword, and bench/tracing.py times
    # train.fit
    scratch, fitted = [], []
    real_scratch, real_fit = TR.train_from_scratch, TR.fit

    def scratch_spy(*args, **kwargs):
        scratch.append((len(args), args[-1], sorted(kwargs)))
        return real_scratch(*args, **kwargs)

    def fit_spy(model, *args, **kwargs):
        fitted.append((model.config, model.state_arrays()))
        return real_fit(model, *args, **kwargs)

    monkeypatch.setattr(TR, "train_from_scratch", scratch_spy)
    monkeypatch.setattr(TR, "fit", fit_spy)
    argv = _prune_argv(tmp_path, seeds=[0, 1], budget=0.5)
    CLI.main(argv + ["--lottery-init"] * lottery)
    records = [D.load_run(tmp_path / "runs" / f"run_s{s}.pkrun")
               for s in (0, 1)]
    assert [r.status for r in records] == ["completed", "completed"]
    configs = [A.ChannelConfig(r.search["kept_indices"]) for r in records]
    assert [config for config, _ in fitted] == configs
    if not lottery:
        assert scratch == [(5, seed, []) for seed in (0, 1)]
        return
    assert scratch == []
    # the sliced full-width init: weights stay frozen while gates learn
    arch = A.expand_channels(A.preset("vgg-small"), 1.25)
    for seed, config, (_, state) in zip((0, 1), configs, fitted):
        full = A.Model(arch, None, D.derive_seed(seed, "pipeline-init"))
        sliced = TR.lottery_slice_init(full, config)
        for name, array in sliced.items():
            if not name.endswith(("running_mean", "running_var")):
                assert array.tobytes() == state[name].tobytes(), name


@pytest.mark.parametrize("command,config,flags", [
    ("prune", "prune-vgg.json", ["--epochs", "1", "--seeds", "0"]),
    ("study", "study-2seed.json",
     ["--epochs", "1", "--checkpoint-epochs", "1", "--seeds", "3,4"]),
], ids=["prune-vgg", "study-2seed"])
def test_pinned_benchmark_configs_run_at_full_data_size(tmp_path, command,
                                                        config, flags):
    # the benchmark's own data size and gate settings, where selection
    # falls back, in two short runs
    path = ROOT / "bench" / "configs" / config
    assert CLI.main([command, "--config", str(path), *flags,
                     "--out", str(tmp_path)]) == 0


def test_pinned_structure_config_runs_at_full_data_size():
    # the structure-dw workload runs through library calls, not cli.main:
    # its pinned geometry and data, one gate epoch, every budget searched
    cfg = json.loads((ROOT / "bench" / "configs" / "structure-dw.json")
                     .read_text())
    syn = cfg["synth"]
    data = D.synth_suite(D.SynthSpec(**syn), cfg["data_seed"])
    shape = (syn["channels"], syn["image_size"], syn["image_size"])
    arch = A.expand_channels(A.preset(cfg["arch"], shape, syn["classes"]),
                             cfg["expand"])
    model = A.Model(arch, None, D.derive_seed(1000, "pipeline-init"))
    imp = G.ImportanceConfig(**dict(cfg["importance"], epochs=1))
    snaps = G.learn_channel_importance(model, data["train"], data["val"],
                                       imp, 1000)
    best = G.select_best_gates(snaps, imp.target_sparsity)
    full = A.count_flops(arch)
    for b in cfg["budgets"]:
        res = S.search_structure(best, arch, S.SearchConfig(
            budget=int(round(b * full)), rel_tolerance=cfg["tolerance"],
            max_iters=cfg["max_iters"]))
        assert A.count_flops(arch, res.config) == res.achieved_flops


# ---------------------------------------------------------------------------
# entry point

def _readme_flag_table() -> tuple[list[str], list[list[str]]]:
    """The README's table of flags per subcommand: its subcommand
    columns, and one row of cells per flag."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart (CLI)", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")]
    header, _rule, *body = rows
    return header[2:], body


def test_readme_lists_each_subcommands_flags():
    commands, rows = _readme_flag_table()
    parser = CLI.build_parser()
    subs = next(action for action in parser._actions if isinstance(
        action, argparse._SubParsersAction)).choices
    assert commands == ["prune", "study", "train-baseline"]
    for i, command in enumerate(commands):
        actions = {opt: action for action in subs[command]._actions
                   for opt in action.option_strings
                   if opt not in ("-h", "--help")}
        listed = {row[0]: row[1] for row in rows if row[2 + i]}
        assert set(listed) == set(actions), command
        for flag, key in listed.items():
            # a flag's dest is the config key the table names for it
            assert actions[flag].dest == (key or "config"), flag


def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "prunekit", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_every_public_name_resolves():
    # a name deleted from the package but left in __all__ breaks
    # ``from prunekit import *``
    import prunekit
    assert [name for name in prunekit.__all__
            if not hasattr(prunekit, name)] == []
    namespace: dict = {}
    exec("from prunekit import *", namespace)
    assert set(prunekit.__all__) <= set(namespace)


@pytest.mark.parametrize("command", ["prune", "study", "train-baseline"])
def test_diverging_run_ends_in_one_stage_error_in_the_shell(tmp_path,
                                                            command):
    # what the shell sees of a failed run: exit 1, one stage-named error
    # line and no traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(
        TINY, out=str(tmp_path / "out"), seeds=[0, 1], checkpoint_epochs=[2],
        schedule={"base_epochs": 2, "lr0": 1e10, "batch_size": 12})))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "prunekit", command,
                           "--config", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert [line for line in proc.stderr.splitlines()
            if line.startswith("error: stage '")] == [
        proc.stderr.splitlines()[-1]]
    assert "Traceback" not in proc.stderr
