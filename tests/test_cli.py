"""Pipeline subcommands: config layering, prune, study, inspect."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from prunekit import arch as A
from prunekit import cli as CLI
from prunekit import data as D
from prunekit import train as TR
from prunekit.errors import ConfigError, PipelineError

from helpers import checksummed_container

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


# ---------------------------------------------------------------------------
# configuration

def test_defaults_round_trip():
    cfg = CLI.PipelineConfig()
    assert CLI.config_from_dict(CLI.config_to_dict(cfg)) == cfg
    via_json = json.loads(json.dumps(CLI.config_to_dict(cfg)))
    assert CLI.config_from_dict(via_json) == cfg


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
    with pytest.raises(ConfigError):
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


def test_flag_parsing_maps_to_config(tmp_path):
    parser = CLI.build_parser()
    args = parser.parse_args([
        "prune", "--budget", "0.4", "--gamma", "3.0", "--sparsity-r", "0.6",
        "--epochs", "7", "--seeds", "1,2", "--out", str(tmp_path),
        "--tolerance", "0.05", "--max-iters", "12", "--lottery-init"])
    cfg = CLI.resolve_config(args.config, CLI._flag_overrides(args))
    assert cfg.budget == 0.4
    assert cfg.importance.gamma == 3.0
    assert cfg.importance.target_sparsity == 0.6
    assert cfg.schedule.base_epochs == 7
    assert cfg.seeds == (1, 2)
    assert cfg.tolerance == 0.05
    assert cfg.max_iters == 12
    assert cfg.lottery_init is True


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
    recount = A.count_flops(arch, CLI.S.config_from_dict(record.search))
    assert recount == achieved


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
    assert tuple(record.search["kept_counts"]) == A.gated_channel_counts(arch)
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


def test_exit_codes(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY, out=str(tmp_path / "runs"),
                                    budget=1.0)))
    assert CLI.main(["prune", "--config", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"budget": 7}))
    assert CLI.main(["prune", "--config", str(bad)]) == 1


# ---------------------------------------------------------------------------
# inspect

def test_inspect_round_trip(tmp_path, capsys):
    CLI.cmd_prune(tiny_config(tmp_path))
    code = CLI.cmd_inspect(tmp_path / "run_s0.pkrun", tmp_path / "views")
    out = capsys.readouterr().out
    assert code == 0
    arch = A.expand_channels(A.preset("vgg-small"), 1.25)
    gated = A.place_gates(arch).gated_layer_ids
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


@pytest.mark.parametrize("meta", [
    b'{"schema": "prunekit/run/v1", ',
    b'{"arrays": [{"name": "gate_blob", "shape": [4, 4]}]}',
], ids=["truncated-json", "shape-past-payload"])
def test_inspect_malformed_record_exits_nonzero(tmp_path, capsys, meta):
    bad = tmp_path / "bad.pkrun"
    bad.write_bytes(checksummed_container(D.RUN_MAGIC, meta))
    assert CLI.main(["inspect", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# entry point

def test_module_entry_point_reports_version():
    proc = subprocess.run([sys.executable, "-m", "prunekit", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
