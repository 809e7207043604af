"""Command-line pipeline: prune, study, inspect, train-baseline.

``prune`` runs the full chain per seed: expand the preset, draw random
weights, learn channel gates on the frozen net, bisect to the FLOPS
budget, budget-train the found structure from scratch, and persist a
sealed run record. ``study`` compares structures pruned from random
weights against structures pruned from trained checkpoints. ``inspect``
prints a saved record. ``train-baseline`` trains a full-width model and
saves checkpoints.

Settings merge in three layers: built-in defaults, then a JSON config
file (--config), then command-line flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from . import analysis as AN
from . import arch as A
from . import data as D
from . import gates as G
from . import search as S
from . import train as TR
from .errors import ConfigError, PipelineError, PruneKitError


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs, resolvable from file and flags."""
    arch: str = "vgg-small"
    expand: float = 1.25
    budget: float = 0.5
    dataset: str = "synth"
    seeds: tuple[int, ...] = (0,)
    out: str = "runs"
    lottery_init: bool = False
    tolerance: float = 0.02
    max_iters: int = 20
    checkpoint_epochs: tuple[int, ...] = (10, 20)
    data_seed: int = 0
    cifar_val_per_class: int = 500
    # noise 4.0 keeps baseline accuracy off the ceiling so checkpoint
    # gradients stay informative; saturated tasks invert the study's trend
    synth: D.SynthSpec = field(default_factory=lambda: D.SynthSpec(
        classes=3, per_class=100, image_size=8, channels=3, noise=4.0))
    importance: G.ImportanceConfig = field(
        default_factory=lambda: G.ImportanceConfig(
            gamma=1.0, target_sparsity=0.5, epochs=10, lr=0.02,
            batch_size=32))
    schedule: TR.TrainSchedule = field(
        default_factory=lambda: TR.TrainSchedule(
            base_epochs=20, lr0=0.05, batch_size=32))

    def __post_init__(self):
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError("budget ratio must lie in (0, 1]")
        if self.arch not in A.PRESETS:
            raise ConfigError(f"unknown preset {self.arch!r}; choose from "
                              f"{sorted(A.PRESETS)}")
        if self.expand <= 0:
            raise ConfigError("expansion multiplier must be positive")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.dataset != "synth" and not self.dataset.startswith(
                "cifar10:"):
            raise ConfigError(
                f"dataset must be 'synth' or 'cifar10:<path>', "
                f"got {self.dataset!r}")


def config_to_dict(cfg: PipelineConfig) -> dict:
    # via JSON so tuples flatten to lists, matching a reloaded record
    return json.loads(json.dumps(asdict(cfg)))


def config_from_dict(d: dict) -> PipelineConfig:
    d = dict(d)
    sched = dict(d.pop("schedule"))
    sched["milestones"] = tuple(sched.get("milestones", (0.5, 0.75)))
    return PipelineConfig(
        arch=d["arch"], expand=float(d["expand"]), budget=float(d["budget"]),
        dataset=d["dataset"], seeds=tuple(int(s) for s in d["seeds"]),
        out=d["out"], lottery_init=bool(d["lottery_init"]),
        tolerance=float(d["tolerance"]), max_iters=int(d["max_iters"]),
        checkpoint_epochs=tuple(int(e) for e in d["checkpoint_epochs"]),
        data_seed=int(d["data_seed"]),
        cifar_val_per_class=int(d["cifar_val_per_class"]),
        synth=D.SynthSpec(**d["synth"]),
        importance=G.ImportanceConfig(**d["importance"]),
        schedule=TR.TrainSchedule(**sched))


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, dict) and isinstance(out[key], dict):
            out[key] = _merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


def resolve_config(config_file: str | None = None,
                   flag_overrides: dict | None = None) -> PipelineConfig:
    """Defaults, overlaid by the JSON config file, overlaid by flags."""
    merged = config_to_dict(PipelineConfig())
    if config_file:
        with open(config_file) as fh:
            merged = _merge(merged, json.load(fh))
    if flag_overrides:
        merged = _merge(merged, flag_overrides)
    return config_from_dict(merged)


def resolve_dataset(cfg: PipelineConfig) -> dict[str, D.Dataset]:
    if cfg.dataset == "synth":
        return D.synth_suite(cfg.synth, cfg.data_seed)
    root = cfg.dataset.split(":", 1)[1]
    train, test = D.load_cifar10(root)
    train, val = D.make_validation_split(train, cfg.cifar_val_per_class,
                                         cfg.data_seed)
    return {"train": train, "val": val, "test": test}


def _pipeline_arch(cfg: PipelineConfig,
                   data: dict[str, D.Dataset]) -> A.ArchSpec:
    shape = tuple(int(v) for v in data["train"].images.shape[1:])
    return A.preset(cfg.arch, input_shape=shape,
                    num_classes=data["train"].class_count)


# ---------------------------------------------------------------------------
# prune

def _prune_one(cfg: PipelineConfig, data: dict[str, D.Dataset],
               seed: int) -> D.RunRecord:
    record = D.RunRecord(config=config_to_dict(cfg), seed=seed,
                         tool_version=__version__)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    record_path = out / f"run_s{seed}.pkrun"
    stage = "expand"
    try:
        arch = A.expand_channels(_pipeline_arch(cfg, data), cfg.expand)
        full = A.count_flops(arch)

        stage = "init"
        model = A.Model(arch, None, D.derive_seed(seed, "pipeline-init"))

        stage = "gates"
        snaps = G.learn_channel_importance(model, data["train"], data["val"],
                                           cfg.importance, seed)
        record.snapshots, record.gate_blob = G.snapshot_dump(snaps)

        stage = "select"
        best = G.select_best_gates(snaps, cfg.importance.target_sparsity)

        stage = "search"
        if cfg.budget == 1.0:
            result = S.SearchResult(tau_star=0.0, config=A.full_config(arch),
                                    achieved_flops=full, iterations=0,
                                    converged=True, history=())
        else:
            result = S.search_structure(
                best, arch,
                S.SearchConfig(budget=int(round(cfg.budget * full)),
                               rel_tolerance=cfg.tolerance,
                               max_iters=cfg.max_iters))
        record.search = S.result_to_dict(result)

        stage = "train"
        pruned_flops = A.count_flops(arch, result.config)
        sched = replace(cfg.schedule,
                        effective_epochs=TR.budget_epochs(
                            cfg.schedule.base_epochs, full, pruned_flops))
        if cfg.lottery_init:
            pruned = TR.lottery_model(model, result.config)
        else:
            pruned = A.Model(arch, result.config,
                             D.derive_seed(seed, "scratch-init"))
        report = TR.fit(pruned, data, sched, seed)
        record.train_reports.append(TR.report_to_dict(report))

        stage = "save"
        weights_path = out / f"run_s{seed}.weights"
        D.save_weights(pruned.state_arrays(), weights_path,
                       {"seed": seed, "arch": cfg.arch,
                        "status": "budget-trained"})
        curve_path = out / f"run_s{seed}_train.csv"
        curve_path.write_text(TR.report_csv(report))
        record.artifacts = [str(weights_path), str(curve_path)]
        record.status = "completed"
        record.seal()
        D.save_run(record, record_path)
        print(f"seed {seed}: flops ratio {pruned_flops / full:.3f} "
              f"(converged={result.converged}), "
              f"test accuracy {report.test_accuracy:.3f}")
        return record
    except Exception as exc:
        record.status = f"failed:{stage}"
        record.artifacts = []
        record.seal()
        D.save_run(record, record_path)
        if isinstance(exc, PruneKitError):
            raise PipelineError(stage, str(exc)) from exc
        raise


def cmd_prune(cfg: PipelineConfig) -> list[D.RunRecord]:
    """Full pipeline per seed; records land in ``cfg.out``."""
    data = resolve_dataset(cfg)
    return [_prune_one(cfg, data, seed) for seed in cfg.seeds]


# ---------------------------------------------------------------------------
# study

def cmd_study(cfg: PipelineConfig, progress=None) -> list[Path]:
    """Pretraining-effect study; emits CSV reports into ``cfg.out``."""
    data = resolve_dataset(cfg)
    bundle = AN.run_pretrain_effect_study(
        _pipeline_arch(cfg, data), data, cfg.importance, cfg.schedule,
        cfg.checkpoint_epochs, cfg.seeds, cfg.budget, progress=progress)
    files = AN.emit_report(bundle, cfg.out)
    for level, acc, std, ratio in AN.study_summary(bundle):
        print(f"{level}: accuracy {acc:.3f} +/- {std:.3f} "
              f"at flops ratio {ratio:.3f}")
    if len(cfg.seeds) >= 2:
        rand = AN.mean_pairwise_correlation(bundle.cross,
                                            bundle.labels_for(0))
        print(f"cross-seed correlation, random-init structures: {rand:.3f}")
        for e in bundle.checkpoint_epochs:
            corr = AN.mean_pairwise_correlation(bundle.cross,
                                                bundle.labels_for(e))
            print(f"cross-seed correlation, epoch-{e} structures: "
                  f"{corr:.3f}")
    return files


# ---------------------------------------------------------------------------
# inspect

def cmd_inspect(record_path, out_dir=None) -> int:
    """Print a stored run; write its training curves as CSV files."""
    record = D.load_run(record_path)
    print(f"run seed={record.seed} status={record.status} "
          f"tool={record.tool_version}")
    if record.status != "completed":
        print(f"failed stage: {record.status.split(':', 1)[1]}")
        return 1
    cfg = config_from_dict(record.config)
    arch = A.expand_channels(A.preset(cfg.arch), cfg.expand)
    gated = A.place_gates(arch).gated_layer_ids
    widths = A.gated_channel_counts(arch)
    print("kept channels per gated layer:")
    for lid, orig, kept in zip(gated, widths,
                               record.search["kept_counts"]):
        print(f"  {lid}: {kept}/{orig}")
    print("gate learning trajectory:")
    for snap in record.snapshots:
        print(f"  epoch {snap['epoch']}: sparsity {snap['sparsity']:.4f}, "
              f"val accuracy {snap['val_accuracy']:.4f}, "
              f"train loss {snap['train_loss']:.4f}")
    out = Path(out_dir) if out_dir else Path(record_path).parent
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(record_path).stem
    for i, rep in enumerate(record.train_reports):
        curve = out / f"{stem}_curve{i}.csv"
        curve.write_text(TR.report_csv(TR.report_from_dict(rep)))
        print(f"wrote {curve}")
    return 0


# ---------------------------------------------------------------------------
# train-baseline

def cmd_train_baseline(cfg: PipelineConfig) -> list[D.RunRecord]:
    """Train full-width models, saving study-ready checkpoints."""
    data = resolve_dataset(cfg)
    arch = _pipeline_arch(cfg, data)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    wanted = {e for e in cfg.checkpoint_epochs if e > 0}
    records = []
    for seed in cfg.seeds:
        artifacts = []

        def sink(epoch, model, seed=seed, artifacts=artifacts):
            if epoch in wanted:
                path = out / f"baseline_s{seed}_e{epoch}.weights"
                D.save_weights(model.state_arrays(), path,
                               {"seed": seed, "epoch": epoch,
                                "arch": cfg.arch})
                artifacts.append(str(path))

        model = A.Model(arch, None, D.derive_seed(seed, "study-baseline"))
        report = TR.fit(model, data, cfg.schedule, seed,
                        checkpoint_sink=sink)
        final = out / f"baseline_s{seed}_final.weights"
        D.save_weights(model.state_arrays(), final,
                       {"seed": seed, "epoch": cfg.schedule.epochs,
                        "arch": cfg.arch})
        artifacts.append(str(final))
        record = D.RunRecord(config=config_to_dict(cfg), seed=seed,
                             tool_version=__version__,
                             train_reports=[TR.report_to_dict(report)],
                             artifacts=artifacts)
        record.seal()
        D.save_run(record, out / f"baseline_s{seed}.pkrun")
        records.append(record)
        print(f"seed {seed}: baseline val accuracy "
              f"{report.val_accuracy[-1] if report.val_accuracy else 0.0:.3f}, "
              f"test accuracy {report.test_accuracy:.3f}")
    return records


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--arch", choices=sorted(A.PRESETS))
    sub.add_argument("--expand", type=float,
                     help="channel expansion multiplier")
    sub.add_argument("--budget", type=float, help="FLOPS budget ratio")
    sub.add_argument("--gamma", type=float,
                     help="sparsity penalty strength")
    sub.add_argument("--sparsity-r", type=float, dest="sparsity_r",
                     help="target gate sparsity")
    sub.add_argument("--epochs", type=int,
                     help="base training epochs (pre-budget-scaling)")
    sub.add_argument("--seed", "--seeds", type=_int_list, dest="seeds",
                     help="comma-separated seed list")
    sub.add_argument("--dataset", help="synth or cifar10:<path>")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--lottery-init", action="store_const", const=True,
                     default=None, dest="lottery_init",
                     help="reuse the sliced full-model init for training")
    sub.add_argument("--tolerance", type=float,
                     help="relative FLOPS tolerance for the search")
    sub.add_argument("--max-iters", type=int, dest="max_iters",
                     help="bisection iteration cap")
    sub.add_argument("--checkpoint-epochs", type=_int_list,
                     dest="checkpoint_epochs",
                     help="comma-separated checkpoint epochs")


def _flag_overrides(args: argparse.Namespace) -> dict:
    over = {key: getattr(args, key) for key in
            ("arch", "expand", "budget", "dataset", "seeds", "out",
             "lottery_init", "tolerance", "max_iters", "checkpoint_epochs")}
    over["importance"] = {"gamma": args.gamma,
                          "target_sparsity": args.sparsity_r}
    over["schedule"] = {"base_epochs": args.epochs}
    return over


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunekit",
        description="Channel pruning from randomly initialized weights")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("prune", "learn gates, search a structure, budget-train it"),
            ("study", "compare random-init and checkpoint structures"),
            ("train-baseline", "train a full model, saving checkpoints")):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
    inspect = subs.add_parser("inspect", help="print a saved run record")
    inspect.add_argument("record", help="path to a .pkrun file")
    inspect.add_argument("--out", help="directory for curve CSVs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.record, args.out)
        cfg = resolve_config(args.config, _flag_overrides(args))
        if args.command == "prune":
            records = cmd_prune(cfg)
            ok = all(r.status == "completed"
                     and r.search["converged"] for r in records)
            return 0 if ok else 1
        if args.command == "study":
            cmd_study(cfg, progress=lambda msg: print(msg, file=sys.stderr))
            return 0
        cmd_train_baseline(cfg)
        return 0
    except (PruneKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
