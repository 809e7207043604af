"""Command-line pipeline: prune, study, inspect, train-baseline.

``prune`` expands the preset and draws random weights per seed, runs
the pruning unit ``train.prune_and_train`` on them (learn channel gates
on the frozen net, bisect to the FLOPS budget, budget-train the found
structure from scratch), and saves a run record. ``study`` runs the same
unit from random weights and from trained checkpoints, and compares the
structures. ``inspect`` prints a saved record. ``train-baseline`` trains
a full-width model and saves checkpoints. Their work runs as named
``train.Stages``, each timed on standard error; a failure ends in one
``error: stage '<stage>' failed: <label>: ...`` line.

Settings merge in three layers: the config dataclasses' defaults, then
a JSON config file (--config), then command-line flags, each stored
under its config key; a subcommand takes only the flags it reads. One
reader checks every level of a config: every key known and present,
and every value of its field's JSON type (a null only for an optional
field). An unset flag changes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from . import __version__
from . import analysis as AN
from . import arch as A
from . import data as D
from . import gates as G
from . import search as S
from . import train as TR
from .errors import ConfigError, GeometryError, PruneKitError


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
    tolerance: float = S.SearchConfig.rel_tolerance
    max_iters: int = S.SearchConfig.max_iters
    checkpoint_epochs: tuple[int, ...] = (10, 20)
    data_seed: int = 0
    cifar_val_per_class: int = 500
    synth: D.SynthSpec = field(default_factory=D.SynthSpec)
    importance: G.ImportanceConfig = field(default_factory=G.ImportanceConfig)
    schedule: TR.TrainSchedule = field(default_factory=TR.TrainSchedule)

    def __post_init__(self):
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError("budget ratio must lie in (0, 1]")
        if self.arch not in A.PRESETS:
            raise ConfigError(f"unknown preset {self.arch!r}; choose from "
                              f"{sorted(A.PRESETS)}")
        # numpy's largest array dimension is sys.maxsize, its intp's
        widest = max(l.channels for l in A.preset(self.arch).layers)
        if not (self.expand > 0 and widest * self.expand < sys.maxsize):
            raise ConfigError("expansion multiplier must be positive and "
                              "keep every width within numpy's largest "
                              f"array dimension, got {self.expand}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct: {list(self.seeds)}")
        if any(e < 0 for e in self.checkpoint_epochs):
            raise ConfigError(f"checkpoint epochs must be >= 0, got "
                              f"{list(self.checkpoint_epochs)}")
        if self.cifar_val_per_class < 1:
            raise ConfigError(
                f"cifar_val_per_class must be >= 1, got "
                f"{self.cifar_val_per_class}: gate snapshot selection and "
                "the per-epoch val accuracy read the validation split")
        if self.schedule.effective_epochs is not None:
            raise ConfigError("schedule.effective_epochs must be null: "
                              "budget scaling sets it")
        # the search's own checks, before any work
        S.SearchConfig(budget=1, max_iters=self.max_iters,
                       rel_tolerance=self.tolerance)
        if self.dataset != "synth" and not self.dataset.startswith(
                "cifar10:"):
            raise ConfigError(
                f"dataset must be 'synth' or 'cifar10:<path>', "
                f"got {self.dataset!r}")
        if self.dataset == "synth":
            # building the preset checks its geometry, before any data
            size = self.synth.image_size
            try:
                A.preset(self.arch, (self.synth.channels, size, size))
            except GeometryError as exc:
                raise ConfigError(f"synth.image_size {size} is too small: "
                                  f"{exc}") from None


def config_to_dict(cfg: PipelineConfig) -> dict:
    # via JSON so tuples flatten to lists, matching a reloaded record
    return json.loads(json.dumps(asdict(cfg)))


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type a field is annotated with."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(
            _fits(v, typing.get_args(hint)[0]) for v in value)
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _checked(key: str, value, hint):
    """``value`` as the field annotated ``hint`` holds it, after checking
    that it has that JSON type."""
    if not _fits(value, hint):
        want = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ConfigError(f"config key '{key}' must be {want}, "
                          f"got {type(value).__name__} {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _read(d, cls, block: str = ""):
    """A ``cls`` from the dict ``d``, which names every field of ``cls``
    and nothing else, each value checked against its field's annotation;
    a dataclass field is a block, read the same way. ``block`` is where
    ``d`` sits in the config, "" for the top level."""
    where = f"config block {block!r}" if block else "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where} is not an object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ConfigError(f"{where} has unknown key(s) "
                          f"{', '.join(map(repr, unknown))}")
    # a missing key is never filled in from a default
    missing = [name for name in names if name not in d]
    if missing:
        raise ConfigError(f"{where} lacks {', '.join(map(repr, missing))}")
    hints = typing.get_type_hints(cls)
    prefix = f"{block}." if block else ""
    return cls(**{name: _read(d[name], hints[name], prefix + name)
                  if is_dataclass(hints[name])
                  else _checked(prefix + name, d[name], hints[name])
                  for name in names})


def config_from_dict(d: dict) -> PipelineConfig:
    """A ``PipelineConfig`` from a dict holding every key, each value
    checked against its field's annotation; dataclass fields are blocks."""
    return _read(d, PipelineConfig)


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_json_object(path: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"config file {path}: not valid JSON: {exc}") \
            from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path}: must hold a JSON object, "
                          f"got {type(loaded).__name__}")
    return loaded


def resolve_config(config_file: str | None = None,
                   flag_overrides: dict | None = None) -> PipelineConfig:
    """Defaults, overlaid by the JSON config file, overlaid by flags."""
    merged = config_to_dict(PipelineConfig())
    if config_file:
        merged = _merge(merged, _load_json_object(config_file))
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


@contextmanager
def _seed_run(cfg: PipelineConfig, seed: int, path: Path):
    """The seed's record and ``train.Stages``; on any failure the
    artifacts the record names are deleted, and the record is saved at
    ``path`` as ``failed:<stage>``, with none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    record = D.RunRecord(config=config_to_dict(cfg), seed=seed,
                         tool_version=__version__)
    stages = TR.Stages(f"seed {seed}")
    try:
        yield record, stages
    except Exception:
        record.status = f"failed:{stages.current}"
        for artifact in record.artifacts:
            Path(artifact).unlink(missing_ok=True)
        record.artifacts = []
        D.save_run(record, path)
        raise


# ---------------------------------------------------------------------------
# prune

def _prune_one(cfg: PipelineConfig, data: dict[str, D.Dataset],
               seed: int) -> D.RunRecord:
    out = Path(cfg.out)
    record_path = out / f"run_s{seed}.pkrun"
    with _seed_run(cfg, seed, record_path) as (record, stages):
        with stages("init"):
            arch = A.expand_channels(_pipeline_arch(cfg, data), cfg.expand)
            full = A.count_flops(arch)
            search = S.SearchConfig(budget=int(round(cfg.budget * full)),
                                    rel_tolerance=cfg.tolerance,
                                    max_iters=cfg.max_iters)
            model = A.Model(arch, None, D.derive_seed(seed, "pipeline-init"))
        result, report = TR.prune_and_train(
            model, data, cfg.importance, search, cfg.schedule, seed, seed,
            record=record, stages=stages, lottery=cfg.lottery_init)
        with stages("save"):
            weights_path = out / f"run_s{seed}.weights"
            D.save_weights(report.states[len(report.train_loss)],
                           weights_path, {"seed": seed, "arch": cfg.arch,
                                          "status": "budget-trained"})
            record.artifacts.append(str(weights_path))
            curve_path = out / f"run_s{seed}_train.csv"
            D.write_atomic(curve_path, TR.report_csv(report))
            record.artifacts.append(str(curve_path))
            D.save_run(record, record_path)
    print(f"seed {seed}: flops ratio {result.achieved_flops / full:.3f} "
          f"(converged={result.converged}), "
          f"test accuracy {report.test_accuracy:.3f}")
    return record


def cmd_prune(cfg: PipelineConfig) -> list[D.RunRecord]:
    """Full pipeline per seed; records land in ``cfg.out``, and each
    stage's wall time (init, gates, search, train, save) on stderr."""
    data = resolve_dataset(cfg)
    return [_prune_one(cfg, data, seed) for seed in cfg.seeds]


# ---------------------------------------------------------------------------
# study

def cmd_study(cfg: PipelineConfig) -> list[Path]:
    """Pretraining-effect study; emits CSV reports into ``cfg.out``."""
    if cfg.lottery_init:
        raise ConfigError("lottery_init applies to prune only: the study "
                          "trains every structure from fresh weights")
    data = resolve_dataset(cfg)
    bundle = AN.run_pretrain_effect_study(
        _pipeline_arch(cfg, data), data, cfg.importance, cfg.schedule,
        cfg.checkpoint_epochs, cfg.seeds, cfg.budget, cfg.tolerance,
        cfg.max_iters)
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
    if record.search is None:
        print("the record holds no structure search")
    else:
        arch = A.expand_channels(A.preset(cfg.arch), cfg.expand)
        print("kept channels per gated layer:")
        for lid, orig, kept in zip(A.place_gates(arch),
                                   A.gated_channel_counts(arch),
                                   record.search["kept_counts"]):
            print(f"  {lid}: {kept}/{orig}")
    if record.snapshots:
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
        D.write_atomic(curve, TR.report_csv(TR.report_from_dict(rep)))
        print(f"wrote {curve}")
    return 0


# ---------------------------------------------------------------------------
# train-baseline

def cmd_train_baseline(cfg: PipelineConfig) -> list[D.RunRecord]:
    """Train each seed's full-width baseline and save its checkpoints,
    which are the study's baseline states when the study's last checkpoint
    epoch equals the schedule's epochs, as in the default config. Each
    seed's stages, baseline and save, run under ``_seed_run``."""
    last = cfg.schedule.epochs
    wanted = {e for e in cfg.checkpoint_epochs if e > 0}
    late = sorted(e for e in wanted if e > last)
    if late:
        raise ConfigError(
            f"checkpoint epoch(s) {', '.join(map(str, late))} lie beyond "
            f"the schedule's {last} epochs")
    data = resolve_dataset(cfg)
    arch = _pipeline_arch(cfg, data)
    out = Path(cfg.out)
    saves = [(f"e{e}", e) for e in sorted(wanted)] + [("final", last)]
    records = []
    for seed in cfg.seeds:
        record_path = out / f"baseline_s{seed}.pkrun"
        with _seed_run(cfg, seed, record_path) as (record, stages):
            with stages("baseline"):
                report, states = TR.train_baseline(arch, data, cfg.schedule,
                                                   seed, wanted)
                record.train_reports.append(TR.report_to_dict(report))
            with stages("save"):
                for name, epoch in saves:
                    path = out / f"baseline_s{seed}_{name}.weights"
                    D.save_weights(states[epoch], path, {
                        "seed": seed, "epoch": epoch, "arch": cfg.arch})
                    record.artifacts.append(str(path))
                D.save_run(record, record_path)
        records.append(record)
        print(f"seed {seed}: baseline val accuracy "
              f"{report.val_accuracy[-1] if report.val_accuracy else 0.0:.3f}, "
              f"test accuracy {report.test_accuracy:.3f}")
    return records


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The set flags as a nested config dict; an unset flag is None and
    keeps the value of the layer below."""
    over: dict = {}
    for key, value in vars(args).items():
        if value is None or key in ("command", "config"):
            continue
        block, _, name = key.rpartition(".")
        (over.setdefault(block, {}) if block else over)[name] = value
    return over


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunekit",
        description="Channel pruning from randomly initialized weights")
    parser.add_argument("--version", action="version", version=__version__)
    # parent parsers, one per group of flags; a flag's dest is the
    # config key it sets, dotted into its block
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--arch", choices=sorted(A.PRESETS))
    shared.add_argument("--epochs", type=int, dest="schedule.base_epochs",
                        help="base training epochs (pre-budget-scaling)")
    shared.add_argument("--seeds", type=_int_list,
                        help="comma-separated seed list")
    shared.add_argument("--dataset", help="synth or cifar10:<path>")
    shared.add_argument("--out", help="output directory")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--budget", type=float, help="FLOPS budget ratio")
    search.add_argument("--gamma", type=float, dest="importance.gamma",
                        help="sparsity penalty strength")
    search.add_argument("--sparsity-r", type=float,
                        dest="importance.target_sparsity",
                        help="target gate sparsity")
    search.add_argument("--tolerance", type=float,
                        help="relative FLOPS tolerance for the search")
    search.add_argument("--max-iters", type=int,
                        help="bisection iteration cap")
    checkpoints = argparse.ArgumentParser(add_help=False)
    checkpoints.add_argument("--checkpoint-epochs", type=_int_list,
                             help="comma-separated checkpoint epochs")
    prune_only = argparse.ArgumentParser(add_help=False)
    prune_only.add_argument("--expand", type=float,
                            help="channel expansion multiplier")
    prune_only.add_argument("--lottery-init", action="store_const",
                            const=True,
                            help="train from the sliced full-model init")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, parents, text in (
            ("prune", [shared, search, prune_only],
             "learn gates, search a structure, budget-train it"),
            ("study", [shared, search, checkpoints],
             "compare random-init and checkpoint structures"),
            ("train-baseline", [shared, checkpoints],
             "train a full model, saving checkpoints")):
        subs.add_parser(name, parents=parents, help=text)
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
            cmd_study(cfg)
            return 0
        cmd_train_baseline(cfg)
        return 0
    except (PruneKitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
