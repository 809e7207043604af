"""The benchmark's workloads: one round of each, run, timed and checked.

A round is one operation of the workload with program seeds derived
from the run seed and the round index. Only the program's own work is
timed; set-up of the round's inputs and the output checks are not.
Each round returns its wall and CPU seconds, the train-mode images it
processed (gate learning plus training), the accuracies it produced and
how many of its structure searches met their FLOPS tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


class Failed(Exception):
    """The program reported failure for one operation."""


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    samples: int
    accuracies: list[float]
    searches: int
    converged: int


@contextlib.contextmanager
def _timed(clock: dict):
    """Record wall and CPU seconds of the block, with program output
    captured so that the benchmark's result stays the last line."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield sink
        finally:
            clock["wall_s"] = time.perf_counter() - t0
            clock["cpu_s"] = time.process_time() - c0


def _train_size(cfg: dict) -> int:
    return cfg["synth"]["classes"] * cfg["synth"]["per_class"]


class Workload:
    min_rounds = 1

    def __init__(self, config_path: Path):
        self.config_path = Path(config_path)
        self.cfg = json.loads(self.config_path.read_text())

    def open(self, patches) -> None:
        """Prepare state shared by every round of a run."""

    def run_round(self, seed: int, k: int, out: Path) -> Round:
        raise NotImplementedError


def _cli(argv: list[str], clock: dict, completed=lambda: False) -> None:
    """Run the CLI in-process; a non-zero exit is a failed operation
    unless ``completed()`` says the run finished all the same."""
    from prunekit import cli
    with _timed(clock) as sink:
        rc = cli.main(argv)
    if rc != 0 and not completed():
        raise Failed(f"prunekit {' '.join(argv)} exited {rc}:\n"
                     + sink.getvalue())


def _unconverged(record_path: Path) -> bool:
    """`prune` also exits 1 when every stage completed but the search
    stopped outside its tolerance; the record then says so. Which seeds
    do that cannot be known ahead, so such a round is timed and counted
    in ``Round.converged``, not as a failed operation."""
    if not record_path.is_file():
        return False
    record, _ = checks.read_container(record_path, checks.RUN_MAGIC)
    if record["status"] != "completed" or record["search"]["converged"]:
        return False
    print(f"bench: {record_path.name}: search stopped outside its "
          "tolerance, prunekit exited 1", file=sys.stderr)
    return True


class PruneVgg(Workload):
    """`prunekit prune` on one seed per round; a run covers two or more."""
    min_rounds = 2

    def run_round(self, seed, k, out):
        s = seed * 1000 + k
        clock: dict = {}
        _cli(["prune", "--config", str(self.config_path), f"--seeds={s}",
              "--out", str(out)], clock,
             completed=lambda: _unconverged(out / f"run_s{s}.pkrun"))
        facts = checks.check_prune(out, s, self.cfg)
        samples = _train_size(self.cfg) * (
            self.cfg["importance"]["epochs"] + facts["train_epochs"])
        return Round(clock["wall_s"], clock["cpu_s"], samples,
                     [facts["accuracy"]], 1, int(facts["converged"]))


class StudyTwoSeed(Workload):
    """`prunekit study` on two seeds per round."""

    def open(self, patches):
        from prunekit import train
        self.trained: list[dict] = []
        inner = train.train_from_scratch

        def capture(arch, config, data, schedule, seed, **kwargs):
            report = inner(arch, config, data, schedule, seed, **kwargs)
            self.trained.append({"kept_counts": list(config.kept_counts),
                                 "test_accuracy": report.test_accuracy,
                                 "epochs": len(report.train_loss)})
            return report
        patches.rebind(inner, capture)

    def run_round(self, seed, k, out):
        seeds = [seed * 1000 + 2 * k, seed * 1000 + 2 * k + 1]
        self.trained.clear()
        clock: dict = {}
        _cli(["study", "--config", str(self.config_path),
              "--seeds=" + ",".join(map(str, seeds)), "--out", str(out)],
             clock)
        facts = checks.check_study(out, seeds, self.cfg, self.trained)
        ckpt = max(e for e in self.cfg["checkpoint_epochs"] if e > 0)
        epochs = (len(seeds) * ckpt
                  + len(facts) * self.cfg["importance"]["epochs"]
                  + sum(f["epochs"] for f in facts))
        return Round(clock["wall_s"], clock["cpu_s"],
                     _train_size(self.cfg) * epochs,
                     [f["accuracy"] for f in facts], len(facts),
                     sum(f["converged"] for f in facts))


def weight_sha256(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


class StructureDw(Workload):
    """Gate learning on random weights, then searches at three budgets,
    on one seed per round; no training."""

    def open(self, patches):
        from prunekit import arch as A
        from prunekit import data as D
        cfg, syn = self.cfg, self.cfg["synth"]
        self.data = D.synth_suite(D.SynthSpec(**syn), cfg["data_seed"])
        shape = (syn["channels"], syn["image_size"], syn["image_size"])
        self.arch = A.expand_channels(
            A.preset(cfg["arch"], input_shape=shape,
                     num_classes=syn["classes"]), cfg["expand"])

    def learn(self, s: int) -> tuple[dict, dict]:
        """Learn gates on a fresh random init of program seed ``s`` and
        search every budget; return what ``check_structure`` reads and
        the clock of the timed part."""
        from prunekit import arch as A
        from prunekit import data as D
        from prunekit import gates as G
        from prunekit import search as S
        cfg = self.cfg
        imp = G.ImportanceConfig(**cfg["importance"])
        full = A.count_flops(self.arch)
        model = A.Model(self.arch, None, D.derive_seed(s, "pipeline-init"))
        before = weight_sha256(model)
        clock: dict = {}
        with _timed(clock):
            snaps = G.learn_channel_importance(
                model, self.data["train"], self.data["val"], imp, s)
            best = G.select_best_gates(snaps, imp.target_sparsity)
            results = [S.search_structure(best, self.arch, S.SearchConfig(
                budget=int(round(b * full)), rel_tolerance=cfg["tolerance"],
                max_iters=cfg["max_iters"])) for b in cfg["budgets"]]
        result = {
            "hash_before": before, "hash_after": weight_sha256(model),
            "gates": [np.concatenate(snap.gates.lam) for snap in snaps],
            "sparsity": [snap.sparsity for snap in snaps],
            "val_accuracy": [snap.val_accuracy for snap in snaps],
            "selected": next(i for i, snap in enumerate(snaps)
                             if snap.gates is best),
            "searches": [{"budget": b,
                          "kept_indices": r.config.kept_indices,
                          "achieved_flops": r.achieved_flops,
                          "converged": r.converged}
                         for b, r in zip(cfg["budgets"], results)],
        }
        return result, clock

    def run_round(self, seed, k, out):
        result, clock = self.learn(seed * 1000 + k)
        accuracy = checks.check_structure(result, self.cfg)
        searches = result["searches"]
        return Round(clock["wall_s"], clock["cpu_s"], _train_size(self.cfg)
                     * self.cfg["importance"]["epochs"], [accuracy],
                     len(searches), sum(s["converged"] for s in searches))


WORKLOADS = {
    "prune-vgg": PruneVgg,
    "structure-dw": StructureDw,
    "study-2seed": StudyTwoSeed,
}
