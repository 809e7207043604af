"""Benchmark of prunekit, end to end and per module.

    python3 bench/run.py --workload prune-vgg --seed 1 --seconds 45 --trace 0

Runs rounds of one workload (see workloads.py) for about ``--seconds``
seconds, checks every round's outputs, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, after a line that
counts the structure searches that stopped outside their FLOPS
tolerance (seed-dependent, so not failures). With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
the per-module ones from tracing.py, measured in a traced run of their
own. The program is imported from ``src/`` next to this directory; if
it is not there the run exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = BENCH / "configs"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
UNCONVERGED = "searches stopped outside their tolerance"


def load_program(root: Path = ROOT) -> None:
    src = root / "src"
    if not (src / "prunekit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {src / 'prunekit'}")
    sys.path.insert(0, str(src))
    import prunekit
    if Path(prunekit.__file__).resolve().parent != src / "prunekit":
        raise SystemExit(f"bench: imported prunekit from {prunekit.__file__},"
                         f" not from {src}")


def setup_seconds(workload: str, config: Path) -> float:
    """Median wall time of fresh interpreters that import prunekit and
    build the workload's dataset, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                        workload, str(config)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(rounds, setup_s: float) -> dict:
    accuracies = [a for r in rounds for a in r.accuracies]
    return {
        "run_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "samples_per_s": (statistics.median(r.samples / r.wall_s
                                            for r in rounds), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "accuracy": (sum(accuracies) / len(accuracies), "share"),
    }


def per_module(traced: list[dict]) -> dict:
    return {name: (statistics.median(t[name][0] for t in traced), unit)
            for name, (_, unit) in traced[0].items()}


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, configs: Path = CONFIGS, out_root: Path = OUT) -> int:
    load_program()
    from checks import CheckFailed
    from tracing import Patches, Tracer
    from workloads import WORKLOADS, Failed

    args = parse_args(argv)
    config = configs / f"{args.workload}.json"
    workload = WORKLOADS[args.workload](config)
    out = out_root / args.workload
    shutil.rmtree(out, ignore_errors=True)
    setup_s = 0.0 if args.trace else setup_seconds(args.workload, config)

    patches = Patches()
    tracer = Tracer() if args.trace else None
    rounds, traced = [], []
    attempted = failed = 0
    correct = True
    try:
        if tracer:
            tracer.install(patches)
        workload.open(patches)
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            attempted += 1
            k = attempted - 1
            try:
                r = workload.run_round(args.seed, k, out / f"r{k}")
            except CheckFailed as exc:
                print(f"bench: round {k}: check failed: {exc}",
                      file=sys.stderr)
                correct = False
                break
            except Failed as exc:
                print(f"bench: round {k}: {exc}", file=sys.stderr)
                failed += 1
            else:
                rounds.append(r)
                if tracer:
                    traced.append(tracer.metrics(r.wall_s))
            shutil.rmtree(out / f"r{k}", ignore_errors=True)
            elapsed = time.perf_counter() - start
            typical = (statistics.median(r.wall_s for r in rounds)
                       if rounds else elapsed / attempted)
            if attempted >= workload.min_rounds \
                    and elapsed + typical > args.seconds:
                break
    except Exception:
        traceback.print_exc()
        correct = False
    finally:
        patches.restore()
        shutil.rmtree(out, ignore_errors=True)

    if not rounds:
        print("bench: no round completed", file=sys.stderr)
        metrics = {}
        correct = False
    else:
        searches = sum(r.searches for r in rounds)
        print(f"bench: {searches - sum(r.converged for r in rounds)} of "
              f"{searches} {UNCONVERGED}")
        metrics = (per_module(traced) if tracer
                   else end_to_end(rounds, setup_s))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
