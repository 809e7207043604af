"""Repeat benchmark runs over seeds and summarize each metric.

    python3 bench/collect.py --workloads prune-vgg,study-2seed \
        --seeds 1-10 [--trace 1]

Runs ``run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of BENCHMARK.json, and prints per metric the median, the
first and third quartile (``statistics.quantiles(n=4)``) and the spread
(Q3 - Q1) / median, next to the bound of end-to-end metrics, and how
many structure searches stopped outside their tolerance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import UNCONVERGED  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    note = next(line for line in lines if line.endswith(UNCONVERGED))
    result["unconverged"] = [int(w) for w in note.split()[1:4:2]]
    return result


def summarize(results: dict, bounds: dict) -> str:
    lines = []
    for workload, runs in results.items():
        fails = {(r["failed"], r["attempted"]) for r in runs}
        missed, searches = (sum(r["unconverged"][i] for r in runs)
                            for i in (0, 1))
        lines.append(f"## {workload}: {len(runs)} runs, "
                     f"(failed, attempted) {sorted(fails)}, "
                     f"{missed} of {searches} {UNCONVERGED}")
        lines.append("| metric | unit | median | Q1 | Q3 | spread | bound |")
        lines.append("|---|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, "")
            lines.append(f"| {name} | {first['unit']} | {med:.4g} | "
                         f"{q1:.4g} | {q3:.4g} | {spread:.3f} | {bound} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    results = {w: [] for w in names}
    for w in names:
        for seed in seed_range(args.seeds):
            results[w].append(run_once(w, seed, spec["run_seconds"],
                                       args.trace))
            print(f"{w} seed {seed}: done", file=sys.stderr, flush=True)
    print(summarize(results, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
