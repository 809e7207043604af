"""Bisect a gate threshold until the kept channels meet a FLOPS budget.

Channels survive when their gate exceeds the threshold, so raising it
monotonically cheapens the structure; that is all binary search needs.

    python3 demos/03_search_structure.py
"""

import numpy as np

from prunekit import arch as A
from prunekit import search as S

arch = A.preset("resnet-tiny")
full = A.count_flops(arch)
print(f"{arch.name}: {full:,} multiply-accumulates at full width")

# gate values as importance learning might leave them
rng = np.random.default_rng(42)
gates = [rng.random(c) for c in arch.gated_widths]

cfg = S.SearchConfig(budget=full // 2, max_iters=20, rel_tolerance=0.02)
res = S.search_structure(gates, arch, cfg)

print(f"target budget: {cfg.budget:,} (50%)\n")
print("iter        lo        hi       tau        flops  rel gap")
for step in res.history:
    print(f"{step.iteration:4d}  {step.lo:8.5f}  {step.hi:8.5f}"
          f"  {step.tau:8.5f}  {step.flops:11,}  {step.rel_gap:7.4f}")

print(f"\nconverged: {res.converged} after {res.iterations} iterations")
print(f"threshold: {res.tau_star:.5f}")
print(f"achieved:  {res.achieved_flops:,} "
      f"({res.achieved_flops / full:.1%} of full)")

widths = arch.gated_widths
print("\nlayer   kept / original")
for lid, k, c in zip(arch.gated_ids, res.config.kept_counts, widths):
    bar = "#" * k + "." * (c - k)
    print(f"{lid:>6}  {k:4d} / {c:<4d}  {bar}")

# the same threshold applied by hand reproduces the structure
assert A.prune_by_threshold(gates, res.tau_star) == res.config
print("\nre-applying the threshold reproduces the structure exactly")
