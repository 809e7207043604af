"""Do pruned structures depend on the weights they were pruned from?

For each seed this study learns gates twice, once on the random
initialization and once on a trained checkpoint, prunes both to the
same FLOPS budget, trains both structures from scratch, and then
correlates the per-layer keep ratios across all runs.

Scaled down to finish in about half a minute; the full five-seed
version is `prunekit study --seeds 0,1,2,3,4`.

    python3 demos/05_similarity_study.py
"""

import tempfile

from prunekit import analysis as AN
from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G
from prunekit import train as TR

bundle = AN.run_pretrain_effect_study(
    arch=A.preset("vgg-small"),
    data=D.synth_suite(D.SynthSpec(), seed=0),
    importance=G.ImportanceConfig(),
    schedule=TR.TrainSchedule(base_epochs=14),
    checkpoint_epochs=(10,),
    seeds=(0, 1, 2),
    budget_ratio=0.5,
    tolerance=0.02,
    max_iters=20)

print("\nfrom-scratch test accuracy by gate source:")
print("source  mean acc  std     flops kept")
for level, acc, std, ratio in AN.study_summary(bundle):
    print(f"{level:>6}  {acc:8.3f}  {std:.4f}  {ratio:10.3f}")

print("\nstructure correlation matrix (per-layer keep ratios):")
labels = bundle.cross.labels
print("        " + "  ".join(f"{l:>7}" for l in labels))
for label, row in zip(labels, bundle.cross.values):
    print(f"{label:>7} " + "  ".join(f"{v:7.3f}" for v in row))

rand = AN.mean_pairwise_correlation(bundle.cross, bundle.labels_for(0))
ckpt = AN.mean_pairwise_correlation(bundle.cross, bundle.labels_for(10))
print(f"\nmean correlation, random-init structures: {rand:.3f}")
print(f"mean correlation, checkpoint structures:  {ckpt:.3f}")
print("checkpoint-derived structures look more alike than random-init"
      if ckpt > rand else
      "random-init structures look more alike on this run")

with tempfile.TemporaryDirectory() as out:
    for path in AN.emit_report(bundle, out):
        print("wrote", path.name)
