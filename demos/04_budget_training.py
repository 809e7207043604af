"""Train a pruned structure from scratch on the full model's compute.

A structure at half the FLOPS gets double the epochs, so both models
spend the same total multiply-accumulates on training. The pruned model
can start from fresh random weights or from slices of the full model's
initialization (its "inherited" sub-tensors).

    python3 demos/04_budget_training.py
"""

import numpy as np

from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G
from prunekit import search as S
from prunekit import train as TR

suite = D.synth_suite(D.SynthSpec(classes=3, per_class=60, image_size=8,
                                  channels=3, noise=3.0), seed=0)
arch = A.preset("vgg-small")
full_flops = A.count_flops(arch)

# gates from frozen random weights, then a structure at half the FLOPS
model = A.Model(arch, None, seed=7)
# stronger than the defaults, which stop short of r and take the fallback
cfg = G.ImportanceConfig(gamma=2.0, target_sparsity=0.5, epochs=14,
                         lr=0.05)
snaps = G.learn_channel_importance(model, suite["train"], suite["val"],
                                   cfg, seed=1)
best = G.select_best_gates(snaps, cfg.target_sparsity)
res = S.search_structure(best, arch,
                         S.SearchConfig(budget=full_flops // 2))
pruned_flops = A.count_flops(arch, res.config)
print(f"structure: {pruned_flops:,} of {full_flops:,} MACs "
      f"({pruned_flops / full_flops:.1%})")

# epoch budgeting: same training compute as the full model would get
base = 8
epochs = TR.budget_epochs(base, full_flops, pruned_flops)
print(f"epoch budget: {base} base -> {epochs} at this width\n")

schedule = TR.TrainSchedule(base_epochs=base, effective_epochs=epochs)
report = TR.train_from_scratch(arch, res.config, suite, schedule, seed=3)

print("epoch  lr      train loss  val accuracy")
for e, (lr, tl, va) in enumerate(zip(report.lr, report.train_loss,
                                     report.val_accuracy), start=1):
    print(f"{e:5d}  {lr:.4f}  {tl:10.4f}  {va:12.3f}")
print(f"\ntest accuracy (touched once, after training): "
      f"{report.test_accuracy:.3f}")

# the lottery alternative: keep the full model's initial values for the
# surviving channels instead of drawing fresh ones
fresh = A.Model(arch, res.config, seed=99)
inherited = TR.lottery_model(model, res.config)
w_fresh = fresh.params["conv1.w"]
w_inherit = inherited.params["conv1.w"]
kept = list(res.config.kept_indices[0])
w_full = model.params["conv1.w"][kept]
print("\nlottery slicing on conv1:")
print("  inherited rows equal the full init's kept rows:",
      np.array_equal(w_inherit, w_full))
print("  fresh rows differ from the full init's kept rows:",
      not np.array_equal(w_fresh, w_full))
