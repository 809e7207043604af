"""Learn per-channel gate values while every weight stays frozen.

The model is randomly initialized and never trained; only the gates
move, pulled down by a sparsity penalty and pulled up wherever a
channel earns its keep against the classification loss.

    python3 demos/02_learn_channel_gates.py
"""

import numpy as np

from prunekit import arch as A
from prunekit import data as D
from prunekit import gates as G

# a small synthetic image classification task
suite = D.synth_suite(D.SynthSpec(classes=3, per_class=60, image_size=8,
                                  channels=3, noise=1.0), seed=0)
arch = A.preset("vgg-small")
model = A.Model(arch, None, seed=7)

print("architecture:", arch.name)
print("gated layers:", list(arch.gated_ids))
print("channels per gated layer:", arch.gated_widths)

before = model.weight_hash()
# stronger than the defaults, which stop short of r and take the fallback
cfg = G.ImportanceConfig(gamma=2.0, target_sparsity=0.5, epochs=14,
                         lr=0.05)
snaps = G.learn_channel_importance(model, suite["train"], suite["val"],
                                   cfg, seed=1)

print("\nepoch  mean gate  val accuracy")
for s in snaps:
    print(f"{s.epoch:5d}  {s.sparsity:9.3f}  {s.val_accuracy:12.3f}")

print("\nweights untouched:", model.weight_hash() == before)

best = G.select_best_gates(snaps, cfg.target_sparsity)
print("selected snapshot mean gate:", round(best.sparsity, 3))
lo, hi = np.concatenate(best.lam).min(), np.concatenate(best.lam).max()
print(f"gate range after projection: [{lo:.3f}, {hi:.3f}]")

# the spread is the point: channels have separated into keepers and cuts
first = best.lam[0]
print("first layer gates:", np.round(np.sort(first), 2))
