"""Output checks that recompute what a workload's outputs must be.

Nothing here calls prunekit. The containers are parsed from their
documented layout, MACs are recounted by walking the preset geometry
written out below, and correlations are recomputed with the textbook
Pearson formula. Each check raises ``CheckFailed`` with a message naming
the output and the disagreement.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np

RUN_MAGIC = b"PKRUN001"
WEIGHTS_MAGIC = b"PKWTS001"

# Geometry of the presets the workloads use, restated from their
# definition: 8 base widths of 3x3/pad-1 convs with 2x2/2 average pools
# after conv 2, 4 and 6 (vgg-small); a 3x3 stem and four depthwise 3x3 +
# pointwise 1x1 blocks given as (width, stride) (depthwise-tiny).
VGG_SMALL_WIDTHS = (8, 8, 16, 16, 32, 32, 64, 64)
VGG_SMALL_POOL_AFTER = (2, 4, 6)
DEPTHWISE_TINY_STEM = 8
DEPTHWISE_TINY_BLOCKS = ((16, 1), (32, 2), (32, 1), (64, 2))


class CheckFailed(Exception):
    """A workload output disagrees with its independently computed value."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# container layout: magic | u64 LE meta length | JSON | f32 LE blobs | CRC32

def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    require(blob[:len(magic)] == magic, f"{path}: magic is not {magic!r}")
    crc = int.from_bytes(blob[-4:], "little")
    require(zlib.crc32(blob[:-4]) & 0xFFFFFFFF == crc,
            f"{path}: CRC32 mismatch")
    off = len(magic)
    mlen = int.from_bytes(blob[off:off + 8], "little")
    off += 8
    meta = json.loads(blob[off:off + mlen])
    off += mlen
    arrays = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        require(off + 4 * count <= len(blob) - 4,
                f"{path}: array {entry['name']} runs past the payload")
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype="<f4", count=count, offset=off).reshape(shape)
        off += 4 * count
    require(off == len(blob) - 4, f"{path}: {len(blob) - 4 - off} stray bytes")
    return meta, arrays


# ---------------------------------------------------------------------------
# MAC recount

def expand(width: int, multiplier: float) -> int:
    """Channel expansion: round half up, at least one channel."""
    return max(1, math.floor(width * multiplier + 0.5))


def _out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def vgg_small_macs(conv_shapes, fc_shape, image_size: int) -> int:
    """MACs of vgg-small from its eight [cout, cin, kh, kw] conv shapes
    and the [classes, features] classifier shape."""
    size, total = image_size, 0
    for i, (cout, cin, kh, kw) in enumerate(conv_shapes, start=1):
        size = _out(size, kh, 1, 1)
        total += cout * cin * kh * kw * size * size
        if i in VGG_SMALL_POOL_AFTER:
            size //= 2
    return total + fc_shape[0] * fc_shape[1]


def vgg_small_macs_from_widths(widths, channels: int, classes: int,
                               image_size: int) -> int:
    ins = (channels,) + tuple(widths[:-1])
    shapes = [(o, i, 3, 3) for o, i in zip(widths, ins)]
    return vgg_small_macs(shapes, (classes, widths[-1]), image_size)


def depthwise_tiny_macs(stem: int, widths, channels: int, classes: int,
                        image_size: int) -> int:
    """MACs of depthwise-tiny with the given stem and block widths."""
    size = _out(image_size, 3, 1, 1)
    total = stem * channels * 9 * size * size
    cin = stem
    for cout, (_, stride) in zip(widths, DEPTHWISE_TINY_BLOCKS):
        size = _out(size, 3, stride, 1)
        total += cin * 9 * size * size + cout * cin * size * size
        cin = cout
    return total + classes * cin


def within_tolerance(macs: int, budget: int, tolerance: float) -> bool:
    return abs(macs - budget) / budget <= tolerance


# ---------------------------------------------------------------------------
# prune-vgg: one seed of `prunekit prune`

def _curve_epochs(path: Path) -> int:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require([int(r["epoch"]) for r in rows] == list(range(1, len(rows) + 1)),
            f"{path}: epochs are not numbered 1..{len(rows)}")
    return len(rows)


def check_prune(out_dir, seed: int, cfg: dict) -> dict:
    """Check one seed's record, weights and curve; return its facts."""
    out = Path(out_dir)
    syn = cfg["synth"]
    record, rec_arrays = read_container(out / f"run_s{seed}.pkrun", RUN_MAGIC)
    require(record["status"] == "completed",
            f"seed {seed}: status {record['status']!r}")
    _, weights = read_container(out / f"run_s{seed}.weights", WEIGHTS_MAGIC)

    convs = [weights[f"conv{i}.w"].shape for i in range(1, 9)]
    fc = weights["fc.w"].shape
    cin = syn["channels"]
    for i, shape in enumerate(convs, start=1):
        require(shape[1] == cin, f"seed {seed}: conv{i}.w takes {shape[1]} "
                f"input channels, the layer before gives {cin}")
        require(weights[f"bn{i}.gamma"].shape == (shape[0],),
                f"seed {seed}: bn{i} width differs from conv{i}")
        cin = shape[0]
    require(fc == (syn["classes"], cin),
            f"seed {seed}: fc.w shape {fc}, expected {(syn['classes'], cin)}")
    pruned = vgg_small_macs(convs, fc, syn["image_size"])

    full = vgg_small_macs_from_widths(
        [expand(w, cfg["expand"]) for w in VGG_SMALL_WIDTHS],
        syn["channels"], syn["classes"], syn["image_size"])
    budget = int(round(cfg["budget"] * full))
    search = record["search"]
    require(search["kept_counts"] == [s[0] for s in convs],
            f"seed {seed}: searched widths {search['kept_counts']} differ "
            f"from the saved weights {[s[0] for s in convs]}")
    require(search["achieved_flops"] == pruned,
            f"seed {seed}: record claims {search['achieved_flops']} MACs, "
            f"weights recount to {pruned}")
    if search["converged"]:
        require(within_tolerance(pruned, budget, cfg["tolerance"]),
                f"seed {seed}: {pruned} MACs is outside {cfg['tolerance']} "
                f"of the budget {budget}")

    epochs = _curve_epochs(out / f"run_s{seed}_train.csv")
    want = round(cfg["schedule"]["base_epochs"] * full / pruned)
    require(epochs == want, f"seed {seed}: trained {epochs} epochs, budget "
            f"scaling of the recount gives {want}")

    gates = rec_arrays["gate_blob"]
    require(bool(((gates >= 0) & (gates <= 1)).all()),
            f"seed {seed}: a stored gate lies outside [0, 1]")
    accuracy = record["train_reports"][0]["test_accuracy"]
    require(accuracy > 1 / syn["classes"],
            f"seed {seed}: test accuracy {accuracy} is not above chance")
    return {"accuracy": accuracy, "train_epochs": epochs,
            "gate_epochs": len(record["snapshots"]),
            "converged": search["converged"]}


# ---------------------------------------------------------------------------
# structure-dw: gate learning and three searches on one random init

def check_structure(result: dict, cfg: dict) -> float:
    """Check one seed's gate learning and searches; return the selected
    snapshot's validation accuracy.

    ``result`` holds ``hash_before``/``hash_after`` (SHA-256 of the
    weights), per-snapshot ``gates`` (flat arrays), ``sparsity`` and
    ``val_accuracy``, the ``selected`` snapshot index, and ``searches``:
    dicts of ``budget``, ``kept_indices``, ``achieved_flops`` and
    ``converged``.
    """
    syn, imp = cfg["synth"], cfg["importance"]
    require(result["hash_before"] == result["hash_after"],
            "weights changed during gate learning")
    for s, gates in enumerate(result["gates"]):
        require(bool(((gates >= 0) & (gates <= 1)).all()),
                f"snapshot {s}: a gate lies outside [0, 1]")
        mean = float(np.mean(gates, dtype=np.float64))
        require(abs(mean - result["sparsity"][s]) <= 1e-6,
                f"snapshot {s}: sparsity {result['sparsity'][s]} is not the "
                f"mean gate {mean}")

    r = imp["target_sparsity"]
    acc = result["val_accuracy"]
    qualified = [s for s, v in enumerate(result["sparsity"]) if v <= r]
    sel = result["selected"]
    if qualified:
        require(sel in qualified and acc[sel] == max(acc[s] for s in qualified),
                f"snapshot {sel} selected, but it is not the most accurate "
                f"of those with mean gate <= {r}")

    stem = expand(DEPTHWISE_TINY_STEM, cfg["expand"])
    full_widths = [expand(w, cfg["expand"]) for w, _ in DEPTHWISE_TINY_BLOCKS]

    def macs(widths):
        return depthwise_tiny_macs(stem, widths, syn["channels"],
                                   syn["classes"], syn["image_size"])

    full = macs(full_widths)
    searches = sorted(result["searches"], key=lambda s: s["budget"])
    for s in searches:
        for j, ix in enumerate(s["kept_indices"]):
            require(all(0 <= c < full_widths[j] for c in ix),
                    f"budget {s['budget']}: layer {j} keeps a channel "
                    f"outside its width {full_widths[j]}")
        got = macs([len(ix) for ix in s["kept_indices"]])
        require(got == s["achieved_flops"],
                f"budget {s['budget']}: search claims {s['achieved_flops']} "
                f"MACs, the kept channels recount to {got}")
        if s["converged"]:
            budget = int(round(s["budget"] * full))
            require(within_tolerance(got, budget, cfg["tolerance"]),
                    f"budget {s['budget']}: {got} MACs is outside "
                    f"{cfg['tolerance']} of {budget}")
    for small, large in zip(searches, searches[1:]):
        for j, (a, b) in enumerate(zip(small["kept_indices"],
                                       large["kept_indices"])):
            require(set(a) <= set(b),
                    f"layer {j}: channels kept at budget {small['budget']} "
                    f"are not all kept at budget {large['budget']}")
    return acc[sel]


# ---------------------------------------------------------------------------
# study-2seed: `prunekit study` reports

def pearson(x, y) -> float:
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def _rows(path: Path) -> list[dict]:
    require(path.is_file(), f"missing report {path.name}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def study_labels(seeds, cfg: dict) -> list[str]:
    epochs = sorted({e for e in cfg["checkpoint_epochs"] if e > 0})
    return [f"s{s}:rand" if e == 0 else f"s{s}:e{e}"
            for s in seeds for e in [0] + epochs]


def check_study(out_dir, seeds, cfg: dict, trained: list[dict]) -> list[dict]:
    """Check the study's CSV reports against ``trained``, the from-scratch
    runs in the order the study makes them (dicts of ``kept_counts``,
    ``test_accuracy`` and ``epochs``). Returns one dict per structure
    with its label, test accuracy, epochs, FLOPS ratio and whether the
    recount lies within ``tolerance`` of the budget; the study writes
    no search outcome of its own."""
    out = Path(out_dir)
    syn = cfg["synth"]
    labels = study_labels(seeds, cfg)

    kept: dict[str, list[int]] = {}
    original: dict[str, list[int]] = {}
    for row in _rows(out / "channels.csv"):
        kept.setdefault(row["label"], []).append(int(row["kept"]))
        original.setdefault(row["label"], []).append(int(row["original"]))
    require(list(kept) == labels,
            f"channels.csv labels {list(kept)}, expected {labels}")
    for label in labels:
        require(original[label] == list(VGG_SMALL_WIDTHS),
                f"channels.csv: {label} widths {original[label]}, the study "
                f"prunes vgg-small of widths {list(VGG_SMALL_WIDTHS)}")
        require(all(0 < k <= w for k, w in zip(kept[label],
                                                VGG_SMALL_WIDTHS)),
                f"channels.csv: {label} keeps {kept[label]}")
    features = {l: [k / w for k, w in zip(kept[l], VGG_SMALL_WIDTHS)]
                for l in labels}

    def check_matrix(name, want):
        rows = _rows(out / name)
        require([r["label"] for r in rows] == want,
                f"{name}: rows {[r['label'] for r in rows]}, expected {want}")
        for r in rows:
            for other in want:
                value = float(r[other])
                ref = pearson(features[r["label"]], features[other])
                require(abs(value - ref) <= 1e-9,
                        f"{name}: corr({r['label']}, {other}) = {value}, "
                        f"Pearson on channels.csv gives {ref}")

    check_matrix("similarity_cross.csv", labels)
    for s in seeds:
        check_matrix(f"similarity_seed{s}.csv",
                     [l for l in labels if l.startswith(f"s{s}:")])

    require(len(trained) == len(labels),
            f"{len(trained)} from-scratch runs for {len(labels)} structures")
    full = vgg_small_macs_from_widths(VGG_SMALL_WIDTHS, syn["channels"],
                                      syn["classes"], syn["image_size"])
    budget = int(round(cfg["budget"] * full))
    facts = []
    for label, run in zip(labels, trained):
        require(list(run["kept_counts"]) == kept[label],
                f"{label}: trained widths {run['kept_counts']} differ from "
                f"channels.csv {kept[label]}")
        pruned = vgg_small_macs_from_widths(kept[label], syn["channels"],
                                            syn["classes"], syn["image_size"])
        want = round(cfg["schedule"]["base_epochs"] * full / pruned)
        require(run["epochs"] == want, f"{label}: trained {run['epochs']} "
                f"epochs, budget scaling of the recount gives {want}")
        require(run["test_accuracy"] > 1 / syn["classes"],
                f"{label}: test accuracy {run['test_accuracy']} is not "
                "above chance")
        facts.append({"label": label, "accuracy": run["test_accuracy"],
                      "epochs": run["epochs"], "ratio": pruned / full,
                      "converged": within_tolerance(pruned, budget,
                                                    cfg["tolerance"])})

    summary = {r["label"]: r for r in _rows(out / "summary.csv")}
    levels = sorted({l.split(":")[1] for l in labels},
                    key=lambda v: -1 if v == "rand" else int(v[1:]))
    require(list(summary) == levels,
            f"summary.csv levels {list(summary)}, expected {levels}")
    for level in levels:
        group = [f for f in facts if f["label"].endswith(":" + level)]
        mean = sum(f["accuracy"] for f in group) / len(group)
        ratio = sum(f["ratio"] for f in group) / len(group)
        got = float(summary[level]["mean_acc"])
        require(abs(got - mean) <= 1e-12, f"summary.csv: {level} mean "
                f"accuracy {got}, its structures average {mean}")
        got = float(summary[level]["flops_ratio"])
        require(abs(got - ratio) <= 1e-12, f"summary.csv: {level} FLOPS "
                f"ratio {got}, the recount averages {ratio}")
    return facts
