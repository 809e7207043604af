"""Architecture descriptions, gate placement, FLOPS model, and model building.

An architecture is a DAG of typed layers. Channel bookkeeping runs on
"channel groups": a convolution or linear layer opens a new group, shape
preserving layers (batch norm, relu, pooling, depthwise conv) stay in
their input's group, and an add-join merges its operands' groups by
relabelling every layer of the second to the first. A gate attaches to
the group of one batch-norm layer, so pruning a gated group consistently
narrows every producer and consumer of that group.

Building an ``ArchSpec`` walks its layers once, in order: that walk
resolves every layer's channel group and output map size and each
activation's last reader, and collects the batch norms flagged
``gated``. A malformed spec (bad order or geometry, a join of mismatched
widths or map sizes, no gated layer, two gates on one group) is rejected
right there, before any work. The spec keeps the walk's answers as
``gated_ids``, ``gated_widths`` and ``output_layer``; the width and
FLOPS functions below read what the walk stored, and ``Model.forward``
drops each activation once its last reader has run.

``layer_arrays`` names the arrays each layer kind owns; model init, the
parameter and FLOPS counts and lottery slicing all read it. FLOPS here
means multiply-accumulate count: each weight's size times its output map.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import blas
from . import tensor as T
from .errors import (ArchError, ConfigError, GeometryError, LabelError,
                     ShapeError)

LAYER_KINDS = ("conv", "depthwise-conv", "batchnorm", "relu", "pool",
               "global-pool", "linear", "add-join")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the DAG. ``inputs`` name earlier layers; an empty
    tuple means the network input. ``channels`` is the output width for
    conv/linear and 0 (inherited) everywhere else. A ``gated`` batch norm
    carries a gate on its channel group."""
    id: str
    kind: str
    inputs: tuple[str, ...] = ()
    channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    gated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.kind not in LAYER_KINDS:
            raise ArchError(f"layer {self.id!r}: unknown kind {self.kind!r}")
        if self.kind in ("conv", "linear") and self.channels < 1:
            raise ArchError(f"layer {self.id!r}: channels must be >= 1")
        if self.kind in ("conv", "depthwise-conv", "pool") and self.kernel < 1:
            raise ArchError(f"layer {self.id!r}: kernel must be >= 1")
        if self.kind == "pool" and (self.stride, self.padding) != (
                self.kernel, 0):
            raise ArchError(f"layer {self.id!r}: a pool tiles its map, so its "
                            "stride must equal its kernel and padding be 0")
        if self.kind == "add-join" and len(self.inputs) != 2:
            raise ArchError(f"layer {self.id!r}: add-join takes 2 inputs")
        if self.gated and self.kind != "batchnorm":
            raise ArchError(f"layer {self.id!r}: only a batch norm carries "
                            f"a gate, not a {self.kind}")


@dataclass(frozen=True)
class ArchSpec:
    """Immutable network description, checked when built. The walk's
    answers are attributes, not fields, so equality, hashing, ``repr``
    and ``replace`` see only the description: ``gated_ids`` (the gated
    batch norms, in layer order), ``gated_widths`` (the full width of
    each) and ``output_layer`` (the one terminal layer). An add-join
    merges two channel groups by relabelling the second to the first."""
    name: str
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        width: dict[int, int] = {}  # per group, keyed by its opening layer
        group: dict[str, int] = {}
        size: dict[str, tuple[int, int]] = {}
        reader: dict[str, int] = {}  # index of each activation's last reader
        for i, l in enumerate(self.layers):
            if l.id in group:
                raise ArchError(f"{self.name}: duplicate layer id {l.id!r}")
            for ref in l.inputs:
                if ref not in group:
                    raise ArchError(
                        f"{self.name}: layer {l.id!r} references {ref!r} "
                        "before definition (layers must be topologically "
                        "ordered)")
                reader[ref] = i
            h, w = size[l.inputs[0]] if l.inputs else self.input_shape[1:]
            if l.kind in ("conv", "linear"):
                g = i
                width[g] = l.channels
            elif l.kind == "add-join":
                a, b = (group[ref] for ref in l.inputs)
                if width[a] != width[b]:
                    raise ArchError(
                        f"{self.name}: add-join {l.id!r} operands have "
                        f"widths {width[a]} and {width[b]}")
                if (h, w) != size[l.inputs[1]]:
                    raise GeometryError(
                        f"{self.name}: add-join {l.id!r} operands "
                        f"{(h, w)} vs {size[l.inputs[1]]}")
                if a != b:
                    group = {k: a if v == b else v for k, v in group.items()}
                    del width[b]
                g = a
            elif not l.inputs:
                raise ArchError(
                    f"{self.name}: layer {l.id!r} of kind {l.kind} cannot "
                    "consume the raw network input")
            else:
                g = group[l.inputs[0]]
            if l.kind in ("conv", "depthwise-conv", "pool"):
                ho = (h + 2 * l.padding - l.kernel) // l.stride + 1
                wo = (w + 2 * l.padding - l.kernel) // l.stride + 1
                if ho < 1 or wo < 1:
                    raise GeometryError(
                        f"{self.name}: layer {l.id!r} output "
                        f"{ho}x{wo} for input {h}x{w}")
                h, w = ho, wo
            elif l.kind in ("global-pool", "linear"):
                h, w = 1, 1
            group[l.id] = g
            size[l.id] = (h, w)
        consumed = {ref for l in self.layers for ref in l.inputs}
        terminals = [lid for lid in group if lid not in consumed]
        if len(terminals) != 1:
            raise ArchError(
                f"{self.name}: expected a single output layer, "
                f"found {terminals}")
        gated = tuple(l.id for l in self.layers if l.gated)
        if not gated:
            raise ArchError(f"{self.name}: no gated layers")
        if len({group[lid] for lid in gated}) != len(gated):
            raise ArchError(f"{self.name}: two gates share a channel group")
        last_read = tuple(tuple(ref for ref in dict.fromkeys(l.inputs)
                                if reader[ref] == i)
                          for i, l in enumerate(self.layers))
        # a conv whose one reader is a batch norm folds it in eval mode
        kinds = {l.id: l.kind for l in self.layers}
        reads = [ref for l in self.layers for ref in l.inputs]
        folds = {l.inputs[0]: l.id for l in self.layers
                 if l.kind == "batchnorm"
                 and kinds[l.inputs[0]] in ("conv", "depthwise-conv")
                 and reads.count(l.inputs[0]) == 1}
        for name, value in (
                ("_groups", group), ("_widths", width), ("_sizes", size),
                ("_last_read", last_read), ("_folds", folds),
                ("gated_ids", gated),
                ("gated_widths", tuple(width[group[lid]] for lid in gated)),
                ("output_layer", terminals[0])):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ChannelConfig:
    """Surviving channel indices per gated layer, in gate order."""
    kept_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "kept_indices",
                           tuple(tuple(ix) for ix in self.kept_indices))
        for j, ix in enumerate(self.kept_indices):
            if not ix:
                raise ConfigError(f"gated layer {j}: must keep a channel")
            if list(ix) != sorted(set(ix)):
                raise ConfigError(
                    f"gated layer {j}: indices must be sorted and unique")
            if ix[0] < 0:
                raise ConfigError(f"gated layer {j}: negative channel index")

    @property
    def kept_counts(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.kept_indices)


# ---------------------------------------------------------------------------
# gates and widths

def full_config(arch: ArchSpec) -> ChannelConfig:
    """The keep-everything ChannelConfig."""
    return ChannelConfig(tuple(tuple(range(c)) for c in arch.gated_widths))


@dataclass(frozen=True)
class LayerWidths:
    """Effective in/out widths of one layer after pruning. Index tuples
    are None when the full group survives."""
    cin: int
    cout: int
    in_idx: tuple[int, ...] | None
    out_idx: tuple[int, ...] | None

    def shape(self, axes: tuple) -> tuple[int, ...]:
        """Sizes of ``axes`` from ``layer_arrays`` at these widths."""
        return tuple(self.cout if a == "out" else self.cin if a == "in"
                     else a for a in axes)


def layer_arrays(l: LayerSpec) -> dict[str, tuple]:
    """Arrays a layer owns, keyed by name suffix (``conv1.w`` is the ``w``
    of ``conv1``), each mapped to its axes: ``"out"`` runs along the
    layer's output channels, ``"in"`` along its input channels, and an int
    is a fixed size. A ``w`` is the layer's weight; ``running_*`` arrays
    are batch-norm statistics, not parameters. Relu, pooling and add-join
    own no arrays."""
    k = l.kernel
    if l.kind == "conv":
        return {"w": ("out", "in", k, k)}
    if l.kind == "depthwise-conv":
        return {"w": ("out", 1, k, k)}
    if l.kind == "linear":
        return {"w": ("out", "in"), "b": ("out",)}
    if l.kind == "batchnorm":
        return dict.fromkeys(("gamma", "beta", "running_mean", "running_var"),
                             ("out",))
    return {}


def resolve_widths(arch: ArchSpec, config: ChannelConfig | None = None
                   ) -> dict[str, LayerWidths]:
    """Per-layer effective channel widths under ``config`` (None = full)."""
    groups, width = arch._groups, arch._widths
    kept: dict[int, tuple[int, ...]] = {}
    if config is not None:
        if len(config.kept_indices) != len(arch.gated_ids):
            raise ConfigError(
                f"config has {len(config.kept_indices)} entries for "
                f"{len(arch.gated_ids)} gated layers")
        for lid, idx in zip(arch.gated_ids, config.kept_indices):
            g = groups[lid]
            if idx[-1] >= width[g]:
                raise ConfigError(
                    f"gated layer {lid!r}: config exceeds width {width[g]}")
            kept[g] = idx

    def eff(g: int) -> tuple[int, tuple[int, ...] | None]:
        if g in kept:
            return len(kept[g]), kept[g]
        return width[g], None

    in_ch, _, _ = arch.input_shape
    out: dict[str, LayerWidths] = {}
    for l in arch.layers:
        if l.inputs:
            gi = groups[l.inputs[0]]
            cin, iin = eff(gi)
        else:
            cin, iin = in_ch, None
        cout, iout = eff(groups[l.id])
        out[l.id] = LayerWidths(cin, cout, iin, iout)
    return out


# ---------------------------------------------------------------------------
# channel expansion and threshold pruning

def expand_channels(arch: ArchSpec, multiplier: float) -> ArchSpec:
    """Scale every conv/linear width by ``multiplier`` (round half up,
    floor 1). The classifier output layer keeps its width."""
    if not multiplier > 0:
        raise ConfigError(f"multiplier must be positive, got {multiplier}")
    new_layers = []
    for l in arch.layers:
        if l.kind in ("conv", "linear") and l.id != arch.output_layer:
            c = max(1, int(np.floor(l.channels * multiplier + 0.5)))
            new_layers.append(replace(l, channels=c))
        else:
            new_layers.append(l)
    return replace(arch, layers=tuple(new_layers))


def prune_by_threshold(gates, tau: float) -> ChannelConfig:
    """Keep channel c of gated layer j iff gate value > ``tau``.

    ``gates`` is a sequence of per-layer vectors, or a GateState holding
    one. A layer whose every gate falls at or below the threshold keeps
    its single strongest channel so the structure stays instantiable.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {tau}")
    indices: list[tuple[int, ...]] = []
    for j, v in enumerate(getattr(gates, "lam", gates)):
        v = np.asarray(v)
        if v.size == 0:
            raise ConfigError(f"gated layer {j} has no gates")
        idx = np.flatnonzero(v > tau)
        if idx.size == 0:
            idx = np.array([int(np.argmax(v))])
        indices.append(tuple(int(i) for i in idx))
    return ChannelConfig(tuple(indices))


# ---------------------------------------------------------------------------
# FLOPS and parameter counts

def count_flops(arch: ArchSpec, config: ChannelConfig | None = None) -> int:
    """Multiply-accumulate count under ``config``: each weight's size
    times its layer's output map."""
    widths = resolve_widths(arch, config)
    total = 0
    for l in arch.layers:
        axes = layer_arrays(l).get("w")
        if axes:
            total += (math.prod(widths[l.id].shape(axes))
                      * math.prod(arch._sizes[l.id]))
    return int(total)


def count_params(arch: ArchSpec) -> int:
    """Learnable parameter count of the full-width ``Model`` of ``arch``,
    an exact Python int at any width."""
    widths = resolve_widths(arch)
    return sum(math.prod(widths[l.id].shape(axes))
               for l in arch.layers
               for part, axes in layer_arrays(l).items()
               if not part.startswith("running_"))


# ---------------------------------------------------------------------------
# executable models

class Model:
    """Executable network instantiated from an ArchSpec and a ChannelConfig.

    Arrays follow ``layer_arrays``. Each weight ``w`` is drawn from
    ``seed``, He-normal with its trailing axes as fan-in; ``gamma`` and
    ``running_var`` start as ones and the rest as zeros. Batch-norm running
    statistics live in ``stats``, keyed like ``bn1.running_mean``, apart
    from the learnable ``params``. Gate vectors are not part of the model;
    pass them to ``forward`` keyed by the ids in ``arch.gated_ids``.
    """

    def __init__(self, arch: ArchSpec, config: ChannelConfig | None,
                 seed: int):
        self.arch = arch
        self.config = config
        self.widths = resolve_widths(arch, config)
        self.params: dict[str, np.ndarray] = {}
        self.stats: dict[str, np.ndarray] = {}
        dt = T.default_dtype()
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for l in arch.layers:
            for part, axes in layer_arrays(l).items():
                shape = self.widths[l.id].shape(axes)
                if part == "w":
                    a = rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])),
                                   shape).astype(dt)
                elif part in ("gamma", "running_var"):
                    a = np.ones(shape, dt)
                else:
                    a = np.zeros(shape, dt)
                store = (self.stats if part.startswith("running_")
                         else self.params)
                store[f"{l.id}.{part}"] = a

    def forward(self, x, train: bool = False,
                gates: dict[str, np.ndarray] | None = None,
                tape: T.Tape | None = None) -> np.ndarray:
        """Run the network; returns logits [N, num_classes].

        ``gates`` maps gated batch-norm layer ids to per-channel vectors
        applied right after that layer's affine transform. Each layer's
        output is dropped once its last reader has run, so a pass without
        a tape holds only the activations it still reads. An eval pass
        without a tape folds each batch norm that reads a conv, with its
        gate, into that conv's weight and bias (``T.fold_batchnorm``), so
        it runs no ``batchnorm`` or ``gate_modulate`` op there.
        """
        x = np.asarray(x, dtype=T.default_dtype())
        acts: dict[str, np.ndarray] = {}
        folds = self.arch._folds if not train and tape is None else {}
        gates = gates or {}

        def inp(l: LayerSpec) -> np.ndarray:
            return acts[l.inputs[0]] if l.inputs else x

        def bn(lid: str) -> tuple[np.ndarray, ...]:
            return (self.params[f"{lid}.gamma"], self.params[f"{lid}.beta"],
                    self.stats[f"{lid}.running_mean"],
                    self.stats[f"{lid}.running_var"])

        out = x
        for l, last_read in zip(self.arch.layers, self.arch._last_read):
            if l.kind in ("conv", "depthwise-conv"):
                w, bias = self.params[f"{l.id}.w"], None
                groups = w.shape[0] if l.kind == "depthwise-conv" else 1
                if l.id in folds:
                    w, bias = T.fold_batchnorm(w, *bn(folds[l.id]),
                                               gates=gates.get(folds[l.id]))
                out = T.conv2d(inp(l), w, stride=l.stride, padding=l.padding,
                               groups=groups, bias=bias, tape=tape)
            elif l.kind == "batchnorm" and l.inputs[0] in folds:
                out = inp(l)  # folded into the conv before it
            elif l.kind == "batchnorm":
                out = T.batchnorm(inp(l), *bn(l.id), train=train, tape=tape)
                if l.id in gates:
                    out = T.gate_modulate(out, gates[l.id], tape=tape)
            elif l.kind == "relu":
                out = T.relu(inp(l), tape=tape)
            elif l.kind == "pool":
                out = T.avg_pool2d(inp(l), kernel=l.kernel, tape=tape)
            elif l.kind == "global-pool":
                out = T.global_avg_pool(inp(l), tape=tape)
            elif l.kind == "linear":
                out = T.linear(inp(l), self.params[f"{l.id}.w"],
                               self.params[f"{l.id}.b"], tape=tape)
            elif l.kind == "add-join":
                out = T.add(acts[l.inputs[0]], acts[l.inputs[1]], tape=tape)
            acts[l.id] = out
            for ref in last_read:
                del acts[ref]
        return acts[self.arch.output_layer]

    # -- parameter access ---------------------------------------------------

    def trainable(self) -> list[tuple[str, np.ndarray]]:
        """All learnable parameters sorted by name, so ``bn1.beta`` comes
        before ``conv1.w`` (running stats excluded)."""
        return sorted(self.params.items())

    def weight_hash(self) -> str:
        """SHA-256 over every learnable parameter, order-stable."""
        h = hashlib.sha256()
        for name, p in self.trainable():
            h.update(name.encode())
            h.update(np.ascontiguousarray(p).tobytes())
        return h.hexdigest()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copy of every parameter and running statistic, keyed by name."""
        return {name: a.copy()
                for name, a in (self.params | self.stats).items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by ``state_arrays`` in place, so every
        array keeps its identity. A missing name or a shape that differs
        from the model's raises ``ConfigError``."""
        for name, a in (self.params | self.stats).items():
            if name not in state:
                raise ConfigError(f"state lacks array {name!r}")
            if state[name].shape != a.shape:
                raise ConfigError(
                    f"array {name!r}: stored shape {state[name].shape} does "
                    f"not match model shape {a.shape}")
            a[...] = state[name]


@blas.loop_policy()
def evaluate_accuracy(model: Model, images: np.ndarray, labels: np.ndarray,
                      batch_size: int = 256,
                      gates: dict[str, np.ndarray] | None = None) -> float:
    """Top-1 accuracy in eval mode, batched to bound memory: a pass
    holds one batch's live activations, those a later layer still reads,
    plus the im2col patches of the op that runs. Each pass folds batch
    norm and gates into the convs (see ``Model.forward``). A
    ``batch_size`` below 1, labels that are not one per image, and labels
    outside [0, num_classes) are rejected before any pass."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    labels = np.asarray(labels)
    if labels.shape != (len(images),):
        raise ShapeError(f"labels must have shape ({len(images)},), got "
                         f"{labels.shape}")
    k = model.arch.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    hits = 0
    for i in range(0, len(images), batch_size):
        logits = model.forward(images[i:i + batch_size], train=False,
                               gates=gates)
        hits += int((logits.argmax(axis=1) == labels[i:i + batch_size]).sum())
    return hits / max(1, len(images))


# ---------------------------------------------------------------------------
# presets

def _chain(prev: str | None, *specs) -> tuple[list[LayerSpec], str]:
    layers = []
    for s in specs:
        s = replace(s, inputs=(prev,) if prev else ())
        layers.append(s)
        prev = s.id
    return layers, prev


def vgg_small(input_shape=(3, 8, 8), num_classes=3) -> ArchSpec:
    """Eight 3x3 conv stages in four width tiers, pooling between tiers."""
    widths = (8, 8, 16, 16, 32, 32, 64, 64)
    layers: list[LayerSpec] = []
    prev: str | None = None
    for i, c in enumerate(widths, start=1):
        ls, prev = _chain(
            prev,
            LayerSpec(f"conv{i}", "conv", channels=c, kernel=3, padding=1),
            LayerSpec(f"bn{i}", "batchnorm", gated=True),
            LayerSpec(f"relu{i}", "relu"))
        layers.extend(ls)
        if i in (2, 4, 6):
            p = LayerSpec(f"pool{i // 2}", "pool", inputs=(prev,),
                          kernel=2, stride=2)
            layers.append(p)
            prev = p.id
    layers.append(LayerSpec("gap", "global-pool", inputs=(prev,)))
    layers.append(LayerSpec("fc", "linear", inputs=("gap",),
                            channels=num_classes))
    return ArchSpec("vgg-small", tuple(layers), input_shape, num_classes)


def resnet_tiny(input_shape=(3, 8, 8), num_classes=3) -> ArchSpec:
    """Three stages of two basic residual blocks on an ungated stem. Each
    block gates only its middle batch norm, off the residual stream."""
    layers: list[LayerSpec] = [
        LayerSpec("stem.conv", "conv", channels=8, kernel=3, padding=1),
        LayerSpec("stem.bn", "batchnorm", inputs=("stem.conv",)),
        LayerSpec("stem.relu", "relu", inputs=("stem.bn",)),
    ]
    prev = "stem.relu"
    stage_widths = (8, 16, 32)
    for s, c in enumerate(stage_widths, start=1):
        for b in range(1, 3):
            p = f"s{s}b{b}"
            stride = 2 if (s > 1 and b == 1) else 1
            layers += [
                LayerSpec(f"{p}.conv1", "conv", inputs=(prev,), channels=c,
                          kernel=3, stride=stride, padding=1),
                LayerSpec(f"{p}.bn1", "batchnorm", inputs=(f"{p}.conv1",),
                          gated=True),
                LayerSpec(f"{p}.relu1", "relu", inputs=(f"{p}.bn1",)),
                LayerSpec(f"{p}.conv2", "conv", inputs=(f"{p}.relu1",),
                          channels=c, kernel=3, padding=1),
                LayerSpec(f"{p}.bn2", "batchnorm", inputs=(f"{p}.conv2",)),
            ]
            if stride != 1:
                # 1x1 projection matches width and resolution on the skip
                layers += [
                    LayerSpec(f"{p}.proj", "conv", inputs=(prev,), channels=c,
                              kernel=1, stride=stride),
                    LayerSpec(f"{p}.projbn", "batchnorm",
                              inputs=(f"{p}.proj",)),
                ]
                skip = f"{p}.projbn"
            else:
                skip = prev
            layers += [
                LayerSpec(f"{p}.add", "add-join", inputs=(f"{p}.bn2", skip)),
                LayerSpec(f"{p}.relu2", "relu", inputs=(f"{p}.add",)),
            ]
            prev = f"{p}.relu2"
    layers.append(LayerSpec("gap", "global-pool", inputs=(prev,)))
    layers.append(LayerSpec("fc", "linear", inputs=("gap",),
                            channels=num_classes))
    return ArchSpec("resnet-tiny", tuple(layers), input_shape, num_classes)


def depthwise_tiny(input_shape=(3, 8, 8), num_classes=3) -> ArchSpec:
    """Stem conv plus four depthwise-separable blocks, each gating the
    batch norm after its pointwise conv."""
    layers: list[LayerSpec] = [
        LayerSpec("stem.conv", "conv", channels=8, kernel=3, padding=1),
        LayerSpec("stem.bn", "batchnorm", inputs=("stem.conv",)),
        LayerSpec("stem.relu", "relu", inputs=("stem.bn",)),
    ]
    prev = "stem.relu"
    for i, (c, stride) in enumerate(((16, 1), (32, 2), (32, 1), (64, 2)),
                                    start=1):
        p = f"dw{i}"
        ids = [f"{p}.dw", f"{p}.bn1", f"{p}.relu1",
               f"{p}.pw", f"{p}.bn2", f"{p}.relu2"]
        layers += [
            LayerSpec(ids[0], "depthwise-conv", inputs=(prev,), kernel=3,
                      stride=stride, padding=1),
            LayerSpec(ids[1], "batchnorm", inputs=(ids[0],)),
            LayerSpec(ids[2], "relu", inputs=(ids[1],)),
            LayerSpec(ids[3], "conv", inputs=(ids[2],), channels=c, kernel=1),
            LayerSpec(ids[4], "batchnorm", inputs=(ids[3],), gated=True),
            LayerSpec(ids[5], "relu", inputs=(ids[4],)),
        ]
        prev = ids[5]
    layers.append(LayerSpec("gap", "global-pool", inputs=(prev,)))
    layers.append(LayerSpec("fc", "linear", inputs=("gap",),
                            channels=num_classes))
    return ArchSpec("depthwise-tiny", tuple(layers), input_shape,
                    num_classes)


PRESETS = {
    "vgg-small": vgg_small,
    "resnet-tiny": resnet_tiny,
    "depthwise-tiny": depthwise_tiny,
}


def preset(name: str, input_shape=(3, 8, 8), num_classes=3) -> ArchSpec:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](input_shape, num_classes)

