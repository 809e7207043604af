"""Architecture descriptions, gate placement, FLOPS model, and model building.

An architecture is a DAG of typed layers. Channel bookkeeping runs on
"channel groups": a convolution or linear layer opens a new group, shape
preserving layers (batch norm, relu, pooling, depthwise conv) stay in
their input's group, and add-joins merge the groups of their operands.
A gate attaches to the group of one batch-norm layer, so pruning a gated
group consistently narrows every producer and consumer of that group.

FLOPS here means multiply-accumulate count, summed over convolution and
linear layers only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import blas
from . import tensor as T
from .errors import ArchError, ConfigError, GeometryError

LAYER_KINDS = ("conv", "depthwise-conv", "batchnorm", "relu", "pool",
               "global-pool", "linear", "add-join")
BLOCK_KINDS = ("plain", "residual", "depthwise")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the DAG. ``inputs`` name earlier layers; an empty
    tuple means the network input. ``channels`` is the output width for
    conv/linear and 0 (inherited) everywhere else."""
    id: str
    kind: str
    inputs: tuple[str, ...] = ()
    channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0

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


@dataclass(frozen=True)
class Block:
    """Grouping metadata driving gate placement."""
    kind: str
    layers: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.kind not in BLOCK_KINDS:
            raise ArchError(f"unrecognized block kind {self.kind!r}")


@dataclass(frozen=True)
class ArchSpec:
    """Immutable network description."""
    name: str
    layers: tuple[LayerSpec, ...]
    blocks: tuple[Block, ...]
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        ids = [l.id for l in self.layers]
        if len(set(ids)) != len(ids):
            raise ArchError(f"{self.name}: duplicate layer ids")
        seen: set[str] = set()
        for l in self.layers:
            for ref in l.inputs:
                if ref not in seen:
                    raise ArchError(
                        f"{self.name}: layer {l.id!r} references {ref!r} "
                        "before definition (layers must be topologically "
                        "ordered)")
            seen.add(l.id)
        consumed = {ref for l in self.layers for ref in l.inputs}
        terminals = [i for i in ids if i not in consumed]
        if len(terminals) != 1:
            raise ArchError(
                f"{self.name}: expected a single output layer, "
                f"found {terminals}")
        known = set(ids)
        for b in self.blocks:
            for lid in b.layers:
                if lid not in known:
                    raise ArchError(
                        f"{self.name}: block references unknown layer {lid!r}")
        # group resolution validates add-join width agreement
        _channel_groups(self)

    @property
    def output_layer(self) -> str:
        consumed = {ref for l in self.layers for ref in l.inputs}
        return next(l.id for l in self.layers if l.id not in consumed)


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
# channel groups

def _channel_groups(arch: ArchSpec) -> tuple[dict[str, int], dict[int, int]]:
    """Map each layer to its output channel group and each group root to
    its full width. Add-joins merge operand groups (widths must agree)."""
    parent: dict[int, int] = {}
    width: dict[int, int] = {}

    def find(g: int) -> int:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    out_group: dict[str, int] = {}
    nxt = 0
    for l in arch.layers:
        if l.kind in ("conv", "linear"):
            g = nxt
            nxt += 1
            parent[g] = g
            width[g] = l.channels
        elif l.kind == "add-join":
            a = find(out_group[l.inputs[0]])
            b = find(out_group[l.inputs[1]])
            if width[a] != width[b]:
                raise ArchError(
                    f"{arch.name}: add-join {l.id!r} operands have widths "
                    f"{width[a]} and {width[b]}")
            if a != b:
                parent[b] = a
                del width[b]
            g = a
        else:
            if not l.inputs:
                raise ArchError(
                    f"{arch.name}: layer {l.id!r} of kind {l.kind} cannot "
                    "consume the raw network input")
            g = find(out_group[l.inputs[0]])
        out_group[l.id] = g
    return {lid: find(g) for lid, g in out_group.items()}, width


def place_gates(arch: ArchSpec) -> tuple[str, ...]:
    """Ids of the batch norms that carry a gate, one per prunable
    channel group.

    Plain blocks gate every batch norm; residual blocks gate only batch
    norms off the join group (the middle of the block); depthwise blocks
    gate their second batch norm. Layers outside any block are never
    gated.
    """
    groups, _ = _channel_groups(arch)
    by_id = {l.id: l for l in arch.layers}
    gated: list[str] = []
    for b in arch.blocks:
        bns = [lid for lid in b.layers if by_id[lid].kind == "batchnorm"]
        if b.kind == "plain":
            gated.extend(bns)
        elif b.kind == "residual":
            joins = [lid for lid in b.layers if by_id[lid].kind == "add-join"]
            if len(joins) != 1:
                raise ArchError(
                    f"{arch.name}: residual block needs exactly one "
                    f"add-join, found {len(joins)}")
            jg = groups[joins[0]]
            gated.extend(lid for lid in bns if groups[lid] != jg)
        elif b.kind == "depthwise":
            if len(bns) != 2:
                raise ArchError(
                    f"{arch.name}: depthwise block needs exactly two batch "
                    f"norms, found {len(bns)}")
            gated.append(bns[1])
    if not gated:
        raise ArchError(f"{arch.name}: no gated layers")
    gate_groups = [groups[lid] for lid in gated]
    if len(set(gate_groups)) != len(gate_groups):
        raise ArchError(f"{arch.name}: two gates share a channel group")
    return tuple(gated)


def gated_channel_counts(arch: ArchSpec) -> tuple[int, ...]:
    """Full channel width of each gated layer, in gate order."""
    groups, width = _channel_groups(arch)
    return tuple(width[groups[lid]] for lid in place_gates(arch))


def full_config(arch: ArchSpec) -> ChannelConfig:
    """The keep-everything ChannelConfig."""
    return ChannelConfig(tuple(tuple(range(c))
                               for c in gated_channel_counts(arch)))


@dataclass(frozen=True)
class LayerWidths:
    """Effective in/out widths of one layer after pruning. Index tuples
    are None when the full group survives."""
    cin: int
    cout: int
    in_idx: tuple[int, ...] | None
    out_idx: tuple[int, ...] | None


def resolve_widths(arch: ArchSpec, config: ChannelConfig | None = None
                   ) -> dict[str, LayerWidths]:
    """Per-layer effective channel widths under ``config`` (None = full)."""
    groups, width = _channel_groups(arch)

    kept: dict[int, tuple[int, ...]] = {}
    if config is not None:
        gated = place_gates(arch)
        if len(config.kept_indices) != len(gated):
            raise ConfigError(
                f"config has {len(config.kept_indices)} entries for "
                f"{len(gated)} gated layers")
        for lid, idx in zip(gated, config.kept_indices):
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
    terminal = arch.output_layer
    new_layers = []
    for l in arch.layers:
        if l.kind in ("conv", "linear") and l.id != terminal:
            c = max(1, int(np.floor(l.channels * multiplier + 0.5)))
            new_layers.append(replace(l, channels=c))
        else:
            new_layers.append(l)
    return replace(arch, layers=tuple(new_layers))


def prune_by_threshold(gates, tau: float) -> ChannelConfig:
    """Keep channel c of gated layer j iff gate value > ``tau``.

    ``gates`` is a GateState or a plain sequence of per-layer vectors.
    A layer whose every gate falls at or below the threshold keeps its
    single strongest channel so the structure stays instantiable.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {tau}")
    indices: list[tuple[int, ...]] = []
    for v in getattr(gates, "lam", gates):
        v = np.asarray(v)
        idx = np.flatnonzero(v > tau)
        if idx.size == 0:
            idx = np.array([int(np.argmax(v))])
        indices.append(tuple(int(i) for i in idx))
    return ChannelConfig(tuple(indices))


# ---------------------------------------------------------------------------
# FLOPS model

def _spatial_plan(arch: ArchSpec) -> dict[str, tuple[int, int]]:
    """Output spatial size of every layer, validated against geometry."""
    _, h0, w0 = arch.input_shape
    size: dict[str, tuple[int, int]] = {}

    def src(l: LayerSpec) -> tuple[int, int]:
        return size[l.inputs[0]] if l.inputs else (h0, w0)

    for l in arch.layers:
        h, w = src(l)
        if l.kind in ("conv", "depthwise-conv", "pool"):
            ho = (h + 2 * l.padding - l.kernel) // l.stride + 1
            wo = (w + 2 * l.padding - l.kernel) // l.stride + 1
            if ho < 1 or wo < 1:
                raise GeometryError(
                    f"{arch.name}: layer {l.id!r} output "
                    f"{ho}x{wo} for input {h}x{w}")
            size[l.id] = (ho, wo)
        elif l.kind == "global-pool":
            size[l.id] = (1, 1)
        elif l.kind == "add-join":
            other = size[l.inputs[1]]
            if (h, w) != other:
                raise GeometryError(
                    f"{arch.name}: add-join {l.id!r} operands "
                    f"{(h, w)} vs {other}")
            size[l.id] = (h, w)
        else:
            size[l.id] = (h, w)
    return size


def count_flops(arch: ArchSpec, config: ChannelConfig | None = None) -> int:
    """Multiply-accumulate count of conv and linear layers under ``config``."""
    widths = resolve_widths(arch, config)
    size = _spatial_plan(arch)
    total = 0
    for l in arch.layers:
        lw = widths[l.id]
        if l.kind == "conv":
            ho, wo = size[l.id]
            total += lw.cin * lw.cout * l.kernel * l.kernel * ho * wo
        elif l.kind == "depthwise-conv":
            ho, wo = size[l.id]
            total += lw.cout * l.kernel * l.kernel * ho * wo
        elif l.kind == "linear":
            total += lw.cin * lw.cout
    return int(total)


# ---------------------------------------------------------------------------
# executable models

class Model:
    """Executable network instantiated from an ArchSpec and a ChannelConfig.

    Weights are freshly drawn from ``seed`` (He-normal for conv/linear,
    identity affine for batch norm). Batch-norm running statistics live
    in ``stats``, keyed like ``bn1.running_mean``, apart from the
    learnable ``params``. Gate vectors are not part of the model; pass
    them to ``forward`` keyed by the ids in ``gated_ids``.
    """

    def __init__(self, arch: ArchSpec, config: ChannelConfig | None,
                 seed: int):
        self.arch = arch
        self.config = config
        self.gated_ids = place_gates(arch)
        self.widths = resolve_widths(arch, config)
        self.params: dict[str, np.ndarray] = {}
        self.stats: dict[str, np.ndarray] = {}
        dt = T.default_dtype()
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for l in arch.layers:
            lw = self.widths[l.id]
            if l.kind == "conv":
                fan_in = lw.cin * l.kernel * l.kernel
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                               (lw.cout, lw.cin, l.kernel, l.kernel))
                self.params[f"{l.id}.w"] = w.astype(dt)
            elif l.kind == "depthwise-conv":
                fan_in = l.kernel * l.kernel
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                               (lw.cout, 1, l.kernel, l.kernel))
                self.params[f"{l.id}.w"] = w.astype(dt)
            elif l.kind == "batchnorm":
                self.params[f"{l.id}.gamma"] = np.ones(lw.cout, dtype=dt)
                self.params[f"{l.id}.beta"] = np.zeros(lw.cout, dtype=dt)
                self.stats[f"{l.id}.running_mean"] = np.zeros(lw.cout, dt)
                self.stats[f"{l.id}.running_var"] = np.ones(lw.cout, dt)
            elif l.kind == "linear":
                w = rng.normal(0.0, np.sqrt(2.0 / lw.cin), (lw.cout, lw.cin))
                self.params[f"{l.id}.w"] = w.astype(dt)
                self.params[f"{l.id}.b"] = np.zeros(lw.cout, dtype=dt)

    def forward(self, x, train: bool = False,
                gates: dict[str, np.ndarray] | None = None,
                tape: T.Tape | None = None) -> np.ndarray:
        """Run the network; returns logits [N, num_classes].

        ``gates`` maps gated batch-norm layer ids to per-channel vectors
        applied right after that layer's affine transform.
        """
        x = np.asarray(x, dtype=T.default_dtype())
        acts: dict[str, np.ndarray] = {}

        def inp(l: LayerSpec, i: int = 0) -> np.ndarray:
            return acts[l.inputs[i]] if l.inputs else x

        out = x
        for l in self.arch.layers:
            if l.kind in ("conv", "depthwise-conv"):
                w = self.params[f"{l.id}.w"]
                groups = w.shape[0] if l.kind == "depthwise-conv" else 1
                out = T.conv2d(inp(l), w, stride=l.stride, padding=l.padding,
                               groups=groups, tape=tape)
            elif l.kind == "batchnorm":
                out = T.batchnorm(inp(l), self.params[f"{l.id}.gamma"],
                                  self.params[f"{l.id}.beta"],
                                  self.stats[f"{l.id}.running_mean"],
                                  self.stats[f"{l.id}.running_var"],
                                  train=train, tape=tape)
                if gates is not None and l.id in gates:
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
        return acts[self.arch.output_layer]

    # -- parameter access ---------------------------------------------------

    def trainable(self) -> list[tuple[str, np.ndarray]]:
        """All learnable parameters in layer order (running stats excluded)."""
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
    """Top-1 accuracy in eval mode, batched to bound memory."""
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
    blocks: list[Block] = []
    prev: str | None = None
    for i, c in enumerate(widths, start=1):
        ls, prev = _chain(
            prev,
            LayerSpec(f"conv{i}", "conv", channels=c, kernel=3, padding=1),
            LayerSpec(f"bn{i}", "batchnorm"),
            LayerSpec(f"relu{i}", "relu"))
        layers.extend(ls)
        blocks.append(Block("plain", (f"conv{i}", f"bn{i}", f"relu{i}")))
        if i in (2, 4, 6):
            p = LayerSpec(f"pool{i // 2}", "pool", inputs=(prev,),
                          kernel=2, stride=2)
            layers.append(p)
            prev = p.id
    layers.append(LayerSpec("gap", "global-pool", inputs=(prev,)))
    layers.append(LayerSpec("fc", "linear", inputs=("gap",),
                            channels=num_classes))
    return ArchSpec("vgg-small", tuple(layers), tuple(blocks),
                    input_shape, num_classes)


def resnet_tiny(input_shape=(3, 8, 8), num_classes=3) -> ArchSpec:
    """Three stages of two basic residual blocks on an ungated stem."""
    layers: list[LayerSpec] = [
        LayerSpec("stem.conv", "conv", channels=8, kernel=3, padding=1),
        LayerSpec("stem.bn", "batchnorm", inputs=("stem.conv",)),
        LayerSpec("stem.relu", "relu", inputs=("stem.bn",)),
    ]
    blocks: list[Block] = []
    prev = "stem.relu"
    stage_widths = (8, 16, 32)
    for s, c in enumerate(stage_widths, start=1):
        for b in range(1, 3):
            p = f"s{s}b{b}"
            stride = 2 if (s > 1 and b == 1) else 1
            ids = [f"{p}.conv1", f"{p}.bn1", f"{p}.relu1",
                   f"{p}.conv2", f"{p}.bn2"]
            layers += [
                LayerSpec(ids[0], "conv", inputs=(prev,), channels=c,
                          kernel=3, stride=stride, padding=1),
                LayerSpec(ids[1], "batchnorm", inputs=(ids[0],)),
                LayerSpec(ids[2], "relu", inputs=(ids[1],)),
                LayerSpec(ids[3], "conv", inputs=(ids[2],), channels=c,
                          kernel=3, padding=1),
                LayerSpec(ids[4], "batchnorm", inputs=(ids[3],)),
            ]
            if stride != 1:
                # 1x1 projection matches width and resolution on the skip
                ids += [f"{p}.proj", f"{p}.projbn"]
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
            ids += [f"{p}.add", f"{p}.relu2"]
            blocks.append(Block("residual", tuple(ids)))
            prev = f"{p}.relu2"
    layers.append(LayerSpec("gap", "global-pool", inputs=(prev,)))
    layers.append(LayerSpec("fc", "linear", inputs=("gap",),
                            channels=num_classes))
    return ArchSpec("resnet-tiny", tuple(layers), tuple(blocks),
                    input_shape, num_classes)


def depthwise_tiny(input_shape=(3, 8, 8), num_classes=3) -> ArchSpec:
    """Stem conv plus four depthwise-separable blocks."""
    layers: list[LayerSpec] = [
        LayerSpec("stem.conv", "conv", channels=8, kernel=3, padding=1),
        LayerSpec("stem.bn", "batchnorm", inputs=("stem.conv",)),
        LayerSpec("stem.relu", "relu", inputs=("stem.bn",)),
    ]
    blocks: list[Block] = []
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
            LayerSpec(ids[4], "batchnorm", inputs=(ids[3],)),
            LayerSpec(ids[5], "relu", inputs=(ids[4],)),
        ]
        blocks.append(Block("depthwise", tuple(ids)))
        prev = ids[5]
    layers.append(LayerSpec("gap", "global-pool", inputs=(prev,)))
    layers.append(LayerSpec("fc", "linear", inputs=("gap",),
                            channels=num_classes))
    return ArchSpec("depthwise-tiny", tuple(layers), tuple(blocks),
                    input_shape, num_classes)


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

