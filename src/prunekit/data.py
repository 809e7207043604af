"""Datasets, splitting, augmentation, and run persistence.

Two data sources: a deterministic synthetic generator for desk-scale
experiments, and the CIFAR-10 binary batch format. Persistence uses one
container layout for every artifact: a magic tag carrying the format
version, a canonical-JSON metadata block, raw little-endian float32
array blobs, and a trailing CRC32 over everything before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    LabelError,
    MigrationError,
    SplitError,
)

RUN_MAGIC = b"PKRUN001"
WEIGHTS_MAGIC = b"PKWTS001"
RUN_SCHEMA = "prunekit/run/v1"


# ---------------------------------------------------------------------------
# seeding

def derive_seed(seed: int, *tags: str) -> int:
    """Stable child seed for a named purpose (split, epoch, run, ...)."""
    keys = [zlib.crc32(t.encode("utf-8")) for t in tags]
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF] + keys)
    return int(ss.generate_state(1)[0])


def derive_rng(seed: int, *tags: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *tags))


# ---------------------------------------------------------------------------
# datasets

@dataclass
class Dataset:
    """Normalized images [N,C,H,W] with integer labels and a split tag."""
    images: np.ndarray
    labels: np.ndarray
    split: str
    class_count: int
    norm_mean: np.ndarray
    norm_std: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4 or len(self.labels) != len(self.images):
            raise FormatError(
                f"images {self.images.shape} / labels {self.labels.shape} "
                "mismatch")
        if self.split not in ("train", "val", "test"):
            raise SplitError(f"unknown split tag {self.split!r}")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise LabelError(
                f"labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic class-template dataset."""
    classes: int = 3
    per_class: int = 500
    image_size: int = 8
    channels: int = 3
    noise: float = 0.5
    template_seed: int = 77

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")


def _class_templates(spec: SynthSpec) -> np.ndarray:
    """Fixed per-class patterns [K,C,H,W], shared by every split.

    Each template is a smooth random field: a coarse grid upsampled by
    nearest neighbour plus a class-specific orientation wave, giving the
    classes structure a small conv net can separate.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.template_seed & 0xFFFFFFFF, 0x7E47]))
    k, c, s = spec.classes, spec.channels, spec.image_size
    coarse = rng.normal(0.0, 1.0, (k, c, 4, 4))
    reps = int(np.ceil(s / 4))
    blob = np.kron(coarse, np.ones((1, 1, reps, reps)))[:, :, :s, :s]
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    waves = np.empty((k, c, s, s))
    for i in range(k):
        theta = np.pi * i / k
        freq = 2.0 * np.pi * (1 + i % 3) / s
        phase = freq * (np.cos(theta) * xx + np.sin(theta) * yy)
        waves[i] = np.sin(phase)[None]
    return (blob + waves).astype(np.float64)


def synth_dataset(spec: SynthSpec, seed: int, split: str = "train",
                  stats: tuple[np.ndarray, np.ndarray] | None = None) -> Dataset:
    """Generate one split: class templates plus per-split seeded noise.

    ``stats`` carries (mean, std) from the training split; when omitted
    the split is normalized by its own statistics (the train case).
    """
    tpl = _class_templates(spec)
    rng = derive_rng(seed, "synth", split)
    n = spec.classes * spec.per_class
    labels = np.repeat(np.arange(spec.classes), spec.per_class)
    raw = tpl[labels] + spec.noise * rng.standard_normal(
        (n, spec.channels, spec.image_size, spec.image_size))
    order = rng.permutation(n)
    raw, labels = raw[order], labels[order]
    if stats is None:
        mean = raw.mean(axis=(0, 2, 3))
        std = raw.std(axis=(0, 2, 3)) + 1e-8
    else:
        mean, std = stats
    images = ((raw - mean[None, :, None, None])
              / std[None, :, None, None]).astype(np.float32)
    return Dataset(images, labels.astype(np.int64), split, spec.classes,
                   np.asarray(mean, dtype=np.float64),
                   np.asarray(std, dtype=np.float64))


def synth_suite(spec: SynthSpec, seed: int) -> dict[str, Dataset]:
    """Train/val/test splits sharing templates and train normalization."""
    train = synth_dataset(spec, seed, "train")
    stats = (train.norm_mean, train.norm_std)
    return {
        "train": train,
        "val": synth_dataset(spec, seed, "val", stats),
        "test": synth_dataset(spec, seed, "test", stats),
    }


def make_validation_split(train: Dataset, per_class: int,
                          seed: int) -> tuple[Dataset, Dataset]:
    """Carve ``per_class`` samples of each class out of ``train``."""
    if per_class == 0:
        empty = Dataset(train.images[:0], train.labels[:0], "val",
                        train.class_count, train.norm_mean, train.norm_std)
        return train, empty
    rng = derive_rng(seed, "val-split")
    val_idx: list[np.ndarray] = []
    for k in range(train.class_count):
        members = np.flatnonzero(train.labels == k)
        if len(members) < per_class:
            raise SplitError(
                f"class {k} has {len(members)} samples, "
                f"need {per_class} for validation")
        val_idx.append(rng.permutation(members)[:per_class])
    val_set = np.sort(np.concatenate(val_idx))
    mask = np.ones(len(train), dtype=bool)
    mask[val_set] = False
    val = Dataset(train.images[val_set], train.labels[val_set], "val",
                  train.class_count, train.norm_mean, train.norm_std)
    rest = Dataset(train.images[mask], train.labels[mask], "train",
                   train.class_count, train.norm_mean, train.norm_std)
    return rest, val


def augment_batch(images: np.ndarray, rng: np.random.Generator,
                  pad: int = 4) -> np.ndarray:
    """Pad-and-crop plus horizontal flip, one draw per sample."""
    n, c, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(images)
    ys = rng.integers(0, 2 * pad + 1, size=n)
    xs = rng.integers(0, 2 * pad + 1, size=n)
    flips = rng.random(n) < 0.5
    for i in range(n):
        crop = padded[i, :, ys[i]:ys[i] + h, xs[i]:xs[i] + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


# ---------------------------------------------------------------------------
# CIFAR-10 binary format

RECORD_BYTES = 3073  # 1 label byte + 3 channel planes of 32*32


def parse_cifar_batch(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode records of 1 label byte + 3072 pixel bytes (RGB planes).

    Returns uint8 images [N,3,32,32] and uint8 labels [N]. Truncated
    input fails with the byte offset where the partial record starts.
    """
    extra = len(raw) % RECORD_BYTES
    if extra:
        raise FormatError(
            f"file length {len(raw)} is not a multiple of {RECORD_BYTES}; "
            f"partial record at byte offset {len(raw) - extra}",
            offset=len(raw) - extra)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = arr[:, 0].copy()
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise CorruptionError(
            f"record {bad}: label byte {labels[bad]} exceeds 9")
    images = arr[:, 1:].reshape(-1, 3, 32, 32).copy()
    return images, labels


def encode_cifar_batch(images: np.ndarray, labels: np.ndarray) -> bytes:
    """Inverse of ``parse_cifar_batch`` for fixture construction."""
    n = len(labels)
    rec = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = images.reshape(n, -1)
    return rec.tobytes()


CIFAR_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + (
    "test_batch.bin",)


def load_cifar10(path) -> tuple[Dataset, Dataset]:
    """Load the 6 standard binary batches under ``path``.

    Pixels are scaled to [0,1] and normalized by training-set statistics
    (the test split reuses them). Augmentation is not applied here; the
    trainer augments per batch at training time.
    """
    for name in CIFAR_FILES:
        if not os.path.exists(os.path.join(path, name)):
            raise FormatError(f"missing CIFAR-10 batch file {name!r} "
                              f"under {path}", offset=0)
    train_parts, train_labels = [], []
    for name in CIFAR_FILES[:5]:
        with open(os.path.join(path, name), "rb") as fh:
            imgs, labs = parse_cifar_batch(fh.read())
        train_parts.append(imgs)
        train_labels.append(labs)
    with open(os.path.join(path, CIFAR_FILES[5]), "rb") as fh:
        test_imgs, test_labs = parse_cifar_batch(fh.read())

    train_raw = np.concatenate(train_parts).astype(np.float32) / 255.0
    test_raw = test_imgs.astype(np.float32) / 255.0
    mean = train_raw.mean(axis=(0, 2, 3)).astype(np.float64)
    std = (train_raw.std(axis=(0, 2, 3)) + 1e-8).astype(np.float64)

    def norm(x):
        return ((x - mean[None, :, None, None].astype(np.float32))
                / std[None, :, None, None].astype(np.float32))

    train = Dataset(norm(train_raw), np.concatenate(train_labels).astype(
        np.int64), "train", 10, mean, std)
    test = Dataset(norm(test_raw), test_labs.astype(np.int64), "test", 10,
                   mean, std)
    return train, test


# ---------------------------------------------------------------------------
# blob container

def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def write_container(path, magic: bytes, meta: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    """magic | meta length (LE u64) | canonical JSON | f32 LE blobs | CRC32.

    The bytes go to a temporary file beside ``path`` that replaces it
    only once complete, so a crash never leaves a truncated container.
    """
    order = sorted(arrays)
    meta = dict(meta)
    meta["arrays"] = [
        {"name": k, "shape": list(arrays[k].shape)} for k in order
    ]
    body = _canonical_json(meta)
    parts = [magic, len(body).to_bytes(8, "little"), body]
    for k in order:
        parts.append(np.ascontiguousarray(
            arrays[k], dtype="<f4").tobytes())
    payload = b"".join(parts)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(crc.to_bytes(4, "little"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_container(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + 12:
        raise FormatError(f"{path}: too short to be a container", offset=0)
    got = blob[:len(magic)]
    if got != magic:
        if got[:5] == magic[:5]:
            raise MigrationError(
                f"{path}: format version {got[5:].decode(errors='replace')} "
                f"not supported (expected {magic[5:].decode()})")
        raise FormatError(f"{path}: bad magic {got!r}", offset=0)
    stored_crc = int.from_bytes(blob[-4:], "little")
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptionError(f"{path}: checksum mismatch")
    end = len(blob) - 4
    off = len(magic)
    mlen = int.from_bytes(blob[off:off + 8], "little")
    off += 8
    if mlen > end - off:
        raise FormatError(f"{path}: metadata length {mlen} runs past the "
                          f"payload end at byte {end}", offset=off - 8)
    try:
        meta = json.loads(blob[off:off + mlen].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path}: metadata is not valid JSON: {exc}",
                          offset=off) from exc
    entries = meta.pop("arrays", []) if isinstance(meta, dict) else None
    if not isinstance(entries, list):
        raise FormatError(f"{path}: metadata is not a container header",
                          offset=off)
    off += mlen
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if (not isinstance(shape, list)
                or not isinstance(entry.get("name"), str)
                or not all(isinstance(d, int) and d >= 0 for d in shape)):
            raise FormatError(f"{path}: malformed array entry {entry!r}",
                              offset=off)
        count = math.prod(shape)
        if 4 * count > end - off:
            raise FormatError(
                f"{path}: array {entry['name']!r} of shape {shape} needs "
                f"{4 * count} bytes at offset {off}, {end - off} remain",
                offset=off)
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float32)
        off += count * 4
    if off != end:
        raise FormatError(f"{path}: {end - off} bytes follow the last array",
                          offset=off)
    return meta, arrays


# ---------------------------------------------------------------------------
# run records

@dataclass
class RunRecord:
    """Everything one pipeline run produced, in persistable form.

    ``snapshots`` holds per-snapshot scalars; the flattened gate vectors
    live in ``gate_blob`` (row s = snapshot s). ``search`` and each entry
    of ``train_reports`` are plain dicts as produced by their modules.
    """
    config: dict
    seed: int
    tool_version: str
    status: str = "completed"
    snapshots: list[dict] = field(default_factory=list)
    gate_blob: np.ndarray | None = None
    search: dict | None = None
    train_reports: list[dict] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    sealed: bool = False

    def __setattr__(self, key, value):
        if getattr(self, "sealed", False):
            raise ConfigError("RunRecord is sealed and immutable")
        object.__setattr__(self, key, value)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(_canonical_json(self.config)).hexdigest()

    def seal(self) -> "RunRecord":
        """Freeze the record; every artifact path must already exist."""
        for p in self.artifacts:
            if not os.path.exists(p):
                raise ConfigError(f"artifact missing at seal time: {p}")
        object.__setattr__(self, "sealed", True)
        return self

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        if (self.gate_blob is None) != (other.gate_blob is None):
            return False
        if self.gate_blob is not None and not np.array_equal(
                self.gate_blob, other.gate_blob):
            return False
        keys = ("config", "seed", "tool_version", "status", "snapshots",
                "search", "train_reports", "artifacts")
        return all(getattr(self, k) == getattr(other, k) for k in keys)


def save_run(record: RunRecord, path) -> None:
    if not record.sealed:
        raise ConfigError("record must be sealed before saving")
    meta = {
        "schema": RUN_SCHEMA,
        "config": record.config,
        "config_hash": record.config_hash,
        "seed": record.seed,
        "tool_version": record.tool_version,
        "status": record.status,
        "snapshots": record.snapshots,
        "search": record.search,
        "train_reports": record.train_reports,
        "artifacts": record.artifacts,
    }
    arrays = {}
    if record.gate_blob is not None:
        arrays["gate_blob"] = record.gate_blob
    write_container(path, RUN_MAGIC, meta, arrays)


def load_run(path) -> RunRecord:
    meta, arrays = read_container(path, RUN_MAGIC)
    if meta.get("schema") != RUN_SCHEMA:
        raise MigrationError(
            f"{path}: schema {meta.get('schema')!r}, expected {RUN_SCHEMA!r}")
    stored = meta.get("config_hash")
    rec = RunRecord(
        config=meta["config"],
        seed=meta["seed"],
        tool_version=meta["tool_version"],
        status=meta["status"],
        snapshots=meta["snapshots"],
        gate_blob=arrays.get("gate_blob"),
        search=meta["search"],
        train_reports=meta["train_reports"],
        artifacts=meta["artifacts"],
    )
    if stored != rec.config_hash:
        raise CorruptionError(f"{path}: config hash mismatch")
    # artifact existence was checked when the record was sealed; a loaded
    # record stays immutable without re-checking paths
    object.__setattr__(rec, "sealed", True)
    return rec


# ---------------------------------------------------------------------------
# weight checkpoints

def save_weights(state: dict[str, np.ndarray], path,
                 meta: dict | None = None) -> None:
    """Persist a model state (see Model.state_arrays) with metadata."""
    write_container(path, WEIGHTS_MAGIC, {"meta": meta or {}}, state)


def load_weights(path) -> tuple[dict[str, np.ndarray], dict]:
    meta, arrays = read_container(path, WEIGHTS_MAGIC)
    return arrays, meta.get("meta", {})
