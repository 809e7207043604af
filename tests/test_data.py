"""Synthetic data, splits, CIFAR-10 parsing, and persistence."""

import json

import numpy as np
import pytest

from prunekit import data as D
from prunekit.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    MigrationError,
    SplitError,
)

from helpers import checksummed_container


# ---------------------------------------------------------------------------
# synthetic dataset

def test_synth_same_seed_identical():
    spec = D.SynthSpec(per_class=20)
    a = D.synth_dataset(spec, seed=5)
    b = D.synth_dataset(spec, seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = D.synth_dataset(spec, seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def test_synth_zero_noise_collapses_to_templates():
    spec = D.SynthSpec(per_class=4, noise=0.0)
    ds = D.synth_dataset(spec, seed=1)
    for k in range(spec.classes):
        members = ds.images[ds.labels == k]
        assert np.allclose(members, members[0], atol=1e-6)


def test_synth_balanced_and_tagged():
    spec = D.SynthSpec(classes=4, per_class=10)
    ds = D.synth_dataset(spec, seed=2)
    assert len(ds) == 40
    assert ds.split == "train"
    assert ds.class_count == 4
    assert np.array_equal(np.bincount(ds.labels), np.full(4, 10))


def test_synth_suite_shares_templates_and_train_stats():
    spec = D.SynthSpec(per_class=30, noise=0.3)
    suite = D.synth_suite(spec, seed=9)
    train, val, test = suite["train"], suite["val"], suite["test"]
    assert np.array_equal(train.norm_mean, val.norm_mean)
    assert np.array_equal(train.norm_std, test.norm_std)
    assert (val.split, test.split) == ("val", "test")
    # splits use different noise draws
    assert train.images[:5].tobytes() != val.images[:5].tobytes()
    # train normalization centers the train split only
    assert np.allclose(train.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)


def test_synth_rejects_single_class():
    with pytest.raises(ConfigError):
        D.SynthSpec(classes=1)


# ---------------------------------------------------------------------------
# validation split

def _toy_dataset(n_per_class=10, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    n = n_per_class * classes
    images = rng.standard_normal((n, 3, 4, 4)).astype(np.float32)
    labels = np.repeat(np.arange(classes), n_per_class)
    order = rng.permutation(n)
    return D.Dataset(images[order], labels[order], "train", classes,
                     np.zeros(3), np.ones(3))


def test_split_zero_is_noop():
    ds = _toy_dataset()
    rest, val = D.make_validation_split(ds, 0, seed=1)
    assert rest is ds
    assert len(val) == 0
    assert val.split == "val"


def test_split_exact_counts_and_disjoint():
    ds = _toy_dataset(n_per_class=10, classes=3)
    rest, val = D.make_validation_split(ds, 4, seed=3)
    assert len(val) == 12 and len(rest) == 18
    assert np.array_equal(np.bincount(val.labels), np.full(3, 4))
    assert np.array_equal(np.bincount(rest.labels), np.full(3, 6))
    # disjoint by content: images are unique random draws
    seen = {img.tobytes() for img in ds.images}
    v = {img.tobytes() for img in val.images}
    r = {img.tobytes() for img in rest.images}
    assert v | r == seen
    assert not (v & r)


def test_split_deterministic():
    ds = _toy_dataset()
    _, v1 = D.make_validation_split(ds, 3, seed=7)
    _, v2 = D.make_validation_split(ds, 3, seed=7)
    assert v1.images.tobytes() == v2.images.tobytes()
    _, v3 = D.make_validation_split(ds, 3, seed=8)
    assert v1.images.tobytes() != v3.images.tobytes()


def test_split_insufficient_population():
    ds = _toy_dataset(n_per_class=3)
    with pytest.raises(SplitError):
        D.make_validation_split(ds, 4, seed=0)


def test_augment_preserves_shape_and_pixels():
    rng = np.random.default_rng(4)
    images = rng.standard_normal((6, 3, 8, 8)).astype(np.float32)
    out = D.augment_batch(images, np.random.default_rng(0), pad=2)
    assert out.shape == images.shape
    # every output pixel is either zero padding or some input pixel
    pool = {0.0} | set(images.reshape(-1).tolist())
    assert set(out.reshape(-1).tolist()) <= pool
    # same generator state reproduces the augmentation
    again = D.augment_batch(images, np.random.default_rng(0), pad=2)
    assert out.tobytes() == again.tobytes()


# ---------------------------------------------------------------------------
# CIFAR-10 binary format

def test_cifar_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, (7, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, 7, dtype=np.uint8)
    raw = D.encode_cifar_batch(images, labels)
    assert len(raw) == 7 * 3073
    imgs, labs = D.parse_cifar_batch(raw)
    assert np.array_equal(imgs, images)
    assert np.array_equal(labs, labels)
    assert D.encode_cifar_batch(imgs, labs) == raw


def test_cifar_byte_offsets_map_exactly():
    rng = np.random.default_rng(12)
    images = rng.integers(0, 256, (5, 3, 32, 32), dtype=np.uint8)
    labels = rng.integers(0, 10, 5, dtype=np.uint8)
    raw = D.encode_cifar_batch(images, labels)
    imgs, labs = D.parse_cifar_batch(raw)
    for i in range(5):
        assert raw[i * 3073] == labs[i]
        for b in (1, 1024, 1025, 3072):
            assert raw[i * 3073 + b] == imgs[i].reshape(-1)[b - 1]


def test_cifar_truncation_rejected_with_offset():
    with pytest.raises(FormatError) as exc:
        D.parse_cifar_batch(b"\x00" * 3072)
    assert exc.value.offset == 0
    with pytest.raises(FormatError) as exc:
        D.parse_cifar_batch(b"\x01" * (3073 * 4 + 100))
    assert exc.value.offset == 3073 * 4


def test_cifar_bad_label_rejected():
    images = np.zeros((2, 3, 32, 32), dtype=np.uint8)
    labels = np.array([3, 11], dtype=np.uint8)
    raw = D.encode_cifar_batch(images, labels)
    with pytest.raises(CorruptionError) as exc:
        D.parse_cifar_batch(raw)
    assert "record 1" in str(exc.value)


def test_cifar_hand_built_record():
    raw = bytes([3]) + bytes([128]) * 3072
    imgs, labs = D.parse_cifar_batch(raw)
    assert labs[0] == 3
    assert np.all(imgs[0] == 128)


def _write_cifar_dir(root, rng, per_batch=20):
    for name in D.CIFAR_FILES:
        images = rng.integers(0, 256, (per_batch, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, per_batch, dtype=np.uint8)
        (root / name).write_bytes(D.encode_cifar_batch(images, labels))


def test_load_cifar10_normalizes_by_train_stats(tmp_path):
    _write_cifar_dir(tmp_path, np.random.default_rng(13))
    train, test = D.load_cifar10(tmp_path)
    assert train.images.shape == (100, 3, 32, 32)
    assert test.images.shape == (20, 3, 32, 32)
    assert np.array_equal(train.norm_mean, test.norm_mean)
    assert np.allclose(train.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
    assert train.class_count == 10


def test_load_cifar10_missing_file(tmp_path):
    _write_cifar_dir(tmp_path, np.random.default_rng(14))
    (tmp_path / "data_batch_3.bin").unlink()
    with pytest.raises(FormatError):
        D.load_cifar10(tmp_path)


# ---------------------------------------------------------------------------
# container and run records

def test_container_round_trip(tmp_path):
    p = tmp_path / "box.bin"
    arrays = {"b": np.arange(6, dtype=np.float32).reshape(2, 3),
              "a": np.float32([1.5])}
    D.write_container(p, D.WEIGHTS_MAGIC, {"k": [1, "two"]}, arrays)
    meta, back = D.read_container(p, D.WEIGHTS_MAGIC)
    assert meta["k"] == [1, "two"]
    assert np.array_equal(back["b"], arrays["b"])
    assert np.array_equal(back["a"], arrays["a"])


def test_container_detects_tampering(tmp_path):
    p = tmp_path / "box.bin"
    D.write_container(p, D.WEIGHTS_MAGIC, {}, {"x": np.zeros(4, np.float32)})
    blob = bytearray(p.read_bytes())
    blob[-10] ^= 0xFF  # flip a bit inside the float blob
    p.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        D.read_container(p, D.WEIGHTS_MAGIC)


def test_container_version_vs_alien_magic(tmp_path):
    p = tmp_path / "box.bin"
    D.write_container(p, b"PKWTS002", {}, {})
    with pytest.raises(MigrationError):
        D.read_container(p, D.WEIGHTS_MAGIC)
    p2 = tmp_path / "alien.bin"
    p2.write_bytes(b"GIF89a" + b"\x00" * 64)
    with pytest.raises(FormatError):
        D.read_container(p2, D.WEIGHTS_MAGIC)


META_AT = len(D.WEIGHTS_MAGIC) + 8
SHORT_ARRAY = json.dumps({"arrays": [{"name": "x", "shape": [2, 3]}]}).encode()


@pytest.mark.parametrize("meta,payload,offset", [
    (b'{"meta": ', b"", META_AT),
    (b"\xff\xfe", b"", META_AT),
    (b"[1, 2]", b"", META_AT),
    (SHORT_ARRAY, np.zeros(4, "<f4").tobytes(), META_AT + len(SHORT_ARRAY)),
    (SHORT_ARRAY, np.zeros(7, "<f4").tobytes(),
     META_AT + len(SHORT_ARRAY) + 24),
], ids=["truncated-json", "not-utf8", "not-an-object", "shape-past-payload",
        "trailing-bytes"])
def test_container_malformed_layout_rejected(tmp_path, meta, payload,
                                             offset):
    p = tmp_path / "box.bin"
    p.write_bytes(checksummed_container(D.WEIGHTS_MAGIC, meta, payload))
    with pytest.raises(FormatError) as err:
        D.read_container(p, D.WEIGHTS_MAGIC)
    assert err.value.offset == offset


def test_container_metadata_length_past_payload(tmp_path):
    p = tmp_path / "box.bin"
    p.write_bytes(checksummed_container(D.WEIGHTS_MAGIC, b"{}", meta_len=200))
    with pytest.raises(FormatError) as err:
        D.read_container(p, D.WEIGHTS_MAGIC)
    assert err.value.offset == len(D.WEIGHTS_MAGIC)


def test_container_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "box.bin"
    D.write_container(p, D.WEIGHTS_MAGIC, {"v": 1},
                      {"x": np.ones(8, np.float32)})
    before = p.read_bytes()
    real_open = open

    class DiesMidWrite:
        """Writable file whose first write stores half, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(D, "open", lambda *a, **k: DiesMidWrite(
        real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="no space"):
        D.write_container(p, D.WEIGHTS_MAGIC, {"v": 2},
                          {"x": np.zeros(8, np.float32)})
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]


def _sample_record(tmp_path, with_blob=True):
    art = tmp_path / "weights.bin"
    art.write_bytes(b"x")
    return D.RunRecord(
        config={"arch": "vgg-small", "budget": 0.5},
        seed=3,
        tool_version="0.1.0",
        snapshots=[{"epoch": 0, "sparsity": 1.0, "val_accuracy": 0.33},
                   {"epoch": 1, "sparsity": 0.61, "val_accuracy": 0.55}],
        gate_blob=np.linspace(0, 1, 12, dtype=np.float32).reshape(2, 6)
        if with_blob else None,
        search={"tau_star": 0.43, "converged": True, "iterations": 7,
                "achieved_flops": 1234, "kept_counts": [3, 3]},
        train_reports=[{"seed": 3, "final_test_accuracy": 0.81,
                        "train_loss": [1.0, 0.5], "val_acc": [0.4, 0.7]}],
        artifacts=[str(art)],
    )


def test_run_record_seal_guards(tmp_path):
    rec = _sample_record(tmp_path)
    rec.artifacts = [str(tmp_path / "missing.bin")]
    with pytest.raises(ConfigError):
        rec.seal()
    rec.artifacts = []
    rec.seal()
    with pytest.raises(ConfigError):
        rec.status = "other"


def test_run_record_requires_seal_for_save(tmp_path):
    rec = _sample_record(tmp_path)
    with pytest.raises(ConfigError):
        D.save_run(rec, tmp_path / "run.bin")


def test_run_round_trip_and_resave_bytes(tmp_path):
    rec = _sample_record(tmp_path).seal()
    p = tmp_path / "run.bin"
    D.save_run(rec, p)
    back = D.load_run(p)
    assert back == rec
    assert back.config_hash == rec.config_hash
    first = p.read_bytes()
    D.save_run(back, p)
    assert p.read_bytes() == first


def test_run_round_trip_empty_trajectory(tmp_path):
    rec = D.RunRecord(config={}, seed=0, tool_version="0.1.0").seal()
    p = tmp_path / "run.bin"
    D.save_run(rec, p)
    assert D.load_run(p) == rec


def test_run_tampered_blob(tmp_path):
    rec = _sample_record(tmp_path).seal()
    p = tmp_path / "run.bin"
    D.save_run(rec, p)
    blob = bytearray(p.read_bytes())
    blob[-8] ^= 0x01
    p.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        D.load_run(p)


def test_weights_round_trip(tmp_path):
    state = {"conv1.w": np.random.default_rng(0).standard_normal(
        (4, 3, 3, 3)).astype(np.float32),
        "bn1.gamma": np.ones(4, dtype=np.float32)}
    p = tmp_path / "w.bin"
    D.save_weights(state, p, meta={"epoch": 5})
    back, meta = D.load_weights(p)
    assert meta == {"epoch": 5}
    assert set(back) == set(state)
    for k in state:
        assert np.array_equal(back[k], state[k])


def test_derive_seed_stable_and_distinct():
    assert D.derive_seed(7, "a", "b") == D.derive_seed(7, "a", "b")
    assert D.derive_seed(7, "a") != D.derive_seed(7, "b")
    assert D.derive_seed(7, "a") != D.derive_seed(8, "a")
