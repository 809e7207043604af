"""Tests of the benchmark itself: small-config smoke runs of every
workload, and every output check fed a deliberately broken output.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from prunekit import data as D  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

# few images, few epochs, an easy task: every workload in about a second;
# the gate learning rate is raised so that gates still reach the target
SMALL = {
    "synth": {"per_class": 30, "noise": 0.5},
    "importance": {"epochs": 6, "lr": 0.1},
    "schedule": {"base_epochs": 5},
}


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merge(base[key], value) if isinstance(value, dict) \
            else value
    return out


@pytest.fixture(scope="module")
def configs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("configs")
    for name in workloads.WORKLOADS:
        cfg = json.loads((run.CONFIGS / f"{name}.json").read_text())
        small = {k: v for k, v in SMALL.items() if k in cfg}
        if name == "study-2seed":
            small["checkpoint_epochs"] = [1]
        (root / f"{name}.json").write_text(json.dumps(_merge(cfg, small)))
    return root


def _one_round(configs, name, out, patches=None):
    wl = workloads.WORKLOADS[name](configs / f"{name}.json")
    wl.open(patches or Patches())
    return wl, wl.run_round(7, 0, out)


# ---------------------------------------------------------------------------
# smoke runs

SEARCHES_PER_ROUND = {"prune-vgg": 1, "structure-dw": 3, "study-2seed": 4}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(configs, tmp_path, name, trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if trace else "end_to_end"]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], configs=configs,
                      out_root=tmp_path)
    *notes, last = buf.getvalue().strip().splitlines()
    result = json.loads(last)
    assert rc == 0
    searches = SEARCHES_PER_ROUND[name] * workloads.WORKLOADS[name].min_rounds
    assert notes[-1] == f"bench: 0 of {searches} {run.UNCONVERGED}"
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name].min_rounds
    assert list(result["metrics"]) == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / name).exists()


def test_missing_program_exits_without_result(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run.load_program(tmp_path)
    assert exc.value.code not in (0, None)


def test_tracing_restores_the_program(configs, tmp_path):
    from prunekit import arch, cli, gates, tensor
    before = (cli.main, tensor.conv2d, gates.evaluate_accuracy,
              arch.Model.forward, tensor.Tape.record)
    patches, tracer = Patches(), Tracer()
    tracer.install(patches)
    assert cli.main is not before[0]
    _one_round(configs, "structure-dw", tmp_path, patches)
    patches.restore()
    assert (cli.main, tensor.conv2d, gates.evaluate_accuracy,
            arch.Model.forward, tensor.Tape.record) == before
    m = tracer.metrics(1.0)
    assert m["gates.learn.steps"][0] > 0
    assert m["tensor.conv2d_dw.bwd_s"][0] > 0


# ---------------------------------------------------------------------------
# prune-vgg checks

@pytest.fixture(scope="module")
def prune_out(configs, tmp_path_factory):
    out = tmp_path_factory.mktemp("prune")
    wl, _ = _one_round(configs, "prune-vgg", out)
    return out, wl.cfg, 7000


def _rewrite(path: Path, magic: bytes, edit) -> None:
    meta, arrays = D.read_container(path, magic)
    edit(meta, arrays)
    D.write_container(path, magic, meta, arrays)


def _broken_copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def _prune_with(configs, tmp_path, **over):
    cfg = json.loads((configs / "prune-vgg.json").read_text()) | over
    path = tmp_path / "prune-vgg.json"
    path.write_text(json.dumps(cfg))
    wl = workloads.PruneVgg(path)
    return wl.run_round(7, 0, tmp_path / "out")


def test_unconverged_search_is_a_completed_round(configs, tmp_path):
    # the CLI exits 1, the record is sealed with converged=False
    r = _prune_with(configs, tmp_path, tolerance=1e-9, max_iters=2)
    assert r.accuracies[0] > 1 / 3
    assert (r.searches, r.converged) == (1, 0)


def test_failed_stage_is_a_failed_round(configs, tmp_path):
    with pytest.raises(workloads.Failed):
        _prune_with(configs, tmp_path, dataset=f"cifar10:{tmp_path}")


def test_prune_check_accepts_program_output(prune_out):
    out, cfg, seed = prune_out
    facts = checks.check_prune(out, seed, cfg)
    assert facts["accuracy"] > 1 / 3 and facts["train_epochs"] > 0


def _drop_channel(meta, arrays, consistent):
    arrays["conv3.w"] = arrays["conv3.w"][:-1]
    if consistent:
        arrays["conv4.w"] = arrays["conv4.w"][:, :-1]
        for part in ("gamma", "beta", "running_mean", "running_var"):
            arrays[f"bn3.{part}"] = arrays[f"bn3.{part}"][:-1]


def _set_accuracy(meta, arrays):
    meta["train_reports"][0]["test_accuracy"] = 1 / 3


def _gate_above_one(meta, arrays):
    arrays["gate_blob"] = arrays["gate_blob"].copy()
    arrays["gate_blob"][0, 0] = 1.01


def _claim_more_flops(meta, arrays):
    meta["search"]["achieved_flops"] += 1


@pytest.mark.parametrize("target,edit", [
    ("weights", lambda m, a: _drop_channel(m, a, consistent=False)),
    ("weights", lambda m, a: _drop_channel(m, a, consistent=True)),
    ("pkrun", _set_accuracy),
    ("pkrun", _gate_above_one),
    ("pkrun", _claim_more_flops),
], ids=["channel-dropped", "channel-dropped-everywhere", "chance-accuracy",
        "gate-above-one", "flops-claim"])
def test_prune_check_rejects(prune_out, tmp_path, target, edit):
    out, cfg, seed = prune_out
    broken = _broken_copy(out, tmp_path / "broken")
    magic = D.WEIGHTS_MAGIC if target == "weights" else D.RUN_MAGIC
    _rewrite(broken / f"run_s{seed}.{target}", magic, edit)
    with pytest.raises(CheckFailed):
        checks.check_prune(broken, seed, cfg)


def test_prune_check_rejects_missing_epoch(prune_out, tmp_path):
    out, cfg, seed = prune_out
    broken = _broken_copy(out, tmp_path / "broken")
    curve = broken / f"run_s{seed}_train.csv"
    curve.write_text("".join(curve.read_text().splitlines(True)[:-1]))
    with pytest.raises(CheckFailed):
        checks.check_prune(broken, seed, cfg)


def test_prune_check_rejects_flipped_byte(prune_out, tmp_path):
    out, cfg, seed = prune_out
    broken = _broken_copy(out, tmp_path / "broken")
    path = broken / f"run_s{seed}.weights"
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckFailed):
        checks.check_prune(broken, seed, cfg)


# ---------------------------------------------------------------------------
# structure-dw checks

@pytest.fixture(scope="module")
def structure(configs):
    wl = workloads.StructureDw(configs / "structure-dw.json")
    wl.open(Patches())
    result, _ = wl.learn(7)
    return result, wl.cfg


def _copy(result):
    return json.loads(json.dumps({k: v for k, v in result.items()
                                  if k != "gates"})) | {
        "gates": [g.copy() for g in result["gates"]]}


def test_structure_check_accepts_program_output(structure):
    result, cfg = structure
    assert 0 <= checks.check_structure(result, cfg) <= 1


def _swap_kept_channel(r):
    """Keep the same number of channels at the largest budget, but drop
    one the smallest budget keeps: MACs agree, nesting breaks."""
    small, large = r["searches"][0], r["searches"][-1]
    for j, (a, b) in enumerate(zip(small["kept_indices"],
                                   large["kept_indices"])):
        width = max(b) + 1
        spare = [c for c in range(width) if c not in b]
        if spare:
            large["kept_indices"][j] = sorted(
                [c for c in b if c != a[0]] + spare[:1])
            return
    raise AssertionError("no layer to break")


def _select_unqualified(r):
    assert min(r["sparsity"]) <= 0.5 < r["sparsity"][0]
    r["selected"] = 0


@pytest.mark.parametrize("edit", [
    lambda r: r.update(hash_after="0" * 64),
    lambda r: r["gates"][2].__setitem__(0, 1.01),
    lambda r: r["gates"][2].__setitem__(0, -0.01),
    lambda r: r["searches"][1].update(
        achieved_flops=r["searches"][1]["achieved_flops"] + 1),
    _swap_kept_channel,
    _select_unqualified,
], ids=["weights-changed", "gate-above-one", "gate-below-zero",
        "flops-claim", "not-nested", "unqualified-snapshot"])
def test_structure_check_rejects(structure, edit):
    result, cfg = structure
    broken = _copy(result)
    edit(broken)
    with pytest.raises(CheckFailed):
        checks.check_structure(broken, cfg)


# ---------------------------------------------------------------------------
# study-2seed checks

@pytest.fixture(scope="module")
def study_out(configs, tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    patches = Patches()
    try:
        wl, _ = _one_round(configs, "study-2seed", out, patches)
    finally:
        patches.restore()
    return out, wl.cfg, [7000, 7001], [dict(t) for t in wl.trained]


def test_study_check_accepts_program_output(study_out):
    out, cfg, seeds, trained = study_out
    facts = checks.check_study(out, seeds, cfg, trained)
    assert len(facts) == 4


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = change(rows[row][column])
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]),
                           lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


@pytest.mark.parametrize("name,row,column,change", [
    ("similarity_cross.csv", 0, "s7001:rand",
     lambda v: repr(float(v) - 1e-6)),
    ("similarity_seed7000.csv", 1, "s7000:rand",
     lambda v: repr(float(v) + 1e-6)),
    ("summary.csv", 1, "mean_acc", lambda v: repr(float(v) + 1e-9)),
    ("summary.csv", 0, "flops_ratio", lambda v: repr(float(v) * 1.01)),
    ("channels.csv", 3, "kept", lambda v: str(int(v) - 1)),
], ids=["cross-correlation", "seed-correlation", "summary-mean",
        "summary-flops", "channel-count"])
def test_study_check_rejects_edited_report(study_out, tmp_path, name, row,
                                           column, change):
    out, cfg, seeds, trained = study_out
    broken = _broken_copy(out, tmp_path / "broken")
    _edit_csv(broken / name, row, column, change)
    with pytest.raises(CheckFailed):
        checks.check_study(broken, seeds, cfg, trained)


@pytest.mark.parametrize("field,change", [
    ("epochs", lambda v: v + 1),
    ("test_accuracy", lambda v: 1 / 3),
])
def test_study_check_rejects_training(study_out, field, change):
    out, cfg, seeds, trained = study_out
    broken = [dict(t) for t in trained]
    broken[2][field] = change(broken[2][field])
    with pytest.raises(CheckFailed):
        checks.check_study(out, seeds, cfg, broken)


def test_pearson_matches_numpy():
    rng = np.random.default_rng(0)
    x, y = rng.random(8).tolist(), rng.random(8).tolist()
    assert checks.pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1],
                                                 abs=1e-12)
