"""Every quick demo, and the README's library quickstart, runs to
completion against the current library.

``05_similarity_study.py`` is left out: it trains a three-seed study
and takes tens of seconds. It is only compiled, its study call is bound
to ``run_pretrain_effect_study``'s signature, and each ``bundle.<name>``
it reads is checked against ``StudyBundle``.
"""

import ast
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from prunekit import analysis as AN

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_autodiff_basics.py",
    "02_learn_channel_gates.py",
    "03_search_structure.py",
    "04_budget_training.py",
    "06_cli_pipeline.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_study_demo_compiles_and_reads_only_bundle_fields():
    path = ROOT / "demos" / "05_similarity_study.py"
    tree = ast.parse(path.read_text(), str(path))
    compile(tree, str(path), "exec")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "run_pretrain_effect_study"]
    assert len(calls) == 1
    inspect.signature(AN.run_pretrain_effect_study).bind(
        *calls[0].args, **{kw.arg: kw.value for kw in calls[0].keywords})
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "bundle"}
    assert read  # the demo reads the bundle it builds
    known = {f.name for f in fields(AN.StudyBundle)} | set(dir(AN.StudyBundle))
    assert sorted(read - known) == []


def test_readme_library_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # its gate settings reach r, so the snapshot fallback's
    # RuntimeWarning must not fire
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
