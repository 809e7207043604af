"""The whole pipeline through the command-line entry point.

Equivalent to:

    prunekit prune --budget 0.6 --seeds 0 --epochs 4 --out <dir>
    prunekit inspect <dir>/run_s0.pkrun

Every run leaves a run record (.pkrun), trained weights, and a
training-curve CSV behind; inspect reads them back.

    python3 demos/06_cli_pipeline.py
"""

import tempfile
from pathlib import Path

from prunekit import cli

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "runs"
    code = cli.main([
        "prune",
        "--budget", "0.6",
        "--seeds", "0",
        "--epochs", "4",
        "--out", str(out),
    ])
    print("\nexit code:", code)
    print("artifacts:", sorted(p.name for p in out.iterdir()))

    print("\n--- inspect ---")
    cli.main(["inspect", str(out / "run_s0.pkrun")])

    print("\n--- training curve (first lines) ---")
    for line in (out / "run_s0_train.csv").read_text().splitlines()[:5]:
        print(line)
