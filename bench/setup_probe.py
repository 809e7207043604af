"""Set-up probe: import prunekit and build one workload's dataset.

    python3 bench/setup_probe.py <workload> <config.json>

run.py times this script from spawn to exit, so the figure covers
interpreter start, imports and dataset generation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prunekit import cli, data  # noqa: E402

workload, config = sys.argv[1], sys.argv[2]
if workload == "structure-dw":
    cfg = json.loads(Path(config).read_text())
    data.synth_suite(data.SynthSpec(**cfg["synth"]), cfg["data_seed"])
else:
    cli.resolve_dataset(cli.resolve_config(config))
