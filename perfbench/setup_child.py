"""Set-up probe: a fresh interpreter imports equifdp.cli and builds one
workload's inputs.  run.py times it; usage: setup_child.py WORKLOAD SEED."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports equifdp.cli)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
