"""Record the reference outputs the benchmark's gate compares against.

    python3 perfbench/record.py

Writes perfbench/reference.json: per workload, the output digest at the
default seed (every limit-law field for theory-grid), and the
per_replicate_fdp hashes of the acceptance-suite configs that verify.py
checks.  Run it only when a change is meant to alter outputs; the recorded
file is what proves that a performance change did not.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

run._import_program()

import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    refs = {"seed": seed, "workloads": {}, "acceptance": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, wl in workloads.WORKLOADS.items():
            refs["workloads"][name] = {"units": wl.reference_units,
                                       "digest": wl.reference_digest(seed, tmp)}
    refs["acceptance"] = verify.acceptance_hashes()
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
