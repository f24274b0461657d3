"""Untimed verify pass: per_replicate_fdp hashes of the acceptance configs.

    python3 perfbench/verify.py

Runs the Monte Carlo configs that tests/test_acceptance.py pins -- c04
(theta = 0), c05 (theta = 4 and -1), c06 (case ii at m = 1e3 and 1e4) and
c07 (oracle and raw fixed rho = 0.3 at m = 5000 and 20000), all R = 4000 at
seed 20260808 -- and compares the sha256 of each per_replicate_fdp vector
with perfbench/reference.json.  A performance change that keeps every hash
is bit-identical on the acceptance suite without running it.  Exits 1 on
any mismatch.  About 30 s on 2 cores.
"""

from __future__ import annotations

import json
import sys

import run

run._import_program()

from equifdp import experiment  # noqa: E402
from equifdp.experiment import ExperimentConfig  # noqa: E402
from equifdp.model import FixedRho, ModelParams, PowerLaw, ThetaOverM  # noqa: E402
from equifdp.oracle import OracleParams  # noqa: E402
from equifdp.procedures import BH  # noqa: E402

from workloads import ALPHA, DEFAULT_SEED, MU, PI0, fdp_digest  # noqa: E402

REPLICATES = 4000
WORKERS = 2


def _config(m: int, seq, oracle: bool = False) -> ExperimentConfig:
    rho = seq.rho_at(m)
    params = ModelParams(m=m, pi0=PI0, mu=MU, rho=rho)
    return ExperimentConfig(
        params=OracleParams(params) if oracle else params,
        procedure=BH(ALPHA),
        rho_seq=None if oracle else seq,
        replicates=REPLICATES,
        seed=DEFAULT_SEED,
    )


def acceptance_configs() -> dict:
    return {
        "c04 theta=0 m=5000": _config(5000, ThetaOverM(0.0)),
        "c05 theta=4 m=5000": _config(5000, ThetaOverM(4.0)),
        "c05 theta=-1 m=5000": _config(5000, ThetaOverM(-1.0)),
        "c06 case-ii m=1000": _config(1000, PowerLaw(1.0, 0.5)),
        "c06 case-ii m=10000": _config(10_000, PowerLaw(1.0, 0.5)),
        "c07 oracle rho=0.3 m=5000": _config(5000, FixedRho(0.3), oracle=True),
        "c07 oracle rho=0.3 m=20000": _config(20_000, FixedRho(0.3), oracle=True),
        "c07 raw rho=0.3 m=5000": _config(5000, FixedRho(0.3)),
        "c07 raw rho=0.3 m=20000": _config(20_000, FixedRho(0.3)),
    }


def acceptance_hashes() -> dict:
    return {
        name: fdp_digest(experiment.run(config, workers=WORKERS).fdp)
        for name, config in acceptance_configs().items()
    }


def main() -> int:
    recorded = json.loads(run.REFERENCE.read_text())["acceptance"]
    got = acceptance_hashes()
    bad = 0
    for name, digest in got.items():
        ok = recorded.get(name) == digest
        bad += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {name:<30} {digest}")
    missing = sorted(set(recorded) - set(got))
    for name in missing:
        print(f"MISS {name}")
    print(f"{len(got) - bad} of {len(got)} acceptance hashes match")
    return 1 if bad or missing else 0


if __name__ == "__main__":
    sys.exit(main())
