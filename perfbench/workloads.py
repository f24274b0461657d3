"""The benchmark's workloads: the source paper's own experiments.

Each workload has the same shape:

* ``build(seed)`` makes the inputs from the seed (and is what the set-up
  time measures, in a fresh interpreter);
* ``execute(inputs, workers)`` is the timed operation;
* ``digest(inputs, result)`` reduces its output, untimed, to what the
  reference gate compares;
* ``failures(digest, reference)`` counts failed units against a reference;
* ``reference_digest(seed)`` is what record.py stores, covering
  ``reference_units`` units.

One operation covers ``units`` replicates (Monte Carlo) or laws (theory).
Sizes are chosen so one operation takes 0.1 to 3 s on a 2-core machine, so
a run holds many operations.

All workloads use pi0 = 0.5, mu = 2, alpha = 0.2 and BH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from equifdp import asymptotics, cli, experiment
from equifdp.asymptotics import MixtureCdf
from equifdp.experiment import ExperimentConfig
from equifdp.model import ModelParams, PowerLaw, ThetaOverM
from equifdp.oracle import OracleParams
from equifdp.procedures import BH

DEFAULT_SEED = 20260808
PI0, MU, ALPHA = 0.5, 2.0, 0.2

# the acceptance suite's pre-registered theory grid
PI0_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
MU_GRID = [0.5, 1.0, 2.0, 4.0]
ALPHA_GRID = [0.01, 0.05, 0.1, 0.2]
SEQUENCES = (ThetaOverM(0.0), ThetaOverM(4.0), PowerLaw(1.0, 0.5))

PROBE_GRID = [0.25, 0.5]

THEORY_REL_TOL = 1e-12  # special-function accuracy


def fdp_digest(fdp) -> str:
    """sha256 of the float64 bytes of a per-replicate FDP vector."""
    return hashlib.sha256(np.asarray(fdp, dtype=np.float64).tobytes()).hexdigest()


class MonteCarlo:
    """A Monte Carlo operation fails as a whole: its digest covers every replicate."""

    unit = "replicates"
    threaded = False  # True when the operation takes the CLI's --workers

    @property
    def reference_units(self) -> int:
        return self.units

    def reference_digest(self, seed: int, out=".") -> str:
        """The digest of one operation at `seed`, run at workers=1."""
        inputs = self.build(seed, out)
        return self.digest(inputs, self.execute(inputs, 1))

    def failures(self, digest, reference) -> int:
        return 0 if digest == reference else self.units


@dataclass(frozen=True)
class CliWorkload(MonteCarlo):
    """One ``oracle`` CLI command, its CSV and JSON writes included."""

    name: str
    command: tuple[str, ...]
    m: int
    units: int  # replicates per command
    threaded = True

    def argv(self, seed: int, workers: int, out) -> list[str]:
        return [
            *self.command,
            "--m", str(self.m),
            "--pi0", str(PI0), "--mu", str(MU), "--alpha", str(ALPHA),
            "--replicates", str(self.units),
            "--seed", str(seed),
            "--workers", str(workers),
            "--out", str(out),
        ]

    def build(self, seed: int, out=".") -> dict:
        """Parse the command line and build the config the CLI runs."""
        args = cli.build_parser().parse_args(self.argv(seed, 2, out))
        params = OracleParams(ModelParams(m=args.m, pi0=args.pi0, mu=args.mu, rho=args.rho))
        config = ExperimentConfig(
            params=params, procedure=BH(args.alpha), rho_seq=None,
            replicates=args.replicates, seed=args.seed,
        )
        return {"seed": seed, "out": Path(out), "config": config}

    def execute(self, inputs: dict, workers: int):
        out = inputs["out"] / f"w{workers}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(inputs["seed"], workers, out))
        return code, out

    def digest(self, inputs: dict, result) -> str:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        with (out / "summary.json").open() as fh:
            return fdp_digest(json.load(fh)["per_replicate_fdp"])


@dataclass(frozen=True)
class ProbeWorkload(MonteCarlo):
    """The empirical-process covariance probe (sequential, no threshold)."""

    name: str
    m: int
    units: int

    def build(self, seed: int, out=".") -> dict:
        return {"seed": seed, "params": ModelParams(m=self.m, pi0=PI0, mu=MU, rho=0.0)}

    def execute(self, inputs: dict, workers: int):
        return experiment.ecdf_covariance_probe(
            inputs["params"], grid=PROBE_GRID, replicates=self.units, seed=inputs["seed"]
        )

    def digest(self, inputs: dict, result) -> str:
        h = hashlib.sha256(np.ascontiguousarray(result.dev_null, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(result.dev_alt, dtype=np.float64).tobytes())
        return h.hexdigest()


def law_fields(law) -> list:
    d = law.to_dict()
    return [d[k] for k in ("regime", "theta", "t_star", "center", "c_coef", "sigma2", "variance", "rate")]


def _same_field(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= THEORY_REL_TOL * max(abs(a), abs(b))
    return a == b


@dataclass(frozen=True)
class TheoryWorkload:
    """The limit laws of the acceptance grid in a seed-shuffled order.

    One operation is the next ``units`` laws of that order, cycling over
    the grid, so operations stay short next to the host kernel that
    run.py times between them.
    """

    name: str
    units: int  # laws per operation
    unit = "laws"
    threaded = False

    @property
    def reference_units(self) -> int:
        return len(PI0_GRID) * len(MU_GRID) * len(ALPHA_GRID) * len(SEQUENCES)

    def build(self, seed: int, out=".") -> dict:
        cases = [
            (MixtureCdf(pi0, mu), BH(alpha), seq)
            for pi0 in PI0_GRID
            for mu in MU_GRID
            for alpha in ALPHA_GRID
            for seq in SEQUENCES
        ]
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        return {"seed": seed, "cases": cases, "order": order, "cursor": [0]}

    def execute(self, inputs: dict, workers: int):
        """Returns the grid indices, their laws and the per-call latencies in seconds."""
        cases, order, cursor = inputs["cases"], inputs["order"], inputs["cursor"]
        picked = [order[(cursor[0] + k) % len(order)] for k in range(self.units)]
        cursor[0] = (cursor[0] + self.units) % len(order)
        laws, latencies = [], []
        clock = time.perf_counter
        for i in picked:
            cdf, procedure, seq = cases[i]
            t0 = clock()
            laws.append(asymptotics.asymptotic_law(cdf, procedure, seq))
            latencies.append(clock() - t0)
        return picked, laws, latencies

    def digest(self, inputs: dict, result) -> list:
        """Law fields in grid order; None for the laws the operation did not run."""
        picked, laws, _ = result
        fields = [None] * len(inputs["cases"])
        for i, law in zip(picked, laws):
            fields[i] = law_fields(law)
        return fields

    def reference_digest(self, seed: int, out=".") -> list:
        """Every law of the grid, in grid order."""
        cases = self.build(seed, out)["cases"]
        return [law_fields(asymptotics.asymptotic_law(*case)) for case in cases]

    def failures(self, digest, reference) -> int:
        if len(digest) != len(reference):
            return self.units
        return sum(
            1
            for got, want in zip(digest, reference)
            if got is not None
            and (want is None or len(got) != len(want) or not all(map(_same_field, got, want)))
        )


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("oracle-m1e3", ("oracle", "--rho", "0.3"), m=1000, units=500),
        ProbeWorkload("probe-m1e4", m=10_000, units=200),
        TheoryWorkload("theory-grid", units=48),
    )
}

