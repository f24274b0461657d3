"""Replicated Monte Carlo harness with theory comparison.

A run draws R independent samples (replicate r always uses stream_id
``stream_offset + r``, so results never depend on how work is split across
workers or blocks), applies the configured procedure, and aggregates the
scaled FDP deviations a_m * (FDP - center) against the predicted normal law:

* variance calibration: sample variance of the scaled deviations vs. the
  theory variance, with a moment-based Monte Carlo standard error;
* normality: one-sample Kolmogorov-Smirnov distance against the fully
  specified N(0, theory variance) -- the comparison normal is never fitted,
  otherwise a variance miscalibration would mask itself.

Raw FDP moments are always reported; theory fields are absent when no
regime is declared or when the declared regime has no normal limit (fixed
rho without the oracle transform).

Replicates are processed in blocks of B = max(1, 32768 // m) rows (256 KiB
of float64; model._BLOCK_ELEMS).  model._draw_blocks(params, ...) draws one
(B, m) array (row i from its own stream) and applies the params' transform
(the oracle rescaling, or the identity) itself; the run hands the block to
the procedure, which tallies each row on the statistics, and derives every
FDP from the tallies once, after the last block; the e.c.d.f. covariance
probe counts each grid point with a FixedThreshold, which holds its cut's
rounding band.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import special

from ._version import __version__
from .asymptotics import AsymptoticLaw, asymptotic_law
from .errors import ParameterError, RegimeError
from .model import ModelParams, RhoSequence, RngStream, Sample
from .model import _check_streams, _draw_blocks, _is_int
from .oracle import OracleParams
from .procedures import FixedThreshold, ThresholdProcedure

__all__ = [
    "ExperimentConfig",
    "ExperimentSummary",
    "ProbeResult",
    "RateStudyResult",
    "run",
    "rate_study",
    "ecdf_covariance_probe",
    "ks_statistic_normal",
    "check_tolerances",
    "write_replicates_csv",
    "summary_to_dict",
    "write_summary_json",
    "write_sample_csv",
]

# asymptotic 1% critical value of the one-sample KS statistic, scaled by sqrt(R)
KS_CRIT_1PCT = 1.63

_MIN_DIAGNOSTIC_R = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run.

    params      -- ModelParams, or OracleParams, whose transform rescales the
                   statistics before thresholding and whose rho_seq is the regime
    procedure   -- BH(alpha) or FixedThreshold(t)
    rho_seq     -- declared correlation regime for law selection; None means
                   "no theory requested".  Never inferred from data: the
                   regime is a property of a sequence, not of one m.
    replicates  -- number of Monte Carlo replicates R
    seed        -- base seed; replicate r uses (seed, stream_offset + r)

    A config describes one run at params' m; :func:`rate_study` takes its
    grid of m values as an argument.
    """

    params: ModelParams | OracleParams
    procedure: ThresholdProcedure
    rho_seq: Optional[RhoSequence] = None
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ParameterError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", RngStream(self.seed).seed)  # RngStream checks it
        base = self.params.base
        if self.params.rho_seq is not None and self.rho_seq is not None:
            raise ParameterError("oracle mode fixes the regime; leave rho_seq unset")
        if self.rho_seq is not None:
            declared = self.rho_seq.rho_at(base.m)
            if not math.isclose(declared, base.rho, rel_tol=1e-12, abs_tol=1e-15):
                raise ParameterError(
                    f"rho_seq gives rho={declared!r} at m={base.m} but params carry "
                    f"rho={base.rho!r}"
                )


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated output of one run; arrays are indexed by replicate."""

    config: ExperimentConfig
    m: int
    fdp: np.ndarray
    thresholds: np.ndarray
    rejected: np.ndarray
    false_rejections: np.ndarray
    law: Optional[AsymptoticLaw]
    a_m: Optional[float]
    scaled_deviations: Optional[np.ndarray]
    mean_fdp: float
    var_fdp: Optional[float]
    var_scaled: Optional[float]
    variance_ratio: Optional[float]
    ks_statistic: Optional[float]
    mc_se_variance: Optional[float]
    warnings: tuple[str, ...]

    @property
    def theory_variance(self) -> Optional[float]:
        return None if self.law is None else self.law.variance


def ks_statistic_normal(values: np.ndarray, sd: float) -> float:
    """One-sample KS distance of `values` from N(0, sd**2), fully specified."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0 or np.isnan(x).any():
        raise ParameterError("values must be a nonempty 1-d sample without NaN")
    x, n = np.sort(x), x.size
    if not (sd > 0.0 and math.isfinite(sd)):
        raise ParameterError(f"sd must be positive and finite, got {sd!r}")
    cdf = special.ndtr(x / sd)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def run(config: ExperimentConfig, workers: int = 1, stream_offset: int = 0) -> ExperimentSummary:
    """Execute the replicated experiment; deterministic given config alone.

    The law is the params' mixture under the declared regime, or else the
    params' own (OracleParams' theta = -1); it is solved before any
    replicate, so a law the library rejects fails first, and a regime with
    no normal limit leaves the theory fields absent with a warning.
    min(`workers`, R) threads split the replicate range into contiguous
    chunks, tallied block by block, and each FDP is derived once from the
    tallies (module docstring); an integer `workers` <= 1 runs in the calling thread.
    Every replicate owns its own stream, and aggregation folds in replicate
    index order, so the summary is bit-identical for any worker count and block size.
    """
    if not _is_int(workers):
        raise ParameterError(f"workers must be an integer, got {workers!r}")
    R = config.replicates
    workers = min(workers, R)
    _check_streams(config.seed, stream_offset, R)
    law, warnings = None, []
    regime = config.rho_seq or config.params.rho_seq
    if regime is None:
        warnings.append("no correlation regime declared; theory fields absent")
    else:
        try:
            law = asymptotic_law(config.params.cdf, config.procedure, regime)
        except RegimeError as exc:
            warnings.append(f"regime warning: {exc}")
    a_m = None if law is None else law.rho_seq.a_m(config.params.base.m)
    thresholds = np.empty(R)
    rejected, false_rej = np.empty(R, dtype=np.int64), np.empty(R, dtype=np.int64)

    def fill(lo, hi):
        # replicates lo..hi-1 from streams stream_offset + lo on, block by block
        for b_lo, b_hi, x in _draw_blocks(config.params, config.seed, stream_offset + lo, hi - lo):
            rows = slice(lo + b_lo, lo + b_hi)
            tally = config.procedure.tally(x, config.params.base.m0)
            thresholds[rows], rejected[rows], false_rej[rows] = tally
            del x  # not held while the next block is drawn and transformed

    if workers <= 1:
        fill(0, R)
    else:
        edges = [R * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, edges[:-1], edges[1:]))

    fdp = false_rej / np.maximum(rejected, 1)  # a replicate without rejections has FDP 0
    mean_fdp = float(fdp.mean())
    var_fdp = float(fdp.var(ddof=1)) if R >= 2 else None

    scaled = None
    var_scaled = variance_ratio = ks = mc_se = None
    if law is not None:
        scaled = a_m * (fdp - law.center)
        if R >= 2:
            var_scaled = float(scaled.var(ddof=1))
        if R >= _MIN_DIAGNOSTIC_R:
            mc_se = var_scaled * math.sqrt(2.0 / (R - 1))
            if law.variance > 0.0:
                variance_ratio = var_scaled / law.variance
                ks = ks_statistic_normal(scaled, math.sqrt(law.variance))
            else:
                warnings.append("theory variance is zero; KS skipped")
        else:
            warnings.append(f"R={R} < {_MIN_DIAGNOSTIC_R}: statistical diagnostics not reported")

    return ExperimentSummary(
        config=config,
        m=config.params.base.m,
        fdp=fdp,
        thresholds=thresholds,
        rejected=rejected,
        false_rejections=false_rej,
        law=law,
        a_m=a_m,
        scaled_deviations=scaled,
        mean_fdp=mean_fdp,
        var_fdp=var_fdp,
        var_scaled=var_scaled,
        variance_ratio=variance_ratio,
        ks_statistic=ks,
        mc_se_variance=mc_se,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class RateStudyResult:
    """Per-m summaries plus the auxiliary sqrt(m)-scaled variance column."""

    rows: tuple[ExperimentSummary, ...]

    def table(self) -> list[dict]:
        out = []
        for s in self.rows:
            out.append(
                {
                    "m": s.m,
                    "var_scaled": s.var_scaled,
                    "theory_variance": s.theory_variance,
                    "variance_ratio": s.variance_ratio,
                    "ks_statistic": s.ks_statistic,
                    "var_sqrtm": None if s.var_fdp is None else s.m * s.var_fdp,
                }
            )
        return out

    def write_csv(self, path) -> None:
        table = self.table()
        _write_csv(path, list(table[0]), [[row[k] for row in table] for k in table[0]])

    def to_dict(self) -> dict:
        """The study's summary.json: row 0's config with the grid, the table
        and each m's violations; field names are a frozen interface."""
        return {
            "version": __version__,
            "config": config_to_dict(self.rows[0].config) | {"m_grid": [s.m for s in self.rows]},
            "rows": self.table(),
            "tolerance_violations": {str(s.m): check_tolerances(s) for s in self.rows},
        }


def rate_study(config: ExperimentConfig, m_grid, workers: int = 1) -> RateStudyResult:
    """Run the experiment on every m of `m_grid`, increasing with >= 3 points.

    Row j is :func:`run` of the config at m_j, with rho from the declared
    regime (else params' rho), from stream j * replicates, so rows use
    disjoint blocks of stream ids, are statistically independent, and the
    whole study is reproducible from the single seed.  The config at every
    m is built before any row runs, so a point outside the model fails
    first; each row solves the config's law, which does not depend on m,
    and scales it by its own a_m.
    """
    grid = tuple(m_grid)
    if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("m_grid must be increasing with >= 3 points")
    params, rho_seq = config.params, config.rho_seq
    rhos = [params.base.rho if rho_seq is None else rho_seq.rho_at(m) for m in grid]
    configs = [replace(config, params=params.at(m, rho)) for m, rho in zip(grid, rhos)]
    R = config.replicates
    return RateStudyResult(rows=tuple(run(c, workers, j * R) for j, c in enumerate(configs)))


# --- empirical-process covariance probe ---------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    """Per-replicate scaled e.c.d.f. deviations at grid points and their
    empirical covariance matrices for the null and alternative groups."""

    dev_null: np.ndarray
    dev_alt: np.ndarray
    cov_null: np.ndarray
    cov_alt: np.ndarray


def ecdf_covariance_probe(
    params: ModelParams | OracleParams,
    grid,
    replicates: int,
    seed: int = 0,
    stream_offset: int = 0,
) -> ProbeResult:
    """Empirical covariances of sqrt(m) * (group e.c.d.f. - group c.d.f.)
    at the given thresholds, over independent replicates.

    Replicate r uses stream (seed, stream_offset + r) in :func:`run`'s blocks:
    model._draw_blocks(params, ...) draws them from params' base and applies
    params' transform; each group e.c.d.f. is the count #{p <= g} over the
    group's columns divided by the group size, centred at the grid (nulls)
    and at params' alternative c.d.f.  Reports empirical
    numbers only; the matching theory kernels live in
    :func:`equifdp.asymptotics.ecdf_limit_cov`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all((grid > 0.0) & (grid < 1.0)):
        raise ParameterError(f"grid must be a nonempty 1-d array inside (0, 1), got {grid!r}")
    if not _is_int(replicates) or replicates < 2:
        raise ParameterError(
            f"replicates must be an integer >= 2 for a covariance, got {replicates!r}"
        )
    _check_streams(seed, stream_offset, replicates)
    g1 = params.cdf.alt_cdf(grid)
    m, m0 = params.base.m, params.base.m0
    counts0 = np.empty((replicates, grid.size), dtype=np.int64)
    counts1 = np.empty((replicates, grid.size), dtype=np.int64)
    cuts = [FixedThreshold(g) for g in grid]
    for lo, hi, x in _draw_blocks(params, seed, stream_offset, replicates):
        for j, cut in enumerate(cuts):
            counts0[lo:hi, j], counts1[lo:hi, j] = cut.counts(x, m0)
        del x  # not held while the next block is drawn and transformed
    root_m = math.sqrt(m)
    dev0 = root_m * (counts0 / m0 - grid)
    dev1 = root_m * (counts1 / (m - m0) - g1)
    return ProbeResult(
        dev_null=dev0,
        dev_alt=dev1,
        cov_null=np.atleast_2d(np.cov(dev0.T)),
        cov_alt=np.atleast_2d(np.cov(dev1.T)),
    )


# --- tolerance checks and serialization ---------------------------------------


def check_tolerances(summary: ExperimentSummary) -> list[str]:
    """Calibration violations of a summary, empty when all checks pass.

    Variance: ratio within 1 +/- delta, delta = max(0.15, 4*mc_se/theory).
    Normality: KS below the asymptotic 1% critical value 1.63/sqrt(R).
    Center: |mean FDP - center| within 4 estimated standard errors.
    """
    out = []
    R = summary.fdp.size
    if summary.variance_ratio is not None:
        delta = max(0.15, 4.0 * summary.mc_se_variance / summary.theory_variance)
        if not (1.0 - delta <= summary.variance_ratio <= 1.0 + delta):
            out.append(
                f"variance_ratio {summary.variance_ratio:.4f} outside "
                f"[{1 - delta:.4f}, {1 + delta:.4f}]"
            )
    if summary.ks_statistic is not None:
        crit = KS_CRIT_1PCT / math.sqrt(R)
        if summary.ks_statistic > crit:
            out.append(f"ks_statistic {summary.ks_statistic:.4f} above {crit:.4f}")
    if summary.law is not None and summary.var_fdp is not None:
        band = 4.0 * math.sqrt(summary.var_fdp / R)
        if abs(summary.mean_fdp - summary.law.center) > band:
            out.append(
                f"|mean_fdp - center| = {abs(summary.mean_fdp - summary.law.center):.3e} "
                f"above {band:.3e}"
            )
    return out


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready echo of a config; `RateStudyResult.to_dict` fills in ``m_grid``."""
    base = config.params.base
    return {
        "m": base.m,
        "pi0": base.pi0,
        "mu": base.mu,
        "rho": base.rho,
        "oracle": config.params is not base,  # an OracleParams wraps its base
        "procedure": config.procedure.to_dict(),
        "rho_seq": None if config.rho_seq is None else config.rho_seq.to_dict(),
        "replicates": config.replicates,
        "seed": config.seed,
        "m_grid": None,
    }


def summary_to_dict(summary: ExperimentSummary) -> dict:
    """JSON-ready view of the summary; field names are a frozen interface."""
    return {
        "version": __version__,
        "config": config_to_dict(summary.config),
        "m": summary.m,
        "mean_fdp": summary.mean_fdp,
        "var_fdp": summary.var_fdp,
        "a_m": summary.a_m,
        "var_scaled": summary.var_scaled,
        "theory_variance": summary.theory_variance,
        "variance_ratio": summary.variance_ratio,
        "ks_statistic": summary.ks_statistic,
        "mc_se_variance": summary.mc_se_variance,
        "theory": None if summary.law is None else summary.law.to_dict(),
        "warnings": list(summary.warnings),
        "tolerance_violations": check_tolerances(summary),
        "per_replicate_fdp": summary.fdp.tolist(),
    }


def _write_json(path, obj) -> None:
    """`obj` as indented JSON; it is serialised before the file is opened,
    so a failed dump leaves no file."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _write_csv(path, header: list, columns) -> None:
    """A CSV table from its columns of numbers, as csv.writer writes it: the
    header, then one line per row, each ended by "\r\n", None as an empty
    field and a number as its str (numpy columns come through .tolist())."""
    cells = (["" if v is None else str(v) for v in c] for c in columns)
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    Path(path).write_text("\r\n".join(lines), newline="")


def write_summary_json(summary: ExperimentSummary, path) -> dict:
    """Writes summary_to_dict(summary) and returns it."""
    report = summary_to_dict(summary)
    _write_json(path, report)
    return report


def write_replicates_csv(summary: ExperimentSummary, path) -> None:
    """Per-replicate table with the frozen header
    ``replicate,fdp,scaled_deviation,threshold,rejected,false_rejections``."""
    header = ["replicate", "fdp", "scaled_deviation", "threshold", "rejected", "false_rejections"]
    R, scaled = summary.fdp.size, summary.scaled_deviations
    scaled = [None] * R if scaled is None else scaled.tolist()
    columns = (summary.fdp, summary.thresholds, summary.rejected, summary.false_rejections)
    fdp, thresholds, rejected, false_rej = (c.tolist() for c in columns)
    _write_csv(path, header, [range(R), fdp, scaled, thresholds, rejected, false_rej])


def write_sample_csv(s: Sample, path) -> None:
    """Debug dump: one row per hypothesis with header ``index,tau,x,p``."""
    columns = (s.tau.astype(int), s.x, s.p)
    _write_csv(path, ["index", "tau", "x", "p"], [range(s.m), *(c.tolist() for c in columns)])
