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

Replicates are processed in blocks of B = max(1, 16384 // m) rows: one
(B, m) array is drawn (row i from its own stream), rescaled in oracle mode,
turned into p-values once, and thresholded and tallied row by row.  The run
and the e.c.d.f. covariance probe share this block draw.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy import special

from ._version import __version__
from .asymptotics import AsymptoticLaw, asymptotic_law
from .errors import ParameterError, RegimeError
from .model import (
    ModelParams,
    RhoSequence,
    RngStream,
    _check_streams,
    _draw_block,
    _generator,
    _is_int,
    _p_values,
    _stream_states,
    _truth_labels,
)
from .oracle import OracleParams, _rescale
from .procedures import ThresholdProcedure, _apply_procedure_rows

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
]

# asymptotic 1% critical value of the one-sample KS statistic, scaled by sqrt(R)
KS_CRIT_1PCT = 1.63

_MIN_DIAGNOSTIC_R = 100

# float64 elements per block array: about 128 KB, so a block stays in cache
# and peak memory does not grow with R
_BLOCK_ELEMS = 16384

# stream ids whose PCG64 states one _stream_states call computes: enough to
# spread the call's fixed cost, few enough that memory does not grow with R
_STATE_CHUNK = 1024


def _block_rows(m: int) -> int:
    return max(1, _BLOCK_ELEMS // m)


def _blocks(seed: int, first: int, n: int, m: int):
    """(lo, hi, states) of each block of rows lo..hi-1 of n replicates, row
    r from stream (seed, first + r); the PCG64 states are computed once per
    chunk of whole blocks."""
    step = _block_rows(m)
    chunk = step * max(1, _STATE_CHUNK // step)
    for c_lo in range(0, n, chunk):
        c_hi = min(c_lo + chunk, n)
        states = _stream_states(seed, np.arange(first + c_lo, first + c_hi, dtype=np.uint64))
        for lo in range(c_lo, c_hi, step):
            yield lo, min(lo + step, c_hi), states[lo - c_lo : lo - c_lo + step]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run.

    params      -- ModelParams, or OracleParams to apply the rescaling before
                   thresholding
    procedure   -- BH(alpha) or FixedThreshold(t)
    rho_seq     -- declared correlation regime for law selection; None means
                   "no theory requested".  Never inferred from data: the
                   regime is a property of a sequence, not of one m.
    replicates  -- number of Monte Carlo replicates R
    seed        -- base seed; replicate r uses (seed, stream_offset + r)
    m_grid      -- optional increasing m values for rate studies
    """

    params: Union[ModelParams, OracleParams]
    procedure: ThresholdProcedure
    rho_seq: Optional[RhoSequence] = None
    replicates: int = 1000
    seed: int = 0
    m_grid: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ParameterError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        RngStream(self.seed)  # raises ParameterError unless a 64-bit unsigned integer
        base = self.base_params
        if isinstance(self.params, OracleParams) and self.rho_seq is not None:
            raise ParameterError("oracle mode fixes the regime; leave rho_seq unset")
        if self.rho_seq is not None:
            declared = self.rho_seq.rho_at(base.m)
            if not math.isclose(declared, base.rho, rel_tol=1e-12, abs_tol=1e-15):
                raise ParameterError(
                    f"rho_seq gives rho={declared!r} at m={base.m} but params carry "
                    f"rho={base.rho!r}"
                )
        if self.m_grid is not None:
            grid = tuple(self.m_grid)
            if len(grid) < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ParameterError("m_grid must be increasing with >= 3 points")
            for m in grid:
                _config_at_m(self, m)  # the model checks every point before any runs

    @property
    def base_params(self) -> ModelParams:
        return self.params.base if isinstance(self.params, OracleParams) else self.params

    @property
    def oracle_mode(self) -> bool:
        return isinstance(self.params, OracleParams)


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
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ParameterError("values must be a nonempty sample")
    if not (sd > 0.0 and math.isfinite(sd)):
        raise ParameterError(f"sd must be positive and finite, got {sd!r}")
    cdf = special.ndtr(x / sd)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def _fill_replicates(config: ExperimentConfig, first_stream: int, out) -> None:
    """Fill the per-replicate arrays `out` (threshold, rejected,
    false_rejections, fdp), row r from stream first_stream + r, block by
    block, with one generator."""
    base, rng = config.base_params, _generator()
    for lo, hi, states in _blocks(config.seed, first_stream, out[0].shape[0], base.m):
        x = _draw_block(base, rng, states)
        if config.oracle_mode:
            x = _rescale(x, config.params)
        rows = _apply_procedure_rows(config.procedure, _p_values(x), _truth_labels(base))
        for dst, src in zip(out, rows):
            dst[lo:hi] = src


def _law_for(
    config: ExperimentConfig,
) -> tuple[Optional[AsymptoticLaw], Optional[float], list[str]]:
    """(law, a_m, warnings) of a run; law and a_m are None together.

    The mixture is the params' own; oracle mode also takes its one effective
    regime, used for both the law and a_m, from the OracleParams.
    """
    regime = config.params.rho_seq if config.oracle_mode else config.rho_seq
    if regime is None:
        return None, None, ["no correlation regime declared; theory fields absent"]
    try:
        law = asymptotic_law(config.params.cdf, config.procedure, regime)
    except RegimeError as exc:
        return None, None, [f"regime warning: {exc}"]
    return law, regime.a_m(config.base_params.m), []


def run(config: ExperimentConfig, workers: int = 1, stream_offset: int = 0) -> ExperimentSummary:
    """Execute the replicated experiment; deterministic given config alone.

    `workers` threads split the replicate range into contiguous chunks, and
    each fills its chunk block by block (see the module docstring); an
    integer `workers` <= 1 runs in the calling thread.  Every replicate owns
    its own stream, and aggregation folds in replicate index order, so the
    summary is bit-identical for any worker count and block size.
    """
    if not _is_int(workers):
        raise ParameterError(f"workers must be an integer, got {workers!r}")
    R = config.replicates
    _check_streams(config.seed, stream_offset, R)
    out = (np.empty(R), np.empty(R, dtype=np.int64), np.empty(R, dtype=np.int64), np.empty(R))
    thresholds, rejected, false_rej, fdp = out

    def fill(lo, hi):
        _fill_replicates(config, stream_offset + lo, [a[lo:hi] for a in out])

    if workers <= 1:
        fill(0, R)
    else:
        edges = [R * i // workers for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, edges[:-1], edges[1:]))

    law, a_m, warnings = _law_for(config)

    mean_fdp = float(fdp.mean())
    var_fdp = float(fdp.var(ddof=1)) if R >= 2 else None

    scaled = None
    var_scaled = variance_ratio = ks = mc_se = None
    if law is not None:
        scaled = a_m * (fdp - law.center)
        if R >= 2:
            var_scaled = float(scaled.var(ddof=1))
        if R >= _MIN_DIAGNOSTIC_R and var_scaled is not None:
            mc_se = var_scaled * math.sqrt(2.0 / (R - 1))
            if law.variance > 0.0:
                variance_ratio = var_scaled / law.variance
                ks = ks_statistic_normal(scaled, math.sqrt(law.variance))
            else:
                warnings = list(warnings) + ["theory variance is zero; KS skipped"]
        elif R < _MIN_DIAGNOSTIC_R:
            warnings = list(warnings) + [
                f"R={R} < {_MIN_DIAGNOSTIC_R}: statistical diagnostics not reported"
            ]

    return ExperimentSummary(
        config=config,
        m=config.base_params.m,
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
        cols = ["m", "var_scaled", "theory_variance", "variance_ratio", "ks_statistic", "var_sqrtm"]
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in self.table():
                writer.writerow(["" if row[c] is None else repr(row[c]) for c in cols])


def _config_at_m(config: ExperimentConfig, m: int) -> ExperimentConfig:
    base = config.base_params
    rho = base.rho if config.rho_seq is None else config.rho_seq.rho_at(m)
    params = ModelParams(m=m, pi0=base.pi0, mu=base.mu, rho=rho)
    if config.oracle_mode:
        params = OracleParams(params)
    return replace(config, params=params, m_grid=None)


def rate_study(config: ExperimentConfig, workers: int = 1) -> RateStudyResult:
    """Run the experiment on every m of config.m_grid.

    Each row uses a disjoint block of stream ids (row j starts at
    j * replicates), so rows are statistically independent and the whole
    study is reproducible from the single seed.
    """
    if config.m_grid is None:
        raise ParameterError("rate_study requires m_grid")
    rows = []
    for j, m in enumerate(config.m_grid):
        cfg = _config_at_m(config, m)
        rows.append(run(cfg, workers=workers, stream_offset=j * config.replicates))
    return RateStudyResult(rows=tuple(rows))


# --- empirical-process covariance probe ---------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    """Per-replicate scaled e.c.d.f. deviations at grid points and their
    empirical covariance matrices for the null and alternative groups."""

    grid: np.ndarray
    dev_null: np.ndarray
    dev_alt: np.ndarray
    cov_null: np.ndarray
    cov_alt: np.ndarray


def ecdf_covariance_probe(
    params: ModelParams,
    grid,
    replicates: int,
    seed: int = 0,
    stream_offset: int = 0,
) -> ProbeResult:
    """Empirical covariances of sqrt(m) * (group e.c.d.f. - group c.d.f.)
    at the given thresholds, over independent replicates.

    Replicate r uses stream (seed, stream_offset + r), drawn in the same
    blocks as :func:`run`; each group e.c.d.f. is the count #{p <= g} over
    the group's columns divided by the group size.  Reports empirical
    numbers only; the matching theory kernels live in
    :func:`equifdp.asymptotics.ecdf_limit_cov`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ParameterError("grid must be a nonempty 1-d array inside (0, 1)")
    if not _is_int(replicates) or replicates < 2:
        raise ParameterError(
            f"replicates must be an integer >= 2 for a covariance, got {replicates!r}"
        )
    _check_streams(seed, stream_offset, replicates)
    g1 = np.asarray(params.cdf.alt_cdf(grid))
    m0 = params.m0
    counts0 = np.empty((replicates, grid.size), dtype=np.int64)
    counts1 = np.empty((replicates, grid.size), dtype=np.int64)
    rng = _generator()
    for lo, hi, states in _blocks(seed, stream_offset, replicates, params.m):
        p = _p_values(_draw_block(params, rng, states))
        for j, g in enumerate(grid):
            counts0[lo:hi, j] = np.count_nonzero(p[:, :m0] <= g, axis=1)
            counts1[lo:hi, j] = np.count_nonzero(p[:, m0:] <= g, axis=1)
    root_m = math.sqrt(params.m)
    dev0 = root_m * (counts0 / m0 - grid)
    dev1 = root_m * (counts1 / (params.m - m0) - g1)
    return ProbeResult(
        grid=grid,
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
    if summary.law is not None and summary.var_fdp is not None and R >= 2:
        band = 4.0 * math.sqrt(summary.var_fdp / R)
        if abs(summary.mean_fdp - summary.law.center) > band:
            out.append(
                f"|mean_fdp - center| = {abs(summary.mean_fdp - summary.law.center):.3e} "
                f"above {band:.3e}"
            )
    return out


def config_to_dict(config: ExperimentConfig) -> dict:
    base = config.base_params
    return {
        "m": base.m,
        "pi0": base.pi0,
        "mu": base.mu,
        "rho": base.rho,
        "oracle": config.oracle_mode,
        "procedure": config.procedure.to_dict(),
        "rho_seq": None if config.rho_seq is None else config.rho_seq.to_dict(),
        "replicates": config.replicates,
        "seed": config.seed,
        "m_grid": None if config.m_grid is None else list(config.m_grid),
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


def write_summary_json(summary: ExperimentSummary, path) -> None:
    with Path(path).open("w") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2)
        fh.write("\n")


def write_replicates_csv(summary: ExperimentSummary, path) -> None:
    """Per-replicate table with the frozen header
    ``replicate,fdp,scaled_deviation,threshold,rejected,false_rejections``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "fdp", "scaled_deviation", "threshold", "rejected", "false_rejections"]
        )
        for r in range(summary.fdp.size):
            scaled = "" if summary.scaled_deviations is None else repr(
                float(summary.scaled_deviations[r])
            )
            writer.writerow(
                [
                    r,
                    repr(float(summary.fdp[r])),
                    scaled,
                    repr(float(summary.thresholds[r])),
                    int(summary.rejected[r]),
                    int(summary.false_rejections[r]),
                ]
            )
