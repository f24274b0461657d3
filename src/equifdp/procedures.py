"""Threshold procedures and the realized false discovery proportion.

Two procedures are provided: the Benjamini-Hochberg step-up at level alpha,
whose data-driven threshold is the largest t with pooled-e.c.d.f. mass
G_m(t) >= t / alpha, and a fixed threshold t0, the simplest member of the
family of smooth threshold functionals (its derivative is zero, which makes
it useful for isolating the e.c.d.f. fluctuation term in the limit theory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError
from .model import Sample

__all__ = [
    "BH",
    "FixedThreshold",
    "ThresholdProcedure",
    "RejectionResult",
    "bh_threshold",
    "apply_procedure",
    "fdp_at",
]


@dataclass(frozen=True)
class BH:
    """Benjamini-Hochberg step-up procedure at level alpha."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class FixedThreshold:
    """Reject all p-values <= t, with t fixed in advance."""

    t: float

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise ParameterError(f"threshold must lie in (0, 1), got {self.t!r}")


ThresholdProcedure = Union[BH, FixedThreshold]


@dataclass(frozen=True)
class RejectionResult:
    """Realized threshold, rejection counts, and FDP for one sample.

    fdp is false_rejections / max(rejected, 1); an empty rejection set gives
    FDP 0 by convention.
    """

    threshold: float
    rejected: int
    false_rejections: int
    fdp: float


def _bh_thresholds(p: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise step-up over a (B, m) array: alpha * k / m per row, with
    k = max{i : p_(i) <= i*alpha/m}, or 0.0 where no order statistic clears
    its line."""
    m = p.shape[1]
    below = np.sort(p, axis=1) <= alpha * np.arange(1, m + 1) / m
    k = np.where(below.any(axis=1), m - np.argmax(below[:, ::-1], axis=1), 0)
    return alpha * k / m


def bh_threshold(p: np.ndarray, alpha: float) -> float:
    """Data-driven BH threshold alpha * k / m, k = max{i : p_(i) <= i*alpha/m}.

    Returns 0.0 when no order statistic clears its line (no rejections).
    Equivalent to the functional definition max{t : G_m(t) >= t/alpha}; the
    step-up form is exact and O(m log m).
    """
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ParameterError("p-value vector must be nonempty")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(_bh_thresholds(p.reshape(1, -1), alpha)[0])


def _apply_procedure_rows(procedure: ThresholdProcedure, p: np.ndarray, tau: np.ndarray):
    """Run a procedure on every row of a (B, m) p-value array whose columns
    carry the truth labels `tau`.

    Returns the per-row arrays (threshold, rejected, false_rejections, fdp);
    ties at the threshold are rejected, and a row without rejections has
    FDP 0.
    """
    if isinstance(procedure, BH):
        thresholds = _bh_thresholds(p, procedure.alpha)
    elif isinstance(procedure, FixedThreshold):
        thresholds = np.full(p.shape[0], procedure.t)
    else:
        raise ParameterError(f"unknown procedure {procedure!r}")
    return (thresholds, *_tally_rows(p, tau, thresholds))


def _tally_rows(p: np.ndarray, tau: np.ndarray, thresholds: np.ndarray):
    rejected_mask = p <= thresholds[:, None]  # ties at the threshold are rejected
    rejected = np.count_nonzero(rejected_mask, axis=1)
    false_rej = np.count_nonzero(rejected_mask & ~tau, axis=1)
    return rejected, false_rej, false_rej / np.maximum(rejected, 1)


def apply_procedure(procedure: ThresholdProcedure, s: Sample) -> RejectionResult:
    """Run a procedure on a sample and tally the realized FDP."""
    threshold, rejected, false_rej, fdp = _apply_procedure_rows(procedure, s.p[None, :], s.tau)
    return RejectionResult(
        threshold=float(threshold[0]),
        rejected=int(rejected[0]),
        false_rejections=int(false_rej[0]),
        fdp=float(fdp[0]),
    )


def fdp_at(s: Sample, t: float) -> float:
    """False discovery proportion of the rejection set {i : p_i <= t}."""
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"t must lie in [0, 1], got {t!r}")
    _, _, fdp = _tally_rows(s.p[None, :], s.tau, np.array([t]))
    return float(fdp[0])
