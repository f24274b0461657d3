"""Threshold procedures and the realized false discovery proportion.

Two procedures are provided: the Benjamini-Hochberg step-up at level alpha,
whose data-driven threshold is the largest t with pooled-e.c.d.f. mass
G_m(t) >= t / alpha, and a fixed threshold t0, the simplest member of the
family of smooth threshold functionals (its derivative is zero, which makes
it useful for isolating the e.c.d.f. fluctuation term in the limit theory).

Each procedure carries its own behaviour: ``thresholds(p)`` thresholds the
rows of a p-value block, ``t_star(cdf)`` is the almost-sure limit of the
threshold under a mixture c.d.f., ``t_dot(cdf, t_star)`` the weight of its
threshold functional's derivative (a point mass at t*, or None when the
threshold does not depend on the data), and ``to_dict()`` its JSON view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import asymptotics
from .errors import DegenerateCrossingError, ParameterError
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

    def thresholds(self, p: np.ndarray) -> np.ndarray:
        """Row-wise step-up over a (B, m) array: alpha * k / m per row, with
        k = max{i : p_(i) <= i*alpha/m}, or 0.0 where no order statistic
        clears its line."""
        m = p.shape[1]
        below = np.sort(p, axis=1) <= self.alpha * np.arange(1, m + 1) / m
        k = np.where(below.any(axis=1), m - np.argmax(below[:, ::-1], axis=1), 0)
        return self.alpha * k / m

    def t_star(self, cdf) -> float:
        """The fixed point of G(t) = t / alpha."""
        return asymptotics.bh_fixed_point(cdf, self.alpha)

    def t_dot(self, cdf, t_star: float) -> float:
        """1 / (1/alpha - dG(t*)).

        The denominator is positive when G crosses the line t/alpha
        transversally; a nonpositive value means the crossing is tangential
        and the derivative does not exist (:class:`DegenerateCrossingError`).
        """
        denom = 1.0 / self.alpha - float(cdf.derivative(t_star))
        if denom <= 0.0:
            raise DegenerateCrossingError(
                f"tangential crossing at t*={t_star!r}: 1/alpha - dG(t*) = {denom!r} <= 0"
            )
        return 1.0 / denom

    def to_dict(self) -> dict:
        return {"kind": "bh", "alpha": self.alpha}


@dataclass(frozen=True)
class FixedThreshold:
    """Reject all p-values <= t, with t fixed in advance."""

    t: float

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise ParameterError(f"threshold must lie in (0, 1), got {self.t!r}")

    def thresholds(self, p: np.ndarray) -> np.ndarray:
        return np.full(p.shape[0], self.t)

    def t_star(self, cdf) -> float:
        return self.t

    def t_dot(self, cdf, t_star: float) -> None:
        """None: the threshold is constant in G, so its derivative is zero."""
        return None

    def to_dict(self) -> dict:
        return {"kind": "fixed", "t": self.t}


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


def bh_threshold(p: np.ndarray, alpha: float) -> float:
    """Data-driven BH threshold alpha * k / m, k = max{i : p_(i) <= i*alpha/m}.

    Returns 0.0 when no order statistic clears its line (no rejections).
    Equivalent to the functional definition max{t : G_m(t) >= t/alpha}; the
    step-up form is exact and O(m log m).
    """
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ParameterError("p-value vector must be nonempty")
    return float(BH(alpha).thresholds(p.reshape(1, -1))[0])


def _apply_procedure_rows(procedure: ThresholdProcedure, p: np.ndarray, tau: np.ndarray):
    """Run a procedure on every row of a (B, m) p-value array whose columns
    carry the truth labels `tau`.

    Returns the per-row arrays (threshold, rejected, false_rejections, fdp);
    ties at the threshold are rejected, and a row without rejections has
    FDP 0.
    """
    thresholds = procedure.thresholds(p)
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
