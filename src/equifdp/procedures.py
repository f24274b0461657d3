"""Threshold procedures and the realized false discovery proportion.

Two procedures are provided: the Benjamini-Hochberg step-up at level alpha,
whose data-driven threshold is the largest t with pooled-e.c.d.f. mass
G_m(t) >= t / alpha, and a fixed threshold t0, the simplest member of the
family of smooth threshold functionals (its derivative is zero, which makes
it useful for isolating the e.c.d.f. fluctuation term in the limit theory).

Each procedure carries its own behaviour: ``thresholds(p)`` gives the
threshold of each row of a p-value block and the cut its tally counts at,
``t_star(cdf)`` is the almost-sure limit of the threshold under a mixture
c.d.f., ``t_dot(cdf, t_star)`` the weight of its threshold functional's
derivative (a point mass at t*, or None when the threshold does not depend
on the data), and ``to_dict()`` its JSON view.
``_apply_procedure_rows`` is the one row-wise step-up and tally of a
p-value block; ``_group_counts``, its count of each group's p <= cut, is
also the one count of the e.c.d.f. covariance probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import asymptotics
from .errors import DegenerateCrossingError, ParameterError

__all__ = ["BH", "FixedThreshold", "ThresholdProcedure"]


@dataclass(frozen=True)
class BH:
    """Benjamini-Hochberg step-up procedure at level alpha."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    def thresholds(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise step-up over a (B, m) array: per row (alpha * k / m,
        p_(k)) with k = max{i : p_(i) <= i*alpha/m} in exact arithmetic, or
        zeros where no order statistic clears its line.  The cut p_(k) rejects
        exactly k, even where the float alpha * k / m rounds below it."""
        m = p.shape[1]
        p = np.sort(p, axis=1)
        lines = self.alpha * np.arange(1, m + 1) / m
        # a float line lies within 3 ulp of i*alpha/m, inside a relative 2**-50:
        # only an order statistic that close needs an exact comparison
        slack = lines * 2.0**-50
        below = p <= lines + slack
        k = np.where(below.any(axis=1), m - np.argmax(below[:, ::-1], axis=1), 0)
        cut = p[np.arange(k.size), k - 1]
        # the largest candidate is exact unless it is that close to its line
        for r in np.flatnonzero((k > 0) & (cut > (lines - slack)[k - 1])):
            while k[r] and Fraction(p[r, k[r] - 1]) * m > Fraction(self.alpha) * int(k[r]):
                k[r] -= 1
            cut[r] = p[r, k[r] - 1]
        return self.alpha * k / m, np.where(k > 0, cut, 0.0)

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
        object.__setattr__(self, "t", float(self.t))

    def thresholds(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t, t) per row: the threshold is its own cut."""
        t = np.full(p.shape[0], self.t)
        return t, t

    def t_star(self, cdf) -> float:
        return self.t

    def t_dot(self, cdf, t_star: float) -> None:
        """None: the threshold is constant in G, so its derivative is zero."""
        return None

    def to_dict(self) -> dict:
        return {"kind": "fixed", "t": self.t}


ThresholdProcedure = Union[BH, FixedThreshold]


def _group_counts(p: np.ndarray, m0: int, cut):
    """(#{p <= cut} over the first `m0` columns, the true nulls of the
    model's nulls-first layout, and over the rest), per row of a (B, m)
    p-value array; `cut` is a scalar or one value per row."""
    below = p <= np.reshape(cut, (-1, 1))
    return np.count_nonzero(below[:, :m0], axis=1), np.count_nonzero(below[:, m0:], axis=1)


def _apply_procedure_rows(procedure: ThresholdProcedure, p: np.ndarray, m0: int):
    """Run a procedure on every row of a (B, m) p-value array whose first
    `m0` columns are the true nulls.

    Returns the per-row arrays (threshold, rejected, false_rejections, fdp);
    p-values at or below the procedure's cut are rejected, and a row without
    rejections has FDP 0.
    """
    thresholds, cuts = procedure.thresholds(p)
    false_rej, true_rej = _group_counts(p, m0, cuts)
    rejected = false_rej + true_rej
    return thresholds, rejected, false_rej, false_rej / np.maximum(rejected, 1)
