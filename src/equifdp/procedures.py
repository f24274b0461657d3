"""Threshold procedures and their tallies of rejections.

Two procedures are provided: the Benjamini-Hochberg step-up at level alpha,
whose data-driven threshold is the largest t with pooled-e.c.d.f. mass
G_m(t) >= t / alpha, and a fixed threshold t0, the simplest member of the
family of smooth threshold functionals (its derivative is zero, which makes
it useful for isolating the e.c.d.f. fluctuation term in the limit theory).

Each procedure carries its own behaviour: ``tally(x, m0)`` gives the
threshold, rejections and false rejections of each row of a block of
statistics whose first m0 columns are the true nulls, ``t_star(cdf)`` is the
almost-sure limit of the threshold under a mixture c.d.f., ``t_dot(cdf,
t_star)`` the weight of its threshold functional's derivative (a point mass
at t*, or None when the threshold does not depend on the data), and
``to_dict()`` its JSON view.  BH rejects the k largest statistics of a row,
or p <= p_(k) of a rational scan where its bands cannot settle the row; a
fixed threshold counts each group's p <= t (``counts``), which is also the
count of the e.c.d.f. covariance probe.  A procedure only decides and
counts: ``experiment.run`` derives each FDP from the tallies.

Every decision p <= g is made on the statistics, as x >= q(g) (q the
upper-tail quantile), and a p-value is computed only for a statistic inside
the rounding band of a cut (``gaussian._x_band``); the decisions are those of
the p-values ``gaussian._p_values(x)``, bit for bit.  Each procedure holds
its own bands, outside its value and views: a fixed threshold computes its
cut's band when it is built, and BH the bands of its m lines the first time
it tallies a block of width m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from . import asymptotics
from .errors import DegenerateCrossingError, ParameterError
from .gaussian import _p_values, _x_band

__all__ = ["BH", "FixedThreshold", "ThresholdProcedure"]


@dataclass(frozen=True)
class BH:
    """Benjamini-Hochberg step-up procedure at level alpha."""

    alpha: float
    # width m -> the bands (lo, hi) of the lines, in the order of ascending
    # statistics; two threads may both fill a new width, with equal values
    _bands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    def tally(self, x: np.ndarray, m0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-wise step-up over a (B, m) block of statistics whose first
        `m0` columns are the true nulls: per row (alpha * k / m, k, false
        rejections), k = max{i : p_(i) <= i*alpha/m} in exact arithmetic on
        the p-values p = _p_values(x), 0 where no order statistic clears its
        line; the k smallest p-values are rejected, however alpha*k/m rounds.

        The i-th largest statistic is compared with the band of line i.  k
        is the last line whose statistic clears lo, so none above k clears
        hi; where the k-th also clears hi_k, k is exact, and the k largest
        are rejected: the (k+1)-th lies below lo_(k+1) <= lo_k <= hi_k, so
        none ties with the k-th.  A row whose k-th lies inside its band takes
        k from :meth:`_step_up` and rejects p <= p_(k): p need not fall as x grows.
        """
        m = x.shape[1]
        if m not in self._bands:
            self._bands[m] = _x_band(self.alpha * np.arange(m, 0, -1) / m)
        lo, hi = self._bands[m]
        xs = np.sort(x, axis=1)  # column j: the (m - j)-th largest, against line m - j
        clears = xs >= lo
        k = np.where(clears.any(axis=1), m - np.argmax(clears, axis=1), 0)
        col = (m - k) % m  # the k-th largest's column; k = 0 rejects nothing
        kth = np.where(k > 0, xs[np.arange(k.size), col], np.inf)
        false_hits = x[:, :m0] >= kth[:, None]
        unsure = np.flatnonzero(kth < hi[col])
        if unsure.size:
            p = _p_values(x[unsure])
            k[unsure], cut = self._step_up(np.sort(p, axis=1))
            false_hits[unsure] = p[:, :m0] <= cut[:, None]
        return self.alpha * k / m, k, _row_counts(false_hits)

    def _step_up(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, p_(k)) per row of ascending p-values: k = max{i : p_(i)*m <=
        alpha*i}, the floats read as rationals, or 0 with p_(k) = 0.0."""
        m, alpha = p.shape[1], Fraction(self.alpha)
        k, cut = np.zeros(len(p), dtype=np.intp), np.zeros(len(p))
        for r, row in enumerate(p):
            for i, p_i in enumerate(row, 1):
                if Fraction(p_i) * m <= alpha * i:
                    k[r], cut[r] = i, p_i
        return k, cut

    def t_star(self, cdf) -> float:
        """The fixed point of G(t) = t / alpha."""
        return asymptotics.bh_fixed_point(cdf, self.alpha)

    def t_dot(self, cdf, t_star: float) -> float:
        """1 / (1/alpha - dG(t*)).

        The denominator is positive when G crosses the line t/alpha
        transversally; a nonpositive value means the crossing is tangential
        and the derivative does not exist (:class:`DegenerateCrossingError`).
        """
        denom = 1.0 / self.alpha - cdf.derivative(t_star)
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
    _band: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise ParameterError(f"threshold must lie in (0, 1), got {self.t!r}")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "_band", _x_band(self.t))

    def tally(self, x: np.ndarray, m0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, rejected, false rejections) per row: every p <= t is rejected."""
        false_rej, true_rej = self.counts(x, m0)
        return np.full(x.shape[0], self.t), false_rej + true_rej, false_rej

    def counts(self, x: np.ndarray, m0: int) -> tuple[np.ndarray, np.ndarray]:
        """(#{p <= t} over the first `m0` columns, over the rest) per row."""
        return _group_counts(x, m0, self.t, self._band)

    def t_star(self, cdf) -> float:
        return self.t

    def t_dot(self, cdf, t_star: float) -> None:
        """None: the threshold is constant in G, so its derivative is zero."""
        return None

    def to_dict(self) -> dict:
        return {"kind": "fixed", "t": self.t}


ThresholdProcedure = Union[BH, FixedThreshold]


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """The number of hits in each row of a (B, n) boolean array."""
    if hits.shape[0] < 8:
        # count_nonzero along an axis casts every element; while rows are few
        # and long, a flat count per row is up to three times faster
        return np.array([np.count_nonzero(r) for r in hits])
    return np.count_nonzero(hits, axis=1)


def _group_counts(x: np.ndarray, m0: int, cut: float, band: tuple):
    """(#{p <= cut} over the first `m0` columns, the true nulls of the
    model's nulls-first layout, and over the rest), per row of a (B, m)
    block of statistics with p-values p = _p_values(x); `cut` is one p-value
    in [0, 1] and `band` its _x_band(cut).  Decided as x >= q(cut); only the
    statistics inside the band get their p-value."""
    lo, hi = band
    below = x >= hi
    unsure = (x >= lo) != below
    if unsure.any():
        below[unsure] = _p_values(x[unsure]) <= cut
    return _row_counts(below[:, :m0]), _row_counts(below[:, m0:])

