"""Oracle rescaling for fixed correlation rho in (0, 1) and its mixture.

With rho fixed, the raw FDP of the BH procedure keeps fluctuating at order
one however large m gets, because the common Gaussian factor never averages
out.  When pi0, mu, and rho are known exactly, subtracting the empirical mean
of the statistics removes that factor:

    x_tilde_i = sqrt(m / ((m-1) * (1 - rho))) * (x_i - mean(x) + (1-pi0)*mu)

The transformed vector is again exchangeable Gaussian with unit variances and
equi-correlation -1/(m-1); the alternatives' mean exceeds the nulls' by
scale*mu, and the nulls sit at delta = scale*mu*(floor(m*pi0)/m - pi0), 0 only
when m*pi0 is an integer.  The limit machinery applies with theta = -1 and the
inflated shift mu_tilde = mu / sqrt(1 - rho), and the sqrt(m) rate is restored.
:class:`OracleParams` carries that mixture, regime and rescaling; the law
ignores the extra sqrt(m/(m-1)) factor of the exact rescaling and the offset
delta, both of which vanish in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import MixtureCdf
from .errors import ParameterError
from .model import ModelParams, ThetaOverM

__all__ = ["OracleParams"]


@dataclass(frozen=True)
class OracleParams:
    """Known model parameters enabling the rescaling; requires rho in (0, 1).

    :meth:`transform` cancels terms of size mu: with u = 2**-53, its row mean
    rounds by up to (m - 1)*u*mu in the additions (in any order) and u*mu in
    the division, and x - mean, 1 - pi0, its product with mu, the sum and the
    product with scale by u*mu each, all times scale.  Where scale*(m + 5)*u*mu
    exceeds 1e-6 (a null's p-value moves by under 4e-7) the parameters are a
    ParameterError; this also keeps mu_tilde and the row sum finite.
    """

    base: ModelParams
    rho_seq = ThetaOverM(-1.0)  # the effective regime of the rescaled statistics

    def __post_init__(self):
        base = self.base
        if not (0.0 < base.rho < 1.0):
            raise ParameterError(f"oracle transform requires rho in (0, 1), got {base.rho!r}")
        rounding = self.scale * (base.m + 5) * 2.0**-53 * base.mu
        if not rounding <= 1e-6:
            raise ParameterError(
                f"mu={base.mu!r} is too large for the oracle rescaling at rho={base.rho!r} and "
                f"m={base.m}: its rounding may move a statistic by {rounding:.3g} > 1e-06"
            )

    @property
    def mu_tilde(self) -> float:
        """Limiting mean shift of the transformed alternatives."""
        return self.base.mu / math.sqrt(1.0 - self.base.rho)

    @property
    def cdf(self) -> MixtureCdf:
        """Limit mixture c.d.f. of the rescaled p-values, shift mu_tilde."""
        return MixtureCdf(self.base.pi0, self.mu_tilde)

    @property
    def scale(self) -> float:
        """Standardizing factor sqrt(m / ((m-1) * (1-rho))); > 1 on (0, 1)."""
        m = self.base.m
        return math.sqrt(m / ((m - 1) * (1.0 - self.base.rho)))

    def transform(self, x: np.ndarray) -> np.ndarray:
        """The oracle rescaling of statistics drawn from the base model, applied
        along the last axis, so a (B, m) block rescales row by row.  The mean
        is delta + scale*mu on the alternatives and, on the nulls, delta =
        scale*mu*(floor(m*pi0)/m - pi0) in (-scale*mu/m, 0]: null p-values are
        exactly uniform only when m*pi0 is an integer."""
        base = self.base
        return self.scale * (x - x.mean(axis=-1, keepdims=True) + (1.0 - base.pi0) * base.mu)

    def at(self, m: int, rho: float) -> OracleParams:
        return OracleParams(self.base.at(m, rho))
