"""Oracle rescaling of the statistics for fixed correlation rho in (0, 1).

With rho fixed, the raw FDP of the BH procedure keeps fluctuating at order
one however large m gets, because the common Gaussian factor never averages
out.  When pi0, mu, and rho are known exactly, subtracting the empirical mean
of the statistics removes that factor:

    x_tilde_i = sqrt(m / ((m-1) * (1 - rho))) * (x_i - mean(x) + (1-pi0)*mu)

The transformed vector is again exchangeable Gaussian with unit variances,
equi-correlation -1/(m-1), and mean shift scale*mu on the alternatives, so
the whole limit machinery applies with theta = -1 and the inflated shift
mu_tilde = mu / sqrt(1 - rho); the sqrt(m) convergence rate is restored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticLaw, MixtureCdf, asymptotic_law, bh_fixed_point
from .errors import ParameterError
from .model import ModelParams, Sample, ThetaOverM, _p_values
from .procedures import BH

__all__ = ["OracleParams", "transform", "t_star_rho", "oracle_law"]


@dataclass(frozen=True)
class OracleParams:
    """Known model parameters enabling the rescaling; requires rho in (0, 1)."""

    base: ModelParams

    def __post_init__(self):
        if not (0.0 < self.base.rho < 1.0):
            raise ParameterError(
                f"oracle transform requires rho in (0, 1), got {self.base.rho!r}"
            )

    @property
    def mu_tilde(self) -> float:
        """Limiting mean shift of the transformed alternatives."""
        return self.base.mu / np.sqrt(1.0 - self.base.rho)

    @property
    def rho_tilde(self) -> float:
        """Equi-correlation of the transformed vector, -1/(m-1)."""
        return -1.0 / (self.base.m - 1)

    @property
    def scale(self) -> float:
        """Standardizing factor sqrt(m / ((m-1) * (1-rho))); > 1 on (0, 1)."""
        m = self.base.m
        return float(np.sqrt(m / ((m - 1) * (1.0 - self.base.rho))))


def _rescale(x: np.ndarray, params: OracleParams) -> np.ndarray:
    """The oracle rescaling of statistics drawn from the base model, applied
    along the last axis, so a (B, m) block rescales row by row."""
    base = params.base
    return params.scale * (x - x.mean(axis=-1, keepdims=True) + (1.0 - base.pi0) * base.mu)


def transform(s: Sample, params: OracleParams) -> Sample:
    """Rescale a sample drawn from the base model; truth labels are kept.

    The transformed mean is scale * mu on alternatives and 0 on nulls, so
    transformed p-values are exactly uniform under the null.
    """
    if s.m != params.base.m:
        raise ParameterError(
            f"sample has m={s.m} but params specify m={params.base.m}"
        )
    x_t = _rescale(s.x, params)
    return Sample(tau=s.tau, x=x_t, p=_p_values(x_t))


def t_star_rho(base: ModelParams, alpha: float) -> float:
    """Fixed point t with pi0*t + (1-pi0)*P(Z >= q(t) - mu_tilde) = t/alpha,
    i.e. the BH fixed point of the transformed mixture."""
    params = OracleParams(base)
    return bh_fixed_point(MixtureCdf(base.pi0, params.mu_tilde), alpha)


def oracle_law(base: ModelParams, alpha: float) -> AsymptoticLaw:
    """Limit law of the transformed-FDP: sqrt(m)-rate normal with variance

        pi0*alpha**2*(1-t*)/t* - pi0**2*alpha**2 / (2*pi*t***2) * exp(-q(t*)**2)

    at t* = :func:`t_star_rho`.  Built through the generic pipeline with
    theta = -1 under the mu_tilde mixture; the law uses the limiting shift
    mu_tilde even though the exact per-m transform carries an extra
    sqrt(m/(m-1)) factor that vanishes in the limit.
    """
    params = OracleParams(base)
    cdf = MixtureCdf(base.pi0, params.mu_tilde)
    return asymptotic_law(cdf, BH(alpha), ThetaOverM(-1.0))
