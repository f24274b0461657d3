"""Equi-correlated Gaussian testing model and its O(m) sampler.

The model observes X_i = tau_i + Y_i for i = 1..m, where tau_i is 0 for a
true null and mu > 0 for an alternative, and (Y_1, ..., Y_m) is exchangeable
Gaussian with unit variances and common pairwise covariance rho.  One-sided
p-values are p_i = P(Z >= X_i).

Sampling never builds the m-by-m covariance matrix.  The exchangeable vector
is realized through its factor decomposition

    X_i = sqrt(1 - rho) * (xi_i - mean(xi)) + sqrt((1 + (m-1)*rho) / m) * U
          + mu * 1{tau_i > 0},

with xi_1, ..., xi_m, U i.i.d. standard normal.  The construction is exact
for every admissible rho in [-1/(m-1), 1], including the negative boundary
where the common-factor coefficient vanishes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .asymptotics import MixtureCdf
from .errors import EquifdpError, ParameterError
from .gaussian import phi_upper

__all__ = [
    "ModelParams",
    "RngStream",
    "Sample",
    "ThetaOverM",
    "PowerLaw",
    "FixedRho",
    "RhoSequence",
    "sample",
    "write_sample_csv",
]

_UINT64_MAX = 2**64 - 1

# smallest/largest p-values kept after clamping; downstream quantile calls
# require the open interval (0, 1)
_P_MIN = np.nextafter(0.0, 1.0)
_P_MAX = np.nextafter(1.0, 0.0)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ModelParams:
    """Model tuple (m, pi0, mu, rho).

    m    -- number of hypotheses, >= 2
    pi0  -- proportion of true nulls in (0, 1); the null count is floor(m*pi0)
            and both groups must be nonempty
    mu   -- positive mean shift under the alternative
    rho  -- equi-correlation, in [-1/(m-1), 1]
    cdf  -- the p-value mixture c.d.f. MixtureCdf(pi0, mu), which checks both
    """

    m: int
    pi0: float
    mu: float
    rho: float
    cdf: MixtureCdf = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 2:
            raise ParameterError(f"m must be an integer >= 2, got {self.m!r}")
        object.__setattr__(self, "cdf", MixtureCdf(self.pi0, self.mu))
        lo = -1.0 / (self.m - 1)
        if not (lo <= self.rho <= 1.0):
            raise ParameterError(
                f"rho must lie in [{lo!r}, 1] for m={self.m}, got {self.rho!r}"
            )
        m0 = self.m0
        if not (1 <= m0 <= self.m - 1):
            raise ParameterError(
                f"floor(m*pi0)={m0} leaves an empty group for m={self.m}; "
                "both nulls and alternatives must be nonempty"
            )

    @property
    def m0(self) -> int:
        """Number of true nulls, floor(m * pi0)."""
        return int(math.floor(self.m * self.pi0))


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream identified by (seed, stream_id).

    Identical pairs reproduce identical samples bit for bit on every platform;
    distinct stream_ids give statistically independent streams.  Replicate r
    of an experiment conventionally uses stream_id = r.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not _is_int(v) or not (0 <= v <= _UINT64_MAX):
                raise ParameterError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class Sample:
    """One realized instance: truth labels, statistics, p-values.

    tau[i] is False for a true null (shift 0) and True for an alternative
    (shift mu).  Nulls occupy indices 0..m0-1; the model is exchangeable
    within groups, so the fixed layout loses no generality and keeps FDP
    bookkeeping trivial.
    """

    tau: np.ndarray
    x: np.ndarray
    p: np.ndarray

    @property
    def m(self) -> int:
        return self.tau.size


# --- correlation sequences (asymptotic regime declarations) -----------------
#
# A sequence names its regime and the rate a_m of its normal limit, turns the
# two variance components (sigma2, c) into the limit variance, and gives its
# JSON view.  Fixed rho has no normal limit; its regime is None.


@dataclass(frozen=True)
class ThetaOverM:
    """rho_m = theta / m, the regime where m * rho_m stays bounded (case i):
    sqrt(m) * (FDP - center) -> N(0, sigma2 + theta * c**2)."""

    theta: float
    regime = "case_i"
    rate = "sqrt(m)"

    def __post_init__(self):
        if not (self.theta >= -1.0 and math.isfinite(self.theta)):
            raise ParameterError(f"theta must be finite and >= -1, got {self.theta!r}")

    def rho_at(self, m: int) -> float:
        return self.theta / m

    def a_m(self, m: int) -> float:
        return math.sqrt(m)

    def variance(self, sigma2: float, c: float) -> float:
        variance = sigma2 + self.theta * c * c
        if variance < 0.0:
            if variance < -1e-10:
                raise EquifdpError(
                    f"case-i variance sigma2 + theta*c**2 = {variance!r} is negative"
                )
            variance = 0.0
        return variance

    def to_dict(self) -> dict:
        return {"kind": "theta_over_m", "theta": self.theta}


@dataclass(frozen=True)
class PowerLaw:
    """rho_m = c * m**(-gamma) with 0 < gamma < 1: m*rho_m -> inf, rho_m -> 0
    (case ii): rho_m**-0.5 * (FDP - center) -> N(0, c_coef**2), whatever
    the constants."""

    c: float
    gamma: float
    regime = "case_ii"
    rate = "rho_m**-0.5"
    theta = None

    def __post_init__(self):
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ParameterError(f"c must be positive and finite, got {self.c!r}")
        if not (0.0 < self.gamma < 1.0):
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma!r}")

    def rho_at(self, m: int) -> float:
        return self.c * float(m) ** (-self.gamma)

    def a_m(self, m: int) -> float:
        return self.rho_at(m) ** -0.5

    def variance(self, sigma2: float, c: float) -> float:
        return c * c

    def to_dict(self) -> dict:
        return {"kind": "power_law", "c": self.c, "gamma": self.gamma}


@dataclass(frozen=True)
class FixedRho:
    """rho_m = rho constant in (0, 1).  No normal limit exists for the raw
    FDP in this regime; the oracle transform is the supported path."""

    rho: float
    regime = rate = theta = None

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ParameterError(f"fixed rho must lie in (0, 1), got {self.rho!r}")

    def rho_at(self, m: int) -> float:
        return self.rho

    def to_dict(self) -> dict:
        return {"kind": "fixed", "rho": self.rho}


RhoSequence = Union[ThetaOverM, PowerLaw, FixedRho]


# --- sampling ----------------------------------------------------------------


def _truth_labels(params: ModelParams) -> np.ndarray:
    """False for the m0 nulls at indices 0..m0-1, True for the alternatives
    after them."""
    return np.arange(params.m) >= params.m0


def _draw_block(params: ModelParams, seed: int, first: int, count: int) -> np.ndarray:
    """Statistics of `count` instances of the model, one per row of a
    (count, m) array; row i is drawn from stream (seed, first + i).

    Draw order is fixed as part of the reproducibility contract: each stream
    gives m variates for xi, then one for the common factor U.  A row is the
    same bit for bit whatever block it is drawn in.
    """
    m, rho = params.m, params.rho
    x = np.empty((count, m))
    u = np.empty((count, 1))
    for i, row in enumerate(x):
        rng = RngStream(seed, first + i).generator()
        rng.standard_normal(out=row)
        u[i] = rng.standard_normal()

    # inner term of the common-factor coefficient can round slightly negative
    # at the boundary rho = -1/(m-1)
    common_var = max(0.0, (1.0 + (m - 1) * rho) / m)
    x -= x.mean(axis=1, keepdims=True)
    x *= np.sqrt(1.0 - rho)
    x += np.sqrt(common_var) * u
    x[:, params.m0 :] += params.mu
    return x


def _p_values(x: np.ndarray) -> np.ndarray:
    """One-sided p-values P(Z >= x) of statistics of any shape.

    p-values that would round to exactly 0 or 1 are clamped to the nearest
    interior float so downstream quantile transforms stay defined.
    """
    p = phi_upper(x)
    np.clip(p, _P_MIN, _P_MAX, out=p)
    return p


def sample(params: ModelParams, stream: RngStream) -> Sample:
    """Draw one instance of the model using the exchangeable factor form:
    row 0 of :func:`_draw_block` from `stream`, with its p-values."""
    x = _draw_block(params, stream.seed, stream.stream_id, 1)[0]
    return Sample(tau=_truth_labels(params), x=x, p=_p_values(x))


def write_sample_csv(s: Sample, path) -> None:
    """Debug dump: one row per hypothesis with header ``index,tau,x,p``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "tau", "x", "p"])
        for i in range(s.m):
            writer.writerow([i, int(s.tau[i]), repr(float(s.x[i])), repr(float(s.p[i]))])
