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

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .asymptotics import MixtureCdf
from .errors import EquifdpError, ParameterError
from .gaussian import _p_values

__all__ = [
    "ModelParams",
    "RngStream",
    "Sample",
    "ThetaOverM",
    "PowerLaw",
    "FixedRho",
    "RhoSequence",
    "sample",
]

_UINT64_MAX = 2**64 - 1


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
    cdf  -- the p-value mixture c.d.f. MixtureCdf(pi0, mu), which checks pi0 and mu

    As OracleParams does, it has a base (itself), a rho_seq (None, no regime
    of its own), a transform (the identity) and a rebuild ``at(m, rho)``.
    """

    m: int
    pi0: float
    mu: float
    rho: float
    cdf: MixtureCdf = field(init=False, repr=False, compare=False)
    rho_seq = None

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 2:
            raise ParameterError(f"m must be an integer >= 2, got {self.m!r}")
        cdf = MixtureCdf(self.pi0, self.mu)
        lo = -1.0 / (int(self.m) - 1)
        if not (lo <= self.rho <= 1.0):
            raise ParameterError(
                f"rho must lie in [{lo!r}, 1] for m={self.m}, got {self.rho!r}"
            )
        fields = dict(m=int(self.m), pi0=cdf.pi0, mu=cdf.mu, rho=float(self.rho), cdf=cdf)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
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

    @property
    def base(self) -> ModelParams:
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        return x

    def at(self, m: int, rho: float) -> ModelParams:
        return ModelParams(m=m, pi0=self.pi0, mu=self.mu, rho=rho)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream identified by (seed, stream_id).

    Identical pairs reproduce identical samples bit for bit on every platform;
    distinct stream_ids give statistically independent streams.  Replicate r
    of an experiment conventionally uses stream_id = r.  The stream is numpy's
    PCG64 seeded by ``SeedSequence(entropy=seed, spawn_key=(stream_id,))``,
    which :meth:`generator` builds; the kernel computes the seed sequence's
    words of many ids in bulk (see :func:`_stream_words`) and seeds PCG64
    from them.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not _is_int(v) or not (0 <= v <= _UINT64_MAX):
                raise ParameterError(f"{name} must be a 64-bit unsigned integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    def generator(self) -> np.random.Generator:
        seeds = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seeds))


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
        object.__setattr__(self, "theta", float(self.theta))

    def rho_at(self, m: int) -> float:
        return self.theta / m

    def a_m(self, m: int) -> float:
        return math.sqrt(m)

    def variance(self, sigma2: float, c: float) -> float:
        variance = sigma2 + self.theta * c * c
        if not math.isfinite(variance):
            raise ParameterError(
                f"case-i variance sigma2 + theta*c**2 is not finite at theta={self.theta!r}, "
                f"c**2={c * c!r}"
            )
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
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "gamma", float(self.gamma))

    def rho_at(self, m: int) -> float:
        rho = self.c * float(m) ** (-self.gamma)
        if rho == 0.0:
            raise ParameterError(
                f"rho_m = c * m**-gamma rounds to 0 at c={self.c!r}, gamma={self.gamma!r}, m={m}"
            )
        return rho

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
        object.__setattr__(self, "rho", float(self.rho))

    def rho_at(self, m: int) -> float:
        return self.rho

    def to_dict(self) -> dict:
        return {"kind": "fixed", "rho": self.rho}


RhoSequence = Union[ThetaOverM, PowerLaw, FixedRho]


# --- stream seeding ----------------------------------------------------------
#
# Stream (seed, id) is numpy's PCG64 seeded by
# SeedSequence(entropy=seed, spawn_key=(id,)).  Numpy builds one stream, and
# the seed's hash pool for all; the kernel computes the rest of the seed
# sequence for many ids in bulk: the spawn-key hashes and generate_state,
# with plain operators masked to 32 bits on uint64 arrays of ids.  PCG64
# seeds itself from those words.

_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of n successive hashes whose constant starts at
    `init` and is multiplied by `mult` before each use."""
    out, h = [], init
    for _ in range(n):
        out.append((h, h * mult & _MASK32))
        h = out[-1][1]
    return tuple(out)


# SeedSequence's hashmix: 4 hashes fill the pool of 4 words, 12 cross-mix it,
# then 4 per spawn-key word (at most 2); generate_state hashes 8 words
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 24)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
# the per-id hashes as (xor, multiplier) columns, one row per pool word (the
# 8 of generate_state hash the pool twice), so each hashes a (4, ids) array
_KEY_HASHES_1, _KEY_HASHES_2, _STATE_HASHES = (
    tuple(np.array(c, dtype=np.uint64)[:, None] for c in zip(*h))
    for h in (_HASH_A[16:20], _HASH_A[20:24], _HASH_B)
)


def _hash(value, consts):
    xor, mult = consts
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _stream_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """C-contiguous (ids, 4) uint64 array whose row i is
    ``SeedSequence(entropy=seed, spawn_key=(ids[i],)).generate_state(4,
    np.uint64)``, for a uint64 array of ids.  Seed and ids must lie in
    [0, 2**64).
    """
    # the keyed pool before its key: the seed's words, 0-padded to 4, hashed and mixed
    seed_pool = np.random.SeedSequence(int(seed)).pool.astype(np.uint64)[:, None]
    pool = _mix(seed_pool, _hash(ids & _MASK32, _KEY_HASHES_1))
    wide = ids >> 32  # an id of 2**32 or more has a second key word
    if wide.any():
        pool = np.where(wide > 0, _mix(pool, _hash(wide, _KEY_HASHES_2)), pool)
    w = _hash(np.tile(pool, (2, 1)), _STATE_HASHES)
    # 32-bit words paired low first; PCG64 reads each row raw from its buffer
    return np.ascontiguousarray((w[0::2] | w[1::2] << 32).T)


class _Words(ISeedSequence):
    """One row of :func:`_stream_words`, handed to PCG64, which runs its own
    srandom on it; the row must be a contiguous uint64 view."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _check_streams(seed: int, first: int, count: int) -> None:
    """RngStream's ParameterError unless streams (seed, first) through
    (seed, first + count - 1) all exist; checked before any is drawn."""
    RngStream(seed, first)
    RngStream(seed, first + count - 1)


# --- sampling ----------------------------------------------------------------


# float64 elements per block array: 256 KiB, so a block stays in cache and
# peak memory does not grow with R; at m = 1e3 a run slowed by a fifth from
# 32 to 49 rows per block (the README gives the sweep)
_BLOCK_ELEMS = 32768

# stream ids whose seed words one _stream_words call computes: enough to
# spread the call's fixed cost, few enough that memory does not grow with R
_STATE_CHUNK = 1024


def _draw_blocks(params, seed: int, first: int, n: int):
    """(lo, hi, params.transform(x)) of each block x of rows lo..hi-1 of n draws
    of params.base (ModelParams or OracleParams), row r from stream (seed, first + r).

    A block holds max(1, _BLOCK_ELEMS // m) rows.  Draw order is part of the
    reproducibility contract: each stream gives m variates for xi, then one for
    the common factor U, so a row's bits do not depend on its block.
    """
    base = params.base
    m, rho, mu, m0 = base.m, base.rho, base.mu, base.m0
    step = max(1, _BLOCK_ELEMS // m)
    chunk = step * max(1, _STATE_CHUNK // step)
    scale = math.sqrt(1.0 - rho)
    # the common factor vanishes at the boundary rho = -1/(m-1), where the
    # inner term 1 + (m-1)*rho rounds to 0 or 2**-53; it is >= 0 above it
    common_sd = 0.0 if rho == -1.0 / (m - 1) else math.sqrt((1.0 + (m - 1) * rho) / m)
    for c_lo in range(0, n, chunk):
        c_hi = min(c_lo + chunk, n)
        words = _stream_words(seed, np.arange(first + c_lo, first + c_hi, dtype=np.uint64))
        for lo in range(c_lo, c_hi, step):
            hi = min(lo + step, c_hi)
            x, u = np.empty((hi - lo, m)), np.empty((hi - lo, 1))
            for row, u_row, w in zip(x, u, words[lo - c_lo : hi - c_lo]):
                rng = np.random.Generator(np.random.PCG64(_Words(w)))
                rng.standard_normal(out=row)
                u_row[0] = rng.standard_normal()
            x -= x.mean(axis=1, keepdims=True)
            x *= scale
            x += common_sd * u
            x[:, m0:] += mu
            yield lo, hi, params.transform(x)


def sample(params: ModelParams, stream: RngStream) -> Sample:
    """Draw one instance of the model, nulls first: the one row of
    :func:`_draw_blocks` from `stream`, with its truth labels and p-values."""
    x = next(_draw_blocks(params, stream.seed, stream.stream_id, 1))[2][0]
    return Sample(tau=np.arange(params.m) >= params.m0, x=x, p=_p_values(x))
