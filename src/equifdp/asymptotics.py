"""Closed-form asymptotics for the FDP of threshold procedures.

Contents:

* :class:`MixtureCdf` -- the p-value mixture c.d.f.
  G(t) = pi0 * t + (1 - pi0) * G1(t), with G1(t) = P(Z >= q(t) - mu) and
  q(t) the upper-tail standard normal quantile, plus its density and the
  limiting FDP curve pi0 * t / G(t).
* :func:`bh_fixed_point` -- the unique t* in (0, 1) with G(t*) = t* / alpha,
  the almost-sure limit of the BH threshold, found by Brent's method.  The
  Brent step is an in-package port of scipy's (:func:`_brentq`) on plain
  floats: it keeps root-search failures inside :class:`BracketingError`, and
  no command has to import ``scipy.optimize`` for one root.
* :func:`fluctuation_weights` -- the FDP fluctuation is a linear functional
  of the two group e.c.d.f. fluctuations, and for BH and a fixed threshold
  both functionals are point masses at t*, with weights z0 and z1.
* :func:`variance_components` -- the two variance components of the
  limiting normal law as scalar formulas in z0 and z1, and
  :func:`asymptotic_law` putting them together per correlation regime:

      m * rho_m -> theta finite:   sqrt(m) * (FDP - center)        -> N(0, sigma2 + theta * c**2)
      m * rho_m -> inf, rho_m -> 0: rho_m**-0.5 * (FDP - center)   -> N(0, c**2)

* :func:`ecdf_limit_cov` -- the covariance kernel of the limiting group
  e.c.d.f. processes, used as an oracle by the empirical-process tests.

The procedure (``BH``, ``FixedThreshold``) supplies t* and the derivative
weight of its threshold functional, and the regime (``ThetaOverM``,
``PowerLaw``) its name, rate and variance; this module knows neither type.
Every quantity here is exact up to special-function accuracy; nothing is
estimated by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import cython_special as _cs

from .errors import BracketingError, FixedPointUnderflowError, ParameterError, RegimeError
from .gaussian import _SQRT2, _each, phi_upper_inv, std_normal_density

__all__ = [
    "MixtureCdf",
    "AsymptoticLaw",
    "bh_fixed_point",
    "fluctuation_weights",
    "variance_components",
    "asymptotic_law",
    "ecdf_limit_cov",
]

_ROOT_RTOL = 4 * float(np.finfo(float).eps)  # a float keeps Brent's roots floats
_TINY = float(np.finfo(float).tiny)
_RESIDUAL_TOL = 1e-12
_NEAR_ONE = ("alpha={!r} is within about (1 - pi0) * 1e-10 of 1 at pi0={!r}: t* then lies "
             "within 1e-10 of 1, where its sign-pattern check has no room")
_H_ROUNDING = 4 * float(np.finfo(float).eps)
_ROUNDED = ("alpha={!r} is so close to 1 at pi0={!r} that h = G(t) - t/alpha right of t* "
            "is within its rounding error {:.1e}: the sign-pattern check cannot tell its sign")
_LOG_MAX = float(np.log(np.finfo(float).max))  # np.exp overflows above it
_OVERFLOW = ("the alternative density exp(mu * q(t) - mu**2 / 2) overflows at t={!r} "
             "(mu={!r}): its exponent exceeds log(max float) = 709.78")
_G_ZERO = ("G(t) rounds to 0 at t={!r} (pi0={!r}, mu={!r}): G1(t) underflows and pi0 * t "
           "rounds to 0, so the limiting FDP pi0 * t / G(t) has no value there")


@dataclass(frozen=True)
class MixtureCdf:
    """Two-group p-value mixture c.d.f. with null weight pi0 and shift mu."""

    pi0: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.pi0 < 1.0):
            raise ParameterError(f"pi0 must lie in (0, 1), got {self.pi0!r}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ParameterError(f"mu must be positive and finite, got {self.mu!r}")
        object.__setattr__(self, "pi0", float(self.pi0))
        object.__setattr__(self, "mu", float(self.mu))

    def alt_cdf(self, t):
        """c.d.f. of a p-value under the alternative, P(Z >= q(t) - mu) with
        q the upper-tail quantile; >= t except where erfc underflows to 0
        (at t = 5e-324 for mu = 0.5).  Takes a float or an array, whose
        elements run the float path one by one.  The range check's two
        comparisons reject NaN.  ndtri maps 0 and 1 to -inf and inf, so the
        endpoints are fixed points of the one formula and need no mask.
        ndtri and erfc are ``cython_special``'s, the C kernels of the ufuncs
        of the same names, which
        ``test_gaussian.py::test_cython_special_kernels_are_the_ufuncs``
        pins bit for bit."""
        if type(t) is not float:
            return _each(self.alt_cdf, t)
        if not 0.0 <= t <= 1.0:
            raise ParameterError(f"t must lie in [0, 1], got {t!r}")
        return 0.5 * _cs.erfc((-_cs.ndtri(t) - self.mu) / _SQRT2)

    def alt_density(self, t):
        """Density of the alternative p-value law: exp(mu*q(t) - mu**2/2)
        with q the upper-tail quantile.  Defined on (0, 1); diverges at 0.
        Near the float maximum mu*q and mu**2 both overflow; inf - inf is
        NaN there, but q < mu/2, so the exponent's limit is -inf.  Takes a
        float or an array, whose elements run the float path one by one.
        Raises :class:`ParameterError` where the density overflows: the
        exponent can pass log(max float) only for subnormal t and mu near
        q(t) (at t = 5e-324 for mu between 30.71 and 46.22)."""
        if type(t) is not float:
            return _each(self.alt_density, t)
        v = self.mu * phi_upper_inv(t) - 0.5 * self.mu * self.mu
        if v > _LOG_MAX:
            raise ParameterError(_OVERFLOW.format(t, self.mu))
        return float(np.exp(-math.inf if math.isnan(v) else v))

    def __call__(self, t):
        if type(t) is not float:
            return _each(self, t)
        return self.pi0 * t + (1.0 - self.pi0) * self.alt_cdf(t)

    def derivative(self, t):
        """dG/dt = pi0 + (1 - pi0) * alt_density(t), for t in (0, 1)."""
        return self.pi0 + (1.0 - self.pi0) * self.alt_density(t)

    def fdp_limit(self, t):
        """Limiting FDP at threshold t: pi0 * t / G(t), with value 0 at t=0.
        Takes a float or an array.  Raises :class:`ParameterError` where
        G(t) rounds to 0 at t > 0 (t near the smallest float, mu small)."""
        if type(t) is not float:
            return _each(self.fdp_limit, t)
        g = self(t)  # rejects t outside [0, 1], NaN included
        if t > 0.0 and g == 0.0:
            raise ParameterError(_G_ZERO.format(t, self.pi0, self.mu))
        return self.pi0 * t / g if t > 0.0 else 0.0

    def fdp_limit_deriv(self, t):
        """Derivative of the limiting FDP curve:
        pi0 * (G(t) - t * dG(t)) / G(t)**2, for t in (0, 1).  Where G(t)**2
        falls below the normal floats (t below about 1e-154), losing digits
        or all of them, the numerator is divided by G(t) twice instead.
        Takes a float or an array.  Raises :class:`ParameterError` where
        G(t) rounds to 0, as :meth:`fdp_limit` does."""
        if type(t) is not float:
            return _each(self.fdp_limit_deriv, t)
        g = self(t)
        num = self.pi0 * (g - t * self.derivative(t))
        if g == 0.0:
            raise ParameterError(_G_ZERO.format(t, self.pi0, self.mu))
        gg = g * g
        return num / gg if gg >= _TINY else num / g / g


def _brentq(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), given
    fa = f(xa) and fb = f(xb) of opposite signs, or fb = 0.  A line-for-line
    port of scipy's ``brentq.c`` past its two end evaluations: it returns
    the same root after the same further evaluations of f as
    ``scipy.optimize.brentq``.  Returns the root and f there.

    Raises :class:`BracketingError` if maxiter steps do not converge.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise BracketingError(f"root search did not converge in {maxiter} iterations")


def bh_fixed_point(cdf: MixtureCdf, alpha: float) -> float:
    """Unique t* in (0, 1) with G(t*) = t* / alpha.

    h(t) = G(t) - t/alpha is positive near 0 (the alternative density
    diverges there, so t / G(t) -> 0) and negative near 1, and G is concave,
    so the crossing is unique.  For small mu and alpha the crossing can sit
    extremely far left, so the left bracket endpoint slides down
    geometrically until the sign is positive before Brent's method runs at
    full relative precision.  t* is solved down to about 1e-271 (9.3e-271 on
    the small-mu grid); below 1e-290 FixedPointUnderflowError is raised.
    Where t* lies so far below 1e-14 that the method runs out of steps, it
    runs again on the last slide step's bracket, a factor of 1e8 wide.
    Uniqueness is then checked on 16 points: h must be positive at 8
    geometric points from the left end to t*/2 and negative at 8 even
    points from t* + (1 - t*)/20 to 1 - 1e-10.  The points only decide
    signs, so :func:`_sign_grid` builds them in closed form on Python
    floats rather than as numpy's geomspace and linspace.  Every
    evaluation of G is a Python float, so a fixed point never takes the
    array adapter.

    Brent's method is the in-package :func:`_brentq`, a port of scipy's, on
    plain floats, handed the values of h at the bracket ends that the
    bracket search has sign-checked: its further evaluations of h, and so
    its roots, are scipy's bit for bit.  It keeps its failures inside
    :class:`BracketingError` and spares every command the import of
    ``scipy.optimize`` (about 23 MB of resident memory and 0.3 s).

    Raises :class:`ParameterError` if t* lies within 1e-10 of 1 (1 - t* is
    about (1 - alpha) / (1 - pi0)) or h right of t* reads >= 0 but within
    4 eps / alpha, a bound on its rounding near 1 (the three roundings of G
    and G1's few ulp, each below 1, plus half an ulp of 1/alpha);
    :class:`FixedPointUnderflowError` if h <= 0 down to 1e-290; and
    :class:`BracketingError` if h is NaN or the root search or sign-pattern
    check fails, which indicates a bug or a pathological parameter set.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    alpha = float(alpha)

    def h(t):
        v = cdf(t) - t / alpha
        if math.isnan(v):
            raise BracketingError(f"root search met NaN at t={t!r}")
        return v

    left, right = 1e-14, 1.0 - 1e-14
    h_right = h(right)
    if h_right >= 0.0:  # t* lies in [1 - 1e-14, 1)
        raise ParameterError(_NEAR_ONE.format(alpha, cdf.pi0))
    # the last slide step's bracket is [left, step]; h(step) <= 0
    step, h_step = right, h_right
    while (h_left := h(left)) <= 0.0:
        left, step, h_step = left * 1e-8, left, h_left
        if left < 1e-290:
            raise FixedPointUnderflowError(
                f"t* is below double range for pi0={cdf.pi0}, mu={cdf.mu}, "
                f"alpha={alpha}: the bracket search found G(t) - t/alpha <= 0 "
                f"down to 1e-290, so the fixed point underflows"
            )

    def solve(hi, h_hi):
        return _brentq(h, left, hi, h_left, h_hi, xtol=1e-300, rtol=_ROOT_RTOL, maxiter=300)

    try:
        root, h_root = solve(right, h_right)
    except BracketingError:
        # far below 1e-14, bisection on [left, 1) cannot reach t* in 300
        # steps; the last slide step brackets it within a factor 1e8
        if step == right:
            raise
        root, h_root = solve(step, h_step)

    residual = abs(h_root) / (root / alpha)
    if residual > _RESIDUAL_TOL:
        raise BracketingError(f"fixed-point relative residual {residual:.3e} exceeds tolerance")
    if root >= 1.0 - 1e-10:
        raise ParameterError(_NEAR_ONE.format(alpha, cdf.pi0))

    # uniqueness pattern: h > 0 strictly left of the root, h < 0 strictly right
    signs = [cdf(t) - t / alpha for t in _sign_grid(left, root)]
    if any(v <= 0.0 for v in signs[:8]):
        raise BracketingError("sign pattern left of the fixed point is not positive")
    if (right := max(signs[8:])) >= 0.0:
        if right <= _H_ROUNDING / alpha:
            raise ParameterError(_ROUNDED.format(alpha, cdf.pi0, _H_ROUNDING / alpha))
        raise BracketingError("sign pattern right of the fixed point is not negative")
    return root


def _sign_grid(left: float, root: float) -> list[float]:
    """The 16 points of the sign-pattern check: 8 geometric points from
    `left` to root/2, then 8 even points from root + (1 - root)/20 to
    1 - 1e-10, both in closed form on the exponents k/7, k = 0..7."""
    start, ratio = root + 0.05 * (1.0 - root), root * 0.5 / left
    return [left * ratio ** (k / 7) for k in range(8)] + [
        start + (1.0 - 1e-10 - start) * (k / 7) for k in range(8)
    ]


# --- point-mass weights and the two variance components ---------------------


def fluctuation_weights(
    cdf: MixtureCdf, t_star: float, t_dot: Optional[float] = None
) -> tuple[float, float]:
    """Weights (z0, z1) of the point masses at t* that send the limiting
    e.c.d.f. fluctuations of the null and the alternative group to the FDP
    fluctuation.

    With q(t) = pi0*t/G(t) and w = q(t*) * (1 - q(t*)):

        z0 =  w / t*     + q'(t*) * pi0       * Tdot
        z1 = -w / G1(t*) + q'(t*) * (1 - pi0) * Tdot

    where Tdot (`t_dot`) is the weight of the threshold functional's
    derivative, itself a point mass at t*.  A fixed threshold is constant in
    G and passes None: it adds no Tdot term, and q' (whose G**2 underflows
    for thresholds near 0) is not evaluated.  For BH the two parts of z1
    cancel exactly and z0 collapses to pi0*alpha/t*.

    Raises :class:`ParameterError` if pi0 * t* is subnormal: the center
    pi0*t*/G(t*) then loses digits or all of them, and G1(t*) may be 0.
    """
    if not (0.0 < t_star < 1.0):
        raise ParameterError(f"t_star must lie in (0, 1), got {t_star!r}")
    if cdf.pi0 * t_star < _TINY:
        raise ParameterError(
            f"pi0 * t* underflows below the normal floats at t_star={t_star!r}, "
            f"pi0={cdf.pi0!r}"
        )
    t_star = float(t_star)
    q = cdf.fdp_limit(t_star)
    w = q * (1.0 - q)
    z0, z1 = w / t_star, -w / cdf.alt_cdf(t_star)
    if t_dot is not None:
        qdot, t_dot = cdf.fdp_limit_deriv(t_star), float(t_dot)
        z0 += qdot * cdf.pi0 * t_dot
        z1 += qdot * (1.0 - cdf.pi0) * t_dot
    return z0, z1


def variance_components(
    cdf: MixtureCdf, t_star: float, z0: float, z1: float
) -> tuple[float, float]:
    """The common-factor coefficient c and the e.c.d.f. variance sigma2 of
    the point masses z0, z1 at t* (q the upper-tail quantile):

        c      = z0 * density(q(t*)) + z1 * density(q(t*) - mu)
        sigma2 = z0**2 * t*(1 - t*) / pi0 + z1**2 * G1(t*)(1 - G1(t*)) / (1 - pi0)

    The two variance terms are the Brownian-bridge variances of the group
    e.c.d.f.s at t* (the second under the time change G1).  c**2 is the
    case-(ii) limit variance.

    Raises :class:`ParameterError` if, for a nonzero z0, the null term's
    product z0 * t*(1 - t*) * z0, of order pi0**2, or a nonzero c**2 falls
    below the normal floats (at BH(0.2) and mu = 2, pi0 below about
    1e-154): sigma2 or c**2 would then lose digits or all of them.  A c**2
    that rounds to 0 is a zero case-(ii) variance, for which a run skips
    its KS.
    """
    t_star, z0, z1 = float(t_star), float(z0), float(z1)
    z = phi_upper_inv(t_star)
    c = z0 * std_normal_density(z) + z1 * std_normal_density(z - cdf.mu)
    g1 = cdf.alt_cdf(t_star)
    # (z * k) * z with k = t - t*t: the pinned law digests depend on this order
    null_term = z0 * (t_star - t_star * t_star) * z0
    if (z0 != 0.0 and null_term < _TINY) or 0.0 < c * c < _TINY:
        raise ParameterError(
            f"a variance component underflows below the normal floats at pi0={cdf.pi0!r}, "
            f"t_star={t_star!r}: z0**2 * t*(1 - t*) = {null_term:.1e}, c**2 = {c * c:.1e}"
        )
    null_term /= cdf.pi0
    alt_term = z1 * (g1 - g1 * g1) * z1 / (1.0 - cdf.pi0)
    return c, null_term + alt_term


@dataclass(frozen=True, slots=True)
class AsymptoticLaw:
    """Limit law a_m * (FDP - center) -> N(0, variance) under the
    correlation sequence ``rho_seq``.

    The record holds what the law is made of: the sequence, t*, the
    mixture and the two variance components.  The sequence holds the
    regime, theta and the rate a_m, which a caller reads from
    ``law.rho_seq``, and turns (sigma2, c_coef) into the variance: regime
    "case_i" means m*rho_m -> theta finite and a_m = sqrt(m) with variance
    sigma2 + theta * c_coef**2; regime "case_ii" means m*rho_m -> inf with
    rho_m -> 0, a_m = rho_m**-0.5 and variance c_coef**2.  The center is
    the mixture's limiting FDP at t*, computed on access; for BH it equals
    pi0 * alpha.  A law is built only with a variance its sequence accepts.
    """

    rho_seq: object  # the correlation sequence, ThetaOverM or PowerLaw
    t_star: float
    cdf: MixtureCdf
    c_coef: float
    sigma2: float

    def __post_init__(self):
        self.variance  # a negative case-i variance raises here

    @property
    def center(self) -> float:
        return self.cdf.fdp_limit(self.t_star)

    @property
    def variance(self) -> float:
        return self.rho_seq.variance(self.sigma2, self.c_coef)

    def to_dict(self) -> dict:
        return {
            "regime": self.rho_seq.regime,
            "theta": self.rho_seq.theta,
            "t_star": self.t_star,
            "center": self.center,
            "c_coef": self.c_coef,
            "c_squared": self.c_coef**2,
            "sigma2": self.sigma2,
            "variance": self.variance,
            "rate": self.rho_seq.rate,
        }


def asymptotic_law(cdf: MixtureCdf, procedure, rho_seq) -> AsymptoticLaw:
    """Assemble the limit law of the scaled FDP for a procedure (``BH`` or
    ``FixedThreshold``) and a correlation regime (``ThetaOverM`` or
    ``PowerLaw``); t* is solved once.

    Raises :class:`RegimeError` for a fixed rho in (0, 1), before any fixed
    point is solved: the FDP then does not concentrate around its mean at
    all, and no normal limit of this form exists.  The oracle-transform path
    handles that setting.
    """
    if rho_seq.regime is None:
        raise RegimeError(
            "no normal limit for fixed rho in (0, 1): the FDP does not "
            "concentrate; use the oracle transform for known model parameters"
        )
    t_star = procedure.t_star(cdf)
    z0, z1 = fluctuation_weights(cdf, t_star, procedure.t_dot(cdf, t_star))
    c, sigma2 = variance_components(cdf, t_star, z0, z1)
    return AsymptoticLaw(
        rho_seq=rho_seq,
        t_star=t_star,
        cdf=cdf,
        c_coef=c,
        sigma2=sigma2,
    )


# --- covariance kernel of the limiting e.c.d.f. processes ---------------------


def ecdf_limit_cov(cdf: MixtureCdf, theta: float, group: str, s: float, t: float) -> float:
    """Assembled limit covariance of the scaled e.c.d.f. fluctuation
    sqrt(m) * (G_hat_group(t) - G_group(t)) in the m*rho_m -> theta regime.

    The limit process for a group is (bridge) - (Z - sqrt(1+theta) U) * D,
    where D(t) is the group's density kernel, cov(Z, bridge(t)) = D(t) and
    var(Z - sqrt(1+theta) U) = 2 + theta.  Expanding, the two cross terms
    contribute -2 D(s) D(t) and the factor term (2 + theta) D(s) D(t), so the
    net correction over the bare bridge kernel is theta * D(s) * D(t).  The
    groups ("null", "alt") have

    * null: bridge pi0**-1 * (min(s,t) - s*t), D(t) = density(q(t));
    * alt:  bridge (1-pi0)**-1 * (G1(min(s,t)) - G1(s)*G1(t)),
      D(t) = density(q(t) - mu);

    q the upper-tail quantile.  The two group bridges are independent of
    each other, and the extra disturbance factor is independent of both.
    """
    if not (0.0 < s < 1.0 and 0.0 < t < 1.0):
        raise ParameterError(f"s, t must lie in (0, 1), got {(s, t)!r}")
    if not (theta >= -1.0 and math.isfinite(theta)):
        raise ParameterError(f"theta must be finite and >= -1, got {theta!r}")
    s, t, theta = float(s), float(t), float(theta)
    if group == "null":
        bridge, shift = (min(s, t) - s * t) / cdf.pi0, 0.0
    elif group == "alt":
        g1s, g1t = cdf.alt_cdf(s), cdf.alt_cdf(t)
        bridge, shift = (cdf.alt_cdf(min(s, t)) - g1s * g1t) / (1.0 - cdf.pi0), cdf.mu
    else:
        raise ParameterError(f"group must be 'null' or 'alt', got {group!r}")
    d_s = std_normal_density(phi_upper_inv(s) - shift)
    d_t = std_normal_density(phi_upper_inv(t) - shift)
    return bridge + theta * d_s * d_t
