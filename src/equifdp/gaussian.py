"""Standard Gaussian tail, quantile, and density functions, and what their
accuracy decides: clamped p-values and the rounding band of a cut.

Every function in this package uses the upper-tail convention: ``phi_upper(z)``
is P(Z >= z) for Z ~ N(0, 1), and ``phi_upper_inv`` is its inverse.  The
lower-tail c.d.f. is deliberately not exposed; mixing conventions is the main
source of sign bugs in this kind of code.

Accuracy notes (checked against 60-digit reference values).  A relative
error e in z moves P(Z >= z) by a relative e * (z**2 + 1) at most, the
tail's conditioning |d log P / d log z| bounded by Mills' ratio.  Relative
error of ``phi_upper`` is below z**2 * 2**-51 + 2**-48 < 2**-40 wherever the
result is a normal float (|z| <= 37.5), 6.1e-13 at |z| = 37: the roundings
of the argument z / sqrt(2) and of erfc's exp(-z**2 / 2) are amplified that
way.  Results below the smallest normal float are only absolutely accurate
and underflow to 0 near z = 37.7, which is the documented behavior for the
far tail.  ``phi_upper_inv`` is accurate to a few ulps (2**-50) over
[5e-324, 1 - 1e-16], so P(Z >= q) of its result q is within a relative
2**-39 of t.

``phi_upper_inv`` and ``std_normal_density`` are written for one Python
float, checked with plain comparisons and ``math.isfinite``.  Anything else
(numpy's float64, a 0-d or n-d array, a list) goes through :func:`_each`,
which calls the float path on each element, so a formula has one body.  The
float path calls the special functions of ``scipy.special.cython_special``,
which return Python floats, and does its arithmetic on Python floats.  The
Monte Carlo path (``phi_upper``, ``_x_band``) calls the ufuncs of
``scipy.special`` on whole arrays.  Both run the same C kernels, and
``tests/test_gaussian.py::test_cython_special_kernels_are_the_ufuncs`` pins
ndtri and erfc bit for bit on a fixed point set, so a scipy whose two
differ fails there rather than parting the limit laws from the runs.
``math.exp`` and ``math.erfc`` would not match the ufuncs (their last bits
can differ), so ``std_normal_density`` calls ``np.exp``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.special import cython_special as _cs

from .errors import ParameterError

__all__ = ["phi_upper", "phi_upper_inv", "std_normal_density"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_DENSITY_ZERO_FROM = 40.0


def _each(f, t):
    """f, a function of one Python float, on each element of t: an array of
    t's shape, or a Python float where t is 0-d or a numpy scalar.  An
    element f rejects raises as f raises it, the first one in C order."""
    arr = np.asarray(t, dtype=float)
    values = [f(x) for x in arr.ravel().tolist()]
    return np.array(values, dtype=float).reshape(arr.shape) if arr.ndim else values[0]


def phi_upper(z):
    """Upper-tail probability P(Z >= z) of a standard normal.

    Accepts a scalar or array; returns the same shape.  Values beyond the
    representable tail underflow to exactly 0.0 (z large positive) or round
    to 1.0 (z large negative).
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"z must be finite, got {z!r}")
    out = 0.5 * special.erfc(arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def phi_upper_inv(t):
    """Upper-tail quantile: the z with P(Z >= z) = t, for t in (0, 1).

    Inverse of :func:`phi_upper`.  Takes a float or an array.  Raises
    :class:`ParameterError` outside (0, 1); the open interval is required
    since the inverse diverges at the endpoints.
    """
    if type(t) is not float:
        return _each(phi_upper_inv, t)
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t!r}")
    if not 0.0 < t < 1.0:
        raise ParameterError(f"t must lie strictly inside (0, 1), got {t!r}")
    return -_cs.ndtri(t)


def std_normal_density(z):
    """Standard normal density (2*pi)**-0.5 * exp(-z**2 / 2).

    Takes a float or an array.  Always positive.  Where a signed
    derivative of the upper-tail function is needed, the caller applies the
    minus sign explicitly: d/dz P(Z >= z) is ``-std_normal_density(z)``.
    """
    if type(z) is not float:
        return _each(std_normal_density, z)
    if not math.isfinite(z):
        raise ParameterError(f"z must be finite, got {z!r}")
    # |z| is clamped so the square cannot overflow; the density is 0.0 from
    # |z| = 38.6
    a = min(abs(z), _DENSITY_ZERO_FROM)
    return _INV_SQRT_2PI * float(np.exp(-0.5 * a * a))


# smallest/largest p-values kept after clamping
_P_MIN = np.nextafter(0.0, 1.0)
_P_MAX = np.nextafter(1.0, 0.0)


def _p_values(x: np.ndarray) -> np.ndarray:
    """One-sided p-values P(Z >= x) of statistics of any shape.

    p-values that would round to exactly 0 or 1 are clamped to the nearest
    interior float, so ``Sample.p`` lies in (0, 1) and the decision at an
    edge cut is fixed: every p-value is <= a cut of _P_MAX.
    """
    p = phi_upper(x)
    np.clip(p, _P_MIN, _P_MAX, out=p)
    return p


# --- deciding p <= g on the statistics ---------------------------------------
#
# p = _p_values(x) falls as x grows, so p <= g is x >= q(g), q the upper-tail
# quantile, except where rounding can put the computed p on either side of g.
# By the accuracy notes above, p is within a relative 2**-40 of P(Z >= x) and
# P(Z >= q(g)) within 2**-39 of g; BH's float lines alpha * k / m lie within
# 2**-50 of the exact lines.  _BAND_REL bounds their sum (< 2**-38.4) with
# room for the first-order expansion, and _BAND_ABS covers p below the
# smallest normal float, where erfc is only absolutely accurate.  Inside a
# band, p need not fall as x grows: a pinned BH row at alpha = 0.3 shows it.
_BAND_REL = 2.0**-37
_BAND_ABS = 2.0 * np.finfo(float).tiny


def _x_band(g):
    """(lo, hi): statistics x >= hi have _p_values(x) <= g, and x < lo have
    _p_values(x) > g, for cuts g in [0, 1] of any shape, also when g moves
    by a relative 2**-50; only x in [lo, hi) needs its p-value to decide.

    hi is inf where no p-value is surely <= g (g in the underflow range),
    and lo is -inf where none is surely > g (g within _BAND_REL of 1).
    """
    g = np.asarray(g, dtype=float)
    lo = special.ndtri(np.minimum((g + _BAND_ABS) * (1.0 + _BAND_REL), 1.0))
    hi = special.ndtri(np.maximum((g - _BAND_ABS) * (1.0 - _BAND_REL), 0.0))
    return -lo, -hi
