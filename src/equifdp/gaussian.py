"""Standard Gaussian tail, quantile, and density functions.

Every function in this package uses the upper-tail convention: ``phi_upper(z)``
is P(Z >= z) for Z ~ N(0, 1), and ``phi_upper_inv`` is its inverse.  The
lower-tail c.d.f. is deliberately not exposed; mixing conventions is the main
source of sign bugs in this kind of code.

Accuracy notes (checked against 60-digit reference values): relative error of
``phi_upper`` is below z**2 * 2**-51 + 2**-48 wherever the result is a
normal float (|z| <= 37.5), 6.1e-13 at |z| = 37: the roundings of the
argument z / sqrt(2) and of erfc's exp(-z**2 / 2) grow in the tail by about
z**2.  Results below the smallest normal float are only absolutely accurate
and underflow to 0 near z = 37.7, which is the documented behavior for the
far tail.  ``phi_upper_inv`` is accurate to a few ulps over
[5e-324, 1 - 1e-16].
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import ParameterError

__all__ = ["phi_upper", "phi_upper_inv", "std_normal_density"]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_DENSITY_ZERO_FROM = 40.0


def _as_finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite, got {x!r}")
    return arr


def phi_upper(z):
    """Upper-tail probability P(Z >= z) of a standard normal.

    Accepts a scalar or array; returns the same shape.  Values beyond the
    representable tail underflow to exactly 0.0 (z large positive) or round
    to 1.0 (z large negative).
    """
    arr = _as_finite_array(z, "z")
    out = 0.5 * special.erfc(arr / _SQRT2)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def phi_upper_inv(t):
    """Upper-tail quantile: the z with P(Z >= z) = t, for t in (0, 1).

    Inverse of :func:`phi_upper`.  Raises :class:`ParameterError` outside (0, 1);
    the open interval is required since the inverse diverges at the endpoints.
    """
    arr = _as_finite_array(t, "t")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ParameterError(f"t must lie strictly inside (0, 1), got {t!r}")
    out = -special.ndtri(arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def std_normal_density(z):
    """Standard normal density (2*pi)**-0.5 * exp(-z**2 / 2).

    Always positive.  Where a signed derivative of the upper-tail function is
    needed, the caller applies the minus sign explicitly: d/dz P(Z >= z) is
    ``-std_normal_density(z)``.
    """
    arr = _as_finite_array(z, "z")
    # clamped so the square cannot overflow; the density is 0.0 from |z| = 38.6
    arr = np.minimum(np.abs(arr), _DENSITY_ZERO_FROM)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out
