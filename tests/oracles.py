"""Independent oracles used by the test suite.

Everything here is deliberately naive -- exhaustive scans, Python-loop
recounts, central differences -- and stays independent of the library code
paths it checks.  The exceptions are the stand-in procedure
``GivenThresholds``, which hands chosen cuts to the library's group count,
and the two branch checks, which hold a helper's array adapter to its float
path.
"""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erfc, log_ndtr, ndtr, ndtri

from equifdp import ParameterError
from equifdp.gaussian import _x_band
from equifdp.procedures import _group_counts


def bh_threshold_scan_k(p, alpha):
    """Functional definition of the BH threshold by exhaustive candidate scan
    in exact rational arithmetic: treating the float inputs as exact
    rationals, the candidate t_i = alpha*i/m satisfies ecdf(t_i) >= t_i/alpha
    iff #{p_j <= t_i} >= i (both sides divide out exactly).  Returns the
    largest satisfied index k, 0 if none.  Each count is a binary search in
    the sorted rationals, so the scan stays usable at m in the thousands."""
    a = Fraction(alpha)
    ps = sorted(Fraction(x) for x in np.asarray(p, dtype=float))
    m = len(ps)
    best_k = 0
    for i in range(1, m + 1):
        t = a * i / m
        count = bisect_right(ps, t)
        if count >= i:
            best_k = i
    return best_k


def bh_no_better_between(p, alpha, k):
    """True when no t strictly between consecutive breakpoints above the
    scan maximum satisfies ecdf(t) >= t/alpha, in exact rational arithmetic
    (midpoint probes; the ecdf is a right-continuous step function, so a
    violation would show up at a midpoint)."""
    a = Fraction(alpha)
    ps = sorted(Fraction(x) for x in np.asarray(p, dtype=float))
    m = len(ps)
    threshold = a * k / m
    breakpoints = sorted(
        {threshold, Fraction(1)}
        | {a * i / m for i in range(1, m + 1)}
        | set(ps)
    )
    breakpoints = [b for b in breakpoints if b >= threshold]
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        t = (lo + hi) / 2
        if t <= threshold:
            continue
        count = sum(1 for q in ps if q <= t)
        if Fraction(count, m) >= t / a:
            return False
    return True


def fdp_recount(tau, p, t):
    """Brute-force FDP at threshold t from the two cardinalities."""
    false_rej = sum(1 for i in range(len(p)) if not tau[i] and p[i] <= t)
    rej = sum(1 for i in range(len(p)) if p[i] <= t)
    return false_rej / max(rej, 1)


def group_counts(tau, p, grid):
    """(#{null p <= g}, #{alternative p <= g}) at each g of the grid: each
    group's p-values sorted, then counted by binary search."""
    p = np.asarray(p, dtype=float)
    tau = np.asarray(tau, dtype=bool)
    grid = np.asarray(grid, dtype=float)
    null = np.searchsorted(np.sort(p[~tau]), grid, side="right")
    alt = np.searchsorted(np.sort(p[tau]), grid, side="right")
    return null, alt


class GivenThresholds:
    """Stand-in threshold procedure that thresholds row i of a block of
    statistics at the p-value t[i] (a scalar t applies to every row), with
    no range check, so a tally can be read at any t in [0, 1], the
    endpoints included.  Each row is counted on its own by the library's
    group count at its scalar cut; the bands of all the cuts come from one
    _x_band call."""

    def __init__(self, t):
        self.t = t

    def tally(self, x, m0):
        t = np.broadcast_to(np.asarray(self.t, dtype=float), (x.shape[0],))
        rows = zip(x, t, zip(*_x_band(t)))
        counts = [_group_counts(row[None], m0, cut, band) for row, cut, band in rows]
        false_rej, true_rej = np.array(counts)[:, :, 0].T
        return t, false_rej + true_rej, false_rej


P_MIN = np.nextafter(0.0, 1.0)
P_MAX = np.nextafter(1.0, 0.0)


def p_values(x):
    """The p-values of statistics as the package defines them, recomputed:
    P(Z >= x) by erfc, clamped into the open interval (0, 1)."""
    return np.clip(0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0)), P_MIN, P_MAX)


def statistic_with_p_value(p, ulps=64):
    """A statistic x whose p-value is exactly `p`, searched within `ulps`
    floats of the quantile -ndtri(p); raises ValueError if none is."""
    x = lo = hi = -ndtri(p)
    near = [x]
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        near += [lo, hi]
    near = np.array(near)
    exact = near[p_values(near) == p]
    if exact.size == 0:
        raise ValueError(f"no statistic within {ulps} ulps has p-value {p!r}")
    return float(exact[0])


def bootstrap_cov_se(dev, n_boot=200, seed=0):
    """Bootstrap standard errors, over the rows (replicates) of a deviation
    matrix, of the entries of its column covariance matrix."""
    rng = np.random.default_rng(seed)
    R = dev.shape[0]
    boots = np.empty((n_boot, dev.shape[1], dev.shape[1]))
    for b in range(n_boot):
        idx = rng.integers(0, R, size=R)
        boots[b] = np.cov(dev[idx].T)
    return boots.std(axis=0, ddof=1)


def mixture_identity_exact(n_null, n_alt, count_null, count_alt, count_all):
    """Exact rational check of the e.c.d.f. mixture identity at one point."""
    m = n_null + n_alt
    lhs = Fraction(count_all, m)
    rhs = Fraction(n_null, m) * Fraction(count_null, n_null) + Fraction(
        n_alt, m
    ) * Fraction(count_alt, n_alt)
    return lhs == rhs


def bh_closed_forms(pi0, alpha, t):
    """Closed forms of the BH limit quantities at the fixed point t:
    sigma2 = pi0*alpha**2*(1-t)/t and
    c**2 = pi0**2*alpha**2 / (2*pi*t**2) * exp(-q(t)**2), q the upper-tail
    quantile.  Returns (sigma2, c**2)."""
    sigma2 = pi0 * alpha**2 * (1.0 - t) / t
    c2 = pi0**2 * alpha**2 / (2.0 * np.pi * t**2) * np.exp(-ndtri(t) ** 2)
    return sigma2, c2


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def ks_uniform(values):
    """One-sample KS distance from the uniform distribution on (0, 1)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - x), np.max(x - (i - 1) / n)))


def conditional_bh_fdp(pi0, mu, alpha, rho, w):
    """Limit of the BH FDP given the common factor W = w (Finner, Dickhaus &
    Roters 2007).

    Write Y_i = sqrt(rho) * w + sqrt(1 - rho) * eps_i (+ mu for an
    alternative).  Given w the p-values are i.i.d. with
    G_w(t) = pi0 * G0_w(t) + (1 - pi0) * G1_w(t), the BH threshold tends to
    the largest root t_w of G_w(t) = t / alpha, and the FDP tends to
    pi0 * G0_w(t_w) / G_w(t_w).  When G_w(t) < t / alpha on the whole scan,
    BH rejects nothing and the FDP is 0 by convention; where G_w(alpha)
    rounds to 1, t_w is alpha.

    The root is bracketed by a scan of log t over [log 1e-300, log alpha]
    and refined by brentq in log t; everything is computed in the log domain.
    """
    shift = np.sqrt(rho) * w
    scale = np.sqrt(1.0 - rho)
    log_pi0, log_pi1 = np.log(pi0), np.log1p(-pi0)

    def log_parts(u):
        q = -ndtri(np.exp(u))  # upper-tail quantile of t = exp(u)
        log_g0 = log_ndtr((shift - q) / scale)
        log_g1 = log_ndtr((shift + mu - q) / scale)
        return log_g0, np.logaddexp(log_pi0 + log_g0, log_pi1 + log_g1)

    def excess(u):  # log G_w(t) - log(t / alpha)
        return log_parts(u)[1] - (u - np.log(alpha))

    grid = np.linspace(np.log(1e-300), np.log(alpha), 2001)
    above = np.flatnonzero(excess(grid) >= 0.0)
    if above.size == 0:
        return 0.0
    k = above[-1]
    if k == grid.size - 1:
        # G_w(alpha) rounds to 1 = alpha / alpha (at rho = 0.3, for w >= 14.1):
        # the root is alpha itself
        u_root = grid[k]
    else:
        u_root = brentq(excess, grid[k], grid[k + 1], xtol=1e-14, rtol=1e-15)
    log_g0, log_g = log_parts(u_root)
    return float(np.exp(log_pi0 + log_g0 - log_g))


def case_ii_reference_cdf(pi0, mu, alpha, m, rho, sigma2):
    """Finite-m reference law of the case-ii scaled BH FDP deviation
    rho**-0.5 * (FDP - pi0 * alpha).

    F_m(s) = E_W Phi((s - rho**-0.5 * (f(W) - pi0 * alpha)) / sqrt(sigma2 / (m * rho)))

    with f the conditional limit of :func:`conditional_bh_fdp` and W ~ N(0, 1)
    integrated by probabilists' Gauss-Hermite quadrature.  The normal kernel
    carries the empirical-process fluctuation, frozen at its W = 0 variance
    sigma2 / m.  As m -> inf with rho -> 0 and m * rho -> inf, F_m tends to
    N(0, c**2), c = rho**-0.5 * f'(0).  Returns a vectorised CDF.

    The quadrature is accurate while the kernel's standard deviation is not
    small against the spacing of the node means: for rho = m**-0.5 and 161
    nodes that holds up to m = 1e5 (at m = 1e6 the sum turns step-like).
    """
    w, weights = np.polynomial.hermite_e.hermegauss(161)
    weights = weights / weights.sum()
    f = np.array([conditional_bh_fdp(pi0, mu, alpha, rho, wk) for wk in w])
    means = (f - pi0 * alpha) / np.sqrt(rho)
    sd = np.sqrt(sigma2 / (m * rho))

    def cdf(s):
        s = np.asarray(s, dtype=float)
        return ndtr((s[..., None] - means) / sd) @ weights

    return cdf


def assert_branches_agree(f, points):
    """f of a float, of numpy's float64 and of the array [t] give the same
    float64 bytes, the first two as a Python float."""
    for t in points:
        want = f(np.array([t]))[0].tobytes()
        for x in (t, np.float64(t)):
            value = f(x)
            assert type(value) is float, (f, x)
            assert np.float64(value).tobytes() == want, (f, x)


def assert_rejects_as_array(f, x):
    """f rejects the float x as it rejects the array [x]: the same error
    type, and the same message, which names the offending element (the
    array's first) rather than the array."""
    arr = np.array([x])
    with pytest.raises(ParameterError) as scalar_error:
        f(x)
    with pytest.raises(ParameterError) as array_error:
        f(arr)
    assert type(scalar_error.value) is type(array_error.value)
    assert str(scalar_error.value) == str(array_error.value).replace(repr(arr), repr(x))
