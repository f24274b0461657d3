"""Mixture c.d.f., fixed point, threshold derivatives, point-mass weights,
limit variances, and covariance kernels, checked against closed forms,
frozen high-precision constants, and finite-difference oracles."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq as scipy_brentq

from equifdp import (
    BH,
    AsymptoticLaw,
    BracketingError,
    DegenerateCrossingError,
    EquifdpError,
    FixedPointUnderflowError,
    FixedRho,
    FixedThreshold,
    MixtureCdf,
    ParameterError,
    PowerLaw,
    RegimeError,
    ThetaOverM,
    asymptotic_law,
    bh_fixed_point,
    ecdf_limit_cov,
    fluctuation_weights,
    phi_upper,
    phi_upper_inv,
    std_normal_density,
    variance_components,
)
from equifdp import asymptotics, gaussian
from equifdp.asymptotics import _ROOT_RTOL, _brentq, _sign_grid
from oracles import (
    assert_branches_agree,
    assert_rejects_as_array,
    bh_closed_forms,
    central_difference,
    conditional_bh_fdp,
)
from test_gaussian import FAR_LEFT

# pinned with 60-digit bisection before the build
T_STAR_REF = 0.08059968470029045  # pi0=0.5, mu=2, alpha=0.2
T_STAR_STRESS_REF = 0.980173694834980838  # pi0=0.5, mu=2, alpha=0.99
G_HALF_REF = 0.738624934025910396  # G(0.5) at pi0=0.5, mu=2
# pinned with a 60-digit mpmath evaluation of the fixed-threshold formulas
# (quantile by root search in the log domain)
SIGMA2_TINY_T_REF = 4.2921974339387162e237  # pi0=0.5, mu=2, t=1e-300

MU_GRID = (0.5, 1.0, 2.0, 4.0)
ALPHA_GRID = (0.01, 0.05, 0.1, 0.2)


def brentq_points(cdf, monkeypatch):
    """Edge and interior points of [0, 1], the slide's left ends, and every
    float at which bh_fixed_point(cdf, alpha) evaluates G for each alpha of
    the acceptance grid."""
    visited, alt_cdf = [], MixtureCdf.alt_cdf

    def recording(self, t):
        if isinstance(t, float):
            visited.append(t)
        return alt_cdf(self, t)

    with monkeypatch.context() as patch:
        patch.setattr(MixtureCdf, "alt_cdf", recording)
        for alpha in ALPHA_GRID:
            bh_fixed_point(cdf, alpha)
    assert len(visited) > 40
    edges = [0.0, 1e-300, 1e-14, 0.05, 0.5, 1 - 1e-14, 1 - 2**-53, 1.0]
    return [*edges, *FAR_LEFT, *visited]


class TestMixtureCdf:
    def test_value_at_half(self):
        cdf = MixtureCdf(0.5, 2.0)
        assert cdf(0.5) == pytest.approx(G_HALF_REF, rel=1e-13)

    def test_degenerate_shift_limit(self):
        cdf = MixtureCdf(0.5, 1e-8)
        assert abs(cdf(0.3) - 0.3) <= 1e-6

    def test_monotone(self):
        for pi0 in (0.2, 0.5, 0.8):
            for mu in MU_GRID:
                cdf = MixtureCdf(pi0, mu)
                ts = np.linspace(0.0, 1.0, 50)
                assert np.all(np.diff(cdf(ts)) > 0)

    def test_endpoints(self):
        cdf = MixtureCdf(0.4, 1.5)
        assert cdf(0.0) == 0.0
        assert cdf(1.0) == 1.0

    def test_alternative_dominates_uniform(self):
        cdf = MixtureCdf(0.5, 2.0)
        ts = np.linspace(0.01, 0.99, 25)
        assert np.all(cdf.alt_cdf(ts) >= ts)

    def test_derivative_matches_finite_difference(self):
        cdf = MixtureCdf(0.35, 1.7)
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.05, 0.95, size=10):
            fd = central_difference(cdf, t)
            assert cdf.derivative(t) == pytest.approx(fd, rel=1e-6)

    def test_fdp_limit_derivative_matches_finite_difference(self):
        cdf = MixtureCdf(0.6, 2.5)
        rng = np.random.default_rng(6)
        for t in rng.uniform(0.05, 0.95, size=5):
            fd = central_difference(cdf.fdp_limit, t)
            assert cdf.fdp_limit_deriv(t) == pytest.approx(fd, rel=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            MixtureCdf(0.0, 1.0)
        with pytest.raises(ParameterError):
            MixtureCdf(0.5, 0.0)

    @pytest.mark.parametrize(
        "t",
        [np.nan, np.inf, -np.inf, np.array([0.2, np.nan]), -1e-300, 1.0000000000000002,
         np.float64(1.5)],
        ids=["nan", "inf", "-inf", "array", "-1e-300", "1+ulp", "np.float64(1.5)"],
    )
    def test_non_finite_t_rejected(self, t):
        cdf = MixtureCdf(0.5, 2.0)
        for f in (cdf.alt_cdf, cdf, cdf.fdp_limit, cdf.fdp_limit_deriv):
            with pytest.raises(ParameterError):
                f(t)

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_float_and_array_branches_agree_bit_for_bit(self, mu, monkeypatch):
        cdf = MixtureCdf(0.5, mu)
        points = brentq_points(cdf, monkeypatch)
        # G of numpy's float64 is a Python float too
        for f in (cdf.alt_cdf, cdf):
            assert_branches_agree(f, points)

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_float_branches_of_fdp_and_density_agree_bit_for_bit(self, mu, monkeypatch):
        cdf = MixtureCdf(0.5, mu)
        points = brentq_points(cdf, monkeypatch)
        inner = [t for t in points if 0.0 < t < 1.0]  # the quantile diverges at 0 and 1
        for f in (cdf.alt_density, cdf.derivative):
            assert_branches_agree(f, inner)
        # at mu = 0.5, G rounds to 0 at the smallest float: both branches reject it
        zero = [t for t in inner if cdf(t) == 0.0]
        assert_branches_agree(cdf.fdp_limit, [t for t in points if t not in zero])
        assert_branches_agree(cdf.fdp_limit_deriv, [t for t in inner if t not in zero])
        assert (zero == [5e-324]) == (mu == 0.5)
        for f in (cdf.fdp_limit, cdf.fdp_limit_deriv):
            for t in zero:
                assert_rejects_as_array(f, t)
                with pytest.raises(ParameterError, match=r"G\(t\) rounds to 0"):
                    f(t)

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_density_overflow_is_a_parameter_error(self, cast):
        # mu * q(t) - mu**2 / 2 at mu = 38.5 is 708.9 at t = 1e-310, and 732.0
        # and 739.8 at 1e-320 and 5e-324, past log(max float) = 709.78
        cdf = MixtureCdf(0.5, 38.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (cdf.alt_density, cdf.derivative, cdf.fdp_limit_deriv):
                assert math.isfinite(f(cast(1e-310)))
                for t in (1e-320, 5e-324):
                    assert_rejects_as_array(f, cast(t))
                    with pytest.raises(ParameterError, match=r"exceeds log\(max float\)"):
                        f(cast(t))

    def test_deriv_of_a_mixed_array_agrees_with_the_float_path(self):
        # one element below the G**2 floor must not move the others off the
        # one-division formula
        cdf = MixtureCdf(0.5, 2.0)
        t = np.concatenate(([1e-200], np.random.default_rng(8).uniform(0.0, 1.0, 2000)))
        want = [cdf.fdp_limit_deriv(float(x)) for x in t]
        assert cdf.fdp_limit_deriv(t).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("cast", [float, np.float64])
    @pytest.mark.parametrize("mu,bad", [(2.0, -1e-300), (2.0, 1.5), (1e-10, 5e-324)])
    def test_float_branch_of_fdp_rejects_as_the_array_branch(self, mu, bad, cast):
        # at mu = 1e-10, erfc underflows at 5e-324 and pi0 * t rounds to 0: G(t) = 0
        cdf = MixtureCdf(0.5, mu)
        for f in (cdf.fdp_limit, cdf.fdp_limit_deriv):
            assert_rejects_as_array(f, cast(bad))


class TestFixedPoint:
    def test_reference_value(self):
        t = bh_fixed_point(MixtureCdf(0.5, 2.0), 0.2)
        assert t == pytest.approx(T_STAR_REF, rel=1e-12)

    def test_alpha_near_one_stress(self):
        t = bh_fixed_point(MixtureCdf(0.5, 2.0), 0.99)
        assert t == pytest.approx(T_STAR_STRESS_REF, rel=1e-12)
        cdf = MixtureCdf(0.5, 2.0)
        assert abs(cdf(t) - t / 0.99) <= 1e-12

    def test_residual_and_center_on_grid(self):
        # spot grid here; the full 144-point sweep runs in the acceptance suite
        for pi0 in (0.1, 0.5, 0.9):
            for mu in (0.5, 4.0):
                for alpha in (0.01, 0.2):
                    cdf = MixtureCdf(pi0, mu)
                    t = bh_fixed_point(cdf, alpha)
                    assert abs(cdf(t) - t / alpha) <= 1e-12
                    assert abs(cdf.fdp_limit(t) - pi0 * alpha) <= 1e-12

    def test_far_left_fixed_point(self):
        # this parameter corner pushes t* to ~1.1e-44; pinned by 60-digit
        # bisection
        t = bh_fixed_point(MixtureCdf(0.9, 0.5), 0.01)
        assert t == pytest.approx(1.1026448117940026e-44, rel=1e-10)

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            bh_fixed_point(MixtureCdf(0.5, 2.0), 0.0)

    @pytest.mark.parametrize("pi0, mu, alpha", [(0.99, 0.1, 0.001), (0.999, 0.2, 0.01)])
    def test_fixed_point_below_double_range(self, pi0, mu, alpha):
        # t* is about 1e-2900 here
        with pytest.raises(FixedPointUnderflowError, match="below double range"):
            bh_fixed_point(MixtureCdf(pi0, mu), alpha)
        assert issubclass(FixedPointUnderflowError, BracketingError)

    def test_fixed_point_stays_on_floats_across_the_acceptance_grid(self):
        # no array call of G: every evaluation is a Python float, the
        # 16-point sign check's included
        for pi0 in [round(0.1 * k, 1) for k in range(1, 10)]:
            for mu in MU_GRID:
                for alpha in ALPHA_GRID:
                    cdf = _FloatsOnly(pi0, mu)
                    assert bh_fixed_point(cdf, alpha) == bh_fixed_point(MixtureCdf(pi0, mu), alpha)
                    assert {type(t) for t in cdf.calls} == {float}
                    assert len(cdf.calls) >= 18  # the bracket's two ends and the 16 points

    @pytest.mark.parametrize(
        "window, lift, message",
        [((5e-6, 2e-5), -1.0, "left of the fixed point is not positive"),
         ((0.85, 0.9), 4.0, "right of the fixed point is not negative")],
        ids=["left", "right"],
    )
    def test_sign_pattern_check_rejects_a_second_crossing(self, window, lift, message):
        # the root search lands on t* = 0.0806 and meets the residual test;
        # only the 16-point check sees the window where h changes sign again
        cdf = _Lifted(0.5, 2.0, *window, lift)
        with pytest.raises(BracketingError, match=message):
            bh_fixed_point(cdf, 0.2)

    def test_residual_check_rejects_a_jump_across_the_line(self):
        # G drops by 0.1 right of 0.08, just left of t* = 0.0806: h changes
        # sign at the jump, where the search converges with h far from 0
        with pytest.raises(BracketingError, match="relative residual"):
            bh_fixed_point(_Lifted(0.5, 2.0, 0.08, 1.0, -0.1), 0.2)

    @pytest.mark.parametrize(
        "window", [(1 - 1e-14, 1 - 1e-14), (0.07, 0.09)], ids=["at-endpoint", "mid-search"]
    )
    def test_nan_in_the_root_search(self, window):
        # the first is the bracket's right end, the second holds t* = 0.0806,
        # where the search without a slide step gives up at once
        with pytest.raises(BracketingError, match="root search met NaN"):
            bh_fixed_point(_NaNWindow(0.5, 2.0, *window), 0.2)

    @pytest.mark.parametrize(
        "alpha", [0.99999999999, 1 - 1e-15], ids=["grid-end-left-of-root", "no-bracket"]
    )
    def test_alpha_within_reach_of_one_is_a_parameter_error(self, alpha):
        # 1 - t* is about 2 * (1 - alpha) at pi0 = 0.5: 2e-11, so the sign
        # check's right grid would end left of t*, and 2e-15, above the
        # bracket's right end 1 - 1e-14
        with pytest.raises(ParameterError, match=r"within about \(1 - pi0\) \* 1e-10 of 1"):
            bh_fixed_point(MixtureCdf(0.5, 2.0), alpha)

    def test_alpha_close_to_one_still_solved(self):
        # 1 - t* = 1.12e-10, just clear of the check's 1 - 1e-10
        t = bh_fixed_point(MixtureCdf(0.5, 2.0), 1 - 10**-10.25)
        assert repr(t) == "0.9999999998875317"

    def test_alpha_near_one_sweep_gives_a_root_or_a_parameter_error(self):
        # 161 alpha in 1 - 10**-[8, 16] at pi0 = 0.999999: 1 - t* is about
        # 1e6 * (1 - alpha), clear of 1e-10, but from 1 - alpha = 1.3e-15 on
        # the largest h on the sign check's right grid (by concavity at most
        # 0.05 * (1/alpha - 1) at its first point) reads 0, within its
        # rounding 4 eps / alpha
        cdf = MixtureCdf(0.999999, 2.0)
        outcomes = []
        for alpha in (1 - 10 ** -np.linspace(8, 16, 161)).tolist():
            try:
                t = bh_fixed_point(cdf, alpha)
            except ParameterError as exc:
                assert "the sign-pattern check cannot tell its sign" in str(exc)
                outcomes.append("lost to rounding")
            else:
                assert abs(cdf(t) - t / alpha) <= 1e-12 * t / alpha
                outcomes.append("root")
        assert outcomes == ["root"] * 138 + ["lost to rounding"] * 23
        with pytest.raises(ParameterError, match="rounding error 8.9e-16"):
            bh_fixed_point(cdf, 0.9999999999999988)


@dataclasses.dataclass(frozen=True)
class _Lifted(MixtureCdf):
    """G lifted by `lift` on the open window (lo, hi): for a lift large
    enough h = G - t/alpha crosses zero twice more inside the window."""

    lo: float = 0.0
    hi: float = 0.0
    lift: float = 0.0

    def __call__(self, t):
        return super().__call__(t) + np.where((self.lo < t) & (t < self.hi), self.lift, 0.0)


@dataclasses.dataclass(frozen=True)
class _FloatsOnly(MixtureCdf):
    """G that records each t it is called with and fails on an array."""

    calls: list = dataclasses.field(default_factory=list, compare=False)

    def __call__(self, t):
        assert not isinstance(t, np.ndarray), t
        self.calls.append(t)
        return super().__call__(t)


@dataclasses.dataclass(frozen=True)
class _NaNWindow(MixtureCdf):
    """G is NaN on the closed window [lo, hi]."""

    lo: float = 0.0
    hi: float = 0.0

    def __call__(self, t):
        return super().__call__(t) + np.where((self.lo <= t) & (t <= self.hi), np.nan, 0.0)


def _recorded(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestBrentPort:
    def test_matches_scipy_on_fixed_point_grid(self):
        # same root from the same evaluation points, on every bracket that
        # bh_fixed_point builds on this grid, slid ones included
        slid = 0
        for pi0 in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for mu in MU_GRID:
                for alpha in (0.001, 0.01, 0.05, 0.1, 0.2):
                    cdf = MixtureCdf(pi0, mu)
                    h = lambda t: cdf(t) - t / alpha
                    left = 1e-14
                    while h(left) <= 0.0:
                        left *= 1e-8
                        assert left > 1e-290
                    slid += left < 1e-14
                    port, port_calls = _recorded(h)
                    ref, ref_calls = _recorded(h)
                    right = 1.0 - 1e-14
                    root, h_root = _brentq(port, left, right, h(left), h(right), 1e-300,
                                           _ROOT_RTOL, 300)
                    expected = scipy_brentq(
                        ref, left, right, xtol=1e-300, rtol=_ROOT_RTOL, maxiter=300
                    )
                    assert root == expected and type(root) is float
                    # scipy evaluates the two ends first; the port is handed them
                    assert ref_calls[:2] == [left, right]
                    assert port_calls == ref_calls[2:]
                    assert h_root == h(root)
                    assert bh_fixed_point(cdf, alpha) == root
        assert slid == 24

    def test_iterations_exhausted(self):
        f = lambda x: math.exp(x) - 2.0
        with pytest.raises(BracketingError, match="3 iterations"):
            _brentq(f, 0.0, 1.0, f(0.0), f(1.0), 1e-300, _ROOT_RTOL, 3)
        with pytest.raises(RuntimeError, match="converge"):
            scipy_brentq(f, 0.0, 1.0, xtol=1e-300, rtol=_ROOT_RTOL, maxiter=3)


class TestThresholdDerivative:
    def test_bh_atom_location_is_fixed_point(self):
        cdf = MixtureCdf(0.5, 2.0)
        t = bh_fixed_point(cdf, 0.2)
        assert BH(0.2).t_star(cdf) == t
        assert asymptotic_law(cdf, BH(0.2), ThetaOverM(0.0)).t_star == t

    def test_bh_weight_closed_form(self):
        # weight = 1 / (1/alpha - dG(t*)), dG from the closed-form density
        # ratio, itself validated against a finite difference of G
        cdf = MixtureCdf(0.5, 2.0)
        t = bh_fixed_point(cdf, 0.2)
        gdot_closed = 0.5 + 0.5 * np.exp(2.0 * phi_upper_inv(t) - 2.0)
        fd = central_difference(cdf, t)
        assert gdot_closed == pytest.approx(fd, rel=1e-6)
        assert BH(0.2).t_dot(cdf, t) == pytest.approx(1.0 / (5.0 - gdot_closed), rel=1e-12)

    def test_bh_weight_at_a_tangential_crossing_raises(self):
        # at t = 1e-10 the alternative density makes dG far exceed 1/alpha
        with pytest.raises(DegenerateCrossingError, match="tangential crossing"):
            BH(0.2).t_dot(MixtureCdf(0.5, 2.0), 1e-10)

    def test_fixed_threshold_has_zero_derivative(self):
        cdf = MixtureCdf(0.5, 2.0)
        assert FixedThreshold(0.4).t_star(cdf) == 0.4
        assert FixedThreshold(0.4).t_dot(cdf, 0.4) is None
        assert fluctuation_weights(cdf, 0.4) == fluctuation_weights(cdf, 0.4, 0.0)


class TestFluctuationMeasures:
    @pytest.mark.parametrize("t_star", [0.0, 1.0, math.nan])
    def test_t_star_outside_the_unit_interval_rejected(self, t_star):
        with pytest.raises(ParameterError, match="t_star must lie in"):
            fluctuation_weights(MixtureCdf(0.5, 2.0), t_star, 1.0)

    def test_bh_alt_measure_cancels(self):
        cdf = MixtureCdf(0.5, 2.0)
        t = bh_fixed_point(cdf, 0.2)
        z0, z1 = fluctuation_weights(cdf, t, BH(0.2).t_dot(cdf, t))
        assert abs(z1) <= 1e-10
        assert z0 == pytest.approx(0.5 * 0.2 / t, rel=1e-10)

    def test_bh_cancellation_across_grid(self):
        for pi0 in (0.2, 0.7):
            for mu in (1.0, 3.0):
                for alpha in (0.05, 0.2):
                    cdf = MixtureCdf(pi0, mu)
                    t = bh_fixed_point(cdf, alpha)
                    z0, z1 = fluctuation_weights(cdf, t, BH(alpha).t_dot(cdf, t))
                    scale = pi0 * alpha / t
                    assert abs(z1) <= 1e-10 * scale
                    assert z0 == pytest.approx(scale, rel=1e-10)

    @settings(max_examples=200)
    @given(
        pi0=st.floats(0.01, 0.99),
        mu=st.floats(0.3, 20.0),
        alpha=st.floats(1e-3, 0.5),
    )
    def test_bh_weights_are_the_closed_form_across_the_parameters(self, pi0, mu, alpha):
        # z1's two parts cancel and z0 = pi0*alpha/t*.  Each part is exact
        # to a few ulps times the crossing's conditioning
        # kappa = 1/(1 - alpha*dG(t*)); the bound allows 16 ulps
        cdf = MixtureCdf(pi0, mu)
        try:
            t = bh_fixed_point(cdf, alpha)
        except FixedPointUnderflowError:
            assume(False)
        kappa = 1.0 / (1.0 - alpha * float(cdf.derivative(t)))
        z0, z1 = fluctuation_weights(cdf, t, BH(alpha).t_dot(cdf, t))
        q = cdf.fdp_limit(t)
        tol = 16 * kappa * 2.0**-52
        assert abs(z1) <= tol * q * (1.0 - q) / cdf.alt_cdf(t)
        assert abs(z0 - pi0 * alpha / t) <= tol * pi0 * alpha / t

    def test_fixed_threshold_formulas(self):
        cdf = MixtureCdf(0.5, 2.0)
        t0 = 0.5
        z0, z1 = fluctuation_weights(cdf, t0)
        q = cdf.fdp_limit(t0)
        assert z0 == pytest.approx(q * (1 - q) / t0, rel=1e-14)
        assert z1 == pytest.approx(-q * (1 - q) / cdf.alt_cdf(t0), rel=1e-14)


class TestVarianceComponents:
    def test_zero_measures_give_zero(self):
        cdf = MixtureCdf(0.5, 2.0)
        assert variance_components(cdf, 0.3, 0.0, 0.0) == (0.0, 0.0)

    def test_bh_specialization_closed_forms(self):
        # generic pipeline equals the closed forms pi0*a^2*(1-t*)/t* and
        # pi0^2*a^2/(2*pi*t*^2)*exp(-q(t*)^2) to 1e-10 relative
        for pi0 in (0.1, 0.5, 0.9):
            for mu in (0.5, 2.0):
                for alpha in (0.05, 0.2):
                    cdf = MixtureCdf(pi0, mu)
                    sigma2_cf, c2_cf = bh_closed_forms(pi0, alpha, bh_fixed_point(cdf, alpha))
                    law = asymptotic_law(cdf, BH(alpha), ThetaOverM(0.0))
                    assert law.sigma2 == pytest.approx(sigma2_cf, rel=1e-10)
                    assert law.c_coef**2 == pytest.approx(c2_cf, rel=1e-10)

    def test_fixed_threshold_two_atom_sum(self):
        cdf = MixtureCdf(0.5, 2.0)
        t0 = 0.5
        w0, w1 = fluctuation_weights(cdf, t0)
        law = asymptotic_law(cdf, FixedThreshold(t0), ThetaOverM(0.0))
        expected_c = w0 * std_normal_density(phi_upper_inv(t0)) + w1 * std_normal_density(
            phi_upper_inv(t0) - 2.0
        )
        assert law.c_coef == pytest.approx(expected_c, rel=1e-14)
        g1 = cdf.alt_cdf(t0)
        expected_var = (t0 * (1 - t0)) * w0**2 / 0.5 + (g1 * (1 - g1)) * w1**2 / 0.5
        assert law.sigma2 == pytest.approx(expected_var, rel=1e-14)

    def test_kernels_positive_semidefinite(self):
        cdf = MixtureCdf(0.5, 2.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            locs = np.sort(rng.uniform(0.02, 0.98, size=rng.integers(2, 6)))
            k0 = np.minimum(locs[:, None], locs[None, :]) - locs[:, None] * locs[None, :]
            g1 = np.asarray(cdf.alt_cdf(locs))
            k1 = np.asarray(
                cdf.alt_cdf(np.minimum(locs[:, None], locs[None, :]))
            ) - g1[:, None] * g1[None, :]
            assert np.linalg.eigvalsh(k0).min() >= -1e-10
            assert np.linalg.eigvalsh(k1).min() >= -1e-10


class TestAsymptoticLaw:
    def test_theta_zero_matches_independent_case(self):
        cdf = MixtureCdf(0.5, 2.0)
        law = asymptotic_law(cdf, BH(0.2), ThetaOverM(0.0))
        sigma2_cf, _ = bh_closed_forms(0.5, 0.2, bh_fixed_point(cdf, 0.2))
        assert law.variance == pytest.approx(sigma2_cf, rel=1e-10)
        assert law.rho_seq.rate == "sqrt(m)"
        assert abs(law.center - 0.1) <= 1e-12

    def test_theta_shifts_variance_by_c_squared(self):
        cdf = MixtureCdf(0.5, 2.0)
        law0 = asymptotic_law(cdf, BH(0.2), ThetaOverM(0.0))
        law4 = asymptotic_law(cdf, BH(0.2), ThetaOverM(4.0))
        lawm1 = asymptotic_law(cdf, BH(0.2), ThetaOverM(-1.0))
        c2 = law0.c_coef**2
        assert law4.variance == pytest.approx(law0.variance + 4.0 * c2, rel=1e-12)
        assert lawm1.variance == pytest.approx(law0.variance - c2, rel=1e-12)
        assert law4.variance > law0.variance > lawm1.variance

    def test_case_ii_variance_ignores_power_law_constants(self):
        cdf = MixtureCdf(0.5, 2.0)
        a = asymptotic_law(cdf, BH(0.2), PowerLaw(1.0, 0.5))
        b = asymptotic_law(cdf, BH(0.2), PowerLaw(3.0, 0.25))
        assert a.variance == b.variance == a.c_coef**2
        assert a.rho_seq.rate == "rho_m**-0.5"

    def test_a_negative_case_i_variance_fails_when_the_law_is_built(self):
        cdf = MixtureCdf(0.5, 2.0)
        law = AsymptoticLaw(ThetaOverM(-1.0), 0.1, cdf, c_coef=1.0, sigma2=1.0 - 1e-11)
        assert law.variance == 0.0  # within rounding of zero: clamped
        with pytest.raises(EquifdpError, match="is negative"):
            AsymptoticLaw(ThetaOverM(-1.0), 0.1, cdf, c_coef=1.0, sigma2=0.5)
        with pytest.raises(EquifdpError, match="is negative"):
            dataclasses.replace(law, sigma2=0.5)

    def test_an_infinite_case_i_variance_fails_when_the_law_is_built(self):
        # c**2 = 59.1 at (0.99, 0.3, BH(0.5)): theta * c**2 overflows at
        # theta = 1e308 and is 5.9e307 at 1e306
        cdf = MixtureCdf(0.99, 0.3)
        message = r"sigma2 \+ theta\*c\*\*2 is not finite at theta=1e\+308, c\*\*2=59\.1"
        with pytest.raises(ParameterError, match=message):
            asymptotic_law(cdf, BH(0.5), ThetaOverM(1e308))
        assert asymptotic_law(cdf, BH(0.5), ThetaOverM(1e306)).variance < math.inf
        for sigma2 in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="is not finite at theta=0.0"):
                ThetaOverM(0.0).variance(sigma2, 1.0)

    def test_fixed_rho_raises_regime_error(self):
        cdf = MixtureCdf(0.5, 2.0)
        with pytest.raises(RegimeError):
            asymptotic_law(cdf, BH(0.2), FixedRho(0.3))

    def test_fixed_threshold_center_is_fdp_limit(self):
        cdf = MixtureCdf(0.5, 2.0)
        law = asymptotic_law(cdf, FixedThreshold(0.4), ThetaOverM(1.0))
        assert law.center == pytest.approx(cdf.fdp_limit(0.4), rel=1e-14)
        assert law.t_star == 0.4

    def test_near_zero_fixed_threshold_runs_without_warnings(self):
        # q'(t) (whose G**2 underflows at t = 1e-300) is never evaluated for
        # a fixed threshold; the variance itself is finite and right
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = asymptotic_law(MixtureCdf(0.5, 2.0), FixedThreshold(1e-300), ThetaOverM(0.0))
        assert law.sigma2 == pytest.approx(SIGMA2_TINY_T_REF, rel=1e-10)

    @pytest.mark.parametrize("pi0", [1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("procedure", [BH(0.2), FixedThreshold(0.05)])
    def test_underflowing_null_term_rejected(self, pi0, procedure):
        # z0 * t*(1 - t*) * z0 is of order pi0**2: subnormal at 1e-160, 0 below
        with pytest.raises(ParameterError, match="a variance component underflows"):
            asymptotic_law(MixtureCdf(pi0, 2.0), procedure, ThetaOverM(0.0))

    def test_subnormal_c_squared_rejected(self):
        # at t = 1e-20 and pi0 = 1e-152 the null product is 2.8e-299, but
        # c**2 is 1.1e-318, a subnormal with 4 digits left
        cdf = MixtureCdf(1e-152, 2.0)
        with pytest.raises(ParameterError, match=r"c\*\*2 = 1\.1e-318"):
            asymptotic_law(cdf, FixedThreshold(1e-20), PowerLaw(1.0, 0.5))

    @pytest.mark.parametrize("mu,t", [(0.5, 1e-320), (1.0, 5e-324)])
    def test_subnormal_null_mass_at_the_threshold_rejected(self, mu, t):
        # G1(1e-320) underflows to 0 at mu = 0.5; at 5e-324, pi0 * t rounds to 0
        with pytest.raises(ParameterError, match="underflows below the normal floats"):
            asymptotic_law(MixtureCdf(0.5, mu), FixedThreshold(t), ThetaOverM(0.0))


# Every law field, bit for bit: sha256 over the repr of each law's to_dict()
# items, in grid order.  Recorded before the measure calculus was collapsed
# to scalar formulas.
DIGEST_SEQUENCES = (ThetaOverM(0.0), ThetaOverM(4.0), ThetaOverM(-1.0), PowerLaw(1.0, 0.5))
DIGEST_PI0 = (0.1, 0.3, 0.5, 0.7, 0.9)
DIGEST_PROCEDURES = {
    "bh": tuple(BH(alpha) for alpha in (0.01, 0.05, 0.2)),
    "fixed": tuple(FixedThreshold(t) for t in (1e-6, 0.01, 0.2, 0.4, 0.9)),
}
LAW_DIGEST_PINS = {
    "bh": "d2af26681a24037ef49a8f7cce74d0fe1c31681141d37731cc6f926c3f7cfe64",
    "fixed": "ebecff62abd756f70838a0d0ca1d941e6480563d08d7f80ff6dcccea69d6fa9a",
}


@pytest.mark.parametrize("kind", list(LAW_DIGEST_PINS))
def test_asymptotic_law_digest_pins(kind):
    h = hashlib.sha256()
    for pi0 in DIGEST_PI0:
        for mu in MU_GRID:
            for procedure in DIGEST_PROCEDURES[kind]:
                for seq in DIGEST_SEQUENCES:
                    law = asymptotic_law(MixtureCdf(pi0, mu), procedure, seq)
                    h.update(repr(list(law.to_dict().items())).encode())
    assert h.hexdigest() == LAW_DIGEST_PINS[kind]


# Every outcome of BH at theta = 0 on a grid that reaches far-left and
# underflowing fixed points: sha256 over the repr of each law's to_dict()
# items, or the error's class name, in grid order.  153 laws and 57
# FixedPointUnderflowErrors.
SMALL_MU_PIN = "7d1629ab3c1ffd744983482b493005c40af17aa2f1832f9345574bd188064fa6"
SMALL_MU_GRID = [
    (pi0, mu, alpha)
    for pi0 in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    for mu in (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.2)
]


def test_small_mu_outcome_pin():
    h = hashlib.sha256()
    for pi0, mu, alpha in SMALL_MU_GRID:
        try:
            law = asymptotic_law(MixtureCdf(pi0, mu), BH(alpha), ThetaOverM(0.0))
        except EquifdpError as error:
            h.update(type(error).__name__.encode())
        else:
            h.update(repr(list(law.to_dict().items())).encode())
    assert h.hexdigest() == SMALL_MU_PIN


def test_sign_grid_lies_on_each_side_of_the_root(monkeypatch):
    # the brackets bh_fixed_point builds on the digest and small-mu grids,
    # then random ones: slid left ends, and roots within 2x of the left end
    brackets = []

    def recording(left, root):
        brackets.append((left, root))
        return _sign_grid(left, root)

    monkeypatch.setattr(asymptotics, "_sign_grid", recording)
    for pi0 in DIGEST_PI0:
        for mu in MU_GRID:
            for procedure in DIGEST_PROCEDURES["bh"]:
                bh_fixed_point(MixtureCdf(pi0, mu), procedure.alpha)
    for pi0, mu, alpha in SMALL_MU_GRID:
        try:
            bh_fixed_point(MixtureCdf(pi0, mu), alpha)
        except FixedPointUnderflowError:
            pass
    assert len(brackets) == len(DIGEST_PI0) * len(MU_GRID) * 3 + 153
    rng = np.random.default_rng(20)
    for k in rng.integers(0, 35, size=2000):
        left = 1e-14 * 1e-8 ** int(k)
        brackets.append((left, left ** rng.uniform(0.0, 1.0)))
        brackets.append((left, left * rng.uniform(1.0, 2.0)))
    for left, root in brackets:
        grid = np.array(_sign_grid(left, root))
        assert grid.shape == (16,) and np.isfinite(grid).all(), (left, root)
        assert grid[0] == left and (grid[:8] < root).all(), (left, root)
        assert (grid[8:] > root).all() and (grid[8:] <= 1.0 - 1e-10).all(), (left, root)


# --- the array adapter: every input but a Python float runs the float path
# element by element ----------------------------------------------------------

_CDF = MixtureCdf(0.5, 2.0)
ADAPTED = {
    "phi_upper_inv": phi_upper_inv,
    "std_normal_density": std_normal_density,
    "alt_cdf": _CDF.alt_cdf,
    "alt_density": _CDF.alt_density,
    "G": _CDF,
    "fdp_limit": _CDF.fdp_limit,
    "fdp_limit_deriv": _CDF.fdp_limit_deriv,
}


@pytest.mark.parametrize("f", ADAPTED.values(), ids=ADAPTED.keys())
class TestArrayAdapter:
    def test_an_array_keeps_its_shape_and_the_float_path_bits(self, f):
        t = np.array([[1e-300, 0.01, 0.2], [0.5, 0.9, 1 - 2**-53]])
        out = f(t)
        assert out.shape == (2, 3) and out.dtype == np.float64
        want = [[f(x) for x in row] for row in t.tolist()]
        assert out.tobytes() == np.array(want).tobytes()

    def test_an_empty_array_gives_an_empty_float_array(self, f):
        for t in (np.array([]), np.empty((0, 3))):
            out = f(t)
            assert out.shape == t.shape and out.dtype == np.float64

    def test_a_0d_array_and_a_numpy_float_give_a_python_float(self, f):
        for t in (np.array(0.3), np.float64(0.3)):
            value = f(t)
            assert type(value) is float and value == f(0.3)

    def test_a_list_is_accepted(self, f):
        assert f([0.2, 0.6]).tobytes() == np.array([f(0.2), f(0.6)]).tobytes()

    def test_an_array_names_its_first_offending_element(self, f):
        with pytest.raises(ParameterError) as float_error:
            f(math.inf)
        with pytest.raises(ParameterError) as array_error:
            f(np.array([[0.3, math.inf], [math.nan, 0.4]]))
        assert str(array_error.value) == str(float_error.value)


def test_no_law_takes_the_array_adapter(monkeypatch):
    # every helper a law calls gets a Python float: the fixed point,
    # fluctuation_weights, variance_components and the center alike
    def fail(f, t):
        raise AssertionError(f"{f!r} took the array adapter on {t!r}")

    monkeypatch.setattr(gaussian, "_each", fail)
    monkeypatch.setattr(asymptotics, "_each", fail)
    sequences = (ThetaOverM(0.0), ThetaOverM(4.0), PowerLaw(1.0, 0.5))
    laws = [
        asymptotic_law(MixtureCdf(pi0, mu), BH(alpha), seq)
        for pi0 in [round(0.1 * k, 1) for k in range(1, 10)]
        for mu in MU_GRID
        for alpha in ALPHA_GRID
        for seq in sequences
    ]
    laws.append(asymptotic_law(MixtureCdf(0.5, 2.0), FixedThreshold(0.01), ThetaOverM(4.0)))
    assert len(laws) == 433
    for law in laws:
        law.to_dict()


def test_numpy_scalars_at_the_entry_points_run_the_float_path(monkeypatch):
    # a numpy float64 argument is converted to a Python float once, so it
    # never reaches the array adapter and the result is a Python float
    cdf = MixtureCdf(0.5, 2.0)
    t = bh_fixed_point(cdf, 0.2)
    t_dot = BH(0.2).t_dot(cdf, t)
    z0, z1 = fluctuation_weights(cdf, t, t_dot)
    cases = [
        (bh_fixed_point, (cdf, 0.2)),
        (fluctuation_weights, (cdf, t, t_dot)),
        (fluctuation_weights, (cdf, 0.01)),
        (variance_components, (cdf, t, z0, z1)),
        (ecdf_limit_cov, (cdf, 1.0, "null", 0.2, 0.7)),
        (ecdf_limit_cov, (cdf, 1.0, "alt", 0.7, 0.2)),
    ]
    wants = [f(*args) for f, args in cases]

    def fail(f, t):
        raise AssertionError(f"{f!r} took the array adapter on {t!r}")

    monkeypatch.setattr(gaussian, "_each", fail)
    monkeypatch.setattr(asymptotics, "_each", fail)
    for (f, args), want in zip(cases, wants):
        got = f(*[np.float64(a) if type(a) is float else a for a in args])
        values = got if isinstance(got, tuple) else (got,)
        assert all(type(v) is float for v in values), (f.__name__, got)
        assert got == want


class TestLimitCov:
    def test_common_null_at_half(self):
        # the theta correction is theta * D(s) * D(t), D(0.5) = density(0)
        cdf = MixtureCdf(0.5, 2.0)
        correction = ecdf_limit_cov(cdf, 1.0, "null", 0.5, 0.5) - ecdf_limit_cov(
            cdf, 0.0, "null", 0.5, 0.5
        )
        assert correction == pytest.approx(0.3989422804014327**2, rel=1e-14)

    def test_null_bridge_diagonal(self):
        cdf = MixtureCdf(0.5, 2.0)
        assert ecdf_limit_cov(cdf, 0.0, "null", 0.25, 0.25) == pytest.approx(0.375)

    def test_alt_bridge_off_diagonal(self):
        cdf = MixtureCdf(0.5, 2.0)
        g1_02 = phi_upper(phi_upper_inv(0.2) - 2.0)
        g1_06 = phi_upper(phi_upper_inv(0.6) - 2.0)
        expected = (g1_02 - g1_02 * g1_06) / 0.5
        assert ecdf_limit_cov(cdf, 0.0, "alt", 0.2, 0.6) == pytest.approx(expected, rel=1e-13)

    def test_symmetric_in_arguments(self):
        cdf = MixtureCdf(0.3, 1.0)
        for group in ("null", "alt"):
            for theta in (0.0, 4.0):
                assert ecdf_limit_cov(cdf, theta, group, 0.2, 0.7) == ecdf_limit_cov(
                    cdf, theta, group, 0.7, 0.2
                )

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -1.5], ids=["nan", "inf", "below-1"])
    def test_theta_outside_every_regime_rejected(self, theta):
        with pytest.raises(ParameterError, match="theta must be finite and >= -1"):
            ecdf_limit_cov(MixtureCdf(0.5, 2.0), theta, "null", 0.2, 0.3)

    @pytest.mark.parametrize("s, t", [(0.0, 0.5), (0.5, 1.0), (math.nan, 0.5)])
    def test_points_outside_the_unit_interval_rejected(self, s, t):
        with pytest.raises(ParameterError, match="s, t must lie in"):
            ecdf_limit_cov(MixtureCdf(0.5, 2.0), 0.0, "null", s, t)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError):
            ecdf_limit_cov(MixtureCdf(0.5, 2.0), 0.0, "bogus", 0.5, 0.5)

    def test_assembled_cov_reduces_to_bridge_at_theta_zero(self):
        cdf = MixtureCdf(0.5, 2.0)
        g1 = cdf.alt_cdf
        for s, t in [(0.25, 0.5), (0.3, 0.3)]:
            assert ecdf_limit_cov(cdf, 0.0, "null", s, t) == (min(s, t) - s * t) / 0.5
            assert ecdf_limit_cov(cdf, 0.0, "alt", s, t) == (g1(min(s, t)) - g1(s) * g1(t)) / 0.5

    def test_assembled_cov_theta_correction(self):
        cdf = MixtureCdf(0.5, 2.0)
        s, t, theta = 0.25, 0.5, 4.0
        d = lambda u: std_normal_density(phi_upper_inv(u))
        expected = (min(s, t) - s * t) / 0.5 + theta * d(s) * d(t)
        assert ecdf_limit_cov(cdf, theta, "null", s, t) == pytest.approx(expected, rel=1e-14)


class TestConditionalOracle:
    @pytest.mark.parametrize("w", [14.1, 15.0])
    def test_root_at_alpha_where_g_rounds_to_one(self, w):
        # at rho = 0.3 G_w(alpha) rounds to 1 for w >= 14.1, so every scan
        # point clears the line; the root is alpha and f(w) = pi0*G0_w/G_w there
        pi0, mu, alpha, rho = 0.5, 2.0, 0.2, 0.3
        shift, scale, q = math.sqrt(rho) * w, math.sqrt(1.0 - rho), phi_upper_inv(alpha)
        g0 = special.ndtr((shift - q) / scale)
        g = pi0 * g0 + (1.0 - pi0) * special.ndtr((shift + mu - q) / scale)
        assert conditional_bh_fdp(pi0, mu, alpha, rho, w) == pytest.approx(pi0 * g0 / g, rel=1e-15)
