"""Oracle rescaling for fixed rho: algebra of the rescaling, distributional
equivalence with the negative-boundary model, and the predicted limit law."""

import re
import warnings

import numpy as np
import pytest

from equifdp import (
    BH,
    ExperimentConfig,
    MixtureCdf,
    ModelParams,
    OracleParams,
    ParameterError,
    RngStream,
    ThetaOverM,
    asymptotic_law,
    bh_fixed_point,
    phi_upper_inv,
    run,
    sample,
)
from equifdp.gaussian import _p_values
from equifdp.model import _BLOCK_ELEMS, _draw_blocks

# pinned with 60-digit bisection: fixed point of the mu/sqrt(0.7) mixture
T_STAR_RHO_REF = 0.0956375531814413  # pi0=0.5, mu=2, rho=0.3, alpha=0.2

BASE = ModelParams(m=5000, pi0=0.5, mu=2.0, rho=0.3)


def draw_block(params, seed, count):
    """Rows from streams (seed, 0) .. (seed, count - 1), the blocks of
    :func:`_draw_blocks` stacked."""
    return np.concatenate([x for _, _, x in _draw_blocks(params, seed, 0, count)])


class TestOracleParams:
    def test_derived_quantities(self):
        params = OracleParams(BASE)
        assert type(params.mu_tilde) is float and type(params.scale) is float
        assert params.mu_tilde == pytest.approx(2.0 / np.sqrt(0.7), rel=1e-15)
        assert params.cdf == MixtureCdf(0.5, params.mu_tilde)
        assert params.rho_seq == ThetaOverM(-1.0)
        assert params.scale > 1.0
        assert params.scale == pytest.approx(np.sqrt(5000 / (4999 * 0.7)), rel=1e-15)
        assert params.base is BASE
        rebuilt = OracleParams(ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.5))
        assert params.at(1000, 0.5) == rebuilt

    def test_sample_draws_the_rescaled_row(self):
        # row r of the oracle's blocks, with the truth labels of its base
        params = OracleParams(ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.3))
        rows = draw_block(params, 11, 3)
        for r, row in enumerate(rows):
            s = sample(params, RngStream(11, r))
            np.testing.assert_array_equal(s.x, row)
            np.testing.assert_array_equal(s.tau, np.arange(100) >= params.base.m0)
            np.testing.assert_array_equal(s.p, _p_values(row))

    @pytest.mark.parametrize("mu,rho", [(1e16, 0.3), (1e9, 1 - 1e-12), (1.7e308, 0.3)])
    def test_mu_beyond_the_rounding_bound_rejected(self, mu, rho):
        # scale*(m + 5)*2**-53*mu above 1e-6: 1.3e3, 112 and 2.3e295 at m = 1000
        base = ModelParams(m=1000, pi0=0.5, mu=mu, rho=rho)
        message = f"mu={mu!r} is too large for the oracle rescaling at rho={rho!r} and m=1000"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match=re.escape(message)):
                OracleParams(base)

    def test_rounding_bound_admits_the_largest_mu_below_it(self):
        # scale*(m + 5)*2**-53*mu = 1e-6 sits on the bound and passes
        base = ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3)
        edge = 1e-6 / (OracleParams(base).scale * 1005 * 2.0**-53)
        OracleParams(ModelParams(m=1000, pi0=0.5, mu=edge, rho=0.3))
        with pytest.raises(ParameterError, match="too large for the oracle rescaling"):
            OracleParams(ModelParams(m=1000, pi0=0.5, mu=np.nextafter(edge, np.inf), rho=0.3))

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.1])
    def test_requires_rho_in_open_unit_interval(self, rho):
        m = 100
        if rho >= -1.0 / (m - 1):
            base = ModelParams(m=m, pi0=0.5, mu=2.0, rho=rho)
            with pytest.raises(ParameterError):
                OracleParams(base)


class TestTransform:
    def test_algebra_and_labels(self):
        # the formula on one row, and a block rescaled row by row
        params = OracleParams(ModelParams(m=200, pi0=0.5, mu=2.0, rho=0.3))
        s = sample(params.base, RngStream(1, 0))
        expected = params.scale * (s.x - s.x.mean() + 0.5 * 2.0)
        np.testing.assert_allclose(params.transform(s.x), expected, rtol=1e-15)
        block = draw_block(params.base, 1, 3)
        rows = [params.transform(sample(params.base, RngStream(1, r)).x) for r in range(3)]
        np.testing.assert_array_equal(params.transform(block), rows)

    @pytest.mark.parametrize(
        "m,pi0,whole", [(999, 0.5, False), (1001, 0.7, False), (1000, 0.5, True)]
    )
    def test_noiseless_means_carry_the_offset_delta(self, m, pi0, whole):
        # the mean row, 0 on the nulls and mu on the alternatives, rescales to
        # delta = scale*mu*(floor(m*pi0)/m - pi0) on every null and to
        # delta + scale*mu on every alternative; delta = 0 only when m*pi0 is
        # an integer, and |delta| < scale*mu/m
        params = OracleParams(ModelParams(m=m, pi0=pi0, mu=2.0, rho=0.3))
        m0, shift = params.base.m0, params.scale * 2.0
        out = params.transform(np.where(np.arange(m) < m0, 0.0, 2.0))
        delta = shift * (m0 / m - pi0)
        np.testing.assert_allclose(out[:m0], delta, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out[m0:], delta + shift, rtol=0.0, atol=1e-12)
        assert abs(delta) < shift / m
        assert (delta == 0.0) == whole
        if not whole:
            assert abs(delta) > 1e-4  # far above the tolerance: nulls are not centred

    def test_empirical_equicorrelation(self):
        # transformed vector has equi-correlation -1/(m-1), checked over
        # 2e4 replicates at m=50 within 3 MC standard errors
        m, R = 50, 20_000
        params = OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3))
        xs = params.transform(draw_block(params.base, 13, R))
        centered = xs - xs.mean(axis=0)
        target = -1.0 / (m - 1)
        se = 3.0 * np.sqrt((1.0 + target**2) / R)
        for i, j in [(0, 1), (5, 30), (20, 49)]:
            cov = np.mean(centered[:, i] * centered[:, j])
            assert abs(cov - target) <= se
        var_se = 3.0 * np.sqrt(2.0 / R)
        for col in (0, 25, 49):
            assert abs(np.mean(centered[:, col] ** 2) - 1.0) <= var_se

    def test_alternative_mean_is_scaled_shift(self):
        m, R = 50, 20_000
        params = OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3))
        col = params.transform(draw_block(params.base, 14, R))[:, 40]
        assert abs(col.mean() - params.scale * 2.0) <= 3.0 / np.sqrt(R)

    @pytest.mark.parametrize("m,first", [(200, 0), (3000, 7)])
    def test_draw_blocks_yields_the_transform_of_the_base_blocks(self, m, first):
        # 163 and 10 rows a block: each oracle block is OracleParams.transform
        # of the base model's block, bit for bit, in the same layout
        params = OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3))
        n = 2 * (_BLOCK_ELEMS // m) + 3
        oracle = list(_draw_blocks(params, 21, first, n))
        base = list(_draw_blocks(params.base, 21, first, n))
        assert len(oracle) == len(base) == 3
        for (lo, hi, x), (b_lo, b_hi, b) in zip(oracle, base):
            assert (lo, hi) == (b_lo, b_hi) and hi - lo > 1
            want = params.transform(b)
            assert x.dtype == want.dtype and x.shape == want.shape
            assert x.tobytes() == want.tobytes()

    def test_near_zero_rho_transform_is_nearly_identity(self):
        # at rho = 1e-6 and large m the rescaling collapses: max coordinate
        # change stays below 0.05 with overwhelming probability
        params = OracleParams(ModelParams(m=100_000, pi0=0.5, mu=2.0, rho=1e-6))
        s = sample(params.base, RngStream(15, 0))
        assert np.max(np.abs(params.transform(s.x) - s.x)) <= 0.05

    def test_distributionally_equivalent_to_negative_boundary_model(self):
        # rescaled draws of the base model must match direct samples of the
        # model with shift scale*mu and rho = -1/(m-1): group means, marginal
        # variance, and pairwise covariance agree within 4 combined MC
        # standard errors
        m, R = 20, 10_000
        params = OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3))
        direct_params = ModelParams(
            m=m, pi0=0.5, mu=params.scale * 2.0, rho=-1.0 / (m - 1)
        )
        xt = params.transform(draw_block(params.base, 16, R))
        xd = draw_block(direct_params, 17, R)
        se_mean = 4.0 * np.sqrt(2.0) / np.sqrt(R)
        assert abs(xt[:, :10].mean() - xd[:, :10].mean()) <= se_mean / np.sqrt(10)
        assert abs(xt[:, 10:].mean() - xd[:, 10:].mean()) <= se_mean / np.sqrt(10)
        var_t = xt.var(axis=0, ddof=1).mean()
        var_d = xd.var(axis=0, ddof=1).mean()
        assert abs(var_t - var_d) <= 4.0 * np.sqrt(2.0) * np.sqrt(2.0 / R)
        cov_t = np.mean((xt[:, 0] - xt[:, 0].mean()) * (xt[:, 1] - xt[:, 1].mean()))
        cov_d = np.mean((xd[:, 0] - xd[:, 0].mean()) * (xd[:, 1] - xd[:, 1].mean()))
        assert abs(cov_t - cov_d) <= 4.0 * np.sqrt(2.0) / np.sqrt(R)


def test_transformed_fdp_variance_scales_as_one_over_m():
    # after the rescaling, var(FDP) drops by ~4x when m quadruples (the
    # sqrt(m) rate is back); band [0.17, 0.37] leaves room for MC noise
    def var_at(m):
        cfg = ExperimentConfig(
            params=OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3)),
            procedure=BH(0.2),
            replicates=1500,
            seed=43,
        )
        return run(cfg, workers=4).var_fdp

    ratio = var_at(4000) / var_at(1000)
    assert 0.17 <= ratio <= 0.37


class TestOracleFixedPoint:
    def test_reference_value(self):
        t_star = bh_fixed_point(OracleParams(BASE).cdf, 0.2)
        assert t_star == pytest.approx(T_STAR_RHO_REF, rel=1e-12)

    def test_reduces_to_plain_fixed_point_as_rho_vanishes(self):
        base = ModelParams(m=5000, pi0=0.5, mu=2.0, rho=1e-10)
        t_plain = bh_fixed_point(MixtureCdf(0.5, 2.0), 0.2)
        assert abs(bh_fixed_point(OracleParams(base).cdf, 0.2) - t_plain) <= 1e-8

    def test_monotone_in_rho(self):
        bases = [ModelParams(m=5000, pi0=0.5, mu=2.0, rho=r) for r in (0.1, 0.3, 0.5, 0.7)]
        values = [bh_fixed_point(OracleParams(base).cdf, 0.2) for base in bases]
        assert all(a < b for a, b in zip(values, values[1:]))


def rescaled_law(base, alpha):
    """Limit law of the rescaled FDP from the OracleParams' own mixture and
    effective regime."""
    params = OracleParams(base)
    return asymptotic_law(params.cdf, BH(alpha), params.rho_seq)


class TestOracleLaw:
    def test_matches_generic_pipeline(self):
        # an oracle run's law is the theta = -1 law of the mixture with
        # shift mu / sqrt(1 - rho), built here from the formula
        config = ExperimentConfig(params=OracleParams(BASE), procedure=BH(0.2), replicates=2)
        law = run(config).law
        generic = asymptotic_law(
            MixtureCdf(0.5, 2.0 / np.sqrt(1.0 - 0.3)), BH(0.2), ThetaOverM(-1.0)
        )
        assert law == generic
        assert law.rho_seq.theta == -1.0
        assert law.rho_seq.regime == "case_i"

    def test_closed_form_variance(self):
        # sqrt(m)-rate variance: pi0*a^2*(1-t)/t - pi0^2*a^2/(2*pi*t^2)e^{-q(t)^2}
        law = rescaled_law(BASE, 0.2)
        t = law.t_star
        closed = 0.5 * 0.04 * (1 - t) / t - 0.25 * 0.04 / (
            2.0 * np.pi * t**2
        ) * np.exp(-phi_upper_inv(t) ** 2)
        assert law.variance == pytest.approx(closed, rel=1e-10)
        assert law.variance == pytest.approx(law.sigma2 - law.c_coef**2, rel=1e-12)

    def test_variance_positive_over_grid(self):
        for pi0 in (0.25, 0.5, 0.75):
            for mu in (1.0, 2.0):
                for rho in (0.1, 0.3, 0.5, 0.7):
                    for alpha in (0.05, 0.2):
                        base = ModelParams(m=1000, pi0=pi0, mu=mu, rho=rho)
                        assert rescaled_law(base, alpha).variance > 0.0

    def test_center_is_pi0_alpha(self):
        assert abs(rescaled_law(BASE, 0.2).center - 0.1) <= 1e-12
