"""Oracle rescaling for fixed rho: algebra of the rescaling, distributional
equivalence with the negative-boundary model, and the predicted limit law."""

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
    t_star_rho,
)
from equifdp.model import _draw_block, _generator, _stream_states
from equifdp.oracle import _rescale

# pinned with 60-digit bisection: fixed point of the mu/sqrt(0.7) mixture
T_STAR_RHO_REF = 0.0956375531814413  # pi0=0.5, mu=2, rho=0.3, alpha=0.2

BASE = ModelParams(m=5000, pi0=0.5, mu=2.0, rho=0.3)


def draw_block(params, seed, count):
    """Rows from streams (seed, 0) .. (seed, count - 1), drawn as one block."""
    states = _stream_states(seed, np.arange(count, dtype=np.uint64))
    return _draw_block(params, _generator(), states)


class TestOracleParams:
    def test_derived_quantities(self):
        params = OracleParams(BASE)
        assert params.mu_tilde == pytest.approx(2.0 / np.sqrt(0.7), rel=1e-15)
        assert params.cdf == MixtureCdf(0.5, params.mu_tilde)
        assert params.rho_seq == ThetaOverM(-1.0)
        assert params.scale > 1.0
        assert params.scale == pytest.approx(np.sqrt(5000 / (4999 * 0.7)), rel=1e-15)

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
        np.testing.assert_allclose(_rescale(s.x, params), expected, rtol=1e-15)
        block = draw_block(params.base, 1, 3)
        rows = [_rescale(sample(params.base, RngStream(1, r)).x, params) for r in range(3)]
        np.testing.assert_array_equal(_rescale(block, params), rows)

    def test_empirical_equicorrelation(self):
        # transformed vector has equi-correlation -1/(m-1), checked over
        # 2e4 replicates at m=50 within 3 MC standard errors
        m, R = 50, 20_000
        params = OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3))
        xs = _rescale(draw_block(params.base, 13, R), params)
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
        col = _rescale(draw_block(params.base, 14, R), params)[:, 40]
        assert abs(col.mean() - params.scale * 2.0) <= 3.0 / np.sqrt(R)

    def test_near_zero_rho_transform_is_nearly_identity(self):
        # at rho = 1e-6 and large m the rescaling collapses: max coordinate
        # change stays below 0.05 with overwhelming probability
        params = OracleParams(ModelParams(m=100_000, pi0=0.5, mu=2.0, rho=1e-6))
        s = sample(params.base, RngStream(15, 0))
        assert np.max(np.abs(_rescale(s.x, params) - s.x)) <= 0.05

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
        xt = _rescale(draw_block(params.base, 16, R), params)
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
        assert t_star_rho(BASE, 0.2) == pytest.approx(T_STAR_RHO_REF, rel=1e-12)

    def test_reduces_to_plain_fixed_point_as_rho_vanishes(self):
        base = ModelParams(m=5000, pi0=0.5, mu=2.0, rho=1e-10)
        t_plain = bh_fixed_point(MixtureCdf(0.5, 2.0), 0.2)
        assert abs(t_star_rho(base, 0.2) - t_plain) <= 1e-8

    def test_monotone_in_rho(self):
        values = [
            t_star_rho(ModelParams(m=5000, pi0=0.5, mu=2.0, rho=r), 0.2)
            for r in (0.1, 0.3, 0.5, 0.7)
        ]
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
        assert law.theta == -1.0
        assert law.regime == "case_i"

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
