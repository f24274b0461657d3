"""Monte Carlo harness: determinism, diagnostics, regime handling, the
covariance probe, tolerance checks, and the CSV/JSON interfaces."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

import equifdp.experiment
from equifdp import (
    BH,
    ExperimentConfig,
    FixedRho,
    FixedThreshold,
    MixtureCdf,
    ModelParams,
    OracleParams,
    ParameterError,
    PowerLaw,
    RngStream,
    ThetaOverM,
    asymptotic_law,
    check_tolerances,
    ecdf_covariance_probe,
    ecdf_limit_cov,
    ks_statistic_normal,
    rate_study,
    run,
    sample,
    summary_to_dict,
    write_replicates_csv,
    write_summary_json,
)
from equifdp.experiment import _write_json
from oracles import GivenThresholds, bootstrap_cov_se, fdp_recount

SMALL = ExperimentConfig(
    params=ModelParams(m=400, pi0=0.5, mu=2.0, rho=0.0),
    procedure=BH(0.2),
    rho_seq=ThetaOverM(0.0),
    replicates=300,
    seed=11,
)


class TestRunBasics:
    def test_deterministic_across_calls_and_workers(self):
        a = run(SMALL)
        b = run(SMALL)
        c = run(SMALL, workers=3)
        np.testing.assert_array_equal(a.fdp, b.fdp)
        np.testing.assert_array_equal(a.fdp, c.fdp)
        np.testing.assert_array_equal(a.thresholds, c.thresholds)
        assert a.var_scaled == c.var_scaled

    def test_single_replicate_degenerates(self):
        cfg = ExperimentConfig(
            params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            rho_seq=ThetaOverM(0.0),
            replicates=1,
            seed=0,
        )
        s = run(cfg)
        assert s.fdp.size == 1
        assert s.var_fdp is None and s.var_scaled is None
        assert s.ks_statistic is None and s.variance_ratio is None

    def test_small_r_skips_diagnostics(self):
        cfg = ExperimentConfig(
            params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            rho_seq=ThetaOverM(0.0),
            replicates=50,
            seed=0,
        )
        s = run(cfg)
        assert s.var_scaled is not None  # a variance only needs R >= 2
        assert s.ks_statistic is None and s.variance_ratio is None
        assert any("diagnostics" in w for w in s.warnings)

    def test_scaled_deviations_recomputable(self):
        s = run(SMALL)
        np.testing.assert_array_equal(
            s.scaled_deviations, s.a_m * (s.fdp - s.law.center)
        )
        assert s.a_m == np.sqrt(400)

    def test_zero_theory_variance_skips_the_ks(self):
        # case ii at a threshold of 1e-300 with mu = 40: c is about 4e-299,
        # so c**2 underflows to 0, and no null is ever rejected
        seq = PowerLaw(1.0, 0.5)
        cfg = ExperimentConfig(
            params=ModelParams(m=200, pi0=0.5, mu=40.0, rho=seq.rho_at(200)),
            procedure=FixedThreshold(1e-300),
            rho_seq=seq,
            replicates=100,
            seed=0,
        )
        s = run(cfg)
        assert s.law.variance == 0.0 and s.law.c_coef > 0.0
        assert s.variance_ratio is None and s.ks_statistic is None
        assert s.warnings == ("theory variance is zero; KS skipped",)

    def test_fixed_rho_reports_raw_moments_only(self):
        cfg = ExperimentConfig(
            params=ModelParams(m=200, pi0=0.5, mu=2.0, rho=0.3),
            procedure=BH(0.2),
            rho_seq=FixedRho(0.3),
            replicates=150,
            seed=3,
        )
        s = run(cfg)
        assert s.law is None and s.theory_variance is None
        assert s.scaled_deviations is None
        assert s.mean_fdp is not None and s.var_fdp is not None
        assert any("regime" in w for w in s.warnings)

    def test_no_rho_seq_means_no_theory(self):
        cfg = ExperimentConfig(
            params=ModelParams(m=200, pi0=0.5, mu=2.0, rho=-0.001),
            procedure=BH(0.2),
            replicates=120,
            seed=3,
        )
        s = run(cfg)
        assert s.law is None
        assert any("no correlation regime" in w for w in s.warnings)

    def test_oracle_mode_uses_transformed_pipeline(self):
        cfg = ExperimentConfig(
            params=OracleParams(ModelParams(m=300, pi0=0.5, mu=2.0, rho=0.3)),
            procedure=BH(0.2),
            replicates=200,
            seed=5,
        )
        s = run(cfg)
        assert s.law is not None and s.law.theta == -1.0
        assert s.a_m == np.sqrt(300)

    def test_case_ii_scale_factor(self):
        m = 2500
        seq = PowerLaw(1.0, 0.5)
        cfg = ExperimentConfig(
            params=ModelParams(m=m, pi0=0.5, mu=2.0, rho=seq.rho_at(m)),
            procedure=BH(0.2),
            rho_seq=seq,
            replicates=150,
            seed=5,
        )
        s = run(cfg)
        assert s.a_m == pytest.approx(seq.rho_at(m) ** -0.5)


def run_without_regime(procedure, params, replicates, seed, workers):
    """A run that declares no regime, so `procedure` need only tally."""
    config = ExperimentConfig(params=params, procedure=procedure, replicates=replicates, seed=seed)
    return run(config, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
class TestRunFdp:
    """The FDP a run derives from each replicate's tally, checked against
    the sample of that replicate's stream, RngStream(seed, r)."""

    def test_replicate_without_rejections_has_fdp_zero(self, workers):
        # the run mixes replicates without rejections, with only false
        # ones (FDP 1) and with both kinds
        params = ModelParams(m=20, pi0=0.8, mu=1.0, rho=0.0)
        s = run_without_regime(FixedThreshold(0.02), params, 50, 4, workers)
        none = s.rejected == 0
        assert none.any() and np.any(s.fdp == 1.0) and np.any((s.fdp > 0.0) & (s.fdp < 1.0))
        assert np.all(s.fdp[none] == 0.0)

    def test_zero_threshold(self, workers):
        params = ModelParams(m=10, pi0=0.5, mu=1.0, rho=0.0)
        s = run_without_regime(GivenThresholds(0.0), params, 20, 2, workers)
        assert s.law is None
        assert np.all(s.rejected == 0) and np.all(s.fdp == 0.0)

    def test_one_threshold_gives_null_fraction(self, workers):
        params = ModelParams(m=10, pi0=0.7, mu=1.0, rho=0.0)
        s = run_without_regime(GivenThresholds(1.0), params, 20, 2, workers)
        assert np.all(s.rejected == 10) and np.all(s.fdp == 7 / 10)

    @pytest.mark.parametrize(
        "procedure,params,seed",
        [
            (BH(0.2), ModelParams(m=20, pi0=0.5, mu=2.0, rho=0.1), 6),
            (GivenThresholds(0.3), ModelParams(m=10, pi0=0.5, mu=1.0, rho=0.0), 2),
            # the mixed run above
            (FixedThreshold(0.02), ModelParams(m=20, pi0=0.8, mu=1.0, rho=0.0), 4),
        ],
        ids=["bh", "given", "fixed"],
    )
    def test_each_fdp_matches_brute_force_recount(self, procedure, params, seed, workers):
        s = run_without_regime(procedure, params, 50, seed, workers)
        for r in range(50):
            x = sample(params, RngStream(seed, r))
            assert s.fdp[r] == fdp_recount(x.tau, x.p, s.thresholds[r])
            assert s.false_rejections[r] <= s.rejected[r] <= params.m


class TestConfigValidation:
    def test_rho_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(
                params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.05),
                procedure=BH(0.2),
                rho_seq=ThetaOverM(0.0),
                replicates=10,
                seed=0,
            )

    def test_oracle_with_rho_seq_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(
                params=OracleParams(ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.3)),
                procedure=BH(0.2),
                rho_seq=ThetaOverM(0.0),
                replicates=10,
                seed=0,
            )

    def test_bad_m_grid_rejected(self):
        config = ExperimentConfig(
            params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            rho_seq=ThetaOverM(0.0),
            replicates=10,
            seed=0,
        )
        for grid in [(100, 200), (100, 100, 200), (200, 100, 300)]:
            with pytest.raises(ParameterError, match="m_grid must be increasing"):
                rate_study(config, grid)

    def test_grid_point_outside_the_model_fails_before_any_row_runs(self, monkeypatch):
        # rho = -0.005 is below -1/(m - 1) at m = 300 but not at m = 100
        calls = []
        monkeypatch.setattr(equifdp.experiment, "run", lambda *a: calls.append(a))
        config = ExperimentConfig(
            params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=-0.005),
            procedure=BH(0.2),
            replicates=10,
        )
        with pytest.raises(ParameterError, match="for m=300, got -0.005"):
            rate_study(config, (100, 300, 400))
        assert calls == []

    def test_power_law_rho_rounding_to_zero_rejected(self, monkeypatch):
        # c * m**-gamma rounds to 0: at the config's m = 100 for c = 5e-324,
        # and for c = 1e-322 (1e-323 at m = 100) only at the grid's m = 10000
        with pytest.raises(ParameterError, match="rounds to 0 at c=5e-324, gamma=0.5, m=100"):
            ExperimentConfig(
                params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.0),
                procedure=BH(0.2),
                rho_seq=PowerLaw(5e-324, 0.5),
            )
        calls = []
        monkeypatch.setattr(equifdp.experiment, "run", lambda *a: calls.append(a))
        config = ExperimentConfig(
            params=ModelParams(m=100, pi0=0.5, mu=2.0, rho=1e-323),
            procedure=BH(0.2),
            rho_seq=PowerLaw(1e-322, 0.5),
            replicates=10,
        )
        with pytest.raises(ParameterError, match="rounds to 0 at c=1e-322, gamma=0.5, m=10000"):
            rate_study(config, (100, 200, 10000))
        assert calls == []


class TestStatisticalCalibration:
    def test_fixed_threshold_variance_matches_generic_theory(self):
        # fixed-threshold procedure at rho=0: the scaled FDP variance must
        # match the generic two-kernel variance (no threshold fluctuation)
        m, R = 2000, 2000
        cfg = ExperimentConfig(
            params=ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.0),
            procedure=FixedThreshold(0.1),
            rho_seq=ThetaOverM(0.0),
            replicates=R,
            seed=29,
        )
        s = run(cfg, workers=4)
        assert s.variance_ratio == pytest.approx(1.0, abs=0.15)
        assert abs(s.mean_fdp - s.law.center) <= 4.0 * np.sqrt(s.var_fdp / R)

    def test_bh_center_and_ks_at_moderate_scale(self):
        m, R = 2000, 1500
        cfg = ExperimentConfig(
            params=ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            rho_seq=ThetaOverM(0.0),
            replicates=R,
            seed=31,
        )
        s = run(cfg, workers=4)
        assert abs(s.mean_fdp - 0.1) <= 4.0 * np.sqrt(s.var_fdp / R)
        assert s.ks_statistic <= 1.63 / np.sqrt(R)
        assert s.variance_ratio == pytest.approx(1.0, abs=0.15)

    def test_case_ii_variance_at_gamma_0_75_is_the_finite_m_one(self):
        # at rho_m = m**-0.75 the limit c**2 / a_m**2 drops the e.c.d.f. term
        # sigma2 / m of the first-order variance v_m = sigma2 / m + rho_m c**2,
        # which at m = 4000 is still 0.83 times the other: a correct run's
        # var(FDP) matches v_m, and v_m is 1.83 times the limit, far outside
        # the variance band of --check
        m, R = 4000, 2000
        regime = PowerLaw(1.0, 0.75)
        cfg = ExperimentConfig(
            params=ModelParams(m=m, pi0=0.5, mu=2.0, rho=regime.rho_at(m)),
            procedure=BH(0.2),
            rho_seq=regime,
            replicates=R,
            seed=20260808,
        )
        s = run(cfg, workers=2)
        v_m = s.law.sigma2 / m + regime.rho_at(m) * s.law.c_coef**2
        assert abs(s.var_fdp / v_m - 1.0) <= 4.0 * math.sqrt(2.0 / (R - 1))
        # the ratio is 1 + (sigma2 / c**2) * m**(gamma - 1)
        assert s.a_m**2 * v_m / s.law.variance == pytest.approx(1.83, abs=0.005)


class TestKsStatistic:
    def test_single_point(self):
        assert ks_statistic_normal(np.array([0.0]), 1.0) == 0.5

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 2.0, size=500)
        mine = ks_statistic_normal(x, 2.0)
        ref = stats.kstest(x, "norm", args=(0.0, 2.0)).statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize(
        "values,sd,message",
        [
            ([], 1.0, "nonempty"),
            ([0.0], 0.0, "sd must be positive and finite"),
            ([0.0], -1.0, "sd must be positive and finite"),
            ([0.0], math.nan, "sd must be positive and finite"),
            ([0.0], math.inf, "sd must be positive and finite"),
            ([math.nan, 1.0], 1.0, "without NaN"),
            ([[0.0, 1.0]], 1.0, "1-d"),
        ],
    )
    def test_invalid_input_rejected(self, values, sd, message):
        with pytest.raises(ParameterError, match=message):
            ks_statistic_normal(np.array(values), sd)


@pytest.fixture(scope="module")
def study():
    cfg = ExperimentConfig(
        params=ModelParams(m=200, pi0=0.5, mu=2.0, rho=0.0),
        procedure=BH(0.2),
        rho_seq=ThetaOverM(0.0),
        replicates=300,
        seed=23,
    )
    return rate_study(cfg, (200, 400, 800), workers=4)


class TestRateStudy:
    def test_rows_and_aux_column(self, study):
        table = study.table()
        assert [row["m"] for row in table] == [200, 400, 800]
        for row, s in zip(table, study.rows):
            assert row["var_sqrtm"] == pytest.approx(row["m"] * s.var_fdp)
            assert row["theory_variance"] == s.law.variance

    def test_rows_use_disjoint_streams(self, study):
        # same m twice would repeat; different rows must not share draws
        assert not np.array_equal(study.rows[0].fdp, study.rows[1].fdp[: 300])

    def test_largest_m_row_is_calibrated(self, study):
        assert check_tolerances(study.rows[-1]) == []

    def test_csv(self, study, tmp_path):
        path = tmp_path / "rate.csv"
        study.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,var_scaled,theory_variance,variance_ratio,ks_statistic,var_sqrtm"
        assert len(lines) == 4

    def test_every_row_has_the_configs_law(self):
        # the law depends on the mixture, procedure and regime, not on m, so
        # the law each row solves equals the config's
        grid = (400, 800, 1600)
        config = dataclasses.replace(SMALL, replicates=30)
        law = asymptotic_law(config.params.cdf, config.procedure, config.rho_seq)
        rows = rate_study(config, grid).rows
        assert all(row.law == law for row in rows)
        assert [row.a_m for row in rows] == [math.sqrt(m) for m in grid]
        assert all(len(row.warnings) == 1 for row in rows)  # each row's R < 100 note, once

    def test_oracle_rows_are_oracle_runs(self):
        # row j of an oracle study is the oracle run at m_j from stream j*R,
        # with the theta = -1 law of the rescaled statistics at rate sqrt(m_j)
        R, grid = 30, (100, 200, 400)

        def oracle_config(m):
            return ExperimentConfig(
                params=OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3)),
                procedure=BH(0.2),
                replicates=R,
                seed=29,
            )

        study = rate_study(oracle_config(grid[0]), grid)
        for j, (m, row) in enumerate(zip(grid, study.rows)):
            want = run(oracle_config(m), stream_offset=j * R)
            assert row.config == want.config
            for name in ("fdp", "thresholds", "rejected", "false_rejections"):
                np.testing.assert_array_equal(getattr(row, name), getattr(want, name))
            assert row.law == want.law and row.law.theta == -1.0
            assert row.a_m == math.sqrt(m)


class TestCovarianceProbe:
    def test_probe_matches_assembled_kernels_at_independence(self):
        params = ModelParams(m=2000, pi0=0.5, mu=2.0, rho=0.0)
        grid = [0.25, 0.5]
        probe = ecdf_covariance_probe(params, grid, replicates=1200, seed=41)
        cdf = MixtureCdf(0.5, 2.0)
        se_null = bootstrap_cov_se(probe.dev_null, n_boot=120, seed=1)
        se_alt = bootstrap_cov_se(probe.dev_alt, n_boot=120, seed=1)
        for a, s in enumerate(grid):
            for b, t in enumerate(grid):
                target0 = ecdf_limit_cov(cdf, 0.0, "null", s, t)
                target1 = ecdf_limit_cov(cdf, 0.0, "alt", s, t)
                assert abs(probe.cov_null[a, b] - target0) <= 4.0 * se_null[a, b]
                assert abs(probe.cov_alt[a, b] - target1) <= 4.0 * se_alt[a, b]

    def test_positive_theta_inflates_probe_variance(self):
        # at rho = theta/m the e.c.d.f. fluctuation variance picks up the
        # assembled correction theta * density(quantile(t))^2 over the bare
        # bridge kernel
        m, theta, t = 2000, 4.0, 0.5
        params = ModelParams(m=m, pi0=0.5, mu=2.0, rho=theta / m)
        probe = ecdf_covariance_probe(params, [t], replicates=1500, seed=47)
        cdf = MixtureCdf(0.5, 2.0)
        target = ecdf_limit_cov(cdf, theta, "null", t, t)
        bare = ecdf_limit_cov(cdf, 0.0, "null", t, t)
        se = bootstrap_cov_se(probe.dev_null, n_boot=150, seed=2)[0, 0]
        assert abs(probe.cov_null[0, 0] - target) <= 4.0 * se
        assert probe.cov_null[0, 0] > bare + 4.0 * se  # strictly above rho=0

    def test_grid_validation(self):
        params = ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.0)
        with pytest.raises(ParameterError):
            ecdf_covariance_probe(params, [0.0, 0.5], replicates=10)
        with pytest.raises(ParameterError):
            ecdf_covariance_probe(params, [], replicates=10)
        with pytest.raises(ParameterError, match="grid must be"):
            ecdf_covariance_probe(params, [0.5, np.nan], replicates=10)

    def test_deterministic(self):
        params = ModelParams(m=150, pi0=0.5, mu=2.0, rho=0.0)
        a = ecdf_covariance_probe(params, [0.5], replicates=50, seed=2)
        b = ecdf_covariance_probe(params, [0.5], replicates=50, seed=2)
        np.testing.assert_array_equal(a.dev_null, b.dev_null)


class TestToleranceChecks:
    def test_clean_run_has_no_violations(self):
        s = run(SMALL)
        assert check_tolerances(s) == []

    def test_violations_detected_on_distorted_law(self):
        import dataclasses

        s = run(SMALL)
        bad_law = dataclasses.replace(s.law, sigma2=s.law.sigma2 * 10.0)  # theta = 0
        assert bad_law.variance == s.law.variance * 10.0
        distorted = dataclasses.replace(
            s,
            law=bad_law,
            variance_ratio=s.var_scaled / bad_law.variance,
            ks_statistic=0.5,
        )
        msgs = check_tolerances(distorted)
        assert any("variance_ratio" in v for v in msgs)
        assert any("ks_statistic" in v for v in msgs)


    def test_center_violation_detected_on_distorted_law(self):
        # t* doubled moves the center alone: the variance and KS figures
        # are the summary's own
        s = run(SMALL)
        distorted = dataclasses.replace(s, law=dataclasses.replace(s.law, t_star=2 * s.law.t_star))
        msgs = check_tolerances(distorted)
        assert len(msgs) == 1 and msgs[0].startswith("|mean_fdp - center| = ")


class TestSerialization:
    def test_summary_dict_schema(self):
        s = run(SMALL)
        d = summary_to_dict(s)
        expected_keys = {
            "version",
            "config",
            "m",
            "mean_fdp",
            "var_fdp",
            "a_m",
            "var_scaled",
            "theory_variance",
            "variance_ratio",
            "ks_statistic",
            "mc_se_variance",
            "theory",
            "warnings",
            "tolerance_violations",
            "per_replicate_fdp",
        }
        assert set(d.keys()) == expected_keys
        assert d["config"]["m"] == 400
        assert len(d["per_replicate_fdp"]) == 300

    def test_json_roundtrip_is_lossless(self, tmp_path):
        s = run(SMALL)
        path = tmp_path / "summary.json"
        write_summary_json(s, path)
        loaded = json.loads(path.read_text())
        assert loaded["var_scaled"] == s.var_scaled  # float roundtrips exactly
        assert loaded["theory"]["variance"] == s.law.variance
        np.testing.assert_array_equal(loaded["per_replicate_fdp"], s.fdp)

    def test_replicates_csv(self, tmp_path):
        s = run(SMALL)
        path = tmp_path / "reps.csv"
        write_replicates_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert (
            lines[0]
            == "replicate,fdp,scaled_deviation,threshold,rejected,false_rejections"
        )
        assert len(lines) == 301
        rec = lines[5].split(",")
        assert int(rec[0]) == 4
        assert float(rec[1]) == s.fdp[4]
        assert float(rec[2]) == s.scaled_deviations[4]
        assert int(rec[4]) == s.rejected[4]


class TestNumpyScalarInputs:
    """Every type stores the numbers it checks as Python int and float, so
    numpy scalars give the outputs of the same Python numbers, byte for byte.
    0.5, 2.0, 0.25 and 0.0 are exact in float32."""

    @staticmethod
    def write_outputs(out, m, pi0, mu, alpha, theta, replicates, seed, grid):
        rho_seq = ThetaOverM(theta)
        config = ExperimentConfig(
            params=ModelParams(m=m, pi0=pi0, mu=mu, rho=rho_seq.rho_at(m)),
            procedure=BH(alpha),
            rho_seq=rho_seq,
            replicates=replicates,
            seed=seed,
        )
        out.mkdir()
        summary = run(config, workers=2)
        write_summary_json(summary, out / "summary.json")
        write_replicates_csv(summary, out / "replicates.csv")
        study = rate_study(config, grid)
        study.write_csv(out / "rate_study.csv")
        return {f.name: f.read_bytes() for f in out.iterdir()}

    def test_outputs_are_byte_identical(self, tmp_path):
        python = self.write_outputs(
            tmp_path / "python", 200, 0.5, 2.0, 0.25, 0.0, 120, 7, (100, 200, 400)
        )
        f32 = np.float32
        numpy = self.write_outputs(
            tmp_path / "numpy", np.int64(200), f32(0.5), f32(2.0), f32(0.25), f32(0.0),
            np.int64(120), np.uint64(7), tuple(np.array([100, 200, 400])),
        )
        assert sorted(numpy) == ["rate_study.csv", "replicates.csv", "summary.json"]
        assert numpy == python

    def test_laws_are_equal_field_by_field(self):
        f32 = np.float32
        want = asymptotic_law(MixtureCdf(0.5, 2.0), BH(0.25), ThetaOverM(0.0))
        got = asymptotic_law(MixtureCdf(f32(0.5), f32(2.0)), BH(f32(0.25)), ThetaOverM(f32(0.0)))
        for field in dataclasses.fields(want):
            value = getattr(want, field.name)
            assert type(getattr(got, field.name)) is type(value)
            assert getattr(got, field.name) == value
        assert not hasattr(want, "__dict__")  # slotted: one small object per law

    def test_checked_values_are_stored_as_python_numbers(self):
        params = ModelParams(m=np.int64(10), pi0=np.float32(0.5), mu=np.float64(2.0), rho=0)
        config = ExperimentConfig(
            params=params, procedure=FixedThreshold(np.float32(0.25)),
            replicates=np.int32(5), seed=np.uint64(3),
        )
        rows = rate_study(config, np.array([10, 20, 40])).rows
        stored = [
            (params.m, int), (params.pi0, float), (params.mu, float), (params.rho, float),
            (config.procedure.t, float), (config.replicates, int), (config.seed, int),
            *((row.m, int) for row in rows),
            (PowerLaw(np.int64(1), np.float32(0.5)).c, float),
            (FixedRho(np.float32(0.25)).rho, float),
            (RngStream(np.uint64(1), np.int64(2)).stream_id, int),
        ]
        assert [type(v) for v, _ in stored] == [kind for _, kind in stored]
        assert [row.m for row in rows] == [10, 20, 40]


def test_failed_json_dump_leaves_no_file(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(TypeError):
        _write_json(path, {"version": "x", "m": object()})
    assert not path.exists()
