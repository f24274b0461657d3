"""Acceptance suite: ten criteria, each with its stated tolerance, printing
one pass/fail line per criterion (run with ``pytest -s`` to see the lines for
passing criteria too).

All Monte Carlo criteria use the single pre-registered seed 20260808; no
seed was selected based on outcomes.  The replicate counts, the sizes m and
the 1% KS critical value 1.63/sqrt(R) are pre-registered too.

Normality is tested against the limit law N(0, theory variance) everywhere
except in criterion 6.  There, at m = 1e4 with rho_m = m^-1/2, the scaled
FDP still carries a skewness of order rho_m^(1/2), and the model's own law
sits farther from its limit N(0, c^2) than the 1% KS critical value.  So c06
tests the Monte Carlo against that finite-m law, ``case_ii_reference_cdf``
in ``oracles.py``, and checks by computation that the finite-m law and the
conditional FDP slope approach N(0, c^2) and c from m = 1e3 to m = 1e4.
"""

import hashlib

import numpy as np
import pytest
from scipy import special

from equifdp import (
    BH,
    ExperimentConfig,
    FixedRho,
    MixtureCdf,
    ModelParams,
    OracleParams,
    PowerLaw,
    RngStream,
    ThetaOverM,
    asymptotic_law,
    bh_fixed_point,
    ecdf_covariance_probe,
    ecdf_limit_cov,
    phi_upper,
    phi_upper_inv,
    run,
    sample,
)
from equifdp.gaussian import _p_values
from equifdp.model import _draw_blocks
from oracles import (
    bh_closed_forms,
    bh_no_better_between,
    bootstrap_cov_se,
    bh_threshold_scan_k,
    case_ii_reference_cdf,
    central_difference,
    conditional_bh_fdp,
    ks_uniform,
    p_values,
)
from test_gaussian import UPPER_TAIL_TABLE

SEED = 20260808
PI0, MU, ALPHA = 0.5, 2.0, 0.2
WORKERS = 4

PI0_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
MU_GRID = [0.5, 1.0, 2.0, 4.0]
ALPHA_GRID = [0.01, 0.05, 0.1, 0.2]


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")


def case_i_config(m, theta, replicates):
    seq = ThetaOverM(theta)
    return ExperimentConfig(
        params=ModelParams(m=m, pi0=PI0, mu=MU, rho=seq.rho_at(m)),
        procedure=BH(ALPHA),
        rho_seq=seq,
        replicates=replicates,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def theta0_summary():
    return run(case_i_config(5000, 0.0, 4000), workers=WORKERS)


def check_clt_run(summary, reference_cdf=None):
    """The three criterion-4-style sub-checks, returned as (ok, detail).

    Normality is judged against the limit law unless `reference_cdf` (a
    continuous CDF of the scaled deviations) is given."""
    R = summary.fdp.size
    ratio_ok = abs(summary.variance_ratio - 1.0) <= 0.15
    ks_crit = 1.63 / np.sqrt(R)
    if reference_cdf is None:
        ks, ks_name = summary.ks_statistic, "ks"
    else:
        ks, ks_name = ks_uniform(reference_cdf(summary.scaled_deviations)), "ks vs F_m"
    ks_ok = ks <= ks_crit
    mean_gap = abs(summary.mean_fdp - summary.law.center)
    mean_band = 4.0 * np.sqrt(summary.var_fdp / R)
    mean_ok = mean_gap <= mean_band
    detail = (
        f"variance_ratio={summary.variance_ratio:.4f} (band +/-0.15), "
        f"{ks_name}={ks:.4f} (crit {ks_crit:.4f}), "
        f"|mean-center|={mean_gap:.2e} (band {mean_band:.2e})"
    )
    return ratio_ok and ks_ok and mean_ok, detail


def test_c01_bh_step_up_equals_functional_max():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        alpha = float(rng.uniform(0.005, 0.995))
        p = rng.uniform(0.0001, 0.9999, size=m)
        if rng.uniform() < 0.3:
            p = p**2
        x = -special.ndtri(p)  # statistics; the step-up runs on their p-values
        t = BH(alpha).tally(x[None], 0)[0][0]
        p = p_values(x)
        k = bh_threshold_scan_k(p, alpha)
        ok = ok and (t == alpha * k / m) and bh_no_better_between(p, alpha, k)
        if not ok:
            break
    report(1, ok, "1000 random instances, exact step-up/functional-max equality")
    assert ok


def test_c02_fixed_point_residual_and_center_on_grid():
    worst_resid = 0.0
    worst_center = 0.0
    for pi0 in PI0_GRID:
        for mu in MU_GRID:
            for alpha in ALPHA_GRID:
                cdf = MixtureCdf(pi0, mu)
                t = bh_fixed_point(cdf, alpha)
                worst_resid = max(worst_resid, abs(cdf(t) - t / alpha))
                worst_center = max(worst_center, abs(cdf.fdp_limit(t) - pi0 * alpha))
    ok = worst_resid <= 1e-12 and worst_center <= 1e-12
    report(
        2,
        ok,
        f"144-point grid: max residual {worst_resid:.2e}, "
        f"max |q(t*)-pi0*alpha| {worst_center:.2e} (tol 1e-12)",
    )
    assert ok


def test_c03_generic_pipeline_matches_closed_forms():
    worst = 0.0
    for pi0 in PI0_GRID:
        for mu in MU_GRID:
            for alpha in ALPHA_GRID:
                cdf = MixtureCdf(pi0, mu)
                sigma2_cf, c2_cf = bh_closed_forms(pi0, alpha, bh_fixed_point(cdf, alpha))
                law = asymptotic_law(cdf, BH(alpha), ThetaOverM(0.0))
                sigma2 = law.sigma2
                c2 = law.c_coef**2
                worst = max(
                    worst,
                    abs(sigma2 / sigma2_cf - 1.0),
                    abs(c2 / c2_cf - 1.0),
                )
    ok = worst <= 1e-10
    report(3, ok, f"144-point grid: max relative gap {worst:.2e} (tol 1e-10)")
    assert ok


# Every law of the 144-point grid in three regimes, bit for bit: sha256 over
# the repr of each law's to_dict() items, in grid order.  Criteria 2 and 3
# check these laws only to their tolerances.
GRID_SEQUENCES = (ThetaOverM(0.0), ThetaOverM(4.0), PowerLaw(1.0, 0.5))
GRID_LAW_PIN = "fbf02e447fd76bd0c09f86a4a139cb20a08243f63d7ab475773ab222ff049bc0"


def test_grid_law_digest_pin():
    h = hashlib.sha256()
    for pi0 in PI0_GRID:
        for mu in MU_GRID:
            for alpha in ALPHA_GRID:
                for seq in GRID_SEQUENCES:
                    law = asymptotic_law(MixtureCdf(pi0, mu), BH(alpha), seq)
                    h.update(repr(list(law.to_dict().items())).encode())
    assert h.hexdigest() == GRID_LAW_PIN


def test_c04_case_i_theta_zero_clt(theta0_summary):
    ok, detail = check_clt_run(theta0_summary)
    report(4, ok, f"theta=0, m=5000, R=4000: {detail}")
    assert ok


def test_c05_case_i_nonzero_theta(theta0_summary):
    s4 = run(case_i_config(5000, 4.0, 4000), workers=WORKERS)
    sm1 = run(case_i_config(5000, -1.0, 4000), workers=WORKERS)
    ok4, detail4 = check_clt_run(s4)
    okm1, detailm1 = check_clt_run(sm1)
    order_ok = s4.var_scaled > theta0_summary.var_scaled > sm1.var_scaled
    ok = ok4 and okm1 and order_ok
    report(
        5,
        ok,
        f"theta=4: {detail4}; theta=-1: {detailm1}; strict variance ordering "
        f"{s4.var_scaled:.4f} > {theta0_summary.var_scaled:.4f} > {sm1.var_scaled:.4f}: "
        f"{order_ok}",
    )
    assert ok


def case_ii_config(m, replicates):
    seq = PowerLaw(1.0, 0.5)
    return ExperimentConfig(
        params=ModelParams(m=m, pi0=PI0, mu=MU, rho=seq.rho_at(m)),
        procedure=BH(ALPHA),
        rho_seq=seq,
        replicates=replicates,
        seed=SEED,
    )


def test_c06_case_ii_clt_and_rate_separation():
    s_large = run(case_ii_config(10_000, 4000), workers=WORKERS)
    s_small = run(case_ii_config(1_000, 4000), workers=WORKERS)
    sigma2, c2 = bh_closed_forms(PI0, ALPHA, bh_fixed_point(MixtureCdf(PI0, MU), ALPHA))
    grid = np.linspace(-8.0, 8.0, 4001) * np.sqrt(c2)
    limit = special.ndtr(grid / np.sqrt(c2))
    c_coef = s_large.law.c_coef
    refs, d, slope_gap, lines = {}, {}, {}, []
    for summary in (s_small, s_large):
        m, rho = summary.m, summary.config.params.base.rho
        refs[m] = case_ii_reference_cdf(PI0, MU, ALPHA, m, rho, sigma2)
        # distance of the finite-m law from its limit N(0, c^2)
        d[m] = float(np.max(np.abs(refs[m](grid) - limit)))
        slope = central_difference(
            lambda w: conditional_bh_fdp(PI0, MU, ALPHA, rho, w), 0.0, h=1e-4
        ) / np.sqrt(rho)
        slope_gap[m] = abs(slope / c_coef - 1.0)
        lines.append(
            f"m={m}: ks vs F_m={ks_uniform(refs[m](summary.scaled_deviations)):.4f}, "
            f"ks vs N(0,c^2)={summary.ks_statistic:.4f}, d_m={d[m]:.4f}, "
            f"|slope/c-1|={slope_gap[m]:.2e}"
        )
    clt_ok, detail = check_clt_run(s_large, reference_cdf=refs[10_000])
    limit_ok = d[10_000] < d[1_000] and slope_gap[10_000] < slope_gap[1_000]
    growth = (10_000 * s_large.var_fdp) / (1_000 * s_small.var_fdp)
    growth_ok = 2.4 <= growth <= 4.0
    ok = clt_ok and limit_ok and growth_ok
    report(
        6,
        ok,
        f"rho_m=m^-1/2, m=1e4, R=4000: {detail}; {'; '.join(lines)}; "
        f"d_m and slope gap shrink: {limit_ok}; "
        f"m*var growth 1e3->1e4 = {growth:.2f} (band [2.4, 4.0])",
    )
    assert ok


@pytest.fixture(scope="module")
def fixed_rho_raw_5000():
    cfg = ExperimentConfig(
        params=ModelParams(m=5000, pi0=PI0, mu=MU, rho=0.3),
        procedure=BH(ALPHA),
        rho_seq=FixedRho(0.3),
        replicates=4000,
        seed=SEED,
    )
    return run(cfg, workers=WORKERS)


def test_c07_oracle_transform_restores_sqrt_m_rate(fixed_rho_raw_5000):
    oracle_cfg = ExperimentConfig(
        params=OracleParams(ModelParams(m=5000, pi0=PI0, mu=MU, rho=0.3)),
        procedure=BH(ALPHA),
        replicates=4000,
        seed=SEED,
    )
    s_oracle = run(oracle_cfg, workers=WORKERS)
    clt_ok, detail = check_clt_run(s_oracle)
    # contrast: the untransformed FDP variance does not shrink with m
    raw_cfg_20k = ExperimentConfig(
        params=ModelParams(m=20_000, pi0=PI0, mu=MU, rho=0.3),
        procedure=BH(ALPHA),
        rho_seq=FixedRho(0.3),
        replicates=4000,
        seed=SEED,
    )
    s_raw_20k = run(raw_cfg_20k, workers=WORKERS)
    floor_ratio = fixed_rho_raw_5000.var_fdp / s_raw_20k.var_fdp
    floor_ok = 0.7 <= floor_ratio <= 1.4
    ok = clt_ok and floor_ok
    report(
        7,
        ok,
        f"oracle rho=0.3, m=5000, R=4000: {detail}; raw variance floor "
        f"var(m=5000)/var(m=20000) = {floor_ratio:.3f} (band [0.7, 1.4])",
    )
    assert ok


def test_c08_ecdf_covariance_probe():
    params = ModelParams(m=10_000, pi0=PI0, mu=MU, rho=0.0)
    grid = [0.25, 0.5]
    probe = ecdf_covariance_probe(params, grid, replicates=5000, seed=SEED)
    cdf = MixtureCdf(PI0, MU)
    se_null = bootstrap_cov_se(probe.dev_null, n_boot=200, seed=1)
    se_alt = bootstrap_cov_se(probe.dev_alt, n_boot=200, seed=1)
    ok = True
    gaps = []
    for a, s in enumerate(grid):
        for b, t in enumerate(grid):
            gap0 = abs(probe.cov_null[a, b] - ecdf_limit_cov(cdf, 0.0, "null", s, t))
            gap1 = abs(probe.cov_alt[a, b] - ecdf_limit_cov(cdf, 0.0, "alt", s, t))
            gaps.append(max(gap0 / (4 * se_null[a, b]), gap1 / (4 * se_alt[a, b])))
            ok = ok and gap0 <= 4 * se_null[a, b] and gap1 <= 4 * se_alt[a, b]
    report(
        8,
        ok,
        f"rho=0, m=1e4, R=5000: max |emp cov - kernel| = {max(gaps):.2f} "
        "of the 4-bootstrap-SE budget",
    )
    assert ok


def test_c09_sampler_moments():
    m, R, rho = 1000, 20_000, 0.3
    params = ModelParams(m=m, pi0=PI0, mu=MU, rho=rho)
    cols = (0, 250, 499, 500, 999)  # three nulls would do; include alternatives
    # the rows of sample(params, RngStream(SEED, r)), drawn in blocks
    xs = np.concatenate([x[:, cols] for _, _, x in _draw_blocks(params, SEED, 0, R)])
    assert np.array_equal(xs[-1], sample(params, RngStream(SEED, R - 1)).x[list(cols)])
    means = xs.mean(axis=0)
    mean_band = 3.0 / np.sqrt(R)
    mean_ok = (
        abs(means[0]) <= mean_band
        and abs(means[1]) <= mean_band
        and abs(means[3] - MU) <= mean_band
        and abs(means[4] - MU) <= mean_band
    )
    centered = xs - means
    var_ok = all(
        abs(np.mean(centered[:, j] ** 2) - 1.0) <= 3.0 * np.sqrt(2.0 / R)
        for j in range(len(cols))
    )
    cov_band = 3.0 * np.sqrt((1.0 + rho**2) / R)
    covs = [
        np.mean(centered[:, i] * centered[:, j])
        for i, j in [(0, 1), (1, 2), (0, 4), (3, 4)]
    ]
    cov_ok = all(abs(c - rho) <= cov_band for c in covs)

    # null p-value uniformity at rho = 0, pooled across replicates
    params0 = ModelParams(m=m, pi0=PI0, mu=MU, rho=0.0)
    pooled = np.concatenate(
        [_p_values(x[:, :500]).ravel() for _, _, x in _draw_blocks(params0, SEED + 1, 0, R)]
    )
    assert np.array_equal(pooled[-500:], sample(params0, RngStream(SEED + 1, R - 1)).p[:500])
    ks = ks_uniform(pooled)
    ks_crit = 1.63 / np.sqrt(pooled.size)
    ks_ok = ks <= ks_crit
    ok = mean_ok and var_ok and cov_ok and ks_ok
    report(
        9,
        ok,
        f"m=1000, R=2e4: means ok={mean_ok}, variances ok={var_ok}, "
        f"pairwise cov ok={cov_ok} (target {rho}), null-p KS={ks:.2e} "
        f"(crit {ks_crit:.2e})",
    )
    assert ok


def test_c10_special_function_tables():
    interior = [(z, t) for z, t in UPPER_TAIL_TABLE if 0.0 < t < 1.0]
    assert len(interior) >= 20
    table_ok = all(
        abs(phi_upper(z) - t) <= 1e-10 * t for z, t in interior
    )
    quantile_ok = all(
        abs(phi_upper(phi_upper_inv(t)) - t) <= 1e-12 * max(t, 1.0 - t)
        for _, t in interior
    )
    # forward round trip from probabilities across the full span
    ts = np.concatenate(
        [np.geomspace(1e-300, 0.5, 50), 1.0 - np.geomspace(1e-16, 0.5, 50)]
    )
    roundtrip_ok = bool(
        np.all(np.abs(phi_upper(phi_upper_inv(ts)) - ts) <= 1e-10 * ts)
    )
    # inverse round trip where float64 can represent it (see ledger note)
    zs = np.linspace(-6.0, 8.0, 57)
    z_roundtrip_ok = bool(np.all(np.abs(phi_upper_inv(phi_upper(zs)) - zs) <= 1e-8))
    ok = table_ok and quantile_ok and roundtrip_ok and z_roundtrip_ok
    report(
        10,
        ok,
        f"{len(interior)}-point reference table, quantile residuals, and "
        "round-trip identities within stated tolerances",
    )
    assert ok
