"""Model parameter validation, sampler distributional checks, and the
group counts of the kernel's tally."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifdp import (
    FixedRho,
    FixedThreshold,
    MixtureCdf,
    ModelParams,
    ParameterError,
    PowerLaw,
    RngStream,
    Sample,
    ThetaOverM,
    sample,
    write_sample_csv,
)
from equifdp.model import _generator, _seeded, _stream_states
from equifdp.procedures import _apply_procedure_rows
from oracles import GivenThresholds, group_counts, ks_uniform, mixture_identity_exact

P_MAX = np.nextafter(1.0, 0.0)


def pooled_and_null_counts(procedure, s, rows=1):
    """(rejected, false_rejections): the pooled and null counts of p <= t
    from the kernel's tally of `rows` copies of one sample."""
    _, rejected, false_rej, _ = _apply_procedure_rows(procedure, np.tile(s.p, (rows, 1)), s.tau)
    return rejected, false_rej


class TestModelParams:
    def test_valid(self):
        p = ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.1)
        assert p.m0 == 50
        assert p.cdf == MixtureCdf(0.5, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=1, pi0=0.5, mu=1.0, rho=0.0),
            dict(m=100, pi0=0.0, mu=1.0, rho=0.0),
            dict(m=100, pi0=1.0, mu=1.0, rho=0.0),
            dict(m=100, pi0=0.5, mu=0.0, rho=0.0),
            dict(m=100, pi0=0.5, mu=-1.0, rho=0.0),
            dict(m=100, pi0=0.5, mu=1.0, rho=1.0001),
            dict(m=100, pi0=0.5, mu=1.0, rho=-1.0 / 99 - 1e-6),
            dict(m=2, pi0=0.4, mu=1.0, rho=0.0),  # floor(m*pi0) = 0
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    def test_boundary_rho_accepted(self):
        ModelParams(m=50, pi0=0.5, mu=1.0, rho=-1.0 / 49)
        ModelParams(m=50, pi0=0.5, mu=1.0, rho=1.0)

    def test_floor_convention(self):
        assert ModelParams(m=7, pi0=0.5, mu=1.0, rho=0.0).m0 == 3


class TestRhoSequences:
    def test_theta_over_m(self):
        assert ThetaOverM(4.0).rho_at(1000) == 0.004
        assert ThetaOverM(-1.0).rho_at(10) == -0.1
        with pytest.raises(ParameterError):
            ThetaOverM(-1.5)

    def test_power_law(self):
        seq = PowerLaw(2.0, 0.5)
        assert seq.rho_at(10000) == pytest.approx(0.02)
        with pytest.raises(ParameterError):
            PowerLaw(2.0, 1.0)
        with pytest.raises(ParameterError):
            PowerLaw(-1.0, 0.5)
        for c in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="c must be positive and finite"):
                PowerLaw(c, 0.5)

    def test_fixed(self):
        assert FixedRho(0.3).rho_at(12345) == 0.3
        with pytest.raises(ParameterError):
            FixedRho(0.0)


class TestRngStream:
    def test_determinism_bit_for_bit(self):
        params = ModelParams(m=200, pi0=0.5, mu=2.0, rho=0.2)
        a = sample(params, RngStream(42, 3))
        b = sample(params, RngStream(42, 3))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.tau, b.tau)

    def test_distinct_streams_differ(self):
        params = ModelParams(m=200, pi0=0.5, mu=2.0, rho=0.2)
        a = sample(params, RngStream(42, 0))
        b = sample(params, RngStream(42, 1))
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -5), (2**64, 0), (True, 0), (0, False)])
    def test_rejects_out_of_range(self, seed, stream):
        with pytest.raises(ParameterError):
            RngStream(seed, stream)


# seeds and stream ids at the edges of one and two 32-bit words
PORT_SEEDS = [0, 1, 2**32 - 1, 2**32, 20260808, 2**64 - 1]
PORT_IDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 2, 2**64 - 1]


def numpy_stream(seed, stream_id):
    """The stream built by numpy's own SeedSequence and PCG64."""
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(seeds))


class TestSeedingPort:
    """_stream_states against the installed numpy: a drift guard for the
    package's port of SeedSequence -> PCG64 seeding."""

    @pytest.mark.parametrize("seed", PORT_SEEDS)
    @pytest.mark.parametrize("stream_id", PORT_IDS)
    def test_scalar_path_matches_numpy(self, seed, stream_id):
        want = numpy_stream(seed, stream_id).standard_normal(9)
        port = _seeded(_generator(), _stream_states(seed, stream_id))
        np.testing.assert_array_equal(port.standard_normal(9), want)
        stream = RngStream(seed, stream_id).generator()
        np.testing.assert_array_equal(stream.standard_normal(9), want)

    @pytest.mark.parametrize("seed", PORT_SEEDS)
    def test_array_path_matches_numpy(self, seed):
        # one call holds ids of one and of two 32-bit words, on both sides of 2**32
        ids = np.array([*range(2**32 - 3, 2**32 + 3), *PORT_IDS], dtype=np.uint64)
        rng = _generator()
        for stream_id, state in zip(ids.tolist(), _stream_states(seed, ids)):
            want = numpy_stream(seed, stream_id).standard_normal(9)
            np.testing.assert_array_equal(_seeded(rng, state).standard_normal(9), want)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1))
    def test_state_matches_numpy(self, seed, stream_id):
        state = numpy_stream(seed, stream_id).bit_generator.state["state"]
        assert _stream_states(seed, stream_id) == (state["state"], state["inc"])
        ids = np.array([stream_id], dtype=np.uint64)
        assert _stream_states(seed, ids) == [(state["state"], state["inc"])]


class TestSampler:
    def test_truth_layout(self):
        params = ModelParams(m=10, pi0=0.7, mu=1.0, rho=0.0)
        s = sample(params, RngStream(0, 0))
        assert np.count_nonzero(~s.tau) == 7
        assert not s.tau[:7].any() and s.tau[7:].all()

    def test_p_values_interior_even_for_huge_shift(self):
        # mu large enough that the alternative tail probability underflows;
        # the clamp must keep p strictly inside (0, 1)
        params = ModelParams(m=10, pi0=0.5, mu=45.0, rho=0.0)
        s = sample(params, RngStream(1, 0))
        assert np.all(s.p > 0.0) and np.all(s.p < 1.0)

    def test_negative_boundary_rho_centers_exactly(self):
        # at rho = -1/(m-1) the common factor drops out and the centered
        # statistics sum to zero up to float rounding
        m = 64
        params = ModelParams(m=m, pi0=0.5, mu=2.0, rho=-1.0 / (m - 1))
        s = sample(params, RngStream(5, 0))
        resid = np.sum(s.x - np.where(s.tau, params.mu, 0.0))
        assert abs(resid) <= 1e-10 * np.sqrt(m)

    def test_independence_at_rho_zero(self):
        # empirical cross-covariance at m=4 over 1e5 replicates within 3 MC
        # standard errors of zero
        params = ModelParams(m=4, pi0=0.5, mu=2.0, rho=0.0)
        R = 100_000
        xs = np.empty((R, 4))
        for r in range(R):
            xs[r] = sample(params, RngStream(777, r)).x
        xs -= np.where([False, False, True, True], params.mu, 0.0)
        se = 3.0 / np.sqrt(R)
        for i, j in [(0, 1), (0, 2), (2, 3)]:
            cov = np.mean(xs[:, i] * xs[:, j]) - xs[:, i].mean() * xs[:, j].mean()
            assert abs(cov) <= se

    def test_moments_at_positive_rho(self):
        # marginal variance 1 and pairwise covariance rho, both within 3 MC
        # standard errors; exchangeability across null pairs
        rho, R = 0.3, 20_000
        params = ModelParams(m=50, pi0=0.5, mu=2.0, rho=rho)
        xs = np.empty((R, 50))
        for r in range(R):
            xs[r] = sample(params, RngStream(2024, r)).x
        centered = xs - xs.mean(axis=0)
        var_se = 3.0 * np.sqrt(2.0 / R)
        for col in (0, 10, 30):
            assert abs(np.mean(centered[:, col] ** 2) - 1.0) <= var_se
        cov_se = 3.0 * np.sqrt((1.0 + rho**2) / R)
        pair_covs = []
        for i, j in [(0, 1), (3, 17), (2, 24)]:
            cov = np.mean(centered[:, i] * centered[:, j])
            pair_covs.append(cov)
            assert abs(cov - rho) <= cov_se
        # null-null pairs agree with each other within MC error
        assert max(pair_covs) - min(pair_covs) <= 2.0 * cov_se

    def test_mean_on_alternatives(self):
        params = ModelParams(m=20, pi0=0.5, mu=2.0, rho=0.1)
        R = 10_000
        col = np.empty(R)
        for r in range(R):
            col[r] = sample(params, RngStream(9, r)).x[15]  # alternative index
        assert abs(col.mean() - params.mu) <= 3.0 / np.sqrt(R)

    def test_null_p_values_uniform(self):
        # pooled null p-values at rho=0 pass a KS test at the 1% level
        params = ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.0)
        pooled = np.concatenate(
            [sample(params, RngStream(31, r)).p[:50] for r in range(200)]
        )
        assert ks_uniform(pooled) <= 1.63 / np.sqrt(pooled.size)


class TestEcdfTriple:
    """Null, alternative and pooled counts #{p <= t}: the tally's false
    rejections, their difference, and its rejections."""

    def test_two_point_example(self):
        s = Sample(
            tau=np.array([False, True]),
            x=np.array([0.5, -0.5]),
            p=np.array([0.3, 0.7]),
        )
        rejected, false_rej = pooled_and_null_counts(FixedThreshold(0.5), s)
        assert false_rej[0] == 1  # null e.c.d.f. 1/1
        assert rejected[0] - false_rej[0] == 0  # alternative e.c.d.f. 0/1
        assert rejected[0] / 2 == 0.5  # pooled e.c.d.f.

    def test_boundary_values(self):
        # every p-value is clamped to at most the largest float below 1
        params = ModelParams(m=30, pi0=0.5, mu=1.0, rho=0.0)
        s = sample(params, RngStream(3, 0))
        assert pooled_and_null_counts(FixedThreshold(P_MAX), s)[0][0] == 30
        assert pooled_and_null_counts(FixedThreshold(float(s.p.min()) * 0.5), s)[0][0] == 0

    def test_mixture_identity_exact_rationals(self):
        # pooled count equals the sum of the group counts, and the pooled
        # e.c.d.f. the weighted group mixture exactly, checked against a
        # sort-and-search recount in rational arithmetic of counts
        params = ModelParams(m=50, pi0=0.6, mu=1.5, rho=0.1)
        rng = np.random.default_rng(0)
        for r in range(1000):
            s = sample(params, RngStream(11, r))
            ts = rng.uniform(0.0, 1.0, size=100)
            call, c0 = pooled_and_null_counts(GivenThresholds(ts), s, rows=100)
            n0, n1 = group_counts(s.tau, s.p, ts)
            np.testing.assert_array_equal(c0, n0)
            np.testing.assert_array_equal(call - c0, n1)
            for k in (0, 37, 99):
                assert mixture_identity_exact(30, 20, n0[k], n1[k], call[k])

    def test_vectorized_evaluation(self):
        # a block of rows tallies each row as if it were alone
        params = ModelParams(m=40, pi0=0.5, mu=1.0, rho=0.0)
        s = sample(params, RngStream(8, 0))
        ts = np.linspace(0.0, 1.0, 7)
        block = pooled_and_null_counts(GivenThresholds(ts), s, rows=7)
        single = [pooled_and_null_counts(GivenThresholds(float(t)), s) for t in ts]
        np.testing.assert_array_equal(block, np.array(single)[:, :, 0].T)


def test_sample_csv_dump(tmp_path):
    params = ModelParams(m=5, pi0=0.5, mu=1.0, rho=0.0)
    s = sample(params, RngStream(21, 0))
    path = tmp_path / "sample.csv"
    write_sample_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,tau,x,p"
    assert len(lines) == 6
    index, tau, x, p = lines[3].split(",")
    assert int(index) == 2
    assert int(tau) == int(s.tau[2])
    assert float(x) == s.x[2]
    assert float(p) == s.p[2]
