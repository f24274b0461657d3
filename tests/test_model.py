"""Model parameter validation, sampler distributional checks, and the
group counts of the kernel's tally."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from equifdp.model import _BLOCK_ELEMS, _draw_blocks, _stream_words, _Words
from oracles import P_MAX, GivenThresholds, group_counts, ks_uniform, mixture_identity_exact


def two_blocks(params, seed):
    """Rows from streams (seed, 0) on, one more than a block holds, drawn by
    the one draw path, _draw_blocks, in two blocks."""
    n = max(1, _BLOCK_ELEMS // params.m) + 1
    blocks = [x for _, _, x in _draw_blocks(params, seed, 0, n)]
    assert len(blocks) == 2
    return np.concatenate(blocks)


def draw_rows(params, seed, n):
    """Rows 0..n-1, row r the statistics of sample(params, RngStream(seed,
    r)), from one _draw_blocks call; the last row is checked against
    sample() itself."""
    xs = np.concatenate([x for _, _, x in _draw_blocks(params, seed, 0, n)])
    assert np.array_equal(xs[-1], sample(params, RngStream(seed, n - 1)).x)
    return xs


def pooled_and_null_counts(procedure, s, rows=1):
    """(rejected, false_rejections): the pooled and null counts of p <= t
    from the kernel's tally of `rows` copies of one sample's statistics."""
    _, rejected, false_rej = procedure.tally(np.tile(s.x, (rows, 1)), np.count_nonzero(~s.tau))
    return rejected, false_rej


class TestModelParams:
    def test_valid(self):
        p = ModelParams(m=100, pi0=0.5, mu=2.0, rho=0.1)
        assert p.m0 == 50
        assert p.cdf == MixtureCdf(0.5, 2.0)
        # the surface it shares with OracleParams: its own base, no regime of
        # its own, the identity transform, and a rebuild at another m
        assert p.base is p and p.rho_seq is None
        x = np.linspace(-1.0, 3.0, 100)
        assert p.transform(x) is x
        assert p.at(300, 0.05) == ModelParams(m=300, pi0=0.5, mu=2.0, rho=0.05)

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

    def test_power_law_rho_rounding_to_zero_rejected(self):
        # c * m**-gamma is 5e-324 * 0.1 at m = 100, which rounds to 0, and
        # a_m = rho_m**-0.5 would divide by it
        seq = PowerLaw(5e-324, 0.5)
        message = re.escape("rounds to 0 at c=5e-324, gamma=0.5, m=100")
        for at in (seq.rho_at, seq.a_m):
            with pytest.raises(ParameterError, match=message):
                at(100)
        # a subnormal rho_m that does not round to 0 is kept
        assert PowerLaw(1e-322, 0.5).rho_at(100) == 1e-323
        with pytest.raises(ParameterError, match="m=10000"):
            PowerLaw(1e-322, 0.5).rho_at(10000)

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


def assert_words(seed, ids):
    """_stream_words of a uint64 array of ids is numpy's generate_state(4,
    np.uint64), one row per id, as a C-contiguous (n, 4) uint64 array."""
    got = _stream_words(seed, ids)
    assert got.shape == (ids.size, 4) and got.dtype == np.uint64
    assert got.flags.c_contiguous
    for i, row in zip(ids.tolist(), got):
        seeds = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        assert np.array_equal(row, seeds.generate_state(4, np.uint64))


class TestSeedingPort:
    """_stream_words against the installed numpy: a drift guard for the
    kernel's port of SeedSequence's spawn-key hashing and generate_state."""

    @pytest.mark.parametrize("seed", PORT_SEEDS)
    @pytest.mark.parametrize("stream_id", PORT_IDS)
    def test_scalar_path_matches_numpy(self, seed, stream_id):
        # the one-id call that sample() makes
        assert_words(seed, np.uint64([stream_id]))

    @pytest.mark.parametrize("seed", PORT_SEEDS)
    def test_array_path_matches_numpy(self, seed):
        # one call holds ids of one and of two 32-bit words, on both sides of 2**32
        assert_words(seed, np.array([*range(2**32 - 3, 2**32 + 3), *PORT_IDS], dtype=np.uint64))

    @pytest.mark.parametrize("seed", PORT_SEEDS)
    def test_pcg64_state_matches_numpy(self, seed):
        # PCG64 seeded through _Words from each row is numpy's whole seeding
        ids = np.array(PORT_IDS, dtype=np.uint64)
        for stream_id, row in zip(PORT_IDS, _stream_words(seed, ids)):
            seeds = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
            assert np.random.PCG64(_Words(row)).state == np.random.PCG64(seeds).state

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1))
    def test_state_matches_numpy(self, seed, stream_id):
        assert_words(seed, np.array([stream_id], dtype=np.uint64))


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

    @settings(max_examples=40)
    @given(m=st.integers(2, 300), pi0=st.floats(0.01, 0.99), seed=st.integers(0, 2**64 - 1))
    @example(m=64, pi0=0.5, seed=5)
    @example(m=50, pi0=0.5, seed=5)  # 1 + (m-1)*rho rounds to 2**-53, not 0
    def test_negative_boundary_rho_centers_exactly(self, m, pi0, seed):
        # at rho = -1/(m-1) the common factor drops out and the centered
        # statistics of every row sum to zero up to float rounding
        assume(1 <= math.floor(m * pi0) <= m - 1)
        params = ModelParams(m=m, pi0=pi0, mu=2.0, rho=-1.0 / (m - 1))
        x = two_blocks(params, seed)
        resid = np.sum(x - np.where(np.arange(m) >= params.m0, params.mu, 0.0), axis=1)
        assert np.all(np.abs(resid) <= 1e-10 * np.sqrt(m))

    @settings(max_examples=40)
    @given(m=st.integers(2, 300), pi0=st.floats(0.01, 0.99), seed=st.integers(0, 2**64 - 1))
    def test_rho_one_gives_the_common_factor_exactly(self, m, pi0, seed):
        # at rho = 1 every statistic is the common factor U, the variate a
        # stream gives after its m for xi: each null equals U bit for bit
        # and each alternative U + mu
        assume(1 <= math.floor(m * pi0) <= m - 1)
        params = ModelParams(m=m, pi0=pi0, mu=2.0, rho=1.0)
        x = two_blocks(params, seed)
        # U of each row from numpy's own stream (seed, row), so the kernel's
        # rows are checked draw by draw against numpy's seeding
        u = np.empty((x.shape[0], 1))
        for r, u_row in enumerate(u):
            rng = RngStream(seed, r).generator()
            rng.standard_normal(m)
            u_row[0] = rng.standard_normal()
        assert np.array_equal(x[:, : params.m0], np.repeat(u, params.m0, axis=1))
        assert np.array_equal(x[:, params.m0 :], np.repeat(u + params.mu, m - params.m0, axis=1))

    def test_independence_at_rho_zero(self):
        # empirical cross-covariance at m=4 over 1e5 replicates within 3 MC
        # standard errors of zero
        params = ModelParams(m=4, pi0=0.5, mu=2.0, rho=0.0)
        R = 100_000
        xs = draw_rows(params, 777, R)
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
        xs = draw_rows(params, 2024, R)
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
        col = draw_rows(params, 9, R)[:, 15]  # alternative index
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


# sha256 of the file, recorded when csv.writer wrote it: each line ends in
# "\r\n", and a float is written as its shortest repr
SAMPLE_CSV_PINS = {
    (5, 0.5, 1.0, 0.0, 21): "1503a11d7b010cb66f74ab77f1bedd44ef7b975bfc88d8ca56017d77d872f4f2",
    (1000, 0.5, 2.0, 0.3, 7): "8b206575440d723e5a154f2848e7fd0086339d52b984d5ab7b2b3c15fdb52b7f",
}


@pytest.mark.parametrize("m,pi0,mu,rho,seed", list(SAMPLE_CSV_PINS))
def test_sample_csv_bytes_are_pinned(m, pi0, mu, rho, seed, tmp_path):
    s = sample(ModelParams(m=m, pi0=pi0, mu=mu, rho=rho), RngStream(seed, 0))
    path = tmp_path / "sample.csv"
    write_sample_csv(s, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SAMPLE_CSV_PINS[m, pi0, mu, rho, seed]
