"""Block-processed replicates against a naive per-replicate recomputation,
and digest pins of per_replicate_fdp.

``run`` and ``ecdf_covariance_probe`` draw and threshold replicates in
(B, m) blocks.  Here every replicate is recomputed on its own, straight from
its stream: the factor formula, erfc, the clamp, the exact-rational BH scan
and a loop recount.  The block results must match exactly, for block sizes
B = 1 (trailing blocks) and B > 1, R not a multiple of B, and any worker
count.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import special

import equifdp.experiment
import equifdp.model
from equifdp import (
    BH,
    ExperimentConfig,
    FixedThreshold,
    MixtureCdf,
    ModelParams,
    OracleParams,
    ParameterError,
    PowerLaw,
    RngStream,
    ThetaOverM,
    ecdf_covariance_probe,
    run,
    sample,
)

from oracles import bh_threshold_scan_k, fdp_recount, group_counts

SEED = 20260808
P_MIN = np.nextafter(0.0, 1.0)
P_MAX = np.nextafter(1.0, 0.0)

# replicates per m: R is not a multiple of the block size max(1, 16384 // m),
# and at m = 5001 (3 rows per block) the last block has a single row
R_AT = {2: 40, 3: 40, 1000: 19, 5001: 4}


def naive_replicate(config, stream_id):
    """(threshold, rejected, false_rejections, fdp) of one replicate."""
    base = config.base_params
    m, rho, mu, pi0 = base.m, base.rho, base.mu, base.pi0
    # numpy's own seeding, not the package's port of it
    seeds = np.random.SeedSequence(entropy=config.seed, spawn_key=(stream_id,))
    rng = np.random.Generator(np.random.PCG64(seeds))
    xi = rng.standard_normal(m)
    u = rng.standard_normal()
    tau = np.array([i >= base.m0 for i in range(m)])
    common = math.sqrt(max(0.0, (1.0 + (m - 1) * rho) / m))
    x = math.sqrt(1.0 - rho) * (xi - xi.mean()) + common * u
    x[tau] += mu
    if config.oracle_mode:
        x = math.sqrt(m / ((m - 1) * (1.0 - rho))) * (x - x.mean() + (1.0 - pi0) * mu)
    p = np.clip(0.5 * special.erfc(x / math.sqrt(2.0)), P_MIN, P_MAX)
    if isinstance(config.procedure, BH):
        alpha = config.procedure.alpha
        t = alpha * bh_threshold_scan_k(p, alpha) / m
    else:
        t = config.procedure.t
    rejected = sum(1 for q in p if q <= t)
    false_rej = sum(1 for q, alt in zip(p, tau) if q <= t and not alt)
    return t, rejected, false_rej, fdp_recount(tau, p, t)


def _cases():
    cases = []
    for m in (2, 3, 1000, 5001):
        for rho in (-1.0 / (m - 1), 0.0, 0.3, 1.0):
            cases.append((m, rho, BH(0.2), False))
        cases.append((m, 0.3, FixedThreshold(0.05), False))
        cases.append((m, 0.3, BH(0.2), True))
        cases.append((m, 0.3, FixedThreshold(0.05), True))
    return [case + (1 + i % 3,) for i, case in enumerate(cases)]


@pytest.mark.parametrize("m,rho,procedure,oracle,workers", _cases())
def test_run_equals_naive_per_replicate(m, rho, procedure, oracle, workers):
    base = ModelParams(m=m, pi0=0.5, mu=2.0, rho=rho)
    config = ExperimentConfig(
        params=OracleParams(base) if oracle else base,
        procedure=procedure,
        replicates=R_AT[m],
        seed=SEED,
    )
    offset = 11
    s = run(config, workers=workers, stream_offset=offset)
    want = [naive_replicate(config, offset + r) for r in range(config.replicates)]
    thresholds, rejected, false_rej, fdp = (np.array(col) for col in zip(*want))
    np.testing.assert_array_equal(s.thresholds, thresholds)
    np.testing.assert_array_equal(s.rejected, rejected)
    np.testing.assert_array_equal(s.false_rejections, false_rej)
    np.testing.assert_array_equal(s.fdp, fdp)


def test_state_chunks_split_the_range(monkeypatch):
    # stream states are computed per chunk of whole blocks: at m = 2000 (8
    # rows per block) a chunk of 20 ids holds 2 blocks, and R = 37 ends in a
    # partial chunk
    monkeypatch.setattr(equifdp.experiment, "_STATE_CHUNK", 20)
    config = ExperimentConfig(
        params=ModelParams(m=2000, pi0=0.5, mu=2.0, rho=0.3), procedure=BH(0.2),
        replicates=37, seed=SEED,
    )
    s = run(config, stream_offset=3)
    want = [naive_replicate(config, 3 + r) for r in range(config.replicates)]
    np.testing.assert_array_equal(s.fdp, [w[3] for w in want])
    np.testing.assert_array_equal(s.thresholds, [w[0] for w in want])


def test_last_streams_equal_naive_per_replicate():
    # the range ends at the largest stream id, 2**64 - 1
    config = ExperimentConfig(
        params=ModelParams(m=50, pi0=0.5, mu=2.0, rho=0.3), procedure=BH(0.2),
        replicates=5, seed=SEED,
    )
    s = run(config, stream_offset=2**64 - 5)
    want = [naive_replicate(config, 2**64 - 5 + r) for r in range(config.replicates)]
    np.testing.assert_array_equal(s.fdp, [w[3] for w in want])
    np.testing.assert_array_equal(s.thresholds, [w[0] for w in want])


def test_stream_range_past_the_last_id_is_a_parameter_error():
    params = ModelParams(m=50, pi0=0.5, mu=2.0, rho=0.3)
    config = ExperimentConfig(params=params, procedure=BH(0.2), replicates=5, seed=SEED)
    with pytest.raises(ParameterError, match="stream_id"):
        run(config, stream_offset=2**64 - 3)
    with pytest.raises(ParameterError, match="stream_id"):
        ecdf_covariance_probe(params, [0.5], 5, seed=SEED, stream_offset=2**64 - 3)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_replicates_without_rejections(workers):
    # at m = 3 and a small level most replicates reject nothing: threshold
    # 0.0 and FDP 0 by convention
    config = ExperimentConfig(
        params=ModelParams(m=3, pi0=0.5, mu=2.0, rho=0.0),
        procedure=BH(0.05),
        replicates=200,
        seed=SEED,
    )
    s = run(config, workers=workers)
    empty = s.rejected == 0
    assert 0 < np.count_nonzero(empty) < s.rejected.size
    assert np.all(s.thresholds[empty] == 0.0) and np.all(s.fdp[empty] == 0.0)
    want = [naive_replicate(config, r) for r in range(config.replicates)]
    np.testing.assert_array_equal(s.fdp, [w[3] for w in want])
    np.testing.assert_array_equal(s.thresholds, [w[0] for w in want])


@pytest.mark.parametrize("m,replicates", [(3, 40), (1000, 37), (5001, 7)])
def test_probe_equals_group_recount(m, replicates):
    params = ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.1)
    grid = np.array([0.05, 0.25, 0.5])
    probe = ecdf_covariance_probe(params, grid, replicates, seed=SEED, stream_offset=5)
    g1 = np.asarray(MixtureCdf(0.5, 2.0).alt_cdf(grid))
    root_m = math.sqrt(m)
    for r in range(replicates):
        s = sample(params, RngStream(SEED, 5 + r))
        null, alt = group_counts(s.tau, s.p, grid)
        n_null = np.count_nonzero(~s.tau)
        np.testing.assert_array_equal(probe.dev_null[r], root_m * (null / n_null - grid))
        np.testing.assert_array_equal(probe.dev_alt[r], root_m * (alt / (m - n_null) - g1))


def test_oracle_run_evaluates_p_values_once(monkeypatch):
    # the rescaled statistics are the only ones turned into p-values
    seen = []
    original = equifdp.model.phi_upper

    def counting(z):
        seen.append(np.size(z))
        return original(z)

    monkeypatch.setattr(equifdp.model, "phi_upper", counting)
    config = ExperimentConfig(
        params=OracleParams(ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3)),
        procedure=BH(0.2),
        replicates=37,
        seed=SEED,
    )
    run(config)
    assert sum(seen) == 37 * 1000


# sha256 of the float64 bytes of per_replicate_fdp, recorded before replicates
# were processed in blocks; they pin the README's bit-identity contract
DIGEST_PINS = {
    "oracle m=1000": (
        ExperimentConfig(
            params=OracleParams(ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3)),
            procedure=BH(0.2),
            replicates=300,
            seed=SEED,
        ),
        "74ae1e1527ae9d4ccd18e2fb8dbe166f3cfde7700ddbd062f53720d08f2d25ca",
    ),
    "case ii m=1000": (
        ExperimentConfig(
            params=ModelParams(m=1000, pi0=0.5, mu=2.0, rho=PowerLaw(1.0, 0.5).rho_at(1000)),
            procedure=BH(0.2),
            rho_seq=PowerLaw(1.0, 0.5),
            replicates=300,
            seed=SEED,
        ),
        "c052edb93b2e6d7138640ac68711b9e3aa84f250567e10594fc3190b2b69f02f",
    ),
    "theta=-1 m=5001": (
        ExperimentConfig(
            params=ModelParams(m=5001, pi0=0.5, mu=2.0, rho=ThetaOverM(-1.0).rho_at(5001)),
            procedure=BH(0.2),
            rho_seq=ThetaOverM(-1.0),
            replicates=200,
            seed=SEED,
        ),
        "b955cd29b765a4a9f149248bc3f4272ed08c2f4a98ffed3998554c24a12b1dcb",
    ),
}


@pytest.mark.parametrize("name", list(DIGEST_PINS))
@pytest.mark.parametrize("workers", [1, 2])
def test_per_replicate_fdp_digest_pins(name, workers):
    config, digest = DIGEST_PINS[name]
    fdp = run(config, workers=workers).fdp
    assert hashlib.sha256(np.asarray(fdp, dtype=np.float64).tobytes()).hexdigest() == digest


class TestInputContracts:
    @pytest.mark.parametrize("replicates", [2.5, 0, -3, True, "10"])
    def test_replicates_must_be_a_positive_integer(self, replicates):
        with pytest.raises(ParameterError, match="replicates"):
            ExperimentConfig(
                params=ModelParams(m=10, pi0=0.5, mu=2.0, rho=0.0),
                procedure=BH(0.2),
                replicates=replicates,
            )

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_checked_at_construction(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            ExperimentConfig(
                params=ModelParams(m=10, pi0=0.5, mu=2.0, rho=0.0),
                procedure=BH(0.2),
                replicates=5,
                seed=seed,
            )

    @pytest.mark.parametrize("workers", [2.5, "2", None, True])
    def test_workers_must_be_an_integer(self, workers):
        config = ExperimentConfig(
            params=ModelParams(m=10, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            replicates=5,
        )
        with pytest.raises(ParameterError, match="workers"):
            run(config, workers=workers)

    @pytest.mark.parametrize("replicates", [2.5, 0, 1, True])
    def test_probe_needs_two_integer_replicates(self, replicates):
        # one replicate gives no covariance (NaN with a warning); a float
        # count used to die inside numpy
        params = ModelParams(m=10, pi0=0.5, mu=2.0, rho=0.0)
        with pytest.raises(ParameterError, match="replicates"):
            ecdf_covariance_probe(params, [0.5], replicates)

    @pytest.mark.parametrize("workers", [0, -2, np.int64(1)])
    def test_workers_at_most_one_run_in_one_thread(self, workers, monkeypatch):
        config = ExperimentConfig(
            params=ModelParams(m=10, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            replicates=5,
        )
        want = run(config).fdp

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(equifdp.experiment, "ThreadPoolExecutor", no_pool)
        np.testing.assert_array_equal(run(config, workers=workers).fdp, want)
