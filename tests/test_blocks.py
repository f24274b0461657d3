"""Block-processed replicates against a naive per-replicate recomputation,
and digest pins of per_replicate_fdp.

``run`` and ``ecdf_covariance_probe`` draw and threshold replicates in
(B, m) blocks.  Here every replicate is recomputed on its own, straight from
its stream: the factor formula, erfc, the clamp, the exact-rational BH scan
and a loop recount.  The block results must match exactly, for block sizes
B = 1 (trailing blocks) and B > 1, R not a multiple of B, and any worker
count.
"""

import dataclasses
import hashlib
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import equifdp.experiment
import equifdp.gaussian
import equifdp.model
import equifdp.procedures
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

from equifdp.gaussian import _x_band
from equifdp.procedures import _group_counts
from oracles import bh_threshold_scan_k, fdp_recount, group_counts, p_values

SEED = 20260808


def block_rows(m):
    """Rows per block at width m, as model._draw_blocks sizes them."""
    return max(1, equifdp.model._BLOCK_ELEMS // m)


# replicates per m: R is not a multiple of the block size; at m = 1000 a run
# at one worker spans two blocks, the last partial, and at m = 5001 the last
# block has a single row
R_AT = {2: 40, 3: 40, 1000: block_rows(1000) + 3, 5001: block_rows(5001) + 1}


def naive_replicate(config, stream_id):
    """(threshold, rejected, false_rejections, fdp) of one replicate."""
    base = config.params.base
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
    if isinstance(config.params, OracleParams):
        x = math.sqrt(m / ((m - 1) * (1.0 - rho))) * (x - x.mean() + (1.0 - pi0) * mu)
    p = p_values(x)
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
    # stream states are computed per chunk of whole blocks: at m = 2000 a
    # chunk of 2.5 blocks' ids holds 2 blocks, and R = 4 blocks + 5 rows ends
    # in a partial chunk whose one block is partial
    rows = block_rows(2000)
    monkeypatch.setattr(equifdp.model, "_STATE_CHUNK", 2 * rows + rows // 2)
    config = ExperimentConfig(
        params=ModelParams(m=2000, pi0=0.5, mu=2.0, rho=0.3), procedure=BH(0.2),
        replicates=4 * rows + 5, seed=SEED,
    )
    s = run(config, stream_offset=3)
    want = [naive_replicate(config, 3 + r) for r in range(config.replicates)]
    np.testing.assert_array_equal(s.fdp, [w[3] for w in want])
    np.testing.assert_array_equal(s.thresholds, [w[0] for w in want])


@settings(max_examples=30)
@given(
    m=st.integers(2, 60),
    replicates=st.integers(1, 40),
    workers=st.integers(1, 3),
    block_elems=st.integers(1, 200),
    state_chunk=st.integers(1, 50),
    oracle=st.booleans(),
)
def test_run_does_not_depend_on_workers_or_block_sizes(
    m, replicates, workers, block_elems, state_chunk, oracle
):
    base = ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3)
    config = ExperimentConfig(
        params=OracleParams(base) if oracle else base, procedure=BH(0.2),
        replicates=replicates, seed=SEED,
    )
    want = run(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equifdp.model, "_BLOCK_ELEMS", block_elems)
        mp.setattr(equifdp.model, "_STATE_CHUNK", state_chunk)
        got = run(config, workers=workers)
    for name in ("thresholds", "rejected", "false_rejections", "fdp"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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


@pytest.mark.parametrize("m,replicates", [(3, 40), (1000, 37), (5001, 7)])
def test_oracle_probe_equals_recount_of_the_transformed_samples(m, replicates):
    # an oracle probe draws from the base model, counts on the rescaled
    # statistics and centres the alternatives at the oracle mixture's c.d.f.
    params = OracleParams(ModelParams(m=m, pi0=0.5, mu=2.0, rho=0.3))
    grid = np.array([0.05, 0.25, 0.5])
    probe = ecdf_covariance_probe(params, grid, replicates, seed=SEED, stream_offset=5)
    g1 = np.asarray(params.cdf.alt_cdf(grid))
    root_m, m0 = math.sqrt(m), params.base.m0
    for r in range(replicates):
        s = sample(params.base, RngStream(SEED, 5 + r))
        null, alt = group_counts(s.tau, p_values(params.transform(s.x)), grid)
        np.testing.assert_array_equal(probe.dev_null[r], root_m * (null / m0 - grid))
        np.testing.assert_array_equal(probe.dev_alt[r], root_m * (alt / (m - m0) - g1))

def test_oracle_run_evaluates_p_values_only_in_bands(monkeypatch):
    # every rejection is decided on the rescaled statistics, and erfc runs
    # only for a statistic inside a cut's rounding band: none at this seed
    seen = []
    original = equifdp.gaussian.phi_upper

    def counting(z):
        seen.append(np.size(z))
        return original(z)

    monkeypatch.setattr(equifdp.gaussian, "phi_upper", counting)
    config = ExperimentConfig(
        params=OracleParams(ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3)),
        procedure=BH(0.2),
        replicates=37,
        seed=SEED,
    )
    run(config)
    assert seen == []
    # a statistic on the cut's quantile is inside its band: it alone gets
    # its p-value
    x = np.array([[-special.ndtri(0.05), 0.0, 5.0, -1.0]])
    below = p_values(x[0]) <= 0.05
    counts = _group_counts(x, 2, 0.05, _x_band(0.05))
    assert [c.tolist() for c in counts] == [[below[:2].sum()], [below[2:].sum()]]
    assert seen == [1]


def _count_x_band(monkeypatch, *modules):
    """The sizes of the cuts handed to _x_band through `modules`, appended
    as the calls happen."""
    seen = []
    original = equifdp.gaussian._x_band

    def counting(g):
        seen.append(np.size(g))
        return original(g)

    for module in modules:
        monkeypatch.setattr(module, "_x_band", counting)
    return seen


def test_oracle_bh_run_computes_each_band_once(monkeypatch):
    # BH's tally rejects the k largest statistics: the bands of its m lines,
    # computed once, decide the run, and no row gets a band of its own
    seen = _count_x_band(monkeypatch, equifdp.procedures)
    config = ExperimentConfig(
        params=OracleParams(ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3)),
        procedure=BH(0.2),
        replicates=37,
        seed=SEED,
    )
    run(config)
    assert sum(seen) == 1000


def test_probe_computes_each_band_once(monkeypatch):
    # 65 cuts over 3 blocks of m = 1000 (two full and a half): each cut's
    # band is computed once for the probe, not once per block
    seen = _count_x_band(monkeypatch, equifdp.procedures)
    params = ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.1)
    rows = block_rows(params.m)
    ecdf_covariance_probe(params, np.linspace(0.005, 0.995, 65), 2 * rows + rows // 2, seed=SEED)
    assert sum(seen) == 65


def test_seeds_each_chunk_once_and_each_row_from_its_words(monkeypatch):
    # 2.5 state chunks at m = 1000: numpy's SeedSequence is built once per
    # chunk, for the seed's pool, and PCG64 once per row from the port's
    # words; numpy's own per-id seeding would build a SeedSequence per row
    built = {"SeedSequence": 0, "PCG64": 0}
    for name in built:

        def counting(*args, _real=getattr(np.random, name), _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    params = ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.1)
    rows = block_rows(params.m)
    chunk = rows * max(1, equifdp.model._STATE_CHUNK // rows)
    R = 2 * chunk + chunk // 2
    run(ExperimentConfig(params=params, procedure=BH(0.2), replicates=R, seed=SEED))
    assert built == {"SeedSequence": 3, "PCG64": R}


def test_bh_keeps_the_bands_of_its_own_lines(monkeypatch):
    # a BH computes the bands of a width once, over any number of runs; an
    # equal BH computes its own
    seen = _count_x_band(monkeypatch, equifdp.procedures)
    params = ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3)
    first, second = BH(0.2), BH(0.2)
    for procedure in (first, first):
        run(ExperimentConfig(params=params, procedure=procedure, replicates=20, seed=SEED))
    assert sum(seen) == 1000
    run(ExperimentConfig(params=params, procedure=second, replicates=20, seed=SEED))
    assert sum(seen) == 2000
    # the bands are no part of the procedure's value or views
    assert first == second == BH(0.2) != BH(0.1)
    assert hash(first) == hash(BH(0.2))
    assert repr(first) == "BH(alpha=0.2)"
    assert first.to_dict() == {"kind": "bh", "alpha": 0.2}


def test_bh_bands_filled_by_racing_workers():
    # 8 threads share one fresh BH and switch as often as the interpreter
    # lets them, for about a second: several may compute the bands of the
    # new width on their first block, with equal values, so the run is that
    # of one worker and the BH keeps the one width
    config = ExperimentConfig(
        params=ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.3), procedure=BH(0.2),
        replicates=256, seed=SEED,
    )
    want = run(config)
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 1.0
    try:
        sys.setswitchinterval(1e-6)
        while True:
            procedure = BH(0.2)
            got = run(dataclasses.replace(config, procedure=procedure), workers=8)
            for name in ("thresholds", "rejected", "false_rejections", "fdp"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert list(procedure._bands) == [1000]
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


def test_fixed_threshold_computes_its_band_when_built(monkeypatch):
    procedure = FixedThreshold(0.01)
    seen = _count_x_band(monkeypatch, equifdp.procedures)
    config = ExperimentConfig(
        params=ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.1),
        procedure=procedure,
        replicates=40,
        seed=SEED,
    )
    run(config)
    assert seen == []
    # the band is no part of the procedure's value or views
    assert procedure == FixedThreshold(0.01) != FixedThreshold(0.02)
    assert hash(procedure) == hash(FixedThreshold(0.01))
    assert repr(procedure) == "FixedThreshold(t=0.01)"
    assert procedure.to_dict() == {"kind": "fixed", "t": 0.01}


# sha256 of dev_null then dev_alt as float64 bytes, recorded when the probe
# computed every p-value by erfc; the cuts run from 1e-6 to 1 - 2**-53
PROBE_GRID = [1e-6, 0.05, 0.25, 0.5, 1 - 2**-53]
PROBE_PINS = {
    "m=3 rho=0": (
        ModelParams(m=3, pi0=0.5, mu=2.0, rho=0.0), PROBE_GRID, 400,
        "69299e7b9d934c65f731ea60703bcc2d64fc4d7c513d277d140e018bf5e73954",
    ),
    "m=1000 rho=0.1": (
        ModelParams(m=1000, pi0=0.5, mu=2.0, rho=0.1), PROBE_GRID, 60,
        "10cd3a54d9cc681459d2899ecfbb3f278ff95785453f2e09eeaf773a73a0d064",
    ),
    "m=10000 rho=0": (
        ModelParams(m=10000, pi0=0.5, mu=2.0, rho=0.0), [1e-6, 0.25, 0.5, 1 - 2**-53], 30,
        "62862e62d8daf6750eae7b0a685648a58e0f19d82890f6fd75955c0e02c0e1cc",
    ),
}


@pytest.mark.parametrize("name", list(PROBE_PINS))
def test_probe_digest_pins(name):
    params, grid, replicates, digest = PROBE_PINS[name]
    probe = ecdf_covariance_probe(params, grid, replicates, seed=SEED, stream_offset=3)
    h = hashlib.sha256(np.ascontiguousarray(probe.dev_null, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(probe.dev_alt, dtype=np.float64).tobytes())
    assert h.hexdigest() == digest


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

    def test_pool_is_sized_by_the_work(self, monkeypatch):
        # R = 3 at 64 workers asks for 3 threads, each with one replicate
        config = ExperimentConfig(
            params=ModelParams(m=10, pi0=0.5, mu=2.0, rho=0.0),
            procedure=BH(0.2),
            replicates=3,
        )
        want = run(config).fdp
        pools = []

        class InlinePool:
            """Records its size and runs the ranges in the calling thread."""

            def __init__(self, max_workers):
                self.max_workers, self.ranges = max_workers, []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                self.ranges = list(zip(*iterables))
                return map(fn, *iterables)

        monkeypatch.setattr(equifdp.experiment, "ThreadPoolExecutor", InlinePool)
        np.testing.assert_array_equal(run(config, workers=64).fdp, want)
        assert [(p.max_workers, p.ranges) for p in pools] == [(3, [(0, 1), (1, 2), (2, 3)])]
