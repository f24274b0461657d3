"""BH step-up threshold, rejection bookkeeping, and FDP counting.

The library thresholds and tallies through one row-wise kernel,
``_apply_procedure_rows``; these tests run it on one row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifdp import (
    BH,
    FixedThreshold,
    ModelParams,
    ParameterError,
    RngStream,
    Sample,
    sample,
)
from equifdp.procedures import _apply_procedure_rows
from oracles import (
    GivenThresholds,
    bh_no_better_between,
    bh_threshold_scan_k,
    fdp_recount,
    group_counts,
)


def bh(p, alpha):
    """BH threshold of one p-value vector."""
    return BH(alpha).thresholds(np.asarray(p)[None])[0][0]


def tally(procedure, s):
    """(threshold, rejected, false_rejections, fdp) of one sample."""
    m0 = np.count_nonzero(~s.tau)
    return tuple(col[0] for col in _apply_procedure_rows(procedure, s.p[None], m0))


class TestBhThreshold:
    def test_worked_example(self):
        p = np.array([0.01, 0.02, 0.9, 0.95])
        t = bh(p, 0.05)
        assert t == 0.05 * 2 / 4  # k = 2
        assert np.count_nonzero(p <= t) == 2

    def test_full_rejection_when_all_small(self):
        p = np.array([0.01, 0.02, 0.03])
        assert bh(p, 0.5) == 0.5

    def test_no_rejection(self):
        p = np.array([0.9, 0.95, 0.99])
        assert bh(p, 0.05) == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            BH(1.0)

    def test_equals_functional_scan_on_random_instances(self):
        # step-up formula vs the exhaustive functional-max oracle in exact
        # rational arithmetic, plus the no-better-point-between-candidates
        # probe; thresholds compared exactly, no tolerance
        rng = np.random.default_rng(123)
        for _ in range(1000):
            m = int(rng.integers(1, 51))
            alpha = float(rng.uniform(0.01, 0.99))
            if rng.uniform() < 0.3:
                p = rng.uniform(0.0001, 0.9999, size=m) ** 2  # pile mass near 0
            else:
                p = rng.uniform(0.0001, 0.9999, size=m)
            t = bh(p, alpha)
            k = bh_threshold_scan_k(p, alpha)
            assert t == alpha * k / m
            assert bh_no_better_between(p, alpha, k)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_equals_rational_scan_with_ties_and_points_on_the_lines(self, data):
        # p-values that tie with each other, and that sit on the step-up
        # lines alpha*k/m as a float computes them or one float away: where
        # the float line rounds past alpha*k/m, only an exact comparison
        # gets k right
        m = data.draw(st.integers(1, 40), label="m")
        alpha = data.draw(
            st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5]) | st.floats(0.001, 0.999),
            label="alpha",
        )
        line = st.integers(1, m).map(lambda k: alpha * k / m)
        next_to = st.sampled_from([0.0, 1.0]).flatmap(lambda to: line.map(
            lambda t: float(np.nextafter(t, to))))
        pool = data.draw(st.lists(line | next_to | st.floats(0.0, 1.0), min_size=1, max_size=m))
        p = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m), label="p"))
        k = bh_threshold_scan_k(p, alpha)
        assert bh(p, alpha) == alpha * k / m
        # the tally rejects exactly the scan's k, however alpha*k/m rounds
        assert _apply_procedure_rows(BH(alpha), p[None], m)[1][0] == k

    def test_order_statistic_between_a_float_line_and_its_exact_value(self):
        # 0.3 * 3 / 15 rounds twice, to 0.05999999999999999, below the exact
        # line, and the float 0.06 lies between the two: k is 3, not 2
        p = np.array([1e-9, 1e-9, 0.06] + [0.99] * 12)
        assert bh_threshold_scan_k(p, 0.3) == 3
        assert bh(p, 0.3) == 0.3 * 3 / 15

    def test_tally_rejects_k_where_the_float_line_rounds_below_p_k(self):
        # the same p: the threshold reported is the float 0.3 * 3 / 15, below
        # p_(3) = 0.06, yet the tally rejects all k = 3 (all of them nulls)
        p = np.array([1e-9, 1e-9, 0.06] + [0.99] * 12)
        threshold, rejected, false_rej, fdp = (
            col[0] for col in _apply_procedure_rows(BH(0.3), p[None], 15)
        )
        assert threshold == 0.3 * 3 / 15 < 0.06
        assert rejected == false_rej == 3 and fdp == 1.0


class TestApplyProcedure:
    def test_fixed_threshold_vacuous(self):
        params = ModelParams(m=20, pi0=0.5, mu=2.0, rho=0.0)
        s = sample(params, RngStream(4, 0))
        tiny = float(s.p.min()) / 2
        _, rejected, _, fdp = tally(FixedThreshold(tiny), s)
        assert rejected == 0 and fdp == 0.0

    def test_all_nulls_no_alternatives_rejected(self):
        s = Sample(
            tau=np.array([False, False, True, True]),
            x=np.zeros(4),
            p=np.array([0.01, 0.02, 0.8, 0.9]),
        )
        _, rejected, false_rej, fdp = tally(FixedThreshold(0.05), s)
        assert rejected == 2 and false_rej == 2
        assert fdp == 1.0

    def test_ties_at_threshold_are_rejected(self):
        s = Sample(
            tau=np.array([False, True, True]),
            x=np.zeros(3),
            p=np.array([0.3, 0.1, 0.9]),
        )
        _, rejected, _, _ = tally(FixedThreshold(0.3), s)
        assert rejected == 2  # p = 0.3 exactly counts

    def test_matches_brute_force_recount(self):
        params = ModelParams(m=20, pi0=0.5, mu=2.0, rho=0.1)
        for r in range(50):
            s = sample(params, RngStream(6, r))
            threshold, rejected, false_rej, fdp = tally(BH(0.2), s)
            assert fdp == fdp_recount(s.tau, s.p, threshold)
            assert false_rej <= rejected <= 20

    def test_count_identity_with_ecdf(self):
        # rejected = m * pooled_ecdf(threshold), exactly in integer counts,
        # against a sort-and-search recount of each group
        params = ModelParams(m=35, pi0=0.5, mu=1.5, rho=0.0)
        for r in range(20):
            s = sample(params, RngStream(12, r))
            threshold, rejected, false_rej, _ = tally(BH(0.3), s)
            null, alt = group_counts(s.tau, s.p, [threshold])
            assert rejected == null[0] + alt[0]
            assert false_rej == null[0]


class TestFdpAt:
    """The kernel's tally read at a given threshold t."""

    def test_zero_threshold(self):
        params = ModelParams(m=10, pi0=0.5, mu=1.0, rho=0.0)
        s = sample(params, RngStream(2, 0))
        assert tally(GivenThresholds(0.0), s)[3] == 0.0

    def test_one_threshold_gives_null_fraction(self):
        params = ModelParams(m=10, pi0=0.7, mu=1.0, rho=0.0)
        s = sample(params, RngStream(2, 1))
        assert tally(GivenThresholds(1.0), s)[3] == 7 / 10

    def test_median_matches_recount(self):
        params = ModelParams(m=10, pi0=0.5, mu=1.0, rho=0.0)
        s = sample(params, RngStream(2, 2))
        t = float(np.median(s.p))
        assert tally(GivenThresholds(t), s)[3] == fdp_recount(s.tau, s.p, t)

    def test_counts_monotone_in_threshold(self):
        params = ModelParams(m=30, pi0=0.5, mu=1.0, rho=0.0)
        s = sample(params, RngStream(2, 3))
        ts = np.linspace(0.0, 1.0, 50)
        _, den, num, _ = _apply_procedure_rows(
            GivenThresholds(ts), np.tile(s.p, (50, 1)), np.count_nonzero(~s.tau)
        )
        assert all(a <= b for a, b in zip(num, num[1:]))
        assert all(a <= b for a, b in zip(den, den[1:]))
        assert den[0] == 0 and den[-1] == 30

    def test_out_of_range_threshold(self):
        with pytest.raises(ParameterError):
            FixedThreshold(1.5)
