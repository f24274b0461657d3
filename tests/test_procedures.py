"""BH step-up threshold and rejection bookkeeping.

A procedure tallies a block of statistics row by row, ``procedure.tally(x,
m0)``: the threshold, the rejections and the false rejections of each row,
every p <= g decided on the statistics.  These tests tally one row, or a few,
and check the tallies against the p-values of those statistics; the FDP a
run derives from the tallies is checked in ``test_experiment.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from equifdp import (
    BH,
    FixedThreshold,
    ModelParams,
    ParameterError,
    RngStream,
    Sample,
    sample,
)
from equifdp.gaussian import _p_values, _x_band
from equifdp.procedures import _group_counts
from oracles import (
    GivenThresholds,
    bh_no_better_between,
    bh_threshold_scan_k,
    group_counts,
    p_values,
    statistic_with_p_value,
)


def bh(x, alpha):
    """BH threshold of one vector of statistics."""
    return BH(alpha).tally(np.asarray(x, dtype=float)[None], 0)[0][0]


def statistics(p):
    """Statistics whose p-values are `p` up to rounding (-ndtri)."""
    return -ndtri(np.asarray(p, dtype=float))


def ulps_from(v, n):
    """The float n steps from v, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        v = np.nextafter(v, np.inf if n > 0 else -np.inf)
    return float(v)


def statistic_at(p):
    """A statistic whose p-value is exactly p where one lies near the
    quantile, else the quantile."""
    try:
        return statistic_with_p_value(p, ulps=8)
    except ValueError:
        return float(-ndtri(p))


# cuts at the ends of the p-value range: the smallest subnormal, the
# underflow range, the clamp _P_MAX and the float below it
EDGE_CUTS = [0.0, 5e-324, 1e-300, 1e-6, 0.05, 0.5, 1.0 - 2.0**-52, np.nextafter(1.0, 0.0), 1.0]


def near(values, ulps):
    """Each finite value and its finite neighbours up to `ulps` floats away."""
    out = [ulps_from(v, n) for v in values if np.isfinite(v) for n in range(-ulps, ulps + 1)]
    return [v for v in out if np.isfinite(v)]


def p_value_counts(x, m0, cut):
    """The group counts of the p-values _p_values(x) at or below the cut."""
    below = _p_values(x) <= np.reshape(cut, (-1, 1))
    return np.count_nonzero(below[:, :m0], axis=1), np.count_nonzero(below[:, m0:], axis=1)


def tally(procedure, s):
    """(threshold, rejected, false_rejections) of one sample."""
    m0 = np.count_nonzero(~s.tau)
    return tuple(col[0] for col in procedure.tally(s.x[None], m0))


# m = 15 and alpha = 0.3: the float line 0.3 * 6 / 15 rounds to
# 0.11999999999999998, below the exact line 6 * 0.3 / 15, and the float 0.12
# lies between the two; a statistic has exactly that p-value
TIE_WINDOW_X = [*statistics([1e-9] * 5), statistic_with_p_value(0.12), *[-2.5] * 9]


class TestBhThreshold:
    def test_worked_example(self):
        x = statistics([0.01, 0.02, 0.9, 0.95])
        t = bh(x, 0.05)
        assert t == 0.05 * 2 / 4  # k = 2
        assert np.count_nonzero(p_values(x) <= t) == 2

    def test_full_rejection_when_all_small(self):
        assert bh(statistics([0.01, 0.02, 0.03]), 0.5) == 0.5

    def test_no_rejection(self):
        assert bh(statistics([0.9, 0.95, 0.99]), 0.05) == 0.0

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
            x = statistics(p)
            t = bh(x, alpha)
            p = p_values(x)
            k = bh_threshold_scan_k(p, alpha)
            assert t == alpha * k / m
            assert bh_no_better_between(p, alpha, k)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_equals_rational_scan_with_ties_and_points_on_the_lines(self, data):
        # statistics that tie with each other, whose p-values sit on the
        # step-up lines alpha*k/m as a float computes them or one float away,
        # and the quantiles of those lines and their neighbours: where the
        # float line rounds past alpha*k/m, only an exact comparison gets k
        # right
        m = data.draw(st.integers(1, 40), label="m")
        alpha = data.draw(
            st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5]) | st.floats(0.001, 0.999),
            label="alpha",
        )
        line = st.integers(1, m).map(lambda k: alpha * k / m)
        on = st.tuples(line, st.integers(-1, 1)).map(lambda t: ulps_from(*t))
        near_q = st.tuples(on, st.integers(-3, 3)).map(lambda t: ulps_from(-ndtri(t[0]), t[1]))
        pool = data.draw(
            st.lists(on.map(statistic_at) | near_q | st.floats(-9.0, 40.0), min_size=1, max_size=m)
        )
        x = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m), label="x"))
        k = bh_threshold_scan_k(p_values(x), alpha)
        assert bh(x, alpha) == alpha * k / m
        # the tally rejects exactly the scan's k, however alpha*k/m rounds
        assert BH(alpha).tally(x[None], m)[1][0] == k

    def test_order_statistic_between_a_float_line_and_its_exact_value(self):
        # the sixth p-value, 0.12, lies between the float line 0.3 * 6 / 15
        # and the exact one: k is 6, not 5
        x = np.array(TIE_WINDOW_X)
        assert bh_threshold_scan_k(p_values(x), 0.3) == 6
        assert bh(x, 0.3) == 0.3 * 6 / 15

    def test_tally_rejects_k_where_the_float_line_rounds_below_p_k(self):
        # the same statistics: the threshold reported is the float
        # 0.3 * 6 / 15, below p_(6) = 0.12, yet the tally rejects all k = 6
        # (all of them nulls, so its FDP is 1)
        x = np.array(TIE_WINDOW_X)
        threshold, rejected, false_rej = (col[0] for col in BH(0.3).tally(x[None], 15))
        assert threshold == 0.3 * 6 / 15 < 0.12
        assert rejected == false_rej == 6


class TestApplyProcedure:
    def test_fixed_threshold_vacuous(self):
        params = ModelParams(m=20, pi0=0.5, mu=2.0, rho=0.0)
        s = sample(params, RngStream(4, 0))
        tiny = float(s.p.min()) / 2
        _, rejected, false_rej = tally(FixedThreshold(tiny), s)
        assert rejected == false_rej == 0

    def test_all_nulls_no_alternatives_rejected(self):
        # rejected = false rejections: an FDP of 1
        p = np.array([0.01, 0.02, 0.8, 0.9])
        s = Sample(tau=np.array([False, False, True, True]), x=statistics(p), p=p)
        _, rejected, false_rej = tally(FixedThreshold(0.05), s)
        assert rejected == 2 and false_rej == 2

    def test_ties_at_threshold_are_rejected(self):
        p = np.array([0.3, 0.1, 0.9])
        x = np.array([statistic_with_p_value(0.3), *statistics(p[1:])])
        s = Sample(tau=np.array([False, True, True]), x=x, p=p)
        _, rejected, _ = tally(FixedThreshold(0.3), s)
        assert rejected == 2  # p = 0.3 exactly counts

    def test_count_identity_with_ecdf(self):
        # rejected = m * pooled_ecdf(threshold), exactly in integer counts,
        # against a sort-and-search recount of each group
        params = ModelParams(m=35, pi0=0.5, mu=1.5, rho=0.0)
        for r in range(20):
            s = sample(params, RngStream(12, r))
            threshold, rejected, false_rej = tally(BH(0.3), s)
            null, alt = group_counts(s.tau, s.p, [threshold])
            assert rejected == null[0] + alt[0]
            assert false_rej == null[0]


class TestTallyAt:
    """A tally read at a given threshold t."""

    def test_counts_monotone_in_threshold(self):
        params = ModelParams(m=30, pi0=0.5, mu=1.0, rho=0.0)
        s = sample(params, RngStream(2, 3))
        ts = np.linspace(0.0, 1.0, 50)
        _, den, num = GivenThresholds(ts).tally(np.tile(s.x, (50, 1)), np.count_nonzero(~s.tau))
        assert all(a <= b for a, b in zip(num, num[1:]))
        assert all(a <= b for a, b in zip(den, den[1:]))
        assert den[0] == 0 and den[-1] == 30

    def test_out_of_range_threshold(self):
        with pytest.raises(ParameterError):
            FixedThreshold(1.5)


class TestDecisionsOnStatistics:
    """Decisions p <= g made on the statistics equal those of their p-values,
    for statistics placed where rounding decides: on and next to the
    quantiles of the cuts and of BH's lines, on the edges of their bands,
    and tied with each other."""

    def test_band_edges_decide_their_side(self):
        # x >= hi has p <= g and x < lo has p > g, right at the edges, for
        # cuts across the whole range of p-values
        g = np.concatenate(
            [EDGE_CUTS, np.geomspace(5e-324, 0.9, 2000), 1.0 - np.geomspace(1e-16, 0.1, 200)]
        )
        lo, hi = _x_band(g)
        sure = np.isfinite(hi)
        assert np.all(_p_values(hi[sure]) <= g[sure])
        sure = np.isfinite(lo)
        assert np.all(_p_values(np.nextafter(lo[sure], -np.inf)) > g[sure])

    @settings(max_examples=200)
    @given(data=st.data())
    def test_group_counts_equal_p_value_counts(self, data):
        rows = data.draw(st.integers(1, 4), label="rows")
        m = data.draw(st.integers(1, 12), label="m")
        cut = data.draw(st.sampled_from(EDGE_CUTS) | st.floats(0.0, 1.0), label="cut")
        quantiles = -ndtri(np.atleast_1d(cut))
        pool = near(quantiles, 4) + near(np.concatenate(_x_band(np.atleast_1d(cut))), 2)
        x_st = st.sampled_from(pool) | st.floats(-40.0, 40.0)
        x = np.array(data.draw(st.lists(x_st, min_size=rows * m, max_size=rows * m), label="x"))
        x = x.reshape(rows, m)
        m0 = data.draw(st.integers(0, m), label="m0")
        got = _group_counts(x, m0, cut, _x_band(cut))
        want = p_value_counts(x, m0, cut)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @settings(max_examples=200)
    @given(data=st.data())
    def test_bh_equals_the_step_up_on_p_values(self, data):
        # threshold, rejected and false rejections against _p_values and the
        # rational scan's k, rejecting the p-values up to the k-th smallest
        rows = data.draw(st.integers(1, 4), label="rows")
        m = data.draw(st.integers(1, 30), label="m")
        alpha = data.draw(
            st.sampled_from([0.05, 0.2, 0.3, 0.5]) | st.floats(0.001, 0.999), label="alpha"
        )
        lines = alpha * np.arange(1, m + 1) / m
        z = -ndtri(lines)
        pool = near(z, 3) + near(np.concatenate(_x_band(lines)), 1)
        pool += [statistic_at(t) for t in lines]
        x_st = st.sampled_from(pool) | st.floats(-9.0, 40.0)
        x = np.array(data.draw(st.lists(x_st, min_size=rows * m, max_size=rows * m), label="x"))
        x = x.reshape(rows, m)
        m0 = data.draw(st.integers(0, m), label="m0")
        threshold, rejected, false_rej = BH(alpha).tally(x, m0)
        p = _p_values(x)
        k = np.array([bh_threshold_scan_k(row, alpha) for row in p])
        cut = np.where(k > 0, np.sort(p, axis=1)[np.arange(rows), k - 1], 0.0)
        false_want, true_want = p_value_counts(x, m0, cut)
        np.testing.assert_array_equal(threshold, alpha * k / m)
        np.testing.assert_array_equal(rejected, false_want + true_want)
        np.testing.assert_array_equal(false_rej, false_want)
        np.testing.assert_array_equal(rejected, k)

    @pytest.mark.parametrize("m0", [3, 1])
    def test_bh_band_row_whose_p_values_rise_with_x(self, m0):
        # inside the bands at alpha = 0.3, m = 3, the larger of the two close
        # statistics has the larger p-value: the second smallest p-value is
        # 0.2, above the line 0.3 * 2 / 3 as a rational, so k = 0; ranking
        # the band entries by their statistics would give k = 2
        x = np.array([0.5244005127080408, 0.8416212335729142, 0.8416212335729144])
        assert list(_p_values(x)) == [0.30000000000000004, 0.19999999999999996, 0.2]
        threshold, rejected, false_rej = (col[0] for col in BH(0.3).tally(x[None], m0))
        assert (threshold, rejected, false_rej) == (0.0, 0, 0)
