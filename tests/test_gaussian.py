"""Tests of the Gaussian tail, quantile, and density kernels against frozen
high-precision reference values (60-digit arithmetic; see
tools/gen_gaussian_tables.py)."""

import warnings

import numpy as np
import pytest

from equifdp import DomainError, phi_upper, phi_upper_inv, std_normal_density

# (z, P(Z >= z)); spans upper-tail probabilities from ~1 - 1e-16 down to
# ~5.7e-300, i.e. the whole normally-representable range
UPPER_TAIL_TABLE = [
    (-8.209536151601387, 0.999999999999999888977697537484),
    (-7.0, 0.999999999998720187456114164996),
    (-5.612, 0.999999989999928082163875986527),
    (-4.0, 0.999968328758166880078746229243),
    (-3.0, 0.998650101968369905473348185232),
    (-2.0, 0.977249868051820792799717362833),
    (-1.0, 0.841344746068542948585232545632),
    (-0.5, 0.691462461274013103637704610608),
    (0.0, 0.5),
    (0.25, 0.401293674317076275759146208419),
    (0.5, 0.308537538725986896362295389392),
    (1.0, 0.158655253931457051414767454368),
    (1.5, 0.0668072012688580660044940409799),
    (2.0, 0.0227501319481792072002826371665),
    (3.0, 0.00134989803163009452665181476759),
    (4.0, 0.0000316712418331199212537707567222),
    (5.0, 0.000000286651571879193911673752332875),
    (6.0, 9.86587645037698140700864132398e-10),
    (8.0, 6.22096057427178412351599517259e-16),
    (10.0, 7.6198530241605260659733432516e-24),
    (14.0, 7.7935368191928002543596818389e-45),
    (20.0, 2.75362411860623369507562278086e-89),
    (27.5, 8.77817055687808377234824086876e-167),
    (33.0, 4.06118562091585508850330002615e-239),
    (37.0, 5.72557122252457682268319254827e-300),
]

DENSITY_TABLE = [
    (0.0, 0.398942280401432677939946059934),
    (1.0, 0.241970724519143349797830192936),
    (2.0, 0.0539909665131880519505642004107),
    (-1.5, 0.129517595665891727614099557955),
]


class TestPhiUpper:
    @pytest.mark.parametrize("z,expected", UPPER_TAIL_TABLE)
    def test_reference_table(self, z, expected):
        assert phi_upper(z) == pytest.approx(expected, rel=1e-10)

    def test_median(self):
        assert phi_upper(0.0) == 0.5

    def test_deep_tail_underflows_to_zero(self):
        assert phi_upper(40.0) == 0.0
        assert phi_upper(-40.0) == 1.0

    def test_symmetry(self):
        z = np.linspace(-8.0, 8.0, 161)
        np.testing.assert_allclose(phi_upper(z) + phi_upper(-z), 1.0, atol=1e-12)

    def test_strictly_decreasing(self):
        z = np.linspace(-8.0, 8.0, 500)
        values = phi_upper(z)
        assert np.all(np.diff(values) < 0)

    def test_vectorized_matches_scalar(self):
        z = np.array([-2.0, 0.3, 5.5])
        np.testing.assert_array_equal(phi_upper(z), [phi_upper(v) for v in z])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            phi_upper(bad)


class TestPhiUpperInv:
    def test_median(self):
        assert phi_upper_inv(0.5) == 0.0

    def test_inverse_of_reference_value(self):
        assert phi_upper_inv(0.158655253931457) == pytest.approx(1.0, abs=1e-11)

    def test_five_percent_quantile(self):
        assert phi_upper_inv(0.05) == pytest.approx(1.6448536269514722, rel=1e-13)

    @pytest.mark.parametrize("z,t", [(z, t) for z, t in UPPER_TAIL_TABLE if 0 < t < 1])
    def test_inverts_reference_table(self, z, t):
        # residual criterion: |phi_upper(inv(t)) - t| <= 1e-12 * max(t, 1-t)
        z_hat = phi_upper_inv(t)
        assert abs(phi_upper(z_hat) - t) <= 1e-12 * max(t, 1.0 - t)

    def test_roundtrip_from_probability(self):
        t = np.concatenate(
            [np.geomspace(1e-300, 0.5, 40), 1.0 - np.geomspace(1e-16, 0.5, 40)]
        )
        back = phi_upper(phi_upper_inv(t))
        np.testing.assert_allclose(back, t, rtol=1e-10)

    def test_roundtrip_from_z(self):
        # below z ~ -6 the probability is within ~1e-9 of 1.0 and float64
        # quantization alone forces a z-error above 1e-8, for any
        # implementation; the identity is tested where it is representable
        z = np.linspace(-6.0, 8.0, 71)
        np.testing.assert_allclose(phi_upper_inv(phi_upper(z)), z, atol=1e-8)

    def test_roundtrip_from_z_quantization_bound(self):
        # on the non-representable stretch the error stays within the float64
        # quantization bound ulp(1) / (2 * density(z))
        z = np.linspace(-8.0, -6.0, 21)
        err = np.abs(phi_upper_inv(phi_upper(z)) - z)
        bound = np.finfo(float).eps / (2.0 * std_normal_density(z)) + 1e-8
        assert np.all(err <= bound)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, np.nan])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            phi_upper_inv(bad)


class TestDensity:
    @pytest.mark.parametrize("z,expected", DENSITY_TABLE)
    def test_reference_values(self, z, expected):
        assert std_normal_density(z) == pytest.approx(expected, rel=1e-14)

    def test_even_function(self):
        z = np.linspace(0.0, 10.0, 100)
        np.testing.assert_array_equal(std_normal_density(z), std_normal_density(-z))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            std_normal_density(np.inf)

    @pytest.mark.parametrize("z", [1e155, -1e155, 1.7e308, -1.7e308])
    def test_far_tail_is_zero_without_overflow(self, z):
        # z * z overflows above about 1.3e154; the density there is 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert std_normal_density(z) == 0.0
            density = std_normal_density(np.array([z, 0.0]))
            np.testing.assert_array_equal(density, [0.0, std_normal_density(0.0)])

    def test_bits_of_the_plain_formula_up_to_38(self):
        z = np.linspace(-38.0, 38.0, 7601)
        plain = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * z * z)
        np.testing.assert_array_equal(std_normal_density(z), plain)
