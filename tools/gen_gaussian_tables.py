"""Regenerate the high-precision reference tables frozen into
tests/test_gaussian.py.

Requires mpmath (not a package dependency).  Run from the repository root:

    python tools/gen_gaussian_tables.py

Values are computed with 60-digit arithmetic and printed with 30 significant
digits, far beyond float64, so the frozen copies are exact to the last ulp of
any double that matches them.
"""

import mpmath as mp

mp.mp.dps = 60

Z_POINTS = [
    "-8.209536151601387", "-7.0", "-5.612", "-4.0", "-3.0", "-2.0", "-1.0",
    "-0.5", "0.0", "0.25", "0.5", "1.0", "1.5", "2.0", "3.0", "4.0", "5.0",
    "6.0", "8.0", "10.0", "14.0", "20.0", "27.5", "33.0", "37.0",
]


# probabilities down to the smallest subnormal, where the x-domain decisions
# of the package still rely on the quantile's accuracy
T_POINTS = [
    "5e-324", "1e-320", "1e-310", "2.2250738585072014e-308", "1e-300", "1e-200",
    "1e-50", "0.05", "0.95",
]


def phi_upper(z):
    return mp.ncdf(-z)


def phi_upper_inv(t):
    """The z with P(Z >= z) = t, for t the double nearest the decimal."""
    t = mp.mpf(float(t))
    start = mp.sqrt(-2 * mp.log(t)) if t < 0.5 else -mp.sqrt(-2 * mp.log(1 - t))
    return mp.findroot(lambda z: mp.log(phi_upper(z)) - mp.log(t), start)


def main():
    print("UPPER_TAIL_TABLE = [")
    for z in Z_POINTS:
        t = phi_upper(mp.mpf(z))
        print(f"    ({z}, {mp.nstr(t, 30)}),")
    print("]")
    print()
    print("QUANTILE_TABLE = [")
    for t in T_POINTS:
        print(f"    ({t}, {mp.nstr(phi_upper_inv(t), 30)}),")
    print("]")
    print()
    print("DENSITY_TABLE = [")
    for z in ["0.0", "1.0", "2.0", "-1.5"]:
        print(f"    ({z}, {mp.nstr(mp.npdf(mp.mpf(z)), 30)}),")
    print("]")


if __name__ == "__main__":
    main()
