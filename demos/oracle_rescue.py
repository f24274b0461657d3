"""Fixed correlation: the FDP stops concentrating, and the oracle rescaling
brings the sqrt(m) rate back.

At rho = 0.3 held fixed, var(FDP) shows a floor (quadrupling m leaves it
essentially unchanged).  Rescaling the statistics with the known (pi0, mu,
rho) -- subtracting the empirical mean and restandardizing -- removes the
common factor, and the scaled FDP again matches a sqrt(m)-rate normal law
whose variance has the closed form evaluated at the rho-dependent fixed
point.
"""

import numpy as np

from equifdp import (
    BH,
    ExperimentConfig,
    FixedRho,
    ModelParams,
    OracleParams,
    bh_fixed_point,
    run,
)

PI0, MU, RHO, ALPHA, R = 0.5, 2.0, 0.3, 0.2, 1500


def raw_config(m):
    return ExperimentConfig(
        params=ModelParams(m=m, pi0=PI0, mu=MU, rho=RHO),
        procedure=BH(ALPHA),
        rho_seq=FixedRho(RHO),
        replicates=R,
        seed=3,
    )


print(f"fixed rho={RHO}: raw BH FDP variance floor (R={R})")
for m in (1000, 4000):
    s = run(raw_config(m), workers=4)
    print(f"  m={m:5d}: var(FDP) = {s.var_fdp:.5f}   (theory fields: {s.law})")

m = 4000
oracle_cfg = ExperimentConfig(
    params=OracleParams(ModelParams(m=m, pi0=PI0, mu=MU, rho=RHO)),
    procedure=BH(ALPHA),
    replicates=R,
    seed=3,
)
s = run(oracle_cfg, workers=4)
print(f"\noracle-rescaled run at m={m}:")
print(f"  rho-dependent fixed point t*_rho = {bh_fixed_point(oracle_cfg.params.cdf, ALPHA):.6f}")
print(f"  scaled variance  = {s.var_scaled:.4f}")
print(f"  theory variance  = {s.law.variance:.4f}")
print(f"  variance ratio   = {s.variance_ratio:.3f}")
print(f"  KS vs theory law = {s.ks_statistic:.4f} (1% critical {1.63 / np.sqrt(R):.4f})")
print(f"  mean FDP         = {s.mean_fdp:.4f} vs center {s.law.center:.4f}")
