"""Monte Carlo check of the independence-case normal limit at desk scale.

Draws R replicates of the model at rho = 0, runs BH, and compares the
scaled FDP deviations sqrt(m) * (FDP - pi0*alpha) to the predicted
N(0, pi0*alpha^2*(1-t*)/t*): variance ratio, KS distance, and the mean.
"""

import numpy as np

from equifdp import BH, ExperimentConfig, ModelParams, ThetaOverM, run

M, R = 2000, 1500

config = ExperimentConfig(
    params=ModelParams(m=M, pi0=0.5, mu=2.0, rho=0.0),
    procedure=BH(0.2),
    rho_seq=ThetaOverM(0.0),
    replicates=R,
    seed=1,
)
summary = run(config, workers=4)
law = summary.law

print(f"m={M}, R={R}, rho=0 (theta=0 regime)")
print(f"theory: center={law.center:.4f}, variance={law.variance:.6f}, rate {law.rho_seq.rate}")
print(f"mean FDP          = {summary.mean_fdp:.6f}")
print(f"scaled variance   = {summary.var_scaled:.6f}")
print(f"variance ratio    = {summary.variance_ratio:.4f}  (MC se ~ {summary.mc_se_variance / law.variance:.4f})")
print(f"KS vs theory law  = {summary.ks_statistic:.4f}  (1% critical {1.63 / np.sqrt(R):.4f})")
print(f"|mean - center|   = {abs(summary.mean_fdp - law.center):.2e}")
