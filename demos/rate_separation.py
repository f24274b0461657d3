"""The two convergence speeds, side by side.

With rho_m = m^-1/2 the FDP still concentrates around pi0*alpha, but at rate
rho_m^{-1/2} = m^{1/4} rather than sqrt(m): the sqrt(m)-scaled variance
m * var(FDP) keeps growing with m, while the rho-scaled variance stabilizes
at c^2.  A rate study over an increasing m grid shows both columns.
"""

from equifdp import BH, ExperimentConfig, ModelParams, PowerLaw, rate_study

GRID = (500, 2000, 8000)
SEQ = PowerLaw(1.0, 0.5)

config = ExperimentConfig(
    params=ModelParams(m=GRID[0], pi0=0.5, mu=2.0, rho=SEQ.rho_at(GRID[0])),
    procedure=BH(0.2),
    rho_seq=SEQ,
    replicates=1200,
    seed=2,
)
result = rate_study(config, GRID, workers=4)

print("rho_m = m^-1/2 regime, R=1200 per row")
print(f"{'m':>6} {'rho_m':>9} {'m*var(FDP)':>12} {'rho-scaled var':>15} {'theory c^2':>11} {'ratio':>7}")
for row in result.table():
    rho = SEQ.rho_at(row["m"])
    print(
        f"{row['m']:6d} {rho:9.4f} {row['var_sqrtm']:12.4f} "
        f"{row['var_scaled']:15.4f} {row['theory_variance']:11.4f} "
        f"{row['variance_ratio']:7.3f}"
    )
print("\nm*var grows along the grid (no sqrt(m) concentration), while the")
print("rho-scaled column calibrates to the constant c^2.")
