"""Walk through the closed-form theory for one parameter set.

Computes the BH fixed point, the limiting FDP center, and the two variance
components, then shows how the limit variance responds to the correlation
regime: m*rho_m -> theta shifts the sqrt(m)-rate variance by theta * c^2,
while m*rho_m -> infinity (with rho_m -> 0) slows the rate to rho_m^{-1/2}
and leaves only c^2.
"""

from equifdp import (
    BH,
    MixtureCdf,
    PowerLaw,
    ThetaOverM,
    asymptotic_law,
    bh_fixed_point,
)

PI0, MU, ALPHA = 0.5, 2.0, 0.2

cdf = MixtureCdf(PI0, MU)
t_star = bh_fixed_point(cdf, ALPHA)
print(f"model: pi0={PI0}, mu={MU}, alpha={ALPHA}")
print(f"fixed point t* = {t_star:.12f} (residual {abs(cdf(t_star) - t_star / ALPHA):.1e})")
print(f"limiting FDP center q(t*) = {cdf.fdp_limit(t_star):.12f} = pi0 * alpha\n")

print("sqrt(m)-rate laws for m * rho_m -> theta:")
print(f"{'theta':>8} {'variance':>12} {'vs independence':>18}")
base = asymptotic_law(cdf, BH(ALPHA), ThetaOverM(0.0))
for theta in (-1.0, -0.5, 0.0, 1.0, 4.0, 10.0):
    law = asymptotic_law(cdf, BH(ALPHA), ThetaOverM(theta))
    note = "same" if theta == 0 else ("larger" if law.variance > base.variance else "smaller")
    print(f"{theta:8.1f} {law.variance:12.6f} {note:>18}")

law_ii = asymptotic_law(cdf, BH(ALPHA), PowerLaw(1.0, 0.5))
print(f"\ndiverging regime (e.g. rho_m = m^-1/2): rate {law_ii.rho_seq.rate},")
print(f"variance c^2 = {law_ii.variance:.6f} -- the disturbance factor alone;")
print(f"the e.c.d.f. component sigma^2 = {law_ii.sigma2:.6f} no longer contributes.")
