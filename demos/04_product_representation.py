"""The product representation of cross projections through semigroup
operators, and its Hankel model.

E(below) E0(above) = -Z (V0 x I) Z0* holds exactly for gapped pairs; the
time-quadrature route is certified by a quadrature-free Sylvester solve.
The Gram matrices Z0* Z0 and Z* Z are Hankel matrices in the time
variable; subtracting the model profile (1-exp(-tau))/tau tensored with
the zero-energy density leaves a rapidly decaying singular spectrum.
"""

from projdiff.harness import write_spectrum_csv
from projdiff.models import build_krein, random_gapped_pair
from projdiff.zops import product_representation_check, zop_model_comparison

print("product identity residuals (direct quadrature vs Sylvester oracle):")
for seed in range(4):
    pair = random_gapped_pair(16, 3, seed=seed)
    chk = product_representation_check(pair, 0.0)
    print(f"  random seed {seed}: direct = {chk.residual_direct:.2e}, "
          f"oracle = {chk.residual_oracle:.2e} (gap {chk.gap:.3f})")

krein = build_krein(300, 40.0)
chk = product_representation_check(krein, 0.5)
print(f"  resolvent model:  direct = {chk.residual_direct:.2e}, "
      f"oracle = {chk.residual_oracle:.2e} (gap {chk.gap:.4f})\n")

out = zop_model_comparison(krein, 0.5)
sv = out["sigma_z0"]
print("singular values of Z0* Z0 minus its Hankel model (resolvent model):")
print("  " + " ".join(f"{x:.3e}" for x in sv[:8]))
print(f"  sigma_10 / sigma_1 = {sv[10] / sv[0]:.2e}; "
      f"fitted decay exponent {out['decay_exponent_z0']:.2f}")
print(f"  smoothing ladder used for the zero-energy density: "
      f"{[round(e, 4) for e in out['eps_ladder']]}")
write_spectrum_csv("zop_model_sigma.csv", sv[:40])
print("wrote zop_model_sigma.csv")
