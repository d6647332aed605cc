"""Model Hankel operators on the half line.

The kernels exp(-tau)/tau and (1-exp(-tau))/tau generate unitarily
equivalent operators with purely a.c. spectrum [0, pi]; their sum is the
Carleman kernel 1/tau with norm pi.  The spectral structure lives in
log t, so the discretization grid is log-symmetric, and widening the
log-window drives the tops toward pi and the two spectra toward each
other.  The final rule and the factorization check use the sizes that
the ``hankel`` section of thresholds.json pins for acceptance criterion 6.
The dilation involution (Uf)(x) = f(1/x)/x, a node reversal on a log
rule, commutes with the Carleman kernel exactly and with N^2, N the
Laplace transform, up to quadrature error; the demo prints both
residuals on a 200-node log rule of half-width 12.
"""

import numpy as np

from projdiff.hankel import (build_hankel, carleman_kernel, laplace_factorizations,
                             model_hankel_pair)
from projdiff.harness import write_spectrum_csv
from projdiff.models import thresholds
from projdiff.quadrature import exp_mapped_rule, log_rule

cfg = thresholds()["hankel"]

print(f"{'window':>7} {'top gamma':>10} {'top gamma0':>11} {'carleman':>9} "
      f"{'hausdorff':>10}")
for half_width in (40.0, 80.0, 160.0):
    rule = log_rule(cfg["n"], half_width)
    data = model_hankel_pair(rule)
    cnorm = build_hankel(carleman_kernel, rule).singular_values()[0]
    print(f"{2*half_width:>7.0f} {data['top_gamma']:>10.5f} "
          f"{data['top_gamma0']:>11.5f} {cnorm:>9.5f} {data['hausdorff']:>10.4f}")
print(f"  (pi = {np.pi:.5f}; the top deficit scales like pi^5 / (2 W^2) "
      "for a log-window of length W)\n")

rule = log_rule(cfg["n"], cfg["log_half_width"])
data = model_hankel_pair(rule)
write_spectrum_csv("gamma_spectrum.csv", data["spectrum_gamma"])
write_spectrum_csv("gamma0_spectrum.csv", data["spectrum_gamma0"])
sigma = data["gamma0"].singular_values()
write_spectrum_csv("gamma0_singular_values.csv", sigma)
print("wrote gamma_spectrum.csv, gamma0_spectrum.csv, gamma0_singular_values.csv")

fact = laplace_factorizations(exp_mapped_rule(cfg["fact_n_t"], 1.0), cfg["fact_n_lambda"])
print("\nLaplace-transform factorizations (quadrature over the profile):")
print(f"  |Gamma  - N chi_(0,1) N|   = {fact['gamma_factorization']:.2e}")
print(f"  |Gamma0 - N chi_(1,inf) N| = {fact['gamma0_factorization']:.2e}")

# The dilation involution (Uf)(x) = f(1/x)/x maps node i of a log rule to
# node n-1-i, so U A U reverses both axes of A.  N is the Laplace
# transform exp(-x y) and C the Carleman matrix, both on that rule.
u_rule = log_rule(200, 12.0)
tu, squ = u_rule.nodes, np.sqrt(u_rule.weights)
nmat = squ[:, None] * np.exp(-np.outer(tu, tu)) * squ[None, :]
n2 = nmat @ nmat
carleman = build_hankel(carleman_kernel, u_rule).matrix


def conjugation_residual(a):
    """||U A U - A||_2."""
    return np.linalg.norm(a[::-1, ::-1] - a, 2)


print(f"  dilation involution: |U^2 - I| = {conjugation_residual(np.eye(u_rule.n)):.1e}, "
      f"|U C U - C| = {conjugation_residual(carleman):.1e} "
      "(exact on a reciprocal-symmetric grid)")
print(f"  |U N^2 U - N^2| = {conjugation_residual(n2):.2e} "
      "(a genuine quadrature identity, converging with the rule)")
