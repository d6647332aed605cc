"""Stationary scattering matrix against the transfer-matrix oracle.

The smoothed stationary matrix is exactly unitary at every smoothing
level eps; only its eigenphases move with eps.  Extrapolating the phases
along a ladder of eps values reproduces the plane-wave scattering matrix
computed independently by integrating the stationary equation.  On the
lattice the limit eps -> 0 can also be taken exactly: open leads beyond
the coupling window give the 2 x 2 channel S-matrix at eps = 0, whose
Birman-Krein identity holds to roundoff.
"""

import numpy as np

from projdiff.models import build_schrodinger_1d, sech2_spec, square_well_spec, thresholds
from projdiff.scattering import (band_edges, birman_krein_extrapolated, channel_smatrix,
                                 extrapolated_phases, transfer_matrix_smatrix)

cfg = thresholds()["sech2"]
probe = cfg["probe"]
ladder = [0.3, 0.2, 0.1, 0.05]

oracle = transfer_matrix_smatrix(sech2_spec(cfg["depth"], cfg["oracle_half_width"], 999), probe)
print(f"sech^2 well, depth {cfg['depth']}, probe {probe} (k = {oracle.k}):")
print(f"  oracle r = {oracle.r:.6f}, t = {oracle.t:.6f}, "
      f"integration error estimate {oracle.integration_error:.1e}")
print(f"  oracle eigenphases: {np.round(oracle.phases, 5)}, a = {oracle.a:.5f}\n")

pair = build_schrodinger_1d(
    sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))
print(f"{'eps':>6}  retained phases (stationary matrix)   unitarity defect")
phases, bundles = extrapolated_phases(pair, probe, ladder)
for b in bundles:
    print(f"{b.eps:>6}  {np.round(b.phases, 5)}   {b.unitarity_defect:.1e}")

print(f"\nladder-extrapolated phases: {np.round(phases, 5)}")
print(f"oracle phases:              {np.round(oracle.phases, 5)}")
channel = channel_smatrix(pair, probe)
print(f"channel phases (eps = 0):   {np.round(channel.phases, 5)}   "
      f"unitarity defect {channel.unitarity_defect:.1e}")
_, a_tilde = band_edges(phases)
print(f"a = max sin(theta/2): ladder {a_tilde:.5f} vs oracle {oracle.a:.5f} "
      f"(difference {abs(a_tilde - oracle.a):.1e})")
print(f"a = max sin(theta/2): channel {channel.a:.5f} vs oracle {oracle.a:.5f} "
      f"(difference {abs(channel.a - oracle.a):.1e})")

print("\nweak square well: determinant against the smoothed counting shift")
weak = build_schrodinger_1d(square_well_spec(0.3, 1.0, 60.0, 1199))
weak_phases, _ = extrapolated_phases(weak, 1.0, ladder)
det_s, xi, defect = birman_krein_extrapolated(weak, 1.0, weak_phases, ladder)
print(f"  det S = {det_s:.6f}, counting shift = {xi:.5f}, "
      f"|det S - exp(-2 pi i xi)| = {defect:.2e}")
weak_channel = channel_smatrix(weak, 1.0)
print(f"  channel (eps = 0): det S = {weak_channel.det_s:.6f}, "
      f"counting shift = {weak_channel.counting_shift:.5f}, "
      f"|det S - exp(-2 pi i xi)| = {weak_channel.birman_krein_defect:.2e}")
