"""Invariance of projection differences and scattering phases under the
resolvent change of spectral variable.

Mapping both operators through x -> 1/(x - a) with a below the spectra
sends the probe to mu = 1/(probe - a).  Projection differences transform
exactly (with the operator roles swapped, because the map reverses
order); scattering phases agree after ladder extrapolation, up to
complex conjugation coming from the orientation reversal.
"""

import numpy as np

from projdiff.models import build_krein, resolvent_transform, thresholds
from projdiff.projections import spectral_projection
from projdiff.scattering import extrapolated_phases

cfg = thresholds()["krein"]
pair = build_krein(cfg["n"], cfg["L"])
probe = cfg["probe"]
shift = cfg["resolvent_shift"]

transform = resolvent_transform(pair, shift)
mu = float(transform.mu(probe))
print(f"shift a = {shift}, probe {probe} -> mu = {mu}")

fact = transform.pair.factorization_residual()
print(f"transformed factorization residual: {fact:.2e} "
      "(iterated resolvent identity)")

e0, e1 = (b.eigensystem for b in pair.operators)
f0, f1 = (b.eigensystem for b in transform.pair.operators)
d_orig = spectral_projection(e1, probe) - spectral_projection(e0, probe)
d_tr = spectral_projection(f0, mu) - spectral_projection(f1, mu)
print(f"projection-difference identity residual: "
      f"{np.linalg.norm(d_orig - d_tr, 2):.2e}")

phases, _ = extrapolated_phases(pair, probe, cfg["eps_ladder"])
phases_t, _ = extrapolated_phases(transform.pair, mu, cfg["eps_ladder"])
print(f"\nretained phases, original pair:   {np.round(phases, 5)}")
print(f"retained phases, transformed pair: {np.round(phases_t, 5)}")
ev, evt = np.exp(1j * phases), np.exp(1j * phases_t)
print(f"|e^(i theta) - e^(i theta')|        = "
      f"{np.abs(ev[:, None] - evt[None, :]).min(axis=1)}")
print(f"|e^(i theta) - conj(e^(i theta'))|  = "
      f"{np.abs(ev[:, None] - evt.conj()[None, :]).min(axis=1)} "
      "(conjugate match: the map reverses spectral orientation)")
