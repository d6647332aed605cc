"""Semigroup-smeared operators and the product representation of the
cross projection E(below p) E0(above p) at a probe p.

Every function takes the pair and the probe.  With a spectral gap on both
sides of p, define on the time half line

    Z0 f = integral exp(-t (H0 - p)) E0(above) G* f(t) dt,
    Z  f = integral exp(+t (H - p))  E(below)  G* f(t) dt.

Both integrands decay at the spectral gap rate; the discretization keeps
the semigroups restricted to the decaying subspaces so no growing mode
is ever exponentiated.  The product identity

    E(below) E0(above) = -Z (V0 x I) Z0*

follows by integrating d/dt [exp(tH) E V E0 exp(-tH0)]; its time
quadrature is cross-checked against a quadrature-free Sylvester solve on
the compressed subspaces, which is the independent oracle.  Compressed to
the eigenvectors, both operators of that equation are diagonal, so its
solution is the closed-form quotient X_ij = C_ij / (a_i - b_j) of the
right-hand side by the eigenvalue gaps.  Both the check and the oracle
are evaluated on the m1 x m0 core between the eigenvectors U1 of H below
p and U0 of H0 above it, never as n x n matrices, and the check sums
the k coupling indices before the time nodes: it forms no time factor.
The gap and U0, U1 come from the pair's probe step
(:meth:`projdiff.models.OperatorPair.probe_basis`), the one D uses, so a
band pair is diagonalized only on those indices, never densely, and a
mirror-symmetric one on its parity blocks.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigh, hermitian_norm, norm2, svd, sylvester_solve
from .quadrature import exp_mapped_rule
from .scattering import neville, phase_ladder

__all__ = ["ZOperators", "build_z_ops", "product_representation_check",
           "zop_model_comparison", "default_time_rule"]

TIME_SCALE_OVER_GAP = 2.0


def _split_systems(pair, probe):
    """(gap, (lam0, u0, w0), (lam1, u1, w1)): the eigenpairs of h0 above the
    probe and of h below it, with lam = eigenvalue - probe and w = u* G*,
    and the spectral gap at the probe, from the pair's probe step (on a
    mirror-symmetric band pair, its parity blocks', unfolded)."""
    gaps, _, bases = pair.probe_basis(probe, (+1, -1))
    e0, e1 = ((e.eigenvalues - probe, e.eigenvectors, _coupled(pair, e.eigenvectors))
              for e in pair.unfold(bases))
    return min(gaps), e0, e1


def _coupled(pair, u):
    """U* G* for the columns u; a band pair's real G applied to the window
    rows of u through the nonzeros of its block."""
    if not pair.banded:
        return u.conj().T @ pair.g.conj().T
    lo, hi = pair.coupling_window
    return pair.g.apply(u[lo:hi]).T


def default_time_rule(gap, n_t=120):
    """Exp-mapped rule whose scale tracks the spectral gap.

    With scale = s/gap, s = TIME_SCALE_OVER_GAP, the integrand components
    become (1-u)^(s*|lam|/gap) after the change of variables, smooth on
    [0, 1), so Gauss-Legendre
    converges spectrally.  Once converged the residual sits on a roundoff
    floor that rises with n_t, about n_t * eps * scale * max|lam|: the
    steep mapped integrand magnifies the O(eps) errors of the nodes and
    weights, so nodes beyond convergence do not help.
    """
    return exp_mapped_rule(n_t, TIME_SCALE_OVER_GAP / gap)


@dataclass(frozen=True)
class ZOperators:
    """Discrete Z and Z0 with their time rule and the spectral gap at the probe."""

    z0: np.ndarray          # dim x (n_t * kdim)
    z: np.ndarray
    t_rule: object
    gap: float
    kdim: int

    @property
    def n_t(self):
        return self.t_rule.n


def _time_factor(lam, coupling, t_rule, sign):
    """M with columns sqrt(w_i) exp(sign*t_i*lam) (basis* G*) per time node,
    so that Z = basis @ M: an r x (n_t * k) array, for build_z_ops only."""
    decay = np.exp(np.outer(sign * lam, t_rule.nodes))     # (r, n_t)
    r, k = coupling.shape
    cols = decay[:, :, None] * coupling[:, None, :]        # (r, n_t, k)
    cols *= np.sqrt(t_rule.weights)[None, :, None]
    return cols.reshape(r, t_rule.n * k)


def build_z_ops(pair, probe, t_rule=None):
    """Assemble Z and Z0 at ``probe`` on a time rule (default tied to the gap).

    The semigroups are evaluated through the spectral decompositions
    restricted to the decaying subspaces, so every stored exponent is
    negative; this is the structural form of the overflow guard.
    """
    gap, (lam0, u0, w0), (lam1, u1, w1) = _split_systems(pair, probe)
    t_rule = t_rule or default_time_rule(gap)
    z0 = u0 @ _time_factor(lam0, w0, t_rule, -1.0)
    z = u1 @ _time_factor(lam1, w1, t_rule, +1.0)
    return ZOperators(z0, z, t_rule, gap, pair.kdim)


@dataclass(frozen=True)
class ProductCheck:
    residual_direct: float
    residual_oracle: float
    gap: float
    n_t: int


def product_representation_check(pair, probe, t_rule=None):
    """Residuals of E(below) E0(above) = -Z (V0 x I) Z0* at ``probe``.

    ``residual_direct`` uses the time quadrature; ``residual_oracle``
    replaces the integral by the unique solution of the Sylvester
    equation on the compressed gapped subspaces, the closed-form quotient
    of the eigenvalue gaps (quadrature-free, so it certifies the
    quadrature route).  With Z0 = U0 M0, Z = U1 M1 and C = U1* U0, both
    sides are U1 (.) U0* of an m1 x m0 core, and U0, U1 have orthonormal
    columns, so ``residual_direct`` is the 2-norm of the core
    C + M1 (V0 x I) M0* = C + (W1 V0 W0*) o Q, with W = U* G*, o the
    entrywise product and Q_ba = sum_i w_i exp(t_i (lam1_b - lam0_a)).
    The oracle's right-hand side -U1* (h - h0) U0 is -(W1 V0 W0*).
    """
    gap, (lam0, u0, w0), (lam1, u1, w1) = _split_systems(pair, probe)
    t_rule = t_rule or default_time_rule(gap)
    t, w = t_rule.nodes, t_rule.weights
    cross = u1.conj().T @ u0                           # core of E(below) E0(above)
    core = w1 @ pair.v0 @ w0.conj().T                  # W1 V0 W0*
    quad = (np.exp(np.outer(lam1, t)) * w) @ np.exp(-np.outer(t, lam0))
    residual_direct = float(norm2(cross + core * quad))

    x = sylvester_solve(lam1, lam0, -core)
    residual_oracle = float(norm2(x + cross))
    return ProductCheck(residual_direct, residual_oracle, gap, t_rule.n)


def _psd_clip(m):
    w, v = hermitian_eigh(m)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def zop_model_comparison(pair, probe, eps_ladder=None):
    """Singular values of Z0* Z0 and Z* Z against the model Hankel blocks.

    The models are the block Hankel matrices of the kernels gamma(tau) F0'
    and gamma(tau) F', with gamma(tau) = (1 - exp(-tau))/tau and F0', F'
    the smoothed densities of the :func:`phase_ladder` bundles, extrapolated
    entrywise to eps = 0.  Reported: singular values of the differences, a
    decay exponent fit, and the ladder used.
    """
    from .hankel import build_hankel, gamma_kernel

    zops = build_z_ops(pair, probe)
    eps_ladder = list(eps_ladder) if eps_ladder is not None \
        else [16.0 * zops.gap, 8.0 * zops.gap, 4.0 * zops.gap]
    bundles = phase_ladder(pair, probe, eps_ladder)
    f0x, fx = (_psd_clip(neville(eps_ladder, [getattr(b, name) for b in bundles]))
               for name in ("f0prime", "fprime"))
    model0, model1 = (
        build_hankel(lambda tau: gamma_kernel(tau)[..., None, None] * f, zops.t_rule).matrix
        for f in (f0x, fx))
    gram0 = zops.z0.conj().T @ zops.z0
    gram1 = zops.z.conj().T @ zops.z
    out = {"eps_ladder": eps_ladder, "gap": zops.gap, "n_t": zops.n_t,
           "norm_gram0": float(hermitian_norm(gram0)),
           "norm_gram1": float(hermitian_norm(gram1))}
    for label, gram, model in (("z0", gram0, model0), ("z", gram1, model1)):
        sv = svd(gram - model)
        out[f"sigma_{label}"] = sv
        lead = sv[:10][sv[:10] > 1e-14]
        if len(lead) >= 3:
            idx = np.arange(1, len(lead) + 1)
            slope = np.polyfit(np.log(idx), np.log(lead), 1)[0]
            out[f"decay_exponent_{label}"] = float(slope)
    return out
