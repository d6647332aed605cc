"""Discretized Hankel operators on the half line.

A Hankel operator here is the integral operator with kernel K(t+s),
discretized as the weighted sample matrix  sqrt(w_i) K(t_i + t_j)
sqrt(w_j)  on a half-line quadrature rule.  A kernel is called once, on
the whole array tau = t_i + t_j, and returns an array of shape
``tau.shape`` (a scalar kernel) or ``tau.shape + (k, k)`` (K(t) a
Hermitian k x k matrix on the coupling space, giving a block matrix with
k x k blocks); a scalar kernel is the k = 1 case.

The model operators with kernels exp(-tau)/tau and (1-exp(-tau))/tau
both have spectrum [0, pi]; their sum is the Carleman kernel 1/tau with
norm pi.  Their spectral structure lives in log t, so the grids used
here are log-symmetric (``quadrature.log_rule``, sized by the ``hankel``
section of thresholds.json).
Each discretization is stored as its certified Hermitian part (see
:func:`projdiff.linalg.hermitian`): its norms and spectrum are one
``eigvalsh``, which reads one triangle of a matrix that equals its
conjugate transpose exactly.  :func:`build_hankel` forms one weight
sqrt(w_i w_j) per pair of nodes, so the matrix of a kernel whose blocks are
exactly Hermitian is exactly Hermitian as built and is certified by the
one exact comparison.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DivergentBoundError, KernelSingularityError
from .linalg import hermitian, hermitian_eigvalsh, hermitian_norm
from .quadrature import legendre_rule, log_rule

__all__ = [
    "HankelDiscretization", "build_hankel", "model_hankel_pair",
    "laplace_factorizations", "kernel_bound_suite", "nuclear_bound_check",
    "carleman_kernel", "gamma_kernel", "gamma0_kernel",
]


def carleman_kernel(tau):
    return 1.0 / tau


def gamma0_kernel(tau):
    return np.exp(-tau) / tau


def gamma_kernel(tau):
    # -expm1 keeps (1 - e^-tau)/tau accurate for tiny tau
    return -np.expm1(-tau) / tau


@dataclass(frozen=True)
class HankelDiscretization:
    """Weighted kernel-sample matrix and its rule, stored as its certified
    Hermitian part; one cached eigvalsh.  A matrix that is not Hermitian to
    HERMITIAN_TOL raises :class:`NonHermitianError`."""

    rule: object
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", hermitian(self.matrix))

    @functools.cached_property
    def eigenvalues(self):
        return hermitian_eigvalsh(self.matrix)

    def singular_values(self):                         # |eigenvalues|, descending
        return np.sort(np.abs(self.eigenvalues))[::-1]


def build_hankel(kernel, rule):
    """Assemble the weighted Hankel matrix of ``kernel`` on ``rule``.

    ``kernel`` maps the array tau of node sums to an array of shape
    ``tau.shape`` or ``tau.shape + (k, k)`` with Hermitian k x k blocks;
    the matrix has block (i, j) = sqrt(w_i w_j) K(t_i + t_j), with one
    weight sqrt(w_i) sqrt(w_j) for both (i, j) and (j, i), so the matrix is
    exactly Hermitian when the blocks are.  Non-finite kernel values at
    sampled points raise :class:`KernelSingularityError`, and blocks that
    are not Hermitian :class:`NonHermitianError`.
    """
    t, w = rule.nodes, rule.weights
    n = len(t)
    sq = np.sqrt(w)
    tau = t[:, None] + t[None, :]
    vals = np.asarray(kernel(tau))
    # trailing shape () or (k, k): anything else leaves [2:3] != [3:]
    if vals.shape[:2] != tau.shape or vals.shape[2:3] != vals.shape[3:]:
        raise ValueError("kernel must return an array of shape tau.shape "
                         "or tau.shape + (k, k)")
    if not np.all(np.isfinite(vals)):
        raise KernelSingularityError("kernel non-finite at a sampled point")
    k = vals.shape[2] if vals.ndim == 4 else 1
    blocks = vals.reshape(n, n, k, k) * np.outer(sq, sq)[:, :, None, None]
    return HankelDiscretization(rule, blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k))


def model_hankel_pair(rule):
    """The two model Hankel operators and their spectral comparison.

    Returns a dict with the discretizations, their spectra (both within
    [0, pi] up to roundoff), top eigenvalues, and the Hausdorff distance
    between the two spectra, which the unitary-equivalence statement
    drives to zero.
    """
    from .projections import hausdorff_distance

    gamma, gamma0 = (build_hankel(kernel, rule) for kernel in (gamma_kernel, gamma0_kernel))
    spec, spec0 = gamma.eigenvalues, gamma0.eigenvalues
    return {"gamma": gamma, "gamma0": gamma0,
            "spectrum_gamma": spec, "spectrum_gamma0": spec0,
            "top_gamma": float(spec[-1]), "top_gamma0": float(spec0[-1]),
            "hausdorff": hausdorff_distance(spec, spec0)}


def _laplace_sum(t_rule, lam_nodes, lam_weights):
    """Weighted matrix of sum_q w_q exp(-lam_q (t_i + t_j))."""
    t, w = t_rule.nodes, t_rule.weights
    sq = np.sqrt(w)
    e = np.exp(-np.outer(t, lam_nodes))
    return sq[:, None] * ((e * lam_weights) @ e.T) * sq[None, :]


def laplace_factorizations(rule, n_lambda):
    """Check the Laplace-transform factorizations of the model kernels.

    The kernel (1-e^-tau)/tau is the Laplace transform of the indicator
    of (0, 1) and e^-tau/tau of the indicator of (1, inf); quadratures
    over those lambda ranges, of ``n_lambda`` nodes each, must reproduce
    the Hankel matrices built on ``rule``.  Returns the two residual
    2-norms, each the largest |eigenvalue| of a Hermitian difference, and
    ``n_lambda``.
    """
    tau_min = 2.0 * float(rule.nodes.min())

    gamma = build_hankel(gamma_kernel, rule)
    gamma0 = build_hankel(gamma0_kernel, rule)

    # chi_(0,1) factor: lambda = exp(-s), s in [0, S] covering 1/tau_min
    s_span = max(10.0, np.log(1.0 / tau_min) + 10.0)
    srule = legendre_rule(n_lambda, 0.0, s_span)
    lam_in = np.exp(-srule.nodes)
    w_in = srule.weights * lam_in
    resid_gamma = float(hermitian_norm(gamma.matrix - _laplace_sum(rule, lam_in, w_in)))

    # chi_(1,inf) factor: lambda = 1 + sigma, sigma on a log grid
    sig_half = max(8.0, np.log(1.0 / tau_min) + 6.0)
    sig = log_rule(n_lambda, sig_half)
    resid_gamma0 = float(hermitian_norm(
        gamma0.matrix - _laplace_sum(rule, 1.0 + sig.nodes, sig.weights)))

    return {
        "gamma_factorization": resid_gamma,
        "gamma0_factorization": resid_gamma0,
        "n_lambda": int(n_lambda),
    }


def kernel_bound_suite(disc, c1):
    """Norm bound ||K_disc|| <= pi * c1 for a kernel with ||K(t)|| <= c1/t.

    The declared envelope is sample-verified on the grid, with each block
    2-norm the largest |eigenvalue| of the Hermitian block (the |sample|
    itself when k = 1), before the bound is asserted.  Returns
    ``operator_norm``, ``bound`` (pi * c1), ``bound_holds`` and the
    ``singular_values`` (the decay curve is the compactness proxy), all
    read off the discretization's eigenvalues.
    """
    t, w, n = disc.rule.nodes, disc.rule.weights, disc.rule.n
    k = disc.matrix.shape[0] // n
    tau = t[:, None] + t[None, :]
    blocks = disc.matrix.reshape(n, k, n, k).transpose(0, 2, 1, 3)
    norms = np.abs(blocks[..., 0, 0]) if k == 1 else hermitian_norm(blocks)
    blocknorm = norms / np.sqrt(np.outer(w, w))
    margin = blocknorm * tau - c1
    if np.any(margin > 1e-9 * max(c1, 1.0)):
        i, j = np.unravel_index(np.argmax(margin), margin.shape)
        raise ValueError(
            f"declared bound violated: ||K({tau[i, j]:.3g})|| = {blocknorm[i, j]:.4g} "
            f"exceeds {c1}/t")
    sv = disc.singular_values()
    opnorm = float(sv[0])
    return {
        "operator_norm": opnorm,
        "bound": float(np.pi * c1),
        "bound_holds": bool(opnorm <= np.pi * c1 + 1e-6),
        "singular_values": sv,
    }


def nuclear_bound_check(profile, lam_rule, t_rule):
    """Nuclear norm of the assembled Hankel matrix against C2/2.

    ``profile`` maps lambda to a Hermitian k x k matrix M(lambda), and
    C2 = integral of ||M(lambda)||_1 / lambda over ``lam_rule``.  The
    kernel is the discrete Laplace transform of the profile,
    K(t) = sum_q w_q M(lambda_q) exp(-lambda_q t), assembled on the
    half-line rule ``t_rule``; its trace norm is bounded by half the
    discrete C2 integral, up to 5 percent quadrature slack; it is the sum
    of the matrix's |eigenvalues|.  A profile whose contribution density
    fails to decay at the lower end of the lambda-rule makes C2 divergent
    and is rejected.
    """
    lam, wl = lam_rule.nodes, lam_rule.weights
    mq = np.array([np.atleast_2d(profile(l)) for l in lam])     # (q, k, k)
    contrib = wl * np.abs(hermitian_eigvalsh(mq)).sum(axis=-1) / lam
    c2 = float(np.sum(contrib))
    # contribution density per unit log-lambda, lower end vs middle
    logl = np.log(lam)
    nlow = max(4, len(lam) // 10)
    mid0, mid1 = len(lam) // 2, len(lam) // 2 + nlow
    low_density = contrib[:nlow].sum() / max(logl[nlow] - logl[0], 1e-12)
    mid_density = contrib[mid0:mid1].sum() / max(logl[mid1] - logl[mid0], 1e-12)
    if low_density > 1e-8 and low_density > 0.5 * mid_density:
        raise DivergentBoundError(
            f"C2 integrand density {low_density:.3g} per log-lambda does not decay "
            f"toward lambda -> 0 (mid density {mid_density:.3g})")

    def kernel(tau):
        return sum(np.exp(-l * tau)[..., None, None] * (w * m) for l, w, m in zip(lam, wl, mq))

    nuclear = float(build_hankel(kernel, t_rule).singular_values().sum())
    return {
        "c2": c2,
        "nuclear_norm": nuclear,
        "bound": 0.5 * c2 * 1.05,
        "bound_holds": bool(nuclear <= 0.5 * c2 * 1.05),
    }
