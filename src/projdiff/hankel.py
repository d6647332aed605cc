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
here are log-symmetric (see ``halfline-log`` in the quadrature module).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergentBoundError, KernelSingularityError
from .quadrature import make_quadrature, reciprocal_indices

__all__ = [
    "HankelDiscretization", "build_hankel", "model_hankel_pair",
    "laplace_factorizations", "kernel_bound_suite", "nuclear_bound_check",
    "carleman_kernel", "gamma_kernel", "gamma0_kernel", "default_hankel_rule",
]


def carleman_kernel(tau):
    return 1.0 / tau


def gamma0_kernel(tau):
    return np.exp(-tau) / tau


def gamma_kernel(tau):
    # -expm1 keeps (1 - e^-tau)/tau accurate for tiny tau
    return -np.expm1(-tau) / tau


def default_hankel_rule(n=300, half_width=160.0):
    """Log-symmetric rule wide enough for the Carleman spectral window.

    The top of the discretized Carleman spectrum reaches pi with deficit
    about pi^5 / (2 * W^2) for a log-window of length W, so W = 320 puts
    the deficit near 1e-3 while n = 300 keeps the node spacing in log t
    below the aliasing threshold of the sech-shaped Mellin symbol.
    """
    return make_quadrature("halfline-log", n, half_width=half_width)


@dataclass(frozen=True)
class HankelDiscretization:
    """Weighted kernel-sample matrix with its rule."""

    rule: object
    matrix: np.ndarray

    @property
    def n(self):
        return self.rule.n

    def singular_values(self):
        return np.linalg.svd(self.matrix, compute_uv=False)


def build_hankel(kernel, rule):
    """Assemble the weighted Hankel matrix of ``kernel`` on ``rule``.

    ``kernel`` maps the array tau of node sums to an array of shape
    ``tau.shape`` or ``tau.shape + (k, k)`` with Hermitian k x k blocks;
    the matrix has block (i, j) = sqrt(w_i w_j) K(t_i + t_j).  Non-finite
    kernel values at sampled points raise :class:`KernelSingularityError`.
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
    blocks = sq[:, None, None, None] * vals.reshape(n, n, k, k) * sq[None, :, None, None]
    return HankelDiscretization(rule, blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k))


def model_hankel_pair(rule=None):
    """The two model Hankel operators and their spectral comparison.

    Returns a dict with the discretizations, their spectra (both within
    [0, pi] up to roundoff), top eigenvalues, fill metrics against
    [0, pi], and the Hausdorff distance between the two spectra, which
    the unitary-equivalence statement drives to zero.
    """
    from .projections import fill_metrics, hausdorff_distance

    rule = rule or default_hankel_rule()
    gamma = build_hankel(gamma_kernel, rule)
    gamma0 = build_hankel(gamma0_kernel, rule)
    spec = np.linalg.eigvalsh(gamma.matrix)
    spec0 = np.linalg.eigvalsh(gamma0.matrix)
    out = {"gamma": gamma, "gamma0": gamma0,
           "spectrum_gamma": spec, "spectrum_gamma0": spec0,
           "top_gamma": float(spec[-1]), "top_gamma0": float(spec0[-1]),
           "hausdorff": hausdorff_distance(spec, spec0)}
    for label, s in (("gamma", spec), ("gamma0", spec0)):
        mg, cover = fill_metrics(s, 0.0, np.pi)
        out[f"max_gap_{label}"] = mg
        out[f"coverage_{label}"] = cover
    return out


def _laplace_sum(t_rule, lam_nodes, lam_weights):
    """Weighted matrix of sum_q w_q exp(-lam_q (t_i + t_j))."""
    t, w = t_rule.nodes, t_rule.weights
    sq = np.sqrt(w)
    e = np.exp(-np.outer(t, lam_nodes))
    return sq[:, None] * ((e * lam_weights) @ e.T) * sq[None, :]


def laplace_factorizations(rule=None, n_lambda=200):
    """Check the Laplace-transform factorizations of the model kernels.

    The kernel (1-e^-tau)/tau is the Laplace transform of the indicator
    of (0, 1) and e^-tau/tau of the indicator of (1, inf); quadratures
    over those lambda ranges must reproduce the built Hankel matrices.
    Also checks, on a reciprocal-symmetric log grid (200 nodes, log
    half-width 12), that the dilation involution (Uf)(x) = f(1/x)/x is an
    exact matrix involution and reports its commutation residual with the
    squared Laplace operator.
    """
    rule = rule or make_quadrature("halfline-exp-mapped", 160)
    t = rule.nodes
    tau_min = 2.0 * float(t.min())

    gamma = build_hankel(gamma_kernel, rule)
    gamma0 = build_hankel(gamma0_kernel, rule)

    # chi_(0,1) factor: lambda = exp(-s), s in [0, S] covering 1/tau_min
    s_span = max(10.0, np.log(1.0 / tau_min) + 10.0)
    srule = make_quadrature("bounded-legendre", n_lambda, a=0.0, b=s_span)
    lam_in = np.exp(-srule.nodes)
    w_in = srule.weights * lam_in
    resid_gamma = float(np.linalg.norm(gamma.matrix - _laplace_sum(rule, lam_in, w_in), 2))

    # chi_(1,inf) factor: lambda = 1 + sigma, sigma on a log grid
    sig_half = max(8.0, np.log(1.0 / tau_min) + 6.0)
    sig = make_quadrature("halfline-log", n_lambda, half_width=sig_half)
    resid_gamma0 = float(np.linalg.norm(
        gamma0.matrix - _laplace_sum(rule, 1.0 + sig.nodes, sig.weights), 2))

    # dilation involution on a reciprocal-symmetric grid
    u_rule = make_quadrature("halfline-log", 200, half_width=12.0)
    sigma_idx = reciprocal_indices(u_rule)
    m = u_rule.n
    # in the weighted representation the involution is the flip permutation
    umat = np.zeros((m, m))
    umat[np.arange(m), sigma_idx] = 1.0
    tu, wu = u_rule.nodes, u_rule.weights
    squ = np.sqrt(wu)
    nmat = squ[:, None] * np.exp(-np.outer(tu, tu)) * squ[None, :]
    n2 = nmat @ nmat
    resid_u = float(np.linalg.norm(umat @ umat - np.eye(m), 2))
    resid_un2u = float(np.linalg.norm(umat @ n2 @ umat - n2, 2))
    carleman = build_hankel(carleman_kernel, u_rule).matrix
    resid_ucu = float(np.linalg.norm(umat @ carleman @ umat - carleman, 2))

    return {
        "gamma_factorization": resid_gamma,
        "gamma0_factorization": resid_gamma0,
        "involution_squared": resid_u,
        "laplace_conjugation": resid_un2u,
        "carleman_conjugation": resid_ucu,
        "n_lambda": int(n_lambda),
    }


def kernel_bound_suite(disc, c1):
    """Norm bound ||K_disc|| <= pi * c1 for a kernel with ||K(t)|| <= c1/t.

    The declared envelope is sample-verified on the grid, with each block
    2-norm the root of the top eigenvalue of B* B, before the bound is
    asserted.  Returns ``operator_norm``, ``bound`` (pi * c1),
    ``bound_holds`` and the ``singular_values`` (the decay curve is the
    compactness proxy).
    """
    rule = disc.rule
    t, w, n = rule.nodes, rule.weights, rule.n
    k = disc.matrix.shape[0] // n
    tau = t[:, None] + t[None, :]
    blocks = disc.matrix.reshape(n, k, n, k).transpose(0, 2, 1, 3)
    top = np.linalg.eigvalsh(blocks.conj().swapaxes(-1, -2) @ blocks)[..., -1]
    blocknorm = np.sqrt(np.clip(top, 0.0, None)) / np.sqrt(np.outer(w, w))
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


def nuclear_bound_check(profile, lam_rule, t_rule=None):
    """Nuclear norm of the assembled Hankel matrix against C2/2.

    ``profile`` maps lambda to a Hermitian k x k matrix M(lambda), and
    C2 = integral of ||M(lambda)||_1 / lambda over ``lam_rule``.  The
    kernel is the discrete Laplace transform of the profile,
    K(t) = sum_q w_q M(lambda_q) exp(-lambda_q t); its trace norm is
    bounded by half the discrete C2 integral, up to 5 percent quadrature
    slack.  A profile whose contribution density fails to decay at the
    lower end of the lambda-rule makes C2 divergent and is rejected.
    """
    lam, wl = lam_rule.nodes, lam_rule.weights
    mq = np.array([np.atleast_2d(profile(l)) for l in lam])     # (q, k, k)
    herm = 0.5 * (mq + mq.conj().swapaxes(-1, -2))
    norms = np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)
    contrib = wl * norms / lam
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
        out = np.zeros(tau.shape + mq.shape[1:], dtype=mq.dtype)
        for l, w, m in zip(lam, wl, mq):
            out += np.exp(-l * tau)[..., None, None] * (w * m)
        return out

    if t_rule is None:
        t_rule = make_quadrature("halfline-log", 300, half_width=30.0)
    nuclear = float(build_hankel(kernel, t_rule).singular_values().sum())
    return {
        "c2": c2,
        "nuclear_norm": nuclear,
        "bound": 0.5 * c2 * 1.05,
        "bound_holds": bool(nuclear <= 0.5 * c2 * 1.05),
    }
