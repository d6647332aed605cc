"""Quadrature rules on bounded intervals and the half line.

Three node/weight families cover everything the lab integrates, one
constructor each; every one needs n >= 2 nodes:

* :func:`legendre_rule` -- Gauss-Legendre mapped to [a, b]; exact for
  polynomials of degree <= 2n - 1.  The rule on [-1, 1] comes from the
  eigenvalues of the tridiagonal Legendre Jacobi matrix (Golub and
  Welsch; LAPACK ``dstevd`` through
  :func:`projdiff.linalg.tridiagonal_eigvalsh`) and one Newton step, in
  O(n^2); up to n = 400 its nodes are
  within 1e-16 and its weights within about 2e-12 relative of the exact
  ones.  The Krein Nystrom pair is built on it.
* :func:`exp_mapped_rule` -- the substitution t = -scale*log(1 - u)
  composed with Gauss-Legendre on (0, 1).  Integrands decaying like
  exp(-t/scale) become polynomials in u, so convergence is spectral.
  Past convergence the error sits on a roundoff floor that rises with n,
  about n * eps * scale * lam_max for an integrand exp(-lam_max*t): the
  mapped integrand (1-u)^(scale*lam_max) magnifies the O(eps) errors of
  the nodes and weights, so nodes beyond that point do not help.  The
  time rule of the product identity is one.
* :func:`log_rule` -- t = exp(v) with v Gauss-Legendre on
  [-half_width, half_width].  Covers many decades of dynamic range; this
  is the natural grid for Hankel/Carleman kernels whose spectral
  structure lives in log t.  The node set is closed under t -> 1/t
  (Legendre nodes are symmetric): nodes[::-1] * nodes = 1 to roundoff.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import tridiagonal_eigvalsh

__all__ = ["QuadratureRule", "legendre_rule", "exp_mapped_rule", "log_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("non-finite quadrature data")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")

    @property
    def n(self):
        return len(self.nodes)


@functools.lru_cache(maxsize=64)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The nodes are the eigenvalues of the Legendre Jacobi matrix, zero
    diagonal and offdiagonal k / sqrt(4 k^2 - 1) (Golub and Welsch, Math.
    Comp. 23, 1969), from LAPACK's O(n^2) tridiagonal eigenvalue solver
    (:func:`projdiff.linalg.tridiagonal_eigvalsh`).  One
    pass of the three-term recurrence then gives P_n and P_n' at them,
    hence one Newton step and the weights 2 / ((1 - x^2) P_n'(x)^2).  The
    rule is symmetrised, x = -x[::-1] exactly, and the weights scaled to
    sum to 2.  The arrays are shared by every caller, so they are
    read-only.
    """
    k = np.arange(1.0, n)
    x = tridiagonal_eigvalsh(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    p_prev, p = np.ones(n), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = x - p / dp
    x = (x - x[::-1]) / 2
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _finite(name, value):
    """``value`` as a float; ValueError naming it when it is not finite."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _legendre(n, a, b):
    if n < 2:
        raise ValueError("need at least 2 nodes")
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def legendre_rule(n, a, b):
    """Gauss-Legendre rule with n nodes on [a, b], b > a, both finite."""
    a, b = _finite("a", a), _finite("b", b)
    if not b > a:
        raise ValueError("need b > a")
    return QuadratureRule(*_legendre(n, a, b))


def exp_mapped_rule(n, scale):
    """Half-line rule t = -scale*log(1 - u), u Gauss-Legendre on (0, 1);
    the scale is finite and positive."""
    scale = _finite("scale", scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    u, wu = _legendre(n, 0.0, 1.0)
    return QuadratureRule(-scale * np.log1p(-u), scale * wu / (1.0 - u))


def log_rule(n, half_width):
    """Half-line rule t = exp(v), v Gauss-Legendre on [-half_width, half_width];
    the half width is finite and positive."""
    half_width = _finite("half_width", half_width)
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    v, wv = _legendre(n, -half_width, half_width)
    nodes = np.exp(v)
    return QuadratureRule(nodes, wv * nodes)

