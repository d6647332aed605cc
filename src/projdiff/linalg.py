"""Dense numerical substrate: Hermitian eigensolves, SVD, semigroup action,
and a Sylvester solver.

Everything downstream of this module is built from these five primitives,
so the contracts here are deliberately strict: inputs are validated, and
residuals are checked before results are returned.  The Hermitian input
contract is certified by cheap O(n^2) norm bounds and falls back to the
exact SVD quotient only when the bounds cannot decide, so it accepts and
rejects exactly what the exact check does.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NonHermitianError, OverflowGuardError, SpectralCollisionError

__all__ = ["SpectralDecomposition", "check_hermitian", "herm_eig", "svd", "expm_apply",
           "sylvester_solve"]

HERMITIAN_TOL = 1e-12
EIG_RESIDUAL_TOL = 1e-10
SYLVESTER_GAP_TOL = 1e-8
SYLVESTER_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return len(self.eigenvalues)

    def reconstruct(self):
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def residuals(self, matrix):
        """(relative eigen-residual, orthonormality defect) against ``matrix``."""
        v = self.eigenvectors
        scale = max(np.linalg.norm(matrix, 2), 1e-300)
        r = np.linalg.norm(matrix @ v - v * self.eigenvalues, 2) / scale
        o = np.linalg.norm(v.conj().T @ v - np.eye(self.dim), 2)
        return r, o


def _as_matrix(m):
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def check_hermitian(matrix, tol):
    """Raise :class:`NonHermitianError` when ||M - M*||_2 / ||M||_2 exceeds ``tol``.

    Fast accept in O(n^2): the Frobenius norm of the asymmetry bounds its
    2-norm from above and the largest column norm bounds ||M||_2 from
    below, so ||M - M*||_F <= tol * max_j ||M e_j|| proves the exact check
    passes.  Both are taken after scaling by the largest entry, so squares
    of tiny or huge entries neither underflow nor overflow, and a relative
    margin of 1e-8 covers their roundoff, so near-ties go to the exact
    check.  Otherwise the exact quotient is computed with SVDs; it
    decides, and is the defect the error carries.  Zero and empty matrices
    are accepted.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:
        return
    peak = np.max(np.abs(m))
    if peak == 0:
        return
    if np.isfinite(peak):
        a = m / peak
        colmax = np.max(np.linalg.norm(a, axis=0))
        if np.linalg.norm(a - a.conj().T) <= (1.0 - 1e-8) * tol * colmax:
            return
    scale = np.linalg.norm(m, 2)
    if scale > 0:
        defect = np.linalg.norm(m - m.conj().T, 2) / scale
        if defect > tol:
            raise NonHermitianError(defect, tol)


def herm_eig(matrix, tol=HERMITIAN_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Raises :class:`NonHermitianError` when the relative asymmetry
    ||M - M*|| / ||M|| exceeds ``tol`` (see :func:`check_hermitian`).
    """
    m = _as_matrix(matrix)
    check_hermitian(m, tol)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return SpectralDecomposition(w, v)


def svd(matrix):
    """Singular values (descending) and factors U, s, Vh with M = U s Vh."""
    m = _as_matrix(matrix)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh


def expm_apply(matrix, t, x, tol=HERMITIAN_TOL):
    """Compute exp(t*M) @ X for Hermitian M through its eigendecomposition.

    Modes whose exponent t*lambda exceeds 700 would overflow; they are
    only tolerated when X has no component on them (below roundoff), in
    which case those components are treated as exact zeros.  Otherwise
    :class:`OverflowGuardError` is raised.
    """
    dec = matrix if isinstance(matrix, SpectralDecomposition) else herm_eig(matrix, tol)
    x = np.asarray(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    coeff = dec.eigenvectors.conj().T @ x
    expo = t * dec.eigenvalues
    hot = expo > 700.0
    if np.any(hot):
        xnorm = max(np.linalg.norm(x), 1e-300)
        excited = np.linalg.norm(coeff[hot], axis=1) > 1e-13 * xnorm
        if np.any(excited):
            raise OverflowGuardError(np.max(expo[hot]))
        coeff[hot] = 0.0
        expo = np.where(hot, 0.0, expo)
    out = dec.eigenvectors @ (np.exp(expo)[:, None] * coeff)
    return out[:, 0] if squeeze else out


def sylvester_solve(a, b, c, gap_tol=SYLVESTER_GAP_TOL):
    """Solve A X - X B = C for X.

    Requires the spectra of A and B to be separated by at least
    ``gap_tol`` times the problem scale; raises
    :class:`SpectralCollisionError` carrying the offending gap otherwise.
    The residual is verified against the contract before returning.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    c = _as_matrix(c)
    ea = np.linalg.eigvals(a)
    eb = np.linalg.eigvals(b)
    gap = np.min(np.abs(ea[:, None] - eb[None, :]))
    scale = max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1.0)
    if gap < gap_tol * scale:
        raise SpectralCollisionError(gap, gap_tol * scale)
    x = sla.solve_sylvester(a, -b, c)
    resid = np.linalg.norm(a @ x - x @ b - c, 2)
    bound = SYLVESTER_RESIDUAL_TOL * (np.linalg.norm(a, 2) + np.linalg.norm(b, 2)) \
        * max(np.linalg.norm(x, 2), 1e-300)
    if resid > max(bound, 1e-300):
        raise ArithmeticError(f"sylvester residual {resid:.3e} exceeds contract {bound:.3e}")
    return x
