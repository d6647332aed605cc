"""Numerical substrate: Hermitian eigensolves (dense, and banded for
band-stored matrices), the band format of real symmetric tridiagonal
matrices with its shifted window systems (the chain beyond the window
folded into two boundary self-energies, the box's own or those of given
leads), their banded solve and LDL^T pivots, the compression of
subspace projections to their joint span, SVD, semigroup action, the
closed-form Sylvester solver on eigenvalue diagonals, and the probe-gap
check on eigenvalue arrays.

Everything downstream of this module is built from these primitives, so
the contracts here are deliberately strict: inputs are validated, and
residuals are checked before results are returned.  The Hermitian input
contract is certified by cheap O(n^2) norm bounds and falls back to the
exact SVD quotient only when the bounds cannot decide, so it accepts and
rejects exactly what the exact check does.  The banded eigensolver keeps
the dense one's input contract.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (GapViolationError, NonHermitianError, OverflowGuardError,
                     SpectralCollisionError)

__all__ = ["SpectralDecomposition", "TridiagonalBands", "WindowSystem", "check_hermitian",
           "herm_eig", "subspace_compressions", "probe_gaps", "svd", "expm_apply",
           "sylvester_solve"]

# each tolerance is read at call time by the one function that applies it
HERMITIAN_TOL = 1e-12
PROBE_GAP_TOL = 1e-8
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

    def residuals(self, matrix):
        """(relative eigen-residual, orthonormality defect) against ``matrix``."""
        v = self.eigenvectors
        scale = max(np.linalg.norm(matrix, 2), 1e-300)
        r = np.linalg.norm(matrix @ v - v * self.eigenvalues, 2) / scale
        o = np.linalg.norm(v.conj().T @ v - np.eye(self.dim), 2)
        return r, o


def _as_array(m, ndim=2):
    m = np.asarray(m)
    if m.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array")
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


def herm_eig(matrix):
    """Eigendecomposition of a Hermitian matrix.

    Raises :class:`NonHermitianError` when the relative asymmetry
    ||M - M*|| / ||M|| exceeds HERMITIAN_TOL (see :func:`check_hermitian`).
    """
    m = _as_array(matrix)
    check_hermitian(m, HERMITIAN_TOL)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return SpectralDecomposition(w, v)


@dataclass(frozen=True)
class TridiagonalBands:
    """A real symmetric tridiagonal matrix as its diagonal and offdiagonal bands."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    @property
    def dim(self):
        return len(self.diagonal)

    def dense(self):
        """The matrix as an n x n array."""
        n = self.dim
        m = np.zeros((n, n), dtype=np.result_type(self.diagonal, self.offdiagonal))
        m.flat[::n + 1] = self.diagonal
        m.flat[n::n + 1] = self.offdiagonal
        m.flat[1::n + 1] = self.offdiagonal
        return m

    def shifted(self, shift):
        """Bands of M - shift * I."""
        return TridiagonalBands(self.diagonal - shift, self.offdiagonal)

    def eigenvalues(self):
        """All eigenvalues, ascending."""
        return sla.eigh_tridiagonal(self.diagonal, self.offdiagonal, eigvals_only=True)

    def eigenpairs(self, lo, hi):
        """Eigenpairs with ascending indices lo, ..., hi - 1."""
        if hi <= lo:
            return SpectralDecomposition(np.empty(0), np.empty((self.dim, 0)))
        w, v = sla.eigh_tridiagonal(self.diagonal, self.offdiagonal,
                                    select="i", select_range=(lo, hi - 1))
        return SpectralDecomposition(w, v)

    def window(self, z, lo, hi, corners=None):
        """The window system of rows and columns lo, ..., hi - 1 at z.

        By the Schur complement, the window block of (M - z I)^-1 is the
        inverse of the window's own M - z I less a scalar self-energy at
        each end: e^2 c, with e the link out of the window and c the
        corner entry of the resolvent of the chain beyond it.  ``corners``
        gives the two c (lo end, hi end), say of semi-infinite leads that
        replace the chain beyond the window; by default they are the box's
        own, each from one banded solve.  An end at an end of the chain
        has no self-energy.
        """
        n = self.dim
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"window [{lo}, {hi}) outside 0..{n}")
        diag = self.diagonal[lo:hi] - complex(z)
        off = self.offdiagonal
        if lo > 0 and hi > lo:
            c = _corner(self.diagonal[:lo] - z, off[:lo - 1], -1) if corners is None \
                else corners[0]
            diag[0] -= off[lo - 1] ** 2 * c
        if lo < hi < n:
            c = _corner(self.diagonal[hi:] - z, off[hi:], 0) if corners is None \
                else corners[1]
            diag[-1] -= off[hi - 1] ** 2 * c
        return WindowSystem(diag, off[lo:hi - 1])


@dataclass(frozen=True)
class WindowSystem:
    """A window of M - z I with the chain beyond it folded into its end
    entries: a complex diagonal and the window's real offdiagonal."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def solve(self, rhs):
        """The system's inverse applied to rhs, by its banded LU."""
        # a complex copy: for a 1 x 1 system solve_banded divides it in place
        b = np.array(rhs, dtype=complex)
        if len(b) == 0:
            return b
        return _banded_solve(self.diagonal, self.offdiagonal, b)

    def pivots(self):
        """The LDL^T pivots p_1 = d_1, p_(i+1) = d_(i+1) - e_i^2 / p_i; their
        product is the determinant.  O(m), no matrix formed."""
        d = self.diagonal.tolist()
        e2 = (self.offdiagonal ** 2).tolist()
        p = d[:1]
        for di, ei in zip(d[1:], e2):
            p.append(di - ei / p[-1])
        return np.array(p, dtype=complex)


def _banded_solve(diagonal, offdiagonal, b):
    """Solve the symmetric tridiagonal system (``diagonal``, ``offdiagonal``) x = b,
    overwriting b."""
    ab = np.zeros((3, len(diagonal)), dtype=complex)
    ab[0, 1:] = offdiagonal
    ab[1, :] = diagonal
    ab[2, :-1] = offdiagonal
    return sla.solve_banded((1, 1), ab, b, overwrite_b=True)


def _corner(diagonal, offdiagonal, end):
    """Entry (end, end) of the inverse of the symmetric tridiagonal (``diagonal``, ``offdiagonal``)."""
    unit = np.zeros(len(diagonal), dtype=complex)
    unit[end] = 1.0
    return _banded_solve(diagonal, offdiagonal, unit)[end]


def subspace_compressions(*bases):
    """The projections onto the spans of ``bases``, compressed to their joint span.

    Each basis has orthonormal columns.  With the Householder QR
    [B_1 ... B_m] = Q R and R = [R_1 ... R_m], B_j B_j* = Q R_j R_j* Q*, so
    the R_j R_j* are those projections in the orthonormal basis Q, each
    square of the total column count (or of the dimension, when smaller).
    Sums and products of them have the 2-norms of the same sums and
    products of the n x n projections.
    """
    r = np.linalg.qr(np.hstack(bases), mode="r")
    cuts = np.cumsum([b.shape[1] for b in bases])[:-1]
    return [rj @ rj.conj().T for rj in np.split(r, cuts, axis=1)]


def probe_gaps(probe, spectra):
    """Distance from ``probe`` to each eigenvalue array (inf for an empty one).

    Raises :class:`GapViolationError` carrying the eigenvalue nearest to
    the probe, over all arrays, when it lies within PROBE_GAP_TOL.  This
    is the one place the probe-gap contract is applied.
    """
    gaps, nearest = [], None
    for w in spectra:
        w = np.asarray(w)
        if len(w) == 0:
            gaps.append(np.inf)
            continue
        i = int(np.argmin(np.abs(w - probe)))
        gap = float(abs(w[i] - probe))
        if nearest is None or gap < min(gaps):
            nearest = w[i]
        gaps.append(gap)
    if min(gaps, default=np.inf) < PROBE_GAP_TOL:
        raise GapViolationError(probe, nearest)
    return gaps


def svd(matrix):
    """Singular values (descending) and factors U, s, Vh with M = U s Vh."""
    m = _as_array(matrix)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh


def expm_apply(matrix, t, x):
    """Compute exp(t*M) @ X for Hermitian M through its eigendecomposition.

    Modes whose exponent t*lambda exceeds 700 would overflow; they are
    only tolerated when X has no component on them (below roundoff), in
    which case those components are treated as exact zeros.  Otherwise
    :class:`OverflowGuardError` is raised.
    """
    dec = matrix if isinstance(matrix, SpectralDecomposition) else herm_eig(matrix)
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


def sylvester_solve(a, b, c):
    """Solve diag(a) X - X diag(b) = C, given the eigenvalue diagonals a and b
    (1-d; a 2-d operand raises ValueError), by the quotient X_ij = C_ij / (a_i - b_j).

    Requires a and b separated by at least SYLVESTER_GAP_TOL times the
    scale max(max|a|, max|b|, 1); raises :class:`SpectralCollisionError`
    carrying the offending gap otherwise.  The residual is verified against
    the contract before returning.  An empty a or b gives an empty X.
    """
    a, b, c = (_as_array(m, ndim) for m, ndim in ((a, 1), (b, 1), (c, 2)))
    norm_a, norm_b = (np.max(np.abs(e), initial=0.0) for e in (a, b))
    gap = np.min(np.abs(a[:, None] - b[None, :]), initial=np.inf)
    scale = max(norm_a, norm_b, 1.0)
    if gap < SYLVESTER_GAP_TOL * scale:
        raise SpectralCollisionError(gap, SYLVESTER_GAP_TOL * scale)
    if c.shape != (len(a), len(b)):
        raise ValueError("C must have the rows of A and the columns of B")
    x = c / (a[:, None] - b[None, :])
    resid = np.linalg.norm(a[:, None] * x - x * b[None, :] - c, 2)
    bound = SYLVESTER_RESIDUAL_TOL * (norm_a + norm_b) * max(np.linalg.norm(x, 2), 1e-300)
    if resid > max(bound, 1e-300):
        raise ArithmeticError(f"sylvester residual {resid:.3e} exceeds contract {bound:.3e}")
    return x
