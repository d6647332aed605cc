"""Numerical substrate: Hermitian eigensolves (dense, and banded for
band-stored matrices), a dense Hermitian operator that answers the band
format's index queries from its eigensystem, the band format of real
symmetric tridiagonal matrices with its Sturm counts, its eigenpairs by
index (coarse bisection, inverse iteration and a certified Rayleigh-Ritz
step), its closed-form eigensystem when the band is a uniform chain, its
even and odd blocks when the band is mirror-symmetric (bands of their own,
half as long, that keep a uniform chain's closed form), and its shifted
window systems (the chain beyond the window folded into two boundary
self-energies, the box's own or those of given leads), their banded solve
and LDL^T pivots, semigroup action, the closed-form Sylvester solver on
eigenvalue diagonals, and the probe-gap check on eigenvalue arrays.

Dense Hermitian eigensolves have one home: :func:`hermitian_eigh` and
:func:`hermitian_eigvalsh` diagonalize the :func:`hermitian_part` of a
matrix or of each matrix of a stack, one ``eigh`` or ``eigvalsh``, and are
the package's only calls of either; :func:`herm_eig` certifies one matrix
first.  The one exception is the band solver's Rayleigh-Ritz step
(:meth:`TridiagonalBands._ritz`), whose reduced pencil is symmetric only to
roundoff and is diagonalized as it is.

Two norms have one home each.  :func:`svd` is the one place the package
takes an SVD, and :func:`norm2`, the largest singular value, the 2-norm of
any matrix.  A Hermitian matrix's 2-norm is :func:`hermitian_norm`, its
largest |eigenvalue| from :func:`hermitian_eigvalsh`: no Hermitian residual
is measured by an SVD.

A 2-norm contract ||R||_2 <= tol * max(floor, ||X||_2) has one cheap
accept, :func:`residual_within`: an O(size) bound decides first, and
:func:`norm2` runs only for the matrices it leaves undecided, so the
contract accepts and rejects exactly what the exact check does.  The
Hermitian input check, the Sylvester residual and the eps ladder's factor
residual (:mod:`projdiff.scattering`) all decide through it.

Everything downstream of this module is built from these primitives, so
the contracts here are deliberately strict: inputs are validated, and
residuals are checked before results are returned.  The Hermitian input
contract (:func:`hermitian`) is one exact comparison: a matrix equal to its
conjugate transpose is certified by it.  Any other matrix is certified by
:func:`check_hermitian`.  Either way what is stored and solved
is the matrix's Hermitian part, which equals its conjugate transpose
exactly; :func:`hermitian_part` is the one place (M + M*) / 2 is formed.
The banded eigensolver keeps the dense one's input contract, and certifies
each eigenpair it returns by its residual (BAND_RESIDUAL_TOL).
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import (GapViolationError, NonHermitianError, OverflowGuardError,
                     ResidualError, SpectralCollisionError)

__all__ = ["SpectralDecomposition", "DenseHermitian", "TridiagonalBands", "ParityBlock",
           "WindowSystem", "check_hermitian", "hermitian", "hermitian_part", "hermitian_norm",
           "hermitian_eigh", "hermitian_eigvalsh", "herm_eig", "probe_gaps", "svd", "norm2",
           "residual_within", "expm_apply", "sylvester_solve"]

# each tolerance is read at call time by the one function that applies it
HERMITIAN_TOL = 1e-12
PROBE_GAP_TOL = 1e-8
SYLVESTER_GAP_TOL = 1e-8
SYLVESTER_RESIDUAL_TOL = 1e-9
# banded eigenpairs, both relative to ||T||_1: the absolute tolerance of the
# bisection that gives the inverse-iteration shifts, and the certificate
# ||T v - theta v|| of each Rayleigh-Ritz pair (the rounding of the
# Rayleigh-Ritz rotation alone grows like sqrt(m) eps: about 2 eps at
# m = 400, up to 33 eps on full ranges of m = 2000)
BAND_BISECTION_TOL = 1e-9
BAND_RESIDUAL_TOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_array(m, ndim=2, stack=False):
    """m as a finite array of ``ndim`` dimensions, or of at least ``ndim``
    with ``stack``; ValueError otherwise."""
    m = np.asarray(m)
    if m.ndim < ndim if stack else m.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array" + " or a stack of them" * stack)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def check_hermitian(matrix):
    """Raise :class:`NonHermitianError` when ||M - M*||_2 / ||M||_2 exceeds HERMITIAN_TOL.

    Decided by :func:`residual_within` on M / 2^k, the power of two that
    puts the largest |M_ij| in [1, 2), so squares of tiny or huge entries
    neither underflow nor overflow; the division is exact for every entry
    it leaves in the normal range, so the norms keep their bits.  The
    defect the error carries is the exact quotient.  Zero
    and empty matrices are accepted; entries that are not finite raise
    ValueError.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:
        return
    peak = np.max(np.abs(_as_array(m)))
    if peak == 0:
        return
    a = m / np.ldexp(1.0, np.frexp(peak)[1] - 1)
    holds, defect, scale = residual_within(a - a.conj().T, a, HERMITIAN_TOL)
    if not holds:
        raise NonHermitianError(defect / scale, HERMITIAN_TOL)


def hermitian_part(m):
    """(M + M*) / 2 of a matrix, or of each matrix of a stack (the last two
    axes), which equals its conjugate transpose exactly; M itself when it
    already does, the same values without the arithmetic."""
    mh = m.conj().swapaxes(-1, -2)
    return m if np.array_equal(m, mh) else 0.5 * (m + mh)


def hermitian(matrix):
    """The Hermitian part of a matrix certified Hermitian.

    A matrix equal to its conjugate transpose is certified by that one
    exact comparison and returned as it is.  Any other matrix raises
    :class:`NonHermitianError` when the relative asymmetry
    ||M - M*|| / ||M|| exceeds HERMITIAN_TOL (see :func:`check_hermitian`),
    and its :func:`hermitian_part` is returned.
    """
    m = np.asarray(matrix)
    if np.array_equal(m, m.conj().T):
        return m
    check_hermitian(m)
    return hermitian_part(m)


def hermitian_eigh(m):
    """(eigenvalues ascending, eigenvectors) of the :func:`hermitian_part`
    of a matrix, or of each matrix of a stack: one ``eigh``."""
    return np.linalg.eigh(hermitian_part(m))


def hermitian_eigvalsh(m):
    """The eigenvalues, ascending, of the :func:`hermitian_part` of a matrix,
    or of each matrix of a stack: one ``eigvalsh``."""
    return np.linalg.eigvalsh(hermitian_part(m))


def herm_eig(matrix):
    """Eigendecomposition of a Hermitian matrix: of its certified
    :func:`hermitian` part, by :func:`hermitian_eigh`.  Every
    :class:`DenseHermitian` is stored exactly Hermitian (see
    :func:`projdiff.models.build_finite_pair`), so it is certified by one
    exact comparison and diagonalized as it is.
    """
    return SpectralDecomposition(*hermitian_eigh(hermitian(_as_array(matrix))))


@dataclass(frozen=True)
class DenseHermitian:
    """A dense matrix exactly equal to its conjugate transpose, as both
    operators of a dense pair are, with the index queries of
    :class:`TridiagonalBands` answered from its eigensystem."""

    matrix: np.ndarray
    free_chain = parity_blocks = None

    @property
    def dim(self):
        return self.matrix.shape[0]

    def dense(self):
        return self.matrix

    def shifted(self, shift):
        """M - shift * I."""
        return DenseHermitian(self.matrix - shift * np.eye(self.dim))

    @functools.cached_property
    def eigensystem(self):
        """The full :class:`SpectralDecomposition`, by :func:`herm_eig` on first use."""
        return herm_eig(self.matrix)

    def count_below(self, x):
        """The number of eigenvalues below x."""
        return int(np.searchsorted(self.eigensystem.eigenvalues, x))

    def eigenvalues(self, lo=0, hi=None):
        """Eigenvalues with ascending indices lo, ..., hi - 1 (all by default)."""
        return self.eigenpairs(lo, self.dim if hi is None else hi).eigenvalues

    def eigenpairs(self, lo, hi):
        """Eigenpairs with ascending indices lo, ..., hi - 1, 0 <= lo <= hi <= n."""
        _check_range(lo, hi, self.dim)
        e = self.eigensystem
        return SpectralDecomposition(e.eigenvalues[lo:hi], e.eigenvectors[:, lo:hi])


@dataclass(frozen=True)
class TridiagonalBands:
    """A real symmetric tridiagonal matrix as its diagonal and offdiagonal bands."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def __post_init__(self):
        """Require 1-d bands, n >= 1 diagonal entries and n - 1 offdiagonal ones.
        Their values are checked where a pair is built (build_finite_pair)."""
        d, e = self.diagonal, self.offdiagonal
        if np.ndim(d) != 1 or np.ndim(e) != 1:
            raise ValueError(f"band diagonal and offdiagonal must be 1-d, got "
                             f"{np.ndim(d)}-d and {np.ndim(e)}-d")
        if len(d) == 0 or len(e) != len(d) - 1:
            raise ValueError(f"band offdiagonal has length {len(e)} and diagonal {len(d)}; "
                             f"need a diagonal of n >= 1 entries and an offdiagonal of n - 1")

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

    @functools.cached_property
    def free_chain(self):
        """(d, t) when the band is a uniform chain, a constant diagonal d and a
        constant nonzero offdiagonal t (the discrete Dirichlet Laplacian up to
        scale and shift), else None.  One O(n) check; the chain's eigenpairs
        are then known in closed form (DST-I): with theta_j = pi j / (n + 1),
        j = 1, ..., n, the j-th eigenvalue is d - 2|t| + 4|t| sin^2(theta_j / 2)
        and its eigenvector sqrt(2 / (n + 1)) sin(i theta_j), i = 1, ..., n,
        its sign alternating in i when t > 0."""
        d, e = self.diagonal, self.offdiagonal
        if len(e) == 0 or e[0] == 0 or np.any(d != d[0]) or np.any(e != e[0]):
            return None
        return float(d[0]), float(e[0])

    def _modes(self, lo, hi):
        """The closed-form mode numbers j (1-based) of the indices lo, ...,
        hi - 1."""
        return np.arange(lo + 1, hi + 1)

    def _chain_values(self, j):
        """Free-chain eigenvalues of the modes j (1-based, ascending in j)."""
        d, t = self.free_chain
        return d - 2.0 * abs(t) + 4.0 * abs(t) * np.sin(0.5 * np.pi * j / (self.dim + 1)) ** 2

    def _chain_vectors(self, i, j):
        """Entries i of the free chain's eigenvectors j (both 1-based)."""
        n, t = self.dim, self.free_chain[1]
        # i j reduced mod 2(n + 1) in integers, so every sine argument is in [0, 2 pi)
        v = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * (np.outer(i, j) % (2 * (n + 1))))
        if t > 0:
            v[i % 2 == 1] *= -1.0
        return v

    @functools.cached_property
    def parity_blocks(self):
        """(even, odd) :class:`ParityBlock` when the band is mirror-symmetric,
        both bands equal to their own reversal, so that M commutes with the
        reflection x -> x[::-1]; else None.  One exact O(n) check; n >= 2."""
        d, e, m = self.diagonal, self.offdiagonal, self.dim // 2
        if self.dim < 2 or not (np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1])):
            return None
        if self.dim % 2 == 0:
            return tuple(ParityBlock(np.r_[d[:m - 1], d[m - 1] + p * e[m - 1]], e[:m - 1], self, p)
                         for p in (+1, -1))
        off = e[:m].copy()
        off[-1] *= np.sqrt(2.0)
        return ParityBlock(d[:m + 1], off, self, +1), ParityBlock(d[:m], e[:m - 1], self, -1)

    def eigenvalues(self, lo=0, hi=None):
        """Eigenvalues with ascending indices lo, ..., hi - 1 (all by default).

        Closed form for a free chain.  Otherwise the full range comes from
        one banded solve (``eigh_tridiagonal``'s default driver), and a part
        of it by ``dstebz`` bisection to full accuracy, one index at a time:
        the last bits of a bisected value depend on the range bracketed, so a
        partial range gives each index the same bits whatever range it is
        asked in, and agrees with the full range only to roundoff.  Meant for
        a few indices, such as the two beside a probe that the probe-gap
        contract reads.  The values of :meth:`eigenpairs` are Ritz values
        instead, equal to these to roundoff.  A range outside
        0 <= lo <= hi <= n raises ValueError.
        """
        n = self.dim
        hi = n if hi is None else hi
        _check_range(lo, hi, n)
        if self.free_chain is not None:
            return self._chain_values(self._modes(lo, hi))
        if (lo, hi) == (0, n):
            return sla.eigh_tridiagonal(self.diagonal, self.offdiagonal, eigvals_only=True)
        return np.ravel([self._stebz(k, k + 1, 0.0)[0] for k in range(lo, hi)])

    def eigenpairs(self, lo, hi):
        """Eigenpairs with ascending indices lo, ..., hi - 1; closed form for a
        free chain.

        Otherwise in four steps (Parlett, The Symmetric Eigenvalue Problem,
        ch. 4 and 11).  LAPACK ``dstebz`` bisects the requested eigenvalues
        only to an absolute BAND_BISECTION_TOL * ||T||_1, enough for the
        inverse iteration of ``dstein`` to converge on them (its info is not
        read: the certificate below judges a vector it leaves unconverged).
        A Rayleigh-Ritz step on the span of its vectors (see :meth:`_ritz`)
        then gives the eigenvalues to roundoff.  Every pair must satisfy the
        certificate ||T v - theta v|| <= BAND_RESIDUAL_TOL * ||T||_1.  When
        one fails it, the four steps run once more on the whole range, with the
        bisection to full accuracy (``dstebz`` at abstol 0, as in
        ``eigh_tridiagonal``); a pair that fails then raises
        :class:`ResidualError`.  A failed bisection raises ``LinAlgError``,
        and a range outside 0 <= lo <= hi <= n a ValueError.
        """
        _check_range(lo, hi, self.dim)
        if hi == lo:
            return SpectralDecomposition(np.empty(0), np.empty((self.dim, 0)))
        if self.free_chain is not None:
            j = self._modes(lo, hi)
            return SpectralDecomposition(self._chain_values(j),
                                         self._chain_vectors(np.arange(1, self.dim + 1), j))
        bound = BAND_RESIDUAL_TOL * self._norm1
        for abstol in (BAND_BISECTION_TOL * self._norm1, 0.0):
            w, block, split = self._stebz(lo, hi, abstol, "B")
            v = lapack.dstein(self.diagonal, self._links, w, block, split)[0]
            theta, v, resid = self._ritz(v)
            worst = int(np.argmax(resid))
            if resid[worst] <= bound:
                return SpectralDecomposition(theta, v)
        raise ResidualError(f"banded eigenpair residual {resid[worst]:.3e} exceeds "
                            f"contract {bound:.3e}", resid[worst], bound)

    @functools.cached_property
    def _norm1(self):
        """||M||_1, the largest absolute row sum; it bounds every |eigenvalue|."""
        d, e = self.diagonal, self.offdiagonal
        return np.max(np.abs(d) + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]))

    @functools.cached_property
    def _links(self):
        """The offdiagonal as LAPACK's ``dstebz`` and ``dstein`` wrappers take
        it: n - 1 entries, but at least one, which a one-site band leaves
        unread."""
        return np.r_[self.offdiagonal, 0.0][:max(self.dim - 1, 1)]

    def _stebz(self, lo, hi, abstol, order="E", below=None):
        """LAPACK ``dstebz``, the one place it is called.  By index: the
        eigenvalues with ascending indices lo, ..., hi - 1, bisected to an
        absolute ``abstol``, with their blocks and the splits, as
        (values, blocks, splits) in ``order`` ("E" ascending, "B" by block,
        as ``dstein`` wants them).  Given ``below`` = x: the Sturm count of
        the eigenvalues of -M in (-1 - ||M||_1, -x] (see :meth:`count_below`).
        A failed call, or one that finds fewer values than asked, raises
        ``LinAlgError``."""
        count = below is not None
        d, select, vu = (-self.diagonal, 1, -below) if count else (self.diagonal, 2, 0.0)
        # by index (select 2) dstebz brackets the wanted values itself: vl and vu go unread
        m, w, block, split, info = lapack.dstebz(d, self._links, select, -1.0 - self._norm1, vu,
                                                 lo + 1, hi, abstol, order)
        if info or (not count and m != hi - lo):
            raise np.linalg.LinAlgError(f"dstebz count failed (info {info})" if count else
                                        f"dstebz failed (info {info}, {m} of {hi - lo} "
                                        f"eigenvalues)")
        return m if count else (w[:m], block, split)

    def _ritz(self, v):
        """(Ritz values, Ritz vectors, residual norms) of the span of the
        columns v, ascending.  The vectors are V Q, with Q from the pencil
        (V^T T V, V^T V) reduced by the Cholesky factor of the Gram matrix,
        which takes up the loss of orthogonality of v, so V Q is orthonormal
        to roundoff even where v is not.  Each value is the Rayleigh quotient
        of its vector, from the T V Q the residual needs anyway: it rounds
        less than an eigenvalue of the reduced matrix, whose entries are sums
        of length n."""
        linv = np.linalg.inv(np.linalg.cholesky(v.T @ v))
        q = np.linalg.eigh(linv @ (v.T @ self._apply(v)) @ linv.T)[1]
        v = v @ (linv.T @ q)
        tv = self._apply(v)
        theta = np.einsum("ij,ij->j", v, tv) / np.einsum("ij,ij->j", v, v)
        tv -= v * theta
        order = np.argsort(theta, kind="stable")
        return theta[order], v[:, order], np.linalg.norm(tv, axis=0)[order]

    def _apply(self, v):
        """T v for the columns v, from the bands."""
        d, e = self.diagonal[:, None], self.offdiagonal[:, None]
        tv = d * v
        tv[:-1] += e * v[1:]
        tv[1:] += e * v[:-1]
        return tv

    def count_below(self, x):
        """The number of eigenvalues below x.  A free chain counts its
        closed-form eigenvalues below x, one ``searchsorted``, so the count
        agrees with the values :meth:`eigenvalues` gives.  Other bands count
        n less LAPACK ``dstebz``'s Sturm count of the eigenvalues of -M in
        (-1 - ||M||_1, -x], at an abstol as wide, so its bisection stops at
        the first midpoint; as it takes a pivot below its floor as negative,
        an eigenvalue at x is not below x.  x >= ||M||_1 + 1 or NaN gives
        n without a call; a failed count raises ``LinAlgError``.
        """
        if self.free_chain is not None:
            return int(np.searchsorted(self.eigenvalues(), x))
        n, vl = self.dim, -1.0 - self._norm1
        if not x < -vl:
            return n
        return n - self._stebz(0, 0, -x - vl, below=x)

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
        _check_range(lo, hi, n, "window")
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
class ParityBlock(TridiagonalBands):
    """The even (``parity`` +1) or odd (-1) block of a mirror-symmetric band
    ``parent`` (Cantoni and Butler, Linear Algebra Appl. 13, 1976): the
    parent on the vectors x with x[::-1] = parity * x, in the orthonormal
    coordinates of their first half, y_i = sqrt(2) x_i, except that the
    middle entry of an even vector of odd length is kept as it is.

    For n = 2m the folded bands are the first m rows with parity * e_m
    added to the last diagonal entry.  For n = 2m + 1 the even block keeps
    the middle site, its last link times sqrt(2), and the odd block drops
    it.  The block is a band of its own, about n / 2 long, and runs the
    band's methods; a free chain's blocks keep its closed form, the DST-I
    modes of that parity, folded.
    """

    parent: TridiagonalBands
    parity: int

    @property
    def free_chain(self):
        """The parent's: its closed form gives the block's eigenpairs."""
        return self.parent.free_chain

    def _modes(self, lo, hi):
        """The parent chain's mode numbers j of the block's indices lo, ...,
        hi - 1.  Mode j has parity (-1)^(j + 1), times (-1)^(n + 1) when
        t > 0 (the alternating sign), so each block takes every other j."""
        flip = self.free_chain[1] > 0 and self.parent.dim % 2 == 0
        return (1 if (self.parity > 0) != flip else 2) + 2 * np.arange(lo, hi)

    def _chain_values(self, j):
        """The parent's."""
        return self.parent._chain_values(j)

    def _chain_vectors(self, i, j):
        """The parent's, in the block's coordinates: the first half times sqrt(2)."""
        v = self.parent._chain_vectors(i, j)
        v[:self.parent.dim // 2] *= np.sqrt(2.0)
        return v

    def unfold(self, y):
        """The parent-space vectors of the block vectors ``y`` (its rows)."""
        n = self.parent.dim
        half = y[:n // 2] / np.sqrt(2.0)
        middle = y[n // 2:] if self.parity > 0 else np.zeros_like(y[:n % 2])
        return np.concatenate([half, middle, self.parity * half[::-1]])


@dataclass(frozen=True)
class WindowSystem:
    """A window of M - z I with the chain beyond it folded into its end
    entries: a complex diagonal and the window's real offdiagonal."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    def solve(self, rhs):
        """The system's inverse applied to rhs (a vector or columns), by the
        banded LU of ``solve_banded``, into a complex copy of rhs."""
        # a complex copy: for a 1 x 1 system solve_banded divides it in place
        b = np.array(rhs, dtype=complex)
        if len(b) == 0:
            return b
        ab = np.zeros((3, len(self.diagonal)), dtype=complex)
        ab[0, 1:] = self.offdiagonal
        ab[1, :] = self.diagonal
        ab[2, :-1] = self.offdiagonal
        return sla.solve_banded((1, 1), ab, b, overwrite_b=True)

    def pivots(self):
        """The LDL^T pivots p_1 = d_1, p_(i+1) = d_(i+1) - e_i^2 / p_i; their
        product is the determinant.  O(m), no matrix formed."""
        d = self.diagonal.tolist()
        e2 = (self.offdiagonal ** 2).tolist()
        p = d[:1]
        for di, ei in zip(d[1:], e2):
            p.append(di - ei / p[-1])
        return np.array(p, dtype=complex)


def _check_range(lo, hi, n, what="index range"):
    """Raise ValueError unless 0 <= lo <= hi <= n."""
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"{what} [{lo}, {hi}) outside 0..{n}")


def _corner(diagonal, offdiagonal, end):
    """Entry (end, end) of the inverse of the symmetric tridiagonal (``diagonal``,
    ``offdiagonal``): the one-column solve of its :class:`WindowSystem` on a unit vector."""
    unit = np.zeros(len(diagonal))
    unit[end] = 1.0
    return WindowSystem(diagonal, offdiagonal).solve(unit)[end]


def probe_gaps(probe, spectra):
    """Distance from ``probe`` to each eigenvalue array (inf for an empty one).

    Raises :class:`GapViolationError` carrying the eigenvalue nearest to
    the probe, over all arrays (from the first of equally near ones), when
    it lies within PROBE_GAP_TOL, and ValueError for a probe that is not
    finite.  This is the one place the probe-gap contract is applied; every
    pair reaches it through :meth:`projdiff.models.OperatorPair.probe_gaps`.
    """
    if not np.isfinite(probe):
        raise ValueError(f"probe {probe} is not finite")
    spectra = [np.asarray(w) for w in spectra]
    gaps = [float(np.min(np.abs(w - probe), initial=np.inf)) for w in spectra]
    if min(gaps, default=np.inf) < PROBE_GAP_TOL:
        w = spectra[int(np.argmin(gaps))]
        raise GapViolationError(probe, w[np.argmin(np.abs(w - probe))])
    return gaps


def svd(matrix):
    """Singular values, descending, of a matrix or of each matrix of a stack
    (the last two axes): the one place the package calls an SVD.  Entries
    that are not finite, or fewer than two axes, raise ValueError."""
    return np.linalg.svd(_as_array(matrix, stack=True), compute_uv=False)


def norm2(matrix):
    """The 2-norm of a matrix, or of each matrix of a stack: its largest
    singular value from :func:`svd`, 0 for an empty matrix."""
    return np.max(svd(matrix), axis=-1, initial=0.0)


def residual_within(r, x, tol, floor=0.0):
    """(holds, ||R||_2, ||X||_2) for the contract ||R||_2 <= tol * max(floor,
    ||X||_2), of a matrix or of each matrix of a stack (the last two axes):
    the one cheap accept of a 2-norm contract.

    Fast accept in O(size): ||R||_F bounds ||R||_2 from above and the
    largest column norm max_j ||X e_j|| bounds ||X||_2 from below, so
    ||R||_F <= (1 - 1e-8) * tol * max(floor, max_j ||X e_j||) proves the
    contract holds, the margin covering their roundoff.  Only the matrices
    it leaves undecided take the two exact 2-norms (:func:`norm2`, a matrix
    as a matrix, not as a stack of one); they decide, and are returned.
    Where the bound decided, the two bounds are returned instead.
    """
    rn = np.asarray(np.linalg.norm(r, axis=(-2, -1)))
    xn = np.asarray(np.max(np.linalg.norm(x, axis=-2), axis=-1, initial=0.0))
    undecided = ~(rn <= (1.0 - 1e-8) * tol * np.maximum(floor, xn))
    if np.any(undecided):
        # a 0-d index () takes a single matrix whole
        i = np.nonzero(undecided) if undecided.ndim else ()
        rn[i], xn[i] = norm2(r[i]), norm2(x[i])
    # [()] gives a single matrix's values as scalars, a stack's as arrays
    return (rn <= tol * np.maximum(floor, xn))[()], rn[()], xn[()]


def hermitian_norm(m):
    """The 2-norm of the Hermitian part of a matrix, or of each matrix of a
    stack: its largest |eigenvalue|, 0 for an empty matrix.  One
    :func:`hermitian_eigvalsh`; for a Hermitian matrix it is :func:`norm2`
    to roundoff."""
    return np.max(abs(hermitian_eigvalsh(m)), axis=-1, initial=0.0)


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
    the contract before returning (see :func:`_check_sylvester_residual`).
    An empty a or b gives an empty X.
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
    _check_sylvester_residual(a, b, c, x, SYLVESTER_RESIDUAL_TOL * (norm_a + norm_b))
    return x


def _check_sylvester_residual(a, b, c, x, scale):
    """Raise :class:`ResidualError` when R = diag(a) X - X diag(b) - C has
    ||R||_2 > max(scale * max(||X||_2, 1e-300), 1e-300), decided by
    :func:`residual_within`."""
    holds, resid, xnorm = residual_within(a[:, None] * x - x * b[None, :] - c, x, scale, 1e-300)
    if not holds and resid > 1e-300:
        bound = scale * max(xnorm, 1e-300)
        raise ResidualError(f"sylvester residual {resid:.3e} exceeds contract {bound:.3e}",
                            resid, bound)
