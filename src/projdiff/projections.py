"""Spectral projections below a probe, the projection difference and its
spectrum, swap-subspace dimensions, block and corner identities.

The difference D = E(probe) - E0(probe) of two orthogonal projections is
self-adjoint with spectrum in [-1, 1].  Its +-1 eigenspaces are the exact
swap subspaces; the rest of the nonzero spectrum pairs exactly as +-x,
which the pairing-defect metric quantifies.

D is computed on a small subspace, never as an n x n matrix.  Let U0 and
U1 hold the eigenvectors of H0 and H on the side of the probe with fewer
of them (m0 + m1 = r <= n).  Below the probe D = U1 U1* - U0 U0*; above
it D = (I - E0) - (I - E) is the same with the sign flipped.  Either way
D vanishes off span[U0, U1] (the two-subspace picture of Avron, Seiler
and Simon), so with the Householder QR [U0 U1] = Q R its spectrum is that
of the r x r compression Q* D Q = R1 R1* - R0 R0*, padded with n - r
exact zeros, and the D^2 block identity compresses to the same r x r
blocks.  The eigenvectors come from the pair: a banded solver restricted
to the needed indices for a band-stored pair, the dense eigensystems for
a dense one.  The difference spectrum reports the D^2 residual of the
compression it has built, so one probe needs one compression.

The corners E0(side) E(opposite) E0(side) are functions of the same
small-side bases: their nonzero spectrum is 1 - sigma(C)^2 for the
cross-Gram C = U0* U1 (the principal angles between the two subspaces),
so one SVD of the m0 x m1 matrix C gives them.  No library function
forms the n x n spectral projection; it is kept for tests and demos.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import probe_gaps, subspace_compressions

__all__ = [
    "DifferenceReport", "spectral_projection", "projection_difference",
    "dsquared_block_check", "corner_spectrum", "fill_metrics",
    "hausdorff_distance", "interval_hausdorff", "pairing_defect",
]

SWAP_CLUSTER_TOL = 1e-6
PAIRING_BAND = 1e-6


def spectral_projection(decomp, probe):
    """Orthogonal projection onto eigenvectors with eigenvalue below ``probe``.

    An n x n matrix, kept as the dense oracle of tests and demos.  Raises
    :class:`GapViolationError` carrying the nearest eigenvalue when one
    is too close to the probe (see :func:`projdiff.linalg.probe_gaps`).
    """
    w = decomp.eigenvalues
    probe_gaps(probe, [w])
    v = decomp.eigenvectors[:, w < probe]
    return v @ v.conj().T


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite point sets on the line."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def fill_metrics(values, lo, hi):
    """(max gap, one-sided Hausdorff) of a value set against [lo, hi].

    Max gap is between consecutive sorted values inside the interval;
    the one-sided Hausdorff distance is sup over the interval of the
    distance to the value set, measuring coverage only.
    """
    inside = np.sort(values[(values >= lo) & (values <= hi)])
    if len(inside) == 0:
        return float(hi - lo), float(hi - lo)
    gaps = np.diff(inside)
    max_gap = float(gaps.max()) if len(gaps) else 0.0
    cover = max(inside[0] - lo, hi - inside[-1])
    if len(gaps):
        cover = max(cover, 0.5 * gaps.max())
    return max_gap, float(cover)


def interval_hausdorff(values, lo, hi):
    """Two-sided Hausdorff distance between a value set and [lo, hi]."""
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        return float(max(hi - lo, 0.0))
    outlier = float(max(0.0, v.max() - hi, lo - v.min()))
    _, cover = fill_metrics(v, lo, hi)
    return max(outlier, cover)


def pairing_defect(spectrum):
    """Hausdorff distance between the middle spectrum and its negation.

    The middle spectrum is every eigenvalue x with
    PAIRING_BAND < |x| < 1 - PAIRING_BAND;
    for an exact projection difference it is symmetric, so the defect is
    a roundoff diagnostic.
    """
    s = np.asarray(spectrum, dtype=float)
    mid = s[(np.abs(s) > PAIRING_BAND) & (np.abs(s) < 1.0 - PAIRING_BAND)]
    if len(mid) == 0:
        return 0.0
    return hausdorff_distance(mid, -mid)


@dataclass(frozen=True)
class DifferenceReport:
    """Spectrum of D(probe) with swap dimensions and fill metrics."""

    probe: float
    spectrum: np.ndarray
    dim_plus: int
    dim_minus: int
    pairing_defect: float
    gap_h0: float
    gap_h: float
    max_gap: float
    coverage_distance: float
    dsquared_residual: float         # see dsquared_block_check

    @property
    def extremes(self):
        return float(self.spectrum.min()), float(self.spectrum.max())


def _side_projections(pair, probe):
    """(gaps, side, A0, A1): the probe gaps of :func:`projdiff.linalg.probe_gaps`
    and the side projections of h0 and h compressed to span[U0, U1], with
    (side, U0, U1) from :meth:`projdiff.models.OperatorPair.probe_basis`."""
    gaps = probe_gaps(probe, pair.eigenvalues)
    side, u0, u1 = pair.probe_basis(probe)
    return (gaps, side, *subspace_compressions(u0, u1))


def _dsquared_residual(a0, a1):
    eye = np.eye(len(a0))
    d = a1 - a0
    rhs = a0 @ (eye - a1) @ a0 + (eye - a0) @ a1 @ (eye - a0)
    return float(np.linalg.norm(d @ d - rhs, 2))


def projection_difference(pair, probe, target=None):
    """Full spectrum of D(probe) = E(probe) - E0(probe) with metrics.

    All n eigenvalues are returned: those of the r x r compression,
    clipped to [-1, 1], where the spectrum of D lies exactly (roundoff
    would otherwise push a swap eigenvalue past +-1 and out of the fill
    metrics), and n - r exact zeros.  The swap dimensions count
    eigenvalues within SWAP_CLUSTER_TOL of +1 and -1.  ``target`` is the interval the fill
    metrics are computed against, defaulting to [-1, 1].  The report
    carries the residual of :func:`dsquared_block_check` on the same
    compression.
    """
    (g0, g1), side, a0, a1 = _side_projections(pair, probe)
    core = np.clip(-side * np.linalg.eigvalsh(a1 - a0), -1.0, 1.0)
    spec = np.sort(np.concatenate([core, np.zeros(pair.dim - len(core))]))
    dim_plus = int(np.sum(spec > 1.0 - SWAP_CLUSTER_TOL))
    dim_minus = int(np.sum(spec < -1.0 + SWAP_CLUSTER_TOL))
    lo, hi = target if target is not None else (-1.0, 1.0)
    max_gap, cover = fill_metrics(spec, lo, hi)
    return DifferenceReport(float(probe), spec, dim_plus, dim_minus,
                            pairing_defect(spec), g0, g1, max_gap, cover,
                            _dsquared_residual(a0, a1))


def dsquared_block_check(pair, probe):
    """Residual of the block decomposition of D^2.

    D^2 equals the sum of the two compressed corners
    E0(below) E(above) E0(below) + E0(above) E(below) E0(above); this is
    an exact algebraic identity, so the residual is a roundoff check.  Both
    sides vanish off span[U0, U1] and the identity is unchanged when both
    projections are replaced by their complements, so it is checked on
    the r x r compressions of the side projections.
    """
    _, _, a0, a1 = _side_projections(pair, probe)
    return _dsquared_residual(a0, a1)


def corner_spectrum(pair, probe, sign=+1):
    """Spectrum of E0(side) E(opposite) E0(side) compressed to Ran E0(side).

    ``sign`` = +1 compresses onto the H0 spectral subspace above the
    probe, -1 onto the one below.  Eigenvalues lie in [0, 1], and in the
    limit they fill [0, ||A(0)||] with A the scattering defect operator.

    Computed from the small-side cross-Gram C = U0* U1 of
    :meth:`projdiff.models.OperatorPair.probe_basis`.  When the small side
    is ``sign``, U0 spans Ran E0(side) and U1 the complement of
    Ran E(opposite), so the corner is I - C C*.  Otherwise U1 spans
    Ran E(opposite) and U0 the complement of Ran E0(side), so the nonzero
    corner spectrum is that of I - C* C.  Either way it is 1 - sigma(C)^2,
    padded with exact zeros to dim Ran E0(side).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    probe_gaps(probe, pair.eigenvalues)
    side, u0, u1 = pair.probe_basis(probe)
    m0, m1 = u0.shape[1], u1.shape[1]
    sigma = np.linalg.svd(u0.conj().T @ u1, compute_uv=False)
    count, dim = (m0, m0) if side == sign else (m1, pair.dim - m0)
    core = 1.0 - np.concatenate([sigma, np.zeros(count - len(sigma))]) ** 2
    return np.sort(np.concatenate([core, np.zeros(dim - count)]))
