"""Spectral projections below a probe, the projection difference and its
spectrum, swap-subspace dimensions, block and corner identities.

The difference D = E(probe) - E0(probe) of two orthogonal projections is
self-adjoint with spectrum in [-1, 1].  Its +-1 eigenspaces are the exact
swap subspaces; the rest of the nonzero spectrum pairs exactly as +-x,
which the pairing-defect metric quantifies.

D is computed from principal angles, never as an n x n matrix.  U0 and
U1 hold the eigenvectors of H0 and H on the side of the probe with fewer
of them (m0 + m1 = r <= n) and span Ran P0 and Ran P1; D is P1 - P0
below the probe and P0 - P1 above it.  With C = U0* U1, the singular
values s0 of W0 = U0 - U1 C* = (I - P1) U0 and s1 of W1 = U1 - U0 C are
the sines of the principal angles seen from each side, the dimension
excess showing as ones, to roundoff in absolute terms (Bjorck and Golub,
Math. Comp. 27, 1973), where sqrt(1 - sigma(C)^2) cancels.  The nonzero
spectrum of P1 - P0 is +s1 and -s0 (Halmos's two-subspace theorem),
padded with n - r exact zeros.  The D^2 block identity compressed to
each basis reads W0* W0 = I - C C* and W1* W1 = I - C* C, and the
corners E0(side) E(opposite) E0(side) are W0* W0 or, up to zeros, W1* W1:
their nonzero eigenvalues are the squares of D's eigenvalues of one sign,
which the corners read off the D report.

The eigen-data come from the pair in one step (see
:meth:`projdiff.models.OperatorPair.probe_basis`), and no full spectrum
is solved for a band-stored pair: m0 and m1 are Sturm counts, the probe
gaps are read off the two eigenvalues beside the probe, and those
eigenvalues and the eigenvectors come from a banded solver restricted
to the needed indices, or in closed form (DST-I) for a uniform chain
such as the free Schrodinger H0.  A dense
pair reads all three off its dense eigensystems.

When both bands are mirror-symmetric, as every Schrodinger preset is on
its centred box, the reflection x -> -x commutes with H0 and H, and D is
the direct sum of its even and odd parts (Cantoni and Butler, Linear
Algebra Appl. 13, 1976).  The probe step then runs on the two parity
blocks, each on folded bands about n / 2 long (see
:class:`projdiff.linalg.ParityBlock`), H0's still in closed form.  The
small side is chosen over the whole pair; each block has its own C, W0
and W1, its sines are joined to the other's, and the D^2 residual is the
larger of the two.  The report names the path ("free-chain", "banded" or
"dense", with "+parity" when split).  No library function forms the
n x n spectral projection; it is kept for tests and demos.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_norm, probe_gaps, svd

__all__ = [
    "DifferenceReport", "spectral_projection", "projection_difference",
    "dsquared_block_check", "corner_spectrum", "fill_metrics",
    "hausdorff_distance", "interval_hausdorff", "pairing_defect", "side_sines",
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
    """Hausdorff distance between two finite point sets on the line or,
    for complex points, in the plane."""
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def fill_metrics(values, lo, hi):
    """(max gap, one-sided Hausdorff) of a value set against [lo, hi].

    Max gap is between consecutive sorted values inside the interval, or
    hi - lo when fewer than two lie inside (a lone value bounds no gap); the
    one-sided Hausdorff distance is sup over the interval of the distance
    to the value set, measuring coverage only.
    """
    values = np.asarray(values, dtype=float)
    inside = np.sort(values[(values >= lo) & (values <= hi)])
    if len(inside) == 0:
        return float(hi - lo), float(hi - lo)
    gaps = np.diff(inside)
    cover = max(inside[0] - lo, hi - inside[-1], 0.5 * gaps.max(initial=0.0))
    return (float(gaps.max()) if len(gaps) else float(hi - lo)), float(cover)


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
    spectrum: np.ndarray             # all n values, sorted
    sines: np.ndarray                # the r signed principal sines, sorted
    dim_plus: int
    dim_minus: int
    pairing_defect: float
    gap_h0: float
    gap_h: float
    max_gap: float
    coverage_distance: float
    dsquared_residual: float         # both bases' D^2 blocks; dsquared_block_check
    path: str                        # OperatorPair.basis_path
    counts: tuple                    # (m0, m1), eigenvalues of H0 and H below the probe

    @property
    def extremes(self):
        return float(self.spectrum.min()), float(self.spectrum.max())


def side_sines(u, v, g):
    """(W, its singular values) for W = u - v g: (W0, s0) or (W1, s1)."""
    w = u - v @ g
    return w, svd(w)


def projection_difference(pair, probe):
    """Full spectrum of D(probe) = E(probe) - E0(probe) with metrics.

    All n eigenvalues are returned: the r signed principal sines
    -side * [s1, -s0], clipped to [-1, 1], where the spectrum of D lies
    exactly (roundoff would otherwise push a swap eigenvalue past +-1 and
    out of the fill metrics), and n - r exact zeros; ``sines`` holds the r
    sines alone.  The swap dimensions count eigenvalues within
    SWAP_CLUSTER_TOL of +1 and -1, and the fill metrics are taken against
    [-1, 1].  The report carries the D^2 block
    residual of the same step (see :func:`dsquared_block_check`), the
    pair's basis path and the counts below the probe, from the bases'
    column counts.
    """
    (g0, g1), side, bases = pair.probe_basis(probe)
    s0, s1, residual = [], [], 0.0
    for e0, e1 in bases:
        u0, u1 = e0.eigenvectors, e1.eigenvectors
        c = u0.conj().T @ u1
        for u, v, g, sines in ((u0, u1, c.conj().T, s0), (u1, u0, c, s1)):
            w, s = side_sines(u, v, g)
            sines.append(s)
            block = w.conj().T @ w - np.eye(w.shape[1]) + g.conj().T @ g     # a D^2 block
            residual = max(residual, float(hermitian_norm(block)))
    core = np.clip(-side * np.concatenate(s1 + [-s for s in s0]), -1.0, 1.0)
    spec = np.sort(np.concatenate([core, np.zeros(pair.dim - len(core))]))
    dim_plus = int(np.sum(spec > 1.0 - SWAP_CLUSTER_TOL))
    dim_minus = int(np.sum(spec < -1.0 + SWAP_CLUSTER_TOL))
    cols = [sum(e.eigenvectors.shape[1] for e in es) for es in zip(*bases)]
    counts = tuple(m if side < 0 else pair.dim - m for m in cols)
    return DifferenceReport(float(probe), spec, np.sort(core), dim_plus, dim_minus,
                            pairing_defect(spec), g0, g1, *fill_metrics(spec, -1.0, 1.0),
                            residual, pair.basis_path, counts)


def dsquared_block_check(pair, probe):
    """Residual of the block decomposition of D^2.

    D^2 equals the sum of the two compressed corners
    E0(below) E(above) E0(below) + E0(above) E(below) E0(above); this is
    an exact algebraic identity, so the residual is a roundoff check.
    Compressed to each small-side basis it reads W0* W0 = I - C C* and
    W1* W1 = I - C* C, whose residuals are (U0* U0 - I) + C (U1* U1 - I) C*
    and its mirror: an orthonormality defect of either basis shows.  It
    is read off the report of :func:`projection_difference`.
    """
    return projection_difference(pair, probe).dsquared_residual


def corner_spectrum(pair, probe, sign=+1):
    """Spectrum of E0(side) E(opposite) E0(side) compressed to Ran E0(side).

    ``sign`` = +1 compresses onto the H0 spectral subspace above the
    probe, -1 onto the one below.  Eigenvalues lie in [0, 1], and in the
    limit they fill [0, ||A(0)||] with A the scattering defect operator.

    Read off the report of :func:`projection_difference`.  When the small
    side is ``sign``, U0 spans Ran E0(side) and U1 the complement of
    Ran E(opposite), so the corner is W0* W0, with spectrum s0^2; otherwise
    U1 spans Ran E(opposite), and the corner is W1* W1: s1^2, padded with
    zeros to dim Ran E0(side).  Either way these are the squares of D's
    sines of sign ``sign``.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    rep = projection_difference(pair, probe)
    dim = rep.counts[0] if sign < 0 else pair.dim - rep.counts[0]
    core = rep.sines[sign * rep.sines > 0] ** 2
    return np.sort(np.concatenate([core, np.zeros(dim - len(core))]))
