"""Resolvent sandwiches, smoothed spectral densities, the stationary
scattering matrix, its defect operator, the spectral shift, and an
independent transfer-matrix oracle for 1-d Schrodinger pairs.

The stationary formula

    S(lam) = I - 2*pi*i * sqrt(F0'(lam)) (V0 - V0 T(lam+i0) V0) sqrt(F0'(lam))

is a statement about boundary values at lam + i0.  They are reached on
one of two paths, picked by the pair's storage.

A band pair whose chain is uniform outside the coupling window is taken
on the whole lattice: the chain beyond the window becomes two open leads
with a closed-form retarded corner, the window systems then give T0 and
T at lam + i0 exactly, F0' has rank 2, and S is the 2 x 2 Fisher-Lee
matrix, with the spectral shift from the LDL^T pivots of the same two
window systems (:func:`channel_smatrix`).  No k x k matrix is formed and
no eps enters.

A dense pair (and the eps study, and the tests, for any pair) goes
through an epsilon ladder: every quantity is computed at z = probe +
i*eps for a decreasing sequence of eps and scalar outputs are
Neville-extrapolated to eps = 0.  A pleasant exact fact keeps the ladder
honest: the smoothed stationary matrix S_eps is exactly unitary at every
eps > 0 (same algebra as the defect-operator identity), so its
eigenvalues always live on the unit circle and only their phases move
with eps.

The transfer-matrix oracle shares neither path: the continuum fundamental
system, one product of 4th-order Magnus cells (closed-form 2 x 2
exponentials, in numpy alone), gives S for both incidence sides.  The cells
are refined until their local error estimates (step against two half
steps, plus a Simpson-against-Gauss quadrature gap that sees jumps of V)
meet their share of ORACLE_TOL, and the result reports the summed
estimate.  Channel, ladder and oracle map phases to band edges through
:func:`band_edges`.

The sandwiches G (A - z)^-1 G* of a dense pair come from the cached
eigensystems of its operators, (G U) diag(1/(w - z)) (G U)*.  A band pair
is real symmetric, with real G and V0, and its sandwiches need only the
block of the resolvent on the coupling window, the columns where G is
nonzero: the chain outside it enters through two scalar boundary
self-energies (a Schur complement), and the window system is solved once
for all of G^T = G*.

The ladder computes all its rungs at once: T0 and T at every rung form
(R, k, k) stacks, from G U formed once per operator, and each k x k step
(the conditioning inverse, the factor residual, the PSD root, S, the
unitarity defect, the eigenvalues of S, the defect identity) is one
stacked numpy call.  Every rung keeps its checks, which flag the failing
rungs in that one pass; the first flagged rung, in ladder order, raises
its check's error (at one rung: conditioning, then factor residual, then
PSD), and nothing is rerun.  One bundle is the one-rung ladder and one
sandwich the one-point stack.  A rung's phases come from all k
eigenvalues of S, and so does ||S - I|| / 2 = max |ev - 1| / 2, as S is
unitary; the unitarity defect and the identity residual are largest
|eigenvalues| of Hermitian k x k matrices.  The PSD root and those two
norms are the ladder's three Hermitian eigensolves per stack, each
through :mod:`projdiff.linalg`.

Off the channel path, the Birman-Krein relation det S = exp(-2*pi*i*xi)
has one implementation, :func:`birman_krein_extrapolated`, returning
(det S, xi, defect); one smoothing level is its one-rung case
(:func:`birman_krein_check`).  The integer counting shift m0 - m1 is
read off :meth:`projdiff.models.OperatorPair.probe_gaps`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (OracleConvergenceError, ProbeOutsideBandError, ResidualError,
                     SingularSandwichError)
from .linalg import (hermitian_eigh, hermitian_norm, hermitian_part, norm2, residual_within,
                     svd)

__all__ = [
    "ResolventSandwich", "ScatteringBundle", "TransferMatrixResult", "ChannelSMatrix",
    "resolvent_sandwich", "smoothed_density", "scattering_bundle",
    "neville", "phase_ladder", "extrapolated_phases",
    "transfer_matrix_smatrix", "birman_krein_check", "smoothed_counting_shift",
    "birman_krein_extrapolated", "channel_smatrix", "band_edges", "check_eps_ladder",
]

C1_RESIDUAL_TOL = 1e-9
COND_LIMIT = 1e12
PSD_TOL = 1e-12            # relative negative eigenvalue a PSD square root allows
MATCH_RADIUS = 0.75        # largest step of a phase chain between rungs
ORACLE_TOL = 1e-11         # summed local error of the transfer-matrix oracle's cells
ORACLE_MAX_CELLS = 1 << 18  # cells one refinement level of the oracle may hold
TAIL_TOL = 1e-8            # potential at the oracle window's ends
PHASE_FLOOR = 0.1          # least |ev - 1| of a retained eigenvalue of S


# ---------------------------------------------------------------------------
# resolvent sandwiches and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolventSandwich:
    """T0(z) = G (H0-z)^-1 G* and T(z) = G (H-z)^-1 G* with Im z > 0."""

    z: complex
    t0: np.ndarray
    t: np.ndarray
    factor_residual: float   # || T - T0 (I + V0 T0)^-1 ||


def _sandwich_one(pair, which, z):
    """G (A - z)^-1 G* for A = h0 (``which`` = 0) or h (1), at a point z or at
    every point of an array z, stacked as z.shape + (k, k), from a dense
    operator's cached eigensystem or from a band's window system."""
    g, z = pair.g, np.asarray(z)
    if not pair.banded:
        # spectral form (G U) diag(1/(w - z)) (G U)* from the operator's
        # cached eigensystem, so a dense pair pays one eigensolve and no
        # n x n solve; G U is formed once for every point
        e = pair.operators[which].eigensystem
        gu = g @ e.eigenvectors
        return (gu / (e.eigenvalues - z[..., None])[..., None, :]) @ gu.conj().T
    # G reads only the coupling window of the chain, so only the window
    # block of the resolvent is needed: one banded solve of the window
    # system for all of G*, with G applied through its nonzeros
    lo, hi = pair.coupling_window
    window = pair.operators[which].window
    blocks = [g.apply(window(x, lo, hi).solve(g.block.T)) for x in z.ravel()]
    return np.array(blocks).reshape(z.shape + (pair.kdim, pair.kdim))


def _raise_first(checks):
    """Raise the error of the earliest rung flagged by any of ``checks``,
    pairs (flags, error) of a boolean per rung and ``error(r)``, which makes
    rung r's error; at one rung, the check listed first wins."""
    hits = [(int(np.argmax(flags)), i) for i, (flags, _) in enumerate(checks) if np.any(flags)]
    if hits:
        rung, i = min(hits)
        raise checks[i][1](rung)


def _ct(m):
    """The conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _stack_inverse(m):
    """(inverses, check) for a stack of matrices: the check flags each rung
    whose cond_2 exceeds COND_LIMIT, with a :class:`SingularSandwichError`,
    and a flagged rung's inverse is zero.

    The stack is inverted in one call, and each rung accepted at once when
    its bound cond_2 <= ||m||_F ||m^-1||_F is within a factor 100 of the
    limit: the computed inverse has relative error about k * eps * cond,
    far below that margin.  The rungs it cannot accept, or every rung when
    an LU of the stack meets an exact zero pivot, take the exact condition
    number s_max / s_min from :func:`projdiff.linalg.svd` (inf when s_min
    is 0), which decides, and are inverted alone.
    """
    try:
        inverse = np.linalg.inv(m)
        cond = np.linalg.norm(m, axis=(-2, -1)) * np.linalg.norm(inverse, axis=(-2, -1))
    except np.linalg.LinAlgError:
        inverse, cond = np.zeros_like(m), np.full(len(m), np.inf)
    singular = np.zeros(len(m), dtype=bool)
    # the bound is replaced by the exact cond on every rung it cannot accept
    for r in np.flatnonzero(~(cond <= 1e-2 * COND_LIMIT)):
        s = svd(m[r])
        cond[r] = s[0] / s[-1] if s[-1] > 0 else np.inf
        try:
            inverse[r] = np.linalg.inv(m[r])
            singular[r] = cond[r] > COND_LIMIT
        except np.linalg.LinAlgError:
            # an LU that meets an exact zero pivot leaves cond far beyond any limit
            singular[r] = True
    inverse[singular] = 0.0
    return inverse, (singular, lambda r: SingularSandwichError(cond[r]))


def _sandwich_stack(pair, z):
    """(T0, T, factor residuals, checks) at the points of a 1-d array z:
    the checks of :func:`resolvent_sandwich`, conditioning then factor
    residual, each flagging its failing points.  A z not finite or not in
    the upper half plane raises ValueError at once."""
    _raise_first([(~(np.isfinite(z) & (z.imag > 0)),
                   lambda r: ValueError(f"need a finite z with Im z > 0, got {z[r]}"))])
    t0 = _sandwich_one(pair, 0, z)
    t = _sandwich_one(pair, 1, z)
    minv, conditioning = _stack_inverse(np.eye(pair.kdim) + pair.v0 @ t0)
    residual = t - t0 @ minv
    resid = norm2(residual)
    holds, _, tnorm = residual_within(residual, t, C1_RESIDUAL_TOL, floor=1.0)
    bound = C1_RESIDUAL_TOL * np.maximum(1.0, tnorm)
    factor = (~holds, lambda r: ResidualError(
        f"resolvent factor identity residual {resid[r]:.3e}", resid[r], bound[r]))
    return t0, t, resid, [conditioning, factor]


def resolvent_sandwich(pair, z):
    """Both sandwiches at a point in the upper half plane.

    The resolvent identity T = T0 (I + V0 T0)^-1 is verified, with the
    inverse the conditioning check computes, and its residual (2-norm)
    returned; a condition number of I + V0 T0 beyond COND_LIMIT raises
    :class:`SingularSandwichError` (see :func:`_stack_inverse`).  The
    residual must be within C1_RESIDUAL_TOL * max(1, ||T||_2), decided by
    :func:`projdiff.linalg.residual_within`, so ||T||_2 is computed only
    when its cheap bound cannot accept.  This is the one-point case of the
    stack the eps ladder takes (:func:`phase_ladder`).
    """
    z = complex(z)
    t0, t, resid, checks = _sandwich_stack(pair, np.array([z]))
    _raise_first(checks)
    return ResolventSandwich(z, t0[0], t[0], float(resid[0]))


def _imag_part(m):
    return (m - _ct(m)) / 2j


def smoothed_density(pair, probe, eps):
    """Smoothed densities (F0', F') = Im T0(probe+i*eps)/pi, Im T/pi.

    Both are PSD up to roundoff for eps > 0.
    """
    check_eps_ladder([eps])
    sw = resolvent_sandwich(pair, probe + 1j * eps)
    return _imag_part(sw.t0) / np.pi, _imag_part(sw.t) / np.pi


def _psd_sqrt(m):
    """(PSD square roots, check) for a stack of matrices, the roots taken of
    the eigenvalues clipped at 0: the check flags each rung with an
    eigenvalue below -PSD_TOL times its largest |eigenvalue| (or 1)."""
    w, v = hermitian_eigh(m)
    low = np.min(w, axis=-1, initial=0.0)
    bound = PSD_TOL * np.maximum(np.max(abs(w), axis=-1, initial=0.0), 1.0)
    check = (low < -bound, lambda r: ResidualError(
        f"matrix not PSD: min eigenvalue {low[r]:.3e}", -low[r], bound[r]))
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _ct(v), check


def band_edges(phases):
    """(sin(theta/2) descending, a = their max or 0): the edges phases predict."""
    edges = np.sort(np.sin(np.asarray(phases) / 2.0))[::-1]
    return edges, float(edges[0]) if len(edges) else 0.0


def _summary_2x2(smat):
    """(unitarity defect, phases sorted in [0, 2*pi), band edges, a) of a 2 x 2 S."""
    udef = float(hermitian_norm(smat.conj().T @ smat - np.eye(2)))
    phases = np.sort(np.mod(np.angle(np.linalg.eigvals(smat)), 2.0 * np.pi))
    return (udef, phases) + band_edges(phases)


# ---------------------------------------------------------------------------
# stationary scattering matrix and defect operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringBundle:
    """Everything the stationary machinery produces at one (probe, eps)."""

    probe: float
    eps: float
    f0prime: np.ndarray
    fprime: np.ndarray
    smatrix: np.ndarray
    eigenvalues: np.ndarray          # all k of the smoothed stationary matrix
    phases: np.ndarray               # retained, sorted, in (0, 2*pi)
    retention_threshold: float
    unitarity_defect: float
    defect_operator: np.ndarray      # A = pi^2 sqrt(F0') V0 F' V0 sqrt(F0')
    identity_residual: float         # || (S-I)*(S-I)/4 - A ||
    prediction_a: float              # ||S - I|| / 2 = max |ev - 1| / 2 = ||A||^(1/2)
    band_edges: np.ndarray           # sin(theta/2) of retained phases, descending
    factor_residual: float


def scattering_bundle(pair, probe, eps):
    """Assemble the smoothed stationary matrix and defect operator: the
    one-rung case of :func:`phase_ladder`.

    Eigenvalues with |ev - 1| above max(PHASE_FLOOR, 10 * unitarity
    defect) are retained as scattering phases.  The finite-eps identity
    (S-I)*(S-I)/4 = A holds exactly; its residual is reported.  The
    unitarity defect and that residual are 2-norms of Hermitian matrices,
    taken as their largest |eigenvalue|.  S is unitary, hence normal, so
    ||A||^(1/2) = ||S - I|| / 2 is max |ev - 1| / 2 over the eigenvalues
    of S the phases are read from.
    """
    return phase_ladder(pair, probe, [eps])[0]


def _bundle_stack(pair, probe, eps):
    """The bundle at every rung of the 1-d array ``eps``, each k x k step one
    stacked call over the rungs; the first rung to fail a check, in ladder
    order, raises its error."""
    t0, t, resid, checks = _sandwich_stack(pair, probe + 1j * eps)
    f0p, fp = _imag_part(t0) / np.pi, _imag_part(t) / np.pi
    root, psd = _psd_sqrt(f0p)
    _raise_first(checks + [psd])
    v0 = pair.v0
    eye = np.eye(pair.kdim)
    smat = eye - 2j * np.pi * root @ (v0 - v0 @ t @ v0) @ root
    udef = hermitian_norm(_ct(smat) @ smat - eye)
    thr = np.maximum(PHASE_FLOOR, 10.0 * udef)
    diff = smat - eye
    evs = np.linalg.eigvals(smat)
    amat = hermitian_part(np.pi ** 2 * root @ v0 @ fp @ v0 @ root)
    # the defect identity (S-I)*(S-I)/4 = A
    ident = hermitian_norm(0.25 * _ct(diff) @ diff - amat)
    # S is unitary, hence normal, so ||S - I|| is its largest |ev - 1|
    dist = np.abs(evs - 1.0)
    a_pred = 0.5 * np.max(dist, axis=-1, initial=0.0)
    bundles = []
    for r, e in enumerate(eps):
        kept = evs[r][dist[r] > thr[r]]
        phases = np.sort(np.mod(np.angle(kept), 2.0 * np.pi))
        bundles.append(ScatteringBundle(
            float(probe), float(e), f0p[r], fp[r], smat[r], evs[r], phases, float(thr[r]),
            float(udef[r]), amat[r], float(ident[r]), float(a_pred[r]),
            band_edges(phases)[0], float(resid[r])))
    return bundles


# ---------------------------------------------------------------------------
# epsilon ladder
# ---------------------------------------------------------------------------

def neville(eps_values, samples):
    """Polynomial extrapolation of samples(eps) to eps = 0.

    The samples may be arrays of one shape, extrapolated entrywise at once.
    """
    v = np.array(samples, dtype=complex)
    e = np.asarray(eps_values, dtype=float).reshape((-1,) + (1,) * (v.ndim - 1))
    if len(e) != len(v) or len(e) < 1:
        raise ValueError("need matching nonempty eps/sample sequences")
    rungs = np.sort(e.ravel())
    if np.any(rungs[1:] == rungs[:-1]):
        raise ValueError("need distinct eps values")
    m = len(e)
    for j in range(1, m):
        v[: m - j] = (e[: m - j] * v[1: m - j + 1] - e[j:] * v[: m - j]) \
            / (e[: m - j] - e[j:])
    out = v[0]
    return out.real if np.isrealobj(np.asarray(samples)) else out


def check_eps_ladder(eps_ladder):
    """The ladder as a list, or ValueError unless it is nonempty, strictly
    decreasing, positive and finite (a NaN rung fails one of the middle two)."""
    ladder = list(eps_ladder)
    if not ladder:
        raise ValueError("eps ladder is empty")
    if any(not b < a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if not ladder[-1] > 0:
        raise ValueError("need eps > 0")
    if not np.isfinite(ladder[0]):
        raise ValueError(f"eps ladder must be finite, got {ladder[0]}")
    return ladder


def phase_ladder(pair, probe, eps_ladder):
    """The bundle at every rung of an eps ladder (see :func:`check_eps_ladder`).

    All rungs are computed at once: T0 and T as (R, k, k) stacks from G U
    formed once per operator (or one window solve per rung for a band
    pair), then one stacked call per k x k step.  Every rung's checks are
    those of :func:`resolvent_sandwich` and :func:`scattering_bundle`; each
    check flags its failing rungs in the same pass, and the first flagged
    rung, in ladder order, raises its error, with no rung computed twice.
    """
    return _bundle_stack(pair, probe, np.asarray(check_eps_ladder(eps_ladder), dtype=float))


def _match_chains(bundles):
    """Track retained eigenvalues across rungs by nearest-neighbor matching
    within MATCH_RADIUS."""
    chains = [[complex(np.exp(1j * th))] for th in bundles[0].phases]
    for b in bundles[1:]:
        pool = list(np.exp(1j * b.phases))
        for chain in chains:
            d = [abs(chain[-1] - c) for c in pool] if chain else []
            if d and min(d) <= MATCH_RADIUS:
                chain.append(pool.pop(int(np.argmin(d))))
            else:
                chain.clear()
    return [c for c in chains if len(c) == len(bundles)]


def extrapolated_phases(pair, probe, eps_ladder):
    """Retained phases extrapolated to eps = 0 along matched chains.

    Only chains present at every rung are extrapolated.  Returns
    (phases ascending, bundles).
    """
    bundles = phase_ladder(pair, probe, eps_ladder)
    ladder = [b.eps for b in bundles]
    out = [float(np.mod(neville(ladder, np.unwrap(np.angle(chain))), 2.0 * np.pi))
           for chain in _match_chains(bundles)]
    return np.sort(np.asarray(out)), bundles


# ---------------------------------------------------------------------------
# eps = 0 on the lattice: open leads and the two-channel S-matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSMatrix:
    """The stationary scattering matrix of a band pair at eps = 0.

    ``smatrix`` is 2 x 2 in the channels of the leads at the lo and hi
    ends of the coupling window; ``band`` is the open band of the leads.
    """

    probe: float
    band: tuple
    smatrix: np.ndarray
    phases: np.ndarray               # both, sorted, in [0, 2*pi)
    unitarity_defect: float
    a: float                         # max sin(theta/2)
    band_edges: np.ndarray           # sin(theta/2), descending
    counting_shift: float            # xi(probe) from the window pivots
    det_s: complex
    birman_krein_defect: float       # |det S - exp(-2*pi*i*xi)|


def _uniform_lead(pair, lo, hi):
    """(d, t): the diagonal and hopping magnitude of H0's chain outside the
    coupling window [lo, hi), which must be exactly uniform.  H equals H0
    there, as G vanishes off the window."""
    n = pair.dim
    if pair.kdim and (lo < 1 or hi > n - 1):
        raise ValueError(f"coupling window [{lo}, {hi}) reaches an end of the chain "
                         f"0..{n - 1}; no lead to attach")
    b = pair.operators[0]
    d, t = b.diagonal[0], b.offdiagonal[0]
    sites = np.r_[0:lo, hi:n]
    # link i joins sites i, i + 1; named by its end away from the window (all when k = 0)
    left, right = np.arange(lo), np.arange(max(hi - 1, 0), n - 1)
    bad = np.concatenate([sites[b.diagonal[sites] != d], left[b.offdiagonal[left] != t],
                          right[b.offdiagonal[right] != t] + 1])
    if bad.size:
        raise ValueError(f"H0 is not uniform outside the coupling window [{lo}, {hi}): "
                         f"first differs at site {int(bad.min())}")
    return float(d), abs(float(t))


def _real_times(m, x):
    """m @ x for a real m and complex x, without the complex k x k copy
    numpy makes of m."""
    return m @ x.real + 1j * (m @ x.imag)


def channel_smatrix(pair, probe):
    """S(probe) at eps = 0 for a band pair on the whole lattice (Fisher-Lee).

    The chain outside the coupling window [lo, hi) of a band pair must be
    uniform, with diagonal d and hopping t; it becomes two semi-infinite
    leads, whose retarded corner at probe = lam inside the open band
    (d - 2|t|, d + 2|t|) is

        c = ((d - lam) + i sqrt(4 t^2 - (d - lam)^2)) / (2 t^2).

    The window systems A_j = W_j - lam - t^2 c (e_lo e_lo^T + e_hi e_hi^T)
    of H0 and H (:meth:`projdiff.linalg.TridiagonalBands.window`) then give
    T0(lam + i0) and T(lam + i0) exactly, and F0' = X X* / pi with the
    k x 2 matrix X = G A0^-1 [e_lo, e_hi] |t| sqrt(Im c).  On the range of
    F0' the stationary formula is the 2 x 2

        S = I - 2i X* (V0 X - V0 G A1^-1 G* V0 X):

    two banded window solves with two right-hand sides each, with G
    applied through its nonzeros.  The spectral shift is
    xi = (1/pi) arg det(I + V0 T0(lam + i0)) = (1/pi) arg(det A1 / det A0).
    At lam + i0, as at every lam + i*y with y > 0, each LDL^T pivot of A0
    and A1 lies in the open lower half plane (the first one does, and
    p_(i+1) = d_(i+1) - e_i^2 / p_i keeps it there for e_i != 0), so the
    sum of pivot arguments is the branch continuous from 0 at lam + i*inf.
    A pair without coupling (k = 0) has S = I and xi = 0; its chain is lead.

    Raises ValueError for a dense pair and for a chain that is not
    uniform outside the window (naming the first offending site), and
    :class:`ProbeOutsideBandError` for a probe outside the open band.
    """
    if not pair.banded:
        raise ValueError("the channel S-matrix needs a band pair")
    lo, hi = pair.coupling_window
    d, t = _uniform_lead(pair, lo, hi)
    band = (d - 2.0 * t, d + 2.0 * t)
    if not band[0] < probe < band[1]:
        raise ProbeOutsideBandError(probe, band)
    smat, xi = _channel_core(pair, probe, lo, hi, d, t) if pair.kdim \
        else (np.eye(2, dtype=complex), 0.0)
    udef, phases, edges, a = _summary_2x2(smat)
    det_s = complex(np.linalg.det(smat))
    return ChannelSMatrix(float(probe), band, smat, phases, udef, a, edges,
                          xi, det_s, float(abs(det_s - np.exp(-2j * np.pi * xi))))


def _channel_core(pair, probe, lo, hi, d, t):
    """(S, xi) of :func:`channel_smatrix` from the two window systems."""
    c = ((d - probe) + 1j * np.sqrt(4.0 * t * t - (d - probe) ** 2)) / (2.0 * t * t)
    a0, a1 = (b.window(probe, lo, hi, (c, c)) for b in pair.operators)
    ends = np.zeros((hi - lo, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    g = pair.g
    x = g.apply(a0.solve(ends)) * (t * np.sqrt(c.imag))
    vx = _real_times(pair.v0, x)
    tvx = g.apply(a1.solve(_real_times(g.block.T, vx)))
    smat = np.eye(2) - 2j * x.conj().T @ (vx - _real_times(pair.v0, tvx))
    p0, p1 = a0.pivots(), a1.pivots()
    top = np.max(np.r_[p0.imag, p1.imag])
    if not top < 0:
        raise ResidualError("a window pivot left the lower half plane", top, 0.0)
    return smat, float((np.sum(np.angle(p1)) - np.sum(np.angle(p0))) / np.pi)


# ---------------------------------------------------------------------------
# transfer-matrix oracle (1-d Schrodinger)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferMatrixResult:
    """Plane-wave scattering data at energy probe = k^2.

    ``smatrix`` is [[t, r'], [r, t']] in the (left-in, right-in) channel
    basis; ``fiber_trace`` is the trace of the fiber density F0'(probe)
    = integral of |V| / (2*pi*k).  Every Magnus cell has determinant 1, so
    the flux and unitarity defects show roundoff only; ``integration_error``
    is the summed local error estimate of the cells (see
    :func:`transfer_matrix_smatrix`).
    """

    k: float
    r: complex
    t: complex
    smatrix: np.ndarray
    phases: np.ndarray
    a: float                         # max sin(theta/2)
    band_edges: np.ndarray           # sin(theta/2), descending
    flux_defect: float
    unitarity_defect: float
    fiber_trace: float
    integration_error: float


# sample points of a cell [x, x + w] in units of w: the two Gauss nodes of
# the cell, those of its left and its right half, and Simpson's three
_GAUSS = np.sqrt(3.0) / 6.0
_SAMPLES = np.array([0.5 - _GAUSS, 0.5 + _GAUSS,
                     0.25 - 0.5 * _GAUSS, 0.25 + 0.5 * _GAUSS,
                     0.75 - 0.5 * _GAUSS, 0.75 + 0.5 * _GAUSS, 0.0, 0.5, 1.0])[:, None]


def _magnus_cells(q1, q2, w):
    """exp(Omega) - I for cells of width w, with q = V - probe at their Gauss nodes.

    The 4th-order Magnus generator of y' = [[0, 1], [q, 0]] y is
    Omega = [[al, w], [ga, -al]], al = sqrt(3) w^2 (q1 - q2) / 12,
    ga = w (q1 + q2) / 2.  It is traceless, so with s^2 = al^2 + w ga,
    exp(Omega) = cosh(s) I + sinh(s)/s Omega, taken for either sign of s^2
    in real arithmetic, with cosh(s) - 1 = 2 sinh(s/2)^2 so that the result
    minus I keeps its relative accuracy on a narrow cell.
    """
    al = (np.sqrt(3.0) / 12.0) * w * w * (q1 - q2)
    ga = 0.5 * w * (q1 + q2)
    s2 = al * al + w * ga
    s = np.sqrt(np.abs(s2))
    grow = s2 > 0
    sh, cm1 = np.sin(s), -2.0 * np.sin(0.5 * s) ** 2
    sh[grow], cm1[grow] = np.sinh(s[grow]), 2.0 * np.sinh(0.5 * s[grow]) ** 2
    shs = np.divide(sh, s, out=np.ones_like(s), where=s > 0)
    out = np.empty(w.shape + (2, 2))
    out[:, 0, 0] = cm1 + shs * al
    out[:, 0, 1] = shs * w
    out[:, 1, 0] = shs * ga
    out[:, 1, 1] = cm1 - shs * al
    return out


def _fundamental_matrix(potential, probe, x_edge, cells):
    """(Phi(X), summed local error) for u'' = (V - probe) u, Phi(-X) = I.

    Cells are halved level by level from ``cells`` equal cells of [-X, X],
    every cell of a level at once.  A cell's local error is the gap between
    its Magnus step and the product of its two halves' steps (2 x 2 max norm),
    plus the gap |Simpson - Gauss| between two quadratures of the integral
    of q over it, which sees a jump of V that falls between the Gauss nodes.
    A cell is accepted, as the product of its halves, once its local error
    is at most its share w/2X of ORACLE_TOL.  At a jump both gaps are first
    order in w, as is the error itself, so no width meets a share
    proportional to w there; such a cell is accepted instead once it is
    narrow enough that the bound 2 w max(1, |q|) on the increments of its
    exact and its computed propagator is at most tol/2X, the share of a
    unit length, and that bound counts as its local error.  Cells that
    reach the width floor (two spacings of the float x) or a level with
    more than ORACLE_MAX_CELLS cells unaccepted raise
    :class:`OracleConvergenceError`.  The accepted cells are multiplied in
    a pairwise tree, in order of x.
    """
    share = ORACLE_TOL / (2.0 * x_edge)
    width = np.full(cells, 2.0 * x_edge / cells)
    start = -x_edge + width * np.arange(cells)
    kept_start, kept_step, error = [], [], 0.0
    while start.size:
        q = potential(start + _SAMPLES * width) - probe
        half = 0.5 * width
        full = _magnus_cells(q[0], q[1], width)
        left, right = _magnus_cells(q[2], q[3], half), _magnus_cells(q[4], q[5], half)
        step = left + right + right @ left            # (I + right)(I + left) - I
        gap = width * np.abs((q[6] + 4.0 * q[7] + q[8]) / 6.0 - 0.5 * (q[0] + q[1]))
        local = np.max(np.abs(full - step), axis=(1, 2)) + gap
        bound = 2.0 * width * np.maximum(1.0, np.max(np.abs(q), axis=0))
        fine, narrow = local <= share * width, bound <= share
        done = fine | narrow
        error += float(np.sum(np.where(fine, local, bound)[done]))
        kept_start.append(start[done])
        kept_step.append(step[done])
        start, width, local = start[~done], width[~done], local[~done]
        limit = ("cell-width floor" if np.any(width <= 2.0 * np.spacing(np.abs(start) + width))
                 else "level cap" if 2 * start.size > ORACLE_MAX_CELLS else None)
        if limit:
            raise OracleConvergenceError(np.sum(local), share * np.sum(width), limit)
        start, width = np.concatenate([start, start + 0.5 * width]), np.tile(0.5 * width, 2)
    order = np.argsort(np.concatenate(kept_start))
    prod = np.concatenate(kept_step)[order] + np.eye(2)
    while len(prod) > 1:
        pairs = prod[1::2] @ prod[0:len(prod) - 1:2]
        prod = np.concatenate([pairs, prod[-1:]]) if len(prod) % 2 else pairs
    return prod[0], error


def transfer_matrix_smatrix(spec, probe):
    """Stationary 2x2 scattering matrix by integrating -u'' + V u = probe*u.

    The real fundamental system Phi, Phi(-X) = I, comes from a product of
    4th-order Magnus cells (Blanes, Casas, Oteo and Ros, Phys. Rep. 470,
    2009), each the closed-form exponential of its generator.  The cells
    start as the n + 1 cells of the spec's grid, the resolution it declares
    for V, so that no feature of V hides between the samples of a coarse
    cell, and are refined until the summed local error estimate, reported
    as ``integration_error``, is about ORACLE_TOL (see
    :func:`_fundamental_matrix`).  In plane-wave
    coordinates the transfer matrix is M = W(X)^-1 Phi(X) W(-X), with W(x)
    the (u, u') columns of exp(+-ikx); matching gives r = -M21/M22,
    t = det M / M22, t' = 1/M22 and r' = M12/M22.  Requires probe > 0 and
    a potential, evaluated on arrays, decayed to TAIL_TOL at the window's
    ends; a non-finite sample of it raises ValueError naming its x, and
    :class:`OracleConvergenceError` is raised when the cells cannot meet
    their error target.
    """
    if not 0 < probe < np.inf:
        raise ValueError(f"need a finite probe > 0, got {probe}")
    x_edge = spec.half_width
    tail = float(np.max(np.abs(spec.samples(np.array([-x_edge, x_edge])))))
    if tail > TAIL_TOL:
        raise ValueError(f"potential tail {tail:.2e} not decayed at |x| = {x_edge}")
    k = float(np.sqrt(probe))

    def waves(x):
        e = np.exp(1j * k * x)
        return np.array([[e, 1.0 / e], [1j * k * e, -1j * k / e]])

    phi, error = _fundamental_matrix(spec.samples, float(probe), float(x_edge),
                                     spec.n + 1)
    m = np.linalg.solve(waves(x_edge), phi @ waves(-x_edge))
    r, t = -m[1, 0] / m[1, 1], np.linalg.det(m) / m[1, 1]
    smat = np.array([[t, m[0, 1] / m[1, 1]], [r, 1.0 / m[1, 1]]])
    flux = abs(abs(r) ** 2 + abs(t) ** 2 - 1.0)
    udef, phases, edges, a = _summary_2x2(smat)
    xs = np.linspace(-x_edge, x_edge, 20001)
    vtrace = float(np.trapezoid(np.abs(spec.samples(xs)), xs) / (2.0 * np.pi * k))
    return TransferMatrixResult(k, r, t, smat, phases, a, edges, flux, udef, vtrace, error)


# ---------------------------------------------------------------------------
# counting shift and the Birman-Krein relation
# ---------------------------------------------------------------------------

def smoothed_counting_shift(pair, probe, eps):
    """Eigenvalue-counting shift trace(E0 - E) smoothed at scale eps.

    Each sharp step 1[eigenvalue < probe] gives way to the Lorentzian
    step 1/2 + arctan((probe - eigenvalue)/eps)/pi; at eps -> 0 this
    recovers the integer -trace D(probe) = m0 - m1 of
    :meth:`projdiff.models.OperatorPair.probe_gaps`, while for eps
    above the local level spacing it resolves the weak (distributional)
    limit of the counting shift.  A probe that is not finite, or an eps
    that is not finite and positive (see :func:`check_eps_ladder`), raises
    ValueError.
    """
    if not np.isfinite(probe):
        raise ValueError(f"probe {probe} is not finite")
    check_eps_ladder([eps])
    w0, w1 = pair.eigenvalues
    step = lambda w: 0.5 + np.arctan((probe - w) / eps) / np.pi
    return float(np.sum(step(w0)) - np.sum(step(w1)))


def birman_krein_check(pair, probe, eps):
    """det S versus exp(-2*pi*i*xi) at one smoothing level: (det S, xi, defect).

    The one-rung case of :func:`birman_krein_extrapolated`: det S is the
    product of the retained phases of S_eps, and xi the smoothed counting
    shift at the same eps.  The probe must keep its gap to both spectra.
    """
    pair.probe_gaps(probe)
    phases = scattering_bundle(pair, probe, eps).phases
    return birman_krein_extrapolated(pair, probe, phases, [eps])


def birman_krein_extrapolated(pair, probe, phases, xi_ladder):
    """Ladder-extrapolated (det S, xi, defect).

    ``phases`` are the extrapolated phases from :func:`extrapolated_phases`;
    the smoothed counting shift is extrapolated separately along
    ``xi_ladder``, which must stay in the regime eps > local level spacing,
    where the smoothed shift tracks its continuum limit, and meets the
    contract of :func:`check_eps_ladder`.
    """
    ladder = check_eps_ladder(xi_ladder)
    det_s = complex(np.exp(1j * np.sum(phases)))
    xi = float(neville(ladder, [smoothed_counting_shift(pair, probe, e) for e in ladder]))
    return det_s, xi, float(abs(det_s - np.exp(-2j * np.pi * xi)))
