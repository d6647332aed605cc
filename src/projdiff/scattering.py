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

The transfer-matrix oracle shares neither path: one integration of the
continuum fundamental system gives S for both incidence sides.  Channel,
ladder and oracle map phases to band edges through :func:`band_edges`.

The sandwiches G (A - z)^-1 G* of a dense pair come from its cached
eigensystems, (G U) diag(1/(w - z)) (G U)*.  A band pair is real
symmetric, with real G and V0, and its sandwiches need only the block of
the resolvent on the coupling window, the columns where G is nonzero:
the chain outside it enters through two scalar boundary self-energies (a
Schur complement), and the window system is solved once for all of
G^T = G*.

A rung's phases come from all k eigenvalues of S; ||A||, the unitarity
defect and the identity residual are largest |eigenvalues| of Hermitian
k x k matrices ((S-I)*(S-I)/4 among them).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ProbeOutsideBandError, SingularSandwichError
from .linalg import probe_gaps

__all__ = [
    "ResolventSandwich", "ScatteringBundle", "TransferMatrixResult", "ChannelSMatrix",
    "resolvent_sandwich", "smoothed_density", "scattering_bundle",
    "neville", "phase_ladder", "extrapolated_phases",
    "transfer_matrix_smatrix", "birman_krein_check", "smoothed_counting_shift",
    "birman_krein_extrapolated", "channel_smatrix", "band_edges",
]

C1_RESIDUAL_TOL = 1e-9
COND_LIMIT = 1e12
PSD_TOL = 1e-12            # relative negative eigenvalue a PSD square root allows
MATCH_RADIUS = 0.75        # largest step of a phase chain between rungs
ORACLE_RTOL = 1e-11        # integration of the transfer-matrix oracle
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
    """G (A - z)^-1 G* for A = h0 (``which`` = 0) or h (1)."""
    g = pair.g
    if not pair.banded:
        # spectral form (G U) diag(1/(w - z)) (G U)* from the pair's cached
        # eigensystem, so a dense pair pays one eigensolve and no n x n solve
        e = pair.eigensystems()[which]
        gu = g @ e.eigenvectors
        return (gu / (e.eigenvalues - z)) @ gu.conj().T
    # G reads only the coupling window of the chain, so only the window
    # block of the resolvent is needed: one banded solve of the window
    # system for all of G*, with G applied through its nonzeros
    lo, hi = pair.coupling_window
    gw = g[:, lo:hi]
    return gw @ pair.operators[which].window(z, lo, hi).solve(gw.T.toarray())


def _check_conditioning(m):
    """The inverse of m; :class:`SingularSandwichError` when cond_2(m)
    exceeds COND_LIMIT.

    Fast accept: cond_2(m) <= ||m||_F ||m^-1||_F.  The computed inverse has
    relative error about k * eps * cond, far below the factor 100 margin,
    so inputs within that factor of the limit (and singular ones) go to
    the exact SVD condition number, which decides.  The inverse is numpy's
    rather than scipy's: scipy's LAPACK runs on a second BLAS thread pool,
    and alternating the two pools slowed the calls on either side of the
    switch several-fold.
    """
    try:
        inverse = np.linalg.inv(m)
        bound = np.linalg.norm(m) * np.linalg.norm(inverse)
    except np.linalg.LinAlgError:
        inverse, bound = None, np.inf
    if not bound <= 1e-2 * COND_LIMIT:
        cond = np.linalg.cond(m)
        # an LU that meets an exact zero pivot leaves cond far beyond any limit
        if cond > COND_LIMIT or inverse is None:
            raise SingularSandwichError(cond)
    return inverse


def resolvent_sandwich(pair, z):
    """Both sandwiches at a point in the upper half plane.

    The resolvent identity T = T0 (I + V0 T0)^-1 is verified, with the
    inverse the conditioning check computes, and its residual (2-norm)
    returned; a condition number of I + V0 T0 beyond COND_LIMIT raises
    :class:`SingularSandwichError` (see :func:`_check_conditioning`).  The
    residual passes at once when it is below the tolerance scaled by the
    largest column norm of T, a lower bound on ||T||_2, which is computed
    only when that test fails.
    """
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("need Im z > 0")
    t0 = _sandwich_one(pair, 0, z)
    t = _sandwich_one(pair, 1, z)
    minv = _check_conditioning(np.eye(pair.kdim) + pair.v0 @ t0)
    resid = float(np.linalg.norm(t - t0 @ minv, 2))
    colmax = np.max(np.linalg.norm(t, axis=0), initial=0.0)
    if (resid > C1_RESIDUAL_TOL * max(1.0, (1.0 - 1e-8) * colmax)
            and resid > C1_RESIDUAL_TOL * max(1.0, np.linalg.norm(t, 2))):
        raise ArithmeticError(f"resolvent factor identity residual {resid:.3e}")
    return ResolventSandwich(z, t0, t, resid)


def _imag_part(m):
    return (m - m.conj().T) / 2j


def smoothed_density(pair, probe, eps):
    """Smoothed densities (F0', F') = Im T0(probe+i*eps)/pi, Im T/pi.

    Both are PSD up to roundoff for eps > 0.
    """
    if eps <= 0:
        raise ValueError("need eps > 0")
    sw = resolvent_sandwich(pair, probe + 1j * eps)
    return _imag_part(sw.t0) / np.pi, _imag_part(sw.t) / np.pi


def _psd_sqrt(m):
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    low = np.min(w, initial=0.0)
    if low < -PSD_TOL * max(np.max(abs(w), initial=0.0), 1.0):
        raise ArithmeticError(f"matrix not PSD: min eigenvalue {low:.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def band_edges(phases):
    """(sin(theta/2) descending, a = their max or 0): the edges phases predict."""
    edges = np.sort(np.sin(np.asarray(phases) / 2.0))[::-1]
    return edges, float(edges[0]) if len(edges) else 0.0


def _summary_2x2(smat):
    """(unitarity defect, phases sorted in [0, 2*pi), band edges, a) of a 2 x 2 S."""
    udef = float(np.linalg.norm(smat.conj().T @ smat - np.eye(2), 2))
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
    prediction_a: float              # ||A||^(1/2) = ||S - I|| / 2
    band_edges: np.ndarray           # sin(theta/2) of retained phases, descending
    factor_residual: float


def _hermitian_norm(m):
    """2-norm of the Hermitian part of ``m``: its largest |eigenvalue|."""
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(np.max(abs(w), initial=0.0))


def scattering_bundle(pair, probe, eps):
    """Assemble the smoothed stationary matrix and defect operator.

    Eigenvalues with |ev - 1| above max(PHASE_FLOOR, 10 * unitarity
    defect) are retained as scattering phases.  The finite-eps identity
    (S-I)*(S-I)/4 = A holds exactly; its residual is reported.  The
    unitarity defect and that residual are 2-norms of Hermitian matrices,
    taken as their largest |eigenvalue|; ||A||^(1/2) = ||S - I|| / 2 is
    the square root of the largest eigenvalue of (S-I)*(S-I)/4.
    """
    sw = resolvent_sandwich(pair, probe + 1j * eps)
    f0p, fp = _imag_part(sw.t0) / np.pi, _imag_part(sw.t) / np.pi
    root = _psd_sqrt(f0p)
    v0 = pair.v0
    core = v0 - v0 @ sw.t @ v0
    eye = np.eye(pair.kdim)
    smat = eye - 2j * np.pi * root @ core @ root
    udef = _hermitian_norm(smat.conj().T @ smat - eye)
    thr = max(PHASE_FLOOR, 10.0 * udef)
    diff = smat - eye
    defect = 0.25 * diff.conj().T @ diff
    evs = np.linalg.eigvals(smat)
    kept = evs[np.abs(evs - 1.0) > thr]
    phases = np.sort(np.mod(np.angle(kept), 2.0 * np.pi))
    amat = np.pi ** 2 * root @ v0 @ fp @ v0 @ root
    amat = 0.5 * (amat + amat.conj().T)
    ident = _hermitian_norm(defect - amat)
    a_pred = float(np.sqrt(np.max(np.linalg.eigvalsh(defect), initial=0.0)))
    return ScatteringBundle(float(probe), float(eps), f0p, fp, smat, evs, phases,
                            thr, udef, amat, ident, a_pred, band_edges(phases)[0],
                            sw.factor_residual)


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
    m = len(e)
    for j in range(1, m):
        v[: m - j] = (e[: m - j] * v[1: m - j + 1] - e[j:] * v[: m - j]) \
            / (e[: m - j] - e[j:])
    out = v[0]
    return out.real if np.isrealobj(np.asarray(samples)) else out


def phase_ladder(pair, probe, eps_ladder):
    """The bundle at every rung of a nonempty, strictly decreasing eps ladder."""
    ladder = list(eps_ladder)
    if not ladder:
        raise ValueError("eps ladder is empty")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    return [scattering_bundle(pair, probe, e) for e in ladder]


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
    gw = pair.g[:, lo:hi]
    x = gw @ a0.solve(ends) * (t * np.sqrt(c.imag))
    vx = _real_times(pair.v0, x)
    tvx = gw @ a1.solve(gw.T @ vx)
    smat = np.eye(2) - 2j * x.conj().T @ (vx - _real_times(pair.v0, tvx))
    p0, p1 = a0.pivots(), a1.pivots()
    if not (np.all(p0.imag < 0) and np.all(p1.imag < 0)):
        raise ArithmeticError("a window pivot left the lower half plane")
    return smat, float((np.sum(np.angle(p1)) - np.sum(np.angle(p0))) / np.pi)


# ---------------------------------------------------------------------------
# transfer-matrix oracle (1-d Schrodinger)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferMatrixResult:
    """Plane-wave scattering data at energy probe = k^2.

    ``smatrix`` is [[t, r'], [r, t']] in the (left-in, right-in) channel
    basis; ``fiber_trace`` is the trace of the fiber density F0'(probe)
    = integral of |V| / (2*pi*k).
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


def transfer_matrix_smatrix(spec, probe):
    """Stationary 2x2 scattering matrix by integrating -u'' + V u = probe*u.

    One DOP853 integration (relative tolerance ORACLE_RTOL) of the real
    fundamental system Phi, Phi(-X) = I, gives the transfer matrix in
    plane-wave coordinates, M = W(X)^-1 Phi(X) W(-X) with W(x) the (u, u')
    columns of exp(+-ikx); matching gives r = -M21/M22, t = det M / M22,
    t' = 1/M22 and r' = M12/M22.  det M = 1 is not substituted, so the
    unitarity and flux defects measure the integration error.  Requires
    probe > 0 and a potential decayed to TAIL_TOL at the window's ends.
    """
    if probe <= 0:
        raise ValueError("need probe > 0")
    x_edge = spec.half_width
    tail = max(abs(float(spec.potential(np.asarray(x_edge)))),
               abs(float(spec.potential(np.asarray(-x_edge)))))
    if tail > TAIL_TOL:
        raise ValueError(f"potential tail {tail:.2e} not decayed at |x| = {x_edge}")
    k = float(np.sqrt(probe))

    def rhs(x, y):
        # y = (u1, u2, u1', u2'): two real solutions of u'' = (V - probe) u
        q = float(spec.potential(np.asarray(x))) - probe
        return [y[2], y[3], q * y[0], q * y[1]]

    def waves(x):
        e = np.exp(1j * k * x)
        return np.array([[e, 1.0 / e], [1j * k * e, -1j * k / e]])

    from scipy.integrate import solve_ivp   # only this oracle needs it; import lazily
    sol = solve_ivp(rhs, [-x_edge, x_edge], [1.0, 0.0, 0.0, 1.0],
                    rtol=ORACLE_RTOL, atol=ORACLE_RTOL * 1e-2, method="DOP853")
    if not sol.success:
        raise ArithmeticError(f"transfer-matrix integration failed: {sol.message}")
    m = np.linalg.solve(waves(x_edge), sol.y[:, -1].reshape(2, 2) @ waves(-x_edge))
    r, t = -m[1, 0] / m[1, 1], np.linalg.det(m) / m[1, 1]
    smat = np.array([[t, m[0, 1] / m[1, 1]], [r, 1.0 / m[1, 1]]])
    flux = abs(abs(r) ** 2 + abs(t) ** 2 - 1.0)
    udef, phases, edges, a = _summary_2x2(smat)
    xs = np.linspace(-x_edge, x_edge, 20001)
    vtrace = float(np.trapezoid(np.abs(spec.potential(xs)), xs) / (2.0 * np.pi * k))
    return TransferMatrixResult(k, r, t, smat, phases, a, edges, flux, udef, vtrace)


# ---------------------------------------------------------------------------
# counting shift and the Birman-Krein relation
# ---------------------------------------------------------------------------

def smoothed_counting_shift(pair, probe, eps):
    """Eigenvalue-counting shift trace(E0 - E) smoothed at scale eps.

    Each sharp step 1[eigenvalue < probe] gives way to the Lorentzian
    step 1/2 + arctan((probe - eigenvalue)/eps)/pi; at eps -> 0 this
    recovers the integer -trace D(probe), while for eps above the local
    level spacing it resolves the weak (distributional) limit of the
    counting shift.
    """
    w0, w1 = pair.eigenvalues
    step = lambda w: 0.5 + np.arctan((probe - w) / eps) / np.pi
    return float(np.sum(step(w0)) - np.sum(step(w1)))


def integer_counting_shift(pair, probe):
    w0, w1 = pair.eigenvalues
    return int(np.sum(w0 < probe) - np.sum(w1 < probe))


@dataclass(frozen=True)
class BirmanKreinResult:
    det_s: complex
    counting_shift: float
    defect: float
    eps: float


def birman_krein_check(pair, probe, eps):
    """det S versus exp(-2*pi*i*xi) at one smoothing level.

    det S is the product of retained stationary phases; xi is the
    smoothed counting shift at the same eps.
    """
    probe_gaps(probe, pair.eigenvalues)
    bundle = scattering_bundle(pair, probe, eps)
    det_s = complex(np.exp(1j * np.sum(bundle.phases)))
    xi = smoothed_counting_shift(pair, probe, eps)
    defect = abs(det_s - np.exp(-2j * np.pi * xi))
    return BirmanKreinResult(det_s, xi, float(defect), float(eps))


def birman_krein_extrapolated(pair, probe, phases, xi_ladder):
    """Ladder-extrapolated (det S, xi, defect).

    ``phases`` are the extrapolated phases from :func:`extrapolated_phases`;
    the smoothed counting shift is extrapolated separately along
    ``xi_ladder``, which must stay in the regime eps > local level spacing,
    where the smoothed shift tracks its continuum limit.
    """
    det_s = complex(np.exp(1j * np.sum(phases)))
    ladder = list(xi_ladder)
    xi = float(neville(ladder, [smoothed_counting_shift(pair, probe, e) for e in ladder]))
    return det_s, xi, float(abs(det_s - np.exp(-2j * np.pi * xi)))
