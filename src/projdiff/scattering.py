"""Resolvent sandwiches, smoothed spectral densities, the stationary
scattering matrix, its defect operator, and an independent transfer-matrix
oracle for 1-d Schrodinger pairs.

Limits onto the real axis are realized as an epsilon ladder: every
quantity is computed at z = probe + i*eps for a decreasing sequence of
eps and scalar outputs are Neville-extrapolated to eps = 0.  A pleasant
exact fact keeps the ladder honest: the smoothed stationary matrix

    S_eps = I - 2*pi*i * sqrt(F0') (V0 - V0 T(probe+i*eps) V0) sqrt(F0')

is exactly unitary at every eps > 0 (same algebra as the defect-operator
identity), so its eigenvalues always live on the unit circle and only
their phases move with eps.

The sandwiches G (A - z)^-1 G* of a dense pair come from its cached
eigensystems, (G U) diag(1/(w - z)) (G U)*.  Those of a band-stored pair
need only the block of the resolvent on the coupling window, the columns
where G is nonzero: the chain outside it enters through two scalar
boundary self-energies (a Schur complement), and the window system is
solved once for all of G*.

Each rung needs only Hermitian k x k kernels besides its sandwich.  S is
unitary, hence normal, and (S-I)*(S-I)/4 is a function of S, so one
eigensolve of that defect operator gives ||A|| and an S-invariant
subspace holding every eigenvalue of S far enough from 1 to be retained;
the phases are those of S compressed to it (a few dimensions), with the
eigenvalues of the whole S as the fallback when the subspace is not
invariant to roundoff.  The unitarity defect and the identity residual
are 2-norms of Hermitian matrices, taken as largest |eigenvalues|.  A
ladder keeps each rung's scalars and phases, not its k x k matrices.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularSandwichError
from .linalg import probe_gaps

__all__ = [
    "ResolventSandwich", "ScatteringBundle", "TransferMatrixResult",
    "resolvent_sandwich", "smoothed_density", "scattering_bundle",
    "neville", "phase_ladder", "extrapolated_phases",
    "transfer_matrix_smatrix", "birman_krein_check", "smoothed_counting_shift",
    "birman_krein_extrapolated",
]

C1_RESIDUAL_TOL = 1e-9
COND_LIMIT = 1e12
INVARIANCE_TOL = 1e-12
PSD_TOL = 1e-12            # relative negative eigenvalue a PSD square root allows
MATCH_RADIUS = 0.75        # largest step of a phase chain between rungs
ORACLE_RTOL = 1e-11        # plane-wave integration of the transfer-matrix oracle
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
    x = pair.operators[which].solve(g[:, lo:hi].conj().T, z, lo)
    return pair.sparse_g[:, lo:hi] @ x


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


def smoothed_density(pair, probe, eps, sandwich=None):
    """Smoothed densities (F0', F') = Im T0(probe+i*eps)/pi, Im T/pi.

    Both are PSD up to roundoff for eps > 0.
    """
    if eps <= 0:
        raise ValueError("need eps > 0")
    sw = sandwich or resolvent_sandwich(pair, probe + 1j * eps)
    return _imag_part(sw.t0) / np.pi, _imag_part(sw.t) / np.pi


def _psd_sqrt(m):
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    if w.min() < -PSD_TOL * max(abs(w).max(), 1.0):
        raise ArithmeticError(f"matrix not PSD: min eigenvalue {w.min():.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


# ---------------------------------------------------------------------------
# stationary scattering matrix and defect operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringBundle:
    """Everything the stationary machinery produces at one (probe, eps).

    The four k x k matrices are None in the rungs of :func:`phase_ladder`.
    """

    probe: float
    eps: float
    f0prime: np.ndarray
    fprime: np.ndarray
    smatrix: np.ndarray
    # of the smoothed stationary matrix on the top eigenspace of the defect
    # operator, or all of them after a fallback
    eigenvalues: np.ndarray
    phases: np.ndarray               # retained, sorted, in (0, 2*pi)
    retention_threshold: float
    unitarity_defect: float
    defect_operator: np.ndarray      # A = pi^2 sqrt(F0') V0 F' V0 sqrt(F0')
    identity_residual: float         # || (S-I)*(S-I)/4 - A ||
    prediction_a: float              # ||A||^(1/2) = ||S - I|| / 2
    band_edges: np.ndarray           # sin(theta/2) of retained phases, descending
    factor_residual: float
    invariance_residual: float       # || S W - W (W* S W) || on that eigenspace W


_MATRICES = dict.fromkeys(("f0prime", "fprime", "smatrix", "defect_operator"))


def _hermitian_norm(m):
    """2-norm of the Hermitian part of ``m``: its largest |eigenvalue|."""
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(max(abs(w[0]), abs(w[-1])))


def _top_eigenvalues(smat, mu, vecs, thr):
    """Eigenvalues of S with |ev - 1| > thr / 2, and the invariance residual.

    (S-I)*(S-I)/4 = (mu, vecs) is a function of the normal S, so the
    eigenvectors with mu > thr^2 / 16 span an S-invariant subspace W
    holding every eigenvalue of S with |ev - 1| > thr / 2; they are the
    eigenvalues of the small W* S W.  When ||S W - W (W* S W)|| is not
    at roundoff (eigenvalues of S clustered across the cut) the
    eigenvalues of the whole S are returned instead.
    """
    w = vecs[:, mu > thr ** 2 / 16.0]
    sw = smat @ w
    c = w.conj().T @ sw
    resid = float(np.linalg.norm(sw - w @ c, 2))
    return (np.linalg.eigvals(c) if resid <= INVARIANCE_TOL
            else np.linalg.eigvals(smat)), resid


def scattering_bundle(pair, probe, eps):
    """Assemble the smoothed stationary matrix and defect operator.

    Eigenvalues with |ev - 1| above max(PHASE_FLOOR, 10 * unitarity
    defect) are retained as scattering phases.  The finite-eps identity
    (S-I)*(S-I)/4 = A holds exactly; its residual is reported.  The
    unitarity defect and that residual are 2-norms of Hermitian matrices,
    taken as their largest |eigenvalue|; the phases and ||A|| come from
    one eigensolve of (S-I)*(S-I)/4 (see :func:`_top_eigenvalues`).
    """
    sw = resolvent_sandwich(pair, probe + 1j * eps)
    f0p, fp = smoothed_density(pair, probe, eps, sandwich=sw)
    root = _psd_sqrt(f0p)
    v0 = pair.v0
    core = v0 - v0 @ sw.t @ v0
    eye = np.eye(pair.kdim)
    smat = eye - 2j * np.pi * root @ core @ root
    udef = _hermitian_norm(smat.conj().T @ smat - eye)
    thr = max(PHASE_FLOOR, 10.0 * udef)
    diff = smat - eye
    defect = 0.25 * diff.conj().T @ diff
    mu, vecs = np.linalg.eigh(defect)
    evs, inv_resid = _top_eigenvalues(smat, mu, vecs, thr)
    kept = evs[np.abs(evs - 1.0) > thr]
    phases = np.sort(np.mod(np.angle(kept), 2.0 * np.pi))
    amat = np.pi ** 2 * root @ v0 @ fp @ v0 @ root
    amat = 0.5 * (amat + amat.conj().T)
    ident = _hermitian_norm(defect - amat)
    a_pred = float(np.sqrt(max(mu[-1], 0.0)))
    edges = np.sort(np.sin(phases / 2.0))[::-1]
    return ScatteringBundle(float(probe), float(eps), f0p, fp, smat, evs, phases,
                            thr, udef, amat, ident, a_pred, edges, sw.factor_residual,
                            inv_resid)


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
    """Bundles at every rung of a decreasing eps ladder, without their k x k
    matrices: a rung keeps its scalars and phases only."""
    ladder = list(eps_ladder)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    return [replace(scattering_bundle(pair, probe, e), **_MATRICES)
            for e in ladder]


def _match_chains(bundles):
    """Track retained eigenvalues across rungs by nearest-neighbor matching
    within MATCH_RADIUS."""
    chains = [[complex(np.exp(1j * th))] for th in bundles[0].phases]
    for b in bundles[1:]:
        pool = list(np.exp(1j * b.phases))
        for chain in chains:
            if len(chain) == 0 or not pool:
                chain.clear()
                continue
            d = [abs(chain[-1] - c) for c in pool]
            i = int(np.argmin(d))
            if d[i] <= MATCH_RADIUS:
                chain.append(pool.pop(i))
            else:
                chain.clear()
    return [c for c in chains if len(c) == len(bundles)]


def extrapolated_phases(pair, probe, eps_ladder):
    """Retained phases extrapolated to eps = 0 along matched chains.

    Only chains present at every rung are extrapolated.  Returns
    (phases ascending, bundles).
    """
    bundles = phase_ladder(pair, probe, eps_ladder)
    chains = _match_chains(bundles)
    ladder = [b.eps for b in bundles]
    out = []
    for chain in chains:
        angles = np.unwrap([np.angle(c) for c in chain])
        out.append(float(np.mod(neville(ladder, angles), 2.0 * np.pi)))
    return np.sort(np.asarray(out)), bundles


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
    r_right: complex
    t_right: complex
    smatrix: np.ndarray
    phases: np.ndarray
    flux_defect: float
    unitarity_defect: float
    fiber_trace: float


def _integrate_plane_wave(potential, lam, x_from, x_to, mover):
    """Integrate -u'' + V u = lam*u starting from the pure exponential
    exp(i*mover*k*x) at ``x_from``."""
    from scipy.integrate import solve_ivp   # only this oracle needs it; import lazily

    def rhs(x, y):
        u = y[0] + 1j * y[2]
        upp = (potential(x) - lam) * u
        return [y[1], upp.real, y[3], upp.imag]

    k = np.sqrt(lam)
    u0 = np.exp(1j * mover * k * x_from)
    du0 = 1j * mover * k * u0
    sol = solve_ivp(rhs, [x_from, x_to], [u0.real, du0.real, u0.imag, du0.imag],
                    rtol=ORACLE_RTOL, atol=ORACLE_RTOL * 1e-2, method="RK45")
    if not sol.success:
        raise ArithmeticError(f"plane-wave integration failed: {sol.message}")
    u = sol.y[0, -1] + 1j * sol.y[2, -1]
    du = sol.y[1, -1] + 1j * sol.y[3, -1]
    return u, du


def transfer_matrix_smatrix(spec, probe):
    """Stationary 2x2 scattering matrix by integrating -u'' + V u = probe*u.

    Requires probe > 0 and a potential that has decayed at the ends of the
    window (checked against TAIL_TOL); the integration runs at relative
    tolerance ORACLE_RTOL.
    """
    if probe <= 0:
        raise ValueError("need probe > 0")
    x_edge = spec.half_width
    tail = max(abs(float(spec.potential(np.asarray(x_edge)))),
               abs(float(spec.potential(np.asarray(-x_edge)))))
    if tail > TAIL_TOL:
        raise ValueError(f"potential tail {tail:.2e} not decayed at |x| = {x_edge}")
    k = float(np.sqrt(probe))
    pot = lambda x: float(spec.potential(np.asarray(x)))

    # left incidence: integrate the pure transmitted right-mover backward from +X
    u, du = _integrate_plane_wave(pot, probe, x_edge, -x_edge, +1)
    alpha = (1j * k * u + du) / (2j * k) * np.exp(+1j * k * x_edge)
    beta = (1j * k * u - du) / (2j * k) * np.exp(-1j * k * x_edge)
    r, t = beta / alpha, 1.0 / alpha

    # right incidence: integrate the pure transmitted left-mover forward from -X
    u, du = _integrate_plane_wave(pot, probe, -x_edge, x_edge, -1)
    gamma = (1j * k * u - du) / (2j * k) * np.exp(+1j * k * x_edge)
    delta = (1j * k * u + du) / (2j * k) * np.exp(-1j * k * x_edge)
    r_right, t_right = delta / gamma, 1.0 / gamma

    smat = np.array([[t, r_right], [r, t_right]])
    flux = abs(abs(r) ** 2 + abs(t) ** 2 - 1.0)
    udef = float(np.linalg.norm(smat.conj().T @ smat - np.eye(2), 2))
    phases = np.sort(np.mod(np.angle(np.linalg.eigvals(smat)), 2.0 * np.pi))
    xs = np.linspace(-x_edge, x_edge, 20001)
    vtrace = float(np.trapezoid(np.abs(spec.potential(xs)), xs) / (2.0 * np.pi * k))
    return TransferMatrixResult(k, r, t, r_right, t_right, smat, phases,
                                flux, udef, vtrace)


# ---------------------------------------------------------------------------
# counting shift and the Birman-Krein relation
# ---------------------------------------------------------------------------

def smoothed_counting_shift(pair, probe, eps):
    """Eigenvalue-counting shift trace(E0 - E) smoothed at scale eps.

    Each sharp step 1[eigenvalue < probe] is replaced by the Lorentzian
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
    integer_shift: int
    eps: float


def birman_krein_check(pair, probe, eps):
    """det S versus exp(-2*pi*i*xi) at one smoothing level.

    det S is the product of retained stationary phases; xi is the
    smoothed counting shift at the same eps.  The raw integer shift is
    carried along for reference.
    """
    probe_gaps(probe, pair.eigenvalues)
    bundle = scattering_bundle(pair, probe, eps)
    det_s = complex(np.exp(1j * np.sum(bundle.phases)))
    xi = smoothed_counting_shift(pair, probe, eps)
    defect = abs(det_s - np.exp(-2j * np.pi * xi))
    return BirmanKreinResult(det_s, xi, float(defect),
                             integer_counting_shift(pair, probe), float(eps))


def birman_krein_extrapolated(pair, probe, phases, xi_ladder):
    """Ladder-extrapolated (det S, xi, defect).

    ``phases`` are the extrapolated phases from :func:`extrapolated_phases`;
    the smoothed counting shift is extrapolated separately along
    ``xi_ladder``, which must stay in the regime eps > local level spacing,
    where the smoothed shift tracks its continuum limit.
    """
    det_s = complex(np.exp(1j * np.sum(phases)))
    ladder = list(xi_ladder)
    xi_vals = [smoothed_counting_shift(pair, probe, e) for e in ladder]
    xi = float(neville(ladder, xi_vals))
    defect = abs(det_s - np.exp(-2j * np.pi * xi))
    return det_s, xi, float(defect)
