import dataclasses

import numpy as np
import pytest

from projdiff import linalg, models, scattering
from projdiff.errors import OracleConvergenceError, ResidualError, SingularSandwichError
from projdiff.models import (build_finite_pair, build_krein, build_schrodinger_1d,
                             random_gapped_pair, sech2_spec, square_well_spec,
                             thresholds)
from projdiff.scattering import (birman_krein_check, birman_krein_extrapolated,
                                 extrapolated_phases, neville, phase_ladder,
                                 resolvent_sandwich, scattering_bundle,
                                 smoothed_counting_shift,
                                 smoothed_density, transfer_matrix_smatrix)

from oracles import SECH2_LADDER, dense_eigensystems, spy_svd


def scalar_pair(h0_value, coupling):
    return build_finite_pair(np.array([[h0_value]], dtype=complex),
                             np.array([[coupling]]), np.array([[1.0]]))


def zero_v0_pair(seed=0):
    rng = np.random.default_rng(seed)
    h0 = np.diag(rng.uniform(-1, 1, 6)).astype(complex)
    g = rng.standard_normal((2, 6))
    return build_finite_pair(h0, g, np.zeros((2, 2)))


def test_sandwich_zero_perturbation():
    pair = zero_v0_pair()
    sw = resolvent_sandwich(pair, 0.1 + 0.05j)
    assert np.allclose(sw.t0, sw.t)
    assert sw.factor_residual <= 1e-12


def test_sandwich_scalar_resolvent():
    pair = scalar_pair(0.0, 1.0)
    eps = 0.01
    sw = resolvent_sandwich(pair, 1j * eps)
    assert sw.t0[0, 0] == pytest.approx(-1.0 / (1j * eps))
    f0, _ = smoothed_density(pair, 0.0, eps)
    assert f0[0, 0] == pytest.approx(1.0 / (np.pi * eps))


def test_sandwich_requires_upper_half_plane():
    pair = zero_v0_pair()
    with pytest.raises(ValueError):
        resolvent_sandwich(pair, 0.5 - 0.1j)


def test_factor_identity_random():
    pair = random_gapped_pair(6, 2, seed=31)
    sw = resolvent_sandwich(pair, 0.3 + 0.07j)
    assert sw.factor_residual <= 1e-10


def test_density_psd_and_trace_sum_rule():
    pair = random_gapped_pair(8, 3, seed=13)
    f0, f = smoothed_density(pair, 0.1, 0.05)
    for m in (f0, f):
        assert np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) >= -1e-12
    # Lorentzians integrate to one: the trace of F0' integrated over a wide
    # grid approaches trace(G G*); eigen-expansion is the oracle
    eps = 0.05
    grid = np.linspace(-60.0, 60.0, 12001)
    vals = []
    e0, _ = dense_eigensystems(pair)
    gv = pair.g @ e0.eigenvectors
    weights = np.sum(np.abs(gv) ** 2, axis=0)
    for lam in grid:
        dens = eps / ((e0.eigenvalues - lam) ** 2 + eps ** 2) / np.pi
        vals.append(np.sum(weights * dens))
    integral = np.trapezoid(vals, grid)
    target = np.trace(pair.g @ pair.g.conj().T).real
    assert integral == pytest.approx(target, rel=1e-3)
    # and the sandwich-based trace matches the eigen-expansion pointwise
    f0, _ = smoothed_density(pair, 0.1, eps)
    dens = eps / ((e0.eigenvalues - 0.1) ** 2 + eps ** 2) / np.pi
    assert np.trace(f0).real == pytest.approx(np.sum(weights * dens), rel=1e-10)


def test_bundle_zero_v0():
    pair = zero_v0_pair()
    b = scattering_bundle(pair, 0.0, 0.1)
    assert np.allclose(b.smatrix, np.eye(2))
    assert len(b.phases) == 0
    assert len(b.band_edges) == 0 and b.prediction_a == 0.0


def test_bundle_zero_coupling():
    # V = 0 leaves no coupling space (k = 0): the bundle is empty, not an error
    pair = build_schrodinger_1d(sech2_spec(0.0, 30.0, 599))
    assert pair.kdim == 0
    b = scattering_bundle(pair, 1.0, 0.1)
    assert b.smatrix.shape == (0, 0)
    assert len(b.phases) == 0 and len(b.band_edges) == 0
    assert b.prediction_a == 0.0 and b.unitarity_defect == 0.0

def test_bundle_exact_unitarity_and_identity():
    for seed in (0, 1, 2):
        pair = random_gapped_pair(10, 3, seed=seed)
        for eps in (0.1, 0.01):
            b = scattering_bundle(pair, 0.0, eps)
            assert b.unitarity_defect <= 1e-12
            assert b.identity_residual <= 1e-9 * max(np.linalg.norm(b.defect_operator, 2), 1.0)
            # ||A||^(1/2) equals ||S - I||/2 through the exact identity
            half = 0.5 * np.linalg.norm(b.smatrix - np.eye(pair.kdim), 2)
            assert b.prediction_a == pytest.approx(half, abs=1e-8)


def test_bundle_defect_psd_and_consistency():
    pair = random_gapped_pair(12, 4, seed=6)
    b = scattering_bundle(pair, 0.0, 0.05)
    evs = np.linalg.eigvalsh(b.defect_operator)
    assert evs.min() >= -1e-10
    # the smoothed stationary matrix is unitary, hence normal, so
    # ||A||^(1/2) coincides with the largest retained sin(theta/2)
    assert len(b.phases) > 0
    assert np.max(np.sin(b.phases / 2.0)) == pytest.approx(b.prediction_a, abs=1e-8)
    assert b.band_edges[0] == pytest.approx(b.prediction_a, abs=1e-8)


def test_predictions_arithmetic():
    # |exp(i*theta) - 1| = 2 sin(theta/2): the band edges are half the
    # distances of the retained eigenvalues of S from 1, in descending order
    pair = random_gapped_pair(12, 4, seed=6)
    b = scattering_bundle(pair, 0.0, 0.05)
    kept = b.eigenvalues[np.abs(b.eigenvalues - 1.0) > b.retention_threshold]
    assert len(kept) >= 2
    assert np.allclose(b.band_edges, np.sort(np.abs(kept - 1.0) / 2.0)[::-1], atol=1e-12)


def test_krein_phase_near_minus_one():
    cfg = thresholds()["krein"]
    pair = build_krein(cfg["n"], cfg["L"])
    phases, bundles = extrapolated_phases(pair, 0.5, cfg["eps_ladder"])
    assert len(phases) == 1
    assert abs(np.exp(1j * phases[0]) + 1.0) <= 0.05
    # diagnostic from the design ledger: unitarity defect stays at roundoff
    # along the ladder (the smoothed matrix is exactly unitary)
    assert all(b.unitarity_defect <= 1e-12 for b in bundles)


def test_neville_extrapolates_polynomials():
    eps = [0.4, 0.2, 0.1]
    vals = [1.0 + 3.0 * e - 2.0 * e ** 2 for e in eps]
    assert neville(eps, vals) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dtype", (float, complex))
def test_array_neville_equals_entrywise_scalar_neville(dtype):
    # array samples are extrapolated entrywise, bit for bit as one scalar
    # ladder per entry
    rng = np.random.default_rng(5)
    eps = [0.2, 0.15, 0.1, 0.05]
    rungs = [rng.standard_normal((4, 3)).astype(dtype) for _ in eps]
    if dtype is complex:
        rungs = [m + 1j * rng.standard_normal((4, 3)) for m in rungs]
    out = neville(eps, rungs)
    assert out.shape == (4, 3) and np.iscomplexobj(out) == (dtype is complex)
    for i, j in np.ndindex(4, 3):
        assert out[i, j] == neville(eps, [m[i, j] for m in rungs])
    with pytest.raises(ValueError):
        neville(eps, rungs[:3])


def test_krein_defect_top_extrapolates_to_one():
    # the defect operator's top eigenvalue is sin^2(theta/2) in the limit,
    # here sin^2(pi/2) = 1 since the limiting phase is pi
    cfg = thresholds()["krein"]
    pair = build_krein(cfg["n"], cfg["L"])
    ladder = cfg["eps_ladder"]
    tops = [scattering_bundle(pair, 0.5, e).prediction_a ** 2 for e in ladder]
    assert neville(ladder, tops) == pytest.approx(1.0, abs=0.05)


def test_prediction_a_is_half_norm():
    # S is unitary, so ||S - I|| / 2 is read off its eigenvalues as
    # max |ev - 1| / 2; it agrees with the SVD's 2-norm to roundoff
    krein = thresholds()["krein"]
    cases = [(random_gapped_pair(8, 3, seed=seed), 0.0, (0.1, 0.05, 0.02))
             for seed in (29, 30, 31, 32)]
    cases.append((build_krein(krein["n"], krein["L"]), krein["probe"], krein["eps_ladder"]))
    for pair, probe, ladder in cases:
        for b in phase_ladder(pair, probe, ladder):
            half_norm = 0.5 * linalg.norm2(b.smatrix - np.eye(pair.kdim))
            assert b.prediction_a == pytest.approx(half_norm, rel=1e-14, abs=0.0)


def test_ladder_stack_takes_three_hermitian_eigensolves(monkeypatch):
    # per stack of rungs: one eigh, the PSD root of F0', and two eigvalsh,
    # the unitarity defect and the identity residual; ||S - I|| / 2 comes
    # from the eigenvalues of S the phases need anyway
    pair = random_gapped_pair(12, 4, seed=8)
    for op in pair.operators:
        op.eigensystem                                # the dense sandwiches' eigensolves
    calls = []

    def spy(name, original):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return original(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    bundles = phase_ladder(pair, 0.0, (0.1, 0.05, 0.02, 0.01))
    stack = (len(bundles), pair.kdim, pair.kdim)
    assert sorted(calls) == [("eigh", stack), ("eigvalsh", stack), ("eigvalsh", stack)]


def test_transfer_matrix_free_and_flux():
    spec = square_well_spec(0.0, 1.0, 20.0, 399)
    res = transfer_matrix_smatrix(spec, 1.0)
    assert abs(res.r) < 1e-10 and abs(res.t - 1.0) < 1e-10
    spec = sech2_spec(1.0, 25.0, 499)
    res = transfer_matrix_smatrix(spec, 1.3)
    assert res.flux_defect <= 1e-8
    assert res.unitarity_defect <= 1e-8


def dop853_fundamental(spec, probe):
    """Phi(X) of u'' = (V - probe) u with Phi(-X) = I by scipy's DOP853 at
    relative tolerance 1e-13: the slow reference path of the Magnus cells."""
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        q = float(spec.potential(np.asarray(x))) - probe
        return [y[2], y[3], q * y[0], q * y[1]]
    x_edge = spec.half_width
    sol = solve_ivp(rhs, [-x_edge, x_edge], [1.0, 0.0, 0.0, 1.0],
                    rtol=1e-13, atol=1e-15, method="DOP853")
    assert sol.success
    return sol.y[:, -1].reshape(2, 2)


def test_transfer_matrix_integrates_once():
    # both incidence sides come from one fundamental system, which the
    # Magnus cells give as the DOP853 reference does
    spec = sech2_spec(1.0, 30.0, 999)
    phi, error = scattering._fundamental_matrix(spec.potential, 1.0, spec.half_width,
                                                spec.n + 1)
    assert np.max(np.abs(phi - dop853_fundamental(spec, 1.0))) <= 1e-10
    assert error <= 1e-10
    res = transfer_matrix_smatrix(spec, 1.0)
    # reciprocity t = t' holds to the integration error
    assert abs(res.smatrix[0, 0] - res.smatrix[1, 1]) <= 1e-9


def sech2_closed_form(depth, probe):
    """S = [[t, r], [r, t]] of the continuum well -depth sech^2 x, with
    l(l + 1) = depth: t = G(1+l-ik) G(-l-ik) / (G(1-ik) G(-ik)) and
    r = i t sin(pi l) / sinh(pi k)."""
    from scipy.special import loggamma
    k = np.sqrt(probe)
    ell = 0.5 * (np.sqrt(1.0 + 4.0 * depth) - 1.0)
    t = np.exp(loggamma(1 + ell - 1j * k) + loggamma(-ell - 1j * k)
               - loggamma(1 - 1j * k) - loggamma(-1j * k))
    r = 1j * t * np.sin(np.pi * ell) / np.sinh(np.pi * k)
    return np.array([[t, r], [r, t]])


@pytest.mark.parametrize("depth", [1.0, 2.5])
@pytest.mark.parametrize("probe", [0.3, 1.0, 1.6])
def test_transfer_matrix_sech2_closed_form(depth, probe):
    res = transfer_matrix_smatrix(sech2_spec(depth, 30.0, 999), probe)
    err = np.max(np.abs(res.smatrix - sech2_closed_form(depth, probe)))
    assert err <= 1e-11
    assert err <= res.integration_error <= 1e-10


def test_transfer_matrix_square_well_closed_form():
    # inside the well the momentum is q = sqrt(lam + v0); matching plane
    # waves at |x| = b gives the textbook transmission amplitude
    v0, b, lam = 1.0, 1.0, 1.0
    k, q = np.sqrt(lam), np.sqrt(lam + v0)
    denom = np.cos(2 * q * b) - 0.5j * (k / q + q / k) * np.sin(2 * q * b)
    t_exact = np.exp(-2j * k * b) / denom
    res = transfer_matrix_smatrix(square_well_spec(v0, b, 20.0, 399), lam)
    assert abs(res.t - t_exact) <= 1e-11
    assert abs(res.t - t_exact) <= res.integration_error


def test_transfer_matrix_raises_when_cells_cannot_converge(monkeypatch):
    # a target below roundoff fails on every cell, and the level cap stops
    # the doubling with the reached estimate and the target
    monkeypatch.setattr(scattering, "ORACLE_TOL", 1e-30)
    monkeypatch.setattr(scattering, "ORACLE_MAX_CELLS", 64)
    with pytest.raises(OracleConvergenceError) as info:
        transfer_matrix_smatrix(sech2_spec(1.0, 30.0, 999), 1.0)
    assert info.value.limit == "level cap"
    assert info.value.estimate > info.value.target > 0.0
    monkeypatch.undo()
    # a jump of V at |x| ~ 900 in a box of half-width 1000 needs cells
    # narrower than twice the spacing of floats there
    far_well = models.PotentialSpec(
        lambda x: np.where(np.abs(x - 900.0) < 0.5, -2.5, 0.0), 2.5, 2.0, 1000.0, 999)
    with pytest.raises(OracleConvergenceError) as info:
        transfer_matrix_smatrix(far_well, 1.0)
    assert info.value.limit == "cell-width floor"
    assert info.value.estimate > info.value.target


def test_transfer_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        transfer_matrix_smatrix(sech2_spec(1.0, 25.0, 499), -1.0)
    broad = sech2_spec(1.0, 5.0, 399)  # sech^2(5) is far above the tail tolerance
    with pytest.raises(ValueError):
        transfer_matrix_smatrix(broad, 1.0)


def test_transfer_matrix_rejects_a_non_finite_potential_by_name():
    # a NaN patch refined to the level cap ("local error nan"), and a NaN
    # tail passed the tail check; each now names its first sampled x
    spec = sech2_spec(1.0, 20.0, 399)
    pot = spec.potential
    patch = dataclasses.replace(
        spec, potential=lambda x: np.where(np.abs(x - 0.3) < 0.06, np.nan, pot(x)))
    with pytest.raises(ValueError, match="potential not finite at x = ") as info:
        transfer_matrix_smatrix(patch, 1.0)
    assert abs(float(str(info.value).rsplit("= ", 1)[1]) - 0.3) < 0.06
    tail = dataclasses.replace(
        spec, potential=lambda x: np.where(np.abs(x) > 19.95, np.nan, pot(x)))
    with pytest.raises(ValueError, match="potential not finite at x = -20$"):
        transfer_matrix_smatrix(tail, 1.0)


def test_sech2_phases_match_oracle():
    cfg = thresholds()["sech2"]
    pair = build_schrodinger_1d(
        sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))
    phases, _ = extrapolated_phases(pair, cfg["probe"], SECH2_LADDER)
    oracle = transfer_matrix_smatrix(
        sech2_spec(cfg["depth"], cfg["oracle_half_width"], 999), cfg["probe"])
    assert len(phases) == 2
    dist = np.abs(np.exp(1j * phases)[:, None] - np.exp(1j * oracle.phases)[None, :])
    match = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    assert match <= 2e-2


def test_fiber_trace_consistency():
    # trace of the smoothed density extrapolates to the continuum fiber trace
    cfg = thresholds()["sech2"]
    pair = build_schrodinger_1d(
        sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))
    oracle = transfer_matrix_smatrix(
        sech2_spec(cfg["depth"], cfg["oracle_half_width"], 999), cfg["probe"])
    ladder = SECH2_LADDER
    traces = [np.trace(smoothed_density(pair, cfg["probe"], e)[0]).real
              for e in ladder]
    extrapolated = neville(ladder, traces)
    assert extrapolated == pytest.approx(oracle.fiber_trace, abs=0.02 * oracle.fiber_trace)


def test_counting_shift_smoothing():
    pair = random_gapped_pair(10, 3, seed=44)
    # eps -> 0 recovers the integer counting shift
    (m0, m1), _ = pair.probe_gaps(0.0)
    xi_small = smoothed_counting_shift(pair, 0.0, 1e-9)
    assert xi_small == pytest.approx(m0 - m1, abs=1e-6)


def test_integer_counting_shift_of_band_pairs_matches_the_spectra():
    # the band pair's Sturm counts against the eigenvalue form on the full
    # banded spectra
    import scipy.linalg as sla
    from projdiff.models import build_schrodinger_1d, square_well_spec
    pair = build_schrodinger_1d(square_well_spec(2.5, 1.0, 20.0, 399))
    w0, w1 = (sla.eigh_tridiagonal(b.diagonal, b.offdiagonal, eigvals_only=True)
              for b in pair.operators)
    for probe in (-2.0, -1.0, 0.01, 0.5, 1.0, 3.7, 500.0):
        (m0, m1), _ = pair.probe_gaps(probe)
        assert m0 - m1 == int(np.sum(w0 < probe) - np.sum(w1 < probe))
    (m0, m1), _ = pair.probe_gaps(0.0)
    assert m0 - m1 == -1  # the well's one bound state
    assert "eigenvalues" not in pair.__dict__


def test_birman_krein_zero_perturbation():
    pair = zero_v0_pair()
    det_s, xi, defect = birman_krein_check(pair, 0.0, 0.1)
    assert det_s == pytest.approx(1.0)
    assert xi == pytest.approx(0.0, abs=1e-12)
    assert defect <= 1e-12


@pytest.mark.parametrize("build, probe, eps", [
    (lambda: random_gapped_pair(12, 3, seed=44), 0.0, 0.1),
    (lambda: build_krein(200, 40.0), 0.5, 0.05),
])
def test_birman_krein_check_is_the_one_rung_extrapolation(build, probe, eps):
    pair = build()
    got = birman_krein_check(pair, probe, eps)
    phases = scattering_bundle(pair, probe, eps).phases
    assert got == birman_krein_extrapolated(pair, probe, phases, [eps])
    # the hand formula: det S = exp(i sum theta), xi the smoothed shift at eps
    det_s = complex(np.exp(1j * np.sum(phases)))
    xi = smoothed_counting_shift(pair, probe, eps)
    assert got == (det_s, xi, float(abs(det_s - np.exp(-2j * np.pi * xi))))
    assert all(type(v) is t for v, t in zip(got, (complex, float, float)))


def test_birman_krein_weak_square_well():
    pair = build_schrodinger_1d(square_well_spec(0.3, 1.0, 60.0, 1199))
    ladder = [0.3, 0.2, 0.1, 0.05]
    phases, _ = extrapolated_phases(pair, 1.0, ladder)
    _, xi, defect = birman_krein_extrapolated(pair, 1.0, phases, ladder)
    assert defect <= 5e-2
    assert xi < 0  # attractive well pulls levels down through the probe


def _matrix_with_cond(k, cond, rng):
    """Random complex k x k matrix with 2-norm condition number ``cond``."""
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    return (u * np.geomspace(1.0, 1.0 / cond, k)) @ v


def test_sandwich_conditioning_decision_matches_exact_cond():
    # the LU bound accepts or defers to the exact cond, so the decision is
    # the exact one; the sweep crosses the limit and includes near-singular m
    rng = np.random.default_rng(41)
    fast = exact_accepts = rejects = 0
    cases = [_matrix_with_cond(k, c, rng) for k in (2, 5, 30)
             for c in np.geomspace(1.0, 1e17, 35)]
    # I + V0 T0 at z = (eigenvalue of H) + i*eps is near-singular for small eps
    pair = random_gapped_pair(12, 4, seed=8)
    lam = pair.eigenvalues[1][5]
    for eps in np.geomspace(1e-1, 1e-16, 16):
        t0 = scattering._sandwich_one(pair, 0, lam + 1j * eps)
        cases.append(np.eye(pair.kdim) + pair.v0 @ t0)
    for m in cases:
        cond = np.linalg.cond(m)
        inverse, (flags, error) = scattering._stack_inverse(m[None])
        assert flags.tolist() == [cond > scattering.COND_LIMIT]
        if cond > scattering.COND_LIMIT:
            rejects += 1
            assert isinstance(error(0), SingularSandwichError)
            assert error(0).cond == cond
            assert not np.any(inverse)
        else:
            # an accepted matrix comes back with its inverse, for the residual
            inverse = inverse[0]
            assert np.array_equal(inverse, np.linalg.inv(m))
            bound = np.linalg.norm(m) * np.linalg.norm(inverse)
            if bound <= 1e-2 * scattering.COND_LIMIT:
                fast += 1
            else:
                exact_accepts += 1
    assert min(fast, exact_accepts, rejects) > 0
    with pytest.raises(SingularSandwichError):
        resolvent_sandwich(pair, lam + 1e-15j)


def test_stack_inverse_fails_the_singular_rung_with_its_exact_cond():
    # an exactly singular rung among good ones: the LU of the stack meets a
    # zero pivot, so every rung is judged alone, and the singular rung, not
    # the good one before it, fails with its own SVD condition number.
    # Rungs the bound cannot accept but cond does (1e11) come back with
    # their inverses taken alone, the others with the stacked ones
    rng = np.random.default_rng(7)
    good = [_matrix_with_cond(4, c, rng) for c in (3.0, 1e11, 50.0)]
    singular = good[0].copy()
    singular[:, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)
    mixed = [good[0], singular, good[2]]
    inverse, (flags, error) = scattering._stack_inverse(np.array(mixed))
    assert flags.tolist() == [False, True, False]
    assert isinstance(error(1), SingularSandwichError)
    assert error(1).cond == np.linalg.cond(singular)
    # the flagged rung's inverse is zero, the others' are taken alone
    assert not np.any(inverse[1])
    for r in (0, 2):
        assert np.array_equal(inverse[r], np.linalg.inv(mixed[r]))
    inverse, (flags, _) = scattering._stack_inverse(np.array(good))
    assert not np.any(flags)
    for m, inv in zip(good, inverse):
        assert np.array_equal(inv, np.linalg.inv(m))


def test_well_conditioned_sandwich_runs_no_cond_svd(monkeypatch):
    pair = random_gapped_pair(12, 4, seed=8)
    norm = np.linalg.norm
    factorizations = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            factorizations.append(name)
            return original(*args, **kwargs)
        return wrapped

    two_norms = spy_svd(monkeypatch)
    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    sw = resolvent_sandwich(pair, 0.1 + 0.05j)
    # one SVD: the reported residual's 2-norm, on the ladder's stack of one
    # point; neither ||T||_2 nor the exact condition number is needed
    assert two_norms == [(1, pair.kdim, pair.kdim)]
    # I + V0 T0 is factorized once: the residual reuses the check's inverse
    assert factorizations == ["inv"]
    monkeypatch.undo()
    exact = norm(sw.t - sw.t0 @ np.linalg.inv(np.eye(pair.kdim) + pair.v0 @ sw.t0), 2)
    assert sw.factor_residual == pytest.approx(exact, abs=1e-14)


def test_factor_residual_check_falls_back_to_the_two_norm(monkeypatch):
    # a residual above the column-norm test still passes when it is within
    # the tolerance scaled by ||T||_2, and fails beyond it
    pair = random_gapped_pair(12, 4, seed=8)
    sw = resolvent_sandwich(pair, 0.1 + 0.05j)
    colmax = np.max(np.linalg.norm(sw.t, axis=0))
    two = np.linalg.norm(sw.t, 2)
    assert two > colmax > 1.0
    for tol, passes in ((1.01 * sw.factor_residual / two, True),
                        (0.99 * sw.factor_residual / two, False)):
        monkeypatch.setattr(scattering, "C1_RESIDUAL_TOL", tol)
        if passes:
            assert sw.factor_residual > tol * colmax
            resolvent_sandwich(pair, 0.1 + 0.05j)
        else:
            with pytest.raises(ArithmeticError, match="factor identity"):
                resolvent_sandwich(pair, 0.1 + 0.05j)


# ---------------------------------------------------------------------------
# the spectral sandwich of dense pairs against dense solves
# ---------------------------------------------------------------------------

def _solved_sandwich(pair, which, z):
    """Dense oracle: G (A - z)^-1 G* by an n x n solve."""
    mat = (pair.h0, pair.h)[which]
    return pair.g @ np.linalg.solve(mat - z * np.eye(pair.dim), pair.g.conj().T)


SANDWICH_CASES = {
    "krein-200": (lambda: build_krein(200, 40.0), 0.5),
    **{f"random-{seed}": (lambda seed=seed: random_gapped_pair(24, 3, seed), 0.0)
       for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(SANDWICH_CASES))
def test_spectral_sandwich_matches_dense_solve(case):
    build, probe = SANDWICH_CASES[case]
    pair = build()
    assert not pair.banded
    for eps in (0.2, 0.05, 1e-2):
        z = probe + 1j * eps
        sw = resolvent_sandwich(pair, z)
        for which, t in ((0, sw.t0), (1, sw.t)):
            ref = _solved_sandwich(pair, which, z)
            assert np.linalg.norm(t - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_spectral_sandwich_reuses_the_eigensystems(monkeypatch):
    # T0 and T come from the operators' two cached eigensolves; the only
    # factorization left is the k x k inverse of I + V0 T0, which the
    # conditioning check and the factor-identity residual share
    pair = build_krein(200, 40.0)
    for b in pair.operators:
        b.eigensystem
    factorizations, eigs = [], []

    def spy(name, original):
        def wrapped(a, *args):
            factorizations.append((name, np.shape(a)))
            return original(a, *args)
        return wrapped

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    monkeypatch.setattr(linalg, "herm_eig", lambda *a, **k: eigs.append(a))
    resolvent_sandwich(pair, 0.5 + 0.05j)
    # on the ladder's stack of one point
    assert factorizations == [("inv", (1, pair.kdim, pair.kdim))]
    assert not eigs


def test_import_leaves_the_ode_solver_unloaded():
    # the transfer-matrix oracle is numpy only: scipy.integrate stays
    # unloaded after an oracle call
    import os
    import subprocess
    import sys
    import projdiff
    src = os.path.dirname(os.path.dirname(os.path.abspath(projdiff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, projdiff; print('scipy.integrate' in sys.modules); "
            "from projdiff import sech2_spec, transfer_matrix_smatrix; "
            "transfer_matrix_smatrix(sech2_spec(1.0, 30.0, 400), 1.0); "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out == ["False", "False"]


# ---------------------------------------------------------------------------
# the bundle's eigenvalues and Hermitian kernels against dense ones
# ---------------------------------------------------------------------------

def _sech2_shipped():
    cfg = thresholds()["sech2"]
    pair = build_schrodinger_1d(
        sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))
    return pair, cfg["probe"], SECH2_LADDER


PHASE_CASES = {
    "sech2": _sech2_shipped,
    "krein": lambda: (build_krein(400, 40.0), 0.5, thresholds()["krein"]["eps_ladder"]),
    **{f"random-{seed}": (lambda seed=seed: (random_gapped_pair(24, 6, seed), 0.0,
                                             [0.1, 0.05, 0.01]))
       for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(PHASE_CASES))
def test_bundle_takes_every_eigenvalue_of_s(case):
    pair, probe, ladder = PHASE_CASES[case]()
    for eps in ladder:
        b = scattering_bundle(pair, probe, eps)
        assert np.array_equal(b.eigenvalues, np.linalg.eigvals(b.smatrix))
        kept = b.eigenvalues[np.abs(b.eigenvalues - 1.0) > b.retention_threshold]
        assert np.array_equal(b.phases, np.sort(np.mod(np.angle(kept), 2.0 * np.pi)))
        assert b.prediction_a == pytest.approx(
            0.5 * np.linalg.norm(b.smatrix - np.eye(pair.kdim), 2), abs=1e-13)


def test_bundle_hermitian_norms_match_the_svd_norms():
    # the bundle's two Hermitian 2-norms (linalg.hermitian_norm) against the SVD ones
    pair = random_gapped_pair(24, 6, seed=2)
    b = scattering_bundle(pair, 0.0, 0.05)
    eye = np.eye(pair.kdim)
    diff = b.smatrix - eye
    assert b.unitarity_defect == pytest.approx(
        np.linalg.norm(b.smatrix.conj().T @ b.smatrix - eye, 2), abs=1e-15)
    assert b.identity_residual == pytest.approx(
        np.linalg.norm(0.25 * diff.conj().T @ diff - b.defect_operator, 2), abs=1e-15)


LADDER_CASES = {
    "krein": lambda: (build_krein(200, 40.0), 0.5, [0.2, 0.15, 0.1, 0.05]),
    "random": lambda: (random_gapped_pair(24, 6, seed=3), 0.0, [0.1, 0.05, 0.01]),
    "sech2-759": lambda: (build_schrodinger_1d(sech2_spec(1.0, 38.0, 759)), 1.0,
                          [0.3, 0.2, 0.1, 0.05]),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_ladder_rungs_are_the_bundles_at_their_eps(case):
    pair, probe, ladder = LADDER_CASES[case]()
    _, bundles = extrapolated_phases(pair, probe, ladder)
    assert [b.eps for b in bundles] == ladder
    for rung, eps in zip(bundles, ladder):
        direct = scattering_bundle(pair, probe, eps)
        for f in dataclasses.fields(direct):
            assert np.array_equal(getattr(rung, f.name), getattr(direct, f.name)), f.name


def _spoil_sandwiches(monkeypatch, spoil):
    """Pass every stacked sandwich, of h0 (``which`` = 0) or h (1) at the
    points z, through ``spoil(which, t)``, which may change it in place."""
    original = scattering._sandwich_one

    def spoiled(pair, which, z):
        t = original(pair, which, z)
        if np.ndim(z):
            spoil(which, t)
        return t

    monkeypatch.setattr(scattering, "_sandwich_one", spoiled)


def test_ladder_raises_the_singular_rung(monkeypatch):
    # the second rung sits 1e-15 above an eigenvalue of H; the first passes
    pair = random_gapped_pair(12, 4, seed=8)
    lam = pair.eigenvalues[1][5]
    phase_ladder(pair, lam, [0.1])
    with pytest.raises(SingularSandwichError) as err:
        phase_ladder(pair, lam, [0.1, 1e-15])
    assert err.value.cond > scattering.COND_LIMIT
    # an exactly singular I + V0 T0 at the second rung: the stack's LU
    # fails, and the rungs are inverted one by one
    def singular(which, t):
        if which == 0 and len(t) > 1:
            t[1] = -pair.v0
    _spoil_sandwiches(monkeypatch, singular)
    with pytest.raises(SingularSandwichError) as err:
        phase_ladder(pair, 0.0, [0.1, 0.05])
    assert err.value.cond == np.inf
    # with the first rung the only one, nothing is singular
    assert phase_ladder(pair, 0.0, [0.1])[0].factor_residual <= 1e-12


def _conjugate_rung(rung):
    """A spoil that conjugates T0 and T at one rung, when the stack reaches
    it: with V0 real, the factor identity still holds, and F0' = Im T0 / pi
    is negative definite there."""
    def spoil(which, t):
        if len(t) > rung:
            t[rung] = t[rung].conj()
    return spoil


def test_ladder_raises_the_non_psd_rung(monkeypatch):
    pair = random_gapped_pair(12, 4, seed=8)
    top = np.max(np.linalg.eigvalsh(scattering_bundle(pair, 0.0, 0.1).f0prime))
    _spoil_sandwiches(monkeypatch, _conjugate_rung(1))
    with pytest.raises(ResidualError, match=f"not PSD: min eigenvalue {-top:.3e}$") as err:
        phase_ladder(pair, 0.0, [0.2, 0.1, 0.05])
    # the residual is -min eigenvalue, the bound PSD_TOL times the largest |eigenvalue|
    assert err.value.residual == pytest.approx(top, rel=1e-12)
    assert err.value.bound == pytest.approx(scattering.PSD_TOL * max(top, 1.0), rel=1e-12)


def test_ladder_raises_the_first_failing_rung_in_ladder_order(monkeypatch):
    # rung 1 fails the conditioning check, an earlier step than the PSD
    # root that rung 0 fails: rung 0's error is the one raised
    pair = random_gapped_pair(12, 4, seed=8)
    lam = pair.eigenvalues[1][5]
    _spoil_sandwiches(monkeypatch, _conjugate_rung(0))
    with pytest.raises(ArithmeticError, match="not PSD"):
        phase_ladder(pair, lam, [0.1, 1e-15])


@pytest.mark.parametrize("conjugated", [False, True])
def test_failing_ladder_computes_its_stack_once(monkeypatch, conjugated):
    # rung 1 fails the conditioning check (and, conjugated, rung 0 the PSD
    # check): every check flags its rungs in one pass, so each operator's
    # stack of sandwiches is computed once, and no rung before the failing
    # one is rerun
    pair = random_gapped_pair(12, 4, seed=8)
    lam = pair.eigenvalues[1][5]
    if conjugated:
        _spoil_sandwiches(monkeypatch, _conjugate_rung(0))
    original, calls = scattering._sandwich_one, []

    def counted(pair, which, z):
        calls.append((which, np.shape(z)))
        return original(pair, which, z)

    monkeypatch.setattr(scattering, "_sandwich_one", counted)
    with pytest.raises(ResidualError if conjugated else SingularSandwichError):
        phase_ladder(pair, lam, [0.1, 1e-15])
    assert calls == [(0, (2,)), (1, (2,))]


def test_ladder_raises_the_rung_past_the_factor_tolerance(monkeypatch):
    # a tolerance between the two largest residuals (relative to
    # max(1, ||T||_2)) fails exactly one rung, whose residual is named
    pair = random_gapped_pair(12, 4, seed=8)
    ladder = [0.2, 0.1, 0.05, 0.02]
    bundles = phase_ladder(pair, 0.1, ladder)
    ratios = [b.factor_residual / max(1.0, np.linalg.norm(
        resolvent_sandwich(pair, 0.1 + 1j * b.eps).t, 2)) for b in bundles]
    second, first = np.sort(ratios)[-2:]
    assert first > second > 0
    monkeypatch.setattr(scattering, "C1_RESIDUAL_TOL", 0.5 * (first + second))
    worst = bundles[int(np.argmax(ratios))].factor_residual
    with pytest.raises(ArithmeticError, match=f"factor identity residual {worst:.3e}$"):
        phase_ladder(pair, 0.1, ladder)


def test_empty_ladder_is_rejected():
    pair = random_gapped_pair(10, 3, seed=0)
    with pytest.raises(ValueError, match="empty"):
        phase_ladder(pair, 0.0, [])
    with pytest.raises(ValueError, match="empty"):
        extrapolated_phases(pair, 0.0, [])

@pytest.mark.parametrize("call, match", [
    (lambda pair: smoothed_density(pair, 0.0, 0.0), "eps > 0"),
    (lambda pair: smoothed_density(pair, 0.0, -0.1), "eps > 0"),
    (lambda pair: smoothed_density(pair, 0.0, np.nan), "eps > 0"),
    (lambda pair: phase_ladder(pair, 0.0, [0.1, 0.2]), "strictly decreasing"),
    (lambda pair: phase_ladder(pair, 0.0, [0.1, 0.1]), "strictly decreasing"),
    (lambda pair: phase_ladder(pair, 0.0, [0.1, np.nan]), "strictly decreasing"),
    (lambda pair: phase_ladder(pair, 0.0, [0.1, 0.0]), "need eps > 0"),
    # the xi ladder meets the phase ladder's contract: [0.1, 0.1] gave
    # xi = nan, [0.1, 0.0] divided by zero and [0.1, -0.1] a meaningless xi
    (lambda pair: birman_krein_extrapolated(pair, 0.0, [], []), "eps ladder is empty"),
    (lambda pair: birman_krein_extrapolated(pair, 0.0, [], [0.1, 0.1]), "strictly decreasing"),
    (lambda pair: birman_krein_extrapolated(pair, 0.0, [], [0.1, 0.0]), "need eps > 0"),
    (lambda pair: birman_krein_extrapolated(pair, 0.0, [], [0.1, -0.1]), "need eps > 0"),
    (lambda pair: neville([0.1, 0.1], [1.0, 2.0]), "distinct eps"),   # returned inf
    # an infinite rung returned xi = nan, or failed at z = nan + inf*i
    (lambda pair: birman_krein_extrapolated(pair, 0.0, [], [np.inf, 0.1]),
     "eps ladder must be finite"),
    (lambda pair: phase_ladder(pair, 0.0, [np.inf, 0.1]), "eps ladder must be finite"),
    (lambda pair: scattering_bundle(pair, 0.0, np.inf), "eps ladder must be finite"),
    (lambda pair: smoothed_density(pair, 0.0, np.inf), "eps ladder must be finite"),
    # the counting shift meets the same contract: eps 0 divided by zero,
    # -0.1 gave the negative of the 0.1 value, nan gave nan and inf 0
    (lambda pair: smoothed_counting_shift(pair, 0.0, 0.0), "need eps > 0"),
    (lambda pair: smoothed_counting_shift(pair, 0.0, -0.1), "need eps > 0"),
    (lambda pair: smoothed_counting_shift(pair, 0.0, np.nan), "need eps > 0"),
    (lambda pair: smoothed_counting_shift(pair, 0.0, np.inf), "eps ladder must be finite"),
], ids=["density-eps-zero", "density-eps-negative", "density-eps-nan", "ladder-increasing",
        "ladder-repeated", "ladder-nan", "ladder-zero", "xi-ladder-empty", "xi-ladder-repeated",
        "xi-ladder-zero", "xi-ladder-negative", "neville-repeated", "xi-ladder-inf",
        "ladder-inf", "bundle-eps-inf", "density-eps-inf", "counting-shift-eps-zero",
        "counting-shift-eps-negative", "counting-shift-eps-nan", "counting-shift-eps-inf"])
def test_smoothing_inputs_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call(random_gapped_pair(10, 3, seed=0))
