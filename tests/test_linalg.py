import numpy as np
import pytest
import scipy.linalg as sla

from projdiff import linalg
from projdiff.errors import (GapViolationError, NonHermitianError, OverflowGuardError,
                             SpectralCollisionError)
from projdiff.linalg import (HERMITIAN_TOL, TridiagonalBands, check_hermitian,
                             expm_apply, herm_eig, probe_gaps, subspace_compressions, svd,
                             sylvester_solve)
from projdiff.models import build_finite_pair


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def test_herm_eig_identity_and_diagonal():
    dec = herm_eig(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])
    dec = herm_eig(np.diag([3.0, 1.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0])  # ascending


def test_herm_eig_vs_characteristic_polynomial():
    # independent oracle: roots of det(M - x I) for a 3x3 Hermitian matrix
    m = random_hermitian(3, 11)
    a = -np.trace(m).real
    b = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
    c = -np.linalg.det(m).real
    roots = np.sort(np.roots([1.0, a, b, c]).real)
    dec = herm_eig(m)
    assert np.allclose(dec.eigenvalues, roots, atol=1e-10)
    r, o = dec.residuals(m)
    assert r <= 1e-10 and o <= 1e-10


def test_herm_eig_rejects_asymmetry():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NonHermitianError) as err:
        herm_eig(m)
    assert err.value.defect > 0


def _exact_defect(m):
    return np.linalg.norm(m - m.conj().T, 2) / np.linalg.norm(m, 2)


def _fast_bound(m):
    return np.linalg.norm(m - m.conj().T) / np.max(np.linalg.norm(m, axis=0))


def _asymmetric_sweep(tol, seed):
    """Seeded matrices whose exact asymmetry is 0.1x, 1x and 10x ``tol``.

    The asymmetry is either a dense random matrix, where the Frobenius
    bound overestimates the 2-norm and leaves the fast test inconclusive,
    or i*u*u* on a rank-one-dominated matrix, where the Frobenius bound is
    tight.
    """
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 40, 200):
        for dense in (True, False):
            for ratio in (0.1, 1.0, 10.0):
                h = random_hermitian(n, int(rng.integers(1 << 30)))
                if dense:
                    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                else:
                    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    h = h + 10.0 * n * np.outer(u, u.conj())
                    k = 0.5j * np.outer(u, u.conj())
                scale = ratio * tol * np.linalg.norm(h, 2) / np.linalg.norm(k - k.conj().T, 2)
                yield ratio, h + scale * k


def test_check_hermitian_matches_exact_decision(monkeypatch):
    inconclusive_accepts = fast_accepts = rejects = 0
    for tol in (HERMITIAN_TOL, 1e-10):
        for ratio, m in _asymmetric_sweep(tol, seed=int(-np.log10(tol))):
            exact = _exact_defect(m)
            if exact > tol:
                rejects += 1
                with pytest.raises(NonHermitianError) as err:
                    check_hermitian(m, tol)
                assert err.value.defect == pytest.approx(exact, rel=1e-12)
                assert err.value.tol == tol
                monkeypatch.setattr(linalg, "HERMITIAN_TOL", tol)
                with pytest.raises(NonHermitianError):
                    herm_eig(m)
            else:
                check_hermitian(m, tol)
                if _fast_bound(m) <= tol:
                    fast_accepts += 1
                else:
                    inconclusive_accepts += 1
    # the sweep reaches all three branches
    assert min(inconclusive_accepts, fast_accepts, rejects) > 0


def test_check_hermitian_fast_accept_runs_no_svd(monkeypatch):
    m = random_hermitian(30, 5)
    norm = np.linalg.norm

    def no_two_norm(x, ord=None, **kwargs):
        assert ord != 2, "2-norm SVD on an input the fast bound accepts"
        return norm(x, ord, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", no_two_norm)
    check_hermitian(m, HERMITIAN_TOL)
    check_hermitian(m + 1e-3 * HERMITIAN_TOL * np.triu(m), HERMITIAN_TOL)


def test_check_hermitian_edge_inputs():
    for m in (np.zeros((0, 0)), np.zeros((4, 4)), np.zeros((3, 3), dtype=complex)):
        check_hermitian(m, HERMITIAN_TOL)
        herm_eig(m)
    # squares of tiny entries underflow unless the bounds are scaled first
    for scale in (1e-170, 1e170):
        with pytest.raises(NonHermitianError):
            check_hermitian(scale * np.array([[1.0, 1.0], [0.0, 1.0]]), HERMITIAN_TOL)
        check_hermitian(scale * np.array([[1.0, 1.0], [1.0, 1.0]]), HERMITIAN_TOL)
    with pytest.raises(ValueError):
        check_hermitian(np.ones((2, 3)), HERMITIAN_TOL)
    with pytest.raises(ValueError):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_build_finite_pair_rejects_asymmetric_h0():
    h0 = np.diag([1.0, 2.0, 3.0])
    g = np.eye(3)[:1]
    v0 = np.array([[1.0]])
    near, bad = h0.copy(), h0.copy()
    near[0, 2] = 1e-3 * HERMITIAN_TOL
    bad[0, 2] = 1e-6
    build_finite_pair(near, g, v0)
    with pytest.raises(ValueError, match="h0 is not Hermitian"):
        build_finite_pair(bad, g, v0)
    # the pair's eigensolves apply HERMITIAN_TOL, so the build does too: an
    # h0 between it and a looser tolerance would build and then fail to
    # diagonalize
    h = random_hermitian(30, 3).real
    k = np.triu(random_hermitian(30, 4).real)
    skew = 5e-11 * np.linalg.norm(h, 2) / np.linalg.norm(k - k.T, 2)
    loose = h + skew * k
    assert _exact_defect(loose) == pytest.approx(5e-11, rel=1e-6)
    with pytest.raises(ValueError, match="h0 is not Hermitian"):
        build_finite_pair(loose, np.eye(30)[:1], v0)
    with pytest.raises(ValueError, match="v0 is not Hermitian"):
        build_finite_pair(h0, np.eye(3)[:2], np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("piece", ["h0", "g", "v0"])
def test_build_finite_pair_rejects_non_finite(piece, bad):
    pieces = {"h0": np.diag([bad, 1.0]), "g": np.eye(2)[:1], "v0": np.array([[1.0]])}
    if piece == "g":
        pieces["h0"], pieces["g"] = np.diag([2.0, 1.0]), np.array([[bad, 0.0]])
    elif piece == "v0":
        pieces["h0"], pieces["v0"] = np.diag([2.0, 1.0]), np.array([[bad]])
    with pytest.raises(ValueError, match=f"{piece} has non-finite entries"):
        build_finite_pair(**pieces)


def test_subspace_compressions_match_the_dense_projections():
    # sums and products of the compressions have the 2-norms of the same
    # expressions in the n x n projections, whatever the overlap of the spans
    rng = np.random.default_rng(21)
    n = 30
    shared = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    bases = []
    for m in (3, 4, 0, 5):
        raw = np.hstack([shared, rng.standard_normal((n, m))])[:, :m]
        bases.append(np.linalg.qr(raw)[0] if m else np.empty((n, 0)))
    comp = subspace_compressions(*bases)
    dense = [b @ b.conj().T for b in bases]
    assert all(a.shape == (12, 12) for a in comp)
    for pick in (lambda p: p[1] - p[0], lambda p: p[0] @ p[1] - 2.0 * p[3],
                 lambda p: p[2] + p[3] @ p[0] @ p[3]):
        ref = np.linalg.norm(pick(dense), 2)
        assert abs(np.linalg.norm(pick(comp), 2) - ref) <= 1e-13 * max(ref, 1.0)
    assert [a.shape for a in subspace_compressions(np.empty((n, 0)))] == [(0, 0)]


def test_tridiagonal_bands_format():
    rng = np.random.default_rng(12)
    n = 9
    d, off = rng.standard_normal(n), rng.standard_normal(n - 1)
    off[2] = 0.0
    m = np.diag(d) + np.diag(off, -1) + np.diag(off, 1)
    bands = TridiagonalBands(d, off)
    assert np.array_equal(bands.dense(), m)
    assert np.allclose(bands.eigenvalues(), np.linalg.eigvalsh(m), atol=1e-13)
    dec = bands.eigenpairs(1, 4)
    assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(m)[1:4], atol=1e-13)
    v = dec.eigenvectors
    assert np.linalg.norm(m @ v - v * dec.eigenvalues, 2) <= 1e-13
    assert bands.eigenpairs(2, 2).eigenvectors.shape == (n, 0)
    z = 0.3 + 0.02j
    rhs = rng.standard_normal((n, 3))
    assert np.allclose(bands.window(z, 0, n).solve(rhs),
                       np.linalg.solve(m - z * np.eye(n), rhs), atol=1e-12)
    assert np.array_equal(bands.shifted(0.5).dense(), m - 0.5 * np.eye(n))
    one = TridiagonalBands(np.array([2.0]), np.empty(0))
    assert np.allclose(one.window(1j, 0, 1).solve(np.array([[1.0]])), [[1.0 / (2.0 - 1j)]])


def _random_bands(rng, n, cut):
    """Real symmetric bands with a random diagonal and offdiagonal; with
    ``cut``, one link is zero and the chain falls into two pieces."""
    off = rng.standard_normal(n - 1)
    if cut:
        off[n // 2] = 0.0
    return TridiagonalBands(rng.uniform(-2, 2, n), off)


def test_band_solve_on_a_window_matches_the_padded_full_solve():
    # the window block of the resolvent, through the two boundary
    # self-energies, against rows of the dense solve of the zero-padded rhs
    rng = np.random.default_rng(8)
    n, z = 25, 0.3 + 0.02j
    for cut in (False, True):
        bands = _random_bands(rng, n, cut)
        inverse = np.linalg.inv(bands.dense() - z * np.eye(n))
        for lo, hi in ((0, n), (0, 7), (18, n), (9, 14), (12, 13), (5, 5)):
            rhs = rng.standard_normal((hi - lo, 3)) + 1j * rng.standard_normal((hi - lo, 3))
            padded = np.zeros((n, 3), dtype=complex)
            padded[lo:hi] = rhs
            x = bands.window(z, lo, hi).solve(rhs)
            assert x.shape == rhs.shape
            assert np.allclose(x, (inverse @ padded)[lo:hi], atol=1e-12)
    with pytest.raises(ValueError, match="window"):
        bands.window(z, n - 2, n + 1)


def test_window_with_given_corners_matches_the_dense_window():
    # the window system with given end corners c: the dense window block
    # less e^2 c at each end; its solve and its pivots (their product is
    # the determinant) against dense algebra
    rng = np.random.default_rng(9)
    n, z, corners = 25, 0.3, (0.2 + 0.7j, -0.4 + 0.1j)
    for cut in (False, True):
        bands = _random_bands(rng, n, cut)
        off = bands.offdiagonal
        for lo, hi in ((6, 19), (12, 13), (0, 7), (18, n)):
            m = hi - lo
            dense = bands.dense()[lo:hi, lo:hi] - z * np.eye(m, dtype=complex)
            if lo > 0:
                dense[0, 0] -= off[lo - 1] ** 2 * corners[0]
            if hi < n:
                dense[-1, -1] -= off[hi - 1] ** 2 * corners[1]
            system = bands.window(z, lo, hi, corners)
            rhs = rng.standard_normal((m, 2))
            assert np.allclose(system.solve(rhs), np.linalg.solve(dense, rhs), atol=1e-12)
            assert np.prod(system.pivots()) == pytest.approx(np.linalg.det(dense), rel=1e-11)


def test_probe_gaps_reports_nearest_over_all_spectra(monkeypatch):
    gaps = probe_gaps(0.5, [np.array([0.0, 1.0]), np.array([0.25]), np.empty(0)])
    assert gaps == [0.5, 0.25, np.inf]
    with pytest.raises(GapViolationError) as err:
        probe_gaps(0.5, [np.array([0.5 + 1e-9]), np.array([0.5 - 1e-10])])
    assert err.value.nearest == 0.5 - 1e-10
    # the contract is PROBE_GAP_TOL, read when probe_gaps runs
    near = 0.5 * linalg.PROBE_GAP_TOL
    with pytest.raises(GapViolationError) as err:
        probe_gaps(0.0, [np.array([near])])
    assert err.value.nearest == near
    assert probe_gaps(0.0, [np.array([linalg.PROBE_GAP_TOL])]) == [linalg.PROBE_GAP_TOL]
    monkeypatch.setattr(linalg, "PROBE_GAP_TOL", 0.25 * linalg.PROBE_GAP_TOL)
    assert probe_gaps(0.0, [np.array([near])]) == [near]


def test_svd_zero_and_rank_one():
    _, s, _ = svd(np.zeros((3, 4)))
    assert np.allclose(s, 0.0)
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    _, s, _ = svd(np.outer(u, v))
    assert abs(s[0] - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-12
    assert abs(s[1]) < 1e-12


def test_svd_squares_match_gram_eigenvalues():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, s, vh = svd(m)
    gram = herm_eig(m.conj().T @ m).eigenvalues
    assert np.allclose(np.sort(s ** 2), gram, atol=1e-10 * max(gram))
    assert np.linalg.norm(m - (u * s) @ vh, 2) <= 1e-10 * np.linalg.norm(m, 2)


def test_expm_apply_basics():
    m = random_hermitian(5, 3)
    x = np.eye(5)[:, :2]
    assert np.allclose(expm_apply(m, 0.0, x), x)
    assert np.allclose(expm_apply(np.array([[-1.0]]), 1.0, np.array([1.0])),
                       [np.exp(-1.0)])


def test_expm_group_law():
    m = random_hermitian(6, 8)
    x = np.linalg.qr(random_hermitian(6, 9))[0][:, :3]
    once = expm_apply(m, 0.7, expm_apply(m, 0.3, x))
    direct = expm_apply(m, 1.0, x)
    assert np.linalg.norm(once - direct, 2) < 1e-12 * np.linalg.norm(direct, 2)


def test_expm_overflow_guard():
    m = np.diag([800.0, -1.0])
    x = np.array([[1.0], [1.0]])
    with pytest.raises(OverflowGuardError):
        expm_apply(m, 1.0, x)
    # projected input passes: component on the growing mode is zero
    out = expm_apply(m, 1.0, np.array([[0.0], [1.0]]))
    assert np.allclose(out, [[0.0], [np.exp(-1.0)]])


def test_sylvester_scalar_and_homogeneous():
    x = sylvester_solve(np.array([2.0]), np.array([1.0]), np.array([[1.0]]))
    assert abs(x[0, 0] - 1.0) < 1e-12
    x = sylvester_solve(np.array([2.0, 3.0]), np.array([0.0, -1.0]), np.zeros((2, 2)))
    assert np.allclose(x, 0.0)


def test_sylvester_collision_rejected():
    with pytest.raises(SpectralCollisionError) as err:
        sylvester_solve(np.array([1.0, 2.0]), np.array([2.0, 5.0]), np.eye(2))
    assert err.value.gap < err.value.required


def _diagonal_sylvester_case(seed, m=7, k=4):
    """The diagonals a, b of a gapped Sylvester equation and its right-hand side."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, -0.5, m).astype(complex)
    b = rng.uniform(0.5, 3.0, k).astype(complex)
    c = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return a, b, c


@pytest.mark.parametrize("seed", range(4))
def test_sylvester_diagonal_quotient_matches_scipy(seed):
    a, b, c = _diagonal_sylvester_case(seed)
    x = sylvester_solve(a, b, c)
    ref = sla.solve_sylvester(np.diag(a), -np.diag(b), c)
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(x, c / (a[:, None] - b[None, :]))


def test_sylvester_diagonal_runs_no_dense_solver(monkeypatch):
    a, b, c = _diagonal_sylvester_case(5, m=40, k=6)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense Sylvester machinery on diagonal operands")

    monkeypatch.setattr(sla, "solve_sylvester", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    norm, two_norms = np.linalg.norm, []

    def counted(x, ord=None, **kwargs):
        if ord == 2:
            two_norms.append(np.shape(x))
        return norm(x, ord, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    sylvester_solve(a, b, c)
    # only the m x k residual and solution
    assert two_norms == [(40, 6), (40, 6)]


def test_sylvester_diagonal_collision_decision_matches_dense():
    # the collision threshold is SYLVESTER_GAP_TOL times the scale
    # max(||A||, ||B||, 1) of the diagonal operators, set by A, by B, or by
    # the floor 1; just below it the equation is rejected, just above solved
    for big_a, big_b in ((1e3, 7.0), (0.5, 1e3), (0.3, 0.2)):
        required = 1e-8 * max(big_a, big_b, 1.0)
        for gap, rejected in ((0.9 * required, True), (1.1 * required, False),
                              (0.0, True), (0.1, False)):
            a = np.array([-big_a, 0.01, 0.05])
            b, c = np.array([0.01 + gap, big_b]), np.ones((3, 2))
            if rejected:
                with pytest.raises(SpectralCollisionError) as err:
                    sylvester_solve(a, b, c)
                assert err.value.required == pytest.approx(required, rel=1e-12)
            else:
                sylvester_solve(a, b, c)


@pytest.mark.parametrize("seed", range(4))
def test_sylvester_takes_diagonal_operands_as_vectors(seed, monkeypatch):
    # the operands are the diagonals; a matrix operand, diagonal or not, is refused
    a, b, c = _diagonal_sylvester_case(seed)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense Sylvester machinery on vector operands")

    with monkeypatch.context() as patch:
        patch.setattr(sla, "solve_sylvester", forbidden)
        patch.setattr(np.linalg, "eigvals", forbidden)
        assert np.array_equal(sylvester_solve(a, b, c), c / (a[:, None] - b[None, :]))
    for operands in ((np.diag(a), b), (a, np.diag(b))):
        with pytest.raises(ValueError, match="1-d"):
            sylvester_solve(*operands, c)


def test_sylvester_vector_operands_keep_the_contract():
    with pytest.raises(SpectralCollisionError):
        sylvester_solve(np.array([1.0, 2.0]), np.array([2.0, 5.0]), np.eye(2))
    with pytest.raises(ValueError, match="rows of A"):
        sylvester_solve(np.array([1.0, 2.0]), np.array([5.0]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="2-d"):
        sylvester_solve(np.array([1.0]), np.array([5.0]), np.ones(1))
    with pytest.raises(ValueError, match="non-finite"):
        sylvester_solve(np.array([np.nan]), np.array([5.0]), np.ones((1, 1)))


def test_sylvester_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="rows of A"):
        sylvester_solve(np.array([1.0, 2.0]), np.array([5.0]), np.ones((2, 2)))
