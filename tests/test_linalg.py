import numpy as np
import pytest
import scipy.linalg as sla

from projdiff import linalg
from projdiff.errors import (GapViolationError, NonHermitianError, OverflowGuardError,
                             ProjdiffError, ResidualError, SpectralCollisionError)
from projdiff.linalg import (HERMITIAN_TOL, DenseHermitian, ParityBlock, TridiagonalBands,
                             check_hermitian, expm_apply, herm_eig, hermitian_norm, norm2,
                             probe_gaps, residual_within, svd, sylvester_solve)
from projdiff.models import (build_finite_pair, build_krein, build_schrodinger_1d, preset_pair,
                             sech2_spec, square_well_spec, thresholds)

from oracles import spy_svd


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
    v = dec.eigenvectors
    r = np.linalg.norm(m @ v - v * dec.eigenvalues, 2) / np.linalg.norm(m, 2)
    o = np.linalg.norm(v.conj().T @ v - np.eye(3), 2)
    assert r <= 1e-10 and o <= 1e-10


def test_herm_eig_rejects_asymmetry():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NonHermitianError) as err:
        herm_eig(m)
    assert err.value.defect > 0


def test_herm_eig_takes_the_hermitian_part_of_a_near_hermitian_matrix(monkeypatch):
    # an exactly Hermitian matrix goes to the solver as it is, with no
    # asymmetry check; one within HERMITIAN_TOL of Hermitian is checked and
    # its Hermitian part diagonalized
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    exact = 0.5 * (a + a.conj().T)
    near = exact.copy()
    near[0, 1] += 1e-14
    checked = []
    monkeypatch.setattr(linalg, "check_hermitian",
                        lambda m: checked.append(m.shape) or check_hermitian(m))
    for m, ref in ((exact, exact), (near, 0.5 * (near + near.conj().T))):
        dec = herm_eig(m)
        w, v = np.linalg.eigh(ref)
        assert np.array_equal(dec.eigenvalues, w) and np.array_equal(dec.eigenvectors, v)
    assert checked == [(6, 6)]


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
        monkeypatch.setattr(linalg, "HERMITIAN_TOL", tol)
        for ratio, m in _asymmetric_sweep(tol, seed=int(-np.log10(tol))):
            exact = _exact_defect(m)
            if exact > tol:
                rejects += 1
                with pytest.raises(NonHermitianError) as err:
                    check_hermitian(m)
                assert err.value.defect == pytest.approx(exact, rel=1e-12)
                assert err.value.tol == tol
                with pytest.raises(NonHermitianError):
                    herm_eig(m)
            else:
                check_hermitian(m)
                if _fast_bound(m) <= tol:
                    fast_accepts += 1
                else:
                    inconclusive_accepts += 1
    # the sweep reaches all three branches
    assert min(inconclusive_accepts, fast_accepts, rejects) > 0


def test_check_hermitian_fast_accept_runs_no_svd(monkeypatch):
    m = random_hermitian(30, 5)
    svds = spy_svd(monkeypatch)
    check_hermitian(m)
    check_hermitian(m + 1e-3 * HERMITIAN_TOL * np.triu(m))
    assert svds == []
    # an input the fast bound cannot decide takes the two exact 2-norms
    near = m.copy()
    near[0, 1] += 0.9j * HERMITIAN_TOL * np.max(np.linalg.norm(m, axis=0))
    assert _fast_bound(near) > HERMITIAN_TOL >= _exact_defect(near)
    check_hermitian(near)
    assert svds == [(30, 30), (30, 30)]


def test_check_hermitian_edge_inputs():
    for m in (np.zeros((0, 0)), np.zeros((4, 4)), np.zeros((3, 3), dtype=complex)):
        check_hermitian(m)
        herm_eig(m)
    # squares of tiny entries underflow unless the bounds are scaled first
    for scale in (1e-170, 1e170):
        with pytest.raises(NonHermitianError):
            check_hermitian(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
        check_hermitian(scale * np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        check_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        herm_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_check_hermitian_measures_entries_near_overflow():
    # M - M* of the unscaled matrix overflows; on M / 2^k the defect is finite
    m = np.array([[1e308, 1.7e308], [-1.7e308, 1e308]])
    with pytest.raises(NonHermitianError) as err:
        check_hermitian(m)
    scaled = m / 2.0 ** 1023
    assert np.isfinite(err.value.defect)
    assert err.value.defect == pytest.approx(_exact_defect(scaled), rel=1e-12)
    assert err.value.defect > 1.0


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


@pytest.mark.parametrize("t", (-1.3, 0.7))
@pytest.mark.parametrize("n", (2, 3, 8, 61, 400))
def test_free_chain_closed_form_matches_the_banded_solver(n, t):
    # DST-I eigenpairs of a uniform chain against eigh_tridiagonal, on index
    # ranges from 0, ending at n, and the whole spectrum
    bands = TridiagonalBands(np.full(n, 0.4), np.full(n - 1, t))
    assert bands.free_chain == (0.4, t)
    w, v = sla.eigh_tridiagonal(bands.diagonal, bands.offdiagonal)
    scale = np.max(np.abs(w))
    for lo, hi in ((0, min(5, n)), (max(n - 4, 0), n), (0, n), (n // 2, n // 2 + 1), (1, 1)):
        dec = bands.eigenpairs(lo, hi)
        assert dec.eigenvectors.shape == (n, hi - lo)
        assert np.max(np.abs(dec.eigenvalues - w[lo:hi]), initial=0.0) <= 1e-12 * scale
        assert np.array_equal(bands.eigenvalues(lo, hi), dec.eigenvalues)
        # each closed-form vector is the solver's up to its sign
        overlap = np.abs(np.sum(dec.eigenvectors * v[:, lo:hi], axis=0))
        assert np.max(np.abs(overlap - 1.0), initial=0.0) <= 1e-12
        u = dec.eigenvectors
        assert np.linalg.norm(u.T @ u - np.eye(hi - lo)) <= 1e-12
    assert np.max(np.abs(bands.eigenvalues() - w)) <= 1e-12 * scale


def test_bands_of_the_wrong_shape_are_rejected():
    # 1-d bands, n >= 1 diagonal entries and n - 1 links: five links on a
    # diagonal of five counted with four of them, and a ParityBlock, a band
    # of its own, is held to the same shape
    parent = TridiagonalBands(np.full(4, 2.0), np.full(3, -1.0))
    cases = (((np.arange(5.0), np.ones(5)), "offdiagonal has length 5 and diagonal 5"),
             ((np.arange(5.0), np.ones(3)), "offdiagonal has length 3 and diagonal 5"),
             ((np.empty(0), np.empty(0)), "offdiagonal has length 0 and diagonal 0"),
             ((np.ones((2, 2)), np.ones(1)), "must be 1-d, got 2-d and 1-d"),
             ((np.ones(3), np.ones((2, 1))), "must be 1-d, got 1-d and 2-d"))
    for bands, message in cases:
        for build in (TridiagonalBands, lambda d, e: ParityBlock(d, e, parent, +1)):
            with pytest.raises(ValueError, match=f"^band .*{message}"):
                build(*bands)


def test_free_chain_detection():
    # exactly constant bands with a nonzero link; one ulp off is not a chain
    assert TridiagonalBands(np.array([1.0]), np.empty(0)).free_chain is None
    assert TridiagonalBands(np.full(4, 1.0), np.zeros(3)).free_chain is None
    d, off = np.full(6, 2.0), np.full(5, -1.0)
    assert TridiagonalBands(d, off).shifted(0.5).free_chain == (1.5, -1.0)
    d_ulp, off_ulp = d.copy(), off.copy()
    d_ulp[3] = np.nextafter(2.0, 3.0)
    off_ulp[1] = np.nextafter(-1.0, 0.0)
    assert TridiagonalBands(d_ulp, off).free_chain is None
    assert TridiagonalBands(d, off_ulp).free_chain is None


def _mirror_bands(n, t=None, seed=0):
    """Mirror-symmetric bands: a free chain (diagonal 0.4, link t) or, with
    t None, random bands made equal to their reversal."""
    if t is not None:
        return TridiagonalBands(np.full(n, 0.4), np.full(n - 1, t))
    rng = np.random.default_rng(seed)
    d, off = rng.uniform(-2, 2, n), rng.standard_normal(n - 1)
    return TridiagonalBands(0.5 * (d + d[::-1]), 0.5 * (off + off[::-1]))


@pytest.mark.parametrize("t", (None, -1.3, 0.7))
@pytest.mark.parametrize("n", (2, 3, 8, 9, 60, 61))
def test_parity_blocks_split_the_spectrum(n, t):
    # the even and odd blocks hold the whole spectrum between them, their
    # Sturm counts add up, and their eigenvectors, unfolded, are orthonormal
    # eigenvectors of the parent of that parity
    bands = _mirror_bands(n, t, seed=n)
    m, w = bands.dense(), np.linalg.eigvalsh(bands.dense())
    blocks = bands.parity_blocks
    assert [b.dim for b in blocks] == [(n + 1) // 2, n // 2]
    values = np.concatenate([b.eigenvalues(0, b.dim) for b in blocks])
    assert np.max(np.abs(np.sort(values) - w)) <= 1e-12 * np.max(np.abs(w))
    for x in np.linspace(w[0] - 0.1, w[-1] + 0.1, 37):
        if np.min(np.abs(w - x)) > 1e-9:
            assert sum(b.count_below(x) for b in blocks) == bands.count_below(x)
    for b in blocks:
        dec = b.eigenpairs(0, b.dim)
        assert np.max(np.abs(dec.eigenvalues - b.eigenvalues(0, b.dim))) <= 1e-12
        v = b.unfold(dec.eigenvectors)
        assert v.shape == (n, b.dim)
        assert np.array_equal(v[::-1], b.parity * v)
        assert np.linalg.norm(m @ v - v * dec.eigenvalues, 2) <= 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(b.dim), 2) <= 1e-12


@pytest.mark.parametrize("t", (-1.3, 0.7))
@pytest.mark.parametrize("n", (2, 3, 8, 61, 400))
def test_free_chain_blocks_keep_the_closed_form(n, t):
    # a free chain's blocks read the DST-I modes of their parity, folded:
    # the banded solver on the folded bands agrees, vectors up to sign
    for b in _mirror_bands(n, t).parity_blocks:
        w, v = sla.eigh_tridiagonal(b.diagonal, b.offdiagonal)
        for lo, hi in ((0, min(3, b.dim)), (b.dim // 2, b.dim), (1, 1)):
            dec = b.eigenpairs(lo, hi)
            assert dec.eigenvectors.shape == (b.dim, hi - lo)
            assert np.max(np.abs(dec.eigenvalues - w[lo:hi]), initial=0.0) <= 1e-12
            overlap = np.abs(np.sum(dec.eigenvectors * v[:, lo:hi], axis=0))
            assert np.max(np.abs(overlap - 1.0), initial=0.0) <= 1e-12


def test_parity_block_detection():
    # both bands exactly equal to their reversal, n >= 2; one ulp off in
    # one entry of either band is no mirror
    assert TridiagonalBands(np.array([1.0]), np.empty(0)).parity_blocks is None
    for n in (6, 7):
        bands = _mirror_bands(n, seed=n)
        assert bands.parity_blocks is not None
        for band in ("diagonal", "offdiagonal"):
            d, off = bands.diagonal.copy(), bands.offdiagonal.copy()
            x = d if band == "diagonal" else off
            x[1] = np.nextafter(x[1], np.inf)
            assert TridiagonalBands(d, off).parity_blocks is None


def _assert_counts_match_the_sorted_spectrum(bands, rng, scale=1.0):
    """count_below against searchsorted on the full spectrum, at random
    points, the diagonal entries and points scale * 1e-9 beside the
    eigenvalues; points within scale * 1e-10 of one are left out."""
    assert bands.free_chain is None
    w = sla.eigh_tridiagonal(bands.diagonal, bands.offdiagonal, eigvals_only=True)
    x = np.concatenate([rng.uniform(w[0] - 1.0, w[-1] + 1.0, 200), bands.diagonal,
                        w + 1e-9 * scale, w - 1e-9 * scale])
    x = x[np.min(np.abs(x[:, None] - w[None, :]), axis=1) > 1e-10 * scale]
    assert [bands.count_below(xi) for xi in x] == np.searchsorted(w, x).tolist()


@pytest.mark.parametrize("cut", (False, True))
@pytest.mark.parametrize("n", (1, 2, 9, 200))
def test_sturm_counts_match_the_sorted_spectrum(n, cut):
    # dstebz's Sturm counts against searchsorted on the full spectrum, on
    # random real bands (with a zero link when cut), and on the same bands
    # graded by D^1/2 M D^1/2, D from 1 to 1e7, where the points keep their
    # distance relative to ||M||
    rng = np.random.default_rng(n)
    bands = _random_bands(rng, n, cut and n > 2)
    _assert_counts_match_the_sorted_spectrum(bands, rng)
    root = np.sqrt(np.logspace(0, 7, n))
    graded = TridiagonalBands(bands.diagonal * root ** 2,
                              bands.offdiagonal * root[:-1] * root[1:])
    _assert_counts_match_the_sorted_spectrum(graded, rng, _band_norm1(graded))


@pytest.mark.parametrize("name", ("schrodinger:sech2", "schrodinger:square-well"))
def test_sturm_counts_match_the_sorted_spectrum_on_shipped_h_blocks(name):
    # the counts the probe step reads: the even and odd blocks of the
    # shipped boxes' H (1,200 rows each), which are not free chains
    blocks = preset_pair(name).operators[1].parity_blocks
    for block in blocks:
        _assert_counts_match_the_sorted_spectrum(block, np.random.default_rng(block.dim))


def test_sturm_count_through_zero_pivots():
    # a pivot of exactly zero, first and later: dstebz takes a pivot below
    # its floor as negative, which on -M keeps an eigenvalue at x out of the
    # count, so the count is that of the eigenvalues strictly below x
    cases = ((np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0]), 0.0),
             (np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0]), 1.0),
             (np.array([0.0, 5.0]), np.array([0.0]), 0.0))
    for d, off, x in cases:
        w = np.linalg.eigvalsh(TridiagonalBands(d, off).dense())
        assert TridiagonalBands(d, off).count_below(x) == int(np.sum(w < x - 1e-12))


@pytest.mark.parametrize("t", (-100.0, 3.0))
def test_free_chain_counts_match_the_sorted_spectrum(t):
    n = 300
    bands = TridiagonalBands(np.full(n, 2.0 * abs(t)), np.full(n - 1, t))
    w = sla.eigh_tridiagonal(bands.diagonal, bands.offdiagonal, eigvals_only=True)
    x = np.concatenate([np.linspace(w[0] - 1.0, w[-1] + 1.0, 997), w + 1e-9, w - 1e-9])
    x = x[np.min(np.abs(x[:, None] - w[None, :]), axis=1) > 1e-10]
    assert [bands.count_below(xi) for xi in x] == np.searchsorted(w, x).tolist()


def _shipped_band_blocks():
    """Every band block of the shipped sech^2 and square-well boxes that is
    not a free chain: H's parity blocks on the two presets, the sech^2
    d_boxes and the square-well corner box, with the probes they are read at."""
    sech, well = thresholds()["sech2"], thresholds()["square_well"]
    specs = [sech2_spec(sech["depth"], sech["scatter_half_width"], sech["scatter_n"]),
             square_well_spec(well["depth"], well["width"], well["scatter_half_width"],
                              well["scatter_n"]),
             *(sech2_spec(sech["depth"], hw, n) for hw, n in sech["d_boxes"]),
             square_well_spec(well["depth"], well["width"], *well["corner_box"])]
    return [b for spec in specs for op in build_schrodinger_1d(spec).operators
            for b in op.parity_blocks if b.free_chain is None]


def test_selected_eigenvalues_match_scipys_bisection_bit_for_bit():
    # eigenvalues(lo, hi) against scipy's eigh_tridiagonal by index, one
    # index at a time: the values beside each probe the shipped runs read,
    # and every 97th index, on every shipped block that is not a free chain
    blocks = _shipped_band_blocks()
    assert len(blocks) == 10
    for b in blocks:
        ranges = [(k, k + 1) for k in (*range(0, b.dim, 97), b.dim - 1)]
        for probe in (0.62, 1.0, 1.19):
            m = b.count_below(probe)
            ranges.append((max(m - 1, 0), min(m + 1, b.dim)))
        for lo, hi in ranges:
            oracle = [sla.eigh_tridiagonal(b.diagonal, b.offdiagonal, eigvals_only=True,
                                           select="i", select_range=(k, k)) for k in range(lo, hi)]
            assert np.array_equal(b.eigenvalues(lo, hi), np.concatenate(oracle))


@pytest.mark.parametrize("d0", (0.7, -3.0, 0.0))
def test_one_site_bands(d0):
    # no offdiagonal: the count steps just above d0, and the one eigenpair
    # is (d0, [1])
    bands = TridiagonalBands(np.array([d0]), np.empty(0))
    above = np.nextafter(d0, np.inf)
    assert [bands.count_below(x) for x in (d0 - 1.0, d0, above, d0 + 1.0)] == [0, 0, 1, 1]
    assert np.array_equal(bands.eigenvalues(), [d0])
    dec = bands.eigenpairs(0, 1)
    assert np.array_equal(dec.eigenvalues, [d0]) and np.array_equal(dec.eigenvectors, [[1.0]])


def test_selected_eigenvalues_do_not_depend_on_the_range():
    rng = np.random.default_rng(4)
    bands = _random_bands(rng, 80, False)
    w = sla.eigh_tridiagonal(bands.diagonal, bands.offdiagonal, eigvals_only=True)
    pair = bands.eigenvalues(10, 12)
    assert np.array_equal(pair, [bands.eigenvalues(10, 11)[0], bands.eigenvalues(11, 12)[0]])
    assert np.max(np.abs(pair - w[10:12])) <= 1e-12 * np.max(np.abs(w))
    assert bands.eigenvalues(5, 5).shape == (0,)


@pytest.mark.parametrize("t", (-100.0, 3.0))
@pytest.mark.parametrize("n", (300, 301))
def test_free_chain_block_counts_match_their_sorted_spectrum(n, t):
    # a free chain and its blocks count their closed-form eigenvalues below
    # x, which agree with the sorted spectrum of the banded solver, on n
    # odd and even and both signs of the link
    bands = TridiagonalBands(np.full(n, 2.0 * abs(t)), np.full(n - 1, t))
    w = sla.eigh_tridiagonal(bands.diagonal, bands.offdiagonal, eigvals_only=True)
    x = np.concatenate([np.linspace(w[0] - 1.0, w[-1] + 1.0, 997), w + 1e-9, w - 1e-9])
    x = x[np.min(np.abs(x[:, None] - w[None, :]), axis=1) > 1e-10]
    assert [bands.count_below(xi) for xi in x] == np.searchsorted(w, x).tolist()
    for b in bands.parity_blocks:
        wb = sla.eigh_tridiagonal(b.diagonal, b.offdiagonal, eigvals_only=True)
        assert [b.count_below(xi) for xi in x] == np.searchsorted(wb, x).tolist()
        for k in (0, b.dim // 2, b.dim - 1):
            # the count steps at the closed-form value itself
            value = b.eigenvalues(k, k + 1)[0]
            assert (b.count_below(value), b.count_below(np.nextafter(value, np.inf))) == (k, k + 1)


def _band_norm1(bands):
    e = np.abs(bands.offdiagonal)
    return np.max(np.abs(bands.diagonal) + np.r_[e, 0.0] + np.r_[0.0, e])


def _band_times(bands, v):
    tv = bands.diagonal[:, None] * v
    tv[:-1] += bands.offdiagonal[:, None] * v[1:]
    tv[1:] += bands.offdiagonal[:, None] * v[:-1]
    return tv


def _assert_eigenpairs_match_the_bisection_oracle(bands, lo, hi, sine=1e-12):
    """The eigenpairs against eigh_tridiagonal's tol-0 bisection and inverse
    iteration: span sine <= ``sine``, Ritz values within 2 eps ||T||_1,
    orthonormal to 1e-14, and every pair within its certificate."""
    dec = bands.eigenpairs(lo, hi)
    w, v = sla.eigh_tridiagonal(bands.diagonal, bands.offdiagonal,
                                select="i", select_range=(lo, hi - 1))
    u, scale = dec.eigenvectors, _band_norm1(bands)
    assert u.shape == (bands.dim, hi - lo)
    assert np.max(np.abs(dec.eigenvalues - w)) <= 2.0 * np.finfo(float).eps * scale
    assert np.linalg.norm(v - u @ (u.T @ v), 2) <= sine
    assert np.linalg.norm(u.T @ u - np.eye(hi - lo), 2) <= 1e-14
    resid = np.linalg.norm(_band_times(bands, u) - u * dec.eigenvalues, axis=0)
    assert np.max(resid) <= linalg.BAND_RESIDUAL_TOL * scale
    return dec


@pytest.fixture(scope="module")
def shipped_h_blocks():
    """H's even and odd blocks on the shipped sech^2 and square-well boxes."""
    return {name: preset_pair(name).operators[1].parity_blocks
            for name in ("schrodinger:sech2", "schrodinger:square-well")}


@pytest.mark.parametrize("probe", (0.62, 1.0, 1.19))
def test_banded_eigenpairs_match_the_oracle_on_the_shipped_blocks(shipped_h_blocks, probe):
    # the probe step's solve (0, m) on each block, and ranges with lo > 0
    for blocks in shipped_h_blocks.values():
        for b in blocks:
            m = b.count_below(probe)
            for lo, hi in ((0, m), (m // 2, m + 3)):
                _assert_eigenpairs_match_the_bisection_oracle(b, lo, hi)


def test_banded_eigenpairs_match_the_oracle_on_edge_bands():
    rng = np.random.default_rng(21)
    # n = 1 (no offdiagonal for dstebz) and n = 2
    for n in (1, 2):
        bands = _random_bands(rng, n, False)
        for lo, hi in ((0, n), (n - 1, n)):
            _assert_eigenpairs_match_the_bisection_oracle(bands, lo, hi)
    # a zero link: dstebz and dstein work on the two pieces
    split = _random_bands(rng, 200, True)
    for lo, hi in ((0, 200), (50, 150), (90, 110)):
        _assert_eigenpairs_match_the_bisection_oracle(split, lo, hi)
    # Wilkinson's W21+: its top eigenvalues come in pairs 1e-13 apart; each
    # range holds both members of every pair it touches
    w21 = TridiagonalBands(np.abs(np.arange(21) - 10.0), np.ones(20))
    for lo, hi in ((0, 21), (0, 19), (17, 21), (19, 21)):
        dec = _assert_eigenpairs_match_the_bisection_oracle(w21, lo, hi)
    assert np.min(np.diff(dec.eigenvalues)) < 1e-12


def _spy_dstein(monkeypatch):
    """Record the number of shifts of every dstein call."""
    shifts, original = [], linalg.lapack.dstein

    def spy(d, e, w, *args):
        shifts.append(len(w))
        return original(d, e, w, *args)

    monkeypatch.setattr(linalg.lapack, "dstein", spy)
    return shifts


def test_banded_eigenpairs_rerun_the_failing_pairs(shipped_h_blocks, monkeypatch):
    # shifts bisected only to 1e-5 ||T||_1 leave pairs over the certificate;
    # a second pass on the whole range, bisected to full accuracy, brings
    # every pair within it.  A pair may sit anywhere under the certificate,
    # so the span is held to the sin-theta bound the certificate gives
    # (Davis and Kahan): the residuals' Frobenius norm over the gap to the
    # next eigenvalue
    bands = shipped_h_blocks["schrodinger:sech2"][0]
    m = bands.count_below(1.0)
    monkeypatch.setattr(linalg, "BAND_BISECTION_TOL", 1e-5)
    shifts = _spy_dstein(monkeypatch)
    gap = bands.eigenvalues(m, m + 1)[0] - bands.eigenvalues(m - 1, m)[0]
    sine = np.sqrt(m) * linalg.BAND_RESIDUAL_TOL * _band_norm1(bands) / gap
    _assert_eigenpairs_match_the_bisection_oracle(bands, 0, m, sine)
    assert shifts == [m, m]


@pytest.mark.parametrize("seed", (0, 2, 10))
def test_banded_eigenpairs_on_graded_bands(monkeypatch, seed):
    # diagonal entries over eight decades, links scaled to their geometric
    # mean: BAND_BISECTION_TOL is relative to ||T||_1, so at 1e-8 the
    # shifts of the small eigenvalues are too coarse for dstein, and the
    # lower two thirds of the spectrum miss the certificate on the first
    # pass; the second, at full accuracy, meets the oracle
    n = 801
    rng = np.random.default_rng(seed)
    d = np.logspace(0, 8, n) * rng.uniform(0.5, 1.5, n)
    bands = TridiagonalBands(d, rng.standard_normal(n - 1) * np.sqrt(d[:-1] * d[1:]) * 0.3)
    monkeypatch.setattr(linalg, "BAND_BISECTION_TOL", 1e-8)
    shifts = _spy_dstein(monkeypatch)
    for lo, hi in ((0, 267), (267, 534)):
        _assert_eigenpairs_match_the_bisection_oracle(bands, lo, hi)
    assert shifts == [267] * 4


def test_eigenpair_ranges_are_validated():
    # 0 <= lo <= hi <= n on a free chain, other bands, a parity block and a
    # dense operator alike; lo == hi gives an empty result
    chain = TridiagonalBands(np.full(5, 2.0), np.full(4, -1.0))
    bands = _random_bands(np.random.default_rng(3), 7, False)
    block = _mirror_bands(9).parity_blocks[1]
    dense = build_krein(16, 10.0).operators[0]
    solvers = [(chain.eigenpairs, 5), (chain.eigenvalues, 5), (bands.eigenpairs, 7),
               (bands.eigenvalues, 7), (block.eigenpairs, 4), (block.eigenvalues, 4),
               (dense.eigenpairs, 16), (dense.eigenvalues, 16)]
    for solve, n in solvers:
        for lo, hi in ((3, n + 5), (0, n + 1), (-1, 1), (2, 1)):
            with pytest.raises(ValueError, match=rf"^index range \[{lo}, {hi}\) outside 0\.\.{n}$"):
                solve(lo, hi)
        empty = solve(2, 2)
        assert len(getattr(empty, "eigenvalues", empty)) == 0


@pytest.mark.parametrize("name", ("schrodinger:sech2", "schrodinger:square-well"))
def test_dense_operator_answers_the_band_queries(name):
    # the dense matrix of H's bands, wrapped, answers the band format's
    # index queries from its eigensystem: the same counts, values to
    # roundoff and spans on the probe step's ranges, the same range
    # contract, and no closed form or parity blocks
    bands = preset_pair(name, n=399).operators[1]
    dense = DenseHermitian(bands.dense())
    n, scale = bands.dim, _band_norm1(bands)
    assert dense.dim == n == 399 and np.array_equal(dense.dense(), bands.dense())
    assert dense.free_chain is None and dense.parity_blocks is None
    assert bands.free_chain is None and bands.parity_blocks is not None
    w = bands.eigenvalues()
    for x in (w[0] - 1.0, *(0.5 * (w[:-1] + w[1:]))[::23], w[-1] + 1.0):
        assert dense.count_below(x) == bands.count_below(x)
        assert dense.shifted(0.5).count_below(x - 0.5) == dense.count_below(x)
    assert np.array_equal(dense.shifted(0.5).dense(), bands.shifted(0.5).dense())
    assert np.max(np.abs(dense.eigenvalues() - w)) <= 1e-12 * scale
    for probe in (0.62, 1.19):
        m = bands.count_below(probe)
        for lo, hi in ((0, m), (m, n), (m - 1, m + 1)):
            values = dense.eigenvalues(lo, hi)
            assert np.max(np.abs(values - bands.eigenvalues(lo, hi))) <= 1e-12 * scale
            e, f = dense.eigenpairs(lo, hi), bands.eigenpairs(lo, hi)
            assert np.array_equal(e.eigenvalues, values)
            assert e.eigenvectors.shape == f.eigenvectors.shape == (n, hi - lo)
            u, v = e.eigenvectors, f.eigenvectors
            assert np.linalg.norm(v - u @ (u.T @ v), 2) <= 1e-12
    for solver in (dense, bands):
        for lo, hi in ((3, n + 5), (0, n + 1), (-1, 1), (2, 1)):
            for query in (solver.eigenpairs, solver.eigenvalues):
                with pytest.raises(ValueError,
                                   match=rf"^index range \[{lo}, {hi}\) outside 0\.\.{n}$"):
                    query(lo, hi)
        assert solver.eigenpairs(7, 7).eigenvectors.shape == (n, 0)
        assert solver.eigenvalues(7, 7).shape == (0,)


def test_banded_eigenpairs_raise_on_a_failed_bisection(monkeypatch):
    # dstebz's info 4 (no eigenvalue computed) is a LinAlgError, not an
    # empty result
    bands = _random_bands(np.random.default_rng(6), 20, False)
    original = linalg.lapack.dstebz

    def failed(*args):
        _, w, block, split, _ = original(*args)
        return 0, w, block, split, 4

    monkeypatch.setattr(linalg.lapack, "dstebz", failed)
    with pytest.raises(np.linalg.LinAlgError, match=r"dstebz failed \(info 4, 0 of 5"):
        bands.eigenpairs(2, 7)
    # and so is a failed Sturm count, dstebz's range-1 call
    with pytest.raises(np.linalg.LinAlgError, match=r"^dstebz count failed \(info 4\)$"):
        bands.count_below(0.3)


def test_banded_eigenpairs_raise_the_residual_error(monkeypatch):
    # a certificate no pair can meet: one second pass, then ResidualError
    # carrying the worst residual and the bound
    rng = np.random.default_rng(5)
    bands = _random_bands(rng, 40, False)
    monkeypatch.setattr(linalg, "BAND_RESIDUAL_TOL", 0.0)
    shifts = _spy_dstein(monkeypatch)
    with pytest.raises(ResidualError, match="^banded eigenpair residual .* exceeds contract") as err:
        bands.eigenpairs(3, 9)
    assert shifts == [6, 6]
    assert err.value.residual > err.value.bound == 0.0
    assert isinstance(err.value, ProjdiffError) and isinstance(err.value, ArithmeticError)


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


def test_probe_gaps_ties_empty_spectra_and_non_finite_probes():
    # two spectra equally close to the probe: the nearest eigenvalue is the
    # first one's, whichever side of the probe it lies on
    for first, second in ((1e-10, -1e-10), (-1e-10, 1e-10)):
        with pytest.raises(GapViolationError) as err:
            probe_gaps(0.0, [np.array([2.0, first]), np.empty(0), np.array([second])])
        assert err.value.nearest == first
    assert probe_gaps(0.0, [np.array([-0.5, 0.5]), np.array([0.5])]) == [0.5, 0.5]
    # an empty spectrum is infinitely far, alone or among others
    assert probe_gaps(0.0, [np.empty(0)]) == [np.inf]
    assert probe_gaps(0.0, [np.empty(0), [0.25]]) == [np.inf, 0.25]
    for probe in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^probe .* is not finite$"):
            probe_gaps(probe, [np.array([1.0])])


def test_svd_zero_and_rank_one():
    s = svd(np.zeros((3, 4)))
    assert np.allclose(s, 0.0)
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    s = svd(np.outer(u, v))
    assert abs(s[0] - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-12
    assert abs(s[1]) < 1e-12


def test_svd_squares_match_gram_eigenvalues():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = svd(m)
    assert np.all(np.diff(s) <= 0.0)
    gram = herm_eig(m.conj().T @ m).eigenvalues
    assert np.allclose(np.sort(s ** 2), gram, atol=1e-10 * max(gram))


def _contract_stack(rng, floor, tol, complex_):
    """(R, X) stacks of one shape whose exact ratio ||R||_2 / (tol *
    max(floor, ||X||_2)) is far below, near and at 1 and beyond it, for a
    random R, whose Frobenius bound is loose, and a rank-one R, whose
    Frobenius bound is tight, so near ties reach the exact 2-norms."""
    m, n = rng.integers(2, 9, size=2)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    rs, xs = [], []
    for ratio in (0.3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6, 3.0):
        for rank_one in (False, True):
            # ||X||_2 from 1e-3 to 1e3, so that floor 1 decides some cases
            x = draw(m, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            r = np.outer(draw(m), draw(n)) if rank_one else draw(m, n)
            rs.append(r * (ratio * tol * max(floor, norm2(x)) / norm2(r)))
            xs.append(x)
    return np.array(rs), np.array(xs)


def test_residual_within_is_the_exact_decision():
    rng = np.random.default_rng(43)
    decided = undecided = 0
    for tol in (1e-12, 1e-9, 0.5):
        for floor in (0.0, 1.0):
            for complex_ in (False, True):
                r, x = _contract_stack(rng, floor, tol, complex_)
                holds, rn, xn = residual_within(r, x, tol, floor)
                assert holds.shape == rn.shape == xn.shape == (len(r),)
                for i, (ri, xi) in enumerate(zip(r, x)):
                    exact_r, exact_x = norm2(ri), norm2(xi)
                    assert holds[i] == (exact_r <= tol * max(floor, exact_x))
                    # a matrix alone gives the stack's values, as scalars
                    alone = residual_within(ri, xi, tol, floor)
                    assert all(np.ndim(v) == 0 for v in alone)
                    assert alone == (holds[i], rn[i], xn[i])
                    if (rn[i], xn[i]) == (exact_r, exact_x):
                        undecided += 1
                        continue
                    # the bound decided: it returns its own two bounds
                    decided += 1
                    assert rn[i] == pytest.approx(np.linalg.norm(ri), rel=1e-14)
                    assert xn[i] == np.max(np.linalg.norm(xi, axis=0))
                    assert holds[i] and rn[i] <= (1.0 - 1e-8) * tol * max(floor, xn[i])
    assert min(decided, undecided) > 0


def test_residual_within_takes_norm2_of_undecided_matrices_only(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6, 6))
    r = 1e-3 * x
    r[1] = 0.9 * x[1]
    svds = spy_svd(monkeypatch)
    holds, _, _ = residual_within(r, x, 0.5)
    # the middle matrix alone: its Frobenius bound exceeds the contract
    assert svds == [(1, 6, 6), (1, 6, 6)]
    assert holds.tolist() == [True, False, True]
    residual_within(np.zeros((3, 0, 0)), np.zeros((3, 0, 0)), 0.5)
    residual_within(r[0], x[0], 0.5)
    assert len(svds) == 2
    residual_within(r[1], x[1], 0.5)
    assert svds[2:] == [(6, 6), (6, 6)]


def test_norm2_is_the_largest_singular_value_of_each_matrix():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))
    assert svd(stack).shape == (3, 4)
    assert np.array_equal(norm2(stack), [norm2(m) for m in stack])
    for m in stack:
        assert norm2(m) == np.linalg.norm(m, 2) == svd(m)[0]
    for empty in (np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((2, 0, 0))):
        assert np.all(norm2(empty) == 0.0)
    for bad in (np.ones(3), np.array([[1.0, np.nan]]), np.array([[np.inf]])):
        with pytest.raises(ValueError):
            svd(bad)


def test_hermitian_norm_matches_the_svd_norm():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    herm = 0.5 * (m + m.conj().T)
    v = rng.standard_normal((9, 1))
    cases = [herm, herm - 10.0 * np.eye(9), herm + 10.0 * np.eye(9), -v @ v.T,
             np.zeros((3, 3)), np.array([[2.5]]), np.zeros((0, 0))]
    for case in cases:
        assert hermitian_norm(case) == pytest.approx(
            np.linalg.norm(case, 2), rel=1e-13, abs=1e-300)
    # a stack gives one norm per matrix; so does a stack of empty matrices
    stack = np.array([herm[:4, :4], -v[:4] @ v[:4].T, np.eye(4)])
    assert hermitian_norm(stack) == pytest.approx(
        np.linalg.norm(stack, 2, axis=(-2, -1)), rel=1e-13)
    assert np.array_equal(hermitian_norm(np.zeros((3, 0, 0))), np.zeros(3))


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
    two_norms = spy_svd(monkeypatch)
    sylvester_solve(a, b, c)
    # the residual's Frobenius bound accepts: no 2-norm is taken
    assert two_norms == []


def test_sylvester_residual_check_rejects_a_spoiled_solution():
    # the check passes the quotient at once; a spoiled X goes to the exact
    # 2-norms, which accept a residual between the Frobenius bound and the
    # contract and raise the contract's ArithmeticError beyond it
    a, b, c = _diagonal_sylvester_case(1)
    x = sylvester_solve(a, b, c)
    scale = linalg.SYLVESTER_RESIDUAL_TOL * (np.max(np.abs(a)) + np.max(np.abs(b)))
    linalg._check_sylvester_residual(a, b, c, x, scale)
    colmax, two = np.max(np.linalg.norm(x, axis=0)), np.linalg.norm(x, 2)
    assert two > 1.01 * colmax
    for resid, passes in ((0.5 * scale * (colmax + two), True), (10.0 * scale * two, False)):
        spoiled = x.copy()
        spoiled[2, 1] += resid / (a[2] - b[1])
        exact = np.linalg.norm(a[:, None] * spoiled - spoiled * b[None, :] - c, 2)
        assert exact == pytest.approx(resid, rel=1e-6)
        if passes:
            linalg._check_sylvester_residual(a, b, c, spoiled, scale)
            continue
        bound = scale * np.linalg.norm(spoiled, 2)
        with pytest.raises(ArithmeticError,
                           match=f"^sylvester residual {exact:.3e} exceeds contract {bound:.3e}$"):
            linalg._check_sylvester_residual(a, b, c, spoiled, scale)


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
