import numpy as np
import pytest

from projdiff import linalg
from projdiff.errors import GapViolationError
from projdiff.linalg import TridiagonalBands, herm_eig
from projdiff import models, projections, scattering
from projdiff.harness import ExperimentConfig, run_experiment
from projdiff.models import (build_finite_pair, build_krein, build_schrodinger_1d,
                             random_gapped_pair, sech2_spec, square_well_spec,
                             thresholds)
from projdiff.projections import (corner_spectrum, dsquared_block_check,
                                  fill_metrics, hausdorff_distance,
                                  interval_hausdorff, projection_difference,
                                  spectral_projection)

from oracles import dense_eigensystems


def diag_pair(d0, v):
    h0 = np.diag(np.asarray(d0, dtype=complex))
    vm = np.diag(np.asarray(v, dtype=float))
    w, u = np.linalg.eigh(vm)
    g = (u * np.sqrt(np.abs(w))) @ u.conj().T
    v0 = (u * np.sign(w)) @ u.conj().T
    return build_finite_pair(h0, g, v0)


def test_spectral_projection_trivial_cases():
    dec = herm_eig(np.diag([0.0, 1.0]))
    assert np.allclose(spectral_projection(dec, -1.0), 0.0)
    assert np.allclose(spectral_projection(dec, 2.0), np.eye(2))
    assert np.allclose(spectral_projection(dec, 0.5), np.diag([1.0, 0.0]))


def test_spectral_projection_collision():
    dec = herm_eig(np.diag([0.0, 1.0]))
    with pytest.raises(GapViolationError) as err:
        spectral_projection(dec, 1.0 + 1e-12)
    assert err.value.nearest == pytest.approx(1.0)


def test_projection_properties():
    pair = random_gapped_pair(10, 3, seed=42)
    e0, _ = dense_eigensystems(pair)
    p = spectral_projection(e0, 0.0)
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10
    assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10


def test_difference_zero_perturbation():
    pair = diag_pair([-1.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    rep = projection_difference(pair, 0.5)
    assert np.allclose(rep.spectrum, 0.0, atol=1e-12)
    assert rep.dim_plus == rep.dim_minus == 0
    assert rep.pairing_defect == 0.0


def test_difference_swapped_projections():
    # H0 = diag(-1, 1), H = diag(1, -1): V = diag(2, -2)
    pair = diag_pair([-1.0, 1.0], [2.0, -2.0])
    rep = projection_difference(pair, 0.0)
    assert np.allclose(rep.spectrum, [-1.0, 1.0], atol=1e-12)
    assert rep.dim_plus == 1 and rep.dim_minus == 1


def test_difference_rotated_projection_oracle():
    # E0 projects on e1, E on (cos a, sin a): spectrum of E - E0 is +-sin(a)
    angle = 0.3
    h0 = np.diag([-1.0, 1.0]).astype(complex)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    h = rot @ h0 @ rot.T
    v = h - h0
    w, u = np.linalg.eigh(v)
    pair = build_finite_pair(h0, (u * np.sqrt(np.abs(w))) @ u.T, (u * np.sign(w)) @ u.T)
    rep = projection_difference(pair, 0.0)
    assert np.allclose(rep.spectrum, [-np.sin(angle), np.sin(angle)], atol=1e-12)


def test_difference_spectrum_in_unit_interval_and_symmetric():
    pair = random_gapped_pair(16, 4, seed=2)
    rep = projection_difference(pair, 0.0)
    assert rep.spectrum.min() >= -1.0 - 1e-10
    assert rep.spectrum.max() <= 1.0 + 1e-10
    assert rep.pairing_defect <= 1e-8


def test_swap_eigenvalue_stays_in_the_fill_metrics():
    # D's spectrum lies in [-1, 1] exactly.  On krein at probe 0.33 roundoff
    # put the -1 swap eigenvalue at -1 - 1.3e-15, where the fill metrics,
    # which keep values in [-1, 1], dropped it and read max_gap 0.350; the
    # spectrum is clipped, so the swap bounds the first gap, 0.579
    payload = run_experiment(ExperimentConfig(model="krein", probes=(0.33,))).body
    diff = payload["probes"][0]["difference"]
    assert diff["extremes"][0] == -1.0 and diff["dim_minus"] == 1
    assert diff["max_gap"] == pytest.approx(0.579, abs=1e-3)
    for probe in (0.1, 0.2, 0.33, 0.5):
        spec = projection_difference(build_krein(400, 40.0), probe).spectrum
        assert -1.0 <= spec.min() and spec.max() <= 1.0


def test_dsquared_blocks():
    pair = diag_pair([-1.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert dsquared_block_check(pair, 0.5) <= 1e-14
    krein = build_krein(128, 20.0)
    assert dsquared_block_check(krein, 0.5) <= 1e-10 * krein.dim
    rnd = random_gapped_pair(8, 3, seed=17)
    assert dsquared_block_check(rnd, 0.0) <= 1e-10 * rnd.dim


@pytest.mark.parametrize("build, probe", [
    (lambda: random_gapped_pair(24, 3, 5, gap=1e-3), 0.0),
    (lambda: build_krein(200, 40.0), 0.5),
    (lambda: build_schrodinger_1d(sech2_spec(1.0, 20.0, 399)), 0.7),
])
def test_dsquared_block_check_reads_the_difference_report(build, probe):
    # one principal-angle step per probe: the D^2 check is the residual
    # the difference spectrum reports, bit for bit
    pair = build()
    assert dsquared_block_check(pair, probe) == projection_difference(pair, probe).dsquared_residual


def _spoil_one_basis(monkeypatch, block, spoiled):
    """Make ``probe_basis`` scale the first column of U0 (``spoiled`` = 0)
    or U1 (1) of one block by 1 + 1e-6."""
    original = models.OperatorPair.probe_basis

    def spoil(self, p, sides=None):
        gaps, side, bases = original(self, p, sides)
        bases = [list(b) for b in bases]
        e = bases[block][spoiled]
        u = e.eigenvectors.copy()
        u[:, 0] *= 1.0 + 1e-6
        bases[block][spoiled] = linalg.SpectralDecomposition(e.eigenvalues, u)
        return gaps, side, tuple(map(tuple, bases))

    monkeypatch.setattr(models.OperatorPair, "probe_basis", spoil)


@pytest.mark.parametrize("spoiled", (0, 1))
@pytest.mark.parametrize("build, probe", [
    (lambda: build_krein(200, 40.0), 0.5),
    (lambda: random_gapped_pair(24, 3, 5), 0.0),
])
def test_dsquared_residual_sees_a_defect_in_either_basis(monkeypatch, build, probe, spoiled):
    # the block identity compressed to each basis is an orthonormality
    # check of both: a first column of U0 or of U1 scaled by 1 + 1e-6
    # moves the residual from roundoff to about 2e-6
    pair = build()
    assert projection_difference(pair, probe).dsquared_residual <= 1e-13
    _spoil_one_basis(monkeypatch, 0, spoiled)
    assert projection_difference(pair, probe).dsquared_residual >= 1e-6


@pytest.mark.parametrize("spoiled", (0, 1))
@pytest.mark.parametrize("block", (0, 1))
def test_dsquared_residual_sees_a_defect_in_one_parity_block(monkeypatch, block, spoiled):
    # on a mirror-symmetric pair the residual is the larger of the two
    # blocks': a defect in either basis of either block shows
    pair = build_schrodinger_1d(sech2_spec(1.0, 20.0, 399))
    assert len(pair.probe_basis(0.7)[2]) == 2
    assert projection_difference(pair, 0.7).dsquared_residual <= 1e-13
    _spoil_one_basis(monkeypatch, block, spoiled)
    assert projection_difference(pair, 0.7).dsquared_residual >= 1e-6


def test_corner_zero_perturbation():
    pair = diag_pair([-1.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    spec = corner_spectrum(pair, 0.5, sign=+1)
    assert np.allclose(spec, 0.0, atol=1e-12)


def test_corner_swapped_example():
    pair = diag_pair([-1.0, 1.0], [2.0, -2.0])
    spec = corner_spectrum(pair, 0.0, sign=+1)
    assert spec.max() == pytest.approx(1.0, abs=1e-12)


def test_corner_values_in_unit_interval():
    pair = random_gapped_pair(14, 3, seed=5)
    for sign in (+1, -1):
        spec = corner_spectrum(pair, 0.0, sign=sign)
        assert spec.min() >= -1e-10 and spec.max() <= 1.0 + 1e-10


def test_corner_matches_squared_difference():
    # nonzero corner eigenvalues are squares of the difference spectrum
    pair = random_gapped_pair(10, 3, seed=23)
    rep = projection_difference(pair, 0.0)
    mid = rep.spectrum[np.abs(rep.spectrum) > 1e-8]
    corner_plus = corner_spectrum(pair, 0.0, +1)
    corner_minus = corner_spectrum(pair, 0.0, -1)
    squares = np.sort(np.concatenate([corner_plus, corner_minus]))
    squares = squares[squares > 1e-8]
    assert np.allclose(np.sort(mid[mid != 0] ** 2), squares, atol=1e-9)


def test_krein_corner_fill():
    # the corner spectrum of the resolvent model reaches well into (0, 1)
    spec = corner_spectrum(build_krein(400, 40.0), 0.5, sign=+1)
    assert spec.max() >= 0.55


def test_gap_violation_raises():
    pair = diag_pair([0.5, 1.0], [0.0, 0.0])
    with pytest.raises(GapViolationError):
        projection_difference(pair, 0.5)


def test_fill_and_hausdorff_helpers():
    vals = np.array([-0.9, -0.3, 0.1, 0.8])
    max_gap, cover = fill_metrics(vals, -1.0, 1.0)
    assert max_gap == pytest.approx(0.7)
    assert cover == pytest.approx(0.35)
    assert hausdorff_distance([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert hausdorff_distance([0.0], [2.0]) == 2.0
    assert interval_hausdorff(np.array([0.0, 1.5]), -1.0, 1.0) == pytest.approx(1.0)
    # a lone value bounds no gap, so it fills no more than none: a 1 x 1
    # pair's D at probe 0 is [1.0]
    assert fill_metrics(np.array([]), -1.0, 1.0) == (2.0, 2.0)
    assert fill_metrics(np.array([0.2]), -1.0, 1.0) == (2.0, pytest.approx(1.2))
    assert fill_metrics(np.array([0.5]), -0.95, 0.95)[0] == pytest.approx(1.9)
    rep = projection_difference(random_gapped_pair(1, 1, seed=0), 0.0)
    assert rep.spectrum.tolist() == [1.0]
    assert (rep.max_gap, rep.coverage_distance) == (2.0, 2.0)


def test_fill_metrics_takes_a_list_as_its_siblings_do():
    assert fill_metrics([0.1, 0.5], -1.0, 1.0) == fill_metrics(np.array([0.1, 0.5]), -1.0, 1.0)
    assert fill_metrics([], -1.0, 1.0) == (2.0, 2.0)
    assert interval_hausdorff([0.1, 0.5], -1.0, 1.0) == pytest.approx(1.1)


def test_interval_hausdorff_of_an_empty_set_is_the_interval_length():
    assert interval_hausdorff(np.array([]), -0.5, 1.0) == 1.5
    assert interval_hausdorff([], 1.0, 1.0) == 0.0


def _float_hausdorff(a, b):
    """The real-line Hausdorff distance with its points cast to float."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return np.inf
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def test_hausdorff_distance_of_complex_points_matches_the_hand_formula():
    rng = np.random.default_rng(8)
    for m, k in ((1, 1), (1, 4), (5, 3), (7, 7)):
        a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
        b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
        d = np.abs(a[:, None] - b[None, :])
        assert hausdorff_distance(a, b) == float(max(d.min(axis=1).max(),
                                                     d.min(axis=0).max()))
    # a rotation by pi puts every point at distance 2 from its nearest
    assert hausdorff_distance([1j], [-1j]) == 2.0


def test_hausdorff_distance_of_real_points_is_unchanged():
    rng = np.random.default_rng(9)
    cases = [([0.0, 1.0], [0.0, 1.0]), ([0], [2]), (3, [1, 5]), ([], []), ([], [1.0]),
             ([1.0], []), (np.arange(4), np.arange(4) + 0.5),
             (rng.standard_normal(6), rng.standard_normal(9)),
             (rng.standard_normal(1), rng.standard_normal(3))]
    for a, b in cases:
        got, expect = hausdorff_distance(a, b), _float_hausdorff(a, b)
        assert got == expect and type(got) is type(expect), (a, b)


# ---------------------------------------------------------------------------
# the subspace route against the dense n x n formulas
# ---------------------------------------------------------------------------

def dense_difference(pair, probe):
    """Dense oracle: spectrum of P1 - P0 and the n x n D^2 block residual."""
    e0, e1 = dense_eigensystems(pair)
    p0 = spectral_projection(e0, probe)
    p1 = spectral_projection(e1, probe)
    eye = np.eye(pair.dim)
    d = p1 - p0
    rhs = p0 @ (eye - p1) @ p0 + (eye - p0) @ p1 @ (eye - p0)
    return np.sort(np.linalg.eigvalsh(d)), float(np.linalg.norm(d @ d - rhs, 2))


def square_well_box():
    return build_schrodinger_1d(square_well_spec(2.5, 1.0, 20.0, 399))


# (builder, probe, side of the probe the subspace is taken on)
ORACLE_CASES = {
    "krein-above": (lambda: build_krein(200, 40.0), 0.5, +1),
    "sech2-box-below": (lambda: build_schrodinger_1d(sech2_spec(1.0, 38.0, 759)), 1.0, -1),
    "square-well-swap": (square_well_box, 1.0, -1),
    "square-well-above-all": (square_well_box, 1000.0, +1),
    "below-both-spectra": (lambda: build_krein(200, 40.0), -1.0, -1),
    **{f"random-{seed}": (lambda seed=seed: random_gapped_pair(24, 3, seed, gap=1e-3), 0.0, None)
       for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_subspace_difference_matches_dense(case):
    build, probe, side = ORACLE_CASES[case]
    pair = build()
    if side is not None:
        assert pair.probe_basis(probe)[1] == side
    spec, residual = dense_difference(pair, probe)
    rep = projection_difference(pair, probe)
    assert len(rep.spectrum) == pair.dim
    assert np.max(np.abs(rep.spectrum - spec)) <= 1e-12
    assert dsquared_block_check(pair, probe) <= 1e-10 * pair.dim
    assert residual <= 1e-10 * pair.dim


def test_probe_below_both_spectra_gives_zero():
    pair = build_krein(200, 40.0)
    _, side, ((e0, e1),) = pair.probe_basis(-1.0)
    assert e0.eigenvectors.shape == e1.eigenvectors.shape == (pair.dim, 0)
    assert np.array_equal(projection_difference(pair, -1.0).spectrum, np.zeros(pair.dim))
    assert dsquared_block_check(pair, -1.0) == 0.0


def _tridiagonal_pair(n=40, banded=True):
    """Random real tridiagonal h0 and a diagonal coupling, built from its
    bands or, with ``banded`` False, from the same dense matrix."""
    rng = np.random.default_rng(3)
    off = rng.standard_normal(n - 1)
    d = rng.uniform(-2, 2, n)
    h0 = (TridiagonalBands(d, off) if banded
          else np.diag(d) + np.diag(off, -1) + np.diag(off, 1))
    g = np.diag(rng.uniform(0.2, 0.8, n))
    v0 = np.diag(rng.choice([-1.0, 1.0], n))
    return build_finite_pair(h0, g, v0)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_path_selection_follows_the_band(monkeypatch):
    # the storage picks the path: the same tridiagonal matrices run the
    # banded eigensolver and window solve when built from bands, and the
    # dense eigensystems when passed dense
    banded, dense = _tridiagonal_pair(), _tridiagonal_pair(banded=False)
    assert banded.banded and not dense.banded
    assert np.allclose(banded.h, dense.h, atol=1e-15)
    for pair, expect_banded in ((banded, True), (dense, False)):
        eigenpairs = _count_calls(monkeypatch, TridiagonalBands, "eigenpairs")
        windows = _count_calls(monkeypatch, TridiagonalBands, "window")
        dense_eigs = _count_calls(monkeypatch, linalg, "herm_eig")
        projection_difference(pair, 0.1)
        scattering.resolvent_sandwich(pair, 0.1 + 0.05j)
        assert bool(eigenpairs) == bool(windows) == expect_banded
        assert bool(dense_eigs) == (not expect_banded)
        monkeypatch.undo()


def test_banded_eigendata_match_dense():
    for pair in (_tridiagonal_pair(), build_schrodinger_1d(sech2_spec(1.0, 38.0, 759))):
        assert pair.banded
        dense = dense_eigensystems(pair)
        for w, e in zip(pair.eigenvalues, dense):
            assert np.max(np.abs(w - e.eigenvalues)) <= 1e-12 * np.max(np.abs(w))
        for probe in (0.1, 1.0):
            _, side, bases = pair.probe_basis(probe)
            for f, e in zip(pair.unfold(bases), dense):
                keep = e.eigenvalues < probe if side < 0 else e.eigenvalues > probe
                u, v = f.eigenvectors, e.eigenvectors[:, keep]
                assert u.shape == v.shape
                assert np.max(np.abs(np.sort(f.eigenvalues) - e.eigenvalues[keep])) \
                    <= 1e-12 * np.max(np.abs(e.eigenvalues))
                assert np.linalg.norm(u @ u.conj().T - v @ v.conj().T, 2) <= 1e-10


# ---------------------------------------------------------------------------
# corners from the small-side cross-Gram against the dense projections
# ---------------------------------------------------------------------------

def dense_corner(pair, probe, sign):
    """Dense oracle: E0(side) E(opposite) E0(side) on Ran E0(side), from the
    n x n spectral projection of H."""
    e0, e1 = dense_eigensystems(pair)
    keep = e0.eigenvalues > probe if sign > 0 else e0.eigenvalues < probe
    u0 = e0.eigenvectors[:, keep]
    below = spectral_projection(e1, probe)
    inner = below if sign > 0 else np.eye(pair.dim) - below
    compressed = u0.conj().T @ inner @ u0
    return np.sort(np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T)))


def corner_box():
    c = thresholds()["square_well"]
    half_width, n = c["corner_box"]
    return build_schrodinger_1d(square_well_spec(c["depth"], c["width"], half_width, n))


# (pair constructor, probe, small side)
CORNER_CASES = {
    "square-well-box": (square_well_box, 1.0, -1),
    "square-well-corner-box": (corner_box, thresholds()["square_well"]["probe"], -1),
    "square-well-above-all": (square_well_box, 1000.0, +1),
    "krein-400": (lambda: build_krein(400, 40.0), 0.5, +1),
    "below-every-eigenvalue": (lambda: build_krein(200, 40.0), -1.0, -1),
    **{f"random-{seed}": (lambda seed=seed: random_gapped_pair(24, 3, seed, gap=1e-3), 0.0, None)
       for seed in range(6)},
}


@pytest.mark.parametrize("sign", (+1, -1))
@pytest.mark.parametrize("case", sorted(CORNER_CASES))
def test_small_side_corner_matches_dense(case, sign):
    build, probe, side = CORNER_CASES[case]
    pair = build()
    if side is not None:
        assert pair.probe_basis(probe)[1] == side
    spec = corner_spectrum(pair, probe, sign)
    ref = dense_corner(pair, probe, sign)
    assert spec.shape == ref.shape
    assert np.max(np.abs(spec - ref), initial=0.0) <= 1e-12


@pytest.mark.parametrize("build, probe", [
    (lambda: build_krein(400, 40.0), 0.5),
    (lambda: build_schrodinger_1d(sech2_spec(1.0, 20.0, 399)), 0.9),
    (lambda: random_gapped_pair(24, 3, 0), 0.0),
], ids=["krein-400", "sech2-box-399", "random-0"])
def test_corner_is_the_box_identity_quotient(build, probe):
    # for H0 u0 = mu u0 and H u1 = e u1, <u0, u1> = -<u0, V u1> / (mu - e),
    # so the corner E0(above) E(below) E0(above) is Q Q* with
    # Q[mu, e] = -<u0(mu), V u1(e)> / (mu - e), and the product check's
    # Sylvester quotient X = (-W1 V0 W0*) / (e - mu) is -Q*
    pair = build()
    (m0, m1), _ = pair.probe_gaps(probe)
    b0, b1 = pair.operators
    above0, below1 = b0.eigenpairs(m0, pair.dim), b1.eigenpairs(0, m1)
    w0, w1 = (e.eigenvectors.conj().T @ pair.g.conj().T for e in (above0, below1))
    x = linalg.sylvester_solve(below1.eigenvalues - probe, above0.eigenvalues - probe,
                               -w1 @ pair.v0 @ w0.conj().T)
    squares = np.linalg.svd(x, compute_uv=False) ** 2
    expected = np.sort(np.concatenate([squares, np.zeros(pair.dim - m0 - len(squares))]))
    assert np.max(np.abs(corner_spectrum(pair, probe, +1) - expected)) <= 1e-12


def test_corner_sign_checked_before_any_eigensolve(monkeypatch):
    for pair in (random_gapped_pair(10, 3, seed=4), square_well_box()):
        eigs = _count_calls(monkeypatch, linalg, "herm_eig")
        band_eigs = _count_calls(monkeypatch, TridiagonalBands, "eigenvalues")
        with pytest.raises(ValueError, match="sign"):
            corner_spectrum(pair, 0.5, sign=0)
        assert eigs == [] and band_eigs == []
        monkeypatch.undo()


def test_band_corner_forms_no_dense_matrix(monkeypatch):
    # a band pair's corners come from its selected banded eigenvectors
    pair = corner_box()
    eigs = _count_calls(monkeypatch, linalg, "herm_eig")
    spec = corner_spectrum(pair, 1.0, +1)
    assert eigs == [] and "_dense" not in pair.__dict__
    assert spec.max() == pytest.approx(0.293925, abs=1e-6)


@pytest.mark.parametrize("sign", (+1, -1))
@pytest.mark.parametrize("case", ["krein-400", "square-well-box"])
def test_corner_reads_one_difference_report(monkeypatch, case, sign):
    # a corner is read off one D report: the squares of D's sines of sign
    # ``sign``, bit for bit, padded with zeros to dim Ran E0(side); the two
    # cases have opposite small sides, so both the s0 and the s1 corner run
    build, probe, _ = CORNER_CASES[case]
    pair = build()
    reports = []
    original = projection_difference

    def spy(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(projections, "projection_difference", spy)
    spec = corner_spectrum(pair, probe, sign)
    assert len(reports) == 1
    rep = reports[0]
    nonzero = np.sort(rep.sines[sign * rep.sines > 0] ** 2)
    assert np.array_equal(spec[len(spec) - len(nonzero):], nonzero)
    m0 = rep.counts[0]
    assert len(spec) == (m0 if sign < 0 else pair.dim - m0)
    assert rep.counts == pair.probe_gaps(probe)[0]


def _gap_eigenvalues(pair, k, index):
    """Eigenvalue ``index`` of operator ``k`` as the probe-gap check reads
    it: from the dense spectrum, or for a band operator from its closed form
    or its selected banded solve.  On a mirror-symmetric pair these are
    eigenvalue index // 2 of each parity block, one value per block.  Each
    matches the full spectrum to roundoff relative to its largest value."""
    if not pair.banded:
        return [pair.eigenvalues[k][index]]
    full = pair.eigenvalues[k]
    if pair.parity_blocks is None:
        w = pair.operators[k].eigenvalues(index, index + 1)[0]
        assert w == pytest.approx(full[index], rel=1e-12)
        return [w]
    values = [ops[k].eigenvalues(index // 2, index // 2 + 1)[0] for ops in pair.parity_blocks]
    for w in values:
        assert np.min(np.abs(full - w)) <= 1e-12 * np.max(np.abs(full))
    return values


def test_corner_rejects_a_probe_on_an_eigenvalue():
    for pair in (random_gapped_pair(10, 3, seed=4), square_well_box()):
        for k in (0, 1):
            for w in _gap_eigenvalues(pair, k, 3):
                for sign in (+1, -1):
                    with pytest.raises(GapViolationError) as err:
                        corner_spectrum(pair, w + 1e-12, sign)
                    assert err.value.nearest == w


def well_pair(n, t, centre=0.5, depth=-3.0, diagonal=None):
    """A free chain H0 (diagonal 2|t|, link t, spectrum in [0, 4|t|]) and
    H = H0 + V with a Gaussian well (``depth`` < 0) or barrier V centred at
    site centre * (n - 1): both mirror-symmetric at the default centre.
    ``diagonal`` replaces H0's diagonal."""
    v = depth * np.exp(-((np.arange(n) - centre * (n - 1)) / 6.0) ** 2)
    d = np.full(n, 2.0 * abs(t)) if diagonal is None else diagonal
    h0 = TridiagonalBands(d, np.full(n - 1, float(t)))
    return build_finite_pair(h0, np.diag(np.sqrt(np.abs(v))), np.sign(depth) * np.eye(n))


def _unsplit(pair):
    """``pair`` with its parity blocks set aside (the cached property
    filled with None), so its probe step runs on the whole bands."""
    pair.__dict__["parity_blocks"] = None
    return pair


@pytest.mark.parametrize("depth, probe", [(-3.0, 1.3), (-3.0, 3.1), (3.0, 1.3), (3.0, 3.1)])
@pytest.mark.parametrize("t", (-1.0, 1.0))
@pytest.mark.parametrize("n", (40, 41))
def test_parity_blocks_match_the_unsplit_band_path_and_the_dense_pair(n, t, depth, probe):
    # a centred well or barrier on a free chain, at even and odd n and for
    # both signs of the link (t > 0 flips the parity of every other DST-I
    # mode at even n); the probes take the small side below (1.3) and
    # above (3.1).  D's spectrum, its swap dimensions, its D^2 residual and
    # both corners agree with the whole bands' probe step and with the
    # dense projections
    split, whole = well_pair(n, t, depth=depth), _unsplit(well_pair(n, t, depth=depth))
    assert split.basis_path == "free-chain+parity" and whole.basis_path == "free-chain"
    assert len(split.probe_basis(probe)[2]) == 2 and len(whole.probe_basis(probe)[2]) == 1
    rep, ref = projection_difference(split, probe), projection_difference(whole, probe)
    dense_spec, dense_residual = dense_difference(split, probe)
    assert np.max(np.abs(rep.spectrum - ref.spectrum)) <= 1e-12
    assert np.max(np.abs(rep.spectrum - dense_spec)) <= 1e-12
    assert (rep.dim_plus, rep.dim_minus) == (ref.dim_plus, ref.dim_minus)
    assert rep.dim_plus + rep.dim_minus > 0
    assert rep.dsquared_residual <= 1e-13 and ref.dsquared_residual <= 1e-13
    assert abs(rep.gap_h0 - ref.gap_h0) <= 1e-12 and abs(rep.gap_h - ref.gap_h) <= 1e-12
    for sign in (+1, -1):
        corner = corner_spectrum(split, probe, sign)
        assert np.max(np.abs(corner - corner_spectrum(whole, probe, sign))) <= 1e-12
        assert np.max(np.abs(corner - dense_corner(split, probe, sign))) <= 1e-12


def _random_chain_pair(coupling):
    """A band pair off the free chain: a random chain of 60 sites, coupled
    by ``coupling`` * I at sites 20-22."""
    rng = np.random.default_rng(3)
    bands = TridiagonalBands(rng.uniform(-2.0, 2.0, 60), rng.uniform(0.5, 1.5, 59))
    return build_finite_pair(bands, np.eye(60)[20:23], coupling * np.eye(3))


@pytest.mark.parametrize("build, probe, path, index", [
    (lambda: build_krein(400, 40.0), 0.13, "dense", -1),
    (lambda: random_gapped_pair(24, 3, 2), 0.0, "dense", 1),
    (lambda: _random_chain_pair(-4.0), 0.0, "banded", 1),
    (lambda: _random_chain_pair(4.0), 0.0, "banded", -2),
    (corner_box, 1.19, "free-chain+parity", 1),
    (lambda: _unsplit(corner_box()), 1.19, "free-chain", 1)],
    ids=["krein", "random", "chain-well", "chain-barrier", "corner-split", "corner-whole"])
def test_index_of_the_pair_of_projections(build, probe, path, index):
    # in finite dimension dim ker(D - 1) - dim ker(D + 1) = rank E - rank E0
    # (Avron, Seiler and Simon, J. Funct. Anal. 120, 1994), on every basis
    # path and with a nonzero index on each
    rep = projection_difference(build(), probe)
    m0, m1 = rep.counts
    assert rep.path == path
    assert rep.dim_plus - rep.dim_minus == m1 - m0 == index


def test_one_ulp_off_the_mirror_falls_back_to_one_block():
    # one diagonal entry of H0 one ulp up: neither band split, nor H0 a
    # free chain, and the whole bands' probe step gives the mirror pair's D
    n, probe = 40, 1.3
    d = np.full(n, 2.0)
    d[3] = np.nextafter(2.0, 3.0)
    pair, mirror = well_pair(n, -1.0, diagonal=d), well_pair(n, -1.0)
    assert pair.parity_blocks is None and pair.basis_path == "banded"
    assert pair.operators[0].parity_blocks is None
    assert len(pair.probe_basis(probe)[2]) == 1
    spec = projection_difference(pair, probe).spectrum
    assert np.max(np.abs(spec - projection_difference(mirror, probe).spectrum)) <= 1e-12
    assert np.max(np.abs(spec - dense_difference(pair, probe)[0])) <= 1e-12


GAP_CASES = {"free-chain": lambda: well_pair(40, -1.0, centre=0.3),
             "free-chain+parity": square_well_box, "banded": _tridiagonal_pair,
             "dense": lambda: random_gapped_pair(24, 3, seed=2)}


@pytest.mark.parametrize("path", sorted(GAP_CASES))
def test_probe_within_the_gap_tolerance_is_rejected(path):
    # on either side of an eigenvalue of either operator, within
    # PROBE_GAP_TOL, every probe consumer raises with that eigenvalue as
    # the nearest (on a mirror-symmetric pair, an eigenvalue of either
    # parity block); twice the tolerance away the probe is accepted
    pair = GAP_CASES[path]()
    assert pair.basis_path == path
    tol = linalg.PROBE_GAP_TOL
    for k in (0, 1):
        for index in (2, pair.dim // 2):
            for w in _gap_eigenvalues(pair, k, index):
                for offset in (0.5 * tol, -0.5 * tol):
                    for consumer in (projection_difference, dsquared_block_check,
                                     corner_spectrum):
                        with pytest.raises(GapViolationError) as err:
                            consumer(pair, w + offset)
                        assert err.value.nearest == w
                probe = w + 2.0 * tol
                if np.min(np.abs(np.concatenate(pair.eigenvalues) - probe)) > tol:
                    rep = projection_difference(pair, probe)
                    assert min(rep.gap_h0, rep.gap_h) >= tol


@pytest.mark.parametrize("probe", (np.nan, np.inf, -np.inf), ids=["nan", "inf", "-inf"])
def test_non_finite_probe_is_rejected_by_name(probe):
    # a probe that is not finite fails every probe consumer with a
    # ValueError naming it: no distance to a NaN probe is below the gap
    # tolerance, so the gap check alone would let it through to a false
    # swap on a band pair, or to a failure deep in an SVD, a quadrature or
    # the oracle's refinement
    from projdiff.zops import product_representation_check
    band = build_schrodinger_1d(sech2_spec(1.0, 40.0, 400))
    dense = build_krein(64, 10.0)
    name = str(probe)
    for pair in (band, dense):
        for consumer in (projection_difference, dsquared_block_check, corner_spectrum,
                         product_representation_check):
            with pytest.raises(ValueError, match=f"probe {name} is not finite"):
                consumer(pair, probe)
    with pytest.raises(ValueError, match=f"got \\(?{name}"):
        scattering.resolvent_sandwich(dense, probe + 0.1j)
    with pytest.raises(ValueError, match=f"need a finite probe > 0, got {name}"):
        scattering.transfer_matrix_smatrix(sech2_spec(1.0, 30.0, 999), probe)
    # the smoothed counting shift and its extrapolation, which reads it on
    # every rung, took any probe: nan gave nan, and +-inf gave 0.0
    rnd = random_gapped_pair(24, 3, 0)
    with pytest.raises(ValueError, match=f"^probe {name} is not finite$"):
        scattering.smoothed_counting_shift(rnd, probe, 0.1)
    with pytest.raises(ValueError, match=f"^probe {name} is not finite$"):
        scattering.birman_krein_extrapolated(rnd, probe, [], [0.1, 0.05])
