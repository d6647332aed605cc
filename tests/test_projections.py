import numpy as np
import pytest

from projdiff.errors import GapViolationError
from projdiff.linalg import TridiagonalBands, herm_eig
from projdiff import models, scattering
from projdiff.harness import ExperimentConfig, run_experiment
from projdiff.models import (build_finite_pair, build_krein, build_schrodinger_1d,
                             random_gapped_pair, sech2_spec, square_well_spec,
                             thresholds)
from projdiff.projections import (corner_spectrum, dsquared_block_check,
                                  fill_metrics, hausdorff_distance,
                                  interval_hausdorff, projection_difference,
                                  spectral_projection)


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
    e0, _ = pair.eigensystems()
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
    cfg = thresholds()
    spec = corner_spectrum(build_krein(400, 40.0), 0.5, sign=+1)
    assert spec.max() >= cfg["krein_corner_top_min"]


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


# ---------------------------------------------------------------------------
# the subspace route against the dense n x n formulas
# ---------------------------------------------------------------------------

def dense_difference(pair, probe):
    """Dense oracle: spectrum of P1 - P0 and the n x n D^2 block residual."""
    e0, e1 = pair.eigensystems()
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
        assert pair.probe_basis(probe)[0] == side
    spec, residual = dense_difference(pair, probe)
    rep = projection_difference(pair, probe)
    assert len(rep.spectrum) == pair.dim
    assert np.max(np.abs(rep.spectrum - spec)) <= 1e-12
    assert dsquared_block_check(pair, probe) <= 1e-10 * pair.dim
    assert residual <= 1e-10 * pair.dim


def test_probe_below_both_spectra_gives_zero():
    pair = build_krein(200, 40.0)
    side, u0, u1 = pair.probe_basis(-1.0)
    assert u0.shape == u1.shape == (pair.dim, 0)
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
        dense_eigs = _count_calls(monkeypatch, models, "herm_eig")
        projection_difference(pair, 0.1)
        scattering.resolvent_sandwich(pair, 0.1 + 0.05j)
        assert bool(eigenpairs) == bool(windows) == expect_banded
        assert bool(dense_eigs) == (not expect_banded)
        monkeypatch.undo()


def test_banded_eigendata_match_dense():
    for pair in (_tridiagonal_pair(), build_schrodinger_1d(sech2_spec(1.0, 38.0, 759))):
        assert pair.banded
        dense = pair.eigensystems()
        for w, e in zip(pair.eigenvalues, dense):
            assert np.max(np.abs(w - e.eigenvalues)) <= 1e-12 * np.max(np.abs(w))
        for probe in (0.1, 1.0):
            side, u0, u1 = pair.probe_basis(probe)
            for u, e in zip((u0, u1), dense):
                keep = e.eigenvalues < probe if side < 0 else e.eigenvalues > probe
                v = e.eigenvectors[:, keep]
                assert u.shape == v.shape
                assert np.linalg.norm(u @ u.conj().T - v @ v.conj().T, 2) <= 1e-10


# ---------------------------------------------------------------------------
# corners from the small-side cross-Gram against the dense projections
# ---------------------------------------------------------------------------

def dense_corner(pair, probe, sign):
    """Dense oracle: E0(side) E(opposite) E0(side) on Ran E0(side), from the
    n x n spectral projection of H."""
    e0, e1 = pair.eigensystems()
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
        assert pair.probe_basis(probe)[0] == side
    spec = corner_spectrum(pair, probe, sign)
    ref = dense_corner(pair, probe, sign)
    assert spec.shape == ref.shape
    assert np.max(np.abs(spec - ref), initial=0.0) <= 1e-12


def test_corner_sign_checked_before_any_eigensolve(monkeypatch):
    for pair in (random_gapped_pair(10, 3, seed=4), square_well_box()):
        eigs = _count_calls(monkeypatch, models, "herm_eig")
        band_eigs = _count_calls(monkeypatch, TridiagonalBands, "eigenvalues")
        with pytest.raises(ValueError, match="sign"):
            corner_spectrum(pair, 0.5, sign=0)
        assert eigs == [] and band_eigs == []
        monkeypatch.undo()


def test_band_corner_forms_no_dense_matrix(monkeypatch):
    # a band pair's corners come from its selected banded eigenvectors
    pair = corner_box()
    eigs = _count_calls(monkeypatch, models, "herm_eig")
    spec = corner_spectrum(pair, 1.0, +1)
    assert eigs == [] and "_dense" not in pair.__dict__
    assert spec.max() == pytest.approx(0.293925, abs=1e-6)


def test_corner_rejects_a_probe_on_an_eigenvalue():
    for pair in (random_gapped_pair(10, 3, seed=4), square_well_box()):
        for w in (pair.eigenvalues[0][3], pair.eigenvalues[1][3]):
            for sign in (+1, -1):
                with pytest.raises(GapViolationError) as err:
                    corner_spectrum(pair, w + 1e-12, sign)
                assert err.value.nearest == w
