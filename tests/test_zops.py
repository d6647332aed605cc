import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from projdiff import harness, linalg, models, projections
from projdiff import zops as zops_module
from projdiff.errors import GapViolationError
from projdiff.harness import ExperimentConfig, difference_spectrum, run_experiment
from projdiff.models import (build_finite_pair, build_krein, build_schrodinger_1d,
                             random_gapped_pair, sech2_spec, shift_pair, square_well_spec,
                             thresholds)
from projdiff.projections import projection_difference
from projdiff.zops import (build_z_ops, default_time_rule,
                           product_representation_check, zop_model_comparison)

from oracles import dense_eigensystems


def flat_density_pair(m, coupling=1.0):
    levels = np.linspace(-1, 1, m + 1)[:-1] + 1.0 / m
    levels = levels[np.abs(levels) > 5e-4]
    g = np.full((1, len(levels)), coupling * np.sqrt(2.0 / m))
    return build_finite_pair(np.diag(levels).astype(complex), g, np.array([[0.0]]))


def test_zero_coupling():
    pair = flat_density_pair(40, coupling=0.0)
    zops = build_z_ops(pair, 0.0)
    assert np.allclose(zops.z0, 0.0)
    assert np.allclose(zops.z, 0.0)


def test_scalar_semigroup_integral():
    # H0 = (1), G = (1): (Z0* Z0)_{00} quadrature of exp(-2t) = 1/2
    pair = build_finite_pair(np.array([[1.0]], dtype=complex),
                             np.array([[1.0]]), np.array([[0.0]]))
    zops = build_z_ops(pair, 0.0)
    gram = zops.z0.conj().T @ zops.z0
    tau = zops.t_rule.nodes[:, None] + zops.t_rule.nodes[None, :]
    expected = np.sqrt(np.outer(zops.t_rule.weights, zops.t_rule.weights)) * np.exp(-tau)
    assert np.allclose(gram, expected)
    total = float(np.sum(zops.t_rule.weights * np.exp(-2.0 * zops.t_rule.nodes)))
    assert total == pytest.approx(0.5, abs=1e-8)


def test_norm_stable_under_time_rule_doubling():
    pair = build_krein(200, 40.0)
    e0, e1 = dense_eigensystems(pair)
    gap = min(np.min(np.abs(e0.eigenvalues - 0.5)), np.min(np.abs(e1.eigenvalues - 0.5)))
    n1 = np.linalg.norm(build_z_ops(pair, 0.5, default_time_rule(gap, 120)).z0, 2)
    n2 = np.linalg.norm(build_z_ops(pair, 0.5, default_time_rule(gap, 240)).z0, 2)
    assert 0.9 <= n2 / n1 <= 1.1


def test_grams_positive_semidefinite():
    pair = random_gapped_pair(10, 3, seed=3)
    zops = build_z_ops(pair, 0.0)
    for gram in (zops.z0.conj().T @ zops.z0, zops.z.conj().T @ zops.z):
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


def test_gap_violation_rejected():
    pair = random_gapped_pair(8, 2, seed=5)
    with pytest.raises(GapViolationError):
        build_z_ops(pair, dense_eigensystems(pair)[0].eigenvalues[3])


def test_product_identity_zero_perturbation():
    pair = flat_density_pair(30, coupling=0.0)
    chk = product_representation_check(pair, 0.0)
    assert chk.residual_direct <= 1e-14
    assert chk.residual_oracle <= 1e-14


def test_product_identity_random_pairs():
    for seed in (0, 1, 2):
        pair = random_gapped_pair(6, 2, seed=seed)
        chk = product_representation_check(pair, 0.0)
        assert chk.residual_oracle <= 1e-9
        assert chk.residual_direct <= 1e-6


def test_product_identity_with_an_empty_side():
    # a probe beyond both spectra leaves no eigenvalue of h0 above it (or
    # of h below it), so both sides of the identity are empty products
    pair = random_gapped_pair(6, 2, seed=1, probes=(-3.0, 3.0))
    for probe in (-3.0, 3.0):
        chk = product_representation_check(pair, probe)
        assert chk.residual_direct == 0.0 and chk.residual_oracle == 0.0


def test_product_identity_krein():
    chk = product_representation_check(build_krein(200, 40.0), 0.5)
    assert chk.residual_oracle <= 1e-8
    assert chk.residual_direct <= 1e-6


def test_gram_product_representation():
    # E0(above) E(below) E0(above) = (Z0 V0 Z*) (Z V0 Z0*) within the
    # combined quadrature budget
    pair = random_gapped_pair(8, 2, seed=11)
    zops = build_z_ops(pair, 0.0)
    e0, e1 = dense_eigensystems(pair)
    u0 = e0.eigenvectors[:, e0.eigenvalues > 0]
    p0 = u0 @ u0.conj().T
    u1 = e1.eigenvectors[:, e1.eigenvalues < 0]
    p1 = u1 @ u1.conj().T
    lhs = p0 @ p1 @ p0
    k, n_t = pair.kdim, zops.n_t
    zv = zops.z.reshape(pair.dim, n_t, k) @ pair.v0
    cross = zv.reshape(pair.dim, n_t * k) @ zops.z0.conj().T
    rhs = cross.conj().T @ cross
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-6


def test_model_comparison_flat_density_ratio_decreases():
    ratios = []
    for m in (101, 201, 401):
        out = zop_model_comparison(flat_density_pair(m), 0.0)
        ratios.append(out["sigma_z0"][0] / out["norm_gram0"])
    assert ratios[0] > ratios[1] > ratios[2]


def test_model_comparison_krein():
    cfg = thresholds()
    pair = build_krein(cfg["zops"]["krein_sigma_n"], cfg["krein"]["L"])
    out = zop_model_comparison(pair, 0.5)
    sv = out["sigma_z0"]
    assert np.all(np.diff(sv[:10]) <= 1e-12)          # decay
    assert sv[10] / sv[0] <= cfg["zops"]["krein_sigma_ratio"]
    # richer smoothing ladder gives a closer model
    coarse = zop_model_comparison(pair, 0.5, eps_ladder=[16 * out["gap"], 8 * out["gap"]])
    assert out["sigma_z0"][0] <= coarse["sigma_z0"][0]


# ---------------------------------------------------------------------------
# the m1 x m0 core against the n x n formulas
# ---------------------------------------------------------------------------

def dense_product_check(pair, probe):
    """Dense oracle: the n x n residual of E(below) E0(above) + Z (V0 x I) Z0*,
    and the Sylvester oracle with right-hand side -U1* (h - h0) U0, solved
    by scipy's dense solver."""
    e0, e1 = dense_eigensystems(pair)
    lam0, lam1 = e0.eigenvalues - probe, e1.eigenvalues - probe
    up0, dn1 = lam0 > 0, lam1 < 0
    u0, u1 = e0.eigenvectors[:, up0], e1.eigenvectors[:, dn1]
    zops = build_z_ops(pair, probe)
    cross = u1 @ (u1.conj().T @ u0) @ u0.conj().T
    k, n_t = pair.kdim, zops.n_t
    zv = zops.z.reshape(pair.dim, n_t, k) @ pair.v0
    direct = np.linalg.norm(cross + zv.reshape(pair.dim, n_t * k) @ zops.z0.conj().T, 2)
    rhs = -(u1.conj().T @ (pair.h - pair.h0) @ u0)
    x = sla.solve_sylvester(np.diag(lam1[dn1]), -np.diag(lam0[up0]), rhs)
    return direct, np.linalg.norm(x + u1.conj().T @ u0, 2), rhs


PRODUCT_CASES = {    # (pair, probe)
    "krein-200": lambda: (build_krein(200, 40.0), 0.5),
    "krein-400": lambda: (build_krein(400, 40.0), 0.3),
    **{f"random-{seed}": (lambda seed=seed: (random_gapped_pair(24, 3, seed, probes=(0.3,)),
                                             0.3))
       for seed in range(6)},
}


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_core_product_check_matches_dense(case, monkeypatch):
    pair, probe = PRODUCT_CASES[case]()
    direct, oracle, rhs = dense_product_check(pair, probe)
    rhs_seen = []
    original = zops_module.sylvester_solve

    def spy(a, b, c):
        rhs_seen.append(c)
        return original(a, b, c)

    monkeypatch.setattr(zops_module, "sylvester_solve", spy)
    chk = product_representation_check(pair, probe)
    assert np.max(np.abs(rhs_seen[0] - rhs)) <= 1e-13
    # both residuals sit at roundoff (~1e-13); the two routes agree far below it
    assert chk.residual_direct == pytest.approx(direct, abs=1e-15)
    assert chk.residual_oracle == pytest.approx(oracle, abs=1e-15)


def test_band_pair_product_check_matches_the_dense_build():
    # the product check reads a band pair's G through its window block's
    # nonzeros; it gives what the same pair built dense gives, to roundoff: the
    # band pair takes its gap from the two bisected eigenvalues beside the
    # probe and its eigenvectors from the banded solver and the closed form,
    # the dense build from its dense eigensystems.  A box this small
    # (n <= 600) takes the product-check branch of run on the band pair
    pair = build_schrodinger_1d(sech2_spec(1.0, 20.0, 399))
    dense = build_finite_pair(pair.h0, pair.g.toarray(), pair.v0)
    assert pair.banded and not dense.banded
    chk, ref = (product_representation_check(p, 0.9) for p in (pair, dense))
    assert chk.gap == min(pair.probe_gaps(0.9)[1]) and chk.n_t == ref.n_t
    # the band-against-dense eigenvalue bound of tests/test_projections.py
    scale = max(np.max(np.abs(w)) for w in dense.eigenvalues)
    assert abs(chk.gap - ref.gap) <= 1e-12 * scale
    assert chk.residual_direct == pytest.approx(ref.residual_direct, abs=1e-15)
    assert chk.residual_oracle <= 1e-12 and ref.residual_oracle <= 1e-12
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.9,),
                           model_params={"half_width": 20.0, "n": 399})
    payload = run_experiment(cfg).body["probes"][0]
    assert payload["path"] == "channel" and payload["n"] == 399
    product = payload["product_identity"]
    assert (product["residual_direct"], product["residual_oracle"]) == \
        (chk.residual_direct, chk.residual_oracle)
    assert (product["gap"], product["n_t"]) == (chk.gap, chk.n_t)
    spectrum = projection_difference(dense, 0.9).spectrum
    assert np.max(np.abs(difference_spectrum(payload["difference"]) - spectrum)) <= 1e-12


def test_split_band_pair_product_check_solves_only_the_parity_blocks(monkeypatch):
    # on a mirror-symmetric band pair the product check takes H0 above the
    # probe and H below it from the probe step D uses: the even and odd
    # blocks, n / 2 long; no eigenpairs of the whole bands are solved
    pair = build_schrodinger_1d(sech2_spec(1.0, 20.0, 399))
    assert pair.parity_blocks is not None
    solved = []
    original = linalg.TridiagonalBands.eigenpairs

    def spy(self, lo, hi):
        solved.append(type(self))
        return original(self, lo, hi)

    monkeypatch.setattr(linalg.TridiagonalBands, "eigenpairs", spy)
    product_representation_check(pair, 0.9)
    assert solved == [linalg.ParityBlock] * 4


@pytest.mark.parametrize("build, probe", [
    (lambda: build_schrodinger_1d(sech2_spec(1.0, 20.0, 399)), 0.9),
    (lambda: build_schrodinger_1d(square_well_spec(2.5, 1.0, 20.0, 399)), 1.0),
    (lambda: models.preset_pair("schrodinger:sech2"), 1.0),
], ids=["sech2-399", "square-well-399", "sech2-2400"])
def test_split_band_pair_product_check_matches_the_whole_bands(build, probe):
    # the parity blocks' eigenpairs, unfolded, give the whole bands'
    # product check to roundoff: the quadrature residual within 1e-14
    # absolute, the gap within the band-against-dense eigenvalue bound.
    # The Sylvester residual is roundoff on both routes (5e-15 to 3.4e-14),
    # so each is held to the roundoff bound of the other band tests
    pair, whole = build(), build()
    whole.__dict__["parity_blocks"] = None      # its probe step runs on the whole bands
    assert pair.basis_path.endswith("+parity") and not whole.basis_path.endswith("+parity")
    chk, ref = product_representation_check(pair, probe), product_representation_check(whole, probe)
    assert abs(chk.residual_direct - ref.residual_direct) <= 1e-14
    assert chk.residual_oracle <= 1e-12 and ref.residual_oracle <= 1e-12
    assert chk.n_t == ref.n_t
    scale = max(abs(b.eigenvalues(b.dim - 1, b.dim)[0]) for b in pair.operators)
    assert abs(chk.gap - ref.gap) <= 1e-12 * scale


def test_band_pair_probe_consumers_form_no_dense_matrix(monkeypatch):
    # the product check, the Z-operators and the time-rule study read a band
    # pair's counts, gap and eigenpairs off its probe step: no dense h0 or h
    # is formed and no full Hermitian eigensolve runs
    def forbidden(*args, **kwargs):
        raise AssertionError("dense eigen-data of a band pair")

    monkeypatch.setattr(linalg, "herm_eig", forbidden)
    monkeypatch.setattr(linalg.TridiagonalBands, "dense", forbidden)
    pair = build_schrodinger_1d(sech2_spec(1.0, 20.0, 399))
    assert product_representation_check(pair, 0.9).residual_oracle <= 1e-12
    zops = build_z_ops(pair, 0.9)
    assert zops.z0.shape == zops.z.shape == (399, 120 * 337)
    del zops                            # two 399 x 40,440 arrays, 129 MB each
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.9,), sizes=(10, 20, 40),
                           model_params={"half_width": 20.0, "n": 399})
    metrics = harness.convergence_study(cfg, "trule").body["metrics"]
    assert np.all(np.asarray(metrics["residual_oracle"]["values"]) <= 1e-12)


def test_product_check_forms_no_time_factor(monkeypatch):
    # the k = 337 coupling of this box is summed before the time nodes, so
    # no m x (n_t * k) factor is built: the check traces 3.7 MB, the band
    # pair's eigen-data included, where the two time factors took 136 MB
    pair = build_schrodinger_1d(sech2_spec(1.0, 20.0, 399))
    calls = []
    original = zops_module._time_factor
    monkeypatch.setattr(zops_module, "_time_factor",
                        lambda *args: calls.append(1) or original(*args))
    tracemalloc.start()
    try:
        chk = product_representation_check(pair, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.kdim == 337 and chk.n_t == 120
    assert calls == [] and peak < 16e6
    assert chk.residual_oracle <= 1e-12 and chk.residual_direct <= 1e-6


def test_study_trule_on_a_band_preset():
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.9,), sizes=(10, 20, 40),
                           model_params={"half_width": 20.0, "n": 399})
    metrics = harness.convergence_study(cfg, "trule").body["metrics"]
    direct = metrics["residual_direct"]["values"]
    assert np.all(np.asarray(metrics["residual_oracle"]["values"]) <= 1e-8 * 399)
    assert direct[0] > direct[1] > direct[2]
    assert metrics["residual_direct"]["monotone_decreasing"]


def test_study_trule_reads_only_the_spectral_ends(monkeypatch):
    # the roundoff floor needs max|lambda - probe| over both spectra, which
    # an end of one of them attains: no full spectrum of the box is solved
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.9,), sizes=(10, 20, 40),
                           model_params={"half_width": 20.0, "n": 399})
    calls = []
    original = linalg.TridiagonalBands.eigenvalues

    def spy(self, lo=0, hi=None):
        calls.append((lo, self.dim if hi is None else hi))
        return original(self, lo, hi)

    monkeypatch.setattr(linalg.TridiagonalBands, "eigenvalues", spy)
    table = harness.convergence_study(cfg, "trule").body
    monkeypatch.undo()
    assert calls and (0, 399) not in calls
    pair = cfg.build_pair()
    lam = np.abs(np.concatenate(pair.eigenvalues) - 0.9)
    floor = np.asarray(table["points"]) * np.finfo(float).eps * lam.max() / lam.min()
    assert np.allclose(table["roundoff_floor"], floor, rtol=1e-12, atol=0)


def test_product_check_passes_the_eigenvalue_vectors(monkeypatch):
    # the oracle's diagonal operands go to sylvester_solve as their
    # diagonals; no diagonal matrix is formed
    operands = []
    original = zops_module.sylvester_solve

    def spy(a, b, c):
        operands.append((np.ndim(a), np.ndim(b)))
        return original(a, b, c)

    monkeypatch.setattr(zops_module, "sylvester_solve", spy)
    product_representation_check(build_krein(200, 40.0), 0.5)
    assert operands == [(1, 1)]


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_probe_relative_path_matches_the_shifted_pair(case):
    # shift_pair is the dense oracle of the probe-relative path: the pair
    # translated by -probe, diagonalized afresh, taken at probe 0
    pair, probe = PRODUCT_CASES[case]()
    shifted = shift_pair(pair, probe)
    zops, ref = build_z_ops(pair, probe), build_z_ops(shifted, 0.0)
    assert zops.gap == pytest.approx(ref.gap, rel=1e-12)
    # Z Z* does not depend on the eigenbasis, so the two agree to roundoff
    for z, z_ref in ((zops.z0, ref.z0), (zops.z, ref.z)):
        gram, gram_ref = z @ z.conj().T, z_ref @ z_ref.conj().T
        assert np.linalg.norm(gram - gram_ref, 2) <= 1e-13 * np.linalg.norm(gram_ref, 2)
    for chk in (product_representation_check(pair, probe),
                product_representation_check(shifted, 0.0)):
        assert chk.residual_direct <= 1e-12
        assert chk.residual_oracle <= 1e-13


def test_krein_probe_runs_no_dense_solves(monkeypatch):
    # once the pair is diagonalized, a probe and its corners form no n x n
    # solve, inverse, SVD or spectral projection, and the Sylvester oracle
    # is the quotient
    pair = build_krein(200, 40.0)
    for b in pair.operators:
        b.eigensystem
    n, seen = pair.dim, []

    def spy(name, original):
        def wrapped(x, *args, **kwargs):
            if name != "norm" or args[:1] == (2,) or kwargs.get("ord") == 2:
                seen.append((name, np.shape(x)))
            return original(x, *args, **kwargs)
        return wrapped

    for name in ("solve", "inv", "svd", "cond", "norm", "eigvals"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense path called on the krein probe path")

    monkeypatch.setattr(sla, "solve_sylvester", forbidden)
    monkeypatch.setattr(projections, "spectral_projection", forbidden)
    payload = harness._probe_payload(pair, 0.5, [0.2, 0.15, 0.1, 0.05])
    assert not [key for key in payload if key.endswith("_error")]
    assert "product_identity" in payload
    for sign in (+1, -1):
        projections.corner_spectrum(pair, 0.5, sign)
    assert seen and all(shape[-2:] != (n, n) for _, shape in seen)
