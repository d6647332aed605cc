import numpy as np
import pytest

from projdiff.errors import DivergentBoundError, KernelSingularityError
from projdiff.hankel import (TraceBoundData, build_hankel, carleman_kernel,
                             default_hankel_rule, gamma0_kernel, gamma_kernel,
                             kernel_bound_suite, laplace_factorizations,
                             model_hankel_pair, nuclear_bound_check)
from projdiff.quadrature import make_quadrature


@pytest.fixture(scope="module")
def rule():
    return default_hankel_rule(300, 160.0)


def test_zero_kernel(rule):
    disc = build_hankel(lambda tau: 0.0 * tau, rule)
    assert np.allclose(disc.matrix, 0.0)


def test_kernel_entry_value():
    small = make_quadrature("halfline-exp-mapped", 32)
    disc = build_hankel(gamma0_kernel, small)
    i, j = 10, 20
    w = small.weights
    tau = small.nodes[i] + small.nodes[j]
    expected = np.sqrt(w[i]) * np.exp(-tau) / tau * np.sqrt(w[j])
    assert disc.matrix[i, j] == pytest.approx(expected, rel=1e-14)


def test_singular_kernel_rejected(rule):
    with pytest.raises(KernelSingularityError), np.errstate(divide="ignore"):
        build_hankel(lambda tau: 1.0 / (tau - tau), rule)


def test_block_diagonal_kernel_equals_two_scalar_builds():
    small = make_quadrature("halfline-exp-mapped", 24)
    k1 = lambda tau: np.exp(-tau)
    k2 = lambda tau: 1.0 / (1.0 + tau) ** 2
    block = build_hankel(lambda tau: k1(tau)[..., None, None] * np.diag([1.0, 0.0])
                         + k2(tau)[..., None, None] * np.diag([0.0, 1.0]), small)
    s1 = build_hankel(k1, small)
    s2 = build_hankel(k2, small)
    woven = np.zeros_like(block.matrix)
    woven[0::2, 0::2] = s1.matrix
    woven[1::2, 1::2] = s2.matrix
    assert np.allclose(block.matrix, woven)


def _entry_loop_hankel(kernel, rule, k):
    """Oracle: the block matrix assembled one node pair at a time, with the
    kernel evaluated at a scalar tau and the lower blocks mirrored."""
    t, w = rule.nodes, rule.weights
    n = len(t)
    sq = np.sqrt(w)
    mat = np.zeros((n * k, n * k), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            block = sq[i] * sq[j] * np.asarray(kernel(t[i] + t[j]))
            mat[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
            mat[j * k:(j + 1) * k, i * k:(i + 1) * k] = block.conj().T
    return mat


def _hermitian_block_kernel(tau):
    # non-diagonal, complex, and each entry with its own decay in tau
    tau = np.asarray(tau)[..., None, None]
    off = (0.3 + 0.4j) * np.exp(-2.0 * tau)
    return (np.exp(-tau) * np.array([[1.0, 0.0], [0.0, 0.0]])
            + np.array([[0.0, 0.0], [0.0, 1.0]]) / (1.0 + tau) ** 2
            + off * np.array([[0.0, 1.0], [0.0, 0.0]])
            + off.conj() * np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_complex_hermitian_block_kernel_matches_entry_loop():
    small = make_quadrature("halfline-exp-mapped", 24)
    disc = build_hankel(_hermitian_block_kernel, small)
    oracle = _entry_loop_hankel(_hermitian_block_kernel, small, 2)
    assert disc.matrix.shape == (48, 48)
    assert np.abs(disc.matrix - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_kernel_of_wrong_shape_rejected():
    small = make_quadrature("halfline-exp-mapped", 8)
    with pytest.raises(ValueError):
        build_hankel(lambda tau: np.ones(tau.shape + (2, 3)), small)
    with pytest.raises(ValueError):
        build_hankel(lambda tau: np.exp(-tau).ravel(), small)


def test_separable_block_kernel_equals_kron():
    small = make_quadrature("halfline-exp-mapped", 40)
    a = np.array([[1.0, 0.5j, 0.2], [0.1, 2.0, -0.3j], [0.0, 0.4, 0.7]])
    f = a @ a.conj().T
    block = build_hankel(lambda tau: gamma_kernel(tau)[..., None, None] * f, small).matrix
    kron = np.kron(build_hankel(gamma_kernel, small).matrix, f)
    assert np.abs(block - kron).max() <= 1e-15 * np.abs(kron).max()


def test_model_pair_spectra(rule):
    data = model_hankel_pair(rule)
    for label in ("gamma", "gamma0"):
        spec = data[f"spectrum_{label}"]
        assert spec.min() >= -1e-8
        assert spec.max() <= np.pi + 1e-8
        assert data[f"top_{label}"] >= np.pi - 0.1
    assert data["hausdorff"] <= 0.05


def test_kernel_additivity(rule):
    gamma = build_hankel(gamma_kernel, rule)
    gamma0 = build_hankel(gamma0_kernel, rule)
    carleman = build_hankel(carleman_kernel, rule)
    resid = np.linalg.norm(gamma.matrix + gamma0.matrix - carleman.matrix, 2)
    assert resid <= 1e-12 * np.linalg.norm(carleman.matrix, 2)


def test_laplace_factorizations_default():
    out = laplace_factorizations()
    assert out["gamma_factorization"] <= 1e-6
    assert out["gamma0_factorization"] <= 1e-6
    assert out["involution_squared"] == 0.0
    # the Carleman kernel commutes with the dilation involution exactly
    # on a reciprocal-symmetric grid
    assert out["carleman_conjugation"] <= 1e-12


def test_factorization_residual_ordering():
    # on a wide log grid the outer lambda-rule is the accuracy bottleneck,
    # so its residual decreases as the lambda-node count doubles; the inner
    # factor is already converged at 100 nodes and only stays at its floor
    t_rule = make_quadrature("halfline-log", 300, half_width=25.0)
    gnorm = np.linalg.norm(build_hankel(gamma_kernel, t_rule).matrix, 2)
    outer, inner = [], []
    for n_lambda in (100, 200, 400):
        out = laplace_factorizations(t_rule, n_lambda=n_lambda)
        outer.append(out["gamma0_factorization"] / gnorm)
        inner.append(out["gamma_factorization"] / gnorm)
    assert outer[0] > outer[1] > outer[2]
    assert inner[2] <= inner[0] * (1.0 + 1e-6)


def test_bound_suite_carleman_window(rule):
    carleman = build_hankel(carleman_kernel, rule)
    out = kernel_bound_suite(carleman, 1.0)
    assert np.pi - 0.05 <= out["operator_norm"] <= np.pi + 1e-9
    assert out["bound_holds"]


def test_bound_suite_gamma0_and_exp(rule):
    out = kernel_bound_suite(build_hankel(gamma0_kernel, rule), 1.0)
    assert out["operator_norm"] <= np.pi + 1e-6
    out = kernel_bound_suite(build_hankel(lambda tau: np.exp(-tau), rule), 1.0 / np.e)
    assert out["operator_norm"] <= np.pi / np.e + 1e-6
    # the exact norm of this rank-one kernel is 1/2; single-scale integrands
    # deserve the exp-mapped rule, where the quadrature is spectrally accurate
    narrow = make_quadrature("halfline-exp-mapped", 120)
    out = kernel_bound_suite(build_hankel(lambda tau: np.exp(-tau), narrow), 1.0 / np.e)
    assert out["operator_norm"] == pytest.approx(0.5, abs=1e-8)


def test_bound_suite_rejects_false_declaration(rule):
    disc = build_hankel(carleman_kernel, rule)
    with pytest.raises(ValueError):
        kernel_bound_suite(disc, 0.5)   # 1/tau exceeds 0.5/tau


def test_bound_suite_block_kernel(rule):
    # K(t) = exp(-t) U diag(1, 1/2) U* has ||K(t)|| = exp(-t) <= (1/e)/t,
    # and its Hankel operator has the norm of the scalar exp(-tau) one
    c, s = np.cos(0.7), np.sin(0.7) * np.exp(0.3j)
    u = np.array([[c, -s.conjugate()], [s, c]])
    m = u @ np.diag([1.0, 0.5]) @ u.conj().T
    disc = build_hankel(lambda tau: np.exp(-tau)[..., None, None] * m, rule)
    out = kernel_bound_suite(disc, 1.0 / np.e)
    assert out["bound_holds"]
    scalar = kernel_bound_suite(build_hankel(lambda tau: np.exp(-tau), rule), 1.0 / np.e)
    assert out["operator_norm"] == pytest.approx(scalar["operator_norm"], rel=1e-12)
    with pytest.raises(ValueError):
        kernel_bound_suite(disc, 0.3)   # t exp(-t) reaches 1/e > 0.3 at t = 1


def test_nuclear_bound_zero_profile():
    lam_rule = make_quadrature("halfline-log", 200, half_width=16.0)
    data = TraceBoundData(lambda lam: np.zeros((1, 1)), lam_rule)
    out = nuclear_bound_check(data)
    assert out["c2"] == 0.0 and out["nuclear_norm"] <= 1e-12


def test_nuclear_bound_divergent_profile_rejected():
    lam_rule = make_quadrature("halfline-log", 200, half_width=16.0)
    data = TraceBoundData(lambda lam: np.array([[np.exp(-lam)]]), lam_rule)
    with pytest.raises(DivergentBoundError):
        nuclear_bound_check(data)


def test_nuclear_bound_exponential_profile():
    # M(lam) = lam*exp(-lam): C2 = 1 and the kernel is 1/(1+tau)^2
    lam_rule = make_quadrature("halfline-log", 300, half_width=16.0)
    data = TraceBoundData(lambda lam: np.array([[lam * np.exp(-lam)]]), lam_rule)
    out = nuclear_bound_check(data)
    assert out["c2"] == pytest.approx(1.0, abs=1e-6)
    assert out["nuclear_norm"] <= 0.525
    assert out["bound_holds"]


def test_nuclear_bound_diagonal_block_profile_adds_scalar_runs():
    lam_rule = make_quadrature("halfline-log", 300, half_width=16.0)
    m1 = lambda lam: lam * np.exp(-lam)
    m2 = lambda lam: 0.5 * lam * np.exp(-2.0 * lam)
    block = nuclear_bound_check(TraceBoundData(lambda lam: np.diag([m1(lam), m2(lam)]), lam_rule))
    runs = [nuclear_bound_check(TraceBoundData(lambda lam, m=m: np.array([[m(lam)]]), lam_rule))
            for m in (m1, m2)]
    for key in ("c2", "nuclear_norm"):
        assert block[key] == pytest.approx(runs[0][key] + runs[1][key], rel=1e-12)
    assert block["bound_holds"]
