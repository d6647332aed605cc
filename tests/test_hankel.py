import numpy as np
import pytest

from projdiff import hankel
from projdiff.acceptance import criterion_6
from projdiff.errors import DivergentBoundError, KernelSingularityError, NonHermitianError
from projdiff.hankel import (HankelDiscretization, build_hankel, carleman_kernel,
                             gamma0_kernel, gamma_kernel, kernel_bound_suite,
                             laplace_factorizations, model_hankel_pair, nuclear_bound_check)
from projdiff.linalg import hermitian
from projdiff.models import thresholds
from projdiff.quadrature import exp_mapped_rule, log_rule

from oracles import spy_svd


def _pinned_rule():
    """Criterion 6's log rule, at the sizes of the thresholds file."""
    cfg = thresholds()["hankel"]
    return log_rule(cfg["n"], cfg["log_half_width"])


def _pinned_factorizations():
    """Criterion 6's Laplace factorization check, at its pinned sizes."""
    cfg = thresholds()["hankel"]
    return laplace_factorizations(exp_mapped_rule(cfg["fact_n_t"], 1.0), cfg["fact_n_lambda"])


@pytest.fixture(scope="module")
def rule():
    return _pinned_rule()


def test_zero_kernel(rule):
    disc = build_hankel(lambda tau: 0.0 * tau, rule)
    assert np.allclose(disc.matrix, 0.0)


def test_kernel_entry_value():
    small = exp_mapped_rule(32, 1.0)
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
    small = exp_mapped_rule(24, 1.0)
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
    small = exp_mapped_rule(24, 1.0)
    disc = build_hankel(_hermitian_block_kernel, small)
    oracle = _entry_loop_hankel(_hermitian_block_kernel, small, 2)
    assert disc.matrix.shape == (48, 48)
    assert np.abs(disc.matrix - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_kernel_of_wrong_shape_rejected():
    small = exp_mapped_rule(8, 1.0)
    with pytest.raises(ValueError):
        build_hankel(lambda tau: np.ones(tau.shape + (2, 3)), small)
    with pytest.raises(ValueError):
        build_hankel(lambda tau: np.exp(-tau).ravel(), small)


def test_separable_block_kernel_equals_kron():
    small = exp_mapped_rule(40, 1.0)
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
    out = _pinned_factorizations()
    assert out["gamma_factorization"] <= 1e-6
    assert out["gamma0_factorization"] <= 1e-6
    assert set(out) == {"gamma_factorization", "gamma0_factorization", "n_lambda"}


def test_factorization_residual_ordering():
    # on a wide log grid the outer lambda-rule is the accuracy bottleneck,
    # so its residual decreases as the lambda-node count doubles; the inner
    # factor is already converged at 100 nodes and only stays at its floor
    t_rule = log_rule(300, 25.0)
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
    narrow = exp_mapped_rule(120, 1.0)
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


def test_scalar_bound_suite_takes_no_block_eigensolve(rule, monkeypatch):
    # a 1 x 1 block is its own eigenvalue, so a scalar kernel's block norms
    # are the moduli of its samples; with the spectrum cached first, the
    # suite takes no eigvalsh at all (the block kernel test covers k = 2)
    disc = build_hankel(gamma0_kernel, rule)
    disc.eigenvalues
    ndims, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs:
                        ndims.append(np.ndim(a)) or eigvalsh(a, *args, **kwargs))
    assert kernel_bound_suite(disc, 1.0)["bound_holds"]
    with pytest.raises(ValueError):
        kernel_bound_suite(disc, 0.5)   # exp(-t)/t exceeds 0.5/t for t < log 2
    assert ndims == []


@pytest.fixture(scope="module")
def t_rule():
    """The half-line rule the nuclear-bound kernels are assembled on."""
    return log_rule(300, 30.0)


def test_nuclear_bound_zero_profile(t_rule):
    lam_rule = log_rule(200, 16.0)
    out = nuclear_bound_check(lambda lam: np.zeros((1, 1)), lam_rule, t_rule)
    assert out["c2"] == 0.0 and out["nuclear_norm"] <= 1e-12


def test_nuclear_bound_divergent_profile_rejected(t_rule):
    lam_rule = log_rule(200, 16.0)
    with pytest.raises(DivergentBoundError):
        nuclear_bound_check(lambda lam: np.array([[np.exp(-lam)]]), lam_rule, t_rule)


def test_nuclear_bound_exponential_profile(t_rule):
    # M(lam) = lam*exp(-lam): C2 = 1 and the kernel is 1/(1+tau)^2
    lam_rule = log_rule(300, 16.0)
    out = nuclear_bound_check(lambda lam: np.array([[lam * np.exp(-lam)]]), lam_rule, t_rule)
    assert out["c2"] == pytest.approx(1.0, abs=1e-6)
    assert out["nuclear_norm"] <= 0.525
    assert out["bound_holds"]


def test_nuclear_bound_diagonal_block_profile_adds_scalar_runs(t_rule):
    lam_rule = log_rule(300, 16.0)
    m1 = lambda lam: lam * np.exp(-lam)
    m2 = lambda lam: 0.5 * lam * np.exp(-2.0 * lam)
    block = nuclear_bound_check(lambda lam: np.diag([m1(lam), m2(lam)]), lam_rule, t_rule)
    runs = [nuclear_bound_check(lambda lam, m=m: np.array([[m(lam)]]), lam_rule, t_rule)
            for m in (m1, m2)]
    for key in ("c2", "nuclear_norm"):
        assert block[key] == pytest.approx(runs[0][key] + runs[1][key], rel=1e-12)
    assert block["bound_holds"]


def test_non_hermitian_block_kernel_rejected():
    small = exp_mapped_rule(24, 1.0)
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NonHermitianError):
        build_hankel(lambda tau: np.exp(-tau)[..., None, None] * shear, small)


def _criterion_6_corpus():
    rule = _pinned_rule()
    kernels = (gamma0_kernel, gamma_kernel, carleman_kernel,
               lambda tau: np.exp(-tau), lambda tau: 1.0 / (1.0 + tau) ** 2)
    return [build_hankel(kernel, rule) for kernel in kernels]


def test_library_hankel_matrices_are_exactly_symmetric_as_built(monkeypatch):
    # one weight sqrt(w_i) sqrt(w_j) per node pair: every matrix of criterion
    # 6's corpus and of the Laplace factorizations reaches the stored part
    # already equal to its transpose, so the one exact comparison certifies it
    built = []
    monkeypatch.setattr(hankel, "hermitian",
                        lambda m: built.append(np.array_equal(m, m.T)) or hermitian(m))
    corpus = _criterion_6_corpus()
    _pinned_factorizations()
    assert len(built) == len(corpus) + 2 and all(built)
    assert all(np.array_equal(disc.matrix, disc.matrix.T) for disc in corpus)


def _roundoff_hermitian_kernel(tau):
    # blocks U diag(e^-tau, 1/(1+tau)^2) U* with U unitary: Hermitian to roundoff only
    u = np.linalg.qr(np.array([[1.0, 0.5j], [0.3, 2.0]]))[0]
    d = np.stack([np.exp(-tau), 1.0 / (1.0 + tau) ** 2], axis=-1)
    return (u * d[..., None, :]) @ u.conj().T


def test_discretization_stores_its_certified_hermitian_part():
    small = exp_mapped_rule(24, 1.0)
    t, sq = small.nodes, np.sqrt(small.weights)
    vals = _roundoff_hermitian_kernel(t[:, None] + t[None, :])
    m = (vals * np.outer(sq, sq)[:, :, None, None]).transpose(0, 2, 1, 3).reshape(48, 48)
    m[0, 1] += 1e-15
    assert not np.array_equal(m, m.conj().T)
    disc = HankelDiscretization(small, m)
    assert np.array_equal(disc.matrix, disc.matrix.conj().T)
    ref = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    assert disc.eigenvalues.tobytes() == ref.tobytes()


def test_singular_values_match_the_svd_on_the_criterion_6_corpus():
    # the singular values are read off the cached eigenvalues; the SVD of
    # the matrix stays the oracle
    for disc in _criterion_6_corpus():
        ref = np.linalg.svd(disc.matrix, compute_uv=False)
        sv = disc.singular_values()
        assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0]
        assert sv[0] == pytest.approx(ref[0], rel=1e-13)


def test_criterion_6_takes_one_eigensolve_per_hankel_matrix(monkeypatch):
    # gamma and gamma0 serve the model pair and the bound corpus, so each of
    # the five corpus matrices is decomposed once, and no SVD is taken: the
    # Laplace factorizations' residuals are Hermitian, and their 2-norms
    # eigvalsh calls of linalg.hermitian_norm.  Eigensolves are counted where
    # the hankel module calls linalg.hermitian_eigvalsh on one matrix
    # (hermitian_norm calls it inside linalg, and the nuclear bound on a
    # stack of profile samples)
    seen = []
    eigvalsh = hankel.hermitian_eigvalsh

    def eig_spy(m):
        if np.ndim(m) == 2:
            seen.append(id(m))
        return eigvalsh(m)

    monkeypatch.setattr(hankel, "hermitian_eigvalsh", eig_spy)
    svds = spy_svd(monkeypatch)
    assert all(clause.passed for clause in criterion_6())
    assert len(seen) == len(set(seen)) == 5
    assert svds == []
