import numpy as np
import pytest

from projdiff.quadrature import QuadratureRule, exp_mapped_rule, legendre_rule, log_rule


def _integrate(rule, f):
    return np.sum(rule.weights * f(rule.nodes))


def test_bounded_legendre_exactness():
    rule = legendre_rule(5, 0.0, 1.0)
    assert abs(_integrate(rule, lambda x: x ** 4) - 0.2) < 1e-14
    # degree 2n-1 = 9 still exact
    assert abs(_integrate(rule, lambda x: x ** 9) - 0.1) < 1e-13


def test_bounded_weights_sum_to_length():
    rule = legendre_rule(17, -2.0, 3.0)
    assert abs(rule.weights.sum() - 5.0) < 1e-12


def test_halfline_exponential_integrals():
    rule = exp_mapped_rule(60, 1.0)
    assert abs(_integrate(rule, lambda x: np.exp(-x)) - 1.0) < 1e-8
    assert abs(_integrate(rule, lambda x: np.exp(-2.0 * x)) - 0.5) < 1e-8


def test_log_rule_scale_spread_integrand():
    # the log rule targets integrands spread over many scales
    rule = log_rule(200, 25.0)
    value = _integrate(rule, lambda x: 1.0 / (1.0 + x ** 2))
    assert abs(value - np.pi / 2.0) < 1e-8


def test_halfline_error_decreases_with_n():
    errs = []
    for n in (20, 40, 80):
        rule = exp_mapped_rule(n, 1.0)
        errs.append(abs(_integrate(rule, lambda x: np.exp(-x) * x) - 1.0))
    assert errs[0] > errs[1] > errs[2]


def test_rule_invariants_enforced():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([1.0, np.inf]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("call, match", [
    (lambda: QuadratureRule(np.array([1.0, 2.0]), np.array([1.0])), "matching 1-d"),
    (lambda: legendre_rule(10, 1.0, 1.0), "b > a"),
    (lambda: legendre_rule(10, 1.0, 0.0), "b > a"),
    (lambda: exp_mapped_rule(10, 0.0), "scale must be positive"),
    (lambda: log_rule(10, -1.0), "half_width must be positive"),
    # each non-finite parameter is named before any arithmetic: these gave
    # "non-finite quadrature data", -inf after an overflow warning
    (lambda: legendre_rule(8, -np.inf, 1.0), r"^a must be finite, got -inf$"),
    (lambda: legendre_rule(8, 0.0, np.nan), r"^b must be finite, got nan$"),
    (lambda: exp_mapped_rule(8, np.nan), r"^scale must be finite, got nan$"),
    (lambda: exp_mapped_rule(8, np.inf), r"^scale must be finite, got inf$"),
    (lambda: log_rule(8, np.inf), r"^half_width must be finite, got inf$"),
], ids=["mismatched-weights", "empty-interval", "reversed-interval", "zero-scale",
        "negative-half-width", "infinite-a", "nan-b", "nan-scale", "infinite-scale",
        "infinite-half-width"])
def test_rule_parameters_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("make", [lambda n: legendre_rule(n, 0.0, 1.0),
                                  lambda n: exp_mapped_rule(n, 1.0),
                                  lambda n: log_rule(n, 1.0)],
                         ids=["legendre", "exp-mapped", "log"])
def test_each_constructor_needs_two_nodes(make):
    assert make(2).n == 2
    for n in (1, 0):
        with pytest.raises(ValueError, match="need at least 2 nodes"):
            make(n)


def test_half_line_rules_map_the_legendre_rule():
    # each half-line rule is the Legendre rule on (0, 1) or [-W, W] pushed
    # through its substitution, bit for bit
    u = legendre_rule(30, 0.0, 1.0)
    rule = exp_mapped_rule(30, 2.5)
    assert np.array_equal(rule.nodes, -2.5 * np.log1p(-u.nodes))
    assert np.array_equal(rule.weights, 2.5 * u.weights / (1.0 - u.nodes))
    v = legendre_rule(30, -7.0, 7.0)
    rule = log_rule(30, 7)
    assert np.array_equal(rule.nodes, np.exp(v.nodes))
    assert np.array_equal(rule.weights, v.weights * np.exp(v.nodes))


def test_log_rule_reciprocal_symmetry():
    # the node set is closed under t -> 1/t: node i pairs with node n-1-i
    rule = log_rule(40, 10.0)
    assert np.allclose(rule.nodes[::-1] * rule.nodes, 1.0, rtol=1e-12, atol=0.0)


def _legendre_reference(n, x0):
    """(node, weight) of the n-point Gauss-Legendre rule nearest x0, to 40 digits:
    Newton steps on P_n from the three-term recurrence, then 2 / ((1 - x^2) P_n'^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x0))
        for _ in range(8):
            p_prev, p = mpmath.mpf(1), x
            for j in range(2, n + 1):
                p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
            dp = n * (x * p - p_prev) / (x * x - 1)
            x -= p / dp
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [2, 3, 10, 120, 400])
def test_legendre_rule_matches_a_40_digit_reference(n):
    # the end and middle nodes: nodes to 1e-16 absolute, weights to 1e-11
    # relative (numpy's leggauss is 1.1e-11 and 5.7e-10 off at n = 120, 400)
    from projdiff.quadrature import _leggauss
    x, w = _leggauss(n)
    assert np.array_equal(x[::-1], -x)
    for i in sorted({0, 1, n // 2 - 1, n // 2, n - 2, n - 1}):
        node, weight = _legendre_reference(n, x[i])
        assert abs(float(x[i] - node)) <= 1e-16
        assert abs(float((w[i] - weight) / weight)) <= 1e-11


def test_legendre_rule_is_built_once_and_read_only():
    from projdiff.quadrature import _leggauss
    x, w = _leggauss(120)
    assert _leggauss(120)[0] is x and _leggauss(120)[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    # numpy's rule, to its own accuracy (see the 40-digit reference test)
    ref_x, ref_w = np.polynomial.legendre.leggauss(120)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-9
    # rules get fresh arrays, so changing one leaves the cache intact
    rule = legendre_rule(120, -1.0, 1.0)
    assert np.array_equal(rule.nodes, x)
    rule.nodes[0] = 5.0
    assert np.array_equal(_leggauss(120)[0], x) and x[0] != 5.0


def test_legendre_rule_runs_no_dense_eigensolver(monkeypatch):
    # the nodes come from the tridiagonal Jacobi matrix, never a dense one
    from projdiff.quadrature import _leggauss

    def forbidden(*args, **kwargs):
        raise AssertionError("dense eigensolver in the Gauss-Legendre rule")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    x, w = _leggauss.__wrapped__(57)
    assert len(x) == 57 and abs(w.sum() - 2.0) <= 1e-14