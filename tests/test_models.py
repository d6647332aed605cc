import dataclasses
import re
import warnings

import numpy as np
import pytest
from scipy import sparse

from projdiff import linalg, models, scattering
from projdiff.errors import DecayBoundError, GapViolationError, ProjdiffError, ResidualError
from projdiff.linalg import TridiagonalBands
from projdiff.models import (build_finite_pair, build_krein, build_schrodinger_1d,
                             preset_defaults, preset_names, preset_pair, random_gapped_pair,
                             resolvent_transform, sech2_spec, shift_pair,
                             square_well_spec, thresholds)
from projdiff.projections import projection_difference
from projdiff.quadrature import legendre_rule
from projdiff.scattering import resolvent_sandwich

from oracles import dense_eigensystems


def test_zero_perturbation():
    h0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    pair = build_finite_pair(h0, np.zeros((1, 3)), np.array([[1.0]]))
    assert np.allclose(pair.h, h0)


def test_absolute_value_factorization_reproduces_v():
    # coupling space = main space, G = |V|^(1/2), V0 = sign(V)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 4))
    v = 0.5 * (v + v.T)
    w, u = np.linalg.eigh(v)
    g = (u * np.sqrt(np.abs(w))) @ u.conj().T
    v0 = (u * np.sign(w)) @ u.conj().T
    h0 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
    pair = build_finite_pair(h0, g, v0)
    assert np.linalg.norm(pair.h - h0 - v, 2) < 1e-12


def test_random_pair_factorization_residual():
    pair = random_gapped_pair(6, 2, seed=12)
    assert pair.factorization_residual() < 1e-12


def test_krein_kernel_value_and_rank_one():
    pair = build_krein(64, 20.0)
    rule = legendre_rule(64, 0.0, 20.0)
    x, w = rule.nodes, rule.weights
    # kernel at (x_i, x_j) recovered from the weighted matrix
    i, j = 10, 40
    kij = pair.h0[i, j] / np.sqrt(w[i] * w[j])
    lo, hi = min(x[i], x[j]), max(x[i], x[j])
    assert abs(kij - np.sinh(lo) * np.exp(-hi)) < 1e-12
    sv = np.linalg.svd(pair.h - pair.h0, compute_uv=False)
    assert sv[1] <= 1e-10 * sv[0]


def test_krein_spectra_in_unit_interval():
    # Nystrom eigenvalues overshoot the continuum interval [0, 1] by the
    # quadrature error: about 4e-3 at n = 200 and below 1e-8 at n = 400
    pair = build_krein(200, 40.0)
    e0, e1 = dense_eigensystems(pair)
    for w in (e0.eigenvalues, e1.eigenvalues):
        assert w.min() >= -1e-8 and w.max() <= 1.0 + 5e-3
    pair = build_krein(400, 40.0)
    e0, e1 = dense_eigensystems(pair)
    for w in (e0.eigenvalues, e1.eigenvalues):
        assert w.min() >= -1e-8 and w.max() <= 1.0 + 1e-8


def test_krein_counting_shift_averages_to_half():
    # -trace D(lambda) is an exact integer at each probe; its average over
    # probes in (0.2, 0.8) approaches the continuum counting shift 1/2
    pair = build_krein(300, 30.0)
    e0, e1 = dense_eigensystems(pair)
    probes = np.linspace(0.2, 0.8, 401)
    shifts = [np.sum(e0.eigenvalues < p) - np.sum(e1.eigenvalues < p) for p in probes]
    assert set(shifts) <= {0, 1}
    assert abs(np.mean(shifts) - 0.5) < 0.1


def test_schrodinger_zero_potential():
    spec = square_well_spec(0.0, 1.0, 20.0, 399)
    pair = build_schrodinger_1d(spec)
    assert np.allclose(pair.h, pair.h0)
    assert pair.kdim == 0


def test_schrodinger_decay_check():
    good = sech2_spec(1.0, 30.0, 599)
    build_schrodinger_1d(good)
    slow = lambda x: 1.0 / (1.0 + np.abs(x))  # decays like rho = 1 only
    from projdiff.models import PotentialSpec
    with pytest.raises(DecayBoundError):
        build_schrodinger_1d(PotentialSpec(slow, 1.0, 2.0, 30.0, 599))
    with pytest.raises(ValueError):
        build_schrodinger_1d(PotentialSpec(slow, 1.0, 0.9, 30.0, 599))


@pytest.mark.parametrize("n", (399, 400))
def test_grid_node_placement_follows_the_parity_of_n(n):
    # x[k] = h (k + 1 - (n + 1) / 2): exactly antisymmetric, with a node at
    # 0 iff n is odd; integer multiples of h for odd n, half-integer for even
    x, h = sech2_spec(1.0, 20.0, n).grid()
    assert h == 40.0 / (n + 1) and x.size == n
    assert np.array_equal(x[::-1], -x)
    assert (0.0 in x) == (n % 2 == 1)
    k = x / h + (0.0 if n % 2 else 0.5)
    assert np.max(np.abs(k - np.round(k))) <= 1e-9
    assert np.array_equal(np.round(k), np.arange(n) - (n - 1) // 2)


def test_schrodinger_rejects_a_non_finite_potential_by_name():
    # NaN fails the envelope comparison and the support cut alike, so
    # without a check the sites would be built as V = 0
    spec = sech2_spec(1.0, 20.0, 399)
    pot = spec.potential
    patch = dataclasses.replace(
        spec, potential=lambda x: np.where(np.abs(x - 0.3) < 0.06, np.nan, pot(x)))
    x = spec.grid()[0]
    first = x[np.abs(x - 0.3) < 0.06].min()
    with pytest.raises(ValueError, match=f"potential not finite at x = {first:.6g}$"):
        build_schrodinger_1d(patch)
    # of a 2-d sample array, as the oracle's cells take, the smallest such x
    with pytest.raises(ValueError, match="x = 0.26$"):
        patch.samples(np.array([[0.5, 0.28], [0.26, -3.0]]))


def test_sech2_builds_past_the_cosh_overflow():
    # at half-width 1,216 the grid reaches |x| > 710, where cosh overflows;
    # sech^2 through exp(-2|x|) underflows to 0 there without a warning
    spec = sech2_spec(1.0, 1216.0, 24319)
    x = spec.grid()[0]
    assert np.max(np.abs(x)) > 710.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = build_schrodinger_1d(spec)
        v = spec.potential(x)
    assert np.all(np.isfinite(v)) and v[0] == 0.0 and v.min() >= -1.0
    inner = np.abs(x) < 300.0
    assert np.max(np.abs(v[inner] + 1.0 / np.cosh(x[inner]) ** 2)) <= 4 * np.finfo(float).eps
    assert pair.kdim == int(np.sum(np.abs(v) > models.SUPPORT_FLOOR))


def shooting_bound_states(potential, lo, hi, half_width, samples=2001):
    """Count sign changes of the shooting solution over an energy sweep."""
    x = np.linspace(-half_width, half_width, samples)
    h = x[1] - x[0]

    def endpoint(energy):
        u, up = 0.0, 1.0
        for xi in x[:-1]:
            upp = (potential(xi) - energy) * u
            u, up = u + h * up, up + h * upp
        return u

    energies = np.linspace(lo, hi, 400)
    vals = np.array([endpoint(e) for e in energies])
    return int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))


def test_square_well_single_bound_state_matches_shooting():
    depth, width = 0.3, 1.0
    spec = square_well_spec(depth, width, 30.0, 599)
    pair = build_schrodinger_1d(spec)
    e1 = dense_eigensystems(pair)[1].eigenvalues
    count = int(np.sum(e1 < -1e-6))
    oracle = shooting_bound_states(lambda x: -depth * (abs(x) < width),
                                   -depth + 1e-4, -1e-4, 30.0)
    assert count == oracle == 1


def test_resolvent_transform_scalar_map():
    pair = build_finite_pair(np.diag([1.0, 2.0]).astype(complex),
                             np.zeros((1, 2)), np.array([[1.0]]))
    tr = resolvent_transform(pair, 0.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(tr.pair.h0)), [0.5, 1.0])
    assert tr.mu(1.5) == pytest.approx(1.0 / 1.5)


@pytest.mark.parametrize("probe", (np.nan, np.inf, -np.inf))
def test_random_pair_rejects_a_non_finite_probe(probe):
    # a nan probe drew MAX_TRIES pairs and then reported that none was
    # gapped; an infinite one built a pair as if the probe were absent
    with pytest.raises(ValueError, match=rf"^probe {probe} is not finite$"):
        random_gapped_pair(12, 4, seed=8, probes=(0.0, probe))


def _oracle_draw(dim, kdim, seed, probes, gap):
    """(d, g, v0) of the first gapped draw, H's gap tested by eigvalsh of
    its own h = diag(d) + G* V0 G: the oracle of the draw."""
    rng = np.random.default_rng(seed)
    for _ in range(models.MAX_TRIES):
        d = rng.uniform(-1.0, 1.0, size=dim)
        if not np.all(np.abs(d[:, None] - probes) > gap):
            continue
        g = rng.standard_normal((kdim, dim)) + 1j * rng.standard_normal((kdim, dim))
        g *= 0.7 / np.linalg.norm(g, 2)
        v0 = np.diag(rng.choice([-1.0, 1.0], size=kdim))
        w = np.linalg.eigvalsh(np.diag(d) + g.conj().T @ v0 @ g)
        if np.all(np.abs(w[:, None] - probes) > gap):
            return d, g, v0


def test_random_pair_solves_h_once(monkeypatch):
    # the gap test reads the built pair's cached eigensystem of H, which
    # the difference, the ladder and the product check reuse: no eigvalsh
    # runs, and the pair is the one the draw's own eigvalsh picks
    cases = [(24, 3, seed, (0.0,), 1e-3) for seed in range(6)] + [(5, 2, 3, (0.3,), 0.02)]
    oracles = [_oracle_draw(*case) for case in cases]
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or original(*a, **k))
    pairs = [random_gapped_pair(*case) for case in cases]
    assert calls == []
    for pair, (d, g, v0) in zip(pairs, oracles):
        assert "eigensystem" in vars(pair.operators[1])
        assert np.array_equal(pair.h0, np.diag(d)) and np.array_equal(pair.g, g)
        assert np.array_equal(pair.v0, v0)


def test_resolvent_transform_projection_identity_random():
    pair = random_gapped_pair(5, 2, seed=3, probes=(0.3,), gap=0.02)
    tr = resolvent_transform(pair, -2.0)
    lam = 0.3
    mu = float(tr.mu(lam))
    d1 = projection_difference(pair, lam).spectrum
    d2 = projection_difference(tr.pair, mu).spectrum
    # roles swap under the decreasing map: E - E0 = E0_trans - E_trans
    assert np.allclose(np.sort(d1), np.sort(-d2), atol=1e-12)


def test_resolvent_transform_factorization_krein():
    pair = build_krein(128, 20.0)
    tr = resolvent_transform(pair, -0.5)
    resid = np.linalg.norm(
        tr.pair.h - tr.pair.h0
        - tr.pair.g.conj().T @ tr.pair.v0 @ tr.pair.g, 2)
    assert resid <= 1e-9


def test_resolvent_transform_rejects_shift_in_spectrum():
    pair = build_krein(64, 20.0)
    with pytest.raises(GapViolationError):
        resolvent_transform(pair, 0.5)


@pytest.mark.parametrize("shift", (np.nan, np.inf, -np.inf))
def test_resolvent_transform_rejects_a_non_finite_shift(shift):
    # nan failed the bottom check as a probe; -inf passed it and built a
    # pair of NaN operators
    with pytest.raises(ValueError, match=rf"^shift {shift} is not finite$"):
        resolvent_transform(build_krein(64, 10.0), shift)


@pytest.mark.parametrize("half_width", (-120.0, 0.0, np.nan, np.inf))
def test_potential_spec_rejects_a_half_width_not_finite_and_positive(half_width):
    # -120 built the +120 box with a negative step; 0 divided by zero
    for spec in (lambda: sech2_spec(1.0, half_width, 400),
                 lambda: square_well_spec(1.0, 2.0, half_width, 400)):
        with pytest.raises(ValueError, match=rf"^half_width must be finite and positive, "
                                             rf"got {half_width}$"):
            spec()


@pytest.mark.parametrize("n", (-1, -5))
def test_potential_spec_rejects_a_negative_n(n):
    # -1 divided by zero in the grid step, -5 asked numpy for negative dimensions
    for spec in (lambda: sech2_spec(1.0, 30.0, n), lambda: square_well_spec(1.0, 2.0, 30.0, n)):
        with pytest.raises(ValueError, match=rf"^n must be >= 0, got {n}$"):
            spec()
    # n = 0 is a grid of no points; the oracle still runs, on one cell
    spec = sech2_spec(1.0, 30.0, 0)
    assert spec.grid()[0].shape == (0,)
    assert len(scattering.transfer_matrix_smatrix(spec, 1.0).phases) == 2


@pytest.mark.parametrize("n", (300.5, 400.0, True, "400", None))
def test_potential_spec_rejects_a_grid_size_that_is_not_an_integer(n):
    # 300.5 built an off-centre grid of 301 nodes, on which the pair build
    # failed in numpy, and True a one-node grid; the spec builders pass n on
    for spec in (lambda: models.PotentialSpec(np.zeros_like, 1.0, 2.0, 30.0, n),
                 lambda: sech2_spec(1.0, 30.0, n), lambda: square_well_spec(1.0, 2.0, 30.0, n)):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {re.escape(repr(n))}$"):
            spec()
    # a numpy integer is an integer
    x = sech2_spec(1.0, 30.0, np.int64(7)).grid()[0]
    assert x.shape == (7,) and np.array_equal(x[::-1], -x)


def test_resolvent_transform_of_a_band_pair_runs_no_dense_eigensolve(monkeypatch):
    # the shift is checked against the two lowest eigenvalues, taken from
    # the bands (closed form for the free chain H0), not from eigensystems
    pair = build_schrodinger_1d(sech2_spec(1.0, 20.0, 399))

    def forbidden(*args, **kwargs):
        raise AssertionError("resolvent_transform diagonalized a band pair densely")

    monkeypatch.setattr(linalg, "herm_eig", forbidden)
    bottom = min(b.eigenvalues(0, 1)[0] for b in pair.operators)
    tr = resolvent_transform(pair, bottom - 1.0)
    with pytest.raises(GapViolationError) as err:
        resolvent_transform(pair, bottom)
    monkeypatch.undo()
    assert err.value.nearest == pytest.approx(bottom, abs=1e-12)
    assert tr.pair.factorization_residual() <= 1e-9


def test_resolvent_transform_reverses_order():
    pair = random_gapped_pair(6, 2, seed=9)
    tr = resolvent_transform(pair, -3.0)
    w = np.sort(dense_eigensystems(pair)[0].eigenvalues)
    mapped = 1.0 / (w - (-3.0))
    assert np.all(np.diff(mapped) < 0)
    assert np.allclose(np.sort(mapped), np.sort(np.linalg.eigvalsh(tr.pair.h0)),
                       atol=1e-10)


def test_shift_pair_translation():
    pair = random_gapped_pair(6, 2, seed=1)
    shifted = shift_pair(pair, 0.25)
    eye = np.eye(pair.dim)
    assert np.array_equal(shifted.h0, pair.h0 - 0.25 * eye)
    assert np.array_equal(shifted.h, pair.h - 0.25 * eye)
    # the translated pair is diagonalized afresh
    for w, w_shifted in zip(pair.eigenvalues, shifted.eigenvalues):
        assert np.allclose(w_shifted, w - 0.25, atol=1e-12)
    d_orig = projection_difference(pair, 0.25).spectrum
    d_shift = projection_difference(shifted, 0.0).spectrum
    assert np.allclose(d_orig, d_shift, atol=1e-13)


def test_shift_pair_of_a_band_pair_moves_the_diagonal():
    pair = build_schrodinger_1d(square_well_spec(2.5, 1.0, 20.0, 399))
    w0, w1 = pair.eigenvalues
    shifted = shift_pair(pair, 1.0)
    assert shifted.banded
    for b, s in zip(pair.operators, shifted.operators):
        assert np.array_equal(s.diagonal, b.diagonal - 1.0)
        assert s.offdiagonal is b.offdiagonal
    assert np.allclose(shifted.eigenvalues[0], w0 - 1.0, atol=1e-12)
    assert np.allclose(shifted.eigenvalues[1], w1 - 1.0, atol=1e-12)
    assert np.array_equal(shifted.h, pair.h - np.eye(pair.dim))


def _shipped_schrodinger_specs():
    """Every Schrodinger box the thresholds file ships, by name."""
    sech, well = thresholds()["sech2"], thresholds()["square_well"]
    specs = {f"sech2-{sech['scatter_n']}":
             sech2_spec(sech["depth"], sech["scatter_half_width"], sech["scatter_n"]),
             f"square-well-{well['scatter_n']}":
             square_well_spec(well["depth"], well["width"], well["scatter_half_width"],
                              well["scatter_n"])}
    for half_width, n in sech["d_boxes"]:
        specs[f"sech2-{n}"] = sech2_spec(sech["depth"], half_width, n)
    half_width, n = well["corner_box"]
    specs[f"square-well-{n}"] = square_well_spec(well["depth"], well["width"], half_width, n)
    return specs


SHIPPED_SPECS = _shipped_schrodinger_specs()


@pytest.mark.parametrize("name", sorted(SHIPPED_SPECS))
def test_band_pair_matches_dense_build(name):
    # the pair built from bands against build_finite_pair on the dense
    # finite-difference matrix, at every shipped size; the dense pair runs
    # the dense eigensolves and spectral sandwiches
    spec = SHIPPED_SPECS[name]
    pair = build_schrodinger_1d(spec)
    n, step = spec.n, spec.grid()[1]
    h0 = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
          + np.diag(np.full(n - 1, -1.0), -1)) / step ** 2
    dense = build_finite_pair(h0, pair.g, pair.v0)
    assert pair.banded and not dense.banded
    assert np.array_equal(pair.h0, dense.h0) and np.array_equal(pair.h, dense.h)
    for w, v in zip(pair.eigenvalues, dense.eigenvalues):
        assert np.max(np.abs(w - v)) <= 1e-12
    probe = 1.0
    spec_b = projection_difference(pair, probe).spectrum
    spec_d = projection_difference(dense, probe).spectrum
    assert np.max(np.abs(spec_b - spec_d)) <= 1e-12
    z = probe + 0.05j
    sb, sd = resolvent_sandwich(pair, z), resolvent_sandwich(dense, z)
    for tb, td in ((sb.t0, sd.t0), (sb.t, sd.t)):
        assert np.linalg.norm(tb - td, 2) <= 1e-10 * np.linalg.norm(td, 2)
    # the band sandwich solves only the coupling window, the support of the
    # potential, with the chain on both sides of it folded into
    # self-energies; against dense solves of all of G*
    lo, hi = pair.coupling_window
    assert 0 < lo and hi < n and hi - lo == pair.kdim
    g = pair.g.toarray()
    for tb, m in ((sb.t0, h0), (sb.t, dense.h)):
        td = g @ np.linalg.solve(m - z * np.eye(n), g.conj().T)
        assert np.linalg.norm(tb - td, 2) <= 1e-12 * np.linalg.norm(td, 2)


# rows of g, each by its nonzero sites, on a chain of 30 sites
WINDOW_CASES = {"box-ends": [[0], [29]], "gap-inside": [[8, 9], [15], [16]],
                "one-site": [[12]], "interior": [[10], [11, 12]]}


@pytest.mark.parametrize("cut", (False, True))
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_sandwich_edge_cases(case, cut):
    # random real bands and a random real G of either sign; with ``cut``,
    # link 15 is zero and the chain falls into two pieces, inside the
    # window of "gap-inside" and "box-ends" and beyond the other windows
    rng = np.random.default_rng(6)
    n, rows = 30, WINDOW_CASES[case]
    off = rng.standard_normal(n - 1)
    if cut:
        off[15] = 0.0
    bands = TridiagonalBands(rng.uniform(-2, 2, n), off)
    g = np.zeros((len(rows), n))
    for i, sites in enumerate(rows):
        g[i, sites] = rng.uniform(0.2, 0.8, len(sites)) * rng.choice([-1.0, 1.0], len(sites))
    pair = build_finite_pair(bands, g, np.diag(rng.choice([-1.0, 1.0], len(rows))))
    assert pair.coupling_window == (min(min(r) for r in rows), max(max(r) for r in rows) + 1)
    for z in (0.1 + 0.05j, -1.0 + 0.3j):
        for which, mat in enumerate((pair.h0, pair.h)):
            ref = g @ np.linalg.solve(mat - z * np.eye(n), g.T)
            t = scattering._sandwich_one(pair, which, z)
            assert np.linalg.norm(t - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("n", [16, 400])
def test_krein_kernel_is_the_outer_product_formula(n, monkeypatch):
    # the kernel built in place equals the outer-product formula bit for bit;
    # the pair stores its exactly Hermitian part
    built, original = [], models.build_finite_pair
    monkeypatch.setattr(models, "build_finite_pair",
                        lambda h0, *args: built.append(h0) or original(h0, *args))
    pair = build_krein(n, 40.0)
    rule = legendre_rule(n, 0.0, 40.0)
    x, sq = rule.nodes, np.sqrt(rule.weights)
    lo, hi = np.minimum.outer(x, x), np.maximum.outer(x, x)
    ref = sq[:, None] * (0.5 * (np.exp(lo - hi) - np.exp(-lo - hi))) * sq[None, :]
    assert np.array_equal(built[0], ref)
    assert np.array_equal(pair.h0, 0.5 * (ref + ref.T))
    assert np.array_equal(pair.h0, pair.h0.T) and np.array_equal(pair.h, pair.h.T)


def test_window_sandwich_without_coupling():
    bands = TridiagonalBands(np.full(8, 2.0), np.full(7, -1.0))
    empty = build_finite_pair(bands, np.zeros((0, 8)), np.zeros((0, 0)))
    assert empty.kdim == 0 and empty.coupling_window == (0, 0)
    assert scattering._sandwich_one(empty, 0, 0.5 + 0.1j).shape == (0, 0)
    # rows of g that are all zero see no window: the sandwich vanishes
    silent = build_finite_pair(bands, np.zeros((2, 8)), np.eye(2))
    assert silent.coupling_window == (0, 0)
    assert np.array_equal(scattering._sandwich_one(silent, 1, 0.5 + 0.1j), np.zeros((2, 2)))


@pytest.mark.parametrize("build", [
    lambda: preset_pair("schrodinger:sech2", n=399, half_width=38.0),
    lambda: build_krein(64, 20.0),
    lambda: random_gapped_pair(12, 3, seed=4)], ids=["schrodinger", "krein", "random"])
def test_builds_keep_their_bits_and_certify_exact_inputs_by_one_comparison(build, monkeypatch):
    # every build stores what it stored with the Hermitian part always taken:
    # the bands as given, v0 as its Hermitian part, which is the input itself
    # when the input is exact, a dense h0 and h as (M + M*) / 2; an input
    # equal to its conjugate transpose skips the norm-bound certificate
    inputs, checked = [], []
    original_build, original_check = models.build_finite_pair, linalg.check_hermitian

    def capture(h0, g, v0):
        inputs.append((h0, g, v0))
        return original_build(h0, g, v0)

    def check(m):
        checked.append(m)
        return original_check(m)

    monkeypatch.setattr(models, "build_finite_pair", capture)
    monkeypatch.setattr(linalg, "check_hermitian", check)
    pair = build()
    (h0, g, v0), = inputs
    assert pair.v0 is v0
    exact = [m for m in ((v0,) if pair.banded else (v0, h0)) if np.array_equal(m, m.conj().T)]
    assert not any(c is m for c in checked for m in exact)
    if pair.banded:
        assert pair.operators[0] is h0
        return
    h = h0 + g.conj().T @ v0 @ g
    for stored, m in ((pair.h0, h0), (pair.h, h)):
        assert stored.tobytes() == (0.5 * (m + m.conj().T)).tobytes()


def test_non_hermitian_inputs_still_raise_the_named_error():
    h0, g, v0 = np.diag([1.0, 2.0, 3.0]), np.eye(3)[:2], np.diag([1.0, -1.0])
    for name in ("h0", "v0"):
        pieces = {"h0": h0.copy(), "g": g, "v0": v0.copy()}
        pieces[name][0, 1] = 1e-6
        with pytest.raises(ValueError, match=f"^{name} is not Hermitian$"):
            build_finite_pair(**pieces)
        # one ulp off is within HERMITIAN_TOL: certified by the norm bounds
        pieces[name][0, 1] = np.nextafter(pieces[name][1, 0], 1.0)
        build_finite_pair(**pieces)


def test_pairs_store_v0_exactly_hermitian():
    # the one-ulp-off v0 above builds a dense and a band pair, each storing
    # its Hermitian part, which equals its conjugate transpose exactly
    v0 = np.diag([1.0, -1.0])
    v0[0, 1] = np.nextafter(0.0, 1.0)
    g = np.eye(3)[:2]
    for h0 in (np.diag([1.0, 2.0, 3.0]), TridiagonalBands(np.full(3, 2.0), np.full(2, -1.0))):
        pair = build_finite_pair(h0, g, v0)
        assert not np.array_equal(v0, v0.T)
        assert np.array_equal(pair.v0, pair.v0.conj().T)


def test_residual_contracts_raise_residual_error(monkeypatch):
    # the factorization, Sylvester and resolvent factor identity residuals
    # raise ResidualError, an ArithmeticError carrying the residual and the
    # bound it exceeds, with their messages as before
    dense = random_gapped_pair(10, 3, seed=2)
    bands = TridiagonalBands(np.full(8, 2.0), np.full(7, -1.0))
    g = np.zeros((2, 8))
    g[0, 2], g[1, 3] = 0.5, 0.7
    monkeypatch.setattr(models, "FACTORIZATION_TOL", -1.0)
    with pytest.raises(ResidualError, match="^factorization residual") as err:
        build_finite_pair(bands, g, np.diag([1.0, -1.0]))
    assert err.value.residual > 0.0 > err.value.bound
    a, b, c = np.array([1.0, 2.0]), np.array([-1.0]), np.array([[1.0], [2.0]])
    with pytest.raises(ResidualError, match="^sylvester residual .* exceeds contract") as err:
        linalg._check_sylvester_residual(a, b, c, np.zeros_like(c), 1.0)
    assert err.value.residual == pytest.approx(np.sqrt(5.0)) and err.value.bound == 1e-300
    monkeypatch.setattr(scattering, "C1_RESIDUAL_TOL", 0.0)
    with pytest.raises(ResidualError, match="^resolvent factor identity residual") as err:
        resolvent_sandwich(dense, 0.1 + 0.05j)
    assert err.value.residual > err.value.bound == 0.0
    assert isinstance(err.value, ArithmeticError) and isinstance(err.value, ProjdiffError)


def test_band_build_keeps_the_factorization_contract(monkeypatch):
    n = 8
    bands = TridiagonalBands(np.full(n, 2.0), np.full(n - 1, -1.0))
    g = np.zeros((2, n))
    g[0, 2], g[1, 3] = 0.5, 0.7
    pair = build_finite_pair(bands, g, np.diag([1.0, -1.0]))
    assert pair.banded
    assert np.allclose(pair.h - pair.h0, g.T @ np.diag([1.0, -1.0]) @ g, atol=1e-15)
    # a coupling on sites two apart puts G* V0 G off the band
    far = np.zeros((1, n))
    far[0, [2, 4]] = 0.5
    with pytest.raises(ResidualError, match="three central diagonals") as err:
        build_finite_pair(bands, far, np.array([[1.0]]))
    # the off-band Frobenius mass: entries (2, 4) and (4, 2), each 0.25
    assert err.value.residual == pytest.approx(0.25 * np.sqrt(2.0), rel=1e-15)
    assert err.value.bound == 0.0
    # the residual check runs on the band path too
    monkeypatch.setattr(models, "FACTORIZATION_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="factorization residual"):
        build_finite_pair(bands, g, np.diag([1.0, -1.0]))
    monkeypatch.undo()
    bad = TridiagonalBands(np.full(n, 2.0), np.r_[np.nan, np.full(n - 2, -1.0)])
    with pytest.raises(ValueError, match="h0 has non-finite entries"):
        build_finite_pair(bad, g, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        build_finite_pair(bands, g[:, :-1], np.diag([1.0, -1.0]))


def test_complex_band_pair_matches_dense_build():
    # random real bands and a coupling on neighbouring sites, the one band
    # build here whose G* V0 G is off the diagonal
    rng = np.random.default_rng(4)
    n = 30
    bands = TridiagonalBands(rng.uniform(-2, 2, n), rng.standard_normal(n - 1))
    g = np.zeros((2, n))
    g[0, [4, 5]] = [0.3, -0.2]
    g[1, 9] = 0.6
    v0 = np.diag([1.0, -1.0])
    pair = build_finite_pair(bands, g, v0)
    dense = build_finite_pair(bands.dense(), g, v0)
    assert pair.banded and not dense.banded
    assert pair.operators[1].offdiagonal[4] != bands.offdiagonal[4]
    assert np.allclose(pair.h, dense.h, atol=1e-14)
    for w, v in zip(pair.eigenvalues, dense_eigensystems(dense)):
        assert np.allclose(w, v.eigenvalues, atol=1e-12)
    assert np.allclose(projection_difference(pair, 0.1).spectrum,
                       projection_difference(dense, 0.1).spectrum, atol=1e-12)
    sb, sd = resolvent_sandwich(pair, 0.1 + 0.05j), resolvent_sandwich(dense, 0.1 + 0.05j)
    assert np.allclose(sb.t, sd.t, atol=1e-12) and np.allclose(sb.t0, sd.t0, atol=1e-12)


def test_band_pair_rejects_complex_pieces():
    # a band pair is real symmetric: a complex h0, g or v0 is named; a
    # complex g or v0 builds a dense pair
    n = 8
    bands = TridiagonalBands(np.full(n, 2.0), np.full(n - 1, -1.0))
    g = np.zeros((2, n))
    g[0, 2], g[1, 3] = 0.5, 0.7
    v0 = np.diag([1.0, -1.0])
    cases = {
        "h0": (TridiagonalBands(bands.diagonal, bands.offdiagonal * np.exp(0.3j)), g, v0),
        "g": (bands, g * 1j, v0),
        "v0": (bands, g, np.array([[1.0, 0.2j], [-0.2j, -1.0]])),
    }
    for name, (h0, gc, vc) in cases.items():
        with pytest.raises(ValueError, match=rf"^{name} is complex"):
            build_finite_pair(h0, gc, vc)
        if name != "h0":
            assert not build_finite_pair(bands.dense(), gc, vc).banded
    complex_diagonal = TridiagonalBands(bands.diagonal.astype(complex), bands.offdiagonal)
    with pytest.raises(ValueError, match="^h0 is complex"):
        build_finite_pair(complex_diagonal, g, v0)


def test_band_pairs_hold_g_as_its_nonzeros():
    # a band pair stores G as a csr_array of its nonzeros, one per row on a
    # Schrodinger box, and no dense k x n array; a dense pair stores G dense,
    # in whichever form it is given
    spec = sech2_spec(1.0, 20.0, 399)
    pair = build_schrodinger_1d(spec)
    assert sparse.issparse(pair.g) and pair.g.format == "csr"
    assert pair.g.shape == (pair.kdim, 399) and pair.g.nnz == pair.kdim
    # the support is where |V| on the grid exceeds the floor, short of the box
    v = spec.samples(spec.grid()[0])
    support = np.flatnonzero(np.abs(v) > models.SUPPORT_FLOOR)
    assert 0 < support.size < 399
    assert np.array_equal(pair.g.indices, support)
    assert np.array_equal(pair.g.data, np.sqrt(np.abs(v[support])))
    bands, v0 = TridiagonalBands(np.full(8, 2.0), np.full(7, -1.0)), np.diag([1.0, -1.0])
    g = np.zeros((2, 8))
    g[0, 2], g[1, 3] = 0.5, 0.7
    band = build_finite_pair(bands, g, v0)
    assert sparse.issparse(band.g) and np.array_equal(band.g.toarray(), g)
    dense = build_finite_pair(bands.dense(), sparse.csr_array(g), v0)
    assert isinstance(dense.g, np.ndarray) and np.array_equal(dense.g, g)
    # a sparse G is checked for finiteness on its stored entries
    bad = sparse.csr_array(g)
    bad.data[1] = np.inf
    for h0 in (bands, bands.dense()):
        with pytest.raises(ValueError, match="g has non-finite entries"):
            build_finite_pair(h0, bad, v0)


def test_preset_defaults_read_their_thresholds_sections():
    # the keyword defaults of each preset, as the thresholds file names them
    cfg = thresholds()
    krein, sech2, well, rand = (cfg[k] for k in ("krein", "sech2", "square_well",
                                                 "random_pair"))
    expected = {
        "krein": {"n": krein["n"], "L": krein["L"]},
        "schrodinger:sech2": {"depth": sech2["depth"], "half_width": sech2["scatter_half_width"],
                              "n": sech2["scatter_n"]},
        "schrodinger:square-well": {"depth": well["depth"], "width": well["width"],
                                    "half_width": well["scatter_half_width"],
                                    "n": well["scatter_n"]},
        "finite:random": {"n": rand["dim"], "kdim": rand["kdim"], "gap": rand["gap"]},
    }
    assert preset_names() == list(expected)
    for name, defaults in expected.items():
        assert preset_defaults(name) == defaults
    with pytest.raises(ValueError, match="unknown preset"):
        preset_defaults("nonsense")


def test_presets():
    assert "krein" in preset_names()
    assert preset_names()[-1] == "finite:random"
    pair = preset_pair("finite:random", seed=7)
    again = preset_pair("finite:random", seed=7)
    assert np.array_equal(pair.h0, again.h0) and np.array_equal(pair.g, again.g)
    # the preset is the seeded draw at its calibrated sizes
    p = preset_defaults("finite:random")
    direct = random_gapped_pair(p["n"], p["kdim"], 7, gap=p["gap"])
    for a, b in zip((pair.h0, pair.h, pair.g, pair.v0),
                    (direct.h0, direct.h, direct.g, direct.v0)):
        assert np.array_equal(a, b)
    assert not np.array_equal(pair.h0, preset_pair("finite:random", seed=8).h0)
    with pytest.raises(ValueError):
        preset_pair("nonsense")
