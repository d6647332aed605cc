"""The eps = 0 channel S-matrix of band pairs against slow oracles: dense
window algebra, the plane-wave transfer matrix, the square-well closed
form and the eps ladder."""

import tracemalloc

import numpy as np
import pytest

from projdiff import harness, scattering
from projdiff.errors import ProbeOutsideBandError, ResidualError
from projdiff.harness import ExperimentConfig, run_experiment
from projdiff.linalg import TridiagonalBands, WindowSystem
from projdiff.models import (OperatorPair, build_finite_pair, build_krein,
                             build_schrodinger_1d, sech2_spec, square_well_spec,
                             thresholds)
from projdiff.scattering import (birman_krein_extrapolated, channel_smatrix,
                                 extrapolated_phases, transfer_matrix_smatrix)


def random_band_pair(seed, n=40, lo=12, hi=25, d=0.7, t=1.3):
    """A real band pair with a random window: hopping t and diagonal d
    outside [lo, hi); a random diagonal and hopping of random size and
    sign inside; V = G* V0 G with a random real tridiagonal V0 there."""
    rng = np.random.default_rng(seed)
    diag = np.full(n, d)
    diag[lo:hi] += rng.uniform(-1.0, 1.0, hi - lo)
    hop = np.full(n - 1, t)
    hop[lo:hi - 1] *= rng.uniform(0.5, 1.5, hi - lo - 1) * rng.choice([-1.0, 1.0], hi - lo - 1)
    h0 = TridiagonalBands(diag, hop)
    k = hi - lo
    g = np.zeros((k, n))
    g[np.arange(k), lo + np.arange(k)] = rng.uniform(0.5, 1.5, k)
    off = 0.3 * rng.standard_normal(k - 1)
    v0 = np.diag(rng.uniform(-1.0, 1.0, k)) + np.diag(off, -1) + np.diag(off, 1)
    return build_finite_pair(h0, g, v0)


def dense_window_oracle(pair, probe, d, t):
    """The stationary formula by dense algebra on the window: the window
    blocks of H0 and H less the lead corners, inverted by np.linalg.solve,
    T0 and T, the k x k S of sqrt(F0'), and det(I + V0 T0).  Returns the
    compression of S to the range of F0' (2 x 2), the k x k S and det."""
    lo, hi = pair.coupling_window
    c = ((d - probe) + 1j * np.sqrt(4.0 * t * t - (d - probe) ** 2)) / (2.0 * t * t)
    m, k = hi - lo, pair.kdim
    sigma = np.zeros((m, m), dtype=complex)
    sigma[0, 0] += t * t * c
    sigma[-1, -1] += t * t * c
    gw = pair.g.toarray()[:, lo:hi]
    t0, t1 = (gw @ np.linalg.solve(dense[lo:hi, lo:hi] - probe * np.eye(m) - sigma,
                                   gw.conj().T)
              for dense in (pair.h0, pair.h))
    f0 = (t0 - t0.conj().T) / (2j * np.pi)
    w, u = np.linalg.eigh(0.5 * (f0 + f0.conj().T))
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    v0 = pair.v0
    smat = np.eye(k) - 2j * np.pi * root @ (v0 - v0 @ t1 @ v0) @ root
    top = u[:, -2:]
    return top.conj().T @ smat @ top, smat, top, np.linalg.det(np.eye(k) + v0 @ t0)


def eigenvalue_distance(a, b):
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


# "complex": the random window of random_band_pair, with its tridiagonal V0;
# "sech2": a Schrodinger box, with a diagonal V0
DENSE_CASES = [("complex", seed, probe) for seed in (0, 1, 2) for probe in (-1.0, 0.5, 2.5)] \
    + [("sech2", 0, probe) for probe in (0.5, 1.0, 1.6)]


@pytest.mark.parametrize("kind, seed, probe", DENSE_CASES)
def test_channel_matches_dense_window_solve(kind, seed, probe):
    if kind == "complex":
        pair, (d, t) = random_band_pair(seed), (0.7, 1.3)
    else:
        spec = sech2_spec(1.0, 25.0, 300)
        pair, h = build_schrodinger_1d(spec), spec.grid()[1]
        d, t = 2.0 / h ** 2, 1.0 / h ** 2
    ch = channel_smatrix(pair, probe)
    s2, smat, top, det = dense_window_oracle(pair, probe, d, t)
    # S is the identity off the range of F0', which has rank 2; the dense
    # root takes square roots of F0's roundoff-level eigenvalues, so off
    # that range the oracle is only good to about sqrt(eps * ||F0'||)
    assert np.linalg.norm(smat - np.eye(pair.kdim) - top @ (s2 - np.eye(2)) @ top.conj().T,
                          2) <= 1e-6
    assert eigenvalue_distance(np.exp(1j * ch.phases), np.linalg.eigvals(s2)) <= 1e-9
    assert ch.unitarity_defect <= 1e-12
    assert ch.band == pytest.approx((d - 2.0 * t, d + 2.0 * t))
    # xi = arg det(I + V0 T0) / pi, on the branch of the pivot sum
    assert abs(np.exp(1j * np.pi * ch.counting_shift) - det / abs(det)) <= 1e-10
    assert ch.birman_krein_defect <= 1e-10


@pytest.mark.parametrize("probe", [1.0, 1.6])
def test_channel_converges_to_the_oracle_at_second_order_on_sech2(probe):
    # the error left is the lattice's, O(h^2) for the smooth sech^2 well:
    # halving h divides it by about 4
    oracle = transfer_matrix_smatrix(sech2_spec(1.0, 30.0, 999), probe)
    a_oracle = float(np.max(np.sin(oracle.phases / 2.0)))
    errors = [abs(channel_smatrix(build_schrodinger_1d(sech2_spec(1.0, 20.0, n)), probe).a
                  - a_oracle) for n in (799, 1599)]
    assert errors[0] <= 5e-4
    assert 3.6 <= errors[0] / errors[1] <= 4.4


def square_well_closed_form(depth, width, probe):
    """S eigenvalues exp(2i delta) of the even and odd channels of the
    continuum well -depth on |x| < width."""
    k, q = np.sqrt(probe), np.sqrt(probe + depth)
    even = np.arctan(q / k * np.tan(q * width)) - k * width
    odd = np.arctan(k / q * np.tan(q * width)) - k * width
    return np.exp(2j * np.array([even, odd]))


@pytest.mark.parametrize("probe", [0.3, 1.0, 1.6])
def test_square_well_closed_form_is_the_transfer_matrix_oracle(probe):
    # width 0.7371 puts the jumps of V on no point the oracle's cells
    # reach by halving, so the cells must localize them
    for width in (1.0, 0.7371):
        oracle = transfer_matrix_smatrix(square_well_spec(2.5, width, 30.0, 999), probe)
        err = eigenvalue_distance(np.exp(1j * oracle.phases),
                                  square_well_closed_form(2.5, width, probe))
        assert err <= 1e-11
        assert err <= oracle.integration_error


@pytest.mark.parametrize("probe", [1.0, 1.6])
def test_channel_against_the_square_well_closed_form(probe):
    # the potential jumps at |x| = 1, so the lattice error depends on where
    # the grid falls against the jump and has no rate: it is only bounded
    exact = square_well_closed_form(2.5, 1.0, probe)
    a_exact = float(np.max(np.sin(np.mod(np.angle(exact), 2.0 * np.pi) / 2.0)))
    for n in (249, 999, 3999):
        ch = channel_smatrix(build_schrodinger_1d(square_well_spec(2.5, 1.0, 10.0, n)), probe)
        assert eigenvalue_distance(np.exp(1j * ch.phases), exact) <= 4e-2
        assert abs(ch.a - a_exact) <= 1e-2
        assert ch.birman_krein_defect <= 1e-10


def shipped_sech2():
    cfg = thresholds()["sech2"]
    return build_schrodinger_1d(
        sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))


def test_channel_matches_the_ladder_where_the_ladder_is_accurate():
    pair, probe = shipped_sech2(), 0.6
    ladder = thresholds()["sech2"]["eps_ladder"]
    phases, _ = extrapolated_phases(pair, probe, ladder)
    _, xi, _ = birman_krein_extrapolated(pair, probe, phases, ladder)
    ch = channel_smatrix(pair, probe)
    assert len(phases) == 2
    assert np.max(np.abs(ch.phases - phases)) <= 2e-3
    assert abs(ch.counting_shift - xi) <= 1e-3


@pytest.mark.parametrize("probe", [0.3, 0.6, 1.0, 1.17, 1.6, 3.0])
def test_birman_krein_at_eps_zero(probe):
    ch = channel_smatrix(shipped_sech2(), probe)
    assert ch.birman_krein_defect <= 1e-10
    assert ch.det_s == pytest.approx(np.prod(np.exp(1j * ch.phases)), abs=1e-12)
    # an attractive well pulls levels down through the probe
    assert -1.0 < ch.counting_shift < 0.0


def test_probe_outside_the_band_is_a_typed_error():
    spec = sech2_spec(1.0, 40.0, 400)
    pair, top = build_schrodinger_1d(spec), 4.0 / spec.grid()[1] ** 2
    for probe in (-0.5, 0.0, top, top + 1.0):
        with pytest.raises(ProbeOutsideBandError) as err:
            channel_smatrix(pair, probe)
        assert err.value.probe == probe
        assert err.value.band == pytest.approx((0.0, top))


def test_chain_not_uniform_outside_the_window_is_rejected():
    pair = random_band_pair(0)
    b0 = pair.operators[0]
    # one diagonal entry or one link magnitude off by an ulp, on either side
    for band, index, site in ((0, 3, 3), (0, 31, 31), (1, 5, 5), (1, 24, 25), (1, 30, 31)):
        bands = [b0.diagonal.copy(), b0.offdiagonal.copy()]
        bands[band][index] = np.nextafter(bands[band][index], np.inf)
        bent = OperatorPair((TridiagonalBands(*bands), pair.operators[1]),
                            pair.g, pair.v0)
        with pytest.raises(ValueError, match=rf"^H0 is not uniform.*first differs at "
                                             rf"site {site}$"):
            channel_smatrix(bent, 0.5)
    # a window reaching an end of the chain has no lead there; a dense pair no bands
    with pytest.raises(ValueError, match="reaches an end"):
        channel_smatrix(build_schrodinger_1d(sech2_spec(1.0, 10.0, 400)), 1.0)
    with pytest.raises(ValueError, match="band pair"):
        channel_smatrix(build_krein(40, 10.0), 0.5)


def test_window_pivot_off_the_lower_half_plane_is_a_residual_error(monkeypatch):
    # the lead corners keep every window pivot below the real axis; a last
    # pivot lifted to Im = 0.25 raises, carrying that imaginary part
    pair = random_band_pair(0)
    pivots = WindowSystem.pivots

    def lifted(self):
        p = pivots(self)
        p[-1] = p[-1].real + 0.25j
        return p

    channel_smatrix(pair, 0.5)
    monkeypatch.setattr(WindowSystem, "pivots", lifted)
    with pytest.raises(ResidualError, match="^a window pivot left the lower half plane$") as err:
        channel_smatrix(pair, 0.5)
    assert (err.value.residual, err.value.bound) == (0.25, 0.0)


def test_run_reports_channel_errors_as_scattering_errors():
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(-0.5,),
                           model_params={"n": 400, "half_width": 40.0})
    payload = run_experiment(cfg).body["probes"][0]
    assert payload["path"] == "channel"
    assert "outside the open band" in payload["scattering_error"]
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(1.0,),
                           model_params={"n": 400, "half_width": 10.0})
    payload = run_experiment(cfg).body["probes"][0]
    assert "reaches an end" in payload["scattering_error"]


def test_zero_coupling_does_not_scatter():
    # depth 0 leaves no coupling window (k = 0): S = I and xi = 0, with the
    # probe still checked against the band of the whole chain
    pair = build_schrodinger_1d(sech2_spec(0.0, 40.0, 400))
    assert pair.kdim == 0
    ch = channel_smatrix(pair, 1.0)
    assert np.array_equal(ch.smatrix, np.eye(2))
    assert np.array_equal(ch.phases, [0.0, 0.0]) and ch.a == 0.0
    assert ch.counting_shift == 0.0 and ch.birman_krein_defect == 0.0
    with pytest.raises(ProbeOutsideBandError):
        channel_smatrix(pair, -0.5)
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(1.0,),
                           model_params={"n": 400, "half_width": 40.0, "depth": 0.0})
    payload = run_experiment(cfg).body["probes"][0]
    assert "scattering_error" not in payload
    assert payload["scattering"]["a_extrapolated"] == 0.0

def test_sech2_run_takes_the_channel_path(monkeypatch):
    calls = []

    def spy(name):
        def forbidden(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on the channel path")
        return forbidden

    for module, name in ((scattering, "scattering_bundle"), (scattering, "resolvent_sandwich"),
                         (scattering, "phase_ladder"), (harness, "phase_ladder")):
        monkeypatch.setattr(module, name, spy(name))
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.9,),
                           model_params={"n": 400, "half_width": 40.0})
    payload = run_experiment(cfg).body["probes"][0]
    assert calls == []
    assert payload["path"] == "channel"
    assert "eps_ladder" not in payload and "rungs" not in payload["scattering"]
    assert np.asarray(payload["scattering"]["smatrix"]).shape == (2, 2)
    assert payload["scattering"]["unitarity_defect"] <= 1e-12
    assert payload["birman_krein"]["defect"] <= 1e-10


def test_channel_smatrix_forms_no_kxk_array():
    pair = shipped_sech2()
    k = pair.kdim
    assert k == 336
    tracemalloc.start()
    try:
        channel_smatrix(pair, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * k * 16

