"""Acceptance suite: every criterion at its stated tolerance.

Each test prints the pass/fail line(s) for its criterion.  The fill-in
clauses of ``acceptance.EXPECTED_RED`` (difference-spectrum edges and
gaps, support against [-a, a], the corner spectrum) fail at the pinned
sizes by a measured margin along a measured axis; each xfail takes its
reason from the ledger.  They are strict, so any change in that status
is flagged.
The measured values are printed either way.
"""

import collections
import time

import numpy as np
import pytest

from projdiff import acceptance, projections
from projdiff.errors import GapViolationError
from projdiff.hankel import laplace_factorizations
from projdiff.linalg import DenseHermitian, SpectralDecomposition
from projdiff.models import (ResolventTransform, build_krein, build_schrodinger_1d,
                             random_gapped_pair, resolvent_transform, sech2_spec,
                             square_well_spec)
from projdiff.projections import spectral_projection
from projdiff.quadrature import exp_mapped_rule
from projdiff.scattering import channel_smatrix, transfer_matrix_smatrix

from oracles import dense_eigensystems, spy_svd


class _Cache:
    def __init__(self):
        self.results = {}
        self.elapsed = 0.0

    def get(self, number):
        if number not in self.results:
            t0 = time.monotonic()
            self.results[number] = acceptance.CRITERIA[number]()
            self.elapsed += time.monotonic() - t0
        return self.results[number]


@pytest.fixture(scope="module")
def cache():
    return _Cache()


def _clause(cache, number, name):
    clauses = {c.name: c for c in cache.get(number)}
    clause = clauses[name]
    print(clause.line())
    return clause


def _assert_all(cache, number):
    failed = []
    for clause in cache.get(number):
        print(clause.line())
        if not clause.passed:
            failed.append(clause.name)
    assert not failed, f"failed clauses: {failed}"


_MARKED = []


def _expected_red(*names):
    """Strict xfail for the ledger clauses ``names``, with their reasons."""
    _MARKED.extend(names)
    return pytest.mark.xfail(strict=True,
                             reason="; ".join(acceptance.EXPECTED_RED[n] for n in names))


def test_criterion_1_exact_identities(cache):
    _assert_all(cache, 1)


@_expected_red("2-edge-fill", "2-max-gap", "2-size-improvement")
def test_criterion_2_fill_headline(cache):
    _assert_all(cache, 2)


def test_criterion_3_counting_shift_and_phase(cache):
    _assert_all(cache, 3)


@_expected_red("4-support-match")
def test_criterion_4_support_match(cache):
    clause = _clause(cache, 4, "4-support-match")
    assert clause.passed


def test_criterion_4_oracle_agreement(cache):
    clause = _clause(cache, 4, "4-oracle-agreement")
    assert clause.passed


def test_criterion_4_hausdorff_decrease(cache):
    clause = _clause(cache, 4, "4-hausdorff-decrease")
    assert clause.passed


@_expected_red("5-knee-location")
def test_criterion_5_knee(cache):
    clause = _clause(cache, 5, "5-knee-location")
    assert clause.passed


@_expected_red("5-top-eigenvalue")
def test_criterion_5_top_eigenvalue(cache):
    clause = _clause(cache, 5, "5-top-eigenvalue")
    assert clause.passed


def test_counting_knee_finds_the_break_of_a_two_slope_count():
    # 8 values from 0.79 down to 0.45, then 59 more densely down to 0.03:
    # the counting function changes slope at 0.45
    values = np.concatenate([np.linspace(0.79, 0.45, 8), np.linspace(0.45, 0.03, 60)[1:]])
    assert acceptance.counting_knee(values) == 0.45


def test_counting_knee_needs_six_values_above_the_floor():
    floor = acceptance.KNEE_FLOOR
    below = np.full(20, 0.5 * floor)
    assert np.isnan(acceptance.counting_knee(np.concatenate([np.linspace(0.8, 0.1, 5), below])))
    assert np.isfinite(acceptance.counting_knee(np.linspace(0.8, 0.1, 6)))


def test_criteria_4_and_5_discretization_gaps():
    # the h = 0.1 lattice's own channel S against the transfer-matrix
    # oracle at probe 1.0: for the square well the top edge is 0.083 away,
    # beyond the 0.05 of 5-top-eigenvalue at any box size; for sech2 the
    # gap is 0.0006
    well = acceptance.thresholds()["square_well"]
    half_width, n = well["corner_box"]
    spec = square_well_spec(well["depth"], well["width"], half_width, n)
    corner = build_schrodinger_1d(spec)
    assert spec.grid()[1] == pytest.approx(0.1)
    lattice = channel_smatrix(corner, well["probe"]).band_edges ** 2
    oracle = transfer_matrix_smatrix(square_well_spec(
        well["depth"], well["width"], well["oracle_half_width"], well["oracle_n"]), well["probe"])
    assert lattice == pytest.approx([0.7075, 0.4477], abs=1e-3)
    assert oracle.band_edges[:2] ** 2 == pytest.approx([0.7906, 0.4494], abs=1e-3)
    assert oracle.band_edges[0] ** 2 - lattice[0] > 0.05
    sech = acceptance.thresholds()["sech2"]
    half_width, n = sech["d_boxes"][-1]
    spec = sech2_spec(sech["depth"], half_width, n)
    box = build_schrodinger_1d(spec)
    assert spec.grid()[1] == pytest.approx(0.1)
    a_lattice = channel_smatrix(box, sech["probe"]).a
    a_oracle = transfer_matrix_smatrix(
        sech2_spec(sech["depth"], sech["oracle_half_width"], sech["oracle_n"]), sech["probe"]).a
    assert (a_lattice, a_oracle) == pytest.approx((0.45308, 0.45250), abs=1e-5)


def test_criterion_6_hankel_suite(cache):
    _assert_all(cache, 6)


def test_criterion_7_pairing_symmetry(cache):
    _assert_all(cache, 7)


def test_criterion_8_invariance_principle(cache):
    _assert_all(cache, 8)


def test_criterion_9_runtime_and_determinism(cache):
    for number in sorted(acceptance.CRITERIA):
        cache.get(number)
    failed = []
    for clause in acceptance.criterion_9(elapsed_total=cache.elapsed):
        print(clause.line())
        if not clause.passed:
            failed.append(clause.name)
    assert not failed, f"failed clauses: {failed}"


def test_expected_red_set_matches():
    # the ledger of structurally red clauses is in one place; make sure the
    # xfail markers in this module mark each of its clauses once
    assert sorted(_MARKED) == sorted(acceptance.EXPECTED_RED)


def test_criterion_1_builds_each_sandwich_once(monkeypatch):
    # the factor residual is read from the bundles, which hold the one
    # sandwich (two resolvent blocks, T0 and T) built at each (pair, eps):
    # one ladder call per pair takes both smoothing levels, each block as
    # one stack over the two levels
    from projdiff import scattering
    blocks, ladders = [], []
    for module, name, calls in ((scattering, "_sandwich_one", blocks),
                                (acceptance, "phase_ladder", ladders)):
        def spy(*args, _original=getattr(module, name), _calls=calls, **kwargs):
            _calls.append(args[1:])
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    clauses = {c.name: c for c in acceptance.criterion_1()}
    count = acceptance.thresholds()["random_pair"]["count"]
    assert len(blocks) == 2 * len(ladders) == 2 * (count + 1)
    assert all(list(ladder) == [1e-1, 1e-2] for _, ladder in ladders)
    assert all(np.shape(z) == (2,) for _, z in blocks)
    assert clauses["1-resolvent-factor"].passed



def test_criterion_4_runs_no_eps_ladder(monkeypatch):
    # the clause reads the eps = 0 channel a; the ladder on the same box is
    # pinned by the scattering tests, so criterion 4 runs none
    from projdiff import scattering
    calls = []
    for module in (acceptance, scattering):
        for name in ("extrapolated_phases", "phase_ladder"):
            def spy(*args, _name=name, **kwargs):
                calls.append(_name)
                raise AssertionError(f"criterion 4 called {_name}")
            monkeypatch.setattr(module, name, spy)
    clauses = {c.name: c for c in acceptance.criterion_4()}
    assert not calls
    details = clauses["4-oracle-agreement"].details
    assert set(details) == {"a_stationary", "a_oracle"}
    assert details["a_oracle"] == pytest.approx(0.4524982495, abs=1e-9)


def _clear_shared_inputs():
    for helper in (acceptance._krein, acceptance._krein_phases, acceptance._identity_pairs,
                   acceptance._sech2_box):
        helper.cache_clear()


def test_run_all_builds_each_shared_input_once(monkeypatch):
    # criteria 2, 3 and 8 share the n = 400 model, and 3 and 8 its
    # extrapolated phases; criteria 1, 2 and 7 the n = 200 one; criteria 1
    # and 7 the random pairs' D reports; criteria 4 and 7 the sech^2 boxes'
    # D reports.  D reports are counted by the module whose name they are
    # made through: acceptance's own, projections' (criterion 5's corner)
    # and harness's (criterion 9)
    from projdiff import harness
    _clear_shared_inputs()
    kreins, boxes, phased, reports = [], [], [], collections.Counter()
    spies = [(acceptance, "build_krein", lambda n, L: kreins.append(n)),
             (acceptance, "build_schrodinger_1d",
              lambda spec: boxes.append([spec.half_width, spec.n])),
             (acceptance, "extrapolated_phases",
              lambda pair, probe, ladder: phased.append(pair))]
    spies += [(module, "projection_difference",
               lambda pair, probe, _name=module.__name__: reports.update([_name]))
              for module in (acceptance, projections, harness)]
    for module, name, record in spies:
        def spy(*args, _original=getattr(module, name), _record=record, **kwargs):
            _record(*args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    acceptance.run_all(echo=None)
    assert sorted(kreins) == [200, 400]
    assert sum(pair is acceptance._krein(400)[0] for pair in phased) == 1
    d_boxes = acceptance.thresholds()["sech2"]["d_boxes"]
    assert sorted(b for b in boxes if b in d_boxes) == sorted(d_boxes)
    assert reports == {"projdiff.acceptance": 24, "projdiff.projections": 1,
                       "projdiff.harness": 2}


def _clause_json(clauses):
    from projdiff.harness import Report
    return Report({"clauses": [
        {"name": c.name, "passed": c.passed,
         "details": {} if c.name == "1-runtime" else c.details} for c in clauses]}).to_json()


def test_each_criterion_alone_matches_run_all():
    # the shared inputs are cached, so a criterion run first must build
    # them exactly as the one that runs first inside run_all
    _clear_shared_inputs()
    _, clauses = acceptance.run_all(echo=None)
    for number in sorted(acceptance.CRITERIA):
        _clear_shared_inputs()
        alone = acceptance.CRITERIA[number]()
        inside = [c for c in clauses if c.name.split("-")[0] == str(number)]
        assert _clause_json(alone) == _clause_json(inside), number

# ---------------------------------------------------------------------------
# the invariance-principle projection identity, one operator at a time
# ---------------------------------------------------------------------------

def dense_operator_residual(pair, transform, probe):
    """Dense oracle: sum over j of ||E_j(probe) - (I - F_j(mu))||_2 from the
    n x n spectral projections of each operator and its transform."""
    mu = float(transform.mu(probe))
    eye = np.eye(pair.dim)
    return sum(float(np.linalg.norm(spectral_projection(e, probe)
                                    - (eye - spectral_projection(f, mu)), 2))
               for e, f in zip(dense_eigensystems(pair), dense_eigensystems(transform.pair)))


def dense_difference_residual(pair, transform, probe):
    """Dense ||(E(probe) - E0(probe)) - (F0(mu) - F1(mu))||_2, which the
    per-operator residual bounds."""
    mu = float(transform.mu(probe))
    e0, e1 = dense_eigensystems(pair)
    f0, f1 = dense_eigensystems(transform.pair)
    d_orig = spectral_projection(e1, probe) - spectral_projection(e0, probe)
    d_tr = spectral_projection(f0, mu) - spectral_projection(f1, mu)
    return float(np.linalg.norm(d_orig - d_tr, 2))


# (pair constructor, probe, resolvent shift); random seed 16 at probe 0 is
# the case whose below-counts sum to n, where the pair and its transform
# both take the side below
INVARIANCE_CASES = {
    "krein-400": (lambda: build_krein(400, 40.0), 0.5, -0.5),
    "krein-200-probe-0.3": (lambda: build_krein(200, 40.0), 0.3, -0.5),
    "krein-400-probe-0.05": (lambda: build_krein(400, 40.0), 0.05, -0.5),
    **{f"random-{seed}": (lambda seed=seed: random_gapped_pair(24, 3, seed, gap=1e-3), 0.0, -2.0)
       for seed in (0, 1, 2, 16)},
}


@pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
def test_small_side_projection_identity_matches_dense(case):
    build, probe, shift = INVARIANCE_CASES[case]
    pair = build()
    transform = resolvent_transform(pair, shift)
    residual = acceptance.projection_identity_residual(pair, transform, probe)
    assert residual <= 1e-12
    assert abs(residual - dense_operator_residual(pair, transform, probe)) <= 1e-13
    # ||D - D_t||_2 <= d0 + d1, up to the roundoff of the dense oracle
    assert dense_difference_residual(pair, transform, probe) <= residual + 1e-13


def _spoiled_eigenpairs(monkeypatch, target, angle):
    """Make the dense operator ``target``'s ``eigenpairs`` rotate its last
    eigenvector by ``angle`` toward the next eigenvector outside the
    requested range."""
    original = DenseHermitian.eigenpairs

    def spoiled(self, lo, hi):
        e = original(self, lo, hi)
        if self is not target:
            return e
        k = hi if hi < self.dim else lo - 1
        x = original(self, k, k + 1).eigenvectors[:, 0]
        v = e.eigenvectors.copy()
        v[:, -1] = np.cos(angle) * v[:, -1] + np.sin(angle) * x
        return SpectralDecomposition(e.eigenvalues, v)

    monkeypatch.setattr(DenseHermitian, "eigenpairs", spoiled)


@pytest.mark.parametrize("which", (0, 1))
@pytest.mark.parametrize("case", ("krein-400", "random-0", "random-16"))
def test_projection_identity_sees_a_spoiled_transformed_basis(monkeypatch, case, which):
    # a 1e-6 rotation of one transformed eigenvector out of its side of mu
    # moves that operator's largest principal sine to 1e-6; the residual
    # reads it to roundoff (1e-6 - 3e-16 on random-0 and random-16), six
    # orders above the clause's 1e-12
    build, probe, shift = INVARIANCE_CASES[case]
    pair = build()
    transform = resolvent_transform(pair, shift)
    _spoiled_eigenpairs(monkeypatch, transform.pair.operators[which], 1e-6)
    residual = acceptance.projection_identity_residual(pair, transform, probe)
    assert abs(residual - 1e-6) <= 1e-13


@pytest.mark.parametrize("n", (399, 400))
def test_projection_identity_unfolds_the_parity_blocks(n):
    # a mirror-symmetric band pair gives its bases per parity block; the
    # residual reads them unfolded to the pair's space, and agrees with the
    # same pair on the whole bands' probe step
    pair, whole = (build_schrodinger_1d(sech2_spec(1.0, 20.0, n)) for _ in range(2))
    whole.__dict__["parity_blocks"] = None
    assert pair.basis_path == "free-chain+parity" and whole.basis_path == "free-chain"
    transform = resolvent_transform(pair, -2.0)
    residual = acceptance.projection_identity_residual(pair, transform, 0.7)
    assert residual <= 1e-12
    assert abs(residual - acceptance.projection_identity_residual(whole, transform, 0.7)) <= 1e-13


def test_projection_identity_counts_a_count_mismatch_as_one():
    # a transform whose mu is off by a few levels pairs bases of different
    # sizes, each a sine of 1
    build, probe, shift = INVARIANCE_CASES["krein-400"]
    pair = build()
    transform = resolvent_transform(pair, shift)
    counts = transform.pair.probe_gaps(float(transform.mu(probe)))[0]
    off = ResolventTransform(transform.pair, shift - 0.05)
    assert transform.pair.probe_gaps(float(off.mu(probe)))[0] != counts
    assert acceptance.projection_identity_residual(pair, off, probe) >= 1.0


def test_projection_identity_keeps_the_gap_contract():
    pair = random_gapped_pair(24, 3, 0, gap=1e-3)
    transform = resolvent_transform(pair, -2.0)
    for w in (pair.eigenvalues[0][3], pair.eigenvalues[1][3]):
        with pytest.raises(GapViolationError) as err:
            acceptance.projection_identity_residual(pair, transform, w + 1e-12)
        assert err.value.nearest == w


def test_criterion_8_forms_no_spectral_projection(monkeypatch):
    # nor a QR: the residual takes the principal sines of each operator's
    # basis against its transformed one
    def forbidden(*args, **kwargs):
        raise AssertionError("criterion 8 formed an n x n spectral projection or a QR")

    monkeypatch.setattr(projections, "spectral_projection", forbidden)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    clauses = {c.name: c for c in acceptance.criterion_8()}
    monkeypatch.undo()
    assert all(c.passed for c in clauses.values())
    cfg = acceptance.thresholds()["krein"]
    pair = build_krein(cfg["n"], cfg["L"])
    dense = dense_operator_residual(pair, resolvent_transform(pair, cfg["resolvent_shift"]),
                                    cfg["probe"])
    residual = clauses["8-projection-identity"].details["residual"]
    assert abs(residual - dense) <= 1e-13


def test_hermitian_residuals_take_no_svd(monkeypatch):
    # criterion 8's factorization residual h - h0 - G* V0 G (n x n) and the
    # two Laplace factorization residuals are Hermitian: their 2-norms are
    # eigvalsh calls of linalg.hermitian_norm, and linalg.svd sees only the
    # n x r side-sine operands and the ladder's k x k factor residuals
    svds = spy_svd(monkeypatch)
    assert all(c.passed for c in acceptance.criterion_8())
    cfg = acceptance.thresholds()["hankel"]
    laplace_factorizations(exp_mapped_rule(cfg["fact_n_t"], 1.0), cfg["fact_n_lambda"])
    assert svds
    assert [s for s in svds if len(s) == 2 and s[0] == s[1]] == []
