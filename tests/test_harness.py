import dataclasses
import json
import os
import types

import numpy as np
import pytest

from projdiff.errors import ConfigError, GapViolationError
from projdiff.harness import (ExperimentConfig, Report, convergence_study,
                              difference_spectrum, run_experiment, write_spectrum_csv)
from projdiff.models import thresholds
from projdiff.projections import projection_difference

from oracles import dense_eigensystems


def test_config_validation_field_paths():
    with pytest.raises(ConfigError, match="config.bogus"):
        ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="eps_ladder"):
        ExperimentConfig.from_dict({"eps_ladder": [0.1, 0.2]})
    with pytest.raises(ConfigError, match="eps_ladder"):
        ExperimentConfig.from_dict({"eps_ladder": [0.1, -0.2]})
    for ladder, message in (([0.1, 0.1], "strictly decreasing"), ([0.2, 0.0], "need eps > 0")):
        with pytest.raises(ConfigError, match=r"config\.eps_ladder: .*" + message):
            ExperimentConfig.from_dict({"eps_ladder": ladder})
    with pytest.raises(ConfigError, match="probes"):
        ExperimentConfig.from_dict({"probes": ["x"]})
    with pytest.raises(ConfigError, match=r"config\.sizes\[1\]"):
        ExperimentConfig.from_dict({"sizes": [40, 0, 160]})
    for sizes in (["x"], [40, 2.5], [40, 80, True]):
        with pytest.raises(ConfigError,
                           match=rf"config\.sizes\[{len(sizes) - 1}\]: must be an integer"):
            ExperimentConfig.from_dict({"sizes": sizes})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match=r"config\.probes\[1\]: must be finite"):
            ExperimentConfig.from_dict({"probes": [0.5, bad]})
    with pytest.raises(ConfigError, match=r"config\.probes\[0\]: must be a number"):
        ExperimentConfig.from_dict({"probes": [True]})
    for ladder, message in ((["a"], r"\[0\]: must be a number"),
                            ([0.2, "a"], r"\[1\]: must be a number"),
                            ([True, 0.5], r"\[0\]: must be a number"),
                            ([float("nan"), 0.1], r"\[0\]: must be finite"),
                            ([float("inf"), 0.1], r"\[0\]: must be finite"),
                            ([0.2, float("nan")], r"\[1\]: must be finite")):
        with pytest.raises(ConfigError, match=r"config\.eps_ladder" + message):
            ExperimentConfig.from_dict({"eps_ladder": ladder})
    # the model-size minimum of 16 holds on the n axis only: on the trule
    # axis the sizes are time-rule node counts
    small = ExperimentConfig.from_dict({"model": "finite:random", "probes": [0.0],
                                        "seed": 23, "sizes": [5, 10, 20]})
    with pytest.raises(ConfigError, match=r"config\.sizes\[0\]"):
        convergence_study(small, "n")
    assert convergence_study(small, "trule").body["points"] == [5, 10, 20]


def test_constructed_config_gets_every_check():
    # the checks run on construction, so a config built directly meets them
    # too, and so does one rebuilt by dataclasses.replace, as --seed does
    for kwargs, path in (({"probes": 5}, r"config\.probes"),
                         ({"model_params": {"bogus": 1}}, r"config\.model_params\.bogus"),
                         ({"seed": -3}, r"^config\.seed: must be non-negative$")):
        with pytest.raises(ConfigError, match=path):
            ExperimentConfig(**kwargs)
    for seed, message in ((1.5, "must be an integer"), (-1, "must be non-negative")):
        with pytest.raises(ConfigError, match=rf"^config\.seed: {message}$"):
            dataclasses.replace(ExperimentConfig(), seed=seed)


def test_default_config_is_the_calibrated_krein_probe_and_ladder():
    krein = thresholds()["krein"]
    cfg = ExperimentConfig()
    assert (cfg.model, cfg.probes, cfg.eps_ladder) == \
        ("krein", (krein["probe"],), tuple(krein["eps_ladder"]))


def test_config_from_json_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_json(str(path))


def test_empty_probe_list_is_fine():
    cfg = ExperimentConfig(model="finite:random", probes=(), seed=3,
                           eps_ladder=(0.1, 0.05))
    report = run_experiment(cfg)
    assert report.body["probes"] == []
    assert report.body["schema"] == 3


def test_empty_ladder_is_a_scattering_error_on_a_dense_pair():
    # a dense pair's S comes from the ladder, so an empty one is reported;
    # a band pair takes S at eps = 0 and never reads the ladder
    dense = run_experiment(ExperimentConfig(model="finite:random", probes=(0.0,),
                                            seed=3, eps_ladder=())).body["probes"][0]
    assert "ladder is empty" in dense["scattering_error"]
    assert "difference" in dense and "product_identity" in dense
    band = run_experiment(ExperimentConfig(
        model="schrodinger:sech2", model_params={"half_width": 38.0, "n": 759},
        probes=(1.0,), eps_ladder=())).body["probes"][0]
    assert band["path"] == "channel" and "scattering_error" not in band


def test_report_deterministic_for_fixed_seed():
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,), seed=7,
                           eps_ladder=(0.1, 0.05, 0.02))
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    assert a == b


def test_report_payload_and_outputs():
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,), seed=11,
                           eps_ladder=(0.1, 0.05, 0.02))
    report = run_experiment(cfg)
    payload = report.body["probes"][0]
    assert payload["n"] == 24
    assert "difference" in payload and "scattering" in payload
    assert len(payload["scattering"]["rungs"]) == 3
    for rung in payload["scattering"]["rungs"]:
        assert rung["unitarity_defect"] <= 1e-10
    assert json.loads(report.to_json())["schema"] == 3
    # the payload holds the r sines and a zero count; difference_spectrum all n values
    rep = projection_difference(cfg.build_pair(), 0.0)
    diff = payload["difference"]
    assert np.array_equal(diff["sines"], rep.sines)
    assert len(diff["sines"]) + diff["zero_count"] == payload["n"]
    assert np.array_equal(difference_spectrum(diff), rep.spectrum)
    assert diff["extremes"] == rep.extremes and diff["max_gap"] == rep.max_gap


def test_probe_errors_captured_not_fatal():
    # probe sitting on an eigenvalue is reported, not raised
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,), seed=5,
                           eps_ladder=(0.1, 0.05))
    pair = cfg.build_pair()
    bad_probe = float(dense_eigensystems(pair)[0].eigenvalues[3])
    cfg = ExperimentConfig(model="finite:random", probes=(bad_probe,), seed=5,
                           eps_ladder=(0.1, 0.05))
    report = run_experiment(cfg)
    payload = report.body["probes"][0]
    # each stage captures its own error; the others still run
    message = str(GapViolationError(bad_probe, bad_probe))
    assert payload["difference_error"] == payload["product_identity_error"] == message
    assert message.startswith("eigenvalue -0.878394574084 within forbidden distance")
    assert "difference" not in payload and "product_identity" not in payload
    assert "scattering" in payload  # smoothing regularizes the bundle
    assert "birman_krein" in payload and "scattering_error" not in payload


def test_jobs_field_is_unknown():
    # probes run in one process, so a worker count is no config field; the
    # phase floor is scattering.PHASE_FLOOR, so no tolerance is one either
    for name, values in (("jobs", (0, 1, 2)), ("tolerances", ({}, {"phase_floor": 0.1}))):
        for value in values:
            with pytest.raises(ConfigError, match=rf"^config\.{name}: unknown field$"):
                ExperimentConfig.from_dict({name: value})
    body = run_experiment(ExperimentConfig(model="finite:random", probes=(), seed=3)).body
    assert not {"jobs", "tolerances"} & set(body["config"])


def test_study_eps_axis():
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,), seed=19,
                           eps_ladder=(0.2, 0.1, 0.05, 0.025))
    table = convergence_study(cfg, "eps").body
    assert table["axis"] == "eps"
    peaks = np.array(table["metrics"]["density_peak"]["values"])
    flags = table["metrics"]["density_peak"]
    assert flags["monotone_decreasing"] == bool(np.all(np.diff(peaks) < 0))
    assert np.all(np.array(table["metrics"]["identity_residual"]["values"]) <= 1e-9)


def test_study_eps_axis_on_a_band_pair():
    # the large-k bundle path: k is in the hundreds on this sech2 box
    ladder = (0.3, 0.2, 0.1, 0.05)
    cfg = ExperimentConfig(model="schrodinger:sech2",
                           model_params={"half_width": 38.0, "n": 759},
                           probes=(1.0,), eps_ladder=ladder)
    table = convergence_study(cfg, "eps").body
    assert table["points"] == list(ladder)
    assert np.all(np.array(table["metrics"]["identity_residual"]["values"]) <= 1e-9)
    assert np.all(np.isfinite(table["metrics"]["prediction_a"]["values"]))


def test_scalar_lorentzian_peak_law():
    # with the spectrum sitting exactly at the probe, the density peak is
    # 1/(pi*eps) at every smoothing level
    from projdiff.models import build_finite_pair
    from projdiff.scattering import smoothed_density
    pair = build_finite_pair(np.zeros((1, 1), dtype=complex),
                             np.array([[1.0]]), np.array([[1.0]]))
    for eps in (0.2, 0.1, 0.05):
        f0, _ = smoothed_density(pair, 0.0, eps)
        assert f0[0, 0].real == pytest.approx(1.0 / (np.pi * eps), rel=1e-12)


def _assert_trule_plateau(cfg):
    """Check the time-rule residuals against their roundoff floor.

    Past convergence the exp-mapped rule's residual does not fall to a fixed
    level: the mapped integrand (1-u)^(2|lam|/gap) magnifies the O(eps) errors
    of the n_t Legendre nodes and weights, so the floor is taken as
    n_t * eps * max|lam| / gap, lam = eigenvalue - probe over both spectra.
    """
    table = convergence_study(cfg, "trule").body
    direct = np.array(table["metrics"]["residual_direct"]["values"])
    oracle = np.array(table["metrics"]["residual_oracle"]["values"])
    pair = cfg.build_pair()
    lam = np.abs(np.concatenate([e.eigenvalues for e in dense_eigensystems(pair)]) - cfg.probes[0])
    floor = np.asarray(table["points"]) * np.finfo(float).eps * lam.max() / lam.min()
    assert np.allclose(table["roundoff_floor"], floor, rtol=1e-12, atol=0)
    # a point at or below its floor counts as decreasing
    assert table["metrics"]["residual_direct"]["monotone_decreasing"]
    # quadrature route decreases (or sits at its roundoff floor) and the
    # largest rule has reached that floor; the oracle route is exact up to
    # roundoff at every size
    for i in range(1, len(direct)):
        assert direct[i] <= max(direct[i - 1], floor[i])
    assert direct[-1] <= floor[-1]
    assert np.all(oracle <= 1e-9)
    return direct, floor


def test_study_trule_axis_plateau():
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,), seed=23,
                           eps_ladder=(0.1, 0.05), sizes=(40, 80, 160))
    _assert_trule_plateau(cfg)


def test_study_trule_axis_decreases_to_plateau():
    # seed 11 converges more slowly: the first two rules are above the floor,
    # so the decreasing branch is taken before the plateau is reached
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,), seed=11,
                           eps_ladder=(0.1, 0.05), sizes=(40, 80, 160))
    direct, floor = _assert_trule_plateau(cfg)
    assert np.all(direct[:2] > floor[:2])


def test_study_trule_axis_rejects_a_probe_on_an_eigenvalue():
    # the roundoff floors divide by the probe gap, so the gap contract is
    # applied before any floor: no division by zero, a typed error instead
    from projdiff.errors import GapViolationError
    base = ExperimentConfig(model="finite:random", seed=0, sizes=(40, 80, 160))
    on = float(base.build_pair().eigenvalues[0][5])
    with pytest.raises(GapViolationError) as err:
        convergence_study(dataclasses.replace(base, probes=(on,)), "trule")
    assert err.value.nearest == on


def test_study_n_axis_shapes():
    cfg = ExperimentConfig(model="krein", probes=(0.5,),
                           eps_ladder=(0.1, 0.05), sizes=(48, 64, 96))
    table = convergence_study(cfg, "n").body
    assert table["points"] == [48, 64, 96]
    for metric in table["metrics"].values():
        assert len(metric["values"]) == 3
        assert len(metric["first_differences"]) == 2


def test_study_needs_three_points():
    cfg = ExperimentConfig(model="krein", probes=(0.5,), sizes=(48, 64))
    with pytest.raises(ConfigError):
        convergence_study(cfg, "n")
    with pytest.raises(ConfigError):
        convergence_study(cfg, "bogus")


_EPS_STUDY = ExperimentConfig(model="finite:random", probes=(0.0,), eps_ladder=(0.1, 0.05))


@pytest.mark.parametrize("call, error, match", [
    (lambda: ExperimentConfig.from_dict([("model", "krein")]), ConfigError,
     "expected an object"),
    (lambda: ExperimentConfig.from_dict({"model": ""}), ConfigError,
     "config.model: must be a nonempty string"),
    (lambda: Report({"x": object()}).to_json(), TypeError, "not JSON-serializable"),
    (lambda: convergence_study(_EPS_STUDY, "eps"), ConfigError, "need >= 3 rungs"),
], ids=["config-not-an-object", "empty-model-name", "unserializable-value",
        "eps-study-two-rungs"])
def test_harness_inputs_are_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_report_writes_numpy_scalars_as_numbers():
    body = {"count": np.int64(3), "value": np.float32(0.5)}
    assert json.loads(Report(body).to_json()) == {"count": 3, "value": 0.5}


def test_report_writes_numpy_booleans_as_booleans():
    body = {"flag": np.bool_(True), "flags": np.array([True, False])}
    assert json.loads(Report(body).to_json()) == {"flag": True, "flags": [True, False]}


def test_library_writes_no_file(monkeypatch, tmp_path):
    # runs and studies return their report; only the command line writes files
    monkeypatch.chdir(tmp_path)
    run_experiment(ExperimentConfig(model="finite:random", probes=(0.0,), seed=3,
                                    eps_ladder=(0.1, 0.05)))
    run_experiment(ExperimentConfig(model="schrodinger:sech2",
                                    model_params={"half_width": 38.0, "n": 759},
                                    probes=(1.0,)))
    convergence_study(ExperimentConfig(model="krein", probes=(0.5,),
                                       sizes=(48, 64, 96)), "n")
    dense = ExperimentConfig(model="finite:random", probes=(0.0,), seed=3,
                             eps_ladder=(0.2, 0.1, 0.05), sizes=(5, 10, 20))
    for axis in ("eps", "trule"):
        convergence_study(dense, axis)
    assert os.listdir(tmp_path) == []


def test_write_spectrum_csv_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    write_spectrum_csv(str(path), np.array([0.5, -0.25]))
    lines = path.read_text().splitlines()
    assert lines == ["index,value", "0,0.5", "1,-0.25"]


def test_krein_run_reproduces_known_facts():
    # end-to-end report for the rank-one resolvent preset: counting shift
    # near 1/2, retained phase near pi, difference spectrum symmetric in
    # [-1, 1]
    cfg = ExperimentConfig(model="krein", model_params={"n": 200, "L": 40.0},
                           probes=(0.5,), eps_ladder=(0.2, 0.15, 0.1, 0.05))
    payload = run_experiment(cfg).body["probes"][0]
    assert abs(payload["birman_krein"]["counting_shift"] - 0.5) <= 0.1
    phases = payload["scattering"]["phases_extrapolated"]
    assert len(phases) == 1
    assert abs(np.exp(1j * phases[0]) + 1.0) <= 0.05
    spec = difference_spectrum(payload["difference"])
    assert spec.min() >= -1.0 - 1e-10 and spec.max() <= 1.0 + 1e-10
    assert payload["difference"]["pairing_defect"] <= 1e-6
    assert payload["product_identity"]["residual_oracle"] <= 1e-8 * payload["n"]


def test_one_compression_per_probe(monkeypatch):
    # the difference spectrum and the D^2 check at one probe share one
    # selected eigenbasis per operator and parity block (closed form for
    # the free chain H0, a banded solve of each folded block for H), the
    # product check (n <= 600) takes the two sides it needs from the same
    # probe step on the same parity blocks, and the difference and the
    # corners take the principal angles of the two bases without a QR of
    # their joint span
    from projdiff.linalg import TridiagonalBands
    from projdiff.projections import corner_spectrum
    calls, qr_calls = [], []
    original, original_qr = TridiagonalBands.eigenpairs, np.linalg.qr

    def spy(self, lo, hi):
        calls.append((self.dim, lo, hi))
        return original(self, lo, hi)

    def qr_spy(a, *args, **kwargs):
        qr_calls.append(np.shape(a))
        return original_qr(a, *args, **kwargs)

    monkeypatch.setattr(TridiagonalBands, "eigenpairs", spy)
    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.5, 1.0),
                           model_params={"n": 400, "half_width": 40.0},
                           eps_ladder=(0.3, 0.2))
    payloads = run_experiment(cfg).body["probes"]
    assert all("difference" in p and "dsquared_residual" in p for p in payloads)
    # per probe, with m0 = m1 = m split into m+ and m- over the parity
    # blocks: the difference's small side, (0, m+) of H0's and H's even
    # blocks, then (0, m-) of their odd blocks (n / 2 long; H0's in closed
    # form), then the product check's H0 above the probe and H below on
    # the even blocks, then on the odd ones
    pair = cfg.build_pair()
    assert [pair.probe_gaps(p)[0] for p in cfg.probes] == [(18, 18), (25, 25)]
    assert [pair._probe_step(p)[0] for p in cfg.probes] == [[(9, 9), (9, 9)],
                                                             [(13, 13), (12, 12)]]
    assert calls == [(200, 0, 9)] * 4 + [(200, 9, 200), (200, 0, 9)] * 2 \
        + [(200, 0, 13)] * 2 + [(200, 0, 12)] * 2 \
        + [(200, 13, 200), (200, 0, 13), (200, 12, 200), (200, 0, 12)]
    assert qr_calls == []
    corner_spectrum(pair, 0.5, +1)
    assert qr_calls == []


def test_sech2_run_solves_no_full_spectrum_and_no_banded_h0(monkeypatch):
    # the band path reads counts, gaps and the small-side bases without a
    # full spectrum (no eigenvalues-only solve of every index), takes the
    # free chain H0 and its parity blocks in closed form (no banded
    # eigensolve of them), and solves H on its folded blocks, n / 2 long
    # full-range eigenvalues come from LAPACK's dstevd, selected ones and
    # eigenpairs from dstebz (range 2: by index; 0 would be all) and
    # dstein: all are spied.
    # Sturm counts are dstebz's range-1 calls on -M over (vl, vu], at an
    # abstol of at least vu - vl: recorded apart, with M negated back
    from projdiff import linalg
    calls, counts = [], []
    original_stevd = linalg.lapack.dstevd
    original_stebz, original_stein = linalg.lapack.dstebz, linalg.lapack.dstein
    cfg = ExperimentConfig(model="schrodinger:sech2", probes=(0.680619,),
                           eps_ladder=(0.3, 0.2, 0.1, 0.05))
    pair = cfg.build_pair()
    h0_blocks = pair.operators[0].parity_blocks

    def record(eigvals_only, select, d):
        calls.append((eigvals_only, select, len(d),
                      any(np.array_equal(d, b.diagonal) for b in [pair.operators[0], *h0_blocks])))

    def spy_stevd(d, e):
        record(True, "a", d)
        return original_stevd(d, e)

    def spy_stebz(d, e, select, *args):
        if select == 1:
            vl, vu, _, _, abstol, _ = args
            counts.append((abstol >= vu - vl, len(d), any(
                np.array_equal(-d, b.diagonal) for b in [pair.operators[0], *h0_blocks])))
        else:
            record(True, {0: "a", 1: "v", 2: "i"}[select], d)
        return original_stebz(d, e, select, *args)

    def spy_stein(d, e, *args):
        record(False, "i", d)
        return original_stein(d, e, *args)

    monkeypatch.setattr(linalg.lapack, "dstevd", spy_stevd)
    monkeypatch.setattr(linalg.lapack, "dstebz", spy_stebz)
    monkeypatch.setattr(linalg.lapack, "dstein", spy_stein)
    assert pair.operators[0].free_chain is not None and pair.operators[1].free_chain is None
    payload = run_experiment(cfg).body["probes"][0]
    assert payload["difference"]["path"] == "free-chain+parity"
    assert calls, "H's selected eigen-data come from the banded solver"
    assert not [c for c in calls if c[0] and c[1] == "a"]
    assert not [c for c in calls if c[3]]
    assert all(select == "i" for _, select, _, _ in calls)
    assert {length for *_, length, _ in calls} == {pair.dim // 2}
    # the probe step counts on both H blocks, and on no H0 block
    assert counts == [(True, pair.dim // 2, False)] * 2


def test_sech2_run_allocates_no_dense_matrix():
    # no n x n array on the band path: the traced peak of the whole run
    # stays below one n x n float64.  On the first box the coupling
    # dimension (100) and the eigenvectors on the small side of the probe
    # (56 and 57) are small next to n, so the run's own arrays peak near
    # 0.26 n^2 * 8 bytes and a single n x n float64 alone crosses the
    # budget.  On the second the small side holds r = 365 eigenvectors,
    # and the probe's n x r arrays bring the peak to about 0.82 n^2 * 8 bytes.
    import tracemalloc
    n = 1200
    for half_width, probe in ((200.0, 0.2), (300.0, 0.9)):
        cfg = ExperimentConfig(model="schrodinger:sech2",
                               model_params={"n": n, "half_width": half_width},
                               probes=(probe,), eps_ladder=(0.3, 0.2, 0.1, 0.05))
        tracemalloc.start()
        try:
            payload = run_experiment(cfg).body["probes"][0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "difference" in payload and "scattering" in payload
        assert peak < n * n * 8, (half_width, peak / (n * n * 8))


def test_tracer_targets_resolve_on_the_package():
    # the benchmark tracer wraps functions by name; a renamed or removed
    # target would break the traced mode (perfbench/run.py --trace 1) or
    # silently drop a per-layer metric to zero.  Each target is looked up
    # as the tracer does: a function on its module, a Class.method in the
    # class's own namespace; then the tracer is installed and taken off.
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def lookup(module_name, attr):
        owner = importlib.import_module(f"projdiff.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(getattr(owner, cls_name))
            assert attr in owner, f"{module_name}.{cls_name}.{attr}"
            return owner[attr]
        return getattr(owner, attr)

    originals = {(m, a): lookup(m, a) for m, a, _ in tracer.TARGETS}
    assert all(callable(f) for f in originals.values())
    from projdiff import projections, random_gapped_pair
    pair = random_gapped_pair(12, 3, 4)
    expect = projections.dsquared_block_check(pair, 0.0)
    traced = tracer.Tracer().install()
    try:
        assert all(lookup(m, a) is not f for (m, a), f in originals.items())
        assert projections.dsquared_block_check(pair, 0.0) == expect
    finally:
        traced.uninstall()
    assert all(lookup(m, a) is f for (m, a), f in originals.items())
    # the D^2 check reads the difference report: its span nests one
    # projections.difference span, which nests the two side-sine SVDs (the
    # D^2 blocks are Hermitian, and their norms take none)
    ops = [(op, parent) for op, _, _, _, parent in traced.spans]
    assert ops == [("projections.dsquared", -1), ("projections.difference", 0),
                   ("linalg.svd", 1), ("linalg.svd", 1)]


CALIBRATE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "tools", "calibrate.py")


def _load_calibrate_tool(monkeypatch):
    """tools/calibrate.py as a module, loaded without calibrating."""
    import importlib.util
    import sys

    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends src
    spec = importlib.util.spec_from_file_location("calibrate_tool", CALIBRATE_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class _RecordingSection(dict):
    """A parsed thresholds object that adds the path of every key read from
    it, and from the objects inside it, to ``seen``."""

    def __init__(self, data, seen, prefix=""):
        super().__init__(data)
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        self.seen.add(self.prefix + key)
        value = super().__getitem__(key)
        return _RecordingSection(value, self.seen, f"{self.prefix}{key}.") \
            if isinstance(value, dict) else value


def _leaf_paths(data, prefix=""):
    return [path for key, value in data.items()
            for path in (_leaf_paths(value, f"{prefix}{key}.") if isinstance(value, dict)
                         else [prefix + key])]


def test_every_shipped_threshold_has_a_reader(monkeypatch):
    # a key of thresholds.json is read by the acceptance suite, by a
    # preset's defaults or by the default run config; the zops entries are
    # tools/calibrate.py's own inputs.  The cached builders of the acceptance
    # suite are cleared, so that every read happens while it is recorded
    import sys

    from projdiff import acceptance, models

    original, seen = models.thresholds, set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "projdiff" and getattr(module, "thresholds", None) is original:
            monkeypatch.setattr(module, "thresholds",
                                lambda: _RecordingSection(original(), seen))
    cached = [f for f in vars(acceptance).values() if hasattr(f, "cache_clear")]
    assert cached
    for f in cached:
        f.cache_clear()
    try:
        acceptance.run_all(echo=None)
    finally:
        for f in cached:
            f.cache_clear()
    for name in models.preset_names():
        models.preset_defaults(name)
    ExperimentConfig()
    shipped = _leaf_paths(original())
    unread = [path for path in shipped
              if path not in seen and path != "comment" and not path.startswith("zops.")]
    assert unread == []


def test_calibrate_tool_resolves(monkeypatch):
    # tools/calibrate.py is run by hand; load it without calibrating and
    # check that every name it takes from projdiff still exists
    import ast
    import importlib

    tool = _load_calibrate_tool(monkeypatch)
    with open(CALIBRATE_PATH) as fh:
        imports = [node for node in ast.walk(ast.parse(fh.read()))
                   if isinstance(node, ast.ImportFrom) and node.module.startswith("projdiff")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert getattr(tool, alias.name) is getattr(module, alias.name)
    steps = sorted(name for name in vars(tool) if name.startswith("calibrate_"))
    assert steps == ["calibrate_hankel_window", "calibrate_krein_corner_and_sigma",
                     "calibrate_krein_ladder", "calibrate_sech2_boxes",
                     "calibrate_square_well"]
    for name in steps + ["main"]:
        assert callable(getattr(tool, name))


def test_calibrate_writer_keeps_the_shipped_layout(monkeypatch):
    # an unchanged calibration rewrites thresholds.json byte for byte
    tool = _load_calibrate_tool(monkeypatch)
    with open(tool.THRESHOLDS_PATH) as fh:
        shipped = fh.read()
    assert tool.thresholds_text(json.loads(shipped)) + "\n" == shipped


def test_calibrate_write_changes_only_the_two_picked_entries(monkeypatch, tmp_path):
    # with the sweeps stubbed, --write writes the ladder and the boxes they
    # pick and keeps hand edits of the fixed choices the other sweeps read
    import sys

    tool = _load_calibrate_tool(monkeypatch)
    with open(tool.THRESHOLDS_PATH) as fh:
        edited = json.load(fh)
    edited["hankel"]["log_half_width"] = 200.0
    edited["square_well"]["depth"] = 3.0
    path = tmp_path / "thresholds.json"
    path.write_text(tool.thresholds_text(edited) + "\n")
    read = []
    monkeypatch.setattr(tool, "THRESHOLDS_PATH", str(path))
    monkeypatch.setattr(tool, "calibrate_krein_ladder", lambda cfg: [0.4, 0.2])
    monkeypatch.setattr(tool, "calibrate_sech2_boxes", lambda cfg: [[10.0, 199], [20.0, 399]])
    for name in ("calibrate_hankel_window", "calibrate_square_well",
                 "calibrate_krein_corner_and_sigma"):
        monkeypatch.setattr(tool, name, lambda cfg: read.append(cfg))
    monkeypatch.setattr(sys, "argv", ["calibrate.py", "--write"])
    tool.main()
    written = json.loads(path.read_text())
    edited["krein"]["eps_ladder"] = [0.4, 0.2]
    edited["sech2"]["d_boxes"] = [[10.0, 199], [20.0, 399]]
    assert written == edited
    assert read == [edited["hankel"], edited["square_well"], edited]


@pytest.mark.parametrize("depth, rows", [(3.0, [1.5, 2.0, 2.5, 3.0]),
                                         (2.75, [1.5, 2.0, 2.5, 2.75, 3.0])])
def test_calibrate_square_well_prints_the_chosen_depths_own_separation(monkeypatch, capsys,
                                                                       depth, rows):
    # the chosen depth is swept with the others; the stub oracle's edges
    # give depth d the separation d / 4 - d / 10
    tool = _load_calibrate_tool(monkeypatch)
    monkeypatch.setattr(tool, "square_well_spec", lambda d, *args: d)
    monkeypatch.setattr(tool, "transfer_matrix_smatrix", lambda d, probe: types.SimpleNamespace(
        band_edges=np.sqrt([d / 4.0, d / 10.0])))
    monkeypatch.setattr(tool, "build_schrodinger_1d", lambda spec: None)
    monkeypatch.setattr(tool, "corner_spectrum", lambda pair, probe, sign: np.array([0.5]))
    cfg = dict(thresholds()["square_well"], depth=depth)
    tool.calibrate_square_well(cfg)
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[1:len(rows) + 1]] == \
        [f"   depth {d}" for d in rows]
    assert out[len(rows) + 1] == f"   chosen depth {depth} (separation ~ {0.15 * depth:.2f})"


REPORTDIFF_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "tools", "reportdiff.py")


def _load_reportdiff_tool():
    import importlib.util

    spec = importlib.util.spec_from_file_location("reportdiff_tool", REPORTDIFF_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reportdiff_exits_2_on_a_report_it_cannot_read(tmp_path, capsys):
    # status 1 means a non-float field changed; an unreadable report is named
    # on one line instead of ending in a traceback
    tool = _load_reportdiff_tool()
    good, bad, missing = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "none.json"
    good.write_text('{"x": 1.0}')
    bad.write_text('{"x": 1.0')
    for a, b, culprit in ((good, bad, bad), (missing, good, missing)):
        assert tool.main([str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {culprit}: ")
        assert captured.err.count("\n") == 1


def test_reportdiff_names_moved_floats_and_fails_on_a_moved_count(tmp_path, capsys):
    tool = _load_reportdiff_tool()
    base = {"schema": 1, "probes": [
        {"probe": 0.5, "difference": {"sines": [0.25, -0.5], "dim_plus": 1},
         "knee": float("nan")},
        {"probe": 0.7, "difference": {"sines": [0.125], "dim_plus": 0}, "knee": float("nan")}],
        "clauses": [{"name": "8-factorization", "passed": True, "details": {"residual": 4e-15}}]}

    def run(edit):
        moved = json.loads(json.dumps(base))
        edit(moved)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, report in zip(paths, (base, moved)):
            path.write_text(json.dumps(report))
        status = tool.main([str(p) for p in paths])
        return status, capsys.readouterr().out.splitlines()

    assert run(lambda r: None) == (0, ["0 float fields moved in 0 paths; 0 other changes"])

    def move_floats(r):
        r["probes"][0]["difference"]["sines"][1] = -0.5 - 1e-3
        r["probes"][1]["difference"]["sines"][0] = 0.125 + 1e-3
        r["clauses"][0]["details"]["residual"] = 5e-15

    status, out = run(move_floats)
    assert status == 0
    assert out[0] == "moved   probes[].difference.sines[]: abs 0.001, rel 0.00794 (2 fields)"
    assert out[1] == ("moved   clauses[8-factorization].details.residual: "
                      "abs 1e-15, rel 0.2 (1 field)")
    assert out[2] == "3 float fields moved in 2 paths; 0 other changes"

    def move_count(r):
        r["probes"][1]["difference"]["dim_plus"] = 1
        r["probes"][1]["difference"]["sines"].append(0.0)

    status, out = run(move_count)
    assert status == 1
    assert out == ["CHANGED probes[].difference.dim_plus: 0 -> 1",
                   "CHANGED probes[].difference.sines: length 1 -> 2",
                   "0 float fields moved in 0 paths; 2 other changes"]
