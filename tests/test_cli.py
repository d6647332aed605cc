import json

import pytest

from projdiff import cli
from projdiff.acceptance import Clause


def test_presets_listing(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("krein", "schrodinger:sech2", "schrodinger:square-well"):
        assert name in out


def test_run_with_config(tmp_path, capsys):
    cfg = {"model": "finite:random", "probes": [0.0], "seed": 3,
           "eps_ladder": [0.1, 0.05]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == 3

    out_dir = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
    assert (out_dir / "report.json").exists()


def test_run_invalid_config_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps_ladder": [0.1, 0.2]}))
    assert cli.main(["run", str(path)]) == 2
    assert "eps_ladder" in capsys.readouterr().err
    path.write_text("{broken")
    assert cli.main(["run", str(path)]) == 2


def test_study_cli(tmp_path, capsys):
    cfg = {"model": "finite:random", "probes": [0.0], "seed": 3,
           "eps_ladder": [0.2, 0.1, 0.05]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["study", str(path), "--axis", "eps"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["axis"] == "eps"


def test_seed_override(tmp_path, capsys):
    cfg = {"model": "finite:random", "probes": [0.0], "seed": 3,
           "eps_ladder": [0.1, 0.05]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", str(path), "--seed", "4"]) == 0
    assert capsys.readouterr().out == first
    # the seed is replaced and every other field is the file's, defaults filled in
    reported = json.loads(first)["config"]
    assert reported == {"model": "finite:random", "model_params": {}, "probes": [0.0],
                        "eps_ladder": [0.1, 0.05], "sizes": [], "seed": 4}


@pytest.mark.parametrize("config, path", [
    ({"probes": 5}, "config.probes"),
    ({"eps_ladder": 0.1}, "config.eps_ladder"),
    ({"sizes": 4}, "config.sizes"),
    ({"model_params": 5}, "config.model_params"),
    ({"model_params": {"bogus": 1}}, "config.model_params.bogus"),
    ({"model_params": {"n": 400.5}}, "config.model_params.n"),
    ({"tolerances": 3}, "config.tolerances"),
    # the phase floor is scattering.PHASE_FLOOR; no config field sets it
    ({"tolerances": {"phase_floor": 0.2}}, "config.tolerances"),
    ({"tolerances": {}}, "config.tolerances"),
    ({"out_dir": 7}, "config.out_dir"),
    ({"model": "nope"}, "config.model"),
    ({"seed": 1.5}, "config.seed"),
    # parameters a model builder rejects
    *(({"model": "finite:random", "model_params": params}, "config.model_params")
      for params in ({"gap": 1}, {"gap": -1e-3}, {"n": -3}, {"n": 0}, {"kdim": 0})),
    *(({"model": "krein", "model_params": params}, "config.model_params")
      for params in ({"n": 3}, {"L": -1.0})),
    ({"model": "schrodinger:sech2", "model_params": {"n": 100}}, "config.model_params"),
    # a random pair's size has one name, n, the axis every preset takes
    ({"model": "finite:random", "model_params": {"dim": 30}}, "config.model_params.dim"),
])
def test_run_edge_config_exits_2_naming_the_field(tmp_path, capsys, config, path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert f"error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, index", [([100, 200, 400], 0), ([200, 100, 400], 1)])
def test_study_size_the_model_rejects_exits_2_naming_sizes(tmp_path, capsys, sizes, index):
    # the n axis sets the size, so a size the model rejects names config.sizes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "schrodinger:sech2", "probes": [1.0],
                                    "model_params": {"half_width": 40.0}, "sizes": sizes}))
    assert cli.main(["study", str(cfg_path), "--axis", "n"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config.sizes[{index}]: grid too coarse; need n >= 200")


@pytest.mark.parametrize("model", ["krein", "finite:random"])
@pytest.mark.parametrize("axis, config, path", [
    # a study reads its first probe; run with no probes is a valid empty report
    ("eps", {"probes": [], "eps_ladder": [0.2, 0.1, 0.05]}, "config.probes"),
    ("trule", {"probes": [], "sizes": [10, 20, 40]}, "config.probes"),
    # on the trule axis the sizes are time-rule node counts, at least 2
    ("trule", {"probes": [0.5], "sizes": [10, 1, 40]}, "config.sizes[1]"),
])
def test_study_input_errors_exit_2_naming_the_field(tmp_path, capsys, model, axis,
                                                     config, path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, model=model)))
    assert cli.main(["study", str(cfg_path), "--axis", axis]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:")


def test_study_trule_with_the_probe_on_an_eigenvalue_exits_2(tmp_path, capsys):
    from projdiff.harness import ExperimentConfig
    on = float(ExperimentConfig(model="finite:random", seed=0)
               .build_pair().eigenvalues[0][5])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "finite:random", "seed": 0, "probes": [on],
                                    "sizes": [40, 80, 160]}))
    assert cli.main(["study", str(cfg_path), "--axis", "trule"]) == 2
    assert capsys.readouterr().err.startswith(f"error: eigenvalue {on:.12g} within")


def test_verify_all_wiring(monkeypatch, tmp_path, capsys):
    # exercise the subcommand surface with a stubbed criteria table so the
    # exit-code contract is covered without recomputing the full suite
    from projdiff import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA",
                        {1: lambda: [Clause("stub-pass", True, {"x": 1.0})]})
    monkeypatch.setattr(acceptance, "criterion_9",
                        lambda elapsed_total=None: [Clause("stub-det", True, {})])
    out_dir = tmp_path / "acc"
    assert cli.main(["verify-all", "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] stub-pass" in text
    data = json.loads((out_dir / "acceptance.json").read_text())
    assert data["clauses"][0]["name"] == "stub-pass"

    monkeypatch.setattr(acceptance, "CRITERIA",
                        {1: lambda: [Clause("stub-fail", False, {"x": 2.0})]})
    assert cli.main(["verify-all"]) == 1
    assert "[FAIL] stub-fail" in capsys.readouterr().out
    # verify-all reads no config and no seed
    for flag in ("--config", "--seed"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-all", flag, "1"])
        assert exc.value.code == 2
