"""Smoke test of the benchmark itself on a tiny seeded random pair.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the repository root.  Checks that every metric named in
BENCHMARK.json is emitted with its unit, that a wrong output is counted
in ``failed`` and ``fail_ratio``, and that the benchmark refuses to run
without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metrics_match_benchmark_json():
    spec = _spec()
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.BENCHMARKED
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert "fail_ratio" in proc.stdout


def test_wrong_output_is_counted():
    inputs = workloads.make_inputs("smoke", 3)
    body, text = workloads.run_pass("smoke", inputs)
    good = {"wall_s": 0.01, "peak_rss_mb": 80.0, "setup_s": 0.5,
            "digest": workloads.digest("smoke", body, text),
            "check": workloads.check("smoke", body)}
    assert good["check"]["failed"] == 0

    body["probes"][0]["difference"]["pairing_defect"] = 1.0   # deliberately wrong
    bad = dict(good, check=workloads.check("smoke", body))
    assert bad["check"]["notes"] == ["probe 0.0: pairing_defect"]
    result, _, fail_ratio, notes = run.summarize([good, bad], [0.5, 0.5])
    assert result["failed"] == 1 and not result["correct"]
    assert fail_ratio == 0.5 and notes

    changed = dict(good, digest="0" * 64)  # a pass whose report differs
    result, _, fail_ratio, _ = run.summarize([good, changed], [0.5, 0.5])
    assert result["failed"] == 1 and fail_ratio == 0.0


def test_verify_all_red_outside_baseline_is_failed():
    clauses = [{"name": "2-max-gap", "passed": False, "details": {}},
               {"name": "3-phase", "passed": False, "details": {}},
               {"name": "3-counting-shift", "passed": True, "details": {}}]
    got = workloads.check("verify-all", {"schema": 1, "clauses": clauses})
    assert got == {"attempted": 3, "failed": 1, "red": 2, "notes": ["3-phase"]}


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
