"""Workload inputs, one pass of each workload, and its output checks.

``make_inputs(workload, seed)`` needs only the standard library, so input
generation is the same on every commit.  ``run_pass`` is the timed part:
it hands the generated config to the library and serializes the report,
as ``projdiff run`` and ``projdiff verify-all --out`` do.  ``check``
compares the outputs against fixed tolerances and returns counts.

Tolerances are the acceptance suite's own (``projdiff.acceptance``):
phase and counting shift 0.1 (criterion 3), product oracle 1e-8 per
dimension and D^2 blocks 1e-10 per dimension (criterion 1), oracle
agreement 0.02 (criterion 4), and the +-x pairing bound 1e-6.
"""

import hashlib
import math
import random

BENCHMARKED = ("sech2-run", "krein-probes", "verify-all")
# "smoke" is a tiny seeded random pair for the benchmark's own test
WORKLOADS = BENCHMARKED + ("smoke",)

KREIN_PROBES = 8
KREIN_PROBE_RANGE = (0.1, 0.9)
SECH2_PROBE_RANGE = (0.6, 1.2)
SECH2_LADDER = (0.3, 0.2, 0.1, 0.05)
KREIN_LADDER = (0.2, 0.15, 0.1, 0.05)

PHASE_TOL = 0.1
XI_TOL = 0.1
PAIRING_TOL = 1e-6
PRODUCT_TOL_PER_DIM = 1e-8
DSQUARED_TOL_PER_DIM = 1e-10
ORACLE_TOL = 0.02
# sech2 oracle box of acceptance criterion 4
ORACLE_HALF_WIDTH = 30.0
ORACLE_N = 2000

# red clauses of verify-all at the commit that defined this benchmark; a red
# clause outside this set is a failed operation
BASELINE_RED = frozenset({
    "2-edge-fill", "2-max-gap", "2-size-improvement",
    "4-support-match", "5-knee-location", "5-top-eigenvalue",
})
# clauses whose details are wall-clock readings, left out of the report digest
TIMING_CLAUSES = frozenset({"1-runtime", "9-runtime"})


def make_inputs(workload, seed):
    """The config handed to the library, drawn from ``seed``."""
    rng = random.Random(seed)
    if workload == "sech2-run":
        probe = round(rng.uniform(*SECH2_PROBE_RANGE), 6)
        return {"model": "schrodinger:sech2", "probes": [probe],
                "eps_ladder": list(SECH2_LADDER), "seed": seed}
    if workload == "krein-probes":
        probes = sorted(round(rng.uniform(*KREIN_PROBE_RANGE), 6)
                        for _ in range(KREIN_PROBES))
        return {"model": "krein", "probes": probes,
                "eps_ladder": list(KREIN_LADDER), "seed": seed}
    if workload == "smoke":
        return {"model": "finite:random", "probes": [0.0],
                "eps_ladder": [0.1, 0.05, 0.02], "seed": seed}
    if workload == "verify-all":
        return {}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def run_pass(workload, inputs):
    """One timed pass.  Returns the report body and its JSON text."""
    if workload == "verify-all":
        from projdiff.acceptance import run_all
        from projdiff.harness import Report
        _, clauses = run_all(echo=None)
        body = {"schema": 1, "clauses": [
            {"name": c.name, "passed": c.passed, "details": c.details} for c in clauses]}
        return body, Report(body).to_json()
    from projdiff.harness import ExperimentConfig, run_experiment
    report = run_experiment(ExperimentConfig.from_dict(inputs))
    return report.body, report.to_json()


def digest(workload, body, text):
    """SHA-256 of the deterministic part of a report."""
    if workload == "verify-all":
        clauses = [{"name": c["name"], "passed": c["passed"],
                    "details": {} if c["name"] in TIMING_CLAUSES else c["details"]}
                   for c in body["clauses"]]
        from projdiff.harness import Report
        text = Report({"schema": body["schema"], "clauses": clauses}).to_json()
    return hashlib.sha256(text.encode()).hexdigest()


def sech2_oracle_a(probe):
    """a = max sin(theta/2) of the transfer-matrix oracle at ``probe``."""
    import numpy as np
    from projdiff.models import sech2_spec, thresholds
    from projdiff.scattering import transfer_matrix_smatrix
    depth = thresholds()["sech2"]["depth"]
    oracle = transfer_matrix_smatrix(sech2_spec(depth, ORACLE_HALF_WIDTH, ORACLE_N), probe)
    return float(np.max(np.sin(np.asarray(oracle.phases) / 2.0)))


def _probe_misses(workload, payload, a_oracle=None):
    """Names of the checks one probe payload misses."""
    misses = [key for key in payload if key.endswith("_error")]
    if misses:
        return misses
    n = payload["n"]
    if payload["difference"]["pairing_defect"] > PAIRING_TOL:
        misses.append("pairing_defect")
    if workload == "krein-probes":
        phases = list(payload["scattering"]["phases_extrapolated"])
        if not phases or max(abs(complex(math.cos(t) + 1.0, math.sin(t)))
                             for t in phases) > PHASE_TOL:
            misses.append("phase")
        if abs(payload["birman_krein"]["counting_shift"] - 0.5) > XI_TOL:
            misses.append("counting_shift")
    if workload in ("krein-probes", "smoke"):
        if payload["product_identity"]["residual_oracle"] / n > PRODUCT_TOL_PER_DIM:
            misses.append("product_identity")
    if workload == "smoke":
        if payload["dsquared_residual"] / n > DSQUARED_TOL_PER_DIM:
            misses.append("dsquared_residual")
    if workload == "sech2-run":
        if abs(payload["scattering"]["a_extrapolated"] - a_oracle) > ORACLE_TOL:
            misses.append("oracle_agreement")
    return misses


def check(workload, body):
    """Check one pass's report.

    Returns ``attempted`` operations (probes, or clauses), ``failed`` ones
    (wrong output), ``red`` ones (every failing probe or clause, the
    numerator of ``fail_ratio``) and ``notes`` naming what failed.
    """
    notes = []
    if workload == "verify-all":
        reds = [c["name"] for c in body["clauses"] if not c["passed"]]
        notes = [name for name in reds if name not in BASELINE_RED]
        return {"attempted": len(body["clauses"]), "failed": len(notes),
                "red": len(reds), "notes": notes}
    for payload in body["probes"]:
        a_oracle = sech2_oracle_a(payload["probe"]) if workload == "sech2-run" else None
        misses = _probe_misses(workload, payload, a_oracle)
        if misses:
            notes.append(f"probe {payload['probe']}: {', '.join(misses)}")
    return {"attempted": len(body["probes"]), "failed": len(notes),
            "red": len(notes), "notes": notes}
