"""The acceptance suite: one callable per numbered criterion.

Each criterion function returns a list of :class:`Clause` results with
the measured values, so the CLI, the test suite, and the README tables
all read from the same computations.

Six clauses (three groups) probe the fill-in of essential spectra at
pinned sizes and are red at their stated tolerances, each along a
measured axis.  The ``2-*`` clauses (rank-one resolvent model) move with
the box length and where the probe falls between box levels, not with n.
The ``4-`` and ``5-`` clauses compare a lattice box of step h = 0.1 at
probe 1.0 with the continuum transfer-matrix oracle, so each margin has
two parts: the discretization gap, between the h = 0.1 lattice's own
channel S and the oracle, which no box size closes, and the box gap,
between the box and that lattice value.  They are reported rather than
retuned, so verify-all exits nonzero.  ``EXPECTED_RED`` maps each of
them to its reason, with the measured values (from ``verify-all``);
the strict-xfail markers of the tests read their reasons there.

Criteria 4 and 5 read a and the band edges off one oracle call each;
``4-oracle-agreement`` compares the channel a with it and runs no eps
ladder (the tests pin the ladder on that box).

Shared inputs are built once per process by cached helpers: ``_krein(n)``
(D reports at n = 200 and 400, for 2), ``_krein_phases()`` (n = 400 phases,
for 3 and 8), ``_identity_pairs()`` (20 random pairs and ``_krein(200)`` with
D reports, for 1 and 7) and ``_sech2_box`` (d_boxes reports, for 4 and 7).
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .hankel import (build_hankel, carleman_kernel, kernel_bound_suite,
                     laplace_factorizations, model_hankel_pair)
from .models import (build_krein, build_schrodinger_1d, random_gapped_pair,
                     resolvent_transform, sech2_spec, square_well_spec,
                     thresholds)
from .projections import (corner_spectrum, fill_metrics, hausdorff_distance,
                          interval_hausdorff, projection_difference, side_sines)
from .quadrature import exp_mapped_rule, log_rule
from .scattering import (birman_krein_extrapolated, channel_smatrix,
                         extrapolated_phases, phase_ladder, transfer_matrix_smatrix)
from .zops import product_representation_check

__all__ = ["Clause", "EXPECTED_RED", "run_all", "CRITERIA", "projection_identity_residual"]

# the red ledger: each clause red at the pinned sizes, with its reason
EXPECTED_RED = {
    "2-edge-fill":
        "edge deficit 0.2337 at n = 400, tolerance 0.05; the axis is the box "
        "length L and where probe 0.5 falls between box levels, not n: 0.2339 "
        "at n = 200, 0.1450 at n = 1600 with L = 320",
    "2-max-gap":
        "max gap 0.6120 at n = 400, tolerance 0.1; at L = 40 it does not close "
        "with n (0.6118 at n = 200)",
    "2-size-improvement":
        "compares two discretizations of one box (L = 40, n = 200 and 400): "
        "the edge deficit falls 0.2339 -> 0.2337 but the max gap rises "
        "0.6118 -> 0.6120",
    "4-support-match":
        "support error 0.157 against a = 0.4525, tolerance 0.05: "
        "discretization gap 0.0006 (h = 0.1 lattice a = 0.45308 against the "
        "oracle's 0.45250); box gap 0.158 (top of |D| 0.2951 at half-width 76 "
        "against 0.45308), about +0.013 per box doubling; half-width 152 holds "
        "a swap eigenvalue +1",
    "5-knee-location":
        "discretization gap 0.0017 (h = 0.1 lattice sin^2(theta_2/2) = 0.4477 "
        "against the oracle's 0.4494); box gap: the knee is NaN, only 2 corner "
        "eigenvalues (0.2939, 0.2398) exceed the 0.02 fit floor and the fit "
        "needs 6",
    "5-top-eigenvalue":
        "corner top 0.2939 against sin^2(theta_1/2) = 0.7906, tolerance 0.05: "
        "discretization gap 0.083 (the h = 0.1 lattice's own S gives 0.7075), "
        "so no box at this step passes; box gap 0.414 (0.2939 against 0.7075; "
        "best top 0.294 -> 0.428 over half-widths 60 -> 960)",
}

KNEE_FLOOR = 0.02          # corner eigenvalues the counting-knee fit uses


@dataclass
class Clause:
    """One pass/fail line of the acceptance suite."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {extra}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(float(x)) for x in np.ravel(v)[:6]) + "]"
    return str(v)


# ---------------------------------------------------------------------------
# 1. exact identities at machine precision
# ---------------------------------------------------------------------------

@functools.cache
def _krein(n):
    """(build_krein(n, L), the calibrated probe, the D report there)."""
    cfg = thresholds()["krein"]
    pair = build_krein(n, cfg["L"])
    return pair, cfg["probe"], projection_difference(pair, cfg["probe"])


@functools.cache
def _krein_phases():
    """(pair, probe, extrapolated phases) of the calibrated ``_krein`` pair."""
    cfg = thresholds()["krein"]
    pair, probe, _ = _krein(cfg["n"])
    return pair, probe, extrapolated_phases(pair, probe, cfg["eps_ladder"])[0]


@functools.cache
def _identity_pairs():
    """(pair, probe, D report) of the seeded random pairs at probe 0 and of
    ``_krein(200)``; criterion 7 reuses criterion 1's eigen-data."""
    cfg = thresholds()["random_pair"]
    pairs = [random_gapped_pair(cfg["dim"], cfg["kdim"], seed, gap=cfg["gap"])
             for seed in range(cfg["count"])]
    return tuple([(p, 0.0, projection_difference(p, 0.0)) for p in pairs] + [_krein(200)])


@functools.cache
def _sech2_box(half_width, n):
    """The D report (not the pair, which is large) of a sech^2 d_boxes box."""
    cfg = thresholds()["sech2"]
    pair = build_schrodinger_1d(sech2_spec(cfg["depth"], half_width, n))
    return projection_difference(pair, cfg["probe"])


def criterion_1():
    """Resolvent factor identity, block decomposition of D^2, the
    defect-operator identity and the Sylvester-certified product identity
    on 20 seeded random pairs and the rank-one resolvent model."""
    t0 = time.monotonic()
    worst = {"factor": 0.0, "block": 0.0, "defect_identity": 0.0, "product": 0.0}
    for pair, probe, rep in _identity_pairs():
        for b in phase_ladder(pair, probe, (1e-1, 1e-2)):
            worst["factor"] = max(worst["factor"], b.factor_residual)
            worst["defect_identity"] = max(worst["defect_identity"], b.identity_residual)
        worst["block"] = max(worst["block"], rep.dsquared_residual / pair.dim)
        chk = product_representation_check(pair, probe)
        worst["product"] = max(worst["product"], chk.residual_oracle / pair.dim)
    elapsed = time.monotonic() - t0
    return [
        Clause("1-resolvent-factor", worst["factor"] <= 1e-9,
               {"residual": worst["factor"]}),
        Clause("1-dsquared-blocks", worst["block"] <= 1e-10,
               {"residual_per_dim": worst["block"]}),
        Clause("1-defect-identity", worst["defect_identity"] <= 1e-9,
               {"residual": worst["defect_identity"]}),
        Clause("1-product-oracle", worst["product"] <= 1e-8,
               {"residual_per_dim": worst["product"]}),
        Clause("1-runtime", elapsed < 120.0, {"seconds": elapsed}),
    ]


# ---------------------------------------------------------------------------
# 2. rank-one resolvent model: difference-spectrum fill at pinned sizes
# ---------------------------------------------------------------------------

def _krein_fill(n):
    """(edge deficit, max gap on [-0.95, 0.95]) of the ``_krein(n)`` report."""
    rep = _krein(n)[2]
    lo, hi = rep.extremes
    return max(abs(lo + 1.0), abs(hi - 1.0)), fill_metrics(rep.spectrum, -0.95, 0.95)[0]


def criterion_2():
    edge4, gap4 = _krein_fill(400)
    edge2, gap2 = _krein_fill(200)
    return [
        Clause("2-edge-fill", edge4 <= 0.05, {"edge_deficit_n400": edge4}),
        Clause("2-max-gap", gap4 <= 0.1, {"max_gap_n400": gap4}),
        Clause("2-size-improvement", edge4 < edge2 and gap4 < gap2,
               {"edge_n200": edge2, "edge_n400": edge4,
                "gap_n200": gap2, "gap_n400": gap4}),
    ]


# ---------------------------------------------------------------------------
# 3. rank-one resolvent model: counting shift 1/2 and phase -1
# ---------------------------------------------------------------------------

def criterion_3():
    cfg = thresholds()["krein"]
    pair, probe, phases = _krein_phases()
    phase_defect = (float(np.min(np.abs(np.exp(1j * phases) + 1.0)))
                    if len(phases) else 2.0)
    det_s, xi, bk_defect = birman_krein_extrapolated(pair, probe, phases, cfg["eps_ladder"])
    return [
        Clause("3-counting-shift", abs(xi - 0.5) <= 0.1, {"xi": xi}),
        Clause("3-phase", phase_defect <= 0.1, {"|exp(i*theta)+1|": phase_defect}),
        Clause("3-birman-krein", bk_defect <= 0.1, {"defect": bk_defect}),
    ]


# ---------------------------------------------------------------------------
# 4. sech^2 well: support of D versus [-a, a], oracle agreement
# ---------------------------------------------------------------------------

def criterion_4():
    cfg = thresholds()["sech2"]
    probe = cfg["probe"]
    a_oracle = transfer_matrix_smatrix(
        sech2_spec(cfg["depth"], cfg["oracle_half_width"], cfg["oracle_n"]), probe).a
    scatter = build_schrodinger_1d(
        sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))
    a_channel = channel_smatrix(scatter, probe).a

    reps = [_sech2_box(half_width, n) for half_width, n in cfg["d_boxes"]]
    support_err = max(abs(reps[-1].extremes[0] + a_oracle),
                      abs(reps[-1].extremes[1] - a_oracle))
    hausdorffs = [interval_hausdorff(r.spectrum, -a_oracle, a_oracle) for r in reps]
    return [
        Clause("4-support-match", support_err <= 0.05,
               {"support_error": support_err, "a": a_oracle,
                "extremes": reps[-1].extremes}),
        Clause("4-oracle-agreement", abs(a_channel - a_oracle) <= 0.02,
               {"a_stationary": a_channel, "a_oracle": a_oracle}),
        Clause("4-hausdorff-decrease", hausdorffs[-1] < hausdorffs[0],
               {"hausdorff": hausdorffs}),
    ]


# ---------------------------------------------------------------------------
# 5. two-phase square well: corner-spectrum counting function
# ---------------------------------------------------------------------------

def counting_knee(values):
    """Two-piece linear fit of the descending counting function N(x).

    Returns the breakpoint minimizing the least-squares error over
    candidate breakpoints taken at the eigenvalues above KNEE_FLOOR; NaN
    when fewer than 6 lie above it.
    """
    vals = np.sort(values[values > KNEE_FLOOR])[::-1]
    if len(vals) < 6:
        return float("nan")
    x = vals
    y = np.arange(1, len(vals) + 1, dtype=float)

    def sse(mask):
        coef = np.polyfit(x[mask], y[mask], 1)
        return float(np.sum((np.polyval(coef, x[mask]) - y[mask]) ** 2))

    best, best_err = float("nan"), np.inf
    for split in range(2, len(vals) - 2):          # at least 2 points a side
        left = np.zeros(len(vals), dtype=bool)
        left[:split] = True
        err = sse(left) + sse(~left)
        if err < best_err:
            best_err, best = err, x[split]
    return float(best)


def criterion_5():
    cfg = thresholds()["square_well"]
    probe = cfg["probe"]
    oracle = transfer_matrix_smatrix(square_well_spec(
        cfg["depth"], cfg["width"], cfg["oracle_half_width"], cfg["oracle_n"]), probe)
    s1, s2 = (float(e) for e in oracle.band_edges[:2] ** 2)
    half_width, n = cfg["corner_box"]
    pair = build_schrodinger_1d(square_well_spec(cfg["depth"], cfg["width"],
                                                 half_width, n))
    corner = corner_spectrum(pair, probe, sign=+1)
    top = float(corner.max())
    knee = counting_knee(corner)
    filled = np.sort(corner[corner > 0.01])[::-1]
    knee_ok = bool(np.isfinite(knee) and abs(knee - s2) <= 0.05)
    return [
        Clause("5-knee-location", knee_ok,
               {"knee": knee, "sin2_theta2": s2, "filled_count": len(filled),
                "filled_top": filled[:5]}),
        Clause("5-top-eigenvalue", abs(top - s1) <= 0.05,
               {"top": top, "sin2_theta1": s1}),
    ]


# ---------------------------------------------------------------------------
# 6. Hankel suite
# ---------------------------------------------------------------------------

def criterion_6():
    cfg = thresholds()["hankel"]
    rule = log_rule(cfg["n"], cfg["log_half_width"])
    pairdata = model_hankel_pair(rule)
    spec = np.concatenate([pairdata["spectrum_gamma"], pairdata["spectrum_gamma0"]])
    contained = bool(spec.min() >= -1e-8 and spec.max() <= np.pi + 1e-8)
    tops_ok = (pairdata["top_gamma"] >= np.pi - 0.1
               and pairdata["top_gamma0"] >= np.pi - 0.1)
    fact = laplace_factorizations(exp_mapped_rule(cfg["fact_n_t"], 1.0), cfg["fact_n_lambda"])
    fact_ok = (fact["gamma_factorization"] <= 1e-6
               and fact["gamma0_factorization"] <= 1e-6)
    corpus = [
        (pairdata["gamma0"], 1.0),                         # e^-tau <= 1
        (pairdata["gamma"], 1.0),                          # 1-e^-tau <= 1
        (build_hankel(carleman_kernel, rule), 1.0),
        (build_hankel(lambda tau: np.exp(-tau), rule), 1.0 / np.e),
        (build_hankel(lambda tau: 1.0 / (1.0 + tau) ** 2, rule), 0.25),
    ]
    suites = [kernel_bound_suite(disc, c1) for disc, c1 in corpus]
    bound_ok = all(suite["bound_holds"] for suite in suites)
    worst_margin = max(suite["operator_norm"] - suite["bound"] for suite in suites)
    cnorm = suites[2]["operator_norm"]
    carleman_ok = np.pi - 0.05 <= cnorm <= np.pi + 1e-9
    return [
        Clause("6-spectra-contained", contained,
               {"min": float(spec.min()), "max": float(spec.max())}),
        Clause("6-top-eigenvalues", tops_ok,
               {"top_gamma": pairdata["top_gamma"],
                "top_gamma0": pairdata["top_gamma0"]}),
        Clause("6-hausdorff", pairdata["hausdorff"] <= 0.05,
               {"hausdorff": pairdata["hausdorff"]}),
        Clause("6-laplace-factorizations", fact_ok,
               {"gamma": fact["gamma_factorization"],
                "gamma0": fact["gamma0_factorization"]}),
        Clause("6-carleman-norm", bool(carleman_ok), {"norm": cnorm}),
        Clause("6-kernel-bounds", bound_ok, {"worst_margin": worst_margin}),
    ]


# ---------------------------------------------------------------------------
# 7. middle-spectrum pairing symmetry on every computed difference
# ---------------------------------------------------------------------------

def criterion_7():
    reps = [rep for _, _, rep in _identity_pairs()]
    reps.append(_sech2_box(*thresholds()["sech2"]["d_boxes"][0]))
    worst = max(rep.pairing_defect for rep in reps)
    return [Clause("7-pairing-symmetry", worst <= 1e-6, {"worst_defect": worst})]


# ---------------------------------------------------------------------------
# 8. invariance principle
# ---------------------------------------------------------------------------

def projection_identity_residual(pair, transform, probe):
    """d0 + d1, a bound on ||(E(probe) - E0(probe)) - (F0(mu) - F1(mu))||_2.

    F_j are the transformed pair's spectral projections below
    mu = transform.mu(probe).  The map reverses order, so each operator's
    projection is invariant on its own, E_j(probe) = I - F_j(mu), and D
    changes by the difference of the two deviations.  d_j is
    ||E_j(probe) - (I - F_j(mu))||_2: the largest principal sine between
    U_j of the pair's probe basis and that of the transformed pair on the
    mirrored side of mu, or 1 when their counts differ (the dimension
    excess).  A probe too close to either spectrum raises
    :class:`GapViolationError`.
    """
    mu = float(transform.mu(probe))
    _, side, bases = pair.probe_basis(probe)
    _, _, mirrored = transform.pair.probe_basis(mu, (-side, -side))
    total = 0.0
    for e, f in zip(pair.unfold(bases), transform.pair.unfold(mirrored)):
        u, w = e.eigenvectors, f.eigenvectors
        total += 1.0 if u.shape != w.shape else \
            float(np.max(side_sines(u, w, w.conj().T @ u)[1], initial=0.0))
    return total


def criterion_8():
    """Invariance principle under x -> 1/(x - a): the phases agree, each
    spectral projection is invariant on its own (E_j(probe) = I - F_j(mu),
    see :func:`projection_identity_residual`), the factorization holds."""
    cfg = thresholds()["krein"]
    pair, probe, phases = _krein_phases()
    transform = resolvent_transform(pair, cfg["resolvent_shift"])
    mu = float(transform.mu(probe))

    phases_t, _ = extrapolated_phases(transform.pair, mu, cfg["eps_ladder"])
    phase_dist = (hausdorff_distance(np.exp(1j * phases), np.exp(1j * phases_t))
                  if len(phases) and len(phases_t) else 2.0)

    proj_resid = projection_identity_residual(pair, transform, probe)
    fact_resid = float(transform.pair.factorization_residual())
    return [
        Clause("8-phase-agreement", phase_dist <= 2e-2, {"distance": phase_dist}),
        Clause("8-projection-identity", proj_resid <= 1e-12, {"residual": proj_resid}),
        Clause("8-transformed-factorization", fact_resid <= 1e-9,
               {"residual": fact_resid}),
    ]


# ---------------------------------------------------------------------------
# 9. runtime and determinism of the full run
# ---------------------------------------------------------------------------

def criterion_9(elapsed_total=None):
    from .harness import ExperimentConfig, run_experiment
    cfg = ExperimentConfig(model="finite:random", probes=(0.0,),
                           eps_ladder=(0.1, 0.05, 0.02), seed=7)
    first = run_experiment(cfg).to_json()
    second = run_experiment(cfg).to_json()
    clauses = [Clause("9-determinism", first == second,
                      {"bytes": len(first)})]
    if elapsed_total is not None:
        clauses.append(Clause("9-runtime", elapsed_total < 600.0,
                              {"seconds": elapsed_total}))
    return clauses


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
}


def run_all(echo=print):
    """Run criteria 1-9 in order, echoing one line per clause.

    Returns (exit_code, clauses); exit code 1 when any clause fails.
    """
    clauses = []
    t0 = time.monotonic()
    for number in sorted(CRITERIA):
        for clause in CRITERIA[number]():
            clauses.append(clause)
            if echo:
                echo(clause.line())
    for clause in criterion_9(elapsed_total=time.monotonic() - t0):
        clauses.append(clause)
        if echo:
            echo(clause.line())
    exit_code = 0 if all(c.passed for c in clauses) else 1
    return exit_code, clauses
