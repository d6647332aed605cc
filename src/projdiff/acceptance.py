"""The acceptance suite: one callable per numbered criterion.

Each criterion function returns a list of :class:`Clause` results with
the measured values, so the CLI, the test suite, and the README tables
all read from the same computations.

Six clauses (three groups) probe the fill-in of essential spectra at
pinned sizes and are red at their stated tolerances, each along a
measured axis (values from ``verify-all``):

* ``2-*`` (rank-one resolvent model, n = 400, L = 40, probe 0.5): the
  axis is the box length L and where the probe falls between box levels,
  not n.  Edge deficit 0.2339 / 0.2337 at n = 200 / 400 (0.1450 at
  n = 1600, L = 320), max gap 0.612; ``2-size-improvement`` compares
  two discretizations of one box.

The ``4-`` and ``5-`` clauses compare a lattice box of step h = 0.1 at
probe 1.0 with the continuum transfer-matrix oracle, so each margin has
two parts: the discretization gap, between the h = 0.1 lattice's own
channel S and the oracle, which no box size closes, and the box gap,
between the box and that lattice value.

* ``4-support-match`` (sech2 well, half-width 76): discretization gap
  0.0006 (lattice a = 0.45308 against the oracle's 0.45250); box gap
  0.158 (top of |D| 0.2951 against 0.45308), gaining about +0.013 per
  box doubling; the box of half-width 152 holds a swap eigenvalue +1.
* ``5-top-eigenvalue`` (square well, half-width 60): discretization gap
  0.083 (the lattice's sin^2(theta_1/2) = 0.7075 against the oracle's
  0.7906), above the tolerance 0.05, so no box at this step passes; box
  gap 0.414 (corner top 0.2939 against 0.7075).
* ``5-knee-location``: discretization gap 0.0017 (sin^2(theta_2/2) =
  0.4477 against 0.4494); the knee is NaN, as only 2 corner eigenvalues
  exceed KNEE_FLOOR and the fit needs 6.

They are reported rather than retuned, so verify-all exits nonzero; the
expected-failure set is ``EXPECTED_RED``.

Criteria 4 and 5 read a and the band edges off one oracle call each;
``4-oracle-agreement`` compares the channel a with it and runs no eps
ladder (the tests pin the ladder on that box).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .hankel import (build_hankel, carleman_kernel, default_hankel_rule,
                     kernel_bound_suite, laplace_factorizations, model_hankel_pair)
from .linalg import probe_gaps, subspace_compressions
from .models import (build_krein, build_schrodinger_1d, random_gapped_pair,
                     resolvent_transform, sech2_spec, square_well_spec,
                     thresholds)
from .projections import (corner_spectrum, dsquared_block_check,
                          interval_hausdorff, projection_difference)
from .quadrature import make_quadrature
from .scattering import (birman_krein_extrapolated, channel_smatrix,
                         extrapolated_phases, scattering_bundle,
                         transfer_matrix_smatrix)
from .zops import product_representation_check

__all__ = ["Clause", "EXPECTED_RED", "run_all", "CRITERIA", "projection_identity_residual"]

# clauses red at the pinned sizes, each along its measured axis (module
# docstring): box length and probe position between box levels (2-*);
# for 4- and 5-, a discretization gap at h = 0.1 (0.0006 for 4-, 0.083
# for 5-top, beyond its tolerance) and a box gap (0.158 for 4-, 0.414 for
# 5-top, a NaN knee for 5-knee)
EXPECTED_RED = {
    "2-edge-fill", "2-max-gap", "2-size-improvement",
    "4-support-match", "5-knee-location", "5-top-eigenvalue",
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

def criterion_1():
    """Resolvent factor identity, block decomposition of D^2, the
    defect-operator identity and the Sylvester-certified product identity
    on 20 seeded random pairs and the rank-one resolvent model."""
    cfg = thresholds()["random_pair"]
    t0 = time.monotonic()
    pairs = [random_gapped_pair(cfg["dim"], cfg["kdim"], seed, gap=cfg["gap"])
             for seed in range(cfg["count"])]
    pairs.append(build_krein(200, 40.0))
    probes = [0.0] * cfg["count"] + [0.5]

    worst = {"factor": 0.0, "block": 0.0, "defect_identity": 0.0, "product": 0.0}
    for pair, probe in zip(pairs, probes):
        for eps in (1e-1, 1e-2):
            b = scattering_bundle(pair, probe, eps)
            worst["factor"] = max(worst["factor"], b.factor_residual)
            worst["defect_identity"] = max(worst["defect_identity"], b.identity_residual)
        worst["block"] = max(worst["block"],
                             dsquared_block_check(pair, probe) / pair.dim)
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

def _krein_fill(n, L, probe):
    rep = projection_difference(build_krein(n, L), probe)
    lo, hi = rep.extremes
    spec = rep.spectrum
    window = np.sort(spec[(spec >= -0.95) & (spec <= 0.95)])
    max_gap = float(np.max(np.diff(window))) if len(window) > 1 else 1.9
    edge = max(abs(lo + 1.0), abs(hi - 1.0))
    return edge, max_gap, rep


def criterion_2():
    cfg = thresholds()["krein"]
    probe = cfg["probe"]
    edge4, gap4, _ = _krein_fill(400, cfg["L"], probe)
    edge2, gap2, _ = _krein_fill(200, cfg["L"], probe)
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
    pair = build_krein(cfg["n"], cfg["L"])
    probe = cfg["probe"]
    phases, _ = extrapolated_phases(pair, probe, cfg["eps_ladder"])
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
        sech2_spec(cfg["depth"], cfg["oracle_half_width"], 2000), probe).a
    scatter = build_schrodinger_1d(
        sech2_spec(cfg["depth"], cfg["scatter_half_width"], cfg["scatter_n"]))
    a_channel = channel_smatrix(scatter, probe).a

    reps = []
    for half_width, n in cfg["d_boxes"]:
        spec = sech2_spec(cfg["depth"], half_width, n)
        reps.append(projection_difference(build_schrodinger_1d(spec), probe,
                                          target=(-a_oracle, a_oracle)))
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
        if mask.sum() < 2:
            return 0.0
        coef = np.polyfit(x[mask], y[mask], 1)
        return float(np.sum((np.polyval(coef, x[mask]) - y[mask]) ** 2))

    best, best_err = float("nan"), np.inf
    for split in range(2, len(vals) - 2):
        left = np.zeros(len(vals), dtype=bool)
        left[:split] = True
        err = sse(left) + sse(~left)
        if err < best_err:
            best_err, best = err, x[split]
    return float(best)


def criterion_5():
    cfg = thresholds()["square_well"]
    probe = cfg["probe"]
    oracle = transfer_matrix_smatrix(
        square_well_spec(cfg["depth"], cfg["width"], 30.0, 2000), probe)
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
    rule = default_hankel_rule(cfg["n"], cfg["log_half_width"])
    pairdata = model_hankel_pair(rule)
    spec = np.concatenate([pairdata["spectrum_gamma"], pairdata["spectrum_gamma0"]])
    contained = bool(spec.min() >= -1e-8 and spec.max() <= np.pi + 1e-8)
    tops_ok = (pairdata["top_gamma"] >= np.pi - 0.1
               and pairdata["top_gamma0"] >= np.pi - 0.1)
    fact = laplace_factorizations(
        make_quadrature("halfline-exp-mapped", cfg["fact_n_t"]),
        n_lambda=cfg["fact_n_lambda"])
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
    cfg = thresholds()["random_pair"]
    worst = 0.0
    for seed in range(cfg["count"]):
        pair = random_gapped_pair(cfg["dim"], cfg["kdim"], seed, gap=cfg["gap"])
        rep = projection_difference(pair, 0.0)
        worst = max(worst, rep.pairing_defect)
    worst = max(worst, projection_difference(build_krein(200, 40.0), 0.5).pairing_defect)
    sech_cfg = thresholds()["sech2"]
    hw, n = sech_cfg["d_boxes"][0]
    pair = build_schrodinger_1d(sech2_spec(sech_cfg["depth"], hw, n))
    worst = max(worst, projection_difference(pair, sech_cfg["probe"]).pairing_defect)
    return [Clause("7-pairing-symmetry", worst <= 1e-6, {"worst_defect": worst})]


# ---------------------------------------------------------------------------
# 8. invariance principle
# ---------------------------------------------------------------------------

def projection_identity_residual(pair, transform, probe):
    """||(E(probe) - E0(probe)) - (F0(mu) - F1(mu))||_2 on the small side.

    F0 and F1 are the spectral projections of the transformed pair at
    mu = transform.mu(probe).  With (s, U0, U1) the pair's probe basis at
    the probe and (s', W0, W1) the transformed pair's at mu, the two
    differences are -s (U1 U1* - U0 U0*) and s' (W0 W0* - W1 W1*), both
    zero off span[U0, U1, W0, W1]; so the residual is that of the
    compressions A_j, B_j of :func:`projdiff.linalg.subspace_compressions`
    of (U0, U1, W0, W1): ||-s (A1 - A0) + s' (B0 - B1)||_2.  A probe too
    close to either spectrum raises :class:`GapViolationError` (see
    :func:`projdiff.linalg.probe_gaps`).
    """
    mu = float(transform.mu(probe))
    probe_gaps(probe, pair.eigenvalues)
    probe_gaps(mu, transform.pair.eigenvalues)
    side, u0, u1 = pair.probe_basis(probe)
    side_t, w0, w1 = transform.pair.probe_basis(mu)
    a0, a1, b0, b1 = subspace_compressions(u0, u1, w0, w1)
    return float(np.linalg.norm(-side * (a1 - a0) + side_t * (b0 - b1), 2))


def criterion_8():
    cfg = thresholds()["krein"]
    pair = build_krein(cfg["n"], cfg["L"])
    probe = cfg["probe"]
    shift = cfg["resolvent_shift"]
    transform = resolvent_transform(pair, shift)
    mu = float(transform.mu(probe))

    phases, _ = extrapolated_phases(pair, probe, cfg["eps_ladder"])
    phases_t, _ = extrapolated_phases(transform.pair, mu, cfg["eps_ladder"])
    if len(phases) and len(phases_t):
        ev = np.exp(1j * phases)
        evt = np.exp(1j * phases_t)
        d = np.abs(ev[:, None] - evt[None, :])
        phase_dist = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    else:
        phase_dist = 2.0

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
