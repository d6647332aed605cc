"""Experiment driver: configs, reports, convergence studies.

A config names a model preset, the probes, and the epsilon ladder that
dense pairs and the eps study extrapolate along; a run produces a
JSON-able report whose numeric entries carry the discretization size and
smoothing they were computed at.  Reports are bit-for-bit reproducible
for a fixed (config, seed): nothing time-dependent is stored in them.
Runs and studies return their report and write no file; the command line
(:mod:`projdiff.cli`) writes them with :meth:`Report.write` and
:func:`write_spectrum_csv`.
"""

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, ProjdiffError
from .linalg import hermitian_eigvalsh
from .models import preset_defaults, preset_pair, thresholds
from .projections import projection_difference
from .scattering import (band_edges, birman_krein_extrapolated, channel_smatrix,
                         check_eps_ladder, extrapolated_phases, phase_ladder)
from .zops import default_time_rule, product_representation_check

__all__ = ["ExperimentConfig", "Report", "run_experiment", "convergence_study",
           "difference_spectrum", "write_spectrum_csv"]

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, checked on construction: a bad field raises
    ConfigError with its path, so every config that exists is valid.  The
    default probe and ladder are the krein section's calibrated ones."""

    model: str = "krein"
    model_params: dict = field(default_factory=dict)
    probes: tuple = field(default_factory=lambda: (thresholds()["krein"]["probe"],))
    eps_ladder: tuple = field(default_factory=lambda: tuple(thresholds()["krein"]["eps_ladder"]))
    sizes: tuple = ()
    seed: int = 0

    @staticmethod
    def from_dict(data):
        """Parse a JSON object: absent fields keep the defaults above and
        lists become tuples."""
        if not isinstance(data, dict):
            raise ConfigError("config: expected an object")
        known = {f.name for f in fields(ExperimentConfig)}
        for key in data:
            if key not in known:
                raise ConfigError(f"config.{key}: unknown field")
        return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in data.items()})

    @staticmethod
    def from_json(path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
        return ExperimentConfig.from_dict(data)

    def __post_init__(self):
        """Every check of every field, run by the constructor."""
        _check_number(self.seed, "seed", int)
        if self.seed < 0:
            raise ConfigError("config.seed: must be non-negative")
        if not isinstance(self.model, str) or not self.model:
            raise ConfigError("config.model: must be a nonempty string")
        try:
            # an override has the type of the calibrated default it replaces
            params = {k: type(v) for k, v in preset_defaults(self.model).items()}
        except ValueError as exc:
            raise ConfigError(f"config.model: {exc}") from None
        if not isinstance(self.model_params, dict):
            raise ConfigError("config.model_params: must be an object")
        for key, value in self.model_params.items():
            if key not in params:
                raise ConfigError(f"config.model_params.{key}: unknown; "
                                  f"known: {', '.join(sorted(params))}")
            _check_number(value, f"model_params.{key}", params[key])
        for name in ("probes", "eps_ladder", "sizes"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ConfigError(f"config.{name}: must be a list")
        for name in ("probes", "eps_ladder"):
            for i, x in enumerate(getattr(self, name)):
                _check_number(x, f"{name}[{i}]", float)
        if self.eps_ladder:   # empty for band pairs, which take no ladder
            try:
                check_eps_ladder(self.eps_ladder)
            except ValueError as exc:
                raise ConfigError(f"config.eps_ladder: {exc}") from None
        for i, s in enumerate(self.sizes):
            _check_number(s, f"sizes[{i}]", int)
            if s < 1:
                raise ConfigError(f"config.sizes[{i}]: must be positive")

    def build_pair(self, **overrides):
        """The preset's pair; a parameter the builder rejects is a ConfigError."""
        try:
            return preset_pair(self.model, self.seed, **dict(self.model_params, **overrides))
        except ValueError as exc:
            raise ConfigError(f"config.model_params: {exc}") from exc


def _check_number(x, path, kind):
    """Reject x unless it is a finite number, and an integer when ``kind`` is int."""
    if kind is int and (not isinstance(x, numbers.Integral) or isinstance(x, bool)):
        raise ConfigError(f"config.{path}: must be an integer")
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ConfigError(f"config.{path}: must be a number")
    if not math.isfinite(x):
        raise ConfigError(f"config.{path}: must be finite")


@dataclass
class Report:
    """JSON-able payload; ``schema`` pins the layout version."""

    body: dict

    def to_json(self):
        """The body as strict JSON (RFC 8259): numpy values as Python ones,
        a complex number as {"re", "im"}, and a float that is not finite as
        null.  A first pass writes such a float as the constant NaN, Infinity
        or -Infinity, which its parse reads back as None."""
        body = json.loads(json.dumps(self.body, default=_jsonable), parse_constant=lambda _: None)
        return json.dumps(body, sort_keys=True, indent=2, allow_nan=False)

    def write(self, path):
        """Write :meth:`to_json` and a newline to ``path``, making its directory."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def difference_spectrum(difference):
    """All n values of D from a ``difference`` payload: its ``sines`` and
    ``zero_count`` zeros, sorted."""
    return np.sort(np.concatenate([difference["sines"], np.zeros(difference["zero_count"])]))


def write_spectrum_csv(path, values):
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(np.asarray(values).ravel()):
            fh.write(f"{i},{float(v)!r}\n")


_CAPTURED = (ProjdiffError, ArithmeticError, ValueError, np.linalg.LinAlgError)


_RUNG_FIELDS = ("eps", "phases", "unitarity_defect", "identity_residual",
                "factor_residual", "prediction_a")
_DIFFERENCE_FIELDS = ("sines", "extremes", "dim_plus", "dim_minus", "pairing_defect",
                      "max_gap", "coverage_distance", "gap_h0", "gap_h", "path")


def _difference(pair, probe):
    """The ``difference`` payload and the D^2 block residual."""
    rep = projection_difference(pair, probe)
    difference = {name: getattr(rep, name) for name in _DIFFERENCE_FIELDS}
    difference["zero_count"] = pair.dim - len(rep.sines)
    return {"difference": difference, "dsquared_residual": rep.dsquared_residual}


def _ladder_scattering(pair, probe, ladder):
    """The eps-ladder payload of a dense pair: rungs and extrapolated values."""
    phases, bundles = extrapolated_phases(pair, probe, ladder)
    rungs = [{name: getattr(b, name) for name in _RUNG_FIELDS} for b in bundles]
    edges, a = band_edges(phases)
    det_s, xi, defect = birman_krein_extrapolated(pair, probe, phases, ladder)
    return {"scattering": {"rungs": rungs, "phases_extrapolated": phases,
                           "band_edges": edges, "a_extrapolated": a},
            "birman_krein": {"det_s": det_s, "counting_shift": xi, "defect": defect}}


def _channel_scattering(pair, probe):
    """The eps = 0 payload of a band pair (:func:`channel_smatrix`), under
    the ladder payload's names."""
    ch = channel_smatrix(pair, probe)
    return {"scattering": {"phases_extrapolated": ch.phases, "band_edges": ch.band_edges,
                           "a_extrapolated": ch.a, "smatrix": ch.smatrix,
                           "unitarity_defect": ch.unitarity_defect},
            "birman_krein": {"det_s": ch.det_s, "counting_shift": ch.counting_shift,
                             "defect": ch.birman_krein_defect}}


def _probe_payload(pair, probe, ladder):
    """Everything computed at one probe, stage by stage: ``difference``,
    ``scattering`` and, for n <= 600, ``product_identity``.  A module error
    in a stage is reported as ``<stage>_error``; the other stages still run.

    The ``difference`` payload holds the r principal sines of D and the
    count n - r of its zero eigenvalues (:func:`difference_spectrum` joins
    them); its extremes, swap dimensions and fill metrics are those of all
    n values.

    The pair's storage picks the scattering path: a band pair's S and xi
    are taken at eps = 0 from open leads ("channel"), a dense pair's are
    extrapolated along the eps ladder ("ladder").
    """
    out = {"probe": probe, "n": pair.dim, "path": "channel" if pair.banded else "ladder"}
    if not pair.banded:
        out["eps_ladder"] = list(ladder)
    stages = {"difference": lambda: _difference(pair, probe),
              "scattering": lambda: (_channel_scattering(pair, probe) if pair.banded
                                     else _ladder_scattering(pair, probe, ladder))}
    if pair.dim <= 600:
        stages["product_identity"] = lambda: {
            "product_identity": asdict(product_representation_check(pair, probe))}
    for stage, compute in stages.items():
        try:
            out.update(compute())
        except _CAPTURED as exc:
            out[f"{stage}_error"] = str(exc)
    return out


def run_experiment(config):
    """Run every probe of a config and assemble a report."""
    body = {
        "schema": SCHEMA_VERSION,
        "config": asdict(config),
        "probes": [],
    }
    pair = config.build_pair()
    for probe in config.probes:
        body["probes"].append(_probe_payload(pair, probe, list(config.eps_ladder)))
    return Report(body)


def convergence_study(config, axis):
    """Vary one axis of a config and tabulate the metrics along it.

    ``axis`` is "n" (discretization sizes, at least 16), "eps" (ladder
    rungs one at a time) or "trule" (time-rule node counts for the product
    identity, at least 2).  Needs a probe (the first is studied) and at
    least 3 points.  Each metric carries its values, their first differences
    and a monotone-decrease flag.  On the "trule" axis the table also carries
    each point's roundoff floor n_t * eps * max|lambda| / gap (lambda =
    eigenvalue - probe over both spectra, gap = min|lambda| under the
    probe-gap contract, so a probe on an eigenvalue raises
    :class:`GapViolationError`), and a point that sits at or below its
    floor counts as decreasing: past convergence the residual is roundoff.
    """
    if not config.probes:
        raise ConfigError("config.probes: need a probe for a study")
    probe = config.probes[0]
    table = {"schema": SCHEMA_VERSION, "axis": axis, "points": [], "metrics": {}}
    rows = []   # one {metric: value} per point
    floors = None
    if axis in ("n", "trule"):
        points = [int(s) for s in config.sizes]
        if len(points) < 3:
            raise ConfigError("config.sizes: need >= 3 points for a study")
        least, what = (16, "model size") if axis == "n" else (2, "time-rule node count")
        for i, s in enumerate(points):
            if s < least:
                raise ConfigError(f"config.sizes[{i}]: {what} must be at least {least}")

    if axis == "n":
        for i, n in enumerate(points):
            try:
                pair = config.build_pair(n=n)
            except ConfigError as exc:
                # the rejected size came from config.sizes, not model_params
                raise ConfigError(f"config.sizes[{i}]: {exc.__cause__}") from exc.__cause__
            rep = projection_difference(pair, probe)
            rows.append({"max_gap": rep.max_gap, "coverage_distance": rep.coverage_distance,
                         "edge_deficit": max(abs(rep.extremes[0] + 1.0),
                                             abs(rep.extremes[1] - 1.0))})
    elif axis == "eps":
        points = list(config.eps_ladder)
        if len(points) < 3:
            raise ConfigError("config.eps_ladder: need >= 3 rungs for a study")
        rows = [{"prediction_a": b.prediction_a, "unitarity_defect": b.unitarity_defect,
                 "identity_residual": b.identity_residual,
                 "density_peak": float(np.max(hermitian_eigvalsh(b.f0prime), initial=0.0))}
                for b in phase_ladder(config.build_pair(), probe, points)]
    elif axis == "trule":
        pair = config.build_pair()
        gap = min(pair.probe_gaps(probe)[1])
        # max|lambda| is reached at an end of one of the two spectra
        lam = max(abs(b.eigenvalues(k, k + 1)[0] - probe)
                  for b in pair.operators for k in (0, pair.dim - 1))
        floors = np.asarray(points) * np.finfo(float).eps * lam / gap
        table["roundoff_floor"] = floors
        for n_t in points:
            chk = product_representation_check(pair, probe, default_time_rule(gap, n_t=n_t))
            rows.append({"residual_direct": chk.residual_direct,
                         "residual_oracle": chk.residual_oracle})
    else:
        raise ConfigError(f"study axis must be one of n|eps|trule, got {axis!r}")

    table["points"] = points
    for name in rows[0]:
        values = [row[name] for row in rows]
        diffs = np.diff(np.asarray(values, dtype=float))
        decreasing = diffs < 0
        if floors is not None:
            decreasing |= np.asarray(values[1:]) <= floors[1:]
        table["metrics"][name] = {
            "values": values,
            "first_differences": diffs,
            "monotone_decreasing": bool(np.all(decreasing)),
        }
    return Report(table)
