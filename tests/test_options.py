"""Each tolerance has one home: a module constant, read at call time by the
one function that applies it, and no keyword parameter that resets it."""

import importlib
import inspect
import re

import pytest

from projdiff import linalg, scattering
from projdiff.errors import GapViolationError
from projdiff.models import random_gapped_pair
from projdiff.projections import corner_spectrum, projection_difference
from projdiff.zops import product_representation_check

MODULES = ("acceptance", "hankel", "harness", "linalg", "models", "projections",
           "quadrature", "scattering", "zops")
TOLERANCE_NAME = re.compile(r"tol|.*_tol|cond_limit|clip|radius|band|support_floor"
                            r"|phase_floor|max_tries|scale_over_gap|u_rule")


def _public_callables():
    for module_name in MODULES:
        module = importlib.import_module(f"projdiff.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield f"{module_name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{module_name}.{name}.{attr}", member


def test_no_tolerance_is_a_keyword_option():
    offenders = [f"{where}({param.name})"
                 for where, fn in _public_callables()
                 for param in inspect.signature(fn).parameters.values()
                 if param.default is not inspect.Parameter.empty
                 and TOLERANCE_NAME.fullmatch(param.name)]
    assert offenders == []


def test_probe_gap_tolerance_is_read_at_call_time(monkeypatch):
    pair = random_gapped_pair(24, 3, seed=0)
    gap = min(linalg.probe_gaps(0.0, pair.eigenvalues))
    checks = (lambda: projection_difference(pair, 0.0),
              lambda: corner_spectrum(pair, 0.0),
              lambda: product_representation_check(pair, 0.0))
    for check in checks:
        check()
    monkeypatch.setattr(linalg, "PROBE_GAP_TOL", 2.0 * gap)
    for check in checks:
        with pytest.raises(GapViolationError) as err:
            check()
        assert abs(err.value.nearest) == gap


def test_phase_floor_is_read_at_call_time(monkeypatch):
    pair = random_gapped_pair(24, 3, seed=0)
    bundle = scattering.scattering_bundle(pair, 0.0, 0.1)
    assert bundle.retention_threshold == max(scattering.PHASE_FLOOR,
                                             10.0 * bundle.unitarity_defect)
    monkeypatch.setattr(scattering, "PHASE_FLOOR", 0.3)
    assert scattering.scattering_bundle(pair, 0.0, 0.1).retention_threshold == 0.3
