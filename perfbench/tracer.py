"""Span tracer that wraps projdiff's public functions from the outside.

Nothing inside the package is edited.  ``Tracer.install`` replaces each
function named in ``TARGETS`` on *every* ``projdiff.*`` module attribute
bound to it (modules re-export with ``from .x import f``, so
``models.herm_eig`` and ``linalg.herm_eig`` are the same object), and in
module-level dicts such as ``acceptance.CRITERIA``.  ``uninstall`` puts
the originals back.

A span is (op, function, start, end, parent index).  Spans stay in memory
until the run ends.  An op's self time is the sum over its spans of the
span's duration minus the durations of its direct children; a call whose
parent span has the same op (``build_krein`` calling
``build_finite_pair``) is folded into that parent's call count.
"""

import functools
import importlib
import sys
import time

# (module, attribute, op).  An attribute "Class.method" wraps a method.
TARGETS = [
    ("models", "build_krein", "models.build"),
    ("models", "build_schrodinger_1d", "models.build"),
    ("models", "build_finite_pair", "models.build"),
    ("models", "random_gapped_pair", "models.build"),
    ("models", "shift_pair", "models.transform"),
    ("models", "resolvent_transform", "models.transform"),
    ("linalg", "herm_eig", "linalg.herm_eig"),
    ("linalg", "sylvester_solve", "linalg.sylvester"),
    ("linalg", "svd", "linalg.svd"),
    ("linalg", "expm_apply", "linalg.expm_apply"),
    ("projections", "projection_difference", "projections.difference"),
    ("projections", "dsquared_block_check", "projections.dsquared"),
    ("projections", "corner_spectrum", "projections.corner"),
    ("projections", "spectral_projection", "projections.spectral_projection"),
    ("scattering", "resolvent_sandwich", "scattering.sandwich"),
    ("scattering", "smoothed_density", "scattering.density"),
    ("scattering", "scattering_bundle", "scattering.bundle"),
    ("scattering", "phase_ladder", "scattering.ladder"),
    ("scattering", "extrapolated_phases", "scattering.extrapolate"),
    ("scattering", "birman_krein_check", "scattering.birman_krein"),
    ("scattering", "birman_krein_extrapolated", "scattering.birman_krein"),
    ("scattering", "transfer_matrix_smatrix", "scattering.oracle"),
    ("hankel", "build_hankel", "hankel.build"),
    ("hankel", "model_hankel_pair", "hankel.build"),
    ("hankel", "kernel_bound_suite", "hankel.bounds"),
    ("hankel", "nuclear_bound_check", "hankel.bounds"),
    ("hankel", "laplace_factorizations", "hankel.factorizations"),
    ("zops", "build_z_ops", "zops.build"),
    ("zops", "product_representation_check", "zops.product_check"),
    ("zops", "zop_model_comparison", "zops.model_comparison"),
    ("harness", "run_experiment", "harness.run"),
    ("harness", "Report.to_json", "harness.report"),
    ("acceptance", "run_all", "acceptance.run_all"),
] + [("acceptance", f"criterion_{k}", f"acceptance.criterion_{k}") for k in range(1, 10)]

OPS = list(dict.fromkeys(op for _, _, op in TARGETS))

# ops whose inclusive time (children included) is also reported, as <op>.total_s
TOTAL_OPS = [f"acceptance.criterion_{k}" for k in range(1, 10)]

# per-function call counts reported beside the per-op ones
FUNCTION_CALLS = {"models.shift_pair.calls": "models.shift_pair"}


def _n3(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return int(matrix.shape[0]) ** 3


# extra exact counts computed from a call's arguments: metric -> (function, fn)
ARG_COUNTS = {"linalg.herm_eig.n3_sum": ("linalg.herm_eig", _n3)}

TRACE_METRICS = ["trace.wall_s", "trace.untraced_s", "trace.overhead_s", "trace.spans"]


def per_layer_metrics():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for op in OPS:
        out.append((f"{op}_s", "s"))
        out.append((f"{op}.calls", "count"))
    out += [(f"{op}.total_s", "s") for op in TOTAL_OPS]
    out += [(name, "count") for name in FUNCTION_CALLS]
    out += [(name, "count") for name in ARG_COUNTS]
    out += [(name, "count" if name == "trace.spans" else "s") for name in TRACE_METRICS]
    return out


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []          # [op, fn, start, end, parent]
        self.counts = {name: 0 for name in ARG_COUNTS}
        self._stack = []
        self._patched = []       # (setter, original) pairs for uninstall

    def _wrap(self, fn, fname, op):
        spans, stack, counts = self.spans, self._stack, self.counts
        hooks = [(name, hook) for name, (f, hook) in ARG_COUNTS.items() if f == fname]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for name, hook in hooks:
                counts[name] += hook(args, kwargs)
            index = len(spans)
            spans.append([op, fname, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        for module_name in dict.fromkeys(m for m, _, _ in TARGETS):
            importlib.import_module(f"projdiff.{module_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "projdiff" or name.startswith("projdiff."))]
        for module_name, attr, op in TARGETS:
            module = sys.modules[f"projdiff.{module_name}"]
            fname = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, fname, op), original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, fname, op)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._patched.append(
                                    (functools.partial(value.__setitem__, dkey), original))
        return self

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._patched.append((functools.partial(setattr, owner, key), original))

    def uninstall(self):
        for setter, original in reversed(self._patched):
            setter(original)
        self._patched.clear()

    def span_records(self):
        return [{"op": op, "fn": fn, "start": start, "end": end, "parent": parent}
                for op, fn, start, end, parent in self.spans]

    def metrics(self, traced_wall):
        """Per-layer metrics of the recorded spans, as name -> value.

        ``trace.overhead_s`` needs the untraced pass, so the caller adds it.
        """
        self_time = {op: 0.0 for op in OPS}
        calls = {op: 0 for op in OPS}
        total = {op: 0.0 for op in OPS}
        fn_calls = {fn: 0 for fn in FUNCTION_CALLS.values()}
        child_time = [0.0] * len(self.spans)
        for op, fn, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (op, fn, start, end, parent) in enumerate(self.spans):
            self_time[op] += (end - start) - child_time[i]
            if parent < 0 or self.spans[parent][0] != op:
                calls[op] += 1
                total[op] += end - start
            if fn in fn_calls:
                fn_calls[fn] += 1
        values = {}
        for op in OPS:
            values[f"{op}_s"] = self_time[op]
            values[f"{op}.calls"] = calls[op]
        for op in TOTAL_OPS:
            values[f"{op}.total_s"] = total[op]
        for name, fn in FUNCTION_CALLS.items():
            values[name] = fn_calls[fn]
        values.update(self.counts)
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_s"] = traced_wall - sum(self_time.values())
        values["trace.spans"] = len(self.spans)
        return values
