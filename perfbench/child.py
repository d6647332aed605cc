"""One benchmark pass in a fresh process; prints one JSON line.

    python3 perfbench/child.py --workload W --seed N --mode {setup,pass,traced}

``setup`` imports and generates the inputs only.  ``pass`` also runs the
workload once and checks its output.  ``traced`` does the same with every
public function wrapped by the tracer, and writes the spans to
``--spans``.  ``setup_s`` counts the imports of numpy, scipy and projdiff
plus input generation; ``wall_s`` is the pass alone.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _blas_info(np):
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--src", required=True, help="directory holding the projdiff package")
    parser.add_argument("--spans", default="", help="file for the traced run's spans")
    args = parser.parse_args()

    import numpy as np
    import scipy
    import projdiff
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START

    src = os.path.realpath(args.src)
    if not os.path.realpath(projdiff.__file__).startswith(src + os.sep):
        sys.exit(f"projdiff imported from {projdiff.__file__}, not from {src}")
    out = {"setup_s": setup_s, "env": {
        "nproc": len(os.sched_getaffinity(0)), "blas": _blas_info(np),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version()}}
    if args.mode != "setup":
        recorder = None
        if args.mode == "traced":
            from tracer import Tracer
            recorder = Tracer().install()
        # the library's own prints must not mix with the result line
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            body, text = workloads.run_pass(args.workload, inputs)
            wall_s = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["wall_s"] = wall_s
        if recorder is not None:
            recorder.uninstall()
            out["layers"] = recorder.metrics(wall_s)
            with open(args.spans, "w") as fh:
                json.dump(recorder.span_records(), fh)
        out["digest"] = workloads.digest(args.workload, body, text)
        out["check"] = workloads.check(args.workload, body)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
