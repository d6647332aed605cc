"""projdiff benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sech2-run --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a source checkout.  Every pass runs in a fresh
child process, one child at a time, with the BLAS thread count pinned to
the number of usable cores.  One untimed child first warms the file
cache and the bytecode cache.  Timed passes repeat until ``--seconds``
have passed (at least one); ``wall_s`` and ``peak_rss_mb`` are the
medians over passes, ``setup_s`` the median over the passes and
``SETUP_CHILDREN`` import-only children.  With ``--trace 1`` a traced
pass follows instead of those children, and the per-layer metrics come
from it.

Every pass's output is checked; all passes of a run, traced or not, must
give the same report digest.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table and the environment.  The full result
and the traced run's spans are written under ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_CHILDREN = 2
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    pass


def git_commit(root):
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """SHA-256 over the package's source files, for checkouts without .git."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "projdiff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".json")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Starts the child processes of one run, one at a time."""

    def __init__(self, root, workload, seed):
        self.root, self.workload, self.seed = root, workload, seed
        self.src = os.path.join(root, "src")
        self.started = time.monotonic()
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = nproc
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = self.src + (os.pathsep + path if path else "")

    def child(self, mode, spans=""):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--src", self.src]
        if spans:
            cmd += ["--spans", spans]
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s before a {mode} child")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the {DEADLINE_S:.0f} s deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(lines[-1])


def summarize(passes, setups, traced=None):
    """Aggregate child results into the result object of one run.

    Returns (result, end-to-end values, fail_ratio, notes).  ``attempted``
    counts the checked probes or clauses plus one per repeated pass;
    ``failed`` counts wrong outputs and passes whose report digest differs
    from the first; ``fail_ratio`` is red probes or clauses over those
    checked.
    """
    checked = passes + ([traced] if traced else [])
    digests = [p["digest"] for p in checked]
    repeats_failed = sum(d != digests[0] for d in digests[1:])
    attempted = sum(p["check"]["attempted"] for p in checked) + len(digests) - 1
    failed = sum(p["check"]["failed"] for p in checked) + repeats_failed
    red = sum(p["check"]["red"] for p in checked)
    notes = sorted({n for p in checked for n in p["check"]["notes"]})
    if repeats_failed:
        notes.append(f"{repeats_failed} pass(es) gave a report differing from the first")

    walls = [p["wall_s"] for p in passes]
    e2e = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    fail_ratio = red / sum(p["check"]["attempted"] for p in checked)
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.per_layer_metrics()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, e2e, fail_ratio, notes


def run(root, workload, seed, seconds, trace):
    runner = Runner(root, workload, seed)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    runner.child("setup")  # untimed: warms the file and bytecode caches

    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        passes.append(runner.child("pass"))
    setups = [p["setup_s"] for p in passes]
    traced = None
    if trace:
        stem = f"{workload}-seed{seed}"
        traced = runner.child("traced", spans=os.path.join(out_dir, f"spans-{stem}.json"))
    else:  # setup_s is reported by untraced runs only
        setups += [runner.child("setup")["setup_s"] for _ in range(SETUP_CHILDREN)]

    result, e2e, fail_ratio, notes = summarize(passes, setups, traced)
    env = dict(passes[0]["env"])
    env.update({"git_commit": git_commit(root), "source_sha256": source_digest(runner.src)})
    full = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "inputs": workloads.make_inputs(workload, seed), "env": env,
            "fail_ratio": fail_ratio, "notes": notes,
            "wall_s_passes": [p["wall_s"] for p in passes], "setup_s_samples": setups,
            "digests": [p["digest"] for p in passes + ([traced] if traced else [])],
            "result": result}
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    print(f"workload {workload}  seed {seed}  passes {len(passes)}  "
          f"setup samples {len(setups)}")
    rows = [(name, e2e[name], unit) for name, unit in END_TO_END]
    rows.append(("fail_ratio", fail_ratio, "1"))
    if trace:
        rows += [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    for name, value, unit in rows:
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  FAILED {note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs sech2-run, krein-probes and verify-all in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "projdiff", "__init__.py")):
        print("error: run from the root of a projdiff checkout (src/projdiff not found)",
              file=sys.stderr)
        return 2
    names = workloads.BENCHMARKED if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run(root, name, args.seed, args.seconds, args.trace)
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
