"""Command-line driver.

Subcommands: ``run <config>``, ``study <config> --axis {n|eps|trule}``,
``verify-all [--out <dir>]``, ``presets``.  Exit codes: 0 success,
1 acceptance failure, 2 invalid input.
"""

import argparse
import dataclasses
import os
import sys

from .errors import ProjdiffError
from .harness import ExperimentConfig, Report, convergence_study, run_experiment
from .models import preset_names


def _load_config(args):
    updates = {"out_dir": args.out} if args.out else {}
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(ExperimentConfig.from_json(args.config), **updates).validate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="projdiff",
        description="spectra of projection differences and stationary scattering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_study = sub.add_parser("study", help="convergence study along one axis")
    p_study.add_argument("--axis", required=True, choices=("n", "eps", "trule"))
    for p in (p_run, p_study):
        p.add_argument("config", help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    for p in (p_run, p_study, sub.add_parser("verify-all", help="run the acceptance suite")):
        p.add_argument("--out", default="", help="output directory for reports/CSV")

    sub.add_parser("presets", help="list model presets")

    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            for name in preset_names():
                print(name)
            return 0
        if args.command in ("run", "study"):
            cfg = _load_config(args)
            report = (run_experiment(cfg) if args.command == "run"
                      else convergence_study(cfg, args.axis))
            if not cfg.out_dir:
                print(report.to_json())
            return 0
        if args.command == "verify-all":
            from .acceptance import run_all
            code, clauses = run_all(echo=print)
            failed = [c.name for c in clauses if not c.passed]
            print(f"{len(clauses) - len(failed)}/{len(clauses)} clauses passed"
                  + (f"; failed: {', '.join(failed)}" if failed else ""))
            if args.out:
                Report({"schema": 1, "clauses": [
                    {"name": c.name, "passed": c.passed, "details": c.details}
                    for c in clauses]}).write(os.path.join(args.out, "acceptance.json"))
            return code
    except (ProjdiffError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
