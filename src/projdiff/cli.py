"""Command-line driver.

Subcommands: ``run <config>``, ``study <config> --axis {n|eps|trule}``,
``verify-all [--config <path>]``, ``presets``.  Exit codes: 0 success,
1 acceptance failure, 2 invalid input.
"""

import argparse
import os
import sys

from .errors import ConfigError, ProjdiffError
from .harness import ExperimentConfig, convergence_study, run_experiment
from .models import preset_names


def _add_common(parser):
    parser.add_argument("--out", default="", help="output directory for reports/CSV")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")


def _load_config(path, args):
    cfg = ExperimentConfig.from_json(path) if path else ExperimentConfig()
    updates = {}
    if args.out:
        updates["out_dir"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        data = {
            "model": cfg.model, "model_params": cfg.model_params,
            "probes": cfg.probes, "eps_ladder": cfg.eps_ladder,
            "sizes": cfg.sizes, "tolerances": cfg.tolerances,
            "out_dir": cfg.out_dir, "seed": cfg.seed,
        }
        data.update(updates)
        cfg = ExperimentConfig.from_dict(data)
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="projdiff",
        description="spectra of projection differences and stationary scattering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON config")
    _add_common(p_run)

    p_study = sub.add_parser("study", help="convergence study along one axis")
    p_study.add_argument("config", help="path to a JSON config")
    p_study.add_argument("--axis", required=True, choices=("n", "eps", "trule"))
    _add_common(p_study)

    p_verify = sub.add_parser("verify-all", help="run the acceptance suite")
    p_verify.add_argument("--config", default="", help="optional JSON config (unused knobs ignored)")
    _add_common(p_verify)

    sub.add_parser("presets", help="list model presets")

    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            for name in preset_names():
                print(name)
            return 0
        if args.command == "run":
            cfg = _load_config(args.config, args)
            report = run_experiment(cfg)
            if not cfg.out_dir:
                print(report.to_json())
            return 0
        if args.command == "study":
            cfg = _load_config(args.config, args)
            report = convergence_study(cfg, args.axis)
            if not cfg.out_dir:
                print(report.to_json())
            return 0
        if args.command == "verify-all":
            from .acceptance import run_all
            if args.config:
                _load_config(args.config, args)  # validate only
            code, clauses = run_all(echo=print)
            failed = [c.name for c in clauses if not c.passed]
            print(f"{len(clauses) - len(failed)}/{len(clauses)} clauses passed"
                  + (f"; failed: {', '.join(failed)}" if failed else ""))
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                from .harness import Report
                Report({"schema": 1, "clauses": [
                    {"name": c.name, "passed": c.passed, "details": c.details}
                    for c in clauses]}).write(os.path.join(args.out, "acceptance.json"))
            return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProjdiffError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
