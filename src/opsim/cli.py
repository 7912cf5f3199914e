"""Command line interface: run simulations, validate configs, show reports."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import ConfigError, DomainError, OpsimError
from .harness import load_config, read_report, run_simulation, write_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsim",
        description="Deterministic node-operator network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation and write a report")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--epochs", type=int, default=None,
                     help="override the config epoch count")
    run.add_argument("--out", required=True, help="report destination path")
    run.add_argument("--format", choices=("json", "csv"), default="json")

    validate = sub.add_parser("validate", help="check a config and echo defaults")
    validate.add_argument("--config", required=True)

    metrics = sub.add_parser("metrics", help="pretty-print a JSON report")
    metrics.add_argument("--report", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None or args.epochs is not None:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.epochs is not None:
            if args.epochs < 0:
                raise ConfigError("epochs must be >= 0", field="epochs")
            overrides["epochs"] = args.epochs
        config = replace(config, **overrides)
    report = run_simulation(config)
    write_report(report, args.format, args.out)
    print(f"wrote {args.format} report for {config.epochs} epoch(s) to {args.out} "
          f"(trace digest {report.trace_digest[:16]})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    doc = read_report(args.report)
    print(f"scenario: {doc['config']['scenario']}  "
          f"seed: {doc['config']['seed']}  "
          f"trace digest: {doc['trace_digest'][:16]}")
    for epoch in doc.get("epochs", []):
        print(f"epoch {epoch['epoch']}:")
        for family, values in sorted(epoch.get("metrics", {}).items()):
            for name, value in sorted(values.items()):
                shown = "absent" if value is None else f"{value:.6g}"
                print(f"  {family}.{name} = {shown}")
        conv = epoch["convergence"]
        prices = " ".join(f"{task}={lam:.6g}" for task, lam in conv["multipliers"].items())
        print(f"  allocation: constraint_violation={conv['constraint_violation']:.3g} "
              f"multipliers: {prices}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "metrics": _cmd_metrics}
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OpsimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
