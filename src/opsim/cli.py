"""Command line interface: run simulations, validate configs, show reports."""

from __future__ import annotations

import argparse
import json
import sys

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
    overrides = {key: value for key, value in (("seed", args.seed), ("epochs", args.epochs))
                 if value is not None}
    if overrides:
        # The echoed config reloads to an equal one, so overrides pass load_config's checks.
        config = load_config(json.dumps(dict(config.to_dict(), **overrides)))
    report = run_simulation(config)
    write_report(report, args.format, args.out)
    print(f"wrote {args.format} report for {config.epochs} epoch(s) to {args.out} "
          f"(trace digest {report.trace_digest[:16]})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _check_metrics_fields(doc: dict, path: str) -> None:
    """Raise a ConfigError naming the first field ``_cmd_metrics`` reads that is
    missing or has the wrong type."""
    def require(obj: object, key: str, name: str) -> object:
        if not isinstance(obj, dict) or key not in obj:
            raise ConfigError(f"report {path} has no '{name}'", field=name)
        return obj[key]

    def expect(value: object, types: type | tuple[type, ...], name: str, what: str) -> None:
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"report {path}: '{name}' is not {what}", field=name)

    def numbers(obj: object, name: str, null: bool = False) -> None:
        expect(obj, dict, name, "an object")
        for key, value in obj.items():
            if not (null and value is None):
                expect(value, (int, float), f"{name}.{key}", "a number")

    for key in ("scenario", "seed"):
        require(doc["config"], key, f"config.{key}")
    expect(doc["trace_digest"], str, "trace_digest", "a string")
    if not isinstance(doc["epochs"], list):
        raise ConfigError(f"report {path}: 'epochs' is not a list", field="epochs")
    for i, epoch in enumerate(doc["epochs"]):
        require(epoch, "epoch", f"epochs[{i}].epoch")
        families = epoch.get("metrics", {})
        expect(families, dict, f"epochs[{i}].metrics", "an object")
        for family, values in families.items():
            numbers(values, f"epochs[{i}].metrics.{family}", null=True)
        convergence = require(epoch, "convergence", f"epochs[{i}].convergence")
        name = f"epochs[{i}].convergence.multipliers"
        numbers(require(convergence, "multipliers", name), name)
        name = f"epochs[{i}].convergence.constraint_violation"
        expect(require(convergence, "constraint_violation", name), (int, float), name, "a number")


def _cmd_metrics(args: argparse.Namespace) -> int:
    doc = read_report(args.report)
    _check_metrics_fields(doc, args.report)
    print(f"scenario: {doc['config']['scenario']}  "
          f"seed: {doc['config']['seed']}  "
          f"trace digest: {doc['trace_digest'][:16]}")
    for epoch in doc["epochs"]:
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
