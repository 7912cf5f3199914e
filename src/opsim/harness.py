"""End-to-end orchestration: load a config, run epochs, emit reports.

Every epoch runs the full pipeline: solve the task allocation with
trust-scaled gains, assign submission windows by reputation, run one
consensus height per window, settle rewards and slashes, fold outcomes
into trust, apply the feedback step, and compute scenario metrics. All
randomness flows from per-purpose generators forked deterministically from
the run seed, so a (config, seed) pair fully determines the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, fields, replace
from pathlib import Path
from operator import attrgetter
from typing import Any, Mapping, NamedTuple, Sequence

from .agents import (AllocationVector, OperatorState, ScenarioWeights, TaskSpec,
                     evaluate_scores)
from .allocation import ConvergenceReport, hessian_stability, solve_allocation
from .consensus import (Behavior, EventTrace, NetworkModel, PartitionSpec,
                        ValidatorDescriptor, run_height)
from .errors import ConfigError, DomainError
from .incentives import (AggregationReport, EntryKind, EventKind, LedgerEntry,
                         ReputationParams, SettlementEvent, feedback_iterate,
                         make_aggregation_report, settle, update_trust)
from .scenarios import (FAILURE_RATE_CONSTANT, MetricsReport, PaymentMetrics,
                        PaymentNodeParams, PaymentWindowLog, SequencerMetrics,
                        SequencerRunLog, failure_probability, optimize_throughput,
                        payment_metrics, payment_utility, sequencer_metrics)
from .scheduling import apply_fallback, assign_windows, on_window_miss

SCENARIOS = ("sequencer", "payment")


# --- Configuration -----------------------------------------------------------


@dataclass(frozen=True)
class OperatorConfig:
    id: str
    stake: float
    behavior: str
    trust: float
    capacity: float
    resources: float
    region_latency: int
    payment: PaymentNodeParams | None


@dataclass(frozen=True)
class ScheduleParams:
    window_length: int
    windows_per_epoch: int
    grace_length: int


@dataclass(frozen=True)
class IncentiveParams:
    reputation: ReputationParams
    submit_fee: float


# Built only by load_config; the _Row tables below declare every default.
@dataclass(frozen=True)
class RunConfig:
    scenario: str
    operators: tuple[OperatorConfig, ...]
    tasks: tuple[TaskSpec, ...]
    weights: ScenarioWeights
    network: NetworkModel
    schedule: ScheduleParams
    incentives: IncentiveParams
    max_rounds: int
    failure_rate_constant: float
    epochs: int
    seed: int

    def to_dict(self) -> dict[str, Any]:
        """Config document with every default explicit; it reloads to an equal config."""
        return _echo(self, _TOP)


REQUIRED = object()  # default of a field that must be given
DERIVED = object()  # computed by load_config; unlike a None default, null is rejected


class _Row(NamedTuple):
    """One config field: JSON name, attribute it sets, kind and default.

    ``attr`` may be "outer.inner"; None marks a field folded into others at
    load time and not echoed. ``rows`` describe an object or list items. A
    None default makes a field optional: null counts as omitted, and None
    takes the domain class's default.
    """

    key: str
    attr: str | None
    kind: str
    default: Any = REQUIRED
    rows: tuple["_Row", ...] | None = None


_WEIGHTS = (
    _Row("consensus", "w1", "number", 1.0),
    _Row("performance", "w2", "number", 1.0),
)
_PARTITION = (
    _Row("start", "start_tick", "integer"),
    _Row("end", "end_tick", "integer"),
    _Row("members", "members", "list"),
)
_NETWORK = (
    _Row("drop_probability", "drop_probability", "number", 0.0),
    _Row("latency_jitter", "latency_jitter", "integer", 0),
    _Row("partitions", "partition_schedule", "list", [], _PARTITION),
)
_SCHEDULE = (
    _Row("window_length", "window_length", "integer", 8),
    _Row("windows_per_epoch", "windows_per_epoch", "integer", DERIVED),  # max(4, n)
    _Row("grace_length", "grace_length", "integer", None),  # window_length // 2
)
_INCENTIVES = (
    _Row("smoothing", "reputation.smoothing", "number", 0.9),
    _Row("initial_trust", "reputation.initial_trust", "number", 0.5),
    _Row("slash_fraction", "reputation.slash_fraction", "number", 0.05),
    _Row("submit_fee", "submit_fee", "number", 1.0),
)
_STAGE = (
    _Row("latency", "latency", "number", 0.0),
    _Row("error_rate", "error_rate", "number", 0.0),
)
_PAYMENT = (
    _Row("fee", "fee", "number"),
    _Row("validation_cost_coeff", "validation_cost_coeff", "number"),
    _Row("capacity", "capacity", "number"),
    _Row("penalty_coeff", "penalty_coeff", "number", 0.0),
    _Row("error_cost_coeff", "error_cost_coeff", "number", 0.0),
    _Row("error_rate", "error_rate", "number", None),  # from stages, else 0
    _Row("deadline", "deadline", "number", None),  # null: no deadline
    _Row("validation_time", "validation_time", "number", None),  # from stages, else 0
    _Row("validation_cost_cap", "validation_cost_cap", "number", None),  # null: no cap
    _Row("stages", None, "list", None, _STAGE),
)
_OPERATOR = (
    _Row("id", "id", "string"),
    _Row("stake", "stake", "number"),
    _Row("behavior", "behavior", "string", "honest"),
    _Row("trust", "trust", "number", None),  # incentives.initial_trust
    _Row("capacity", "capacity", "number", 100.0),
    _Row("resources", "resources", "number", 10.0),
    _Row("region_latency", "region_latency", "integer", 1),
    _Row("payment", "payment", "object", None, _PAYMENT),
)
_TASK = (
    _Row("id", "id", "string"),
    _Row("cost_rate", "cost_rate", "number", 0.0),
    _Row("corruption_rate", "corruption_rate", "number", 0.0),
    _Row("resource_cap", "resource_cap", "number"),
    # A number gives every operator that gain; a table must cover the roster.
    _Row("consensus_gain", "consensus_gain", "raw", 1.0),
    _Row("performance_gain", "performance_gain", "raw", 1.0),
    _Row("value", "value", "number", 0.0),
)
_TOP = (
    _Row("scenario", "scenario", "string"),
    _Row("seed", "seed", "integer", 0),
    _Row("epochs", "epochs", "integer", 1),
    _Row("max_rounds", "max_rounds", "integer", 10),
    _Row("failure_rate_constant", "failure_rate_constant", "number",
         FAILURE_RATE_CONSTANT),
    _Row("weights", "weights", "object", {}, _WEIGHTS),
    _Row("network", "network", "object", {}, _NETWORK),
    _Row("schedule", "schedule", "object", {}, _SCHEDULE),
    _Row("incentives", "incentives", "object", {}, _INCENTIVES),
    _Row("operators", "operators", "list", REQUIRED, _OPERATOR),
    _Row("tasks", "tasks", "list", REQUIRED, _TASK),
)

_BEHAVIORS = [b.value for b in Behavior]
_KINDS = {"number": ((int, float), "a number"), "integer": (int, "an integer"),
          "string": (str, "a non-empty string"), "list": (list, "a list")}


def _parse(raw: Any, rows: tuple[_Row, ...], context: str) -> dict[str, Any]:
    """Check one JSON object against its rows; return values keyed by attr."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context or 'config'} must be an object", field=context or None)
    prefix = f"{context}." if context else ""
    unknown = sorted(set(raw) - {row.key for row in rows})
    if unknown:
        name = prefix + unknown[0]
        raise ConfigError(f"unknown field '{name}'", field=name)
    values: dict[str, Any] = {}
    for row in rows:
        name = prefix + row.key
        if row.key in raw and (raw[row.key] is not None or row.default is not None):
            value = _coerce(raw[row.key], row.kind, name, row.rows)
        elif row.default is REQUIRED:
            raise ConfigError(f"missing required field '{name}'", field=name)
        elif row.kind == "object" and row.default is not None:
            value = _parse(row.default, row.rows, name)
        else:
            value = row.default
        outer, _, attr = (row.attr or row.key).rpartition(".")
        target = values.setdefault(outer, {}) if outer else values
        target[attr] = value
    return values


def _coerce(value: Any, kind: str, name: str, rows: tuple[_Row, ...] | None = None) -> Any:
    if kind == "object":
        return _parse(value, rows, name)
    if kind == "raw":
        return value
    types, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types) or value == "":
        raise ConfigError(f"field '{name}' must be {noun}", field=name)
    if kind == "number":
        return float(value)
    if rows is not None:
        return [_parse(item, rows, f"{name}[{i}]") for i, item in enumerate(value)]
    return value


def _echo(obj: Any, rows: tuple[_Row, ...]) -> dict[str, Any]:
    """The JSON document that ``rows`` parse into ``obj``."""
    doc: dict[str, Any] = {}
    for row in rows:
        value = attrgetter(row.attr)(obj) if row.attr else None
        if value is None and (row.attr is None or row.rows):
            continue  # folded into other fields, or an absent optional block
        if row.rows is not None:
            value = ([_echo(item, row.rows) for item in value] if row.kind == "list"
                     else _echo(value, row.rows))
        elif isinstance(value, dict):
            value = dict(sorted(value.items()))
        elif isinstance(value, frozenset):
            value = sorted(value)
        elif row.default is None and value == math.inf:
            value = None
        doc[row.key] = value
    return doc


def _build(cls: type, context: str, values: dict[str, Any]) -> Any:
    """Construct a domain object; None values take the class default."""
    try:
        return cls(**{k: v for k, v in values.items() if v is not None})
    except DomainError as exc:
        raise ConfigError(f"{context}: {exc}", field=context) from exc


def _reject_if(condition: bool, name: str, rule: str) -> None:
    if condition:
        raise ConfigError(f"{name} {rule}", field=name)


def _gain_table(raw: Any, name: str, operator_ids: list[str]) -> dict[str, float]:
    """Scalar gains broadcast to every operator; tables must cover all."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return {op: float(raw) for op in operator_ids}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a number or an object", field=name)
    for op in raw:
        _reject_if(op not in operator_ids, name, f"references unknown operator '{op}'")
    missing = [op for op in operator_ids if op not in raw]
    _reject_if(bool(missing), name, f"missing operators {missing}")
    return {op: _coerce(v, "number", f"{name}[{op}]") for op, v in raw.items()}


def _payment(params: dict[str, Any], context: str) -> PaymentNodeParams:
    """Fold the optional stage list into validation time and error rate."""
    stages = params.pop("stages")
    _reject_if(stages == [], f"{context}.stages", "must be a non-empty list")
    latency, pass_rate = 0.0, 1.0
    for stage in stages or ():
        latency += stage["latency"]
        pass_rate *= 1.0 - stage["error_rate"]
    derived = {"validation_time": latency,
               "error_rate": min(1.0, max(0.0, 1.0 - pass_rate))}
    params.update({k: v for k, v in derived.items() if params[k] is None})
    return _build(PaymentNodeParams, context, params)


def load_config(source: str | Path) -> RunConfig:
    """Parse and validate a run configuration.

    ``source`` is a filesystem path unless it starts with '{', in which
    case it is treated as inline JSON text. Parse errors carry line and
    column; semantic errors name the offending field. Unknown fields are
    rejected everywhere. The returned config has every default filled in.
    """
    if isinstance(source, Path) or not source.lstrip().startswith("{"):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source}: {exc}") from exc
    else:
        text = source
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno) from exc

    doc = _parse(raw, _TOP, "")
    _reject_if(doc["scenario"] not in SCENARIOS, "scenario", f"must be one of {SCENARIOS}")
    _reject_if(doc["epochs"] < 0, "epochs", "must be >= 0")
    _reject_if(doc["max_rounds"] < 1, "max_rounds", "must be >= 1")
    _reject_if(doc["failure_rate_constant"] < 0, "failure_rate_constant", "must be >= 0")

    _reject_if(doc["incentives"]["submit_fee"] < 0, "incentives.submit_fee", "must be >= 0")
    incentives = IncentiveParams(**dict(doc["incentives"], reputation=_build(
        ReputationParams, "incentives", doc["incentives"]["reputation"])))

    _reject_if(not doc["operators"], "operators", "must be a non-empty list")
    operators: list[OperatorConfig] = []
    for i, op in enumerate(doc["operators"]):
        _reject_if(op["behavior"] not in _BEHAVIORS, f"operators[{i}].behavior",
                   f"must be one of {_BEHAVIORS}")
        for key in ("stake", "capacity", "resources", "region_latency"):
            _reject_if(not 0 <= op[key] < math.inf, f"operators[{i}].{key}",
                       "must be finite and >= 0")
        if op["trust"] is None:
            op["trust"] = incentives.reputation.initial_trust
        _reject_if(not 0.0 <= op["trust"] <= 1.0, f"operators[{i}].trust",
                   "must lie in [0, 1]")
        if op["payment"] is not None:
            op["payment"] = _payment(op["payment"], f"operators[{i}].payment")
        operators.append(OperatorConfig(**op))
    op_ids = [op.id for op in operators]
    if doc["scenario"] == "payment":
        missing = [op.id for op in operators if op.payment is None]
        _reject_if(bool(missing), "operators",
                   f"need payment params in the payment scenario: {missing}")

    _reject_if(not doc["tasks"], "tasks", "must be a non-empty list")
    tasks: list[TaskSpec] = []
    for i, task in enumerate(doc["tasks"]):
        for table in ("consensus_gain", "performance_gain"):
            task[table] = _gain_table(task[table], f"tasks[{i}].{table}", op_ids)
        tasks.append(_build(TaskSpec, f"tasks[{i}]", task))
    for name, ids in (("operators", op_ids), ("tasks", [t.id for t in tasks])):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        _reject_if(bool(duplicates), name, f"have duplicate ids: {duplicates}")

    partitions = doc["network"]["partition_schedule"]
    for i, part in enumerate(partitions):
        # A partition must cut a link: split the roster, over some tick >= 0.
        members = f"network.partitions[{i}].members"
        unknown = [member for member in part["members"] if member not in op_ids]
        _reject_if(bool(unknown), members, f"references unknown operators {unknown}")
        _reject_if(not 0 < len(set(part["members"])) < len(op_ids), members,
                   "must name some operators but not all")
        _reject_if(part["end_tick"] <= max(part["start_tick"], 0),
                   f"network.partitions[{i}].end", "must be > max(start, 0)")
        partitions[i] = PartitionSpec(**dict(part, members=frozenset(part["members"])))
    doc["network"]["partition_schedule"] = tuple(partitions)

    schedule = doc["schedule"]
    window_length = schedule["window_length"]
    _reject_if(window_length <= 0, "schedule.window_length", "must be > 0")
    if schedule["windows_per_epoch"] is DERIVED:
        schedule["windows_per_epoch"] = max(4, len(operators))
    _reject_if(schedule["windows_per_epoch"] < 1, "schedule.windows_per_epoch",
               "must be >= 1")
    if schedule["grace_length"] is None:
        schedule["grace_length"] = window_length // 2
    _reject_if(not 0 <= schedule["grace_length"] <= window_length // 2,
               "schedule.grace_length", "must lie in [0, window_length // 2]")

    return RunConfig(**dict(
        doc, operators=tuple(operators), tasks=tuple(tasks),
        weights=_build(ScenarioWeights, "weights", doc["weights"]),
        network=_build(NetworkModel, "network", doc["network"]),
        schedule=ScheduleParams(**schedule), incentives=incentives))


# --- Simulation --------------------------------------------------------------


def fork_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit child seed for one purpose label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    metrics: MetricsReport
    convergence: ConvergenceReport
    stability_verdict: str
    eigen_extremes: tuple[float, float]
    aggregation: AggregationReport
    ledger: tuple[LedgerEntry, ...]
    stakes: dict[str, float]
    trusts: dict[str, float]
    allocation: dict[str, float]
    windows: tuple[dict, ...]
    heights: tuple[dict, ...]


@dataclass(frozen=True)
class RunReport:
    config: dict[str, Any]
    epochs: tuple[EpochReport, ...]
    ledger_totals: dict[str, float]
    trace_digest: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "epochs": [_epoch_to_dict(e) for e in self.epochs],
            "ledger_totals": self.ledger_totals,
            "trace_digest": self.trace_digest,
        }


def _metrics_to_dict(metrics: MetricsReport) -> dict[str, Any]:
    """The present scenario sections; ``vars`` copies no nested value, unlike ``asdict``."""
    return {name: dict(vars(section)) for name, section in vars(metrics).items()
            if section is not None}


def _epoch_to_dict(report: EpochReport) -> dict[str, Any]:
    return {
        "epoch": report.epoch,
        "metrics": _metrics_to_dict(report.metrics),
        "convergence": dict(vars(report.convergence)),
        "stability": {
            "verdict": report.stability_verdict,
            "eigen_min": report.eigen_extremes[0],
            "eigen_max": report.eigen_extremes[1],
        },
        "aggregation": dict(vars(report.aggregation)),
        "ledger": [
            {"operator": e.operator_id, "tick": e.tick, "kind": e.kind.value,
             "amount": e.amount, "reason": e.reason}
            for e in report.ledger
        ],
        "stakes": report.stakes,
        "trusts": report.trusts,
        "allocation": report.allocation,
        "windows": list(report.windows),
        "heights": list(report.heights),
    }


def _scaled_tasks(tasks: Sequence[TaskSpec], scale: Mapping[str, float]) -> list[TaskSpec]:
    return [
        replace(t, consensus_gain={op: g * scale.get(op, 1.0)
                                   for op, g in t.consensus_gain.items()},
                performance_gain={op: g * scale.get(op, 1.0)
                                  for op, g in t.performance_gain.items()})
        for t in tasks
    ]


_TOTALS = {EntryKind.REWARD: "rewards", EntryKind.FEE: "fees", EntryKind.SLASH: "slashes"}


def run_simulation(config: RunConfig) -> RunReport:
    """Run every epoch of the configured scenario deterministically."""
    failure_rng = random.Random(fork_seed(config.seed, "failures"))
    reputation = config.incentives.reputation
    operators = sorted(config.operators, key=lambda o: o.id)

    trusts = {op.id: op.trust for op in config.operators}
    stakes = {op.id: op.stake for op in config.operators}
    # Aggregation weights, and also the per-operator scale of the task gains.
    aggregation_weights = dict(trusts)
    task_values = {t.id: t.value for t in config.tasks}
    horizon = config.schedule.window_length * config.schedule.windows_per_epoch

    # The trace digest covers every line emitted, joined by "\n".
    trace_hash = hashlib.sha256()
    separator = b""

    def emit(line: str) -> None:
        nonlocal separator
        trace_hash.update(separator + line.encode())
        separator = b"\n"

    epoch_reports: list[EpochReport] = []
    previous_payment_log: PaymentWindowLog | None = None
    totals = dict.fromkeys(_TOTALS.values(), 0.0)
    height_index = 0

    for epoch in range(config.epochs):
        agents = [
            OperatorState(id=op.id, stake=stakes[op.id], trust=trusts[op.id],
                          capacity=op.capacity, resources=op.resources)
            for op in operators
        ]
        # Stakes change only at settlement, so one roster serves the epoch.
        validators = [
            ValidatorDescriptor(id=op.id, stake=max(stakes[op.id], 1e-9),
                                behavior=Behavior(op.behavior),
                                region_latency=op.region_latency)
            for op in operators
        ]
        tasks = _scaled_tasks(config.tasks, aggregation_weights)
        allocation, convergence = solve_allocation(agents, tasks, config.weights)
        stability = hessian_stability(agents, tasks, config.weights, allocation)

        schedule = assign_windows(trusts, horizon, config.schedule.window_length,
                                  config.schedule.grace_length)
        epoch_base_tick = epoch * horizon

        # Submissions and faults are recorded once, as settlement events.
        events: list[SettlementEvent] = []
        window_records: list[dict] = []
        height_records: list[dict] = []

        def attempt(operator_id: str, tick: int, kinds: tuple[str, str],
                    height: int, window_index: int) -> bool:
            """Draw one submission and record it; ``kinds`` label (submitted, missed)."""
            missed = failure_rng.random() < failure_probability(
                trusts[operator_id], config.failure_rate_constant)
            kind = EventKind.MISS if missed else EventKind.SUBMIT_SUCCESS
            events.append(SettlementEvent(kind, operator_id, tick))
            emit(f"{tick},{kinds[missed]},{height},{window_index},{operator_id},-")
            return not missed

        for window_slot in range(len(schedule.windows)):
            window = schedule.windows[window_slot]
            window_tick = epoch_base_tick + window.start_tick
            batch = [f"tx:{epoch}:{window.window_index}:{j}"
                     for j in range(max(1, len(config.operators)))]
            height_trace = EventTrace()
            net = replace(config.network,
                          rng_seed=fork_seed(config.seed, f"net:{epoch}:{window.window_index}"))
            outcome = run_height(validators, batch, net, config.max_rounds,
                                 height=height_index, trace=height_trace)
            for line in height_trace.to_lines():
                emit(line)
            height_records.append({
                "height": height_index,
                "window_index": window.window_index,
                "committed": outcome.committed,
                "digest": outcome.batch_digest,
                "rounds_used": outcome.rounds_used,
                "ticks_elapsed": outcome.ticks_elapsed,
                "signers": sorted(outcome.signature.signer_set)
                if outcome.signature else [],
            })

            for fault in height_trace.faults:
                events.append(SettlementEvent(EventKind.CONSENSUS_FAULT,
                                              fault.sender, window_tick))

            record = {"window_index": window.window_index,
                      "operator": window.operator_id,
                      "start": window_tick,
                      "end": epoch_base_tick + window.end_tick,
                      "committed": outcome.committed,
                      "submitted": False, "fallback": None}
            if outcome.committed:
                height, index = height_index, window.window_index
                submitted = attempt(window.operator_id, window_tick,
                                    ("submit", "window-miss"), height, index)
                record["submitted"] = submitted
                fallback = None if submitted else on_window_miss(schedule, window, trusts)
                if fallback is not None:
                    schedule = apply_fallback(schedule, fallback)
                    fb_tick = epoch_base_tick + fallback.start_tick
                    rescued = attempt(fallback.operator_id, fb_tick,
                                      ("fallback-submit", "unrecoverable-miss"), height, index)
                    record["fallback"] = {"operator": fallback.operator_id, "submitted": rescued}
                elif not submitted:
                    emit(f"{window_tick},unrecoverable-miss,{height},{index},"
                         f"{window.operator_id},-")
            window_records.append(record)
            height_index += 1

        # One scoring pass. Every operator with positive allocation shares the
        # task pool by performance score; each agent's (consensus score,
        # performance score, cost) sums, in task order, feed the metrics.
        epoch_end_tick = epoch_base_tick + horizon
        work = {a.id: [0.0, 0.0, 0.0] for a in agents}
        for task in tasks:
            for agent in agents:
                units = allocation.get(agent.id, task.id)
                consensus, performance = evaluate_scores(agent, task, units)
                sums = work[agent.id]
                sums[0] += consensus
                sums[1] += performance
                sums[2] += task.cost_rate * units
                if units > 0:
                    events.append(SettlementEvent(EventKind.TASK_COMPLETE, agent.id,
                                                  epoch_end_tick, task_id=task.id,
                                                  score=performance))

        ledger, stakes = settle(events, agents, task_values, reputation,
                                config.incentives.submit_fee)
        for entry in ledger:
            totals[_TOTALS[entry.kind]] += entry.amount

        # Trust folds each operator's outcomes in event order: 1 for a
        # submission, 0 for a miss or a consensus fault.
        trusts = {
            op: update_trust([float(e.kind is EventKind.SUBMIT_SUCCESS) for e in events
                              if e.operator_id == op
                              and e.kind is not EventKind.TASK_COMPLETE],
                             reputation, start=trusts[op])
            for op in sorted(trusts)
        }

        operator_outputs = {a.id: allocation.operator_total(a.id) for a in agents}
        aggregation = make_aggregation_report(epoch_end_tick, operator_outputs,
                                              aggregation_weights)
        aggregation_weights = feedback_iterate(trusts, aggregation_weights)

        if config.scenario == "sequencer":
            missed = {e.operator_id for e in events if e.kind is EventKind.MISS}
            metrics = _sequencer_metrics(agents, allocation, work, missed)
        else:
            payment_log = _payment_log(operators)
            metrics = _payment_metrics(payment_log, previous_payment_log)
            previous_payment_log = payment_log
        epoch_reports.append(EpochReport(
            epoch=epoch,
            metrics=metrics,
            convergence=convergence,
            stability_verdict=stability.verdict.value,
            eigen_extremes=stability.eigen_extremes,
            aggregation=aggregation,
            ledger=tuple(ledger),
            stakes=dict(sorted(stakes.items())),
            trusts=dict(sorted(trusts.items())),
            allocation={f"{a}:{t}": v for (a, t), v in allocation.items()},
            windows=tuple(window_records),
            heights=tuple(height_records),
        ))

    return RunReport(config=config.to_dict(), epochs=tuple(epoch_reports),
                     ledger_totals=dict(sorted(totals.items())),
                     trace_digest=trace_hash.hexdigest())


def _sequencer_metrics(agents: Sequence[OperatorState], allocation: AllocationVector,
                       work: Mapping[str, Sequence[float]], missed: set[str]) -> MetricsReport:
    """Metrics over the agents that scored; an idle one did no validation work."""
    active = [a.id for a in agents if work[a.id][0] + work[a.id][1] > 0]
    if not active:
        return MetricsReport()
    log = SequencerRunLog(
        outputs={a: allocation.operator_total(a) for a in active},
        consensus_scores={a: work[a][0] for a in active},
        performance_scores={a: work[a][1] for a in active},
        failures=len(missed.intersection(active)),
        costs={a: work[a][2] for a in active},
        total_resources=math.fsum(a.resources for a in agents))
    return MetricsReport(sequencer=sequencer_metrics(log))


def _payment_log(operators: Sequence[OperatorConfig]) -> PaymentWindowLog:
    """Each operator's epoch at its utility-maximizing throughput."""
    transactions: dict[str, float] = {}
    validation_costs: dict[str, float] = {}
    errors: dict[str, float] = {}
    penalties: dict[str, float] = {}
    profit = 0.0
    for op in operators:
        params = op.payment
        assert params is not None  # guaranteed by config validation
        best = optimize_throughput(params)
        transactions[op.id] = best
        validation_costs[op.id] = params.validation_cost(best)
        errors[op.id] = params.expected_errors(best)
        penalties[op.id] = params.penalty(best)
        profit += payment_utility(params, best)
    return PaymentWindowLog(transactions=transactions, validation_costs=validation_costs,
                            errors=errors, penalties=penalties, profit=profit)


def _payment_metrics(log: PaymentWindowLog,
                     previous: PaymentWindowLog | None) -> MetricsReport:
    """Totals describe this epoch only; growth compares it with the previous one."""
    metrics = payment_metrics([log])
    if previous is not None:
        growth = payment_metrics([previous, log]).revenue_growth
        metrics = replace(metrics, revenue_growth=growth)
    return MetricsReport(payment=metrics)


# --- Report output ------------------------------------------------------------

def _format_number(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_report(report: RunReport, fmt: str, destination: str | Path) -> None:
    """Serialize a run report as JSON (full document) or CSV (epoch metrics)."""
    if fmt not in ("json", "csv"):
        raise DomainError(f"format must be 'json' or 'csv', got '{fmt}'")
    path = Path(destination)
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        return
    scenario = report.config["scenario"]
    section_type = SequencerMetrics if scenario == "sequencer" else PaymentMetrics
    names = [f.name for f in fields(section_type)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epoch", "metric", "value"])
    for epoch in report.epochs:
        doc = _metrics_to_dict(epoch.metrics)
        section = doc.get(scenario, {})
        for name in names:
            writer.writerow([epoch.epoch, name, _format_number(section.get(name))])
    path.write_text(buffer.getvalue())


def read_report(path: str | Path) -> dict[str, Any]:
    """Load a JSON report document."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report parse error at line {exc.lineno}: {exc.msg}",
                          line=exc.lineno, column=exc.colno) from exc
