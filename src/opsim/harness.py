"""End-to-end orchestration: load a config, run epochs, write reports.

Every epoch runs the full pipeline: solve the task allocation with
trust-scaled gains, assign submission windows by reputation, run one
consensus height per window, settle rewards and slashes, fold outcomes
into trust, apply the feedback step, and compute scenario metrics. All
randomness flows from per-purpose generators forked deterministically from
the run seed, so a (config, seed) pair fully determines the report.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter, defaultdict
from pathlib import Path
from operator import attrgetter
from typing import Any, Mapping, NamedTuple, Sequence

from .agents import (AllocationVector, OperatorState, ScenarioWeights, TaskSpec,
                     evaluate_scores)
from .allocation import hessian_stability, solve_allocation
from .consensus import (Behavior, EventTrace, NetworkModel, PartitionSpec,
                        Roster, ValidatorDescriptor, run_height)
from .errors import ConfigError, DomainError
from .incentives import (EntryKind, EventKind, ReputationParams, SettlementEvent,
                         feedback_iterate, make_aggregation_report, settle, update_trust)
from .scenarios import (FAILURE_RATE_CONSTANT, PaymentMetrics, PaymentNodeParams,
                        SequencerMetrics, SequencerRunLog, _payment_sections,
                        failure_probability, sequencer_metrics)
from .scheduling import Schedule, apply_fallback, assign_windows, on_window_miss
from .trace import TraceDigest, sha256

SCENARIOS = ("sequencer", "payment")


# --- Configuration -----------------------------------------------------------


class OperatorConfig(NamedTuple):
    id: str
    stake: float
    behavior: str
    trust: float
    capacity: float
    resources: float
    region_latency: int
    payment: PaymentNodeParams | None


class ScheduleParams(NamedTuple):
    window_length: int
    windows_per_epoch: int
    grace_length: int


class IncentiveParams(NamedTuple):
    reputation: ReputationParams
    submit_fee: float


# Built only by load_config; the _Row tables below declare every default.
class RunConfig(NamedTuple):
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


class _Row(NamedTuple):
    """One config field: JSON name, attribute it sets, kind and default.

    The kind, "object" or a key of ``_KINDS``, is the field's rule on its
    own value: its type and any range or allowed values; only rules that
    read other fields stay in load_config. ``attr`` may be "outer.inner";
    None marks a field folded into others at load time and not echoed.
    ``rows`` describe an object or list items. A None default makes a
    field optional: null counts as omitted, and None takes the domain
    class's default or the one load_config derives.
    """

    key: str
    attr: str | None
    kind: str
    default: Any = REQUIRED
    rows: tuple["_Row", ...] | None = None


_WEIGHTS = (
    _Row("consensus", "w1", "amount", 1.0),
    _Row("performance", "w2", "amount", 1.0),
)
_PARTITION = (
    _Row("start", "start_tick", "integer"),
    _Row("end", "end_tick", "integer"),
    _Row("members", "members", "list"),
)
_NETWORK = (
    _Row("drop_probability", "drop_probability", "probability", 0.0),
    _Row("latency_jitter", "latency_jitter", "count", 0),
    _Row("partitions", "partition_schedule", "list", [], _PARTITION),
)
_SCHEDULE = (
    _Row("window_length", "window_length", "positive", 8),
    _Row("windows_per_epoch", "windows_per_epoch", "positive", None),  # max(4, n)
    _Row("grace_length", "grace_length", "count", None),  # window_length // 2
)
_INCENTIVES = (
    _Row("smoothing", "reputation.smoothing", "interior", 0.9),
    _Row("initial_trust", "reputation.initial_trust", "fraction", 0.5),
    _Row("slash_fraction", "reputation.slash_fraction", "interior", 0.05),
    _Row("submit_fee", "submit_fee", "amount", 1.0),
)
_STAGE = (
    _Row("latency", "latency", "amount", 0.0),
    _Row("error_rate", "error_rate", "fraction", 0.0),
)
_PAYMENT = (
    _Row("fee", "fee", "amount"),
    _Row("validation_cost_coeff", "validation_cost_coeff", "amount"),
    _Row("capacity", "capacity", "number"),
    _Row("penalty_coeff", "penalty_coeff", "amount", 0.0),
    _Row("error_cost_coeff", "error_cost_coeff", "amount", 0.0),
    _Row("error_rate", "error_rate", "fraction", None),  # from stages, else 0
    _Row("deadline", "deadline", "number", None),  # null: no deadline
    _Row("validation_time", "validation_time", "amount", None),  # from stages, else 0
    _Row("validation_cost_cap", "validation_cost_cap", "number", None),  # null: no cap
    _Row("stages", None, "items", None, _STAGE),
)
_OPERATOR = (
    _Row("id", "id", "string"),
    _Row("stake", "stake", "amount"),
    _Row("behavior", "behavior", "behavior", "honest"),
    _Row("trust", "trust", "fraction", None),  # incentives.initial_trust
    _Row("capacity", "capacity", "amount", 100.0),
    _Row("resources", "resources", "amount", 10.0),
    _Row("region_latency", "region_latency", "count", 1),
    _Row("payment", "payment", "object", None, _PAYMENT),
)
_TASK = (
    _Row("id", "id", "string"),
    _Row("cost_rate", "cost_rate", "amount", 0.0),
    _Row("corruption_rate", "corruption_rate", "amount", 0.0),
    _Row("resource_cap", "resource_cap", "amount"),
    # A number gives every operator that gain; a table must cover the roster.
    _Row("consensus_gain", "consensus_gain", "gain", 1.0),
    _Row("performance_gain", "performance_gain", "gain", 1.0),
    _Row("value", "value", "amount", 0.0),
)
_TOP = (
    _Row("scenario", "scenario", "scenario"),
    _Row("seed", "seed", "integer", 0),
    _Row("epochs", "epochs", "count", 1),
    _Row("max_rounds", "max_rounds", "rounds", 10),
    _Row("failure_rate_constant", "failure_rate_constant", "amount",
         FAILURE_RATE_CONSTANT),
    _Row("weights", "weights", "object", {}, _WEIGHTS),
    _Row("network", "network", "object", {}, _NETWORK),
    _Row("schedule", "schedule", "object", {}, _SCHEDULE),
    _Row("incentives", "incentives", "object", {}, _INCENTIVES),
    _Row("operators", "operators", "items", REQUIRED, _OPERATOR),
    _Row("tasks", "tasks", "items", REQUIRED, _TASK),
)

_BEHAVIORS = [b.value for b in Behavior]
# kind: (type of its JSON value, test of its range or None, what it asks for).
# A float kind reads an integer as a float first.
_KINDS = {
    "number": (float, lambda v: v >= 0, "a number >= 0"),
    "amount": (float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    "fraction": (float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "probability": (float, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "interior": (float, lambda v: 0 < v < 1, "a number in (0, 1)"),
    "gain": (float, lambda v: 0 <= v < math.inf, "a finite number >= 0 or an object"),
    "integer": (int, None, "an integer"),
    "count": (int, lambda v: v >= 0, "an integer >= 0"),
    "positive": (int, lambda v: v >= 1, "an integer >= 1"),
    # At 64 rounds a height's timeouts already sum to 12 (2**64 - 1) ticks.
    "rounds": (int, lambda v: 1 <= v <= 64, "an integer in [1, 64]"),
    "string": (str, bool, "a non-empty string"),
    "scenario": (str, lambda v: v in SCENARIOS, f"one of {SCENARIOS}"),
    "behavior": (str, lambda v: v in _BEHAVIORS, f"one of {_BEHAVIORS}"),
    "list": (list, None, "a list"),
    "items": (list, bool, "a non-empty list"),
}


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
    if kind == "gain" and isinstance(value, dict):  # a per-operator table
        return {op: _coerce(v, "amount", f"{name}[{op}]") for op, v in value.items()}
    cls, test, noun = _KINDS[kind]
    if cls is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"field '{name}' is too large for a float", field=name) from None
    if isinstance(value, bool) or not isinstance(value, cls) or test and not test(value):
        raise ConfigError(f"field '{name}' must be {noun}", field=name)
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
            value = (_echo(value, row.rows) if row.kind == "object"
                     else [_echo(item, row.rows) for item in value])
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


def _gain_table(gain: Any, name: str, operator_ids: list[str],
                known: set[str]) -> dict[str, float]:
    """A number is every operator's gain; a table must cover the roster, ``known`` as a set."""
    if not isinstance(gain, dict):
        return dict.fromkeys(operator_ids, gain)
    for op in gain:
        _reject_if(op not in known, name, f"references unknown operator '{op}'")
    missing = [op for op in operator_ids if op not in gain]
    _reject_if(bool(missing), name, f"missing operators {missing}")
    return gain


def _payment(params: dict[str, Any], context: str) -> PaymentNodeParams:
    """Fold the optional stage list into validation time and error rate."""
    latency, pass_rate = 0.0, 1.0
    for stage in params.pop("stages") or ():
        latency += stage["latency"]
        pass_rate *= 1.0 - stage["error_rate"]
    derived = {"validation_time": latency, "error_rate": 1.0 - pass_rate}
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
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
    incentives = IncentiveParams(**dict(doc["incentives"], reputation=_build(
        ReputationParams, "incentives", doc["incentives"]["reputation"])))

    operators: list[OperatorConfig] = []
    for i, op in enumerate(doc["operators"]):
        if op["trust"] is None:
            op["trust"] = incentives.reputation.initial_trust
        if op["payment"] is not None:
            op["payment"] = _payment(op["payment"], f"operators[{i}].payment")
        operators.append(OperatorConfig(**op))
    op_ids = [op.id for op in operators]
    known = set(op_ids)
    if doc["scenario"] == "payment":
        missing = [op.id for op in operators if op.payment is None]
        _reject_if(bool(missing), "operators",
                   f"need payment params in the payment scenario: {missing}")

    tasks: list[TaskSpec] = []
    for i, task in enumerate(doc["tasks"]):
        for table in ("consensus_gain", "performance_gain"):
            task[table] = _gain_table(task[table], f"tasks[{i}].{table}", op_ids, known)
        tasks.append(_build(TaskSpec, f"tasks[{i}]", task))
    for name, ids in (("operators", op_ids), ("tasks", [t.id for t in tasks])):
        duplicates = sorted(i for i, count in Counter(ids).items() if count > 1)
        _reject_if(bool(duplicates), name, f"have duplicate ids: {duplicates}")

    partitions = doc["network"]["partition_schedule"]
    for i, part in enumerate(partitions):
        # A partition must cut a link: split the roster, over some tick >= 0.
        members = f"network.partitions[{i}].members"
        for j, member in enumerate(part["members"]):
            _reject_if(not isinstance(member, str), f"{members}[{j}]", "must be a string")
        unknown = [member for member in part["members"] if member not in known]
        _reject_if(bool(unknown), members, f"references unknown operators {unknown}")
        _reject_if(not 0 < len(set(part["members"])) < len(op_ids), members,
                   "must name some operators but not all")
        _reject_if(part["end_tick"] <= max(part["start_tick"], 0),
                   f"network.partitions[{i}].end", "must be > max(start, 0)")
        partitions[i] = PartitionSpec(**part)

    schedule = doc["schedule"]
    half_window = schedule["window_length"] // 2
    if schedule["windows_per_epoch"] is None:
        schedule["windows_per_epoch"] = max(4, len(operators))
    if schedule["grace_length"] is None:
        schedule["grace_length"] = half_window
    _reject_if(schedule["grace_length"] > half_window, "schedule.grace_length",
               "must be <= window_length // 2")

    return RunConfig(**dict(
        doc, operators=tuple(operators), tasks=tuple(tasks),
        weights=_build(ScenarioWeights, "weights", doc["weights"]),
        network=_build(NetworkModel, "network", doc["network"]),
        schedule=ScheduleParams(**schedule), incentives=incentives))


# --- Simulation --------------------------------------------------------------


def fork_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit child seed for one purpose label."""
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RunReport(NamedTuple):
    """A run's report; ``to_dict()`` is the document ``read_report`` returns."""

    config: dict[str, Any]
    epochs: tuple[dict[str, Any], ...]
    ledger_totals: dict[str, float]
    trace_digest: str

    def to_dict(self) -> dict[str, Any]:
        return dict(self._asdict(), epochs=list(self.epochs))


def _scaled_tasks(tasks: Sequence[TaskSpec], scale: Mapping[str, float]) -> list[TaskSpec]:
    return [
        t._replace(consensus_gain={op: g * scale.get(op, 1.0)
                                   for op, g in t.consensus_gain.items()},
                   performance_gain={op: g * scale.get(op, 1.0)
                                     for op, g in t.performance_gain.items()})
        for t in tasks
    ]


_TOTALS = {EntryKind.REWARD: "rewards", EntryKind.FEE: "fees", EntryKind.SLASH: "slashes"}


def run_simulation(config: RunConfig) -> RunReport:
    """Run every epoch deterministically; only state that outlives an epoch lives here."""
    failure_rng = random.Random(fork_seed(config.seed, "failures"))
    reputation = config.incentives.reputation
    operators = sorted(config.operators, key=lambda o: o.id)

    # An epoch's starting trusts also scale its task gains and weight its aggregation.
    trusts = {op.id: op.trust for op in config.operators}
    stakes = {op.id: op.stake for op in config.operators}
    task_values = {t.id: t.value for t in config.tasks}
    horizon = config.schedule.window_length * config.schedule.windows_per_epoch
    trace_digest = TraceDigest()
    kept: dict = {}  # roster shape -> its kept draw-free heights, for this run only
    epoch_reports: list[dict[str, Any]] = []
    totals = dict.fromkeys(_TOTALS.values(), 0.0)

    for epoch in range(config.epochs):
        agents = [
            OperatorState(id=op.id, stake=stakes[op.id], resources=op.resources)
            for op in operators
        ]
        tasks = _scaled_tasks(config.tasks, trusts)
        allocation, convergence = solve_allocation(agents, tasks, config.weights)
        stability = hessian_stability(agents, tasks, config.weights, allocation)

        schedule = assign_windows(trusts, horizon, config.schedule.window_length,
                                  config.schedule.grace_length)
        # Submissions and faults are recorded once, as settlement events.
        events: list[SettlementEvent] = []
        window_records, height_records = _submissions(
            config, operators, stakes, trusts, schedule, epoch, failure_rng, trace_digest, events,
            kept)
        epoch_end_tick = (epoch + 1) * horizon
        work = _score(agents, tasks, allocation, epoch_end_tick, events)

        ledger, stakes = settle(events, agents, task_values, reputation,
                                config.incentives.submit_fee)
        for entry in ledger:
            totals[_TOTALS[entry.kind]] += entry.amount

        # Trust folds each operator's outcomes in event order: 1 for a
        # submission, 0 for a miss or a consensus fault.
        outcomes = defaultdict(list)
        for e in events:
            if e.kind is not EventKind.TASK_COMPLETE:
                outcomes[e.operator_id].append(float(e.kind is EventKind.SUBMIT_SUCCESS))
        updated = {op: update_trust(outcomes[op], reputation, start=trusts[op])
                   for op in sorted(trusts)}
        # Each operator's output: fsum is exactly rounded, so grouping moves no bit.
        entries = defaultdict(list)
        for (op, _), x in allocation.items():
            entries[op].append(x)
        outputs = {a.id: math.fsum(entries[a.id]) for a in agents}
        aggregation = make_aggregation_report(epoch_end_tick, outputs, trusts)
        trusts = feedback_iterate(updated, trusts)

        if config.scenario == "sequencer":
            missed = {e.operator_id for e in events if e.kind is EventKind.MISS}
            metrics = _sequencer_metrics(agents, outputs, work, missed)
        else:
            if epoch == 0:  # not before: an epoch-free run must not need them
                payment_sections = _payment_sections({op.id: op.payment for op in operators})
            metrics = {"payment": dict(payment_sections[epoch > 0])}
        epoch_reports.append({
            "epoch": epoch,
            "metrics": metrics,
            "convergence": convergence._asdict(),
            "stability": {"verdict": stability.verdict.value,
                          "eigen_min": stability.eigen_extremes[0],
                          "eigen_max": stability.eigen_extremes[1]},
            "aggregation": aggregation._asdict(),
            "ledger": [{"operator": e.operator_id, "tick": e.tick, "kind": e.kind.value,
                        "amount": e.amount, "reason": e.reason} for e in ledger],
            "stakes": dict(sorted(stakes.items())),
            "trusts": dict(sorted(trusts.items())),
            "allocation": {f"{a}:{t}": v for (a, t), v in allocation.items()},
            "windows": window_records,
            "heights": height_records,
        })

    return RunReport(config=config.to_dict(), epochs=tuple(epoch_reports),
                     ledger_totals=dict(sorted(totals.items())),
                     trace_digest=trace_digest.hash.hexdigest())


def _submissions(config: RunConfig, operators: Sequence[OperatorConfig],
                 stakes: Mapping[str, float], trusts: Mapping[str, float],
                 schedule: Schedule, epoch: int, failure_rng: random.Random,
                 trace_digest: TraceDigest,
                 events: list[SettlementEvent], kept: dict) -> tuple[list[dict], list[dict]]:
    """Each window's consensus height and submission draws; their events join ``events``."""
    # Stakes change only at settlement, so one roster serves the epoch; it
    # shares kept heights with earlier epochs' rosters of equal shape.
    validators = Roster((ValidatorDescriptor(op.id, max(stakes[op.id], 1e-9), op.behavior,
                                             op.region_latency) for op in operators), kept)
    epoch_base_tick = epoch * schedule.horizon_ticks
    numbers = [*map(str, range(len(operators)))]
    window_records: list[dict] = []
    height_records: list[dict] = []

    def attempt(operator_id: str, tick: int, kinds: tuple[str, str]) -> bool:
        """Draw one submission in the current window; ``kinds`` label (submitted, missed)."""
        missed = failure_rng.random() < failure_probability(
            trusts[operator_id], config.failure_rate_constant)
        kind = EventKind.MISS if missed else EventKind.SUBMIT_SUCCESS
        events.append(SettlementEvent(kind, operator_id, tick))
        trace_digest.submission(tick, kinds[missed], height, index, operator_id)
        return not missed

    for window_slot in range(len(schedule.windows)):
        window = schedule.windows[window_slot]
        index, window_tick = window.window_index, epoch_base_tick + window.start_tick
        height = epoch * config.schedule.windows_per_epoch + window_slot
        batch = [*map(f"tx:{epoch}:{index}:".__add__, numbers)]
        height_trace = EventTrace()
        net = config.network
        if net.draws:
            net = net._replace(rng_seed=fork_seed(config.seed, f"net:{epoch}:{index}"))
        outcome = run_height(validators, batch, net, config.max_rounds,
                             height=height, trace=height_trace)
        trace_digest.add(height_trace.text())
        height_records.append({
            "height": height,
            "window_index": index,
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

        record = {"window_index": index,
                  "operator": window.operator_id,
                  "start": window_tick,
                  "end": epoch_base_tick + window.end_tick,
                  "committed": outcome.committed,
                  "submitted": False, "fallback": None}
        if outcome.committed:
            submitted = attempt(window.operator_id, window_tick, ("submit", "window-miss"))
            record["submitted"] = submitted
            fallback = None if submitted else on_window_miss(schedule, window, trusts)
            if fallback is not None:
                schedule = apply_fallback(schedule, fallback)
                rescued = attempt(fallback.operator_id, epoch_base_tick + fallback.start_tick,
                                  ("fallback-submit", "unrecoverable-miss"))
                record["fallback"] = {"operator": fallback.operator_id, "submitted": rescued}
            elif not submitted:
                trace_digest.submission(window_tick, "unrecoverable-miss", height, index,
                                        window.operator_id)
        window_records.append(record)
    return window_records, height_records


def _score(agents: Sequence[OperatorState], tasks: Sequence[TaskSpec],
           allocation: AllocationVector, tick: int,
           events: list[SettlementEvent]) -> dict[str, list[float]]:
    """Each agent's (consensus, performance, cost) sums; task completions join ``events``."""
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
                events.append(SettlementEvent(EventKind.TASK_COMPLETE, agent.id, tick,
                                              task_id=task.id, score=performance))
    return work


def _sequencer_metrics(agents: Sequence[OperatorState], outputs: Mapping[str, float],
                       work: Mapping[str, Sequence[float]], missed: set[str]) -> dict:
    """The epoch's metrics section over the agents that scored; {} if none did."""
    active = [a.id for a in agents if work[a.id][0] + work[a.id][1] > 0]
    if not active:
        return {}
    log = SequencerRunLog(
        outputs={a: outputs[a] for a in active},
        consensus_scores={a: work[a][0] for a in active},
        performance_scores={a: work[a][1] for a in active},
        failures=len(missed.intersection(active)),
        costs={a: work[a][2] for a in active},
        total_resources=math.fsum(a.resources for a in agents))
    return {"sequencer": sequencer_metrics(log)._asdict()}


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
    names = section_type._fields
    import csv  # Only a CSV report needs it; a run does not.

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["epoch", "metric", "value"])
    for epoch in report.epochs:
        section = epoch["metrics"].get(scenario, {})
        for name in names:
            writer.writerow([epoch["epoch"], name, _format_number(section.get(name))])
    path.write_text(buffer.getvalue())


def read_report(path: str | Path) -> dict[str, Any]:
    """Load a JSON report document: an object holding every top-level key."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read report file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report parse error at line {exc.lineno}: {exc.msg}",
                          line=exc.lineno, column=exc.colno) from exc
    for key in ("config", "epochs", "ledger_totals", "trace_digest"):
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"report {path} is not a JSON object holding '{key}'", field=key)
    return doc
