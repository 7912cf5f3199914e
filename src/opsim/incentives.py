"""Reward, slash, and reputation settlement plus weighted result aggregation.

Settlement walks an event stream in order: task completions share each
task's reward pool proportionally to performance scores, successful
submissions earn a fixed fee, and misses or consensus faults slash a
fraction of the operator's current stake (so repeated slashes compound and
stakes never go negative). Trust is an exponential moving average of
outcome scores in [0, 1]. The feedback step re-weights aggregation by
trust; the same weights scale the gains of the next allocation solve.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .agents import OperatorState
from .errors import CheckedRecord, DomainError


class EventKind(Enum):
    TASK_COMPLETE = "task-complete"
    SUBMIT_SUCCESS = "submit-success"
    MISS = "miss"
    CONSENSUS_FAULT = "consensus-fault"


class EntryKind(Enum):
    REWARD = "reward"
    FEE = "fee"
    SLASH = "slash"


class SettlementEvent(NamedTuple):
    kind: EventKind
    operator_id: str
    tick: int
    task_id: str | None = None
    score: float = 0.0


class _LedgerFields(NamedTuple):
    operator_id: str
    tick: int
    kind: EntryKind
    amount: float
    reason: str


class LedgerEntry(CheckedRecord, _LedgerFields):
    __slots__ = ()

    def __new__(cls, operator_id, tick, kind, amount, reason):
        if not math.isfinite(amount) or amount < 0:
            raise DomainError("ledger amounts must be finite and >= 0")
        return tuple.__new__(cls, (operator_id, tick, kind, amount, reason))


class _ReputationFields(NamedTuple):
    smoothing: float
    initial_trust: float
    slash_fraction: float


class ReputationParams(CheckedRecord, _ReputationFields):
    __slots__ = ()

    def __new__(cls, smoothing=0.9, initial_trust=0.5, slash_fraction=0.05):
        if not 0.0 < smoothing < 1.0:
            raise DomainError("smoothing must lie in (0, 1)")
        if not 0.0 <= initial_trust <= 1.0:
            raise DomainError("initial_trust must lie in [0, 1]")
        if not 0.0 < slash_fraction < 1.0:
            raise DomainError("slash_fraction must lie in (0, 1)")
        return tuple.__new__(cls, (smoothing, initial_trust, slash_fraction))


def settle(events: Sequence[SettlementEvent], operators: Sequence[OperatorState],
           task_values: Mapping[str, float], params: ReputationParams,
           submit_fee: float = 1.0) -> tuple[list[LedgerEntry], dict[str, float]]:
    """Apply an event stream to operator stakes.

    Rewards and fees are credited to stake, slashes deducted as
    slash_fraction of the stake at application time, all in event order.
    Task rewards split each task's value pool proportionally to the
    completers' performance scores; a pool with zero total score pays
    nothing. Returns the ledger entries and the updated stake per operator.
    """
    if submit_fee < 0:
        raise DomainError("submit_fee must be >= 0")
    for task_id, value in task_values.items():
        if not math.isfinite(value) or value < 0:
            raise DomainError(f"task {task_id}: value must be finite and >= 0")

    stakes = {op.id: op.stake for op in operators}
    for event in events:
        if event.operator_id not in stakes:
            raise DomainError(f"event references unknown operator {event.operator_id}")

    # Pool normalization happens over the whole stream so shares are stable
    # regardless of event interleaving.
    score_totals: dict[str, float] = {}
    for event in events:
        if event.kind is EventKind.TASK_COMPLETE:
            if event.task_id is None or event.task_id not in task_values:
                raise DomainError(f"task-complete event references unknown task {event.task_id}")
            if not math.isfinite(event.score) or event.score < 0:
                raise DomainError("performance scores must be finite and >= 0")
            score_totals[event.task_id] = score_totals.get(event.task_id, 0.0) + event.score

    entries: list[LedgerEntry] = []
    for event in events:
        if event.kind is EventKind.TASK_COMPLETE:
            total_score = score_totals[event.task_id]
            if total_score <= 0:
                continue
            amount = task_values[event.task_id] * event.score / total_score
            entries.append(LedgerEntry(event.operator_id, event.tick, EntryKind.REWARD,
                                       amount, EventKind.TASK_COMPLETE.value))
            stakes[event.operator_id] += amount
        elif event.kind is EventKind.SUBMIT_SUCCESS:
            entries.append(LedgerEntry(event.operator_id, event.tick, EntryKind.FEE,
                                       submit_fee, EventKind.SUBMIT_SUCCESS.value))
            stakes[event.operator_id] += submit_fee
        elif event.kind in (EventKind.MISS, EventKind.CONSENSUS_FAULT):
            amount = params.slash_fraction * stakes[event.operator_id]
            entries.append(LedgerEntry(event.operator_id, event.tick, EntryKind.SLASH,
                                       amount, event.kind.value))
            stakes[event.operator_id] -= amount
    return entries, stakes


def update_trust(outcomes: Iterable[float], params: ReputationParams,
                 start: float | None = None) -> float:
    """Fold outcomes in [0, 1] into a trust score via an exponential
    moving average T' = smoothing * T + (1 - smoothing) * outcome."""
    trust = params.initial_trust if start is None else start
    if not 0.0 <= trust <= 1.0:
        raise DomainError("starting trust must lie in [0, 1]")
    for outcome in outcomes:
        if not math.isfinite(outcome) or not 0.0 <= outcome <= 1.0:
            raise DomainError("outcomes must lie in [0, 1]")
        trust = params.smoothing * trust + (1.0 - params.smoothing) * outcome
    return min(1.0, max(0.0, trust))


def aggregate_results(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean of reported values: sum(w * v) / sum(w)."""
    if len(values) != len(weights):
        raise DomainError("values and weights must have equal length")
    if any(w < 0 or not math.isfinite(w) for w in weights):
        raise DomainError("weights must be finite and >= 0")
    weight_total = math.fsum(weights)
    if weight_total <= 0:
        raise DomainError("at least one weight must be positive")
    return math.fsum(w * v for w, v in zip(weights, values)) / weight_total


class AggregationReport(NamedTuple):
    tick: int
    values: dict[str, float]
    weights: dict[str, float]
    aggregate: float | None


def make_aggregation_report(tick: int, values: Mapping[str, float],
                            weights: Mapping[str, float]) -> AggregationReport:
    """Aggregate per-operator reported values under the given weights.

    The aggregate is None when every weight is 0: the weighted mean is then
    undefined.
    """
    if set(values) != set(weights):
        raise DomainError("values and weights must cover the same operators")
    order = sorted(values)
    ordered_weights = [weights[op] for op in order]
    aggregate = (aggregate_results([values[op] for op in order], ordered_weights)
                 if any(ordered_weights) else None)
    return AggregationReport(tick=tick, values=dict(sorted(values.items())),
                             weights=dict(sorted(weights.items())), aggregate=aggregate)


def feedback_iterate(trust_snapshot: Mapping[str, float],
                     weights: Mapping[str, float]) -> dict[str, float]:
    """One monitor/adjust/iterate step: the new weights are the current trust.

    The snapshot must cover every operator ``weights`` has and hold trust
    in [0, 1]. Returns a new dict; inputs are not mutated.
    """
    missing = set(weights) - set(trust_snapshot)
    if missing:
        raise DomainError(f"trust snapshot missing operators: {sorted(missing)}")
    for op, trust in trust_snapshot.items():
        if not 0.0 <= trust <= 1.0:
            raise DomainError(f"trust for {op} must lie in [0, 1]")
    return {op: trust_snapshot[op] for op in sorted(trust_snapshot)}
