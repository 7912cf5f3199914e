"""Domain model of node operators, tasks, and per-task allocations.

Operators hold stake and a resource budget. Tasks
carry linear cost rates, a shared resource cap, and per-operator gain
tables. An operator's utility on a task combines a consensus score and a
performance score, both logarithmic in the allocated units, minus linear
execution and corruption costs:

    U(x) = w1 * c * ln(1 + x) + w2 * s * ln(1 + x) - k * x - q * x

The logarithmic score forms make utility strictly concave in x whenever
the weighted gain is positive, so first-order conditions are well posed.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .errors import CheckedRecord, DomainError

# Slack allowed when checking per-task resource caps.
CAP_SLACK = 1e-6


class _OperatorFields(NamedTuple):
    id: str
    stake: float
    resources: float


class OperatorState(CheckedRecord, _OperatorFields):
    """An agent: identity, stake and resource budget."""

    __slots__ = ()

    def __new__(cls, id, stake, resources=0.0):
        if not math.isfinite(stake) or stake < 0:
            raise DomainError(f"operator {id}: stake must be finite and >= 0")
        if not math.isfinite(resources) or resources < 0:
            raise DomainError(f"operator {id}: resources must be finite and >= 0")
        return tuple.__new__(cls, (id, stake, resources))


class _TaskFields(NamedTuple):
    id: str
    cost_rate: float
    corruption_rate: float
    resource_cap: float
    consensus_gain: dict[str, float]
    performance_gain: dict[str, float]
    value: float


class TaskSpec(CheckedRecord, _TaskFields):
    """A task: cost rates, resource cap, reward pool, per-operator gains.

    ``consensus_gain`` and ``performance_gain`` map operator ids to the
    multipliers of the two score terms; every operator that may work on
    the task needs an entry. A table left out starts as a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, id, cost_rate=0.0, corruption_rate=0.0, resource_cap=0.0,
                consensus_gain=None, performance_gain=None, value=0.0):
        consensus_gain = {} if consensus_gain is None else consensus_gain
        performance_gain = {} if performance_gain is None else performance_gain
        for name, v in (("cost_rate", cost_rate), ("corruption_rate", corruption_rate),
                        ("resource_cap", resource_cap), ("value", value)):
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"task {id}: {name} must be finite and >= 0")
        for table_name, table in (("consensus_gain", consensus_gain),
                                  ("performance_gain", performance_gain)):
            for op_id, g in table.items():
                if not math.isfinite(g) or g < 0:
                    raise DomainError(
                        f"task {id}: {table_name}[{op_id}] must be finite and >= 0")
        return tuple.__new__(cls, (id, cost_rate, corruption_rate, resource_cap,
                                   consensus_gain, performance_gain, value))

    def gains_for(self, operator_id: str) -> tuple[float, float]:
        """Return (consensus gain, performance gain) for one operator."""
        try:
            return self.consensus_gain[operator_id], self.performance_gain[operator_id]
        except KeyError:
            raise DomainError(
                f"task {self.id} has no gain entry for operator {operator_id}") from None


class _WeightFields(NamedTuple):
    w1: float
    w2: float


class ScenarioWeights(CheckedRecord, _WeightFields):
    """Weights of the consensus and performance score terms."""

    __slots__ = ()

    def __new__(cls, w1=1.0, w2=1.0):
        if not (math.isfinite(w1) and math.isfinite(w2)):
            raise DomainError("weights must be finite")
        if w1 < 0 or w2 < 0:
            raise DomainError("weights must be >= 0")
        if w1 + w2 <= 0:
            raise DomainError("weights must satisfy w1 + w2 > 0")
        return tuple.__new__(cls, (w1, w2))


class AllocationVector:
    """Non-negative allocation units per (operator id, task id) pair.

    Missing pairs read as zero. Instances are plain containers; feasibility
    against a task set is checked with :meth:`validate`.
    """

    def __init__(self, entries: Mapping[tuple[str, str], float] | None = None):
        self._entries: dict[tuple[str, str], float] = {}
        if entries:
            for (op_id, task_id), x in entries.items():
                self.set(op_id, task_id, x)

    def set(self, operator_id: str, task_id: str, units: float) -> None:
        if not math.isfinite(units) or units < 0:
            raise DomainError(
                f"allocation for ({operator_id}, {task_id}) must be finite and >= 0")
        self._entries[(operator_id, task_id)] = float(units)

    def get(self, operator_id: str, task_id: str) -> float:
        return self._entries.get((operator_id, task_id), 0.0)

    def task_total(self, task_id: str) -> float:
        return math.fsum(x for (_, t), x in self._entries.items() if t == task_id)

    def items(self) -> list[tuple[tuple[str, str], float]]:
        """Entries in deterministic (operator id, task id) order."""
        return sorted(self._entries.items())

    def validate(self, tasks: Iterable[TaskSpec], slack: float = CAP_SLACK) -> None:
        """Raise :class:`DomainError` unless all caps are respected."""
        for task in tasks:
            total = self.task_total(task.id)
            if total > task.resource_cap + slack:
                raise DomainError(
                    f"task {task.id}: allocated {total} exceeds cap {task.resource_cap}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationVector):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        inner = ", ".join(f"({o}, {t}): {x:g}" for (o, t), x in self.items())
        return f"AllocationVector({{{inner}}})"


def evaluate_scores(agent: OperatorState, task: TaskSpec, units: float) -> tuple[float, float]:
    """Consensus and performance score of ``agent`` on ``task`` at ``units``.

    Both scores are gain * ln(1 + units): zero at zero, strictly increasing
    and strictly concave whenever the gain is positive.
    """
    if not math.isfinite(units) or units < 0:
        raise DomainError("allocation units must be finite and >= 0")
    c, s = task.gains_for(agent.id)
    log_term = math.log1p(units)
    return c * log_term, s * log_term

