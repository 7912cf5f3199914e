"""Domain model of node operators, tasks, and per-task allocations.

Operators hold stake, a trust score, and capacity/resource budgets. Tasks
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
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DomainError

# Slack allowed when checking per-task resource caps.
CAP_SLACK = 1e-6

# Default comparison tolerance for the equilibrium check.
EQUILIBRIUM_TOL = 1e-9


@dataclass
class OperatorState:
    """An agent: identity, stake, trust, and working budgets."""

    id: str
    stake: float
    trust: float = 0.5
    capacity: float = 0.0
    resources: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.stake) or self.stake < 0:
            raise DomainError(f"operator {self.id}: stake must be finite and >= 0")
        if not math.isfinite(self.trust) or not 0.0 <= self.trust <= 1.0:
            raise DomainError(f"operator {self.id}: trust must lie in [0, 1]")
        if not math.isfinite(self.capacity) or self.capacity < 0:
            raise DomainError(f"operator {self.id}: capacity must be finite and >= 0")
        if not math.isfinite(self.resources) or self.resources < 0:
            raise DomainError(f"operator {self.id}: resources must be finite and >= 0")


@dataclass
class TaskSpec:
    """A task: cost rates, resource cap, reward pool, per-operator gains.

    ``consensus_gain`` and ``performance_gain`` map operator ids to the
    multipliers of the two score terms; every operator that may work on
    the task needs an entry.
    """

    id: str
    cost_rate: float = 0.0
    corruption_rate: float = 0.0
    resource_cap: float = 0.0
    consensus_gain: dict[str, float] = field(default_factory=dict)
    performance_gain: dict[str, float] = field(default_factory=dict)
    value: float = 0.0

    def __post_init__(self) -> None:
        for name, v in (("cost_rate", self.cost_rate),
                        ("corruption_rate", self.corruption_rate),
                        ("resource_cap", self.resource_cap),
                        ("value", self.value)):
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"task {self.id}: {name} must be finite and >= 0")
        for table_name, table in (("consensus_gain", self.consensus_gain),
                                  ("performance_gain", self.performance_gain)):
            for op_id, g in table.items():
                if not math.isfinite(g) or g < 0:
                    raise DomainError(
                        f"task {self.id}: {table_name}[{op_id}] must be finite and >= 0")

    def gains_for(self, operator_id: str) -> tuple[float, float]:
        """Return (consensus gain, performance gain) for one operator."""
        try:
            return self.consensus_gain[operator_id], self.performance_gain[operator_id]
        except KeyError:
            raise DomainError(
                f"task {self.id} has no gain entry for operator {operator_id}") from None


@dataclass(frozen=True)
class ScenarioWeights:
    """Weights of the consensus and performance score terms."""

    w1: float = 1.0
    w2: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise DomainError("weights must be finite")
        if self.w1 < 0 or self.w2 < 0:
            raise DomainError("weights must be >= 0")
        if self.w1 + self.w2 <= 0:
            raise DomainError("weights must satisfy w1 + w2 > 0")


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

    def operator_total(self, operator_id: str) -> float:
        return math.fsum(x for (o, _), x in self._entries.items() if o == operator_id)

    def items(self) -> list[tuple[tuple[str, str], float]]:
        """Entries in deterministic (operator id, task id) order."""
        return sorted(self._entries.items())

    def copy(self) -> "AllocationVector":
        return AllocationVector(self._entries)

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


def compute_utility(agent: OperatorState, task: TaskSpec, weights: ScenarioWeights,
                    units: float) -> float:
    """Utility of ``agent`` on ``task`` at ``units`` allocation.

    w1 * C(x) + w2 * S(x) - cost_rate * x - corruption_rate * x, which is
    zero at x = 0.
    """
    consensus, performance = evaluate_scores(agent, task, units)
    return (weights.w1 * consensus + weights.w2 * performance
            - task.cost_rate * units - task.corruption_rate * units)


@dataclass(frozen=True)
class Deviation:
    """A task switch that would strictly improve one operator's utility."""

    operator_id: str
    task_id: str
    utility_gain: float


@dataclass(frozen=True)
class EquilibriumResult:
    is_equilibrium: bool
    deviations: tuple[Deviation, ...]


def check_equilibrium(agents: Iterable[OperatorState], tasks: list[TaskSpec],
                      weights: ScenarioWeights, allocation: AllocationVector,
                      tol: float = EQUILIBRIUM_TOL) -> EquilibriumResult:
    """Test whether no operator can gain by moving its allocation elsewhere.

    For every operator and every task it currently works on, the check
    compares utility against every alternative task at the same allocation
    magnitude. A deviation counts only when the alternative task has
    residual cap room for the moved units (the mover's existing allocation
    on the alternative task stays in place) and improves utility by more
    than ``tol``.
    """
    if not tasks:
        raise DomainError("equilibrium check requires at least one task")
    allocation.validate(tasks, slack=max(tol, CAP_SLACK))
    totals = {task.id: allocation.task_total(task.id) for task in tasks}

    best_gain: dict[tuple[str, str], float] = {}
    for agent in sorted(agents, key=lambda a: a.id):
        for task in tasks:
            units = allocation.get(agent.id, task.id)
            if units <= 0:
                continue
            u_here = compute_utility(agent, task, weights, units)
            for alt in tasks:
                if alt.id == task.id:
                    continue
                if totals[alt.id] + units > alt.resource_cap + tol:
                    continue
                gain = compute_utility(agent, alt, weights, units) - u_here
                if gain > tol:
                    key = (agent.id, alt.id)
                    if gain > best_gain.get(key, -math.inf):
                        best_gain[key] = gain

    deviations = tuple(Deviation(op, t, g) for (op, t), g in sorted(best_gain.items()))
    return EquilibriumResult(is_equilibrium=not deviations, deviations=deviations)
