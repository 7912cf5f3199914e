"""Constrained welfare maximization over (operator, task) allocations.

Maximizes the summed operator utilities subject to a per-task resource cap
and non-negativity. Utilities are separable and each task has one cap, so
the optimum is solved exactly, task by task, from its KKT conditions:
x_i = max(0, g_i / (k + q + lam) - 1), where g_i = w1*c_i + w2*s_i and
lam >= 0 is the cap's multiplier. This is water-filling (Boyd &
Vandenberghe, Convex Optimization, 5.5.3); the level k + q + lam comes from
one pass over the gains in descending order. It is the point the paper's
projected gradient ascent converges to.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .agents import AllocationVector, OperatorState, ScenarioWeights, TaskSpec
from .errors import CheckedRecord, DomainError

# Spectrum classification band around zero.
SPECTRUM_TOL = 1e-9


class _ConvergenceFields(NamedTuple):
    constraint_violation: float
    multipliers: dict[str, float]


class ConvergenceReport(CheckedRecord, _ConvergenceFields):
    """Outcome of one allocation solve: the largest cap overrun and each task's multiplier.

    ``multipliers`` left out starts as a new empty dict. ``iterations`` is
    always 1, a class attribute and not a field, so reports leave it out;
    the benchmark counts solves by it until ROADMAP item 1 renames that count.
    """

    __slots__ = ()
    iterations = 1

    def __new__(cls, constraint_violation, multipliers=None):
        return tuple.__new__(cls, (constraint_violation,
                                   {} if multipliers is None else multipliers))


class StabilityVerdict(Enum):
    """Verdict on the welfare Hessian's spectrum.

    A run's verdict is only ever ``concave-stable`` or ``boundary``:
    ``TaskSpec`` and ``ScenarioWeights`` reject negative gains and weights,
    so no Hessian diagonal entry of ``hessian_stability`` is above 0.
    ``indefinite`` is reached only by dense matrices classified in the
    tests, such as the payment Hessian with its fee variable.
    """

    CONCAVE_STABLE = "concave-stable"
    BOUNDARY = "boundary"
    INDEFINITE = "indefinite"


class StabilityReport(NamedTuple):
    eigen_extremes: tuple[float, float]
    verdict: StabilityVerdict


def entry_order(agents: Sequence[OperatorState],
                tasks: Sequence[TaskSpec]) -> list[tuple[str, str]]:
    """Deterministic (operator id, task id) ordering of decision variables."""
    return [(a, t) for a in sorted(x.id for x in agents) for t in sorted(x.id for x in tasks)]


def _water_fill(gains: list[float], cost: float, cap: float) -> tuple[list[float], float]:
    """Maximize sum g_i ln(1 + x_i) - cost x_i s.t. x >= 0, sum x <= cap.

    Returns the maximizer x_i = max(0, g_i / level - 1) and its water level
    cost + lam. Were the cap to bind, the level with the j largest gains in
    would be (g_1 + ... + g_j) / (cap + j); gains join in descending order
    while they exceed the level of those already in. The cap binds iff that
    level exceeds the cost. Subnormal gains (below 2.2e-308) lose relative
    precision in the level.
    """
    level = running = 0.0
    for j, g in enumerate(sorted(gains, reverse=True), start=1):
        if g <= level:
            break
        running += g
        level = running / (cap + j)
    level = max(level, cost)
    if level <= 0:
        return [0.0] * len(gains), 0.0
    return [max(0.0, g / level - 1.0) for g in gains], level


def solve_allocation(agents: Sequence[OperatorState], tasks: Sequence[TaskSpec],
                     weights: ScenarioWeights,
                     ) -> tuple[AllocationVector, ConvergenceReport]:
    """Maximize total welfare subject to per-task caps and x >= 0, exactly.

    Each task is water-filled on its own. The report carries each task's
    KKT multiplier max(0, level - cost_rate - corruption_rate).
    """
    if not agents:
        raise DomainError("solver requires at least one operator")
    if not tasks:
        raise DomainError("solver requires at least one task")

    ids = sorted(a.id for a in agents)
    result = AllocationVector()
    multipliers: dict[str, float] = {}
    for task in tasks:
        gains = [weights.w1 * c + weights.w2 * s for c, s in map(task.gains_for, ids)]
        cost = task.cost_rate + task.corruption_rate
        units, level = _water_fill(gains, cost, task.resource_cap)
        for agent_id, x in zip(ids, units):
            result.set(agent_id, task.id, x)
        multipliers[task.id] = max(0.0, level - cost)

    violation = max(max(0.0, result.task_total(t.id) - t.resource_cap) for t in tasks)
    return result, ConvergenceReport(violation, multipliers)


def _classify(low: float, high: float) -> StabilityReport:
    """Verdict from the spectrum's extremes ``low`` <= ``high``.

    ``boundary`` when the whole spectrum sits within the zero band,
    ``concave-stable`` when the largest eigenvalue does not exceed it,
    ``indefinite`` otherwise.
    """
    if abs(low) <= SPECTRUM_TOL and abs(high) <= SPECTRUM_TOL:
        verdict = StabilityVerdict.BOUNDARY
    elif high <= SPECTRUM_TOL:
        verdict = StabilityVerdict.CONCAVE_STABLE
    else:
        verdict = StabilityVerdict.INDEFINITE
    return StabilityReport(eigen_extremes=(low, high), verdict=verdict)


def hessian_stability(agents: Sequence[OperatorState], tasks: Sequence[TaskSpec],
                      weights: ScenarioWeights,
                      allocation: AllocationVector) -> StabilityReport:
    """Stability verdict of the welfare objective at ``allocation``.

    Utilities are separable per entry, so the Hessian is diagonal with
    entries -(w1*c + w2*s) / (1 + x)^2. A diagonal matrix's eigenvalues
    are its entries, so the extremes are their min and max, exactly; no
    matrix is built. Gains and weights are at least 0, so every entry is at
    most 0 and the verdict is ``concave-stable`` or ``boundary``, never
    ``indefinite``.
    """
    allocation.validate(tasks)
    by_task = {t.id: t for t in tasks}
    diag = []
    for a_id, t_id in entry_order(agents, tasks):
        c, s = by_task[t_id].gains_for(a_id)
        x = allocation.get(a_id, t_id)
        diag.append(-(weights.w1 * c + weights.w2 * s) / (1.0 + x) ** 2)
    if not diag:
        raise DomainError("hessian must be non-empty")
    return _classify(min(diag), max(diag))

