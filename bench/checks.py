"""Output checks of one benchmark run, and the water-filling reference.

The checks read only the input config document and the report document
(``RunReport.to_dict()``), the simulator's public output format, so they do
not depend on how the harness is structured inside.
"""

from __future__ import annotations

import math
from typing import Sequence

from opsim.agents import CAP_SLACK


def quorum_valid(signers: Sequence[str], stakes: dict[str, float]) -> bool:
    """Signers hold more than two thirds of the roster's stake."""
    signed = math.fsum(stakes[s] for s in signers)
    return 3.0 * signed > 2.0 * math.fsum(stakes.values())


def report_problems(config_doc: dict, report_doc: dict) -> list[str]:
    """Everything wrong with one run's report; empty when it passes.

    * the allocation may exceed a task cap by at most ``CAP_SLACK``;
    * every committed height's signer set must be quorum-valid at the
      stakes the epoch started with (the harness floors stakes at 1e-9).
    """
    problems = []
    stakes = {op["id"]: float(op["stake"]) for op in config_doc["operators"]}
    for epoch in report_doc["epochs"]:
        violation = epoch["convergence"]["constraint_violation"]
        if violation > CAP_SLACK:
            problems.append(f"epoch {epoch['epoch']}: constraint violation {violation}")
        floored = {op: max(stake, 1e-9) for op, stake in stakes.items()}
        for height in epoch["heights"]:
            if height["committed"] and not quorum_valid(height["signers"], floored):
                problems.append(f"height {height['height']}: signer set below quorum")
        stakes = epoch["stakes"]
    return problems


def water_fill(gains: Sequence[float], cost: float, cap: float) -> list[float]:
    """Exact maximizer of sum g_i ln(1 + x_i) - cost x_i s.t. x >= 0, sum x <= cap.

    The KKT point is x_i = max(0, g_i / (cost + lam) - 1) with lam >= 0 the
    cap's multiplier (Boyd & Vandenberghe, Convex Optimization, 5.5.3). When
    the cap binds, the level cost + lam is found in one pass over the gains
    in descending order: with the j largest gains active, the level is
    (g_1 + ... + g_j) / (cap + j), valid once g_j > level >= g_{j+1}.
    """
    if cap <= 0:
        return [0.0] * len(gains)
    if cost > 0:
        free = [max(0.0, g / cost - 1.0) for g in gains]
        if math.fsum(free) <= cap:
            return free
    ordered = sorted((g for g in gains if g > 0), reverse=True)
    level = 0.0
    running = 0.0
    for j, g in enumerate(ordered, start=1):
        running += g
        level = running / (cap + j)
        following = ordered[j] if j < len(ordered) else 0.0
        if g > level >= following:
            break
    if level <= 0:
        return [0.0] * len(gains)
    return [max(0.0, g / level - 1.0) for g in gains]


def allocation_error(agents, tasks, weights, allocation) -> float:
    """Largest |x - x*| of a solver result against ``water_fill``."""
    worst = 0.0
    ids = sorted(agent.id for agent in agents)
    for task in tasks:
        gains = []
        for agent_id in ids:
            c, s = task.gains_for(agent_id)
            gains.append(weights.w1 * c + weights.w2 * s)
        exact = water_fill(gains, task.cost_rate + task.corruption_rate,
                           task.resource_cap)
        for agent_id, x_star in zip(ids, exact):
            worst = max(worst, abs(allocation.get(agent_id, task.id) - x_star))
    return worst
