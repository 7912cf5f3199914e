"""Independent oracles used to check solver and optimizer outputs.

These deliberately avoid the library's solution paths: welfare maximization
is done on a discrete grid (greedy marginal allocation, exact for separable
concave objectives, cross-checked against exhaustive enumeration), gradients
come from central finite differences, throughput optima from an integer
scan, the paper's allocation method is projected gradient ascent, a
consensus height advances one tick at a time and hands each message to one
recipient at a time, a reference validator re-evaluates after every message
and re-sums every tally with ``fsum``, and gossip queues one delivery per
recipient with ``randint`` jitter.

It also holds the checkers that tests hold ``solve_allocation`` and
``hessian_stability`` to, which no simulation run calls: ``compute_utility``
and ``welfare`` (one operator's and the summed utility),
``lagrangian_gradient`` (the gradient of the cap-relaxed objective, for the
KKT conditions), ``check_equilibrium`` (no operator gains by moving its
units to another task, with ``Deviation``, ``EquilibriumResult`` and
``EQUILIBRIUM_TOL``) and ``stability_report`` (a dense symmetric matrix
classified by numpy's ``eigvalsh``).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from opsim import (AllocationVector, DomainError, OperatorState, ScenarioWeights,
                   StabilityReport, TaskSpec, evaluate_scores)
from opsim.agents import CAP_SLACK
from opsim.allocation import SPECTRUM_TOL, _classify, entry_order
from opsim.consensus import (Behavior, EventTrace, GossipNetwork, _EquivocatingNode,
                             _finish_height, _HeightContext, _HonestNode, batch_digest,
                             phase_timeout)


# Default comparison tolerance for the equilibrium check.
EQUILIBRIUM_TOL = 1e-9


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


def welfare(agents: Sequence[OperatorState], tasks: Sequence[TaskSpec],
            weights: ScenarioWeights, allocation: AllocationVector) -> float:
    """Summed utility over every (operator, task) pair."""
    by_agent = {a.id: a for a in agents}
    by_task = {t.id: t for t in tasks}
    return math.fsum(
        compute_utility(by_agent[a], by_task[t], weights, allocation.get(a, t))
        for a, t in entry_order(agents, tasks))


def lagrangian_gradient(agents: Sequence[OperatorState], tasks: Sequence[TaskSpec],
                        weights: ScenarioWeights, allocation: AllocationVector,
                        multipliers: Mapping[str, float] | None = None,
                        ) -> dict[tuple[str, str], float]:
    """Gradient of the cap-relaxed objective at ``allocation``.

    Entry (i, t) is (w1*c + w2*s) / (1 + x) - cost_rate - corruption_rate
    - multipliers[t], the marginal utility of one more allocation unit net
    of the task's shadow price. Missing multipliers read as zero.
    """
    multipliers = multipliers or {}
    for task_id, lam in multipliers.items():
        if not math.isfinite(lam) or lam < 0:
            raise DomainError(f"multiplier for task {task_id} must be finite and >= 0")
    allocation.validate(tasks)
    by_task = {t.id: t for t in tasks}
    grad: dict[tuple[str, str], float] = {}
    for a_id, t_id in entry_order(agents, tasks):
        task = by_task[t_id]
        c, s = task.gains_for(a_id)
        lam = multipliers.get(t_id, 0.0)
        grad[(a_id, t_id)] = ((weights.w1 * c + weights.w2 * s)
                              / (1.0 + allocation.get(a_id, t_id))
                              - task.cost_rate - task.corruption_rate - lam)
    return grad


def stability_report(hessian) -> StabilityReport:
    """Verdict of a dense symmetric matrix, by ``_classify`` of its ``eigvalsh`` extremes."""
    matrix = np.asarray(hessian, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"hessian must be square, got shape {matrix.shape}")
    if matrix.size == 0:
        raise DomainError("hessian must be non-empty")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("hessian entries must be finite")
    if np.max(np.abs(matrix - matrix.T)) > SPECTRUM_TOL:
        raise DomainError("hessian must be symmetric")

    eigenvalues = np.linalg.eigvalsh(matrix)
    return _classify(float(eigenvalues[0]), float(eigenvalues[-1]))

def log_utility(value: float, cost: float, x: float) -> float:
    return value * math.log1p(x) - cost * x


def grid_welfare(values: list[float], costs: list[float], cap: float,
                 step: float = 1e-3) -> tuple[list[float], float]:
    """Grid-optimal allocation for sum(v_i*ln(1+x_i) - k_i*x_i), sum x <= cap.

    Allocates the cap one grid step at a time to the entry with the largest
    marginal gain, stopping when no positive gain remains; for concave
    per-entry utilities this greedy sweep is exact on the grid. Ties go to
    the higher index, keeping the allocation lexicographically smallest.
    """
    n = len(values)
    units = [0] * n
    budget = int(math.floor(cap / step + 1e-12))

    def marginal(i: int, u: int) -> float:
        return (values[i] * (math.log1p((u + 1) * step) - math.log1p(u * step))
                - costs[i] * step)

    heap = [(-marginal(i, 0), -i) for i in range(n)]
    heapq.heapify(heap)
    for _ in range(budget):
        neg_gain, neg_i = heapq.heappop(heap)
        if -neg_gain <= 0:
            break
        i = -neg_i
        units[i] += 1
        heapq.heappush(heap, (-marginal(i, units[i]), -i))
    allocation = [u * step for u in units]
    welfare = math.fsum(log_utility(values[i], costs[i], allocation[i])
                        for i in range(n))
    return allocation, welfare


def exhaustive_grid_welfare(values: list[float], costs: list[float], cap: float,
                            step: float) -> float:
    """Full grid enumeration; exponential, for cross-checking small cases."""
    n = len(values)
    best = -math.inf

    def recurse(i: int, remaining_units: int, partial: float) -> None:
        nonlocal best
        if i == n - 1:
            for u in range(remaining_units + 1):
                total = partial + log_utility(values[i], costs[i], u * step)
                if total > best:
                    best = total
            return
        for u in range(remaining_units + 1):
            recurse(i + 1, remaining_units - u,
                    partial + log_utility(values[i], costs[i], u * step))

    recurse(0, int(math.floor(cap / step + 1e-12)), 0.0)
    return best


def projected_gradient_ascent(values: list[float], cost: float, cap: float) -> list[float]:
    """The paper's solver for sum(v_i*ln(1+x_i)) - cost*sum(x), sum x <= cap.

    Steps along the gradient from zero at rate 0.01, projects onto
    {x >= 0, sum x <= cap} by the sorted-threshold rule (Duchi et al., ICML
    2008) and stops when a step moves less than 1e-6, or after 100k steps.
    """
    x = [0.0] * len(values)
    for _ in range(100_000):
        stepped = [xi + 0.01 * (v / (1.0 + xi) - cost) for xi, v in zip(x, values)]
        shift = 0.0
        if math.fsum(max(0.0, z) for z in stepped) > cap:
            ordered = sorted(stepped, reverse=True)
            running = 0.0
            for j, z in enumerate(ordered, start=1):
                running += z
                shift = (running - cap) / j
                if j == len(ordered) or shift > ordered[j]:
                    break
        moved = [max(0.0, z - shift) for z in stepped]
        step = math.dist(moved, x)
        x = moved
        if step < 1e-6:
            break
    return x


def finite_difference_gradient(func, point: dict, h: float = 1e-6) -> dict:
    """Central finite differences of ``func`` over a keyed point."""
    gradient = {}
    for key in point:
        forward = dict(point)
        backward = dict(point)
        forward[key] = point[key] + h
        backward[key] = point[key] - h
        gradient[key] = (func(forward) - func(backward)) / (2 * h)
    return gradient


def scan_throughput(utility, capacity: float) -> int:
    """Integer argmax of ``utility`` over [0, capacity]."""
    best_t, best_u = 0, utility(0)
    for t in range(1, int(math.floor(capacity)) + 1):
        u = utility(t)
        if u > best_u:
            best_t, best_u = t, u
    return best_t


def stake_quorum(signed: float, total: float) -> bool:
    """Reference strict two-thirds stake rule."""
    return 3.0 * signed > 2.0 * total


class ReferenceNode(_HonestNode):
    """``_HonestNode`` with no evaluation gate, no integer tally and no group loop.

    It hears a message one node at a time, re-evaluates its phase after
    every message, and re-sums a tally of float stakes with ``fsum`` on
    every vote, its own included. Phase logic, sends and decisions are
    ``_HonestNode``'s own.
    """

    @staticmethod
    def receive(ctx, message, group, tick):
        for node in group:
            if message.kind == "proposal":
                if message.sender == ctx.proposer(message.round).id:
                    node.proposals.setdefault(message.round, message.digest)
            else:
                node._tally((message.kind, message.round, message.digest), message.sender)
            if not node.done:
                node._evaluate(tick)

    def _tally(self, key, voter, units=None):
        # The units ``_HonestNode._cast`` passes are ignored: this tally
        # sums the roster's float stakes.
        voters = self.votes.setdefault(key, {})
        voters[voter] = self.ctx.stakes[voter]
        if stake_quorum(math.fsum(voters.values()), self.ctx.total_stake):
            self.quorums.add(key)


def summed_timeouts(max_rounds: int) -> int:
    """Three phase timeouts in each of ``max_rounds`` rounds, summed round by round."""
    return 3 * sum(phase_timeout(r) for r in range(max_rounds))


def run_height_ticked(validators, batch, network, max_rounds, *, height=0, trace=None,
                      honest=_HonestNode):
    """``run_height`` by fixed-increment time advance.

    Every tick up to the horizon delivers what is due, one recipient at a
    time, and then calls every node, and in-flight messages drain one tick
    at a time. Honest and invalid-proposer validators are ``honest`` nodes;
    equivocators are ``run_height``'s own. The height's end (silent faults,
    certificate or no-commit record) is ``run_height``'s own tail, and so
    are the input checks.
    """
    trace = trace if trace is not None else EventTrace()
    digest = batch_digest(batch)
    net = GossipNetwork(network, validators)
    ctx = _HeightContext(validators, digest, net, max_rounds, height, trace)

    nodes = {}
    for v in sorted(validators, key=lambda v: v.id):
        if v.behavior in (Behavior.HONEST, Behavior.INVALID_PROPOSER):
            nodes[v.id] = honest(v, ctx)
        elif v.behavior is Behavior.EQUIVOCATING:
            nodes[v.id] = _EquivocatingNode(v, ctx)

    protocol_nodes = [n for n in nodes.values() if isinstance(n, _HonestNode)]

    def deliver(tick):
        for message, group in net.step(tick):
            for recipient in group:
                target = nodes.get(recipient)
                if isinstance(target, _HonestNode):
                    honest.receive(ctx, message, (target,), tick)

    max_latency = max(v.region_latency for v in validators)
    horizon = (summed_timeouts(max_rounds)
               + (max_latency + network.latency_jitter + 2) * (3 * max_rounds + 2) + 8)

    for node in (nodes[i] for i in sorted(nodes)):
        if isinstance(node, _HonestNode):
            node.start(0)

    tick = 0
    last_tick = 0
    while tick <= horizon:
        deliver(tick)
        for node_id in sorted(nodes):
            nodes[node_id].on_tick(tick)
        last_tick = tick
        if protocol_nodes and all(n.done for n in protocol_nodes):
            break
        if not protocol_nodes:
            break
        tick += 1

    while net.pending > 0 and tick <= horizon:
        tick += 1
        deliver(tick)

    return _finish_height(ctx, last_tick)


class PerRecipientGossip:
    """``GossipNetwork`` with one queue entry per delivery and no shortcuts.

    Every recipient but the sender, in id order, draws
    ``randint(0, latency_jitter)`` and then its drop, on every network, and
    is queued under its own (deliver tick, seq) key unless dropped or cut
    off by a partition.
    """

    def __init__(self, model, validators):
        self._model = model
        self._latency = {v.id: v.region_latency for v in validators}
        self._ids = sorted(self._latency)
        self._rng = random.Random(model.rng_seed)
        self._queue = []  # (deliver tick, seq, message, recipient)
        self._seq = 0
        self._last_tick = -1

    def broadcast(self, message, recipients=None):
        sender = message.sender
        if sender not in self._latency:
            raise DomainError(f"unknown sender {sender}")
        if recipients is not None:
            recipients = sorted(set(recipients))
            for recipient in recipients:
                if recipient not in self._latency:
                    raise DomainError(f"unknown recipient {recipient}")
        send_tick = message.tick + self._latency[sender]
        for recipient in self._ids if recipients is None else recipients:
            if recipient == sender:
                continue
            jitter = self._rng.randint(0, self._model.latency_jitter)
            dropped = self._rng.random() < self._model.drop_probability
            deliver_tick = send_tick + jitter
            if dropped or self._partitioned(sender, recipient, deliver_tick):
                continue
            heapq.heappush(self._queue, (deliver_tick, self._seq, message, recipient))
            self._seq += 1

    def _partitioned(self, sender, recipient, tick):
        for spec in self._model.partition_schedule:
            if spec.start_tick <= tick < spec.end_tick:
                if (sender in spec.members) != (recipient in spec.members):
                    return True
        return False

    def step(self, tick):
        if tick < self._last_tick:
            raise DomainError("gossip steps must use non-decreasing ticks")
        self._last_tick = tick
        delivered = []
        while self._queue and self._queue[0][0] <= tick:
            delivered.append(heapq.heappop(self._queue)[2:])
        return delivered

    @property
    def pending(self):
        return len(self._queue)

    @property
    def next_tick(self):
        return self._queue[0][0] if self._queue else None
