"""Metric models for the two runnable scenarios.

Sequencer runs report throughput, mean validation latency, fault
tolerance, and resource efficiency from a per-node run log. Payment runs
model per-node transaction validation with a quadratic validation cost, a
linear error model, and a deadline penalty, exposing the closed-form
optimal throughput and the aggregate payment metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .allocation import StabilityReport, _classify, check_convergence
from .agents import AllocationVector
from .errors import ConstraintViolationError, DomainError

# Default constant of the trust-driven failure model.
FAILURE_RATE_CONSTANT = 0.05


@dataclass(frozen=True)
class SequencerRunLog:
    """Per-node observations of one sequencer run window.

    All mappings must cover the same node set; ``failures`` counts nodes
    that failed during the window.
    """

    outputs: dict[str, float]
    consensus_scores: dict[str, float]
    performance_scores: dict[str, float]
    failures: int
    costs: dict[str, float]
    total_resources: float

    def __post_init__(self) -> None:
        nodes = set(self.outputs)
        if not nodes:
            raise DomainError("run log needs at least one node")
        for name, table in (("consensus_scores", self.consensus_scores),
                            ("performance_scores", self.performance_scores),
                            ("costs", self.costs)):
            if set(table) != nodes:
                raise DomainError(f"{name} must cover the same nodes as outputs")
        if any(v < 0 for v in self.outputs.values()):
            raise DomainError("outputs must be >= 0")
        if self.failures < 0 or self.failures > len(nodes):
            raise DomainError("failures must lie in [0, node count]")


@dataclass(frozen=True)
class SequencerMetrics:
    throughput: float
    latency: float
    fault_tolerance: float
    efficiency: float


@dataclass(frozen=True)
class PaymentMetrics:
    total_transactions: float
    validation_efficiency: float | None
    error_rate: float | None
    revenue_growth: float | None
    total_penalties: float


@dataclass(frozen=True)
class MetricsReport:
    """Metric bundle of one run window; unused scenario parts stay None."""

    sequencer: SequencerMetrics | None = None
    payment: PaymentMetrics | None = None


def sequencer_metrics(log: SequencerRunLog) -> SequencerMetrics:
    """Throughput, latency, fault tolerance, and efficiency of one window.

    Per node the validation time is 1 / (consensus score + performance
    score); latency is their mean, throughput divides total output by that
    latency, fault tolerance is 1 - failures / node count, and efficiency
    is (total output - total cost) / total resources.
    """
    nodes = sorted(log.outputs)
    if log.total_resources <= 0:
        raise DomainError("total_resources must be > 0")
    validation_times = []
    for node in nodes:
        combined = log.consensus_scores[node] + log.performance_scores[node]
        if combined <= 0:
            raise DomainError(f"node {node}: undefined validation latency "
                              "(consensus + performance score must be > 0)")
        validation_times.append(1.0 / combined)
    count = len(nodes)
    latency = math.fsum(validation_times) / count
    throughput = math.fsum(log.outputs[n] for n in nodes) / latency
    fault_tolerance = 1.0 - log.failures / count
    efficiency = (math.fsum(log.outputs[n] for n in nodes)
                  - math.fsum(log.costs[n] for n in nodes)) / log.total_resources
    return SequencerMetrics(throughput=throughput, latency=latency,
                            fault_tolerance=fault_tolerance, efficiency=efficiency)


def failure_probability(trust: float, kappa: float = FAILURE_RATE_CONSTANT) -> float:
    """Per-window failure chance, inversely proportional to trust."""
    if kappa < 0:
        raise DomainError("kappa must be >= 0")
    if trust < 0:
        raise DomainError("trust must be >= 0")
    if trust == 0:
        return 1.0 if kappa > 0 else 0.0
    return min(1.0, kappa / trust)


@dataclass(frozen=True)
class PaymentNodeParams:
    """Economics of one payment-validation node.

    ``validation_cost_coeff`` shapes the quadratic validation cost
    v * T^2 / 2; ``error_rate`` is expected errors per transaction;
    the deadline penalty applies when realized validation time exceeds
    the deadline. ``validation_cost_cap`` of None means uncapped.
    """

    fee: float
    validation_cost_coeff: float
    capacity: float
    penalty_coeff: float = 0.0
    error_cost_coeff: float = 0.0
    error_rate: float = 0.0
    deadline: float = math.inf
    validation_time: float = 0.0
    validation_cost_cap: float | None = None

    def __post_init__(self) -> None:
        for name, v in (("fee", self.fee),
                        ("validation_cost_coeff", self.validation_cost_coeff),
                        ("capacity", self.capacity),
                        ("penalty_coeff", self.penalty_coeff),
                        ("error_cost_coeff", self.error_cost_coeff),
                        ("validation_time", self.validation_time)):
            if not math.isfinite(v) and not (name == "capacity" and v == math.inf):
                raise DomainError(f"payment params: {name} must be finite")
            if v < 0:
                raise DomainError(f"payment params: {name} must be >= 0")
        if not 0.0 <= self.error_rate <= 1.0:
            raise DomainError("payment params: error_rate must lie in [0, 1]")
        if self.deadline < 0:
            raise DomainError("payment params: deadline must be >= 0")
        if self.validation_cost_cap is not None and self.validation_cost_cap < 0:
            raise DomainError("payment params: validation_cost_cap must be >= 0")

    def validation_cost(self, transactions: float) -> float:
        return self.validation_cost_coeff * transactions ** 2 / 2.0

    def expected_errors(self, transactions: float) -> float:
        return self.error_rate * transactions

    def penalty(self, transactions: float) -> float:
        overtime = self.validation_time - self.deadline
        return self.penalty_coeff * max(0.0, transactions * overtime)


def payment_utility(params: PaymentNodeParams, transactions: float) -> float:
    """Node utility at a transaction count within [0, capacity].

    fee * T - v * T^2 / 2 - error_cost * expected errors - deadline
    penalty.
    """
    if not math.isfinite(transactions) or transactions < 0:
        raise DomainError("transaction count must be finite and >= 0")
    if transactions > params.capacity:
        raise ConstraintViolationError(
            f"transaction count {transactions} exceeds capacity {params.capacity}")
    return (params.fee * transactions
            - params.validation_cost(transactions)
            - params.error_cost_coeff * params.expected_errors(transactions)
            - params.penalty(transactions))


def optimize_throughput(params: PaymentNodeParams) -> float:
    """Transaction count maximizing the node's utility on [0, capacity].

    The marginal value fee - error cost rate - marginal deadline penalty is
    linear against the quadratic validation cost, so the optimum is the
    clamped stationary point; with a zero cost coefficient the optimum sits
    at a boundary. A validation cost cap tightens the upper bound.
    """
    upper = params.capacity
    if params.validation_cost_cap is not None and params.validation_cost_coeff > 0:
        upper = min(upper, math.sqrt(2.0 * params.validation_cost_cap
                                     / params.validation_cost_coeff))
    overtime = max(0.0, params.validation_time - params.deadline)
    slope = (params.fee - params.error_cost_coeff * params.error_rate
             - params.penalty_coeff * overtime)
    if params.validation_cost_coeff > 0:
        return min(max(0.0, slope / params.validation_cost_coeff), upper)
    if not math.isfinite(upper):
        raise DomainError("unbounded problem: zero cost coefficient with "
                          "infinite capacity")
    return upper if slope > 0 else 0.0


@dataclass(frozen=True)
class PaymentWindowLog:
    """Per-node payment observations for one window."""

    transactions: dict[str, float]
    validation_costs: dict[str, float]
    errors: dict[str, float]
    penalties: dict[str, float]
    profit: float

    def __post_init__(self) -> None:
        nodes = set(self.transactions)
        if not nodes:
            raise DomainError("payment log needs at least one node")
        for name, table in (("validation_costs", self.validation_costs),
                            ("errors", self.errors),
                            ("penalties", self.penalties)):
            if set(table) != nodes:
                raise DomainError(f"{name} must cover the same nodes as transactions")


def payment_metrics(logs: Sequence[PaymentWindowLog]) -> PaymentMetrics:
    """Aggregate payment metrics over a sequence of window logs.

    Efficiency and error rate are reported as absent (None) when their
    denominators vanish; revenue growth needs at least two windows and a
    nonzero previous profit, otherwise it is absent as well.
    """
    if not logs:
        raise DomainError("payment_metrics requires at least one window log")
    tx_total = math.fsum(math.fsum(log.transactions.values()) for log in logs)
    cost_total = math.fsum(math.fsum(log.validation_costs.values()) for log in logs)
    error_total = math.fsum(math.fsum(log.errors.values()) for log in logs)
    penalty_total = math.fsum(math.fsum(log.penalties.values()) for log in logs)

    efficiency = tx_total / cost_total if cost_total > 0 else None
    error_rate = error_total / tx_total if tx_total > 0 else None
    growth = None
    if len(logs) >= 2 and logs[-2].profit != 0:
        growth = (logs[-1].profit - logs[-2].profit) / logs[-2].profit
    return PaymentMetrics(total_transactions=tx_total,
                          validation_efficiency=efficiency,
                          error_rate=error_rate,
                          revenue_growth=growth,
                          total_penalties=penalty_total)


def payment_convergence_check(history: Sequence[AllocationVector], tolerance: float,
                              cost_coeff: float, fee_variable: bool = True,
                              ) -> tuple[bool, StabilityReport]:
    """Convergence of an allocation history plus the utility's stability.

    Convergence applies the displacement rule to the last two allocations.
    The stability verdict classifies the utility Hessian in (transactions,
    fee): [[-v, 1], [1, 0]] when the fee is treated as a variable, [[-v]]
    when it is fixed. Its eigenvalues are computed in closed form: -v, or
    the roots of l^2 + v*l - 1 = 0. Those roots multiply to -1, so with
    t = v + sign(v) * sqrt(v^2 + 4) they are -t/2 and 2/t, neither of
    which cancels.
    """
    if len(history) < 2:
        raise DomainError("convergence check needs at least two allocations")
    converged = check_convergence(history[-2], history[-1], tolerance)
    if not math.isfinite(cost_coeff):
        raise DomainError("cost_coeff must be finite")
    if not fee_variable:
        return converged, _classify(-cost_coeff, -cost_coeff)
    t = cost_coeff + math.copysign(math.hypot(cost_coeff, 2.0), cost_coeff)
    low, high = sorted((-t / 2.0, 2.0 / t))
    return converged, _classify(low, high)
