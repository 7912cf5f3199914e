"""Metric models for the two runnable scenarios.

Sequencer runs report throughput, mean validation latency, fault
tolerance, and resource efficiency from a per-node run log. Payment runs
model per-node transaction validation with a quadratic validation cost, a
linear error model, and a deadline penalty, exposing the closed-form
optimal throughput and the aggregate payment metrics.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .errors import CheckedRecord, ConstraintViolationError, DomainError

# Default constant of the trust-driven failure model.
FAILURE_RATE_CONSTANT = 0.05


class _SequencerLogFields(NamedTuple):
    outputs: dict[str, float]
    consensus_scores: dict[str, float]
    performance_scores: dict[str, float]
    failures: int
    costs: dict[str, float]
    total_resources: float


class SequencerRunLog(CheckedRecord, _SequencerLogFields):
    """Per-node observations of one sequencer run window.

    All mappings must cover the same node set; ``failures`` counts nodes
    that failed during the window.
    """

    __slots__ = ()

    def __new__(cls, outputs, consensus_scores, performance_scores, failures, costs,
                total_resources):
        nodes = set(outputs)
        if not nodes:
            raise DomainError("run log needs at least one node")
        for name, table in (("consensus_scores", consensus_scores),
                            ("performance_scores", performance_scores),
                            ("costs", costs)):
            if set(table) != nodes:
                raise DomainError(f"{name} must cover the same nodes as outputs")
        if any(v < 0 for v in outputs.values()):
            raise DomainError("outputs must be >= 0")
        if failures < 0 or failures > len(nodes):
            raise DomainError("failures must lie in [0, node count]")
        return tuple.__new__(cls, (outputs, consensus_scores, performance_scores, failures,
                                   costs, total_resources))


class SequencerMetrics(NamedTuple):
    throughput: float
    latency: float
    fault_tolerance: float
    efficiency: float


class PaymentMetrics(NamedTuple):
    total_transactions: float
    validation_efficiency: float | None
    error_rate: float | None
    revenue_growth: float | None
    total_penalties: float


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


class _PaymentNodeFields(NamedTuple):
    fee: float
    validation_cost_coeff: float
    capacity: float
    penalty_coeff: float
    error_cost_coeff: float
    error_rate: float
    deadline: float
    validation_time: float
    validation_cost_cap: float | None


class PaymentNodeParams(CheckedRecord, _PaymentNodeFields):
    """Economics of one payment-validation node.

    ``validation_cost_coeff`` shapes the quadratic validation cost
    v * T^2 / 2; ``error_rate`` is expected errors per transaction;
    the deadline penalty applies when realized validation time exceeds
    the deadline. ``validation_cost_cap`` of None means uncapped.
    """

    __slots__ = ()

    def __new__(cls, fee, validation_cost_coeff, capacity, penalty_coeff=0.0,
                error_cost_coeff=0.0, error_rate=0.0, deadline=math.inf,
                validation_time=0.0, validation_cost_cap=None):
        for name, v in (("fee", fee),
                        ("validation_cost_coeff", validation_cost_coeff),
                        ("capacity", capacity),
                        ("penalty_coeff", penalty_coeff),
                        ("error_cost_coeff", error_cost_coeff),
                        ("validation_time", validation_time)):
            if not math.isfinite(v) and not (name == "capacity" and v == math.inf):
                raise DomainError(f"payment params: {name} must be finite")
            if v < 0:
                raise DomainError(f"payment params: {name} must be >= 0")
        if not 0.0 <= error_rate <= 1.0:
            raise DomainError("payment params: error_rate must lie in [0, 1]")
        if not deadline >= 0:  # NaN fails too
            raise DomainError("payment params: deadline must be >= 0")
        if validation_cost_cap is not None and not validation_cost_cap >= 0:
            raise DomainError("payment params: validation_cost_cap must be >= 0")
        return tuple.__new__(cls, (fee, validation_cost_coeff, capacity, penalty_coeff,
                                   error_cost_coeff, error_rate, deadline, validation_time,
                                   validation_cost_cap))

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


class _PaymentLogFields(NamedTuple):
    transactions: dict[str, float]
    validation_costs: dict[str, float]
    errors: dict[str, float]
    penalties: dict[str, float]
    profit: float


class PaymentWindowLog(CheckedRecord, _PaymentLogFields):
    """Per-node payment observations for one window."""

    __slots__ = ()

    def __new__(cls, transactions, validation_costs, errors, penalties, profit):
        nodes = set(transactions)
        if not nodes:
            raise DomainError("payment log needs at least one node")
        for name, table in (("validation_costs", validation_costs),
                            ("errors", errors),
                            ("penalties", penalties)):
            if set(table) != nodes:
                raise DomainError(f"{name} must cover the same nodes as transactions")
        return tuple.__new__(cls, (transactions, validation_costs, errors, penalties, profit))


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


def _payment_sections(nodes: Mapping[str, PaymentNodeParams]) -> tuple[dict, dict]:
    """Payment metrics of a run's epoch 0 and of each later epoch, as dicts.

    Each node runs at its utility-maximizing throughput. That reads only its
    static params, so every epoch has the same log, and a later epoch's
    revenue growth compares two equal logs.
    """
    transactions: dict[str, float] = {}
    validation_costs: dict[str, float] = {}
    errors: dict[str, float] = {}
    penalties: dict[str, float] = {}
    profit = 0.0
    for node, params in nodes.items():
        best = optimize_throughput(params)
        transactions[node] = best
        validation_costs[node] = params.validation_cost(best)
        errors[node] = params.expected_errors(best)
        penalties[node] = params.penalty(best)
        profit += payment_utility(params, best)
    log = PaymentWindowLog(transactions=transactions, validation_costs=validation_costs,
                           errors=errors, penalties=penalties, profit=profit)
    first = payment_metrics([log])._asdict()
    return first, dict(first, revenue_growth=payment_metrics([log, log]).revenue_growth)

