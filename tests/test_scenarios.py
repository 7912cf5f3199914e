import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from opsim import (ConstraintViolationError, DomainError, PaymentNodeParams,
                   PaymentWindowLog, SequencerRunLog, failure_probability, load_config,
                   optimize_throughput, payment_metrics, payment_utility,
                   StabilityVerdict, sequencer_metrics)
from bench_inputs import WORKLOADS
from oracles import scan_throughput, stability_report

ROOT = Path(__file__).resolve().parent.parent


def make_log(outputs, cs, ss, failures=0, costs=None, resources=10.0):
    nodes = list(outputs)
    costs = costs or {n: 0.0 for n in nodes}
    return SequencerRunLog(outputs=outputs, consensus_scores=cs,
                           performance_scores=ss, failures=failures,
                           costs=costs, total_resources=resources)


class TestSequencerMetrics:
    def test_single_node_latency(self):
        log = make_log({"n": 10.0}, {"n": 1.0}, {"n": 1.0})
        metrics = sequencer_metrics(log)
        assert metrics.latency == pytest.approx(0.5)

    def test_throughput_divides_output_by_latency(self):
        # One node with combined score 0.5 gives latency 2.
        log = make_log({"n": 100.0}, {"n": 0.25}, {"n": 0.25})
        metrics = sequencer_metrics(log)
        assert metrics.latency == pytest.approx(2.0)
        assert metrics.throughput == pytest.approx(50.0)

    def test_fault_tolerance_fraction(self):
        nodes = {f"n{i}": 1.0 for i in range(10)}
        ones = {n: 1.0 for n in nodes}
        log = make_log(dict(nodes), dict(ones), dict(ones), failures=1)
        assert sequencer_metrics(log).fault_tolerance == pytest.approx(0.9)
        log2 = make_log(dict(nodes), dict(ones), dict(ones), failures=0)
        assert sequencer_metrics(log2).fault_tolerance == pytest.approx(1.0)

    def test_efficiency_formula(self):
        log = make_log({"a": 6.0, "b": 4.0}, {"a": 1.0, "b": 1.0},
                       {"a": 1.0, "b": 1.0}, costs={"a": 1.0, "b": 2.0},
                       resources=14.0)
        assert sequencer_metrics(log).efficiency == pytest.approx(0.5)

    def test_zero_scores_rejected(self):
        log = make_log({"n": 1.0}, {"n": 0.0}, {"n": 0.0})
        with pytest.raises(DomainError):
            sequencer_metrics(log)

    def test_zero_resources_rejected(self):
        log = make_log({"n": 1.0}, {"n": 1.0}, {"n": 1.0}, resources=0.0)
        with pytest.raises(DomainError):
            sequencer_metrics(log)

    def test_failures_bounded_by_node_count(self):
        with pytest.raises(DomainError):
            make_log({"n": 1.0}, {"n": 1.0}, {"n": 1.0}, failures=2)

    @given(seed=st.integers(0, 10_000))
    def test_directional_claims(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(2, 5))]
        outputs = {n: rng.uniform(1, 20) for n in nodes}
        cs = {n: rng.uniform(0.2, 3) for n in nodes}
        ss = {n: rng.uniform(0.2, 3) for n in nodes}
        costs = {n: rng.uniform(0, 2) for n in nodes}
        failures = rng.randint(0, len(nodes) - 1)
        base = sequencer_metrics(make_log(dict(outputs), dict(cs), dict(ss),
                                          failures, dict(costs)))
        bump = rng.choice(nodes)

        more_output = dict(outputs)
        more_output[bump] += 1.0
        assert sequencer_metrics(make_log(more_output, dict(cs), dict(ss),
                                          failures, dict(costs))).throughput \
            > base.throughput

        sharper = dict(cs)
        sharper[bump] += 1.0
        assert sequencer_metrics(make_log(dict(outputs), sharper, dict(ss),
                                          failures, dict(costs))).latency \
            < base.latency

        worse = sequencer_metrics(make_log(dict(outputs), dict(cs), dict(ss),
                                           failures + 1, dict(costs)))
        assert worse.fault_tolerance < base.fault_tolerance

        cheaper = dict(costs)
        cheaper[bump] = max(0.0, cheaper[bump] - 0.5)
        better = sequencer_metrics(make_log(dict(outputs), dict(cs), dict(ss),
                                            failures, cheaper))
        if cheaper[bump] < costs[bump]:
            assert better.efficiency > base.efficiency


class TestFailureModel:
    def test_inverse_in_trust(self):
        assert failure_probability(0.5, kappa=0.05) == pytest.approx(0.1)
        assert failure_probability(1.0, kappa=0.05) == pytest.approx(0.05)

    def test_clamped_to_one(self):
        assert failure_probability(0.01, kappa=0.05) == 1.0

    def test_zero_trust_always_fails(self):
        assert failure_probability(0.0) == 1.0

    def test_zero_kappa_never_fails(self):
        assert failure_probability(0.5, kappa=0.0) == 0.0
        assert failure_probability(0.0, kappa=0.0) == 0.0

    @given(t1=st.floats(0.05, 1.0), dt=st.floats(0.01, 0.5))
    def test_monotone_decreasing_in_trust(self, t1, dt):
        assert failure_probability(t1 + dt) <= failure_probability(t1)


PAY = PaymentNodeParams(fee=1.0, validation_cost_coeff=1e-4, capacity=500.0,
                        penalty_coeff=0.0, error_cost_coeff=2.0, error_rate=0.01)


class TestPaymentUtility:
    def test_zero_transactions_zero_utility(self):
        assert payment_utility(PAY, 0.0) == 0.0

    def test_known_value_without_penalty(self):
        value = payment_utility(PAY, 100.0)
        assert value == pytest.approx(100.0 - 0.5 - 2.0)

    def test_penalty_term(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.0,
                                   capacity=500.0, penalty_coeff=0.1,
                                   deadline=1.0, validation_time=1.2)
        assert params.penalty(100.0) == pytest.approx(2.0)
        assert payment_utility(params, 100.0) == pytest.approx(100.0 - 2.0)

    def test_capacity_violation_rejected(self):
        with pytest.raises(ConstraintViolationError):
            payment_utility(PAY, 501.0)

    def test_negative_transactions_rejected(self):
        with pytest.raises(DomainError):
            payment_utility(PAY, -1.0)

    @given(a=st.floats(0.0, 200.0), gap=st.floats(1.0, 200.0))
    def test_concavity_midpoint(self, a, gap):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.01,
                                   capacity=500.0, error_cost_coeff=1.0,
                                   error_rate=0.02)
        b = a + gap
        mid = payment_utility(params, (a + b) / 2)
        ends = (payment_utility(params, a) + payment_utility(params, b)) / 2
        assert mid > ends


class TestOptimizeThroughput:
    def test_interior_closed_form(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.01,
                                   capacity=500.0, error_cost_coeff=2.0,
                                   error_rate=0.01)
        assert optimize_throughput(params) == pytest.approx(98.0)

    def test_capacity_clamp(self):
        assert optimize_throughput(PAY) == pytest.approx(500.0)

    def test_negative_margin_yields_zero(self):
        params = PaymentNodeParams(fee=0.01, validation_cost_coeff=0.01,
                                   capacity=100.0, error_cost_coeff=2.0,
                                   error_rate=0.01)
        assert optimize_throughput(params) == 0.0

    def test_penalty_shifts_optimum(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.01,
                                   capacity=500.0, penalty_coeff=0.2,
                                   deadline=1.0, validation_time=1.5)
        # slope = 1 - 0.2 * 0.5 = 0.9
        assert optimize_throughput(params) == pytest.approx(90.0)

    def test_validation_cost_cap_tightens_bound(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.01,
                                   capacity=500.0, validation_cost_cap=8.0)
        # v*T^2/2 <= 8 gives T <= 40, below the stationary point 100.
        assert optimize_throughput(params) == pytest.approx(40.0)

    def test_matches_scan_oracle(self):
        rng = random.Random(21)
        for _ in range(100):
            params = PaymentNodeParams(
                fee=rng.uniform(0.1, 2.0),
                validation_cost_coeff=rng.uniform(1e-4, 0.05),
                capacity=float(rng.randint(20, 400)),
                penalty_coeff=rng.uniform(0, 0.5),
                error_cost_coeff=rng.uniform(0, 3),
                error_rate=rng.uniform(0, 0.05),
                deadline=rng.uniform(0.5, 1.5),
                validation_time=rng.uniform(0.5, 1.5))
            best = optimize_throughput(params)
            scanned = scan_throughput(lambda t: payment_utility(params, t),
                                      params.capacity)
            assert abs(best - scanned) <= 1.0
            assert payment_utility(params, best) >= payment_utility(params, scanned) - 1e-9


# Every payment operator of the shipped config and of payment-econ at seeds 0-2.
SHIPPED_OPERATORS = [
    pytest.param(op.payment, id=f"{name}-{op.id}")
    for name, source in [("payment.json", ROOT / "configs" / "payment.json")]
    + [(f"payment-econ-{seed}", WORKLOADS.config_text("payment-econ", seed)) for seed in range(3)]
    for op in load_config(source).operators]


@pytest.mark.parametrize("params", SHIPPED_OPERATORS)
def test_shipped_operators_match_a_dense_scan(params):
    # These operators set what the random draws above never do: validation
    # times derived from stages (validator-2's deadline penalty is active)
    # and a validation cost cap (validator-3's bounds the scan, though not
    # its optimum).
    points = 100_000
    upper = params.capacity
    if params.validation_cost_cap is not None:
        upper = min(upper, math.sqrt(2.0 * params.validation_cost_cap
                                     / params.validation_cost_coeff))
    step = upper / points
    utilities = [payment_utility(params, upper * (j / points)) for j in range(points + 1)]
    best_u = max(utilities)
    best_t = upper * (utilities.index(best_u) / points)
    optimum = optimize_throughput(params)
    assert abs(optimum - best_t) <= step
    assert payment_utility(params, optimum) >= best_u - 1e-9


def window(tx, cost, err, pen, profit):
    nodes = list(tx)
    return PaymentWindowLog(transactions=tx, validation_costs=cost, errors=err,
                            penalties=pen, profit=profit)


class TestPaymentMetrics:
    def test_error_rate(self):
        log = window({"a": 120.0, "b": 80.0}, {"a": 10.0, "b": 10.0},
                     {"a": 1.5, "b": 0.5}, {"a": 0.0, "b": 0.0}, 100.0)
        metrics = payment_metrics([log])
        assert metrics.error_rate == pytest.approx(0.01)
        assert metrics.total_transactions == pytest.approx(200.0)

    def test_validation_efficiency(self):
        log = window({"a": 200.0}, {"a": 50.0}, {"a": 0.0}, {"a": 0.0}, 10.0)
        assert payment_metrics([log]).validation_efficiency == pytest.approx(4.0)

    def test_revenue_growth(self):
        w1 = window({"a": 10.0}, {"a": 1.0}, {"a": 0.0}, {"a": 0.0}, 100.0)
        w2 = window({"a": 10.0}, {"a": 1.0}, {"a": 0.0}, {"a": 0.0}, 110.0)
        assert payment_metrics([w1, w2]).revenue_growth == pytest.approx(0.1)

    def test_growth_absent_for_single_window(self):
        w1 = window({"a": 10.0}, {"a": 1.0}, {"a": 0.0}, {"a": 0.0}, 100.0)
        assert payment_metrics([w1]).revenue_growth is None

    def test_growth_absent_for_zero_previous_profit(self):
        w1 = window({"a": 10.0}, {"a": 1.0}, {"a": 0.0}, {"a": 0.0}, 0.0)
        w2 = window({"a": 10.0}, {"a": 1.0}, {"a": 0.0}, {"a": 0.0}, 5.0)
        assert payment_metrics([w1, w2]).revenue_growth is None

    def test_error_rate_absent_without_transactions(self):
        w1 = window({"a": 0.0}, {"a": 0.0}, {"a": 0.0}, {"a": 0.0}, 0.0)
        metrics = payment_metrics([w1])
        assert metrics.error_rate is None
        assert metrics.validation_efficiency is None

    def test_penalties_summed(self):
        w1 = window({"a": 1.0}, {"a": 1.0}, {"a": 0.0}, {"a": 2.5}, 1.0)
        w2 = window({"a": 1.0}, {"a": 1.0}, {"a": 0.0}, {"a": 1.5}, 1.0)
        assert payment_metrics([w1, w2]).total_penalties == pytest.approx(4.0)

    @given(seed=st.integers(0, 5_000))
    def test_directional_claims(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(1, 4))]
        tx = {n: rng.uniform(1, 50) for n in nodes}
        cost = {n: rng.uniform(0.5, 5) for n in nodes}
        err = {n: rng.uniform(0, 0.4) for n in nodes}
        pen = {n: 0.0 for n in nodes}
        base = payment_metrics([window(dict(tx), dict(cost), dict(err),
                                       dict(pen), 10.0)])
        bump = rng.choice(nodes)
        more_tx = dict(tx)
        more_tx[bump] += 5.0
        grown = payment_metrics([window(more_tx, dict(cost), dict(err),
                                        dict(pen), 10.0)])
        assert grown.total_transactions > base.total_transactions

        fewer_err = dict(err)
        fewer_err[bump] = 0.0
        cleaner = payment_metrics([window(dict(tx), dict(cost), fewer_err,
                                          dict(pen), 10.0)])
        if err[bump] > 0:
            assert cleaner.error_rate < base.error_rate

        profits = (rng.uniform(1, 100), rng.uniform(1, 100))
        w1 = window(dict(tx), dict(cost), dict(err), dict(pen), profits[0])
        w2 = window(dict(tx), dict(cost), dict(err), dict(pen), profits[1])
        growth = payment_metrics([w1, w2]).revenue_growth
        assert (growth > 0) == (profits[1] > profits[0]) or profits[0] == profits[1]


def payment_hessian(params, transactions, fee_variable=True, step=1.0):
    """Hessian of ``payment_utility`` in (transactions, fee) by central differences.

    Without a deadline penalty the utility is quadratic in the transaction
    count and bilinear in (transactions, fee), so the differences are exact
    up to rounding at any step; ``fee_variable=False`` keeps the 1x1 block.
    """
    def utility(dt, df):
        shifted = params._replace(fee=params.fee + df * step)
        return payment_utility(shifted, transactions + dt * step)

    h2 = step * step
    d_tt = (utility(1, 0) - 2.0 * utility(0, 0) + utility(-1, 0)) / h2
    if not fee_variable:
        return [[d_tt]]
    d_tf = (utility(1, 1) - utility(1, -1) - utility(-1, 1) + utility(-1, -1)) / (4.0 * h2)
    d_ff = (utility(0, 1) - 2.0 * utility(0, 0) + utility(0, -1)) / h2
    return [[d_tt, d_tf], [d_tf, d_ff]]


class TestPaymentConvergence:
    """The stability half of the payment node's convergence analysis.

    The node's utility has the Hessian [[-v, 1], [1, 0]] in (transactions,
    fee), or [[-v]] at a fixed fee, read here from ``payment_utility`` itself
    and classified as ``hessian_stability`` classifies.
    """

    def test_hessian_eigenvalues_with_fee_variable(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.01, capacity=10.0)
        report = stability_report(payment_hessian(params, 1.0))
        low, high = report.eigen_extremes
        # roots of l^2 + v*l - 1 = 0 with v = 0.01
        assert low == pytest.approx((-0.01 - math.sqrt(0.01 ** 2 + 4)) / 2, abs=1e-12)
        assert high == pytest.approx((-0.01 + math.sqrt(0.01 ** 2 + 4)) / 2, abs=1e-12)
        assert report.verdict is StabilityVerdict.INDEFINITE

    def test_fixed_fee_tiny_cost_is_exact(self):
        # At a zero fee the utility is -v T^2 / 2, whose second difference
        # at T = 1 is exactly -v even for v = 1e-300.
        params = PaymentNodeParams(fee=0.0, validation_cost_coeff=1e-300, capacity=10.0)
        report = stability_report(payment_hessian(params, 1.0, fee_variable=False))
        assert report.eigen_extremes == (-1e-300, -1e-300)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, v):
        with pytest.raises(DomainError):
            PaymentNodeParams(fee=1.0, validation_cost_coeff=v, capacity=10.0)

    def test_fixed_fee_zero_cost_is_boundary(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.0, capacity=10.0)
        report = stability_report(payment_hessian(params, 1.0, fee_variable=False))
        assert report.verdict is StabilityVerdict.BOUNDARY

    def test_fixed_fee_positive_cost_is_concave_stable(self):
        params = PaymentNodeParams(fee=1.0, validation_cost_coeff=0.05, capacity=10.0)
        report = stability_report(payment_hessian(params, 1.0, fee_variable=False))
        assert report.eigen_extremes == pytest.approx((-0.05, -0.05), abs=1e-12)
        assert report.verdict is StabilityVerdict.CONCAVE_STABLE
