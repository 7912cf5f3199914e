"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints one PASS line on success (run with -s to see them inline);
a pytest failure marks the criterion failed.
"""

import itertools
import json
import math
import random
import time

import numpy as np

from opsim import (AggregatedSignature, AllocationVector, EventTrace, NetworkModel,
                   OperatorState, PaymentNodeParams, ScenarioWeights, SequencerRunLog,
                   StabilityVerdict, TaskSpec, ValidatorDescriptor, aggregate_results,
                   assign_windows, failure_probability, hessian_stability, lagrangian_gradient,
                   load_config, on_window_miss, optimize_throughput, payment_metrics,
                   payment_utility, quorum_met, run_height, run_simulation,
                   sequencer_metrics, solve_allocation, stability_report, welfare)
from opsim.consensus import Behavior
from opsim.scenarios import PaymentWindowLog
from oracles import finite_difference_gradient, grid_welfare, scan_throughput, stake_quorum

LOSSLESS = NetworkModel(drop_probability=0.0, latency_jitter=0, rng_seed=1)


def one_task_instance(gains, k, q, cap, weights=(1.0, 1.0)):
    agents = [OperatorState(f"op-{i}", 10.0) for i in range(len(gains))]
    task = TaskSpec(id="t", cost_rate=k, corruption_rate=q, resource_cap=cap,
                    consensus_gain={a.id: g[0] for a, g in zip(agents, gains)},
                    performance_gain={a.id: g[1] for a, g in zip(agents, gains)})
    return agents, [task], ScenarioWeights(*weights)


def test_c01_optimizer_oracle_equivalence():
    rng = random.Random(20_240_101)
    started = time.monotonic()
    worst_gap = 0.0
    for _ in range(100):
        n = rng.randint(1, 3)
        gains = [(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)) for _ in range(n)]
        k = rng.uniform(0.0, 0.5)
        q = rng.uniform(0.0, 0.5)
        cap = rng.uniform(1.0, 5.0)
        agents, tasks, weights = one_task_instance(gains, k, q, cap)
        allocation, report = solve_allocation(agents, tasks, weights)
        assert report.converged, "instance failed to converge within 100000 iterations"
        assert report.iterations <= 100_000
        values = [g[0] + g[1] for g in gains]
        _, oracle = grid_welfare(values, [k + q] * n, cap, step=1e-3)
        achieved = welfare(agents, tasks, weights, allocation)
        worst_gap = max(worst_gap, oracle - achieved)
        assert achieved >= oracle - 1e-3
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: optimizer within 1e-3 of grid oracle on 100/100 "
          f"instances, worst gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_c02_closed_form_kkt_case():
    agents, tasks, weights = one_task_instance([(2.0, 0.0), (1.0, 0.0)],
                                               0.0, 0.0, 3.0)
    allocation, report = solve_allocation(agents, tasks, weights)
    assert report.converged
    err = max(abs(allocation.get("op-0", "t") - 7.0 / 3.0),
              abs(allocation.get("op-1", "t") - 2.0 / 3.0))
    assert err <= 1e-3
    print(f"\nPASS criterion 2: KKT instance within {err:.2e} (L-inf) of (7/3, 2/3)")


def test_c03_gradient_matches_finite_differences():
    rng = random.Random(33)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 3)
        gains = [(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)) for _ in range(n)]
        k = rng.uniform(0.0, 1.0)
        q = rng.uniform(0.0, 0.5)
        cap = rng.uniform(2.0, 6.0)
        lam = rng.uniform(0.0, 1.0)
        agents, tasks, weights = one_task_instance(gains, k, q, cap)
        point = {f"op-{i}": rng.uniform(0.05, cap / n * 0.9) for i in range(n)}

        def relaxed(vals):
            alloc = AllocationVector({(op, "t"): x for op, x in vals.items()})
            return (welfare(agents, tasks, weights, alloc)
                    - lam * (math.fsum(vals.values()) - cap))

        allocation = AllocationVector({(op, "t"): x for op, x in point.items()})
        analytic = lagrangian_gradient(agents, tasks, weights, allocation, {"t": lam})
        numeric = finite_difference_gradient(relaxed, point, h=1e-6)
        for i in range(n):
            a, b = analytic[(f"op-{i}", "t")], numeric[f"op-{i}"]
            rel = abs(a - b) / max(1.0, abs(b))
            worst = max(worst, rel)
            assert rel <= 1e-5
    print(f"\nPASS criterion 3: gradient matches finite differences at 100 points, "
          f"worst relative error {worst:.2e}")


def test_c04_stability_verdicts():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 3)
        gains = [(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)) for _ in range(n)]
        cap = rng.uniform(1.0, 5.0)
        agents, tasks, weights = one_task_instance(gains, 0.1, 0.0, cap)
        allocation = AllocationVector(
            {(f"op-{i}", "t"): rng.uniform(0.0, cap / n) for i in range(n)})
        report = hessian_stability(agents, tasks, weights, allocation)
        assert report.verdict is StabilityVerdict.CONCAVE_STABLE
    saddle = stability_report([[1.0, 2.0], [2.0, 1.0]])
    assert saddle.verdict is StabilityVerdict.INDEFINITE
    assert abs(saddle.eigen_extremes[0] - (-1.0)) <= 1e-9
    assert abs(saddle.eigen_extremes[1] - 3.0) <= 1e-9
    print("\nPASS criterion 4: concave-stable on 100/100 log-gain instances, "
          "indefinite saddle extremes within 1e-9 of (-1, 3)")


def test_c05_consensus_safety():
    behaviors = [b.value for b in Behavior]
    runs = 0
    for n in range(1, 6):
        for combo in itertools.product(behaviors, repeat=n):
            validators = [ValidatorDescriptor(f"v{i}", 10.0, behavior=b)
                          for i, b in enumerate(combo)]
            trace = EventTrace()
            outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=3,
                                 trace=trace)
            digests = set(trace.decisions.values())
            assert len(digests) <= 1, (combo, digests)
            if outcome.committed:
                assert digests == {outcome.batch_digest}
            runs += 1

    rng = random.Random(55_555)
    for _ in range(1000):
        n = rng.randint(4, 7)
        stakes = [rng.uniform(1.0, 20.0) for _ in range(n)]
        total = sum(stakes)
        roles = ["honest"] * n
        byz_stake = 0.0
        for i in sorted(range(n), key=lambda i: stakes[i]):
            if (byz_stake + stakes[i]) * 3 <= total and rng.random() < 0.6:
                roles[i] = rng.choice(["silent", "equivocating", "invalid-proposer"])
                byz_stake += stakes[i]
        validators = [ValidatorDescriptor(f"v{i}", stakes[i], behavior=roles[i])
                      for i in range(n)]
        model = NetworkModel(drop_probability=rng.uniform(0.0, 0.3),
                             latency_jitter=rng.randint(0, 2),
                             rng_seed=rng.randrange(2 ** 32))
        trace = EventTrace()
        run_height(validators, ["tx"], model, max_rounds=4, trace=trace)
        assert len(set(trace.decisions.values())) <= 1
        runs += 1
    print(f"\nPASS criterion 5: zero forks across {runs} runs "
          "(exhaustive <=5 validators x behaviors x 3 rounds + 1000 randomized)")


def test_c06_consensus_liveness():
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(4, 10)
        stakes = [rng.uniform(5.0, 20.0) for _ in range(n)]
        total = sum(stakes)
        roles = ["honest"] * n
        byz_stake = 0.0
        order = sorted(range(n), key=lambda i: stakes[i])
        for i in order:
            if quorum_met(total - byz_stake - stakes[i], total) and rng.random() < 0.5:
                roles[i] = rng.choice(["silent", "equivocating", "invalid-proposer"])
                byz_stake += stakes[i]
        assert quorum_met(total - byz_stake, total)
        validators = [ValidatorDescriptor(f"v{i}", stakes[i], behavior=roles[i])
                      for i in range(n)]
        model = NetworkModel(drop_probability=0.0, latency_jitter=0,
                             rng_seed=rng.randrange(2 ** 32))
        outcome = run_height(validators, ["tx"], model, max_rounds=10)
        assert outcome.committed
        assert outcome.rounds_used <= 10
    print("\nPASS criterion 6: 100/100 honest-supermajority lossless runs "
          "committed within 10 rounds")


def test_c07_quorum_exactness():
    rng = random.Random(77)
    for trial in range(20):
        n = rng.randint(1, 6)
        stakes = [rng.choice([1.0, 2.0, 3.0, 5.0, 8.0, 13.0]) for _ in range(n)]
        total = math.fsum(stakes)
        for mask in range(2 ** n):
            members = [i for i in range(n) if mask & (1 << i)]
            signed = math.fsum(stakes[i] for i in members)
            sig = AggregatedSignature("d", frozenset(f"v{i}" for i in members),
                                      signed, total)
            assert sig.valid == stake_quorum(signed, total)
            assert sig.valid == quorum_met(signed, total)
    print("\nPASS criterion 7: signature validity matches strict >2/3 stake rule "
          "over all signer subsets (20 rosters up to 6 validators)")


def test_c08_scheduler_exhaustive():
    checked = 0
    for op_count in range(1, 6):
        reps = {f"op{i}": round(1.0 - 0.13 * i, 3) for i in range(op_count)}
        for window_count in range(1, 11):
            schedule = assign_windows(reps, window_count * 8, 8)
            for w1, w2 in itertools.combinations(schedule.windows, 2):
                assert not w1.overlaps(w2)
            for missed in schedule.windows:
                fallback = on_window_miss(schedule, missed, reps)
                checked += 1
                if op_count == 1:
                    assert fallback is None
                    continue
                others = {op: r for op, r in reps.items()
                          if op != missed.operator_id}
                expected = min(others, key=lambda op: (-others[op], op))
                assert fallback is not None
                assert fallback.operator_id == expected
                assert fallback.covers_window == missed.window_index
                assert fallback.start_tick == missed.end_tick
    print(f"\nPASS criterion 8: disjointness and single-fallback rules hold over "
          f"{checked} exhaustive miss cases (<=5 operators, <=10 windows)")


def test_c09_aggregation_oracle():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 10)
        values = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        weights = [rng.uniform(0.001, 10.0) for _ in range(n)]
        ours = aggregate_results(values, weights)
        reference = float(np.average(values, weights=weights))
        worst = max(worst, abs(ours - reference))
        assert abs(ours - reference) <= 1e-12
        assert min(values) - 1e-9 <= ours <= max(values) + 1e-9
    print(f"\nPASS criterion 9: weighted mean within 1e-12 of direct computation "
          f"on 1000 draws (worst {worst:.1e}), bounded by extremes")


def _random_sequencer_log(rng):
    nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
    return dict(
        outputs={n: rng.uniform(1.0, 30.0) for n in nodes},
        cs={n: rng.uniform(0.2, 3.0) for n in nodes},
        ss={n: rng.uniform(0.2, 3.0) for n in nodes},
        failures=rng.randint(0, len(nodes) - 1),
        costs={n: rng.uniform(0.1, 2.0) for n in nodes},
    )


def test_c10_metric_monotonicity():
    rng = random.Random(1010)
    pairs = 220

    def metrics_of(d):
        return sequencer_metrics(SequencerRunLog(
            outputs=d["outputs"], consensus_scores=d["cs"],
            performance_scores=d["ss"], failures=d["failures"],
            costs=d["costs"], total_resources=50.0))

    for _ in range(pairs):
        base = _random_sequencer_log(rng)
        node = rng.choice(sorted(base["outputs"]))
        m0 = metrics_of(base)

        up = {**base, "outputs": {**base["outputs"],
                                  node: base["outputs"][node] + rng.uniform(0.5, 5)}}
        assert metrics_of(up).throughput > m0.throughput

        sharper = {**base, "cs": {**base["cs"],
                                  node: base["cs"][node] + rng.uniform(0.5, 2)}}
        assert metrics_of(sharper).latency < m0.latency

        if base["failures"] < len(base["outputs"]):
            worse = {**base, "failures": base["failures"] + 1}
            assert metrics_of(worse).fault_tolerance < m0.fault_tolerance

        cheaper = {**base, "costs": {**base["costs"],
                                     node: base["costs"][node] * 0.5}}
        assert metrics_of(cheaper).efficiency > m0.efficiency

    for _ in range(pairs):
        t = rng.uniform(0.06, 1.0)
        dt = rng.uniform(0.01, 0.5)
        assert failure_probability(t + dt) <= failure_probability(t)

    for _ in range(pairs):
        nodes = [f"n{i}" for i in range(rng.randint(1, 4))]
        tx = {n: rng.uniform(1.0, 40.0) for n in nodes}
        errs = {n: rng.uniform(0.1, 2.0) for n in nodes}
        zeros = {n: 0.0 for n in nodes}
        log = PaymentWindowLog(transactions=tx, validation_costs={n: 1.0 for n in nodes},
                               errors=errs, penalties=zeros, profit=10.0)
        m0 = payment_metrics([log])
        node = rng.choice(nodes)
        more = PaymentWindowLog(
            transactions={**tx, node: tx[node] + rng.uniform(1, 10)},
            validation_costs={n: 1.0 for n in nodes},
            errors=errs, penalties=zeros, profit=10.0)
        assert payment_metrics([more]).total_transactions > m0.total_transactions
        fewer = PaymentWindowLog(
            transactions=tx, validation_costs={n: 1.0 for n in nodes},
            errors={**errs, node: errs[node] * 0.5}, penalties=zeros, profit=10.0)
        assert payment_metrics([fewer]).error_rate < m0.error_rate
    print(f"\nPASS criterion 10: directional metric claims hold over {pairs} "
          "random perturbation pairs per claim")


def test_c11_payment_optimum():
    rng = random.Random(1111)
    for _ in range(200):
        params = PaymentNodeParams(
            fee=rng.uniform(0.1, 2.0),
            validation_cost_coeff=rng.uniform(1e-4, 0.05),
            capacity=float(rng.randint(10, 500)),
            penalty_coeff=rng.uniform(0.0, 1.0),
            error_cost_coeff=rng.uniform(0.0, 3.0),
            error_rate=rng.uniform(0.0, 0.05),
            deadline=1.0,
            validation_time=rng.uniform(0.0, 1.0))  # never past the deadline
        expected = min(max(
            0.0, (params.fee - params.error_cost_coeff * params.error_rate)
            / params.validation_cost_coeff), params.capacity)
        assert abs(optimize_throughput(params) - expected) <= 1e-6

    for _ in range(200):
        params = PaymentNodeParams(
            fee=rng.uniform(0.2, 2.0),
            validation_cost_coeff=rng.uniform(1e-3, 0.05),
            capacity=float(rng.randint(10, 400)),
            penalty_coeff=rng.uniform(0.01, 0.5),
            error_cost_coeff=rng.uniform(0.0, 2.0),
            error_rate=rng.uniform(0.0, 0.05),
            deadline=1.0,
            validation_time=rng.uniform(1.01, 2.0))  # penalty active
        best = optimize_throughput(params)
        scanned = scan_throughput(lambda t: payment_utility(params, t),
                                  params.capacity)
        assert abs(best - scanned) <= 1.0
    print("\nPASS criterion 11: throughput optimum matches clamp((F-ge)/v, 0, C) "
          "within 1e-6 (200 draws) and integer scan within one step with "
          "penalty active (200 draws)")


ACCEPTANCE_CONFIG = json.dumps({
    "scenario": "sequencer",
    "seed": 31,
    "epochs": 3,
    "failure_rate_constant": 0.2,
    "operators": [
        {"id": "op-a", "stake": 100.0, "resources": 15.0},
        {"id": "op-b", "stake": 80.0, "resources": 15.0},
        {"id": "op-c", "stake": 60.0, "resources": 15.0, "behavior": "silent"},
        {"id": "op-d", "stake": 40.0, "resources": 15.0},
    ],
    "tasks": [
        {"id": "batching", "cost_rate": 0.1, "resource_cap": 8.0, "value": 40.0,
         "consensus_gain": 1.5, "performance_gain": 1.0},
    ],
})


def test_c12_end_to_end_determinism(tmp_path):
    config = load_config(ACCEPTANCE_CONFIG)
    docs = []
    for name in ("a.json", "b.json"):
        report = run_simulation(config)
        path = tmp_path / name
        from opsim import write_report
        write_report(report, "json", path)
        docs.append(path.read_bytes())
    assert docs[0] == docs[1]

    flipped = load_config(ACCEPTANCE_CONFIG.replace('"seed": 31', '"seed": 32'))
    other = run_simulation(flipped)
    base_digest = json.loads(docs[0])["trace_digest"]
    assert other.trace_digest != base_digest
    print("\nPASS criterion 12: identical (config, seed) reports byte-identical; "
          "seed flip changes the trace digest")
