import math

import pytest
from hypothesis import given, strategies as st

from opsim import (AllocationVector, DomainError, OperatorState, ScenarioWeights,
                   TaskSpec, evaluate_scores)
from oracles import check_equilibrium, compute_utility


def make_agent(op_id="op-1", stake=100.0):
    return OperatorState(id=op_id, stake=stake)

def make_task(task_id="t1", c=1.0, s=1.0, k=0.0, q=0.0, cap=100.0, agents=("op-1",)):
    return TaskSpec(id=task_id, cost_rate=k, corruption_rate=q, resource_cap=cap,
                    consensus_gain={a: c for a in agents},
                    performance_gain={a: s for a in agents})


class TestTypes:
    def test_operator_invariants(self):
        with pytest.raises(DomainError):
            OperatorState(id="x", stake=-1.0)

    def test_weights_invariants(self):
        with pytest.raises(DomainError):
            ScenarioWeights(0.0, 0.0)
        with pytest.raises(DomainError):
            ScenarioWeights(-1.0, 2.0)
        assert ScenarioWeights(0.0, 1.0).w2 == 1.0

    def test_task_rejects_negative_rates(self):
        with pytest.raises(DomainError):
            TaskSpec(id="t", cost_rate=-0.1)
        with pytest.raises(DomainError):
            TaskSpec(id="t", consensus_gain={"a": -1.0})

    def test_allocation_vector_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            AllocationVector({("a", "t"): -0.5})
        with pytest.raises(DomainError):
            AllocationVector({("a", "t"): math.nan})

    def test_allocation_cap_validation(self):
        task = make_task(cap=1.0)
        alloc = AllocationVector({("op-1", "t1"): 2.0})
        with pytest.raises(DomainError):
            alloc.validate([task])

    def test_missing_gain_entry(self):
        task = make_task(agents=("op-1",))
        stranger = make_agent("op-2")
        with pytest.raises(DomainError):
            evaluate_scores(stranger, task, 1.0)


class TestScores:
    def test_zero_allocation_scores_zero(self):
        agent, task = make_agent(), make_task(c=1.0, s=1.0)
        assert evaluate_scores(agent, task, 0.0) == (0.0, 0.0)

    def test_score_at_e_minus_one(self):
        agent, task = make_agent(), make_task(c=2.0, s=0.0)
        c, s = evaluate_scores(agent, task, math.e - 1.0)
        assert c == pytest.approx(2.0, abs=1e-12)
        assert s == 0.0

    def test_score_at_one(self):
        agent, task = make_agent(), make_task(c=1.0, s=3.0)
        c, s = evaluate_scores(agent, task, 1.0)
        assert c == pytest.approx(math.log(2.0), abs=1e-12)
        assert s == pytest.approx(3.0 * math.log(2.0), abs=1e-12)

    def test_negative_allocation_rejected(self):
        with pytest.raises(DomainError):
            evaluate_scores(make_agent(), make_task(), -0.1)


class TestUtility:
    def test_zero_allocation_utility_zero(self):
        agent, task = make_agent(), make_task(c=1.0, s=1.0, k=0.1)
        assert compute_utility(agent, task, ScenarioWeights(1.0, 1.0), 0.0) == 0.0

    def test_known_value_at_one(self):
        agent, task = make_agent(), make_task(c=1.0, s=1.0, k=0.1)
        value = compute_utility(agent, task, ScenarioWeights(1.0, 1.0), 1.0)
        assert value == pytest.approx(2.0 * math.log(2.0) - 0.1, abs=1e-12)

    def test_known_value_with_corruption_cost(self):
        agent, task = make_agent(), make_task(c=1.0, s=0.0, k=0.0, q=0.5)
        value = compute_utility(agent, task, ScenarioWeights(1.0, 0.0), 2.0)
        assert value == pytest.approx(math.log(3.0) - 1.0, abs=1e-12)

    @given(c=st.floats(0.1, 5.0), s=st.floats(0.1, 5.0),
           k=st.floats(0.0, 2.0), q=st.floats(0.0, 2.0),
           a=st.floats(0.01, 10.0), gap=st.floats(0.01, 10.0))
    def test_strict_concavity_midpoint(self, c, s, k, q, a, gap):
        agent = make_agent()
        task = make_task(c=c, s=s, k=k, q=q)
        weights = ScenarioWeights(1.0, 1.0)
        b = a + gap
        mid = compute_utility(agent, task, weights, (a + b) / 2)
        ends = (compute_utility(agent, task, weights, a)
                + compute_utility(agent, task, weights, b)) / 2
        assert mid > ends

    @given(k1=st.floats(0.0, 2.0), dk=st.floats(0.001, 2.0), x=st.floats(0.1, 10.0))
    def test_monotone_decreasing_in_cost_rate(self, k1, dk, x):
        agent = make_agent()
        weights = ScenarioWeights(1.0, 1.0)
        cheap = compute_utility(agent, make_task(k=k1), weights, x)
        costly = compute_utility(agent, make_task(k=k1 + dk), weights, x)
        assert costly < cheap

    @given(w1=st.floats(0.1, 3.0), w2=st.floats(0.1, 3.0), x=st.floats(0.0, 10.0))
    def test_doubling_weights_doubles_score_part(self, w1, w2, x):
        agent, task = make_agent(), make_task(c=1.3, s=0.7, k=0.2, q=0.1)
        base = compute_utility(agent, task, ScenarioWeights(w1, w2), x)
        doubled = compute_utility(agent, task, ScenarioWeights(2 * w1, 2 * w2), x)
        linear = (task.cost_rate + task.corruption_rate) * x
        assert doubled + linear == pytest.approx(2.0 * (base + linear), rel=1e-9)


class TestEquilibrium:
    def test_single_task_always_equilibrium(self):
        agent = make_agent()
        task = make_task(cap=5.0)
        alloc = AllocationVector({("op-1", "t1"): 2.0})
        result = check_equilibrium([agent], [task], ScenarioWeights(), alloc)
        assert result.is_equilibrium
        assert result.deviations == ()

    def test_cheaper_identical_task_is_improving(self):
        agent = make_agent()
        task_a = make_task("A", c=1.0, s=1.0, k=0.5, cap=5.0)
        task_b = make_task("B", c=1.0, s=1.0, k=0.1, cap=5.0)
        alloc = AllocationVector({("op-1", "A"): 1.0, ("op-1", "B"): 0.0})
        result = check_equilibrium([agent], [task_a, task_b], ScenarioWeights(), alloc)
        assert not result.is_equilibrium
        assert [(d.operator_id, d.task_id) for d in result.deviations] == [("op-1", "B")]
        # the gain equals the cost-rate difference at x = 1
        assert result.deviations[0].utility_gain == pytest.approx(0.4, abs=1e-12)

    def test_identical_tasks_equilibrium_at_zero_tol(self):
        agent = make_agent()
        task_a = make_task("A", cap=5.0)
        task_b = make_task("B", cap=5.0)
        alloc = AllocationVector({("op-1", "A"): 1.0})
        result = check_equilibrium([agent], [task_a, task_b], ScenarioWeights(),
                                   alloc, tol=0.0)
        assert result.is_equilibrium

    def test_full_alternative_blocks_deviation(self):
        agents = [make_agent("op-1"), make_agent("op-2")]
        task_a = make_task("A", k=0.5, cap=5.0, agents=("op-1", "op-2"))
        task_b = make_task("B", k=0.1, cap=1.0, agents=("op-1", "op-2"))
        alloc = AllocationVector({("op-1", "A"): 2.0, ("op-2", "B"): 1.0})
        result = check_equilibrium(agents, [task_a, task_b], ScenarioWeights(), alloc)
        # B is cheaper but its cap has no room for op-1's two units.
        assert all(d.operator_id != "op-1" for d in result.deviations)

    def test_empty_task_set_rejected(self):
        with pytest.raises(DomainError):
            check_equilibrium([make_agent()], [], ScenarioWeights(),
                              AllocationVector())

    @given(seed=st.integers(0, 10_000))
    def test_relabel_invariance(self, seed):
        import random
        rng = random.Random(seed)
        agents = [make_agent(f"op-{i}") for i in range(3)]
        ids = tuple(a.id for a in agents)
        tasks = [
            TaskSpec(id=f"t{j}", cost_rate=rng.uniform(0, 1),
                     resource_cap=rng.uniform(2, 4),
                     consensus_gain={a: rng.uniform(0.2, 2) for a in ids},
                     performance_gain={a: rng.uniform(0.2, 2) for a in ids})
            for j in range(2)
        ]
        alloc = AllocationVector()
        for agent in agents:
            for task in tasks:
                alloc.set(agent.id, task.id, rng.uniform(0, 0.5))
        result = check_equilibrium(agents, tasks, ScenarioWeights(), alloc)

        # Relabel op-i -> ren-i, t-j -> u-j and re-run.
        def op_name(op):
            return op.replace("op-", "ren-")

        def task_name(t):
            return t.replace("t", "u")

        agents2 = [make_agent(op_name(a.id)) for a in agents]
        tasks2 = [
            TaskSpec(id=task_name(t.id), cost_rate=t.cost_rate,
                     resource_cap=t.resource_cap,
                     consensus_gain={op_name(o): g for o, g in t.consensus_gain.items()},
                     performance_gain={op_name(o): g
                                       for o, g in t.performance_gain.items()})
            for t in tasks
        ]
        alloc2 = AllocationVector(
            {(op_name(o), task_name(t)): x for (o, t), x in alloc.items()})
        result2 = check_equilibrium(agents2, tasks2, ScenarioWeights(), alloc2)
        assert result.is_equilibrium == result2.is_equilibrium
        mapped = {(op_name(d.operator_id), task_name(d.task_id))
                  for d in result.deviations}
        assert mapped == {(d.operator_id, d.task_id) for d in result2.deviations}
