import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opsim import (AllocationVector, DomainError, OperatorState, ScenarioWeights,
                   StabilityVerdict, TaskSpec, harness, hessian_stability, load_config,
                   run_simulation, solve_allocation)
from opsim.agents import CAP_SLACK
from bench_inputs import WORKLOADS
from oracles import (check_equilibrium, exhaustive_grid_welfare, finite_difference_gradient,
                     grid_welfare, lagrangian_gradient, projected_gradient_ascent,
                     stability_report, welfare)

ROOT = Path(__file__).resolve().parent.parent


def instance(gains, costs, cap, weights=(1.0, 1.0)):
    """One-task instance with per-agent (c, s) gains and task-level (k, q)."""
    agents = [OperatorState(f"op-{i}", 10.0) for i in range(len(gains))]
    k, q = costs
    task = TaskSpec(id="t", cost_rate=k, corruption_rate=q, resource_cap=cap,
                    consensus_gain={a.id: g[0] for a, g in zip(agents, gains)},
                    performance_gain={a.id: g[1] for a, g in zip(agents, gains)})
    return agents, [task], ScenarioWeights(*weights)


class TestGradient:
    def test_origin_value(self):
        agents, tasks, weights = instance([(1.0, 1.0)], (0.0, 0.0), 10.0)
        grad = lagrangian_gradient(agents, tasks, weights, AllocationVector())
        assert grad[("op-0", "t")] == pytest.approx(2.0)

    def test_interior_optimum_is_stationary(self):
        agents, tasks, weights = instance([(1.0, 1.0)], (0.5, 0.0), 10.0)
        point = AllocationVector({("op-0", "t"): 3.0})
        grad = lagrangian_gradient(agents, tasks, weights, point)
        assert grad[("op-0", "t")] == pytest.approx(0.0, abs=1e-12)

    def test_pure_cost_gradient(self):
        agents, tasks, weights = instance([(0.0, 0.0)], (1.0, 0.0), 10.0)
        for x in (0.0, 1.0, 7.5):
            point = AllocationVector({("op-0", "t"): x})
            grad = lagrangian_gradient(agents, tasks, weights, point)
            assert grad[("op-0", "t")] == pytest.approx(-1.0)

    def test_multiplier_shifts_gradient(self):
        agents, tasks, weights = instance([(1.0, 1.0)], (0.0, 0.0), 10.0)
        grad = lagrangian_gradient(agents, tasks, weights, AllocationVector(), {"t": 0.75})
        assert grad[("op-0", "t")] == pytest.approx(1.25)

    @pytest.mark.parametrize("lam", [-0.1, math.inf, math.nan])
    def test_bad_multiplier_rejected(self, lam):
        agents, tasks, weights = instance([(1.0, 1.0)], (0.0, 0.0), 10.0)
        with pytest.raises(DomainError):
            lagrangian_gradient(agents, tasks, weights, AllocationVector(), {"t": lam})

    def test_matches_finite_differences(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 3)
            gains = [(rng.uniform(0.2, 3), rng.uniform(0.2, 3)) for _ in range(n)]
            costs = (rng.uniform(0, 1), rng.uniform(0, 0.5))
            cap = rng.uniform(2, 6)
            lam = rng.uniform(0, 1)
            agents, tasks, weights = instance(gains, costs, cap)
            point = {f"op-{i}": rng.uniform(0.05, cap / n * 0.9) for i in range(n)}

            def relaxed_objective(vals):
                alloc = AllocationVector({(op, "t"): x for op, x in vals.items()})
                total = math.fsum(vals.values())
                return (welfare(agents, tasks, weights, alloc)
                        - lam * (total - tasks[0].resource_cap))

            allocation = AllocationVector({(op, "t"): x for op, x in point.items()})
            analytic = lagrangian_gradient(agents, tasks, weights, allocation, {"t": lam})
            numeric = finite_difference_gradient(relaxed_objective, point)
            for i in range(n):
                a = analytic[(f"op-{i}", "t")]
                b = numeric[f"op-{i}"]
                assert abs(a - b) <= 1e-5 * max(1.0, abs(b))


class TestSolver:
    def test_interior_closed_form(self):
        agents, tasks, weights = instance([(1.0, 1.0)], (0.5, 0.0), 10.0)
        alloc, report = solve_allocation(agents, tasks, weights)
        assert report.converged
        assert alloc.get("op-0", "t") == pytest.approx(3.0, abs=1e-3)
        assert report.multipliers["t"] == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_agents_split_cap(self):
        agents, tasks, weights = instance([(1.0, 1.0), (1.0, 1.0)], (0.0, 0.0), 2.0)
        alloc, report = solve_allocation(agents, tasks, weights)
        assert report.converged
        assert alloc.get("op-0", "t") == pytest.approx(1.0, abs=1e-3)
        assert alloc.get("op-1", "t") == pytest.approx(1.0, abs=1e-3)

    def test_asymmetric_kkt_point(self):
        agents, tasks, weights = instance([(2.0, 0.0), (1.0, 0.0)], (0.0, 0.0), 3.0)
        alloc, report = solve_allocation(agents, tasks, weights)
        assert report.converged
        assert alloc.get("op-0", "t") == pytest.approx(7.0 / 3.0, abs=1e-3)
        assert alloc.get("op-1", "t") == pytest.approx(2.0 / 3.0, abs=1e-3)
        # At a binding cap the multiplier equals the shared marginal value.
        assert report.multipliers["t"] == pytest.approx(0.6, abs=1e-3)

    def test_feasibility_and_violation_zero(self):
        agents, tasks, weights = instance([(3.0, 3.0), (2.0, 1.0)], (0.0, 0.0), 1.5)
        alloc, report = solve_allocation(agents, tasks, weights)
        assert alloc.task_total("t") <= 1.5 + 1e-6
        assert report.constraint_violation <= 1e-6
        assert all(x >= 0 for _, x in alloc.items())

    def test_multi_task_independent_caps(self):
        agents = [OperatorState("op-0", 1.0)]
        tasks = [
            TaskSpec(id="a", cost_rate=0.5, resource_cap=10.0,
                     consensus_gain={"op-0": 1.0}, performance_gain={"op-0": 1.0}),
            TaskSpec(id="b", cost_rate=0.0, resource_cap=1.0,
                     consensus_gain={"op-0": 1.0}, performance_gain={"op-0": 1.0}),
        ]
        alloc, report = solve_allocation(agents, tasks, ScenarioWeights(1.0, 1.0))
        assert report.converged
        assert alloc.get("op-0", "a") == pytest.approx(3.0, abs=1e-3)
        assert alloc.get("op-0", "b") == pytest.approx(1.0, abs=1e-3)

    def test_matches_grid_oracle_on_random_concave_instances(self):
        rng = random.Random(777)
        for _ in range(25):
            n = rng.randint(1, 3)
            gains = [(rng.uniform(0.5, 3), rng.uniform(0.5, 3)) for _ in range(n)]
            costs = (rng.uniform(0, 1), 0.0)
            cap = rng.uniform(1, 5)
            agents, tasks, weights = instance(gains, costs, cap)
            alloc, report = solve_allocation(agents, tasks, weights)
            assert report.converged
            values = [gains[i][0] + gains[i][1] for i in range(n)]
            _, oracle_welfare = grid_welfare(values, [costs[0]] * n, cap)
            achieved = welfare(agents, tasks, weights, alloc)
            assert achieved >= oracle_welfare - 1e-3

    def test_converged_solution_is_equilibrium_single_task(self):
        agents, tasks, weights = instance([(2.0, 1.0), (1.0, 0.5)], (0.1, 0.0), 4.0)
        alloc, report = solve_allocation(agents, tasks, weights)
        assert report.converged
        assert check_equilibrium(agents, tasks, weights, alloc).is_equilibrium

    def test_agent_permutation_permutes_solution(self):
        gains = [(2.5, 0.3), (0.8, 1.9), (1.2, 1.2)]
        agents, tasks, weights = instance(gains, (0.2, 0.1), 4.0)
        alloc, _ = solve_allocation(agents, tasks, weights)
        # Same instance with agent labels swapped 0 <-> 2.
        swapped = [gains[2], gains[1], gains[0]]
        agents2, tasks2, _ = instance(swapped, (0.2, 0.1), 4.0)
        alloc2, _ = solve_allocation(agents2, tasks2, weights)
        assert alloc2.get("op-0", "t") == pytest.approx(alloc.get("op-2", "t"), abs=1e-9)
        assert alloc2.get("op-2", "t") == pytest.approx(alloc.get("op-0", "t"), abs=1e-9)

    def test_projected_gradient_converges_to_the_exact_solve(self):
        # The paper's method, run to its step-norm stop, lands next to the
        # exact KKT point; it stops short by up to ~1e-3.
        rng = random.Random(2024)
        for _ in range(10):
            n = rng.randint(1, 3)
            gains = [(rng.uniform(0.5, 3), rng.uniform(0.5, 3)) for _ in range(n)]
            costs = (rng.uniform(0, 0.5), rng.uniform(0, 0.5))
            agents, tasks, weights = instance(gains, costs, rng.uniform(1, 5))
            exact, _ = solve_allocation(agents, tasks, weights)
            values = [c + s for c, s in gains]
            approx = projected_gradient_ascent(values, sum(costs), tasks[0].resource_cap)
            for i, x in enumerate(approx):
                assert x == pytest.approx(exact.get(f"op-{i}", "t"), abs=2e-3)


class TestGridOracle:
    def test_greedy_matches_exhaustive_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 3)
            values = [rng.uniform(0.3, 6.0) for _ in range(n)]
            costs = [rng.uniform(0.0, 1.0) for _ in range(n)]
            cap = rng.uniform(0.5, 3.0)
            _, greedy = grid_welfare(values, costs, cap, step=0.05)
            exhaustive = exhaustive_grid_welfare(values, costs, cap, step=0.05)
            assert greedy == pytest.approx(exhaustive, abs=1e-12)


class TestStability:
    def test_negative_diagonal_is_concave_stable(self):
        report = stability_report(np.diag([-2.0, -1.0]))
        assert report.verdict is StabilityVerdict.CONCAVE_STABLE
        assert report.eigen_extremes == pytest.approx((-2.0, -1.0))

    def test_zero_matrix_is_boundary(self):
        report = stability_report(np.zeros((2, 2)))
        assert report.verdict is StabilityVerdict.BOUNDARY

    def test_saddle_matrix_is_indefinite(self):
        report = stability_report([[1.0, 2.0], [2.0, 1.0]])
        assert report.verdict is StabilityVerdict.INDEFINITE
        assert report.eigen_extremes[0] == pytest.approx(-1.0, abs=1e-9)
        assert report.eigen_extremes[1] == pytest.approx(3.0, abs=1e-9)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(DomainError):
            stability_report([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            stability_report([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_hessian_of_positive_gain_instance(self):
        agents, tasks, weights = instance([(1.0, 2.0), (0.5, 0.5)], (0.0, 0.0), 2.0)
        alloc = AllocationVector({("op-0", "t"): 1.0, ("op-1", "t"): 0.5})
        report = hessian_stability(agents, tasks, weights, alloc)
        assert report.verdict is StabilityVerdict.CONCAVE_STABLE
        # diagonal entries -(w1*c + w2*s) / (1+x)^2 are -3/4 and -1/2.25
        assert report.eigen_extremes == pytest.approx((-3.0 / 4.0, -1.0 / 2.25))


# LAPACK rescales a matrix whose largest entry lies outside about
# [1e-146, 1e153], and the rescaling rounds eigvalsh's eigenvalues. The
# closed form is exact everywhere, so the reference draws stay inside.
DIAGONAL_ENTRIES = st.one_of(st.just(-0.0), st.floats(min_value=-1e-8, max_value=-1e-100),
                             st.floats(min_value=-1e100, max_value=-1e-100))


class TestClosedFormStability:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(DIAGONAL_ENTRIES, min_size=1, max_size=12))
    @example([-0.0, -0.0, -0.0])
    def test_matches_eigvalsh_of_the_dense_diagonal(self, diag):
        # One operator per entry at x = 0 with gains (-d, 0) and weights
        # (1, 0): the Hessian entry -(1*c + 0*s) / (1 + 0)^2 is exactly d.
        agents, tasks, weights = instance([(-d, 0.0) for d in diag], (0.0, 0.0), 1.0,
                                          weights=(1.0, 0.0))
        closed = hessian_stability(agents, tasks, weights, AllocationVector())
        dense = stability_report(np.diag(diag))
        assert repr(closed.eigen_extremes) == repr(dense.eigen_extremes)
        assert closed.verdict is dense.verdict
        if not any(diag):
            assert closed.verdict is StabilityVerdict.BOUNDARY

    def test_empty_roster_rejected(self):
        _, tasks, weights = instance([(1.0, 1.0)], (0.0, 0.0), 1.0)
        with pytest.raises(DomainError):
            hessian_stability([], tasks, weights, AllocationVector())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_instances_stay_feasible(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    gains = [(rng.uniform(0.0, 3), rng.uniform(0.0, 3)) for _ in range(n)]
    costs = (rng.uniform(0, 1), rng.uniform(0, 0.5))
    cap = rng.uniform(0.5, 5)
    agents, tasks, weights = instance(gains, costs, cap)
    alloc, report = solve_allocation(agents, tasks, weights)
    assert all(x >= 0 for _, x in alloc.items())
    assert alloc.task_total("t") <= cap + 1e-6


@st.composite
def kkt_instances(draw):
    """Multi-operator, multi-task instances with zero gains, costs and caps.

    Nonzero gains and weights stay >= 1e-3, so weighted gains are never
    subnormal; the solver documents that subnormal gains lose precision.
    """
    ids = [f"op-{i}" for i in range(draw(st.integers(1, 4)))]
    gain = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False))
    cap = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False))
    tasks = [TaskSpec(id=f"t{j}", cost_rate=draw(rate), corruption_rate=draw(rate),
                      resource_cap=draw(cap),
                      consensus_gain={i: draw(gain) for i in ids},
                      performance_gain={i: draw(gain) for i in ids})
             for j in range(draw(st.integers(1, 3)))]
    weights = ScenarioWeights(draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0))),
                              draw(st.floats(1e-3, 2.0)))
    return [OperatorState(i, 10.0) for i in ids], tasks, weights


@settings(max_examples=300, deadline=None)
@given(kkt_instances())
@example(instance([(1.0, 1.0)], (0.0, 0.0), 0.0))
@example(instance([(2.0, 0.0), (1.0, 0.5), (0.0, 0.0)], (0.1, 0.2), 0.0))
@example(instance([(2.0, 0.0), (1.0, 0.0)], (0.0, 0.0), 3.0))
@example(instance([(0.0, 0.0), (0.0, 0.0)], (0.0, 0.0), 5.0))
@example(instance([(0.0, 1.0), (0.0, 2.0)], (0.0, 0.0), 2.6e-111))
def test_solution_satisfies_kkt(problem):
    agents, tasks, weights = problem
    alloc, report = solve_allocation(agents, tasks, weights)
    assert_kkt(agents, tasks, weights, alloc, report)


def assert_kkt(agents, tasks, weights, alloc, report):
    """Assert that ``alloc`` and ``report.multipliers`` meet the KKT conditions.

    Per task: the multiplier is finite and >= 0, the cap holds, the
    Lagrangian gradient is zero on every allocated entry and <= 0 on every
    idle one (stationarity), and a positive multiplier means a binding cap
    (complementary slackness). A zero cap allocates nothing, and its
    multiplier is the largest net gain, or 0.
    """
    grad = lagrangian_gradient(agents, tasks, weights, alloc, report.multipliers)
    for task in tasks:
        lam = report.multipliers[task.id]
        assert math.isfinite(lam) and lam >= 0
        total = alloc.task_total(task.id)
        assert total <= task.resource_cap + CAP_SLACK
        gains = [weights.w1 * c + weights.w2 * s
                 for c, s in map(task.gains_for, (a.id for a in agents))]
        tol = 1e-9 * max(1.0, *gains)
        for agent in agents:
            g = grad[(agent.id, task.id)]
            if alloc.get(agent.id, task.id) > 0:
                assert abs(g) <= tol
            else:
                assert g <= tol
        if lam > 0:
            assert total == pytest.approx(task.resource_cap, abs=CAP_SLACK)
        if task.resource_cap == 0:
            assert all(alloc.get(a.id, task.id) == 0 for a in agents)
            cost = task.cost_rate + task.corruption_rate
            assert lam == pytest.approx(max(0.0, max(gains) - cost))


RUNS = ([pytest.param(ROOT / "configs" / name, id=name)
         for name in ("sequencer.json", "payment.json")]
        + [pytest.param(WORKLOADS.config_text(workload, seed), id=f"{workload}-{seed}")
           for workload in WORKLOADS.WORKLOADS for seed in range(3)])


@pytest.mark.parametrize("source", RUNS)
def test_every_epoch_of_a_run_is_an_equilibrium(source, monkeypatch):
    # The paper's claim, checked on the allocations runs actually make:
    # each epoch's solve, on its trust-scaled gains, leaves no operator a
    # better task and meets the KKT conditions.
    solves = []

    def recording_solve(agents, tasks, weights):
        allocation, report = solve_allocation(agents, tasks, weights)
        solves.append((agents, tasks, weights, allocation, report))
        return allocation, report

    monkeypatch.setattr(harness, "solve_allocation", recording_solve)
    config = load_config(source)
    run_simulation(config)
    assert len(solves) == config.epochs
    for agents, tasks, weights, allocation, report in solves:
        assert check_equilibrium(agents, tasks, weights, allocation).is_equilibrium
        assert_kkt(agents, tasks, weights, allocation, report)
