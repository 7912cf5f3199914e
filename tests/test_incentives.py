import numpy as np
import pytest
from hypothesis import given, strategies as st

from opsim import (DomainError, EntryKind, EventKind,
                   OperatorState, ReputationParams, SettlementEvent,
                   aggregate_results, feedback_iterate, make_aggregation_report,
                   settle, update_reputation, update_trust)

PARAMS = ReputationParams(smoothing=0.9, initial_trust=0.5, slash_fraction=0.05)


def ops(*stakes):
    return [OperatorState(f"op-{i}", s) for i, s in enumerate(stakes)]


class TestSettle:
    def test_single_miss_slashes_five_percent(self):
        events = [SettlementEvent(EventKind.MISS, "op-0", tick=3)]
        entries, stakes = settle(events, ops(100.0), {}, PARAMS)
        assert stakes["op-0"] == pytest.approx(95.0)
        assert len(entries) == 1
        assert entries[0].kind is EntryKind.SLASH
        assert entries[0].amount == pytest.approx(5.0)

    def test_sequential_misses_compound(self):
        events = [SettlementEvent(EventKind.MISS, "op-0", tick=1),
                  SettlementEvent(EventKind.MISS, "op-0", tick=2)]
        _, stakes = settle(events, ops(100.0), {}, PARAMS)
        assert stakes["op-0"] == pytest.approx(90.25)

    def test_no_events_identity(self):
        entries, stakes = settle([], ops(100.0, 40.0), {}, PARAMS)
        assert entries == []
        assert stakes == {"op-0": 100.0, "op-1": 40.0}

    def test_task_rewards_split_by_performance(self):
        events = [
            SettlementEvent(EventKind.TASK_COMPLETE, "op-0", 9, task_id="t", score=3.0),
            SettlementEvent(EventKind.TASK_COMPLETE, "op-1", 9, task_id="t", score=1.0),
        ]
        entries, stakes = settle(events, ops(10.0, 10.0), {"t": 100.0}, PARAMS)
        assert entries[0].amount == pytest.approx(75.0)
        assert entries[1].amount == pytest.approx(25.0)
        assert stakes["op-0"] == pytest.approx(85.0)

    def test_submit_fee_credited(self):
        events = [SettlementEvent(EventKind.SUBMIT_SUCCESS, "op-0", 2)]
        entries, stakes = settle(events, ops(10.0), {}, PARAMS, submit_fee=2.5)
        assert entries[0].kind is EntryKind.FEE
        assert stakes["op-0"] == pytest.approx(12.5)

    def test_unknown_operator_rejected(self):
        events = [SettlementEvent(EventKind.MISS, "ghost", 0)]
        with pytest.raises(DomainError):
            settle(events, ops(10.0), {}, PARAMS)

    def test_negative_task_value_rejected(self):
        with pytest.raises(DomainError):
            settle([], ops(10.0), {"t": -1.0}, PARAMS)

    def test_zero_score_pool_pays_nothing(self):
        events = [SettlementEvent(EventKind.TASK_COMPLETE, "op-0", 0,
                                  task_id="t", score=0.0)]
        entries, stakes = settle(events, ops(10.0), {"t": 50.0}, PARAMS)
        assert entries == []
        assert stakes["op-0"] == 10.0

    @given(st.lists(st.sampled_from(["miss", "fault", "fee", "reward"]),
                    max_size=30))
    def test_stakes_stay_non_negative_and_ledger_conserves(self, kinds):
        events = []
        for tick, kind in enumerate(kinds):
            if kind == "miss":
                events.append(SettlementEvent(EventKind.MISS, "op-0", tick))
            elif kind == "fault":
                events.append(SettlementEvent(EventKind.CONSENSUS_FAULT, "op-0", tick))
            elif kind == "fee":
                events.append(SettlementEvent(EventKind.SUBMIT_SUCCESS, "op-0", tick))
            else:
                events.append(SettlementEvent(EventKind.TASK_COMPLETE, "op-0", tick,
                                              task_id="t", score=1.0))
        entries, stakes = settle(events, ops(100.0), {"t": 10.0}, PARAMS)
        assert stakes["op-0"] >= 0.0
        credited = sum(e.amount for e in entries
                       if e.kind in (EntryKind.REWARD, EntryKind.FEE))
        slashed = sum(e.amount for e in entries if e.kind is EntryKind.SLASH)
        assert stakes["op-0"] == pytest.approx(100.0 + credited - slashed)


class TestReputation:
    def test_single_positive_outcome(self):
        assert update_trust([1.0], PARAMS, start=0.5) == pytest.approx(0.55)

    def test_no_events_keeps_initial(self):
        assert update_trust([], PARAMS) == PARAMS.initial_trust

    def test_all_success_monotone_to_one(self):
        trust = 0.2
        for _ in range(200):
            new = update_trust([1.0], PARAMS, start=trust)
            assert new >= trust
            assert new <= 1.0
            trust = new
        assert trust == pytest.approx(1.0, abs=1e-6)

    def test_outcome_bounds_enforced(self):
        with pytest.raises(DomainError):
            update_trust([1.5], PARAMS)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(DomainError):
            ReputationParams(smoothing=1.0)
        with pytest.raises(DomainError):
            ReputationParams(smoothing=0.0)

    def test_batch_update(self):
        history = {"a": [1.0, 1.0], "b": [0.0]}
        trusts = update_reputation(history, PARAMS, starts={"a": 0.5, "b": 0.5})
        assert trusts["a"] == pytest.approx(0.9 * 0.55 + 0.1)
        assert trusts["b"] == pytest.approx(0.45)

    @given(outcomes=st.lists(st.floats(0.0, 1.0), max_size=50),
           start=st.floats(0.0, 1.0))
    def test_trust_stays_in_unit_interval(self, outcomes, start):
        assert 0.0 <= update_trust(outcomes, PARAMS, start=start) <= 1.0


class TestAggregation:
    def test_known_weighted_mean(self):
        assert aggregate_results([2.0, 6.0], [1.0, 3.0]) == pytest.approx(5.0)

    def test_uniform_weights_give_mean(self):
        assert aggregate_results([3.0, 9.0], [2.0, 2.0]) == pytest.approx(6.0)

    def test_single_value_identity(self):
        assert aggregate_results([7.3], [0.4]) == pytest.approx(7.3)

    def test_zero_weights_rejected(self):
        with pytest.raises(DomainError):
            aggregate_results([1.0, 2.0], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            aggregate_results([1.0, 2.0], [1.0])

    def test_matches_numpy_average(self):
        import random
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 8)
            values = [rng.uniform(-50, 50) for _ in range(n)]
            weights = [rng.uniform(0.01, 5) for _ in range(n)]
            ours = aggregate_results(values, weights)
            reference = float(np.average(values, weights=weights))
            assert ours == pytest.approx(reference, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(0.01, 10)),
                    min_size=1, max_size=8))
    def test_bounded_by_extremes(self, pairs):
        values = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        result = aggregate_results(values, weights)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9

    @given(pairs=st.lists(st.tuples(st.floats(-100, 100), st.floats(0.01, 10)),
                          min_size=1, max_size=8),
           scale=st.floats(0.1, 10))
    def test_scale_equivariance(self, pairs, scale):
        values = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        base = aggregate_results(values, weights)
        assert aggregate_results([v * scale for v in values], weights) \
            == pytest.approx(base * scale, rel=1e-9, abs=1e-9)
        assert aggregate_results(values, [w * scale for w in weights]) \
            == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_report_builder(self):
        report = make_aggregation_report(5, {"a": 2.0, "b": 6.0},
                                         {"a": 1.0, "b": 3.0})
        assert report.aggregate == pytest.approx(5.0)
        assert report.tick == 5


class TestFeedback:
    def test_weights_follow_trust(self):
        trusts = {"a": 0.9, "b": 0.3}
        weights = feedback_iterate(trusts, {"a": 1.0, "b": 1.0})
        assert weights == {"a": 0.9, "b": 0.3}

    def test_equal_trust_uniform_weights(self):
        trusts = {"a": 0.7, "b": 0.7, "c": 0.7}
        weights = feedback_iterate(trusts, dict(trusts))
        assert len(set(weights.values())) == 1

    def test_halved_trust_halves_weight(self):
        base = feedback_iterate({"a": 0.8, "b": 0.8}, {})
        bent = feedback_iterate({"a": 0.8, "b": 0.4}, {})
        assert bent["b"] / bent["a"] == pytest.approx(0.5)
        assert base["b"] / base["a"] == pytest.approx(1.0)

    def test_pure_no_mutation(self):
        trusts = {"a": 0.9}
        weights = {"a": 0.2}
        new_weights = feedback_iterate(trusts, weights)
        new_weights["a"] = 0.0
        assert trusts == {"a": 0.9}
        assert weights == {"a": 0.2}

    def test_snapshot_must_cover_operators(self):
        with pytest.raises(DomainError):
            feedback_iterate({"a": 0.5}, {"a": 1.0, "b": 1.0})
