import itertools

import pytest

from opsim import DomainError, apply_fallback, assign_windows, on_window_miss


class TestAssign:
    def test_equal_reputation_tiles_in_id_order(self):
        schedule = assign_windows({"a": 0.5, "b": 0.5, "c": 0.5}, 30, 10)
        spans = [(w.start_tick, w.end_tick, w.operator_id) for w in schedule.windows]
        assert spans == [(0, 10, "a"), (10, 20, "b"), (20, 30, "c")]

    def test_high_reputation_gets_first_and_cycles(self):
        schedule = assign_windows({"low": 0.5, "high": 0.9}, 40, 10)
        owners = [w.operator_id for w in schedule.windows]
        assert owners == ["high", "low", "high", "low"]
        assert [w.window_index for w in schedule.windows] == [0, 1, 2, 3]

    def test_residual_stays_unassigned(self):
        schedule = assign_windows({"solo": 0.7}, 25, 10)
        assert len(schedule.windows) == 2
        assert schedule.windows[-1].end_tick == 20

    def test_reputation_tie_breaks_by_id(self):
        schedule = assign_windows({"b": 0.8, "a": 0.8}, 20, 10)
        assert [w.operator_id for w in schedule.windows] == ["a", "b"]

    def test_validation(self):
        with pytest.raises(DomainError):
            assign_windows({}, 10, 5)
        with pytest.raises(DomainError):
            assign_windows({"a": 0.5}, 10, 0)
        with pytest.raises(DomainError):
            assign_windows({"a": 0.5}, 4, 5)
        with pytest.raises(DomainError):
            assign_windows({"a": 0.5}, 20, 10, grace_length=6)


class TestFallback:
    def test_highest_other_takes_over(self):
        reps = {"a": 0.9, "b": 0.7, "c": 0.6}
        schedule = assign_windows(reps, 30, 10)
        missed = schedule.windows[0]  # operator a
        fallback = on_window_miss(schedule, missed, reps)
        assert fallback.operator_id == "b"
        assert fallback.start_tick == missed.end_tick
        assert fallback.end_tick == missed.end_tick + schedule.grace_length
        assert fallback.is_fallback
        assert fallback.covers_window == missed.window_index

    def test_tie_between_takers_goes_to_lower_id(self):
        reps = {"a": 0.9, "b": 0.7, "c": 0.7}
        schedule = assign_windows(reps, 30, 10)
        fallback = on_window_miss(schedule, schedule.windows[0], reps)
        assert fallback.operator_id == "b"

    def test_single_operator_miss_unrecoverable(self):
        reps = {"solo": 0.5}
        schedule = assign_windows(reps, 20, 10)
        assert on_window_miss(schedule, schedule.windows[0], reps) is None

    def test_foreign_window_rejected(self):
        reps = {"a": 0.5, "b": 0.4}
        schedule = assign_windows(reps, 20, 10)
        other = assign_windows(reps, 40, 20).windows[0]
        with pytest.raises(DomainError):
            on_window_miss(schedule, other, reps)

    def test_apply_fallback_trims_next_window(self):
        reps = {"a": 0.9, "b": 0.5}
        schedule = assign_windows(reps, 40, 10)
        fallback = on_window_miss(schedule, schedule.windows[0], reps)
        updated = apply_fallback(schedule, fallback)
        assert updated.windows[1].start_tick == fallback.end_tick
        combined = list(updated.windows) + [fallback]
        for w1, w2 in itertools.combinations(combined, 2):
            assert not w1.overlaps(w2)


class TestProperties:
    def test_exhaustive_disjointness_and_coverage(self):
        # All rosters up to 5 operators, horizons up to 10 windows, every miss.
        for op_count in range(1, 6):
            reps = {f"op{i}": 1.0 - 0.1 * i for i in range(op_count)}
            for window_count in range(1, 11):
                schedule = assign_windows(reps, window_count * 6, 6)
                for w1, w2 in itertools.combinations(schedule.windows, 2):
                    assert not w1.overlaps(w2)
                for missed in schedule.windows:
                    fallback = on_window_miss(schedule, missed, reps)
                    if op_count == 1:
                        assert fallback is None
                        continue
                    eligible = {op: r for op, r in reps.items()
                                if op != missed.operator_id}
                    expected = min(eligible, key=lambda op: (-eligible[op], op))
                    assert fallback.operator_id == expected
                    assert fallback.covers_window == missed.window_index
                    updated = apply_fallback(schedule, fallback)
                    combined = list(updated.windows) + [fallback]
                    for w1, w2 in itertools.combinations(combined, 2):
                        assert not w1.overlaps(w2)

    def test_fairness_under_equal_reputation(self):
        reps = {f"op{i}": 0.5 for i in range(4)}
        cycles = 3
        schedule = assign_windows(reps, 4 * cycles * 5, 5)
        counts = {}
        for w in schedule.windows:
            counts[w.operator_id] = counts.get(w.operator_id, 0) + 1
        assert all(count == cycles for count in counts.values())

    def test_determinism(self):
        reps = {"x": 0.3, "y": 0.9, "z": 0.6}
        first = assign_windows(reps, 60, 10)
        second = assign_windows(dict(reversed(list(reps.items()))), 60, 10)
        assert first == second
