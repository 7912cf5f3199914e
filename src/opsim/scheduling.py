"""Submission window assignment and fallback takeover.

Windows tile the horizon in fixed-length slots handed out round-robin over
operators ranked by reputation (ties broken by id). A missed window yields
at most one fallback window of grace length starting where the missed one
ended, assigned to the best-reputation operator other than the misser; the
grace region is carved out of the following slot, which gets trimmed when
the fallback is applied, keeping all windows pairwise disjoint.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import CheckedRecord, DomainError


class _WindowFields(NamedTuple):
    operator_id: str
    start_tick: int
    end_tick: int
    window_index: int
    is_fallback: bool
    covers_window: int | None


class SubmissionWindow(CheckedRecord, _WindowFields):
    __slots__ = ()

    def __new__(cls, operator_id, start_tick, end_tick, window_index,
                is_fallback=False, covers_window=None):
        if start_tick >= end_tick:
            raise DomainError(f"window {window_index}: start_tick must precede end_tick")
        return tuple.__new__(cls, (operator_id, start_tick, end_tick, window_index,
                                   is_fallback, covers_window))

    def overlaps(self, other: "SubmissionWindow") -> bool:
        return self.start_tick < other.end_tick and other.start_tick < self.end_tick


class Schedule(NamedTuple):
    horizon_ticks: int
    window_length: int
    windows: tuple[SubmissionWindow, ...]
    grace_length: int


def _ranked(reputations: Mapping[str, float]) -> list[str]:
    return sorted(reputations, key=lambda op: (-reputations[op], op))


def assign_windows(reputations: Mapping[str, float], horizon: int,
                   window_length: int, grace_length: int | None = None) -> Schedule:
    """Tile [0, horizon) with windows cycled over reputation-ranked operators.

    ``grace_length`` defaults to half the window length and may not exceed
    it, so a fallback always fits inside the following slot. Any residual
    shorter than a full window stays unassigned.
    """
    if not reputations:
        raise DomainError("assign_windows requires at least one operator")
    if window_length <= 0:
        raise DomainError("window_length must be > 0")
    if horizon < window_length:
        raise DomainError("horizon must fit at least one window")
    if grace_length is None:
        grace_length = window_length // 2
    if grace_length < 0 or grace_length > window_length // 2:
        raise DomainError("grace_length must lie in [0, window_length // 2]")

    order = _ranked(reputations)
    count = horizon // window_length
    windows = tuple(
        SubmissionWindow(operator_id=order[i % len(order)],
                         start_tick=i * window_length,
                         end_tick=(i + 1) * window_length,
                         window_index=i)
        for i in range(count)
    )
    return Schedule(horizon_ticks=horizon, window_length=window_length,
                    windows=windows, grace_length=grace_length)


def on_window_miss(schedule: Schedule, missed: SubmissionWindow,
                   reputations: Mapping[str, float]) -> SubmissionWindow | None:
    """Fallback window for a missed submission, or None when unrecoverable.

    The fallback spans the grace region right after the missed window and
    goes to the highest-reputation operator other than the misser (ties by
    lower id). With a single operator or zero grace there is no eligible
    takeover and the miss is unrecoverable.
    """
    if missed not in schedule.windows:
        raise DomainError("missed window does not belong to the schedule")
    eligible = {op: rep for op, rep in reputations.items() if op != missed.operator_id}
    if not eligible or schedule.grace_length <= 0:
        return None
    taker = _ranked(eligible)[0]
    return SubmissionWindow(
        operator_id=taker,
        start_tick=missed.end_tick,
        end_tick=missed.end_tick + schedule.grace_length,
        window_index=len(schedule.windows) + missed.window_index,
        is_fallback=True,
        covers_window=missed.window_index,
    )


def apply_fallback(schedule: Schedule, fallback: SubmissionWindow) -> Schedule:
    """Trim any slot the fallback's grace region bites into.

    Returns a schedule whose windows stay pairwise disjoint with the
    fallback; since grace_length <= window_length // 2 the trimmed slot
    never collapses.
    """
    if not fallback.is_fallback:
        raise DomainError("apply_fallback expects a fallback window")
    adjusted = []
    for w in schedule.windows:
        if w.overlaps(fallback):
            adjusted.append(w._replace(start_tick=fallback.end_tick))
        else:
            adjusted.append(w)
    return schedule._replace(windows=tuple(adjusted))
