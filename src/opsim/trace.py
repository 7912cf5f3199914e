"""The protocol event trace of consensus heights.

An ``EventTrace`` collects ``TraceEvent``s in order, and reads them back as
events, faults, decisions or text lines; a ``TraceDigest`` hashes those and
the submission lines into the run's trace digest. A height that
``run_height`` replays (see there) joins a trace as a pending replay of a
``KeptHeight``, the simulated height it repeats under a new height and batch
digest, on the kept height's roster or on one of equal shape. Its text is
the kept height's template with two ``str.replace`` calls, one for the mark
of the height and one for that of the batch digest, and its faults are the
kept faults relabelled, so a trace whose events are never read never builds
them.
"""

from __future__ import annotations

import math
import sys
from itertools import count
from typing import TYPE_CHECKING, NamedTuple

from .errors import CheckedRecord, DomainError

if TYPE_CHECKING:
    from .consensus import Roster, RoundOutcome

# SHA-256 from CPython's built-in module, picked by version so no import searches in vain:
# ``hashlib`` loads OpenSSL, about 4 MB of RSS and 4 ms of import. The digest is the same.
if sys.version_info >= (3, 12):
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256
else:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class _TraceFields(NamedTuple):
    tick: int
    kind: str
    height: int
    round: int
    sender: str
    digest: str | None


class TraceEvent(CheckedRecord, _TraceFields):
    """One protocol event; a sent message is its own event.

    Message kinds are ``"proposal"``, ``"prevote"`` and ``"precommit"``; a
    ``digest`` of None marks a nil vote.
    """

    __slots__ = ()

    def __new__(cls, tick, kind, height, round, sender, digest):
        if height < 0 or round < 0:
            raise DomainError("height and round must be >= 0")
        if kind == "proposal" and digest is None:
            raise DomainError("proposals must carry a digest")
        return tuple.__new__(cls, (tick, kind, height, round, sender, digest))


class EventTrace:
    """Accumulates protocol events; faults and commit decisions are events too.

    A fault is a ``fault:<kind>`` event whose sender is the faulty validator,
    once per height, but an invalid proposer's at each of its proposals. A
    decision is a ``commit`` event. A pending replay is built into events,
    in its place, when ``events`` is read (``decisions`` and ``to_lines``
    read it) or when ``record`` adds an event after it; ``text`` and
    ``faults`` leave it pending.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        # (kept height, batch digest, height) per pending replay, in order,
        # as KeptHeight.replay appends them; all come after every event in _events.
        self._replayed: list[tuple[KeptHeight, str, int]] = []

    def record(self, tick: int, kind: str, height: int, round_: int,
               sender: str, digest: str | None) -> TraceEvent:
        if self._replayed:
            self._build()
        event = TraceEvent(tick, kind, height, round_, sender, digest)
        self._events.append(event)
        return event

    def _build(self) -> list[TraceEvent]:
        for kept, digest, height in self._replayed:
            self._events += kept.relabel(digest, height)
        self._replayed = []
        return self._events

    events = property(_build)

    @property
    def faults(self) -> list[TraceEvent]:
        faults = [e for e in self._events if e.kind.startswith("fault:")]
        for kept, _, height in self._replayed:
            faults += [e._replace(height=height) for e in kept.faults]
        return faults

    @property
    def decisions(self) -> dict[str, str]:
        """Validator id -> decided digest; a validator decides at most once."""
        return {e.sender: e.digest for e in self.events if e.kind == "commit"}

    def to_lines(self) -> list[str]:
        return _lines(self.events)

    def text(self) -> str:
        """The lines joined by newlines: ``"\\n".join(self.to_lines())``.

        A pending replay's lines are its kept height's template with the
        height in place of one mark and the batch digest in place of the
        other (see ``KeptHeight``).
        """
        texts = _lines(self._events)
        for kept, digest, height in self._replayed:
            height_mark, digest_mark = kept.marks
            texts.append(kept.template.replace(height_mark, str(height))
                         .replace(digest_mark, digest))
        return "\n".join(texts)


def _lines(events: list[tuple]) -> list[str]:
    return [f"{tick},{kind},{height},{round_},{sender},{digest or '-'}"
            for tick, kind, height, round_, sender, digest in events]


class TraceDigest:
    """SHA-256 of every text added, joined by newlines; empty text adds nothing."""

    def __init__(self) -> None:
        self.hash, self.separator = sha256(), b""

    def add(self, text: str) -> None:
        if text:
            self.hash.update(self.separator + text.encode())
            self.separator = b"\n"

    def submission(self, tick: int, kind: str, height: int, round_: int, sender: str) -> None:
        """Add the line of a submission event, which carries no digest."""
        self.add(_lines([(tick, kind, height, round_, sender, None)])[0])


class KeptHeight:
    """A simulated height that ``run_height`` replays, with its batch digest and outcome.

    A replay runs on the kept height's roster or on one of equal shape (see
    ``Roster``), which may hold other stakes; ``stakes`` is the kept
    roster's id -> stake dict, the roster's own, not a copy.

    ``replay`` and ``relabel`` give a replay's outcome and events. Every
    digest in ``events`` starts with ``digest``. ``template`` holds their
    lines with a mark in place of each height and another in place of each
    batch digest; ``marks`` is that (height mark, digest mark) pair, the
    two lowest code points that are not digits and occur nowhere else in
    the lines: in no kind, sender, digest suffix or separator. A height
    fills in as digits only, so the two ``str.replace`` calls of a fill are
    exact for any ids. ``faults`` are the fault events, which carry no
    digest.
    """

    __slots__ = ("digest", "events", "outcome", "stakes", "template", "marks", "faults")

    def __init__(self, digest: str, events: list[TraceEvent], outcome: RoundOutcome,
                 stakes: dict[str, float]):
        self.digest, self.events, self.outcome, self.stakes = digest, events, outcome, stakes
        n = len(digest)
        used = set("0123456789,-\n").union(*[
            kind + sender + (d or "")[n:] for _, kind, _, _, sender, d in events])
        free = (c for c in map(chr, count()) if c not in used)
        self.marks = height_mark, digest_mark = next(free), next(free)
        self.template = "\n".join(_lines([
            (tick, kind, height_mark, round_, sender, d and digest_mark + d[n:])
            for tick, kind, _, round_, sender, d in events]))
        self.faults = [e for e in events if e.kind.startswith("fault:")]

    def replay(self, trace: EventTrace, digest: str, height: int, roster: Roster) -> RoundOutcome:
        """Append to ``trace`` a pending replay at ``height`` over batch digest
        ``digest``; return the kept outcome relabelled the same way.

        ``roster`` is the one the replay runs on, the kept height's or one of
        equal shape: the signature takes the exactly rounded sum of its
        signers' stakes there, and its total stake. On the kept height's
        roster those are the kept ones.
        """
        trace._replayed.append((self, digest, height))
        outcome = self.outcome
        if not outcome.committed:
            return outcome
        signature = outcome.signature
        if roster.stakes is self.stakes:
            signature = signature._replace(batch_digest=digest)
        else:
            signature = signature._replace(
                batch_digest=digest, total_stake=roster.total_stake,
                signed_stake=math.fsum(map(roster.stakes.get, signature.signer_set)))
        return outcome._replace(batch_digest=digest, signature=signature)

    def relabel(self, digest: str, height: int) -> list[TraceEvent]:
        """The kept events with ``height``, and ``digest`` in place of the kept one."""
        n, new = len(self.digest), tuple.__new__
        return [new(TraceEvent, (tick, kind, height, round_, sender, d and digest + d[n:]))
                for tick, kind, _, round_, sender, d in self.events]
