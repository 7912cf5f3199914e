"""Stake-weighted round-based commit simulation over a lossy network.

One height runs over a single batch known to every validator. Rounds move
through propose, prevote, and precommit phases with a deterministic
proposer rotation (descending stake, then id). A validator precommits a
digest only after seeing prevotes carrying more than two thirds of total
stake for the digest it validated against the batch, and decides once the
matching precommit stake crosses the same threshold. Because validation is
anchored to the one true batch digest, no behavior mix can make two
honest-logic validators decide different digests.

Message delivery uses a seeded network model with per-sender latency,
uniform jitter, independent drops, and optional partitions, and is
deterministic given the seed. Time is integer ticks advanced by next-event
time advance: the engine jumps straight to the earliest tick at which a
delivery is due or a validator's timer fires, and skips the idle ticks in
between, at which nothing could happen. Timers sit in a per-height heap, so
at a tick the engine wakes only the validators whose timer is due. The
network hands out each message with its whole recipient group, and one
loop tallies it at every recipient in id order. On a lossless, jitter-free
height of at least ``SHARED_TALLY_MIN_VALIDATORS`` validators, a vote that
reaches every other validator is instead tallied once per key for all of
them, so such a height costs tally work per vote, not per delivery.

Tallies add stakes as exact integer counts of a unit, the finest last bit
among the roster's stakes, and compare the count with the epoch's quorum
threshold in those units. A count reaches the threshold exactly when the
correctly rounded sum of its stakes meets ``quorum_met``.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import CheckedRecord, DomainError

# SHA-256 from CPython's built-in module where there is one: ``hashlib``
# loads the OpenSSL backend, which costs a run about 4 MB of RSS and 4 ms of
# import for the one hash opsim uses. The digest is the same either way.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# Base per-phase timeout in ticks; doubles every round.
BASE_PHASE_TIMEOUT = 4
# Fewest validators of a height that shares tallies; see run_height.
SHARED_TALLY_MIN_VALIDATORS = 9

# A vote tally's key: (kind, round, digest), a nil vote's digest being None.
Key = tuple[str, int, "str | None"]


def _is_tick_count(value: object) -> bool:
    """True for an int >= 0; ticks are integers, and a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Behavior(Enum):
    HONEST = "honest"
    SILENT = "silent"
    EQUIVOCATING = "equivocating"
    INVALID_PROPOSER = "invalid-proposer"


class _ValidatorFields(NamedTuple):
    id: str
    stake: float
    behavior: Behavior
    region_latency: int


class ValidatorDescriptor(CheckedRecord, _ValidatorFields):
    """A staked validator with a fixed behavior for the run.

    A behavior given as its string value is converted to the ``Behavior``.
    """

    __slots__ = ()

    def __new__(cls, id, stake, behavior=Behavior.HONEST, region_latency=1):
        if isinstance(behavior, str):
            behavior = Behavior(behavior)
        if not math.isfinite(stake) or stake <= 0:
            raise DomainError(f"validator {id}: stake must be finite and > 0")
        if not _is_tick_count(region_latency):
            raise DomainError(f"validator {id}: region_latency must be an integer "
                              f">= 0, got {region_latency!r}")
        return tuple.__new__(cls, (id, stake, behavior, region_latency))


class Roster(tuple):
    """A tuple of validators plus what every height derives from them, computed once.

    Stakes change only at settlement, so a run builds one roster per epoch.
    ``Roster(roster)`` is ``roster``. The descriptors must not change while
    the roster is in use.
    """

    def __new__(cls, validators: Iterable[ValidatorDescriptor]) -> Roster:
        if isinstance(validators, Roster):
            return validators
        roster = super().__new__(cls, validators)
        if not roster:
            raise DomainError("run_height requires at least one validator")
        # Id -> stake; the total is their exactly rounded sum.
        roster.stakes = {v.id: v.stake for v in roster}
        if len(roster.stakes) != len(roster):
            raise DomainError("validator ids must be unique")
        roster.total_stake = math.fsum(roster.stakes.values())
        if roster.total_stake <= 0:
            raise DomainError("total stake must be > 0")
        # Id -> stake in units of 1 / scale, exact: each denominator is a
        # power of two, so the largest is a multiple of every other.
        ratios = [v.stake.as_integer_ratio() for v in roster]
        scale = max(d for _, d in ratios)
        roster.units = {v.id: n * (scale // d) for v, (n, d) in zip(roster, ratios)}
        roster.quorum_units = _quorum_units(sum(roster.units.values()), scale,
                                            roster.total_stake)
        # The validators in id order, and in proposer order: descending
        # stake, then id.
        roster.by_id = tuple(sorted(roster, key=lambda v: v.id))
        roster.by_stake = tuple(sorted(roster.by_id, key=lambda v: -v.stake))
        # Id -> region latency, and the largest one.
        roster.latency = {v.id: v.region_latency for v in roster}
        roster.max_latency = max(roster.latency.values())
        # Id -> every other id in id order: a broadcast's default recipients.
        ids = tuple(sorted(roster.stakes))
        roster.others = {vid: ids[:i] + ids[i + 1:] for i, vid in enumerate(ids)}
        return roster


def _quorum_units(units: int, scale: int, total: float) -> int:
    """The least count c of ``1 / scale`` units that passes ``quorum_met`` against ``total``.

    ``units`` is the whole roster's count, ``total`` its correctly rounded
    value. ``c / scale`` rounds correctly, as ``math.fsum`` does, so a tally
    of c units is a quorum exactly when c reaches the result. The rule
    grows with c, so a bisection finds the least; three roundings of at
    most 2**-53 each (the total, ``c / scale`` and ``3 * s``) keep it within
    ``units * 2**-50`` of ``2 * units / 3``. If ``2 * total`` overflows, no
    tally is a quorum and the result is past ``units``.
    """
    if math.isinf(2.0 * total):
        return units + 1
    slack = (units >> 50) + 1
    lo, hi = 2 * units // 3 - slack, 2 * units // 3 + slack + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if quorum_met(mid / scale, total):
            hi = mid
        else:
            lo = mid
    return hi


class AggregatedSignature(NamedTuple):
    """Signer set over one digest with its stake tally."""

    batch_digest: str
    signer_set: frozenset[str]
    signed_stake: float
    total_stake: float

    @property
    def valid(self) -> bool:
        return quorum_met(self.signed_stake, self.total_stake)


class RoundOutcome(NamedTuple):
    committed: bool
    batch_digest: str | None
    signature: AggregatedSignature | None
    rounds_used: int
    ticks_elapsed: int


class PartitionSpec(NamedTuple):
    """Validators in ``members`` are cut off from the rest during the range."""

    start_tick: int
    end_tick: int
    members: frozenset[str]


class _NetworkFields(NamedTuple):
    drop_probability: float
    latency_jitter: int
    rng_seed: int
    partition_schedule: tuple[PartitionSpec, ...]


class NetworkModel(CheckedRecord, _NetworkFields):
    __slots__ = ()

    def __new__(cls, drop_probability=0.0, latency_jitter=0, rng_seed=0,
                partition_schedule=()):
        if not 0.0 <= drop_probability < 1.0:
            raise DomainError("drop_probability must lie in [0, 1)")
        if not _is_tick_count(latency_jitter):
            raise DomainError(f"latency_jitter must be an integer >= 0, got {latency_jitter!r}")
        return tuple.__new__(cls, (drop_probability, latency_jitter, rng_seed,
                                   partition_schedule))

    @property
    def draws(self) -> bool:
        """True when delivery draws from ``rng_seed``: messages drop or jitter."""
        return self.drop_probability > 0 or self.latency_jitter > 0


def quorum_met(signed_stake: float, total_stake: float) -> bool:
    """Strict two-thirds rule: signed stake must exceed 2/3 of the total."""
    return 3.0 * signed_stake > 2.0 * total_stake


def batch_digest(batch: Sequence[str]) -> str:
    """Stable digest of a transaction batch."""
    return sha256(b"".join(str(tx).encode() + b"\x00" for tx in batch)).hexdigest()[:16]


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

    A fault is recorded once, as a ``fault:<kind>`` event whose sender is the
    faulty validator; a decision is a ``commit`` event.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, tick: int, kind: str, height: int, round_: int,
               sender: str, digest: str | None) -> TraceEvent:
        event = TraceEvent(tick, kind, height, round_, sender, digest)
        self.events.append(event)
        return event

    @property
    def faults(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind.startswith("fault:")]

    @property
    def decisions(self) -> dict[str, str]:
        """Validator id -> decided digest; a validator decides at most once."""
        return {e.sender: e.digest for e in self.events if e.kind == "commit"}

    def to_lines(self) -> list[str]:
        return [
            f"{e.tick},{e.kind},{e.height},{e.round},{e.sender},{e.digest or '-'}"
            for e in self.events
        ]


class GossipNetwork:
    """Seeded fan-out delivery between validators.

    A broadcast gives every recipient but the sender a deliver tick of the
    message's tick + sender latency + uniform jitter, drops it independently
    with the model's probability, and cuts it when a partition separates
    sender and recipient at that tick. Draws go recipient by recipient in id
    order. The recipients one broadcast reaches at one tick share a queue
    entry that lists them in id order, and entries are numbered in
    deliver-tick order, so ``step`` hands out (message, recipients) entries
    in (deliver tick, broadcast) order. A lossless, jitter-free network
    delivers every recipient at the same tick, draws nothing and has no
    generator. Identical seed and call sequence yield an identical delivery
    trace.
    """

    def __init__(self, model: NetworkModel, validators: Sequence[ValidatorDescriptor]):
        roster = Roster(validators)
        self._model = model
        self._latency = roster.latency
        self._others = roster.others
        self._draws = model.draws
        self._partitions = model.partition_schedule
        self._rng = random.Random(model.rng_seed) if self._draws else None
        # (deliver tick, seq, message, recipients in id order)
        self._queue: list[tuple[int, int, TraceEvent, Sequence[str]]] = []
        self._seq = 0
        self._pending = 0
        self._last_tick = -1

    def broadcast(self, message: TraceEvent,
                  recipients: Iterable[str] | None = None) -> None:
        sender = message.sender
        everyone_else = self._others.get(sender)
        if everyone_else is None:
            raise DomainError(f"unknown sender {sender}")
        if recipients is None:
            targets: Sequence[str] = everyone_else
        else:
            targets = sorted(set(recipients))
            for recipient in targets:
                if recipient not in self._others:
                    raise DomainError(f"unknown recipient {recipient}")
            targets = [r for r in targets if r != sender]
        send_tick = message.tick + self._latency[sender]
        if not self._draws:
            self._push(send_tick, message, targets)
            return
        groups = self._draw(send_tick, targets)
        for deliver_tick in sorted(groups):
            self._push(deliver_tick, message, groups[deliver_tick])

    def _draw(self, send_tick: int, targets: Sequence[str]) -> dict[int, list[str]]:
        """Deliver tick -> recipients that survive their drop draw.

        Each recipient draws its jitter, then its drop. The jitter draw is
        ``Random.randint(0, latency_jitter)`` written out as CPython's
        ``_randbelow_with_getrandbits`` (3.10 to 3.12), so it consumes the
        stream exactly as ``randint`` does.
        """
        bound = self._model.latency_jitter + 1
        bits = bound.bit_length()
        drop = self._model.drop_probability
        getrandbits, uniform = self._rng.getrandbits, self._rng.random
        groups: dict[int, list[str]] = {}
        for recipient in targets:
            jitter = getrandbits(bits)
            while jitter >= bound:
                jitter = getrandbits(bits)
            if uniform() >= drop:
                groups.setdefault(send_tick + jitter, []).append(recipient)
        return groups

    def _push(self, deliver_tick: int, message: TraceEvent, group: Sequence[str]) -> None:
        # Only recipients on the sender's side of every partition in force stay.
        for start, end, members in self._partitions:
            if start <= deliver_tick < end:
                side = message.sender in members
                group = [r for r in group if (r in members) == side]
        if group:
            heapq.heappush(self._queue, (deliver_tick, self._seq, message, group))
            self._seq += 1
            self._pending += len(group)

    def step(self, tick: int) -> list[tuple[TraceEvent, Sequence[str]]]:
        """(message, recipients) entries due at or before ``tick``; ticks must not decrease.

        Recipients are in id order and never empty. ``run_height`` steps only at
        event ticks, so one step may cover several ticks; a delivery due at a
        tick already stepped comes out at the next step.
        """
        if tick < self._last_tick:
            raise DomainError("gossip steps must use non-decreasing ticks")
        self._last_tick = tick
        queue = self._queue
        delivered: list[tuple[TraceEvent, Sequence[str]]] = []
        while queue and queue[0][0] <= tick:
            _, _, message, group = heapq.heappop(queue)
            delivered.append((message, group))
            self._pending -= len(group)
        return delivered

    @property
    def pending(self) -> int:
        """Deliveries queued and not yet stepped out."""
        return self._pending

    @property
    def next_tick(self) -> int | None:
        """Deliver tick at the head of the queue, or None when it is empty."""
        return self._queue[0][0] if self._queue else None


def phase_timeout(round_: int) -> int:
    return BASE_PHASE_TIMEOUT << round_


def timeout_total(max_rounds: int) -> int:
    """Three phase timeouts in each of ``max_rounds`` rounds, a geometric sum."""
    return 3 * BASE_PHASE_TIMEOUT * ((1 << max_rounds) - 1)


class _HeightContext:
    """Shared state of one height: roster, digest, network, first decision."""

    def __init__(self, validators: Sequence[ValidatorDescriptor], digest: str,
                 network: GossipNetwork, max_rounds: int, height: int,
                 trace: EventTrace):
        self.roster = roster = Roster(validators)
        self.stakes, self.total_stake = roster.stakes, roster.total_stake
        self.units, self.quorum_units = roster.units, roster.quorum_units
        self.digest = digest
        self.network = network
        self.max_rounds = max_rounds
        self.height = height
        self.trace = trace
        # (tick, round, private precommit voters) of the first commit
        # decision. The voters are the decider's live dict, so precommits
        # drained after the decision still count; _finish_height adds the
        # shared tally of the key. Holding the node instead would make a
        # node-context reference cycle that outlives the height.
        self.first_decision: tuple[int, int, dict[str, int]] | None = None
        # Heap of (due tick, validator id), one entry per timer set; ids, not
        # nodes, for the same reason as first_decision.
        self.timers: list[tuple[int, str]] = []
        # Filled only on heights that share tallies (see run_height): per
        # key, the voters whose entry reached every other validator, the
        # sum of their units until they are a quorum, and an upper bound on
        # the unit sums of private votes that nodes hold. private_bounds is
        # None where nothing shares.
        self.shared: dict[Key, dict[str, int]] = {}
        self.shared_sums: dict[Key, int] = {}
        self.private_bounds: dict[Key, int] | None = None
        # Protocol-following validators not yet done.
        self.unfinished = 0

    def proposer(self, round_: int) -> ValidatorDescriptor:
        return self.roster.by_stake[round_ % len(self.roster)]

    def send(self, tick: int, kind: str, round_: int, sender: str, digest: str | None,
             recipients: Iterable[str] | None = None) -> None:
        """Record a message as a trace event and broadcast that event."""
        message = self.trace.record(tick, kind, self.height, round_, sender, digest)
        self.network.broadcast(message, recipients)


class _HonestNode:
    """Protocol-following validator (also used by invalid proposers)."""

    def __init__(self, descriptor: ValidatorDescriptor, ctx: _HeightContext):
        self.d = descriptor
        # Read on every cast: an attribute is faster to read than a named tuple field.
        self.id, self.units = descriptor.id, ctx.units[descriptor.id]
        self.ctx = ctx
        self.round = 0
        self.phase = "propose"
        self.done = False
        ctx.unfinished += 1
        self._set_timer(phase_timeout(0))
        self.proposals: dict[int, str] = {}
        # votes[(kind, round, digest)][voter] = the voter's stake in units.
        self.votes: dict[Key, dict[str, int]] = {}
        self.quorums: set[Key] = set()
        # Unit sum of the private votes of each key not (yet) in quorums, so
        # on a height that shares, the keys the node may still cross before
        # the shared tally does.
        self.sums: dict[Key, int] = {}

    def start(self, tick: int) -> None:
        self._maybe_propose(tick)
        self._evaluate(tick)

    @staticmethod
    def receive(ctx: _HeightContext, message: TraceEvent, group: Iterable[_HonestNode],
                tick: int) -> None:
        """Hand ``message`` to each node of ``group`` in turn; ``_tally`` inlined, unshared.

        A node stores a proposal from the round's proposer or tallies a vote.
        Then, unless it is done, it evaluates if its proposals or quorums
        changed or its timer is due: after ``_evaluate`` the phase is a
        fixed point of those three. Done nodes keep tallying, so the commit
        certificate covers precommits still in flight at decision time.
        The loop stays inlined because sending each delivery through ``_tally``
        was slower: over 6 alternating 5 s ``bench/run.py`` pairs at seed 0 on
        a 2-vCPU VM, ``run_s`` rose from 0.1491 to 0.1573 s (+5.5%) on
        byzantine-lossy and from 0.01537 to 0.01596 s (+3.8%) on payment-econ.
        """
        round_ = message.round
        if message.kind == "proposal":
            valid = message.sender == ctx.proposer(round_).id
            for node in group:
                changed = valid and round_ not in node.proposals
                if changed:
                    node.proposals[round_] = message.digest
                if not node.done and (changed or tick >= node.next_due):
                    node._evaluate(tick)
            return
        voter = message.sender
        key = (message.kind, round_, message.digest)
        units, quorum = ctx.units[voter], ctx.quorum_units
        for node in group:
            changed = False
            voters = node.votes.get(key)
            if voters is None:
                voters = node.votes[key] = {}
                node.sums[key] = 0
            voters[voter] = units
            if key not in node.quorums:
                running = node.sums[key] + units
                if running < quorum:
                    node.sums[key] = running
                else:
                    del node.sums[key]
                    node.quorums.add(key)
                    changed = True
            if not node.done and (changed or tick >= node.next_due):
                node._evaluate(tick)

    def _tally(self, key: Key, voter: str, units: int) -> bool:
        """Count ``voter``'s vote in this node's tally of ``key``; True if the key joined quorums.

        A key joins ``quorums`` when the vote brings the unit sum of the
        node's view of it, its private tally plus the shared one (see
        ``share``), to ``quorum_units``. Votes only accumulate, so a key
        never leaves ``quorums``, and integer sums are exact, so membership
        does not depend on the order votes arrived in. A key's sum is
        dropped once the key joins ``quorums``.

        This counts each sender's first vote of a kind per round, as the
        protocol asks, without a per-sender check: a node hears each sender
        at most once per (kind, round). Honest nodes cast each kind once per
        round, an equivocator sends its two digests to disjoint halves of
        its peers, and the network delivers each queued copy once.
        """
        voters = self.votes.get(key)
        if voters is None:
            voters = self.votes[key] = {}
            self.sums[key] = 0
        voters[voter] = units
        if key in self.quorums:
            return False
        ctx = self.ctx
        running = self.sums[key] = self.sums[key] + units
        bounds = ctx.private_bounds
        if bounds is not None and running > bounds.get(key, 0):
            bounds[key] = running
        if running + ctx.shared_sums.get(key, 0) < ctx.quorum_units:
            return False
        del self.sums[key]
        self.quorums.add(key)
        return True

    @staticmethod
    def share(ctx: _HeightContext, message: TraceEvent, nodes: dict[str, _HonestNode],
              tick: int, due: list[_HonestNode]) -> None:
        """Tally a vote whose entry reached every other validator, once for all ``nodes``.

        ``nodes`` are the listening nodes by id, in id order; ``due`` are
        those whose timer was due at ``tick`` when its delivery began. The
        vote joins the shared tally of its key, and the sender's own vote
        leaves its private tally, so every node's view gains the vote but
        the sender's stays as it was. If the shared tally becomes a quorum,
        the key joins every node's ``quorums``. Until then only nodes that
        hold private votes of the key can cross, and while the shared sum
        plus the bound on their private sums is below ``quorum_units``, so
        is the sum for each of them; the nodes are scanned only once it is
        not. Then, in id order, each recipient that is not done evaluates if
        its quorums changed or its timer is due, as in ``receive``; one
        node's evaluation never touches another's state, so tallying first
        changes nothing.
        """
        key = (message.kind, message.round, message.digest)
        voter = message.sender
        units = ctx.units[voter]
        voters = ctx.shared.get(key)
        if voters is None:
            voters = ctx.shared[key] = {}
            ctx.shared_sums[key] = 0
        voters[voter] = units
        sender = nodes.get(voter)
        if sender is not None:
            del sender.votes[key][voter]
            if key in sender.sums:
                # What stays private is less than before, so the bound holds.
                sender.sums[key] -= units
        changed: list[_HonestNode] = []
        running = ctx.shared_sums.get(key)
        quorum = ctx.quorum_units
        if running is not None:
            running += units
            if running >= quorum:
                del ctx.shared_sums[key]
                changed = [node for node in nodes.values() if key not in node.quorums]
            else:
                ctx.shared_sums[key] = running
                if running + ctx.private_bounds.get(key, 0) >= quorum:
                    changed = [node for node in nodes.values() if key in node.sums
                               and running + node.sums[key] >= quorum]
            for node in changed:
                node.quorums.add(key)
                node.sums.pop(key, None)
        if not (changed or due):
            return
        woken = {node.id: node for node in due if node.next_due <= tick}
        woken.update((node.id, node) for node in changed)
        woken.pop(voter, None)
        for vid in sorted(woken):
            node = woken[vid]
            if not node.done:
                node._evaluate(tick)

    def on_tick(self, tick: int) -> None:
        if not self.done:
            self._evaluate(tick)

    def _set_timer(self, due: int) -> None:
        """Fire the phase timer at tick ``due``; ``next_due`` is meaningless once done."""
        self.next_due = due
        heapq.heappush(self.ctx.timers, (due, self.id))

    def _finish(self) -> None:
        self.phase = "done"
        self.done = True
        self.ctx.unfinished -= 1

    def _maybe_propose(self, tick: int) -> None:
        if self.ctx.proposer(self.round).id != self.id:
            return
        digest = self.ctx.digest
        if self.d.behavior is Behavior.INVALID_PROPOSER:
            digest = f"{self.ctx.digest}!invalid"
            self.ctx.trace.record(tick, "fault:invalid-proposal", self.ctx.height,
                                  self.round, self.id, None)
        self.proposals.setdefault(self.round, digest)
        self.ctx.send(tick, "proposal", self.round, self.id, digest)

    def _evaluate(self, tick: int) -> None:
        while True:
            phase_before = (self.round, self.phase)
            if self.phase == "propose":
                self._evaluate_propose(tick)
            elif self.phase == "prevote":
                self._evaluate_prevote(tick)
            elif self.phase == "precommit":
                self._evaluate_precommit(tick)
            if (self.round, self.phase) == phase_before or self.done:
                return

    def _evaluate_propose(self, tick: int) -> None:
        digest = self.proposals.get(self.round)
        if digest is not None:
            self._cast("prevote", digest if digest == self.ctx.digest else None, tick)
        elif tick >= self.next_due:
            self._cast("prevote", None, tick)

    def _evaluate_prevote(self, tick: int) -> None:
        validated = self.proposals.get(self.round) == self.ctx.digest
        if validated and ("prevote", self.round, self.ctx.digest) in self.quorums:
            self._cast("precommit", self.ctx.digest, tick)
        elif ("prevote", self.round, None) in self.quorums or tick >= self.next_due:
            self._cast("precommit", None, tick)

    def _evaluate_precommit(self, tick: int) -> None:
        validated = self.proposals.get(self.round) == self.ctx.digest
        if validated and ("precommit", self.round, self.ctx.digest) in self.quorums:
            self._decide(tick)
        elif ("precommit", self.round, None) in self.quorums or tick >= self.next_due:
            self._advance(tick)

    def _cast(self, kind: str, digest: str | None, tick: int) -> None:
        """Vote ``kind`` (also the phase it enters) for ``digest`` in this round."""
        self.phase = kind
        self._set_timer(tick + phase_timeout(self.round))
        self.ctx.send(tick, kind, self.round, self.id, digest)
        self._tally((kind, self.round, digest), self.id, self.units)

    def _decide(self, tick: int) -> None:
        self._finish()
        if self.ctx.first_decision is None:
            self.ctx.first_decision = (tick, self.round,
                                       self.votes[("precommit", self.round, self.ctx.digest)])
        self.ctx.trace.record(tick, "commit", self.ctx.height, self.round,
                              self.id, self.ctx.digest)

    def _advance(self, tick: int) -> None:
        self.round += 1
        if self.round >= self.ctx.max_rounds:
            self._finish()
            return
        self.phase = "propose"
        self._set_timer(tick + phase_timeout(self.round))
        self.ctx.trace.record(tick, "round-start", self.ctx.height, self.round,
                              self.id, None)
        self._maybe_propose(tick)


class _EquivocatingNode:
    """Sends conflicting votes to disjoint peer halves on a fixed timetable."""

    def __init__(self, descriptor: ValidatorDescriptor, ctx: _HeightContext):
        self.d = descriptor
        self.ctx = ctx
        self.round = 0
        self.entered = 0
        self.stage = "enter"
        others = ctx.roster.others[descriptor.id]
        split = (len(others) + 1) // 2
        self.first_half, self.second_half = others[:split], others[split:]
        self.faulted = False
        self.done = False

    @property
    def next_due(self) -> int:
        """Tick at which the current stage acts; meaningless once done."""
        if self.stage == "enter":
            return self.entered
        timeout = phase_timeout(self.round)
        return self.entered + (timeout if self.stage == "precommit" else 3 * timeout)

    def on_tick(self, tick: int) -> None:
        if self.done or tick < self.next_due:
            return
        if self.stage == "enter":
            if not self.faulted:
                self.ctx.trace.record(tick, "fault:equivocation", self.ctx.height,
                                      self.round, self.d.id, None)
                self.faulted = True
            if self.ctx.proposer(self.round).id == self.d.id:
                self._split_send("proposal", tick)
            self._split_send("prevote", tick)
            self.stage = "precommit"
        elif self.stage == "precommit":
            self._split_send("precommit", tick)
            self.stage = "advance"
        else:
            self.round += 1
            self.done = self.round >= self.ctx.max_rounds
            self.entered = tick
            self.stage = "enter"

    def _split_send(self, kind: str, tick: int) -> None:
        forged = f"{self.ctx.digest}#forged:{self.d.id}:{self.round}"
        for digest, half in ((self.ctx.digest, self.first_half), (forged, self.second_half)):
            if half:
                self.ctx.send(tick, kind, self.round, self.d.id, digest, half)


def run_height(validators: Sequence[ValidatorDescriptor], batch: Sequence[str],
               network: NetworkModel, max_rounds: int, *, height: int = 0,
               trace: EventTrace | None = None) -> RoundOutcome:
    """Run one consensus height over ``batch`` and return its outcome.

    The outcome reflects the first commit decision by any protocol-following
    validator; the simulation still runs until every such validator has
    decided or exhausted its rounds, so the trace captures all decisions.
    """
    roster = Roster(validators)
    if not batch:
        raise DomainError("batch must be non-empty")
    if max_rounds < 1:
        raise DomainError("max_rounds must be >= 1")

    trace = trace if trace is not None else EventTrace()
    net = GossipNetwork(network, roster)
    ctx = _HeightContext(roster, batch_digest(batch), net, max_rounds, height, trace)
    nodes: dict[str, _HonestNode | _EquivocatingNode] = {}
    for v in roster.by_id:
        if v.behavior in (Behavior.HONEST, Behavior.INVALID_PROPOSER):
            nodes[v.id] = _HonestNode(v, ctx)
        elif v.behavior is Behavior.EQUIVOCATING:
            nodes[v.id] = _EquivocatingNode(v, ctx)
            heapq.heappush(ctx.timers, (nodes[v.id].next_due, v.id))
        # Silent validators receive but never act.

    horizon = (timeout_total(max_rounds)
               + (roster.max_latency + network.latency_jitter + 2) * (3 * max_rounds + 2) + 8)

    listening = {vid: node for vid, node in nodes.items() if isinstance(node, _HonestNode)}

    # A lossless, jitter-free network delivers each broadcast to every
    # other validator in one entry, so those votes can be tallied once per
    # key instead of once per node. A shared entry has a fixed cost: on
    # lossless heights, sharing took 1.22x the unshared time at 3
    # validators, 1.01x at 8, 0.97x at 9, 0.87x at 12 and 0.58x at 32 (a
    # 2-vCPU VM, CPython 3.11), hence the cut-off.
    if len(roster) >= SHARED_TALLY_MIN_VALIDATORS and not network.draws:
        ctx.private_bounds = {}
        everyone_else = len(roster) - 1

        def deliver(tick: int) -> None:
            entries = net.step(tick)
            due = ([node for node in listening.values() if node.next_due <= tick and not node.done]
                   if ctx.timers and ctx.timers[0][0] <= tick else [])
            for message, recipients in entries:
                if message.kind != "proposal" and len(recipients) == everyone_else:
                    _HonestNode.share(ctx, message, listening, tick, due)
                    continue
                group = filter(None, map(listening.get, recipients))
                if message.kind == "proposal":
                    _HonestNode.receive(ctx, message, group, tick)
                else:
                    key = (message.kind, message.round, message.digest)
                    units = ctx.units[message.sender]
                    for node in group:
                        changed = node._tally(key, message.sender, units)
                        if not node.done and (changed or tick >= node.next_due):
                            node._evaluate(tick)
    else:
        def deliver(tick: int) -> None:
            for message, recipients in net.step(tick):
                _HonestNode.receive(ctx, message,
                                    filter(None, map(listening.get, recipients)), tick)

    def stale(due: int, vid: str) -> bool:
        """True for a timer entry whose node is done or has set another timer since."""
        node = nodes[vid]
        return node.done or node.next_due != due

    for node in listening.values():
        node.start(0)

    # Next-event time advance: at a tick where no delivery is due and no
    # timer fires, every node would do nothing, so jump to the earliest tick
    # where one does, and there wake, in id order, only the nodes whose timer
    # entry is due and not stale. Deliveries come before timers within a
    # tick, and a message sent while tick t is processed arrives at t + 1 at
    # the earliest, so one node's wake cannot make another's entry stale. An
    # equivocator's next_due moves only in its own on_tick, so run_height
    # pushes its entries; one may fall due at the very tick it was pushed, and is
    # popped at the next one. Stale heads are purged before the jump, or the
    # loop would visit their idle ticks.
    timers = ctx.timers
    tick = last_tick = 0
    while tick <= horizon:
        deliver(tick)
        woken = set()
        while timers and timers[0][0] <= tick:
            entry = heapq.heappop(timers)
            if not stale(*entry):
                woken.add(entry[1])
        for vid in sorted(woken):
            node = nodes[vid]
            node.on_tick(tick)
            if isinstance(node, _EquivocatingNode) and not node.done:
                heapq.heappush(timers, (node.next_due, vid))
        last_tick = tick
        if not ctx.unfinished:
            break
        while timers and stale(*timers[0]):
            heapq.heappop(timers)
        due = timers[0][0] if timers else horizon
        if net.next_tick is not None:
            due = min(due, net.next_tick)
        tick = max(tick + 1, min(horizon, due))

    # Drain in-flight messages so the decider's view covers every precommit
    # that was still traveling when quorum crossed.
    while net.pending > 0 and tick <= horizon:
        tick = min(max(tick + 1, net.next_tick), horizon + 1)
        deliver(tick)

    return _finish_height(ctx, last_tick)


def _finish_height(ctx: _HeightContext, last_tick: int) -> RoundOutcome:
    """Record silent validators and the height's end; return its outcome.

    The commit certificate is the first decider's precommit voters for its
    round and the batch digest, shared and private, read after the drain so
    it covers precommits that were still in flight when quorum crossed.
    """
    for v in ctx.roster.by_id:
        if v.behavior is Behavior.SILENT:
            ctx.trace.record(last_tick, "fault:non-participation", ctx.height, 0, v.id, None)

    if ctx.first_decision is not None:
        decide_tick, decided_round, private = ctx.first_decision
        voters = {**ctx.shared.get(("precommit", decided_round, ctx.digest), {}), **private}
        signature = AggregatedSignature(ctx.digest, frozenset(voters),
                                        math.fsum(map(ctx.stakes.get, voters)), ctx.total_stake)
        return RoundOutcome(committed=True, batch_digest=ctx.digest, signature=signature,
                            rounds_used=decided_round + 1, ticks_elapsed=decide_tick)
    ctx.trace.record(last_tick, "no-commit", ctx.height, ctx.max_rounds - 1, "-", None)
    return RoundOutcome(committed=False, batch_digest=None, signature=None,
                        rounds_used=ctx.max_rounds, ticks_elapsed=last_tick)
