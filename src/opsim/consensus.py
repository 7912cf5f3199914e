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
loop tallies it at every recipient in id order that still listens: a
validator stops listening once it decides or runs out of rounds. A clean
height has at least ``SHARED_TALLY_MIN_VALIDATORS`` validators, no
equivocator, and a network that neither drops, jitters nor partitions.
There every vote reaches every other validator in one entry, so it is
instead tallied once per key for all of them, and the height costs tally
work per vote, not per delivery.

A tally is a count per (kind, round, digest) key, not a set of voters.
The commit certificate is read from the network's record of the
precommit entries it queued: the first decider's own precommit plus
those of its round and the batch digest queued to it, those still in
flight at the last decision included.

Tallies add stakes as exact integer counts of a unit, the finest last bit
among the roster's stakes, and compare the count with the epoch's quorum
threshold in those units. A count reaches the threshold exactly when the
correctly rounded sum of its stakes meets ``quorum_met``.

On a network that draws nothing, a height is the same computation for
every batch of a roster: the first height run on a ``Roster`` with a given
network and ``max_rounds`` is simulated and kept on the roster, and every
later one is that height relabelled with its own batch digest and height
(see ``run_height``). Rosters of fewer than ``SHARED_TALLY_MIN_VALIDATORS``
that share a store of kept heights also share them between each other when
their shapes are equal: the same validators, proposer order and quorum
family (see ``Roster``). A run's epochs share one store, so a run whose
settlement keeps its quorum family simulates one height in all. The trace
holds a relabelled height as a pending replay of the kept one (see
``opsim.trace``).
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import CheckedRecord, DomainError
from .trace import EventTrace, KeptHeight, TraceEvent, sha256

# Base per-phase timeout in ticks; doubles every round.
BASE_PHASE_TIMEOUT = 4
# Fewest validators of a height that shares tallies; see run_height.
SHARED_TALLY_MIN_VALIDATORS = 9

# A vote tally's key: (kind, round, digest), a nil vote's digest being None.
Key = tuple[str, int, "str | None"]


def _is_int(value: object) -> bool:
    """True for an int that is not a bool; ticks and seeds are integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_tick_count(value: object) -> bool:
    """True for an int >= 0; a bool is not a count."""
    return _is_int(value) and value >= 0


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
    the roster is in use. ``replays`` keeps, per (network, max_rounds), the
    first draw-free height ``run_height`` simulated on the roster as a
    ``KeptHeight``, which it replays for every later batch.

    ``kept``, if given, maps roster shapes to ``replays`` dicts; a run
    passes one such dict to each epoch's roster, so a height kept in one
    epoch replays in a later one of equal shape. A roster smaller than
    ``SHARED_TALLY_MIN_VALIDATORS`` has a shape: the (id, behavior,
    region_latency) of each validator in id order, the proposer order of
    ids, and its quorum family, which voter subsets reach ``quorum_units``.
    On such a roster a height compares stakes only as a voter subset's unit
    sum against ``quorum_units`` (see ``run_height``), so rosters of equal
    shape run equal heights. A larger roster keeps its own ``replays``.
    """

    def __new__(cls, validators: Iterable[ValidatorDescriptor],
                kept: dict | None = None) -> Roster:
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
        # The largest count: all that a node holds privately on a height
        # that shares tallies, its own vote (see _HonestNode.share).
        roster.max_units = max(roster.units.values())
        # The validators in id order, and in proposer order: descending
        # stake, then id.
        roster.by_id = tuple(sorted(roster, key=lambda v: v.id))
        roster.by_stake = tuple(sorted(roster.by_id, key=lambda v: -v.stake))
        # Id -> region latency.
        roster.latency = {v.id: v.region_latency for v in roster}
        # Id -> every other id in id order: a broadcast's default recipients.
        ids = tuple(sorted(roster.stakes))
        roster.others = {vid: ids[:i] + ids[i + 1:] for i, vid in enumerate(ids)}
        # (network, max_rounds) -> the KeptHeight run_height replays for them.
        roster.replays = {}
        if kept is not None and len(roster) < SHARED_TALLY_MIN_VALIDATORS:
            # sums[mask] is the unit sum of the validators whose by_id
            # positions are the set bits of mask.
            sums = [0]
            for v in roster.by_id:
                sums += [s + roster.units[v.id] for s in sums]
            shape = (tuple((v.id, v.behavior, v.region_latency) for v in roster.by_id),
                     tuple(v.id for v in roster.by_stake),
                     tuple(s >= roster.quorum_units for s in sums))
            roster.replays = kept.setdefault(shape, roster.replays)
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
    """A height's result. ``rounds_used`` is the decided round + 1, or else ``max_rounds``;
    ``ticks_elapsed`` is the first decision's tick, or else the tick at which the
    last protocol-following validator finished, 0 if there is none."""

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
    """Delivery rules of a height; hashable, so ``run_height`` keys its replays on it."""

    __slots__ = ()

    def __new__(cls, drop_probability=0.0, latency_jitter=0, rng_seed=0,
                partition_schedule=()):
        if not 0.0 <= drop_probability < 1.0:
            raise DomainError("drop_probability must lie in [0, 1)")
        if not _is_tick_count(latency_jitter):
            raise DomainError(f"latency_jitter must be an integer >= 0, got {latency_jitter!r}")
        if not _is_int(rng_seed):
            raise DomainError(f"rng_seed must be an integer, got {rng_seed!r}")
        try:
            schedule = tuple(PartitionSpec(start, end, frozenset(members))
                             for start, end, members in partition_schedule)
            if not all(_is_int(tick) for spec in schedule for tick in spec[:2]):
                raise TypeError
        except (TypeError, ValueError):
            raise DomainError("partition_schedule must hold (start, end, members) triples "
                              f"with integer ticks, got {partition_schedule!r}") from None
        return tuple.__new__(cls, (drop_probability, latency_jitter, rng_seed, schedule))

    @property
    def draws(self) -> bool:
        """True when delivery draws from ``rng_seed``: messages drop or jitter."""
        return self.drop_probability > 0 or self.latency_jitter > 0


def quorum_met(signed_stake: float, total_stake: float) -> bool:
    """Strict two-thirds rule: signed stake must exceed 2/3 of the total."""
    return 3.0 * signed_stake > 2.0 * total_stake


def batch_digest(batch: Sequence[str]) -> str:
    """Stable digest of a transaction batch: each item's ``str`` followed by a NUL."""
    text = "\x00".join(map(str, batch)) + "\x00" if batch else ""
    return sha256(text.encode()).hexdigest()[:16]


class GossipNetwork:
    """Seeded fan-out delivery between validators.

    A broadcast gives every recipient but the sender a deliver tick of the
    message's tick + sender latency + uniform jitter, drops it independently
    with the model's probability, and cuts it when a partition separates
    sender and recipient at that tick. Draws go recipient by recipient in id
    order. The recipients one broadcast reaches at one tick share a queue
    entry that lists them in id order. Entries wait in one bucket per
    deliver tick, in push order, and a heap holds the distinct ticks that
    have a bucket, so ``step`` hands out (message, recipients) entries in
    (deliver tick, broadcast) order. ``precommits`` records each precommit
    entry as it is queued. A lossless, jitter-free network delivers every
    recipient at the same tick, draws nothing and has no generator.
    Identical seed and call sequence yield an identical delivery trace.
    """

    def __init__(self, model: NetworkModel, validators: Sequence[ValidatorDescriptor]):
        roster = Roster(validators)
        self._latency = roster.latency
        self._others = roster.others
        self._draws = model.draws
        self._partitions = model.partition_schedule
        if self._draws:
            rng = random.Random(model.rng_seed)
            self._bound = model.latency_jitter + 1
            self._bits = self._bound.bit_length()
            self._drop = model.drop_probability
            self._getrandbits, self._uniform = rng.getrandbits, rng.random
        # Deliver tick -> its (message, recipients in id order) entries in push order.
        self._buckets: dict[int, list[tuple[TraceEvent, Sequence[str]]]] = {}
        # Heap of the distinct deliver ticks in _buckets.
        self._ticks: list[int] = []
        # Every precommit entry queued, in queue order; the certificate's source.
        self.precommits: list[tuple[TraceEvent, Sequence[str]]] = []
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
        # Per jitter value, the recipients that draw it and survive their
        # drop draw. Each recipient draws its jitter, then its drop. The
        # jitter draw is ``Random.randint(0, latency_jitter)`` written out as
        # CPython's ``_randbelow_with_getrandbits`` (3.10 to 3.13), so it
        # consumes the stream exactly as ``randint`` does.
        bound, bits, drop = self._bound, self._bits, self._drop
        getrandbits, uniform = self._getrandbits, self._uniform
        groups: list[list[str]] = [[] for _ in range(bound)]
        for recipient in targets:
            jitter = getrandbits(bits)
            while jitter >= bound:
                jitter = getrandbits(bits)
            if uniform() >= drop:
                groups[jitter].append(recipient)
        for jitter, group in enumerate(groups):
            if group:
                self._push(send_tick + jitter, message, group)

    def _push(self, deliver_tick: int, message: TraceEvent, group: Sequence[str]) -> None:
        # Only recipients on the sender's side of every partition in force stay.
        for start, end, members in self._partitions:
            if start <= deliver_tick < end:
                side = message.sender in members
                group = [r for r in group if (r in members) == side]
        if group:
            bucket = self._buckets.get(deliver_tick)
            if bucket is None:
                self._buckets[deliver_tick] = [(message, group)]
                heapq.heappush(self._ticks, deliver_tick)
            else:
                bucket.append((message, group))
            if message.kind == "precommit":
                self.precommits.append((message, group))

    def step(self, tick: int) -> list[tuple[TraceEvent, Sequence[str]]]:
        """(message, recipients) entries due at or before ``tick``; ticks must not decrease.

        Recipients are in id order and never empty. ``run_height`` steps only at
        event ticks, so one step may cover several ticks: it pops their buckets
        in tick order. A delivery due at a tick already stepped opens a fresh
        bucket there, which comes out at the next step, ahead of later ticks.
        Once nobody listens, ``run_height`` stops stepping; what is in flight
        then is never handed out.
        """
        if tick < self._last_tick:
            raise DomainError("gossip steps must use non-decreasing ticks")
        self._last_tick = tick
        ticks = self._ticks
        if not ticks or ticks[0] > tick:
            return []
        buckets = self._buckets
        delivered = buckets.pop(heapq.heappop(ticks))
        while ticks and ticks[0] <= tick:
            delivered += buckets.pop(heapq.heappop(ticks))
        return delivered

    @property
    def pending(self) -> int:
        """Deliveries queued and not yet stepped out."""
        return sum(len(group) for bucket in self._buckets.values() for _, group in bucket)

    @property
    def next_tick(self) -> int | None:
        """Earliest deliver tick queued, or None when nothing is."""
        return self._ticks[0] if self._ticks else None


def phase_timeout(round_: int) -> int:
    return BASE_PHASE_TIMEOUT << round_


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
        # (tick, round, decider id, whether the decider precommitted the
        # batch digest) of the first commit decision; _finish_height reads
        # the certificate from the network's precommit entries. Holding the
        # node instead would make a node-context reference cycle.
        self.first_decision: tuple[int, int, str, bool] | None = None
        # Heap of (due tick, validator id), one entry per timer set; ids, not
        # nodes, for the same reason as first_decision.
        self.timers: list[tuple[int, str]] = []
        # Filled only on heights that share tallies (see run_height): per
        # key, the unit sum of the votes whose entry has landed, None once
        # that is a quorum.
        self.shared_sums: dict[Key, int | None] = {}
        # Protocol-following validators not yet done, by id in id order;
        # only they are handed messages, and the height ends once it is empty.
        self.listening: dict[str, _HonestNode] = {}

    def proposer(self, round_: int) -> ValidatorDescriptor:
        return self.roster.by_stake[round_ % len(self.roster)]

    def record(self, tick: int, kind: str, round_: int, sender: str,
               digest: str | None = None) -> None:
        """Record an event of this height that is not a message."""
        self.trace.record(tick, kind, self.height, round_, sender, digest)

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
        ctx.listening[self.id] = self
        self._set_timer(phase_timeout(0))
        self.proposals: dict[int, str] = {}
        self.quorums: set[Key] = set()
        # Unit sum of the private votes of each key not (yet) in quorums; on
        # a height that shares, the node's own vote until its entry lands.
        self.sums: dict[Key, int] = {}

    def start(self, tick: int) -> None:
        self._maybe_propose(tick)
        self._evaluate(tick)

    @staticmethod
    def receive(ctx: _HeightContext, message: TraceEvent, group: Iterable[_HonestNode],
                tick: int) -> None:
        """Hand ``message`` to each node of ``group`` in turn; ``_tally`` inlined, unshared.

        A node stores a proposal from the round's proposer or tallies a vote.
        Then it evaluates if its proposals or quorums changed or its timer
        is due: after ``_evaluate`` the phase is a fixed point of those
        three. ``run_height`` hands messages only to listening nodes, so no
        done node tallies; the certificate comes from the network's record.
        The loop stays inlined because sending each delivery through ``_tally``
        is slower on byzantine-lossy: 62.6 to 63.9 ms (+2.1%), slower in 203
        of 300 pairs. Payment-econ read 5.53 to 5.55 ms, within its noise.
        Each figure is the median over 10 processes of the median of
        alternating in-process runs at seed 0 (30 pairs a process on
        byzantine-lossy, 60 on payment-econ; a 2-vCPU VM, CPython 3.11).
        """
        round_ = message.round
        if message.kind == "proposal":
            valid = message.sender == ctx.proposer(round_).id
            for node in group:
                changed = valid and round_ not in node.proposals
                if changed:
                    node.proposals[round_] = message.digest
                if changed or tick >= node.next_due:
                    node._evaluate(tick)
            return
        voter = message.sender
        key = (message.kind, round_, message.digest)
        units, quorum = ctx.units[voter], ctx.quorum_units
        for node in group:
            changed = False
            if key not in node.quorums:
                running = node.sums.get(key, 0) + units
                if running < quorum:
                    node.sums[key] = running
                else:
                    node.sums.pop(key, None)
                    node.quorums.add(key)
                    changed = True
            if changed or tick >= node.next_due:
                node._evaluate(tick)

    def _tally(self, key: Key, units: int) -> bool:
        """Count a vote of ``units`` in this node's tally of ``key``; True if the key joined quorums.

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
        if key in self.quorums:
            return False
        ctx = self.ctx
        running = self.sums[key] = self.sums.get(key, 0) + units
        if running + ctx.shared_sums.get(key, 0) < ctx.quorum_units:
            return False
        del self.sums[key]
        self.quorums.add(key)
        return True

    @staticmethod
    def share(ctx: _HeightContext, message: TraceEvent, nodes: dict[str, _HonestNode],
              tick: int, due: list[_HonestNode]) -> None:
        """Tally a vote of a clean height (see run_height) once for all ``nodes``.

        ``nodes`` are the listening nodes by id, in id order; ``due`` are
        those whose timer was due at ``tick`` when its delivery began. On a
        clean height every vote reaches every other validator, so a node
        holds privately only its own vote, from its cast until its entry
        lands here. The vote joins the shared tally of its key and leaves
        the sender's private tally, so every node's view gains the vote but
        the sender's stays as it was. If the shared tally becomes a quorum,
        the key joins every listening node's ``quorums``. Until then only a
        node whose own vote of the key is still private can cross, so the
        nodes are scanned only once the shared sum plus the roster's
        ``max_units`` reaches ``quorum_units``. Then, in id order, each
        recipient that is not done evaluates if its quorums changed or its
        timer is due, as in ``receive``; one node's evaluation never touches
        another's state, so tallying first changes nothing.
        """
        key = (message.kind, message.round, message.digest)
        voter = message.sender
        units = ctx.units[voter]
        sender = nodes.get(voter)
        if sender is not None:
            sender.sums.pop(key, None)
        changed: list[_HonestNode] = []
        running = ctx.shared_sums.get(key, 0)
        quorum = ctx.quorum_units
        if running is not None:
            running += units
            if running >= quorum:
                ctx.shared_sums[key] = None
                changed = [node for node in nodes.values() if key not in node.quorums]
            else:
                ctx.shared_sums[key] = running
                if running + ctx.roster.max_units >= quorum:
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
            woken[vid]._evaluate(tick)

    def _set_timer(self, due: int) -> None:
        """Fire the phase timer at tick ``due``; ``next_due`` is meaningless once done."""
        self.next_due = due
        heapq.heappush(self.ctx.timers, (due, self.id))

    def _finish(self) -> None:
        """Stop: the node casts nothing more and leaves ``listening``."""
        self.phase = "done"
        self.done = True
        del self.ctx.listening[self.id]

    def _maybe_propose(self, tick: int) -> None:
        if self.ctx.proposer(self.round).id != self.id:
            return
        digest = self.ctx.digest
        if self.d.behavior is Behavior.INVALID_PROPOSER:
            digest = f"{self.ctx.digest}!invalid"
            self.ctx.record(tick, "fault:invalid-proposal", self.round, self.id)
        self.proposals.setdefault(self.round, digest)
        self.ctx.send(tick, "proposal", self.round, self.id, digest)

    def _evaluate(self, tick: int) -> None:
        """Take every step of Algorithm 1 that the state allows at ``tick``; a done node takes none."""
        digest = self.ctx.digest
        while not self.done:
            phase, round_ = self.phase, self.round
            proposal = self.proposals.get(round_)
            due = tick >= self.next_due
            if phase == "propose":
                if proposal is None and not due:
                    return
                self._cast("prevote", digest if proposal == digest else None, tick)
            elif proposal == digest and (phase, round_, digest) in self.quorums:
                if phase == "prevote":
                    self._cast("precommit", digest, tick)
                else:
                    self._decide(tick)
            elif (phase, round_, None) in self.quorums or due:
                if phase == "prevote":
                    self._cast("precommit", None, tick)
                else:
                    self._advance(tick)
            else:
                return

    # run_height wakes only due, unfinished nodes; the tick-by-tick oracle wakes every node.
    on_tick = _evaluate

    def _cast(self, kind: str, digest: str | None, tick: int) -> None:
        """Vote ``kind`` (also the phase it enters) for ``digest`` in this round."""
        self.phase, self.vote = kind, digest
        self._set_timer(tick + phase_timeout(self.round))
        self.ctx.send(tick, kind, self.round, self.id, digest)
        self._tally((kind, self.round, digest), self.units)

    def _decide(self, tick: int) -> None:
        self._finish()
        if self.ctx.first_decision is None:
            # A node decides in its precommit phase: its last vote is that precommit.
            self.ctx.first_decision = (tick, self.round, self.id, self.vote == self.ctx.digest)
        self.ctx.record(tick, "commit", self.round, self.id, self.ctx.digest)

    def _advance(self, tick: int) -> None:
        self.round += 1
        if self.round >= self.ctx.max_rounds:
            self._finish()
            return
        self.phase = "propose"
        self._set_timer(tick + phase_timeout(self.round))
        self.ctx.record(tick, "round-start", self.round, self.id)
        self._maybe_propose(tick)


class _EquivocatingNode:
    """Sends conflicting votes to disjoint peer halves on a fixed timetable."""

    def __init__(self, descriptor: ValidatorDescriptor, ctx: _HeightContext):
        self.id = descriptor.id
        self.ctx = ctx
        self.round = 0
        self.entered = 0
        self.stage = "enter"
        others = ctx.roster.others[descriptor.id]
        split = (len(others) + 1) // 2
        self.first_half, self.second_half = others[:split], others[split:]
        self.done = False
        # A round's stages act at its entry tick, one phase timeout later and
        # three later.
        self._set_timer(0)

    _set_timer = _HonestNode._set_timer

    def on_tick(self, tick: int) -> None:
        # run_height wakes only due, unfinished nodes; this serves the tick-by-tick oracle.
        if self.done or tick < self.next_due:
            return
        if self.stage == "enter":
            if self.round == 0:
                self.ctx.record(tick, "fault:equivocation", self.round, self.id)
            if self.ctx.proposer(self.round).id == self.id:
                self._split_send("proposal", tick)
            self._split_send("prevote", tick)
            self.stage = "precommit"
            self._set_timer(self.entered + phase_timeout(self.round))
        elif self.stage == "precommit":
            self._split_send("precommit", tick)
            self.stage = "advance"
            self._set_timer(self.entered + 3 * phase_timeout(self.round))
        else:
            self.round += 1
            self.done = self.round >= self.ctx.max_rounds
            self.entered = tick
            self.stage = "enter"
            if not self.done:
                self._set_timer(tick)

    def _split_send(self, kind: str, tick: int) -> None:
        forged = f"{self.ctx.digest}#forged:{self.id}:{self.round}"
        for digest, half in ((self.ctx.digest, self.first_half), (forged, self.second_half)):
            if half:
                self.ctx.send(tick, kind, self.round, self.id, digest, half)


def run_height(validators: Sequence[ValidatorDescriptor], batch: Sequence[str],
               network: NetworkModel, max_rounds: int, *, height: int = 0,
               trace: EventTrace | None = None) -> RoundOutcome:
    """Run one consensus height over ``batch`` and return its outcome.

    The outcome reflects the first commit decision by any protocol-following
    validator; the simulation still runs until every such validator has
    decided or exhausted its rounds, so the trace captures all decisions.

    The protocol ends the height: each round's three phases end by their timeouts,
    so a protocol-following validator is done by tick 3 * sum(phase_timeout(r)
    for r < max_rounds). An equivocator keeps its own timetable and a silent one
    never acts, so a height without protocol-following validators ends at tick 0.
    Nothing is stepped after that: what is still in flight is never handed out.

    On a network that draws nothing, the first height run on ``validators``
    as a ``Roster`` with this ``(network, max_rounds)`` is simulated and
    kept in ``roster.replays`` as a ``KeptHeight``; every later one on that
    roster, or on one of equal shape that shares its ``replays`` (see
    ``Roster``), replays it. Each kept event keeps its tick, kind, round
    and sender and takes the new ``height``, and each digest, which always
    starts with the kept batch digest (bare, ``!invalid`` or
    ``#forged:...``), takes the new batch digest in place of that prefix;
    the outcome takes it too, and its signature takes the signers' stake
    and the total stake of the roster it replays on. ``KeptHeight.replay``
    holds these rules: the replay joins ``trace`` as pending, and its
    events are built only when they are read (see ``EventTrace``). This is
    exact. With no generator, the height's path reads the digest only
    through ``==`` and as part of dict and set keys that nothing iterates,
    and the relabelling keeps every equality: all digests share one prefix
    of fixed length. The gossip queue never compares messages: it orders
    its buckets by deliver tick and keeps each in push order. ``height`` is
    only a label. A roster with a shape is too small to share tallies, so
    a stake enters the path only as a voter's units in a node's tally of a
    key, the unit sum of distinct voters, which is only compared with
    ``quorum_units``: the quorum family answers every such comparison, and
    only the signature reads the stakes themselves. So the relabelled
    height is the one a fresh simulation would give. A drawing network is
    always simulated.
    """
    roster = Roster(validators)
    if not batch:
        raise DomainError("batch must be non-empty")
    if not _is_tick_count(max_rounds) or max_rounds < 1:
        raise DomainError("max_rounds must be an integer >= 1")
    if not _is_tick_count(height):
        raise DomainError("height must be an integer >= 0")

    trace = trace if trace is not None else EventTrace()
    digest = batch_digest(batch)
    key = None if network.draws else (network, max_rounds)
    if key in roster.replays:
        return roster.replays[key].replay(trace, digest, height, roster)
    start = len(trace.events)
    net = GossipNetwork(network, roster)
    ctx = _HeightContext(roster, digest, net, max_rounds, height, trace)
    nodes: dict[str, _HonestNode | _EquivocatingNode] = {}
    for v in roster.by_id:
        if v.behavior in (Behavior.HONEST, Behavior.INVALID_PROPOSER):
            nodes[v.id] = _HonestNode(v, ctx)
        elif v.behavior is Behavior.EQUIVOCATING:
            nodes[v.id] = _EquivocatingNode(v, ctx)
        # Silent validators receive but never act.

    listening, timers = ctx.listening, ctx.timers

    # On a clean height (see the module docstring) every vote reaches every
    # other validator in one entry, so it can be tallied once per key
    # instead of once per node. A shared entry has a fixed cost: on lossless
    # heights, sharing took 1.01x the unshared time at 8 validators, 0.97x at
    # 9, 0.87x at 12 and 0.58x at 32, and sharing at 3 makes payment-econ 6.6%
    # slower, hence the cut-off. That read 4.66 to 4.96 ms, slower in 482 of
    # 600 pairs: the median over 10 processes of the median of 60 alternating
    # in-process runs at seed 0 (a 2-vCPU VM, CPython 3.11). Every node but
    # an equivocator listens.
    sharing = (len(roster) >= SHARED_TALLY_MIN_VALIDATORS and len(listening) == len(nodes)
               and not network.draws and not network.partition_schedule)

    for node in list(listening.values()):
        node.start(0)

    # Next-event time advance: at a tick where no delivery is due and no
    # timer fires, every node would do nothing, so jump to the earliest tick
    # where one does, and there wake, in id order, only the nodes whose timer
    # entry is due and not stale: a stale entry's node is done or has set
    # another timer since. Deliveries come before timers within a tick, and
    # a message sent while tick t is processed is stepped at t + 1 at the
    # earliest, so one node's wake cannot make another's entry stale. A
    # timer set for the very tick it is set at (an equivocator's, as it
    # enters a round) is popped at the next tick. Stale heads are purged
    # before the jump; a listening node always holds a live entry.
    receive, share, listening_get = _HonestNode.receive, _HonestNode.share, listening.get
    heappop = heapq.heappop
    tick = 0
    while True:
        due_nodes = None
        for message, recipients in net.step(tick):
            if sharing and message.kind != "proposal":
                if due_nodes is None:
                    due_nodes = ([node for node in listening.values() if node.next_due <= tick]
                                 if timers[0][0] <= tick else [])
                share(ctx, message, listening, tick, due_nodes)
            else:
                receive(ctx, message, filter(None, map(listening_get, recipients)), tick)
        if timers and timers[0][0] <= tick:
            woken = set()
            while timers and timers[0][0] <= tick:
                due, vid = heappop(timers)
                node = nodes[vid]
                if not (node.done or node.next_due != due):
                    woken.add(vid)
            for vid in sorted(woken):
                nodes[vid].on_tick(tick)
        if not listening:
            break
        due, vid = timers[0]
        while nodes[vid].done or nodes[vid].next_due != due:
            heappop(timers)
            due, vid = timers[0]
        next_tick = net.next_tick
        if next_tick is not None and next_tick < due:
            due = next_tick
        tick = due if due > tick else tick + 1

    outcome = _finish_height(ctx, tick)
    if key is not None:
        roster.replays[key] = KeptHeight(digest, trace.events[start:], outcome, roster.stakes)
    return outcome


def _finish_height(ctx: _HeightContext, end_tick: int) -> RoundOutcome:
    """Record silent validators and the height's end at ``end_tick``; return its outcome.

    Nobody listens here. The commit certificate is the first decider's own
    precommit, if it was for the batch digest, plus the senders of every
    precommit entry of its round and digest queued to it, in flight or not.
    """
    for v in ctx.roster.by_id:
        if v.behavior is Behavior.SILENT:
            ctx.record(end_tick, "fault:non-participation", 0, v.id)

    if ctx.first_decision is not None:
        decide_tick, decided_round, decider, own = ctx.first_decision
        signers = {message.sender for message, group in ctx.network.precommits
                   if message.round == decided_round and message.digest == ctx.digest
                   and decider in group}
        if own:
            signers.add(decider)
        signature = AggregatedSignature(ctx.digest, frozenset(signers),
                                        math.fsum(map(ctx.stakes.get, signers)), ctx.total_stake)
        return RoundOutcome(committed=True, batch_digest=ctx.digest, signature=signature,
                            rounds_used=decided_round + 1, ticks_elapsed=decide_tick)
    ctx.record(end_tick, "no-commit", ctx.max_rounds - 1, "-")
    return RoundOutcome(committed=False, batch_digest=None, signature=None,
                        rounds_used=ctx.max_rounds, ticks_elapsed=end_tick)
