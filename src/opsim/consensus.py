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
between, at which nothing could happen.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import DomainError

# Base per-phase timeout in ticks; doubles every round.
BASE_PHASE_TIMEOUT = 4


def _is_tick_count(value: object) -> bool:
    """True for an int >= 0; ticks are integers, and a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Behavior(Enum):
    HONEST = "honest"
    SILENT = "silent"
    EQUIVOCATING = "equivocating"
    INVALID_PROPOSER = "invalid-proposer"


@dataclass
class ValidatorDescriptor:
    """A staked validator with a fixed behavior for the run."""

    id: str
    stake: float
    behavior: Behavior = Behavior.HONEST
    region_latency: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.behavior, str):
            self.behavior = Behavior(self.behavior)
        if not math.isfinite(self.stake) or self.stake <= 0:
            raise DomainError(f"validator {self.id}: stake must be finite and > 0")
        if not _is_tick_count(self.region_latency):
            raise DomainError(f"validator {self.id}: region_latency must be an integer "
                              f">= 0, got {self.region_latency!r}")


@dataclass(frozen=True)
class AggregatedSignature:
    """Signer set over one digest with its stake tally."""

    batch_digest: str
    signer_set: frozenset[str]
    signed_stake: float
    total_stake: float

    @property
    def valid(self) -> bool:
        return quorum_met(self.signed_stake, self.total_stake)


@dataclass(frozen=True)
class RoundOutcome:
    committed: bool
    batch_digest: str | None
    signature: AggregatedSignature | None
    rounds_used: int
    ticks_elapsed: int


@dataclass(frozen=True)
class PartitionSpec:
    """Validators in ``members`` are cut off from the rest during the range."""

    start_tick: int
    end_tick: int
    members: frozenset[str]


@dataclass(frozen=True)
class NetworkModel:
    drop_probability: float = 0.0
    latency_jitter: int = 0
    rng_seed: int = 0
    partition_schedule: tuple[PartitionSpec, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise DomainError("drop_probability must lie in [0, 1)")
        if not _is_tick_count(self.latency_jitter):
            raise DomainError("latency_jitter must be an integer >= 0, "
                              f"got {self.latency_jitter!r}")


def quorum_met(signed_stake: float, total_stake: float) -> bool:
    """Strict two-thirds rule: signed stake must exceed 2/3 of the total."""
    return 3.0 * signed_stake > 2.0 * total_stake


def batch_digest(batch: Sequence[str]) -> str:
    """Stable digest of a transaction batch."""
    h = hashlib.sha256()
    for tx in batch:
        h.update(str(tx).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class TraceEvent:
    """One protocol event; a sent message is its own event.

    Message kinds are ``"proposal"``, ``"prevote"`` and ``"precommit"``; a
    ``digest`` of None marks a nil vote.
    """

    tick: int
    kind: str
    height: int
    round: int
    sender: str
    digest: str | None

    def __post_init__(self) -> None:
        if self.height < 0 or self.round < 0:
            raise DomainError("height and round must be >= 0")
        if self.kind == "proposal" and self.digest is None:
            raise DomainError("proposals must carry a digest")


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
    deliver-tick order, so ``step`` hands out deliveries in (deliver tick,
    broadcast, recipient id) order. A lossless, jitter-free network delivers
    every recipient at the same tick and draws nothing. Identical seed and
    call sequence yield an identical delivery trace.
    """

    def __init__(self, model: NetworkModel, validators: Sequence[ValidatorDescriptor]):
        self._model = model
        self._latency = {v.id: v.region_latency for v in validators}
        self._ids = tuple(sorted(self._latency))
        self._index = {vid: i for i, vid in enumerate(self._ids)}
        self._rng = random.Random(model.rng_seed)
        self._draws = model.latency_jitter > 0 or model.drop_probability > 0
        # (deliver tick, seq, message, recipients in id order)
        self._queue: list[tuple[int, int, TraceEvent, Sequence[str]]] = []
        self._seq = 0
        self._pending = 0
        self._last_tick = -1

    def broadcast(self, message: TraceEvent,
                  recipients: Iterable[str] | None = None) -> None:
        sender = message.sender
        index = self._index.get(sender)
        if index is None:
            raise DomainError(f"unknown sender {sender}")
        if recipients is None:
            targets: Sequence[str] = self._ids[:index] + self._ids[index + 1:]
        else:
            targets = sorted(set(recipients))
            for recipient in targets:
                if recipient not in self._index:
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
        if self._model.partition_schedule:
            group = [r for r in group
                     if not self._partitioned(message.sender, r, deliver_tick)]
        if group:
            heapq.heappush(self._queue, (deliver_tick, self._seq, message, group))
            self._seq += 1
            self._pending += len(group)

    def _partitioned(self, sender: str, recipient: str, tick: int) -> bool:
        for spec in self._model.partition_schedule:
            if spec.start_tick <= tick < spec.end_tick:
                if (sender in spec.members) != (recipient in spec.members):
                    return True
        return False

    def step(self, tick: int) -> list[tuple[TraceEvent, str]]:
        """(message, recipient) pairs due at or before ``tick``; ticks must not decrease.

        ``run_height`` steps only at event ticks, so one step may cover
        several ticks; a delivery due at a tick already stepped comes out
        at the next step.
        """
        if tick < self._last_tick:
            raise DomainError("gossip steps must use non-decreasing ticks")
        self._last_tick = tick
        queue = self._queue
        delivered: list[tuple[TraceEvent, str]] = []
        while queue and queue[0][0] <= tick:
            _, _, message, group = heapq.heappop(queue)
            delivered.extend([(message, recipient) for recipient in group])
        self._pending -= len(delivered)
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


class _HeightContext:
    """Shared state of one height: roster, stakes, digest, network, first decision."""

    def __init__(self, validators: Sequence[ValidatorDescriptor], digest: str,
                 network: GossipNetwork, max_rounds: int, height: int,
                 trace: EventTrace):
        self.roster = sorted(validators, key=lambda v: (-v.stake, v.id))
        self.stakes = {v.id: v.stake for v in validators}
        self.total_stake = math.fsum(self.stakes.values())
        self.digest = digest
        self.network = network
        self.max_rounds = max_rounds
        self.height = height
        self.trace = trace
        # (tick, round, precommit voters) of the first commit decision. The
        # voters are the decider's live dict, so precommits drained after the
        # decision still count. Holding the node instead would make a
        # node-context reference cycle that outlives the height.
        self.first_decision: tuple[int, int, dict[str, float]] | None = None

    def proposer(self, round_: int) -> ValidatorDescriptor:
        return self.roster[round_ % len(self.roster)]

    def send(self, tick: int, kind: str, round_: int, sender: str, digest: str | None,
             recipients: Iterable[str] | None = None) -> None:
        """Record a message as a trace event and broadcast that event."""
        message = self.trace.record(tick, kind, self.height, round_, sender, digest)
        self.network.broadcast(message, recipients)


class _HonestNode:
    """Protocol-following validator (also used by invalid proposers)."""

    def __init__(self, descriptor: ValidatorDescriptor, ctx: _HeightContext):
        self.d = descriptor
        self.ctx = ctx
        self.round = 0
        self.phase = "propose"
        # Tick at which the phase timer fires; meaningless once done.
        self.next_due = phase_timeout(0)
        self.proposals: dict[int, str] = {}
        # votes[(kind, round, digest)][voter] = the voter's stake.
        self.votes: dict[tuple[str, int, str | None], dict[str, float]] = {}
        self.quorums: set[tuple[str, int, str | None]] = set()

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def start(self, tick: int) -> None:
        self._maybe_propose(tick)
        self._evaluate(tick)

    def on_message(self, msg: TraceEvent, tick: int) -> None:
        # Bookkeeping continues after deciding so the commit certificate can
        # cover precommits that were still in flight at decision time.
        if msg.kind == "proposal":
            if msg.sender == self.ctx.proposer(msg.round).id:
                self.proposals.setdefault(msg.round, msg.digest)
        else:
            self._vote((msg.kind, msg.round, msg.digest), msg.sender)
        if not self.done:
            self._evaluate(tick)

    def on_tick(self, tick: int) -> None:
        if not self.done:
            self._evaluate(tick)

    def _vote(self, key: tuple[str, int, str | None], voter: str) -> None:
        """Tally one vote under its (kind, round, digest) key.

        The key joins ``quorums`` when the vote brings its voters' stake fsum
        over quorum. Votes only accumulate, so a key never leaves
        ``quorums``; fsum is exactly rounded, so membership does not depend
        on the order votes arrived in.

        This counts each sender's first vote of a kind per round, as the
        protocol asks, without a per-sender check: a node hears each sender
        at most once per (kind, round). Honest nodes cast each kind once per
        round, an equivocator sends its two digests to disjoint halves of
        its peers, and the network delivers each queued copy once.
        """
        voters = self.votes.setdefault(key, {})
        voters[voter] = self.ctx.stakes[voter]
        if key not in self.quorums and quorum_met(math.fsum(voters.values()),
                                                  self.ctx.total_stake):
            self.quorums.add(key)

    def _maybe_propose(self, tick: int) -> None:
        if self.ctx.proposer(self.round).id != self.d.id:
            return
        digest = self.ctx.digest
        if self.d.behavior is Behavior.INVALID_PROPOSER:
            digest = f"{self.ctx.digest}!invalid"
            self.ctx.trace.record(tick, "fault:invalid-proposal", self.ctx.height,
                                  self.round, self.d.id, None)
        self.proposals.setdefault(self.round, digest)
        self.ctx.send(tick, "proposal", self.round, self.d.id, digest)

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
        self._vote((kind, self.round, digest), self.d.id)
        self.phase = kind
        self.next_due = tick + phase_timeout(self.round)
        self.ctx.send(tick, kind, self.round, self.d.id, digest)

    def _decide(self, tick: int) -> None:
        self.phase = "done"
        if self.ctx.first_decision is None:
            self.ctx.first_decision = (tick, self.round,
                                       self.votes[("precommit", self.round, self.ctx.digest)])
        self.ctx.trace.record(tick, "commit", self.ctx.height, self.round,
                              self.d.id, self.ctx.digest)

    def _advance(self, tick: int) -> None:
        self.round += 1
        if self.round >= self.ctx.max_rounds:
            self.phase = "done"
            return
        self.phase = "propose"
        self.next_due = tick + phase_timeout(self.round)
        self.ctx.trace.record(tick, "round-start", self.ctx.height, self.round,
                              self.d.id, None)
        self._maybe_propose(tick)


class _EquivocatingNode:
    """Sends conflicting votes to disjoint peer halves on a fixed timetable."""

    def __init__(self, descriptor: ValidatorDescriptor, ctx: _HeightContext):
        self.d = descriptor
        self.ctx = ctx
        self.round = 0
        self.entered = 0
        self.stage = "enter"
        others = sorted(v.id for v in ctx.roster if v.id != descriptor.id)
        split = (len(others) + 1) // 2
        self.first_half = others[:split]
        self.second_half = others[split:]
        self.faulted = False

    @property
    def done(self) -> bool:
        return self.round >= self.ctx.max_rounds

    @property
    def next_due(self) -> int:
        """Tick at which the current stage acts; meaningless once done."""
        if self.stage == "enter":
            return self.entered
        timeout = phase_timeout(self.round)
        return self.entered + (timeout if self.stage == "precommit" else 3 * timeout)

    def on_message(self, msg: TraceEvent, tick: int) -> None:
        pass

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
    if not validators:
        raise DomainError("run_height requires at least one validator")
    ids = [v.id for v in validators]
    if len(set(ids)) != len(ids):
        raise DomainError("validator ids must be unique")
    if not batch:
        raise DomainError("batch must be non-empty")
    if max_rounds < 1:
        raise DomainError("max_rounds must be >= 1")

    trace = trace if trace is not None else EventTrace()
    digest = batch_digest(batch)
    net = GossipNetwork(network, validators)
    ctx = _HeightContext(validators, digest, net, max_rounds, height, trace)
    if ctx.total_stake <= 0:
        raise DomainError("total stake must be > 0")

    nodes: dict[str, _HonestNode | _EquivocatingNode] = {}
    for v in sorted(validators, key=lambda v: v.id):
        if v.behavior in (Behavior.HONEST, Behavior.INVALID_PROPOSER):
            nodes[v.id] = _HonestNode(v, ctx)
        elif v.behavior is Behavior.EQUIVOCATING:
            nodes[v.id] = _EquivocatingNode(v, ctx)
        # Silent validators receive but never act.

    order = list(nodes.values())
    protocol_nodes = [n for n in order if isinstance(n, _HonestNode)]
    max_latency = max(v.region_latency for v in validators)
    horizon = (3 * sum(phase_timeout(r) for r in range(max_rounds))
               + (max_latency + network.latency_jitter + 2) * (3 * max_rounds + 2) + 8)

    def deliver(tick: int) -> None:
        for message, recipient in net.step(tick):
            target = nodes.get(recipient)
            if target is not None:
                target.on_message(message, tick)

    for node in protocol_nodes:
        node.start(0)

    # Next-event time advance: at a tick where no delivery is due and no
    # timer fires, every node would do nothing, so jump to the earliest tick
    # where one does. Deliveries come before timers within a tick, and a
    # message sent while tick t is processed arrives at t + 1 at the earliest.
    tick = last_tick = 0
    while tick <= horizon:
        deliver(tick)
        for node in order:
            node.on_tick(tick)
        last_tick = tick
        if all(n.done for n in protocol_nodes):
            break
        due = min((n.next_due for n in order if not n.done), default=horizon)
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
    round and the batch digest, read after the drain so it covers precommits
    that were still in flight when quorum crossed.
    """
    for v in sorted(ctx.roster, key=lambda v: v.id):
        if v.behavior is Behavior.SILENT:
            ctx.trace.record(last_tick, "fault:non-participation", ctx.height, 0, v.id, None)

    if ctx.first_decision is not None:
        decide_tick, decided_round, voters = ctx.first_decision
        signature = AggregatedSignature(ctx.digest, frozenset(voters),
                                        math.fsum(voters.values()), ctx.total_stake)
        return RoundOutcome(committed=True, batch_digest=ctx.digest, signature=signature,
                            rounds_used=decided_round + 1, ticks_elapsed=decide_tick)
    ctx.trace.record(last_tick, "no-commit", ctx.height, ctx.max_rounds - 1, "-", None)
    return RoundOutcome(committed=False, batch_digest=None, signature=None,
                        rounds_used=ctx.max_rounds, ticks_elapsed=last_tick)
