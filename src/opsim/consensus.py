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
uniform jitter, independent drops, and optional partitions; the whole
simulation is tick driven and deterministic given the seed.
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


class Behavior(Enum):
    HONEST = "honest"
    SILENT = "silent"
    EQUIVOCATING = "equivocating"
    INVALID_PROPOSER = "invalid-proposer"


class MsgKind(Enum):
    PROPOSAL = "proposal"
    PREVOTE = "prevote"
    PRECOMMIT = "precommit"


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
        if self.region_latency < 0:
            raise DomainError(f"validator {self.id}: region_latency must be >= 0")


@dataclass(frozen=True)
class ConsensusMessage:
    """One protocol message; ``batch_digest`` of None marks a nil vote."""

    kind: MsgKind
    height: int
    round: int
    sender: str
    batch_digest: str | None
    send_tick: int

    def __post_init__(self) -> None:
        if self.height < 0 or self.round < 0:
            raise DomainError("height and round must be >= 0")
        if self.kind is MsgKind.PROPOSAL and self.batch_digest is None:
            raise DomainError("proposals must carry a digest")


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
        if self.latency_jitter < 0:
            raise DomainError("latency_jitter must be >= 0")


@dataclass(frozen=True)
class Delivery:
    message: ConsensusMessage
    recipient: str
    deliver_tick: int


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
    tick: int
    kind: str
    height: int
    round: int
    sender: str
    digest: str | None


@dataclass(frozen=True)
class FaultEvent:
    tick: int
    validator: str
    kind: str
    height: int
    round: int


class EventTrace:
    """Accumulates protocol events, fault records, and commit decisions."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.faults: list[FaultEvent] = []
        self.decisions: dict[str, str] = {}

    def record(self, tick: int, kind: str, height: int, round_: int,
               sender: str, digest: str | None) -> None:
        self.events.append(TraceEvent(tick, kind, height, round_, sender, digest))

    def record_fault(self, tick: int, validator: str, kind: str,
                     height: int, round_: int) -> None:
        self.faults.append(FaultEvent(tick, validator, kind, height, round_))
        self.record(tick, f"fault:{kind}", height, round_, validator, None)

    def record_decision(self, validator: str, digest: str) -> None:
        self.decisions.setdefault(validator, digest)

    def to_lines(self) -> list[str]:
        return [
            f"{e.tick},{e.kind},{e.height},{e.round},{e.sender},{e.digest or '-'}"
            for e in self.events
        ]


class GossipNetwork:
    """Seeded fan-out delivery between validators.

    Every broadcast schedules one delivery per recipient at
    send_tick + sender latency + jitter, independently dropped with the
    model's probability. Identical seed and call sequence yield an
    identical delivery trace.
    """

    def __init__(self, model: NetworkModel, validators: Sequence[ValidatorDescriptor]):
        self._model = model
        self._latency = {v.id: v.region_latency for v in validators}
        self._ids = sorted(self._latency)
        self._rng = random.Random(model.rng_seed)
        self._queue: list[tuple[int, int, Delivery]] = []
        self._seq = 0
        self._last_tick = -1

    def broadcast(self, message: ConsensusMessage,
                  recipients: Iterable[str] | None = None) -> None:
        if message.sender not in self._latency:
            raise DomainError(f"unknown sender {message.sender}")
        targets = sorted(set(recipients) if recipients is not None else set(self._ids))
        targets = [t for t in targets if t != message.sender]
        for recipient in targets:
            jitter = self._rng.randint(0, self._model.latency_jitter)
            dropped = self._rng.random() < self._model.drop_probability
            deliver_tick = message.send_tick + self._latency[message.sender] + jitter
            if dropped or self._partitioned(message.sender, recipient, deliver_tick):
                continue
            heapq.heappush(self._queue, (deliver_tick, self._seq,
                                         Delivery(message, recipient, deliver_tick)))
            self._seq += 1

    def _partitioned(self, sender: str, recipient: str, tick: int) -> bool:
        for spec in self._model.partition_schedule:
            if spec.start_tick <= tick < spec.end_tick:
                if (sender in spec.members) != (recipient in spec.members):
                    return True
        return False

    def step(self, tick: int) -> list[Delivery]:
        """Deliveries due at or before ``tick``; ticks must not decrease."""
        if tick < self._last_tick:
            raise DomainError("gossip steps must use non-decreasing ticks")
        self._last_tick = tick
        delivered = []
        while self._queue and self._queue[0][0] <= tick:
            delivered.append(heapq.heappop(self._queue)[2])
        return delivered

    @property
    def pending(self) -> int:
        return len(self._queue)


def aggregate_signature(precommits: Iterable[ConsensusMessage],
                        validators: Sequence[ValidatorDescriptor], digest: str,
                        trace: EventTrace | None = None) -> AggregatedSignature:
    """Collect distinct precommit senders matching ``digest`` into a signature.

    Precommits must share one (height, round). Messages from unknown
    validators are ignored after recording a protocol fault; duplicate
    senders count once.
    """
    stakes = {v.id: v.stake for v in validators}
    total = math.fsum(stakes.values())
    if total <= 0:
        raise DomainError("aggregate_signature requires positive total stake")

    level: tuple[int, int] | None = None
    signers: set[str] = set()
    for msg in precommits:
        if msg.kind is not MsgKind.PRECOMMIT:
            raise DomainError("aggregate_signature accepts precommit messages only")
        if level is None:
            level = (msg.height, msg.round)
        elif (msg.height, msg.round) != level:
            raise DomainError("precommits span different height/round")
        if msg.sender not in stakes:
            if trace is not None:
                trace.record_fault(msg.send_tick, msg.sender, "unknown-validator",
                                   msg.height, msg.round)
            continue
        if msg.batch_digest == digest:
            signers.add(msg.sender)

    signed = math.fsum(stakes[s] for s in signers)
    return AggregatedSignature(digest, frozenset(signers), signed, total)


def phase_timeout(round_: int) -> int:
    return BASE_PHASE_TIMEOUT << round_


class _HeightContext:
    """Shared state of one height: roster, digest, network, tallies."""

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
        self.decisions: list[tuple[int, str, str, int, AggregatedSignature]] = []

    def proposer(self, round_: int) -> ValidatorDescriptor:
        return self.roster[round_ % len(self.roster)]

    def vote_stake(self, votes: dict[str, str | None], digest: str | None) -> float:
        return math.fsum(self.stakes[s] for s, vote in votes.items() if vote == digest)

    def has_quorum(self, votes: dict[str, str | None], digest: str | None) -> bool:
        return quorum_met(self.vote_stake(votes, digest), self.total_stake)


class _HonestNode:
    """Protocol-following validator (also used by invalid proposers)."""

    def __init__(self, descriptor: ValidatorDescriptor, ctx: _HeightContext):
        self.d = descriptor
        self.ctx = ctx
        self.round = 0
        self.phase = "propose"
        self.deadline = phase_timeout(0)
        self.proposals: dict[int, str] = {}
        self.prevotes: dict[int, dict[str, str | None]] = {}
        self.precommits: dict[int, dict[str, str | None]] = {}
        self.precommit_msgs: dict[int, dict[str, ConsensusMessage]] = {}
        self.decided = False
        self.decided_round: int | None = None

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def start(self, tick: int) -> None:
        self._maybe_propose(tick)
        self._evaluate(tick)

    def on_message(self, msg: ConsensusMessage, tick: int) -> None:
        # Bookkeeping continues after deciding so the final signature can
        # cover precommits that were still in flight at decision time.
        if msg.kind is MsgKind.PROPOSAL:
            if msg.sender == self.ctx.proposer(msg.round).id:
                self.proposals.setdefault(msg.round, msg.batch_digest)
        elif msg.kind is MsgKind.PREVOTE:
            self.prevotes.setdefault(msg.round, {}).setdefault(msg.sender, msg.batch_digest)
        elif msg.kind is MsgKind.PRECOMMIT:
            self.precommits.setdefault(msg.round, {}).setdefault(msg.sender, msg.batch_digest)
            self.precommit_msgs.setdefault(msg.round, {}).setdefault(msg.sender, msg)
        if not self.done:
            self._evaluate(tick)

    def on_tick(self, tick: int) -> None:
        if not self.done:
            self._evaluate(tick)

    def _maybe_propose(self, tick: int) -> None:
        if self.ctx.proposer(self.round).id != self.d.id:
            return
        digest = self.ctx.digest
        if self.d.behavior is Behavior.INVALID_PROPOSER:
            digest = f"{self.ctx.digest}!invalid"
            self.ctx.trace.record_fault(tick, self.d.id, "invalid-proposal",
                                        self.ctx.height, self.round)
        msg = ConsensusMessage(MsgKind.PROPOSAL, self.ctx.height, self.round,
                               self.d.id, digest, tick)
        self.proposals.setdefault(self.round, digest)
        self.ctx.trace.record(tick, "proposal", self.ctx.height, self.round,
                              self.d.id, digest)
        self.ctx.network.broadcast(msg)

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
            self._cast(MsgKind.PREVOTE, digest if digest == self.ctx.digest else None, tick)
        elif tick >= self.deadline:
            self._cast(MsgKind.PREVOTE, None, tick)

    def _evaluate_prevote(self, tick: int) -> None:
        votes = self.prevotes.get(self.round, {})
        validated = self.proposals.get(self.round) == self.ctx.digest
        if validated and self.ctx.has_quorum(votes, self.ctx.digest):
            self._cast(MsgKind.PRECOMMIT, self.ctx.digest, tick)
        elif self.ctx.has_quorum(votes, None) or tick >= self.deadline:
            self._cast(MsgKind.PRECOMMIT, None, tick)

    def _evaluate_precommit(self, tick: int) -> None:
        votes = self.precommits.get(self.round, {})
        validated = self.proposals.get(self.round) == self.ctx.digest
        if validated and self.ctx.has_quorum(votes, self.ctx.digest):
            self._decide(tick)
        elif self.ctx.has_quorum(votes, None) or tick >= self.deadline:
            self._advance(tick)

    def _cast(self, kind: MsgKind, digest: str | None, tick: int) -> None:
        msg = ConsensusMessage(kind, self.ctx.height, self.round, self.d.id, digest, tick)
        if kind is MsgKind.PREVOTE:
            self.prevotes.setdefault(self.round, {})[self.d.id] = digest
            self.phase = "prevote"
        else:
            self.precommits.setdefault(self.round, {})[self.d.id] = digest
            self.precommit_msgs.setdefault(self.round, {})[self.d.id] = msg
            self.phase = "precommit"
        self.deadline = tick + phase_timeout(self.round)
        self.ctx.trace.record(tick, kind.value, self.ctx.height, self.round,
                              self.d.id, digest)
        self.ctx.network.broadcast(msg)

    def _decide(self, tick: int) -> None:
        matching = [m for _, m in sorted(self.precommit_msgs.get(self.round, {}).items())
                    if m.batch_digest == self.ctx.digest]
        signature = aggregate_signature(matching, self.ctx.roster, self.ctx.digest,
                                        self.ctx.trace)
        self.decided = True
        self.decided_round = self.round
        self.phase = "done"
        self.ctx.decisions.append((tick, self.d.id, self.ctx.digest, self.round, signature))
        self.ctx.trace.record(tick, "commit", self.ctx.height, self.round,
                              self.d.id, self.ctx.digest)
        self.ctx.trace.record_decision(self.d.id, self.ctx.digest)

    def _advance(self, tick: int) -> None:
        self.round += 1
        if self.round >= self.ctx.max_rounds:
            self.phase = "done"
            return
        self.phase = "propose"
        self.deadline = tick + phase_timeout(self.round)
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

    def on_message(self, msg: ConsensusMessage, tick: int) -> None:
        pass

    def on_tick(self, tick: int) -> None:
        if self.done:
            return
        if self.stage == "enter" and tick >= self.entered:
            if not self.faulted:
                self.ctx.trace.record_fault(tick, self.d.id, "equivocation",
                                            self.ctx.height, self.round)
                self.faulted = True
            if self.ctx.proposer(self.round).id == self.d.id:
                self._split_send(MsgKind.PROPOSAL, tick)
            self._split_send(MsgKind.PREVOTE, tick)
            self.stage = "precommit"
        elif self.stage == "precommit" and tick >= self.entered + phase_timeout(self.round):
            self._split_send(MsgKind.PRECOMMIT, tick)
            self.stage = "advance"
        elif self.stage == "advance" and tick >= self.entered + 3 * phase_timeout(self.round):
            self.round += 1
            self.entered = tick
            self.stage = "enter"

    def _split_send(self, kind: MsgKind, tick: int) -> None:
        forged = f"{self.ctx.digest}#forged:{self.d.id}:{self.round}"
        for digest, half in ((self.ctx.digest, self.first_half), (forged, self.second_half)):
            if not half:
                continue
            msg = ConsensusMessage(kind, self.ctx.height, self.round, self.d.id,
                                   digest, tick)
            self.ctx.trace.record(tick, kind.value, self.ctx.height, self.round,
                                  self.d.id, digest)
            self.ctx.network.broadcast(msg, recipients=half)


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
    total = math.fsum(v.stake for v in validators)
    if total <= 0:
        raise DomainError("total stake must be > 0")

    trace = trace if trace is not None else EventTrace()
    digest = batch_digest(batch)
    net = GossipNetwork(network, validators)
    ctx = _HeightContext(validators, digest, net, max_rounds, height, trace)

    nodes: dict[str, _HonestNode | _EquivocatingNode] = {}
    for v in sorted(validators, key=lambda v: v.id):
        if v.behavior in (Behavior.HONEST, Behavior.INVALID_PROPOSER):
            nodes[v.id] = _HonestNode(v, ctx)
        elif v.behavior is Behavior.EQUIVOCATING:
            nodes[v.id] = _EquivocatingNode(v, ctx)
        # Silent validators receive but never act.

    protocol_nodes = [n for n in nodes.values() if isinstance(n, _HonestNode)]
    max_latency = max(v.region_latency for v in validators)
    horizon = (3 * sum(phase_timeout(r) for r in range(max_rounds))
               + (max_latency + network.latency_jitter + 2) * (3 * max_rounds + 2) + 8)

    for node in (nodes[i] for i in sorted(nodes)):
        if isinstance(node, _HonestNode):
            node.start(0)

    tick = 0
    last_tick = 0
    while tick <= horizon:
        for delivery in net.step(tick):
            target = nodes.get(delivery.recipient)
            if target is not None:
                target.on_message(delivery.message, tick)
        for node_id in sorted(nodes):
            nodes[node_id].on_tick(tick)
        last_tick = tick
        if protocol_nodes and all(n.done for n in protocol_nodes):
            break
        if not protocol_nodes:
            break
        tick += 1

    # Drain in-flight messages so the decider's view covers every precommit
    # that was still traveling when quorum crossed.
    while net.pending > 0 and tick <= horizon:
        tick += 1
        for delivery in net.step(tick):
            target = nodes.get(delivery.recipient)
            if target is not None:
                target.on_message(delivery.message, tick)

    for v in sorted(validators, key=lambda v: v.id):
        if v.behavior is Behavior.SILENT:
            trace.record_fault(last_tick, v.id, "non-participation", height, 0)

    if ctx.decisions:
        decide_tick, decider_id, decided_digest, decided_round, signature = ctx.decisions[0]
        decider = nodes[decider_id]
        if isinstance(decider, _HonestNode) and decider.decided_round is not None:
            matching = [m for _, m in
                        sorted(decider.precommit_msgs.get(decided_round, {}).items())
                        if m.batch_digest == decided_digest]
            signature = aggregate_signature(matching, ctx.roster, decided_digest)
        return RoundOutcome(committed=True, batch_digest=decided_digest,
                            signature=signature, rounds_used=decided_round + 1,
                            ticks_elapsed=decide_tick)
    trace.record(last_tick, "no-commit", height, max_rounds - 1, "-", None)
    return RoundOutcome(committed=False, batch_digest=None, signature=None,
                        rounds_used=max_rounds, ticks_elapsed=last_tick)
