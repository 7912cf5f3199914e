import gc
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import types
import weakref
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bench_inputs import WORKLOADS
from opsim import (AggregatedSignature, Behavior, DomainError, EventTrace, GossipNetwork,
                   NetworkModel, PartitionSpec, Roster, TraceEvent, ValidatorDescriptor,
                   batch_digest, quorum_met, run_height)
from opsim import consensus, harness, load_config, run_simulation, write_report
from opsim import trace as trace_module
from opsim.trace import KeptHeight
from oracles import (PerRecipientGossip, ReferenceNode, run_height_ticked, stake_quorum,
                     summed_timeouts)

LOSSLESS = NetworkModel(drop_probability=0.0, latency_jitter=0, rng_seed=1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def flat(entries):
    """``GossipNetwork.step``'s (message, recipients) entries as (message, recipient) pairs.

    Each entry must name at least one recipient, in id order.
    """
    assert all(group and list(group) == sorted(set(group)) for _, group in entries)
    return [(message, recipient) for message, group in entries for recipient in group]


def make_validators(behaviors, stakes=None, latency=1):
    stakes = stakes or [10.0] * len(behaviors)
    return [ValidatorDescriptor(id=f"v{i}", stake=stakes[i], behavior=b,
                                region_latency=latency)
            for i, b in enumerate(behaviors)]


class TestTypes:
    def test_validator_requires_positive_stake(self):
        with pytest.raises(DomainError):
            ValidatorDescriptor(id="v", stake=0.0)

    def test_nil_proposal_rejected(self):
        with pytest.raises(DomainError):
            TraceEvent(0, "proposal", 0, 0, "v", None)

    def test_nil_votes_allowed(self):
        msg = TraceEvent(0, "prevote", 0, 0, "v", None)
        assert msg.digest is None

    @pytest.mark.parametrize("height, round_", [(-1, 0), (0, -1)])
    def test_negative_height_or_round_rejected(self, height, round_):
        with pytest.raises(DomainError):
            TraceEvent(0, "prevote", height, round_, "v", "d")

    def test_keyword_construction_is_checked(self):
        with pytest.raises(DomainError, match="proposals must carry a digest"):
            TraceEvent(tick=0, kind="proposal", height=0, round=0, sender="v", digest=None)
        event = TraceEvent(tick=4, kind="proposal", height=1, round=2, sender="v", digest="d")
        assert (event.tick, event.kind, event.height, event.round, event.sender,
                event.digest) == (4, "proposal", 1, 2, "v", "d")

    def test_event_cannot_be_assigned_to(self):
        event = TraceEvent(0, "prevote", 0, 0, "v", "d")
        with pytest.raises(AttributeError):
            event.digest = None
        with pytest.raises(AttributeError):
            event.note = "added"
        assert event.digest == "d"

    def test_event_is_hashable_and_equal_by_value(self):
        first = TraceEvent(3, "precommit", 1, 2, "v", None)
        second = TraceEvent(3, "precommit", 1, 2, "v", None)
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != TraceEvent(3, "precommit", 1, 2, "v", "d")

    def test_network_model_bounds(self):
        with pytest.raises(DomainError):
            NetworkModel(drop_probability=1.0)
        with pytest.raises(DomainError):
            NetworkModel(latency_jitter=-1)
        for seed in (1.5, True, "1", None):
            with pytest.raises(DomainError, match="^rng_seed must be an integer"):
                NetworkModel(rng_seed=seed)
        # Each entry must be a (start, end, members) triple with integer,
        # non-bool ticks and hashable members.
        for schedule in ([(0, 5)], [(0, 5, {"v0"}, 1)], [5], 5, None, [(0.0, 5, {"v0"})],
                         [(0, True, {"v0"})], [(0, "5", {"v0"})], [(0, 5, 1)],
                         [(0, 5, [["v0"]])]):
            with pytest.raises(DomainError, match="^partition_schedule must hold"):
                NetworkModel(partition_schedule=schedule)

    def test_network_model_makes_its_schedule_canonical(self):
        model = NetworkModel(partition_schedule=[[3, 9, ["v1", "v0", "v1"]], (7, 2, set())])
        # A window never in force is kept; it cuts nothing.
        assert model.partition_schedule == (PartitionSpec(3, 9, frozenset({"v0", "v1"})),
                                            PartitionSpec(7, 2, frozenset()))
        assert all(type(spec) is PartitionSpec and type(spec.members) is frozenset
                   for spec in model.partition_schedule)
        assert model == NetworkModel(partition_schedule=model.partition_schedule)
        assert model._replace(rng_seed=4).partition_schedule == model.partition_schedule
        hash(model)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
    def test_latency_jitter_must_be_an_integer(self, value):
        with pytest.raises(DomainError, match="latency_jitter must be an integer"):
            NetworkModel(latency_jitter=value)

    @pytest.mark.parametrize("value", [-1, 1.5, 1.0, False, "1", None])
    def test_region_latency_must_be_a_nonnegative_integer(self, value):
        with pytest.raises(DomainError, match="validator v: region_latency must be an integer"):
            ValidatorDescriptor(id="v", stake=1.0, region_latency=value)


@st.composite
def gossip_runs(draw):
    """A network and its calls: ("broadcast", sender, recipients) or ("step", advance, None).

    ``recipients`` is None (everyone) or a list that may repeat ids and name
    the sender.
    """
    n = draw(st.integers(1, 12))
    ids = [f"v{i}" for i in range(n)]
    validators = [ValidatorDescriptor(id=vid, stake=1.0, region_latency=draw(st.integers(0, 3)))
                  for vid in ids]
    # Up to three windows that may overlap, start before the first delivery
    # or end after the last.
    partitions = tuple(
        PartitionSpec(start, start + length, frozenset(members))
        for start, length, members in draw(st.lists(
            st.tuples(st.integers(-5, 60), st.integers(1, 40),
                      st.sets(st.sampled_from(ids), min_size=1)), max_size=3)))
    model = NetworkModel(drop_probability=draw(st.just(0.0) | st.floats(0.0, 0.5)),
                         latency_jitter=draw(st.integers(0, 3)),
                         rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
                         partition_schedule=partitions)
    broadcast = st.tuples(st.just("broadcast"), st.sampled_from(ids),
                          st.none() | st.lists(st.sampled_from(ids), max_size=n + 2))
    step = st.tuples(st.just("step"), st.integers(0, 3), st.none())
    return validators, model, draw(st.lists(broadcast | step, max_size=40))


def fixed_gossip_run(latency_jitter, drop_probability, partition_schedule=()):
    """Eight validators and 200 seeded calls over a network with the given draws."""
    rng = random.Random(7)
    ids = [f"v{i}" for i in range(8)]
    validators = [ValidatorDescriptor(id=vid, stake=1.0, region_latency=rng.randint(0, 3))
                  for vid in ids]
    model = NetworkModel(drop_probability=drop_probability, latency_jitter=latency_jitter,
                         rng_seed=11, partition_schedule=partition_schedule)
    calls = [("broadcast", rng.choice(ids),
              None if rng.random() < 0.7 else rng.sample(ids, rng.randint(0, 8)))
             if rng.random() < 0.6 else ("step", rng.randint(0, 3), None)
             for _ in range(200)]
    return validators, model, calls


class TestDigests:
    """opsim's SHA-256 (a built-in module where there is one) is hashlib's."""

    @pytest.mark.parametrize("data", [b"", b"abc", bytes(range(256)) * 4097],
                             ids=["empty", "short", "over-1MiB"])
    def test_sha256_matches_hashlib(self, data):
        assert consensus.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        assert consensus.sha256(data).digest() == hashlib.sha256(data).digest()

    def test_sha256_stream_matches_hashlib(self):
        ours, reference = consensus.sha256(), hashlib.sha256()
        for i in range(5000):
            chunk = f"{i},prevote,{i % 7},0,v{i % 13},{i:x}\n".encode() * (i % 5)
            ours.update(chunk)
            reference.update(chunk)
        assert ours.hexdigest() == reference.hexdigest()

    @pytest.mark.parametrize("batch", [[], ["tx"], ["tx:0:0:0", "tx:0:0:1", ""],
                                       [f"tx:{j}" for j in range(1000)], [7, "é"],
                                       ["a\x00b", "\x00", "c"],
                                       [f"tx:3:5:{j}" for j in range(64)]])
    def test_batch_digest_matches_hashlib_reference(self, batch):
        reference = hashlib.sha256()
        for tx in batch:
            reference.update(str(tx).encode())
            reference.update(b"\x00")
        assert batch_digest(batch) == reference.hexdigest()[:16]


class TestGossip:
    @settings(max_examples=200, deadline=None)
    @given(run=gossip_runs())
    # Skipping the draws is exact only when both are zero: with either one
    # nonzero, the stream the other reads depends on them.
    @example(run=fixed_gossip_run(latency_jitter=0, drop_probability=0.3))
    @example(run=fixed_gossip_run(latency_jitter=2, drop_probability=0.0))
    @example(run=fixed_gossip_run(latency_jitter=0, drop_probability=0.0))
    # Three overlapping windows, the first open before tick 0: a recipient
    # must be on the sender's side of every window in force.
    @example(run=fixed_gossip_run(latency_jitter=1, drop_probability=0.1, partition_schedule=(
        PartitionSpec(-3, 40, frozenset({"v0", "v1", "v2"})),
        PartitionSpec(20, 90, frozenset({"v1", "v3"})),
        PartitionSpec(30, 35, frozenset({"v4"})))))
    def test_matches_per_recipient_oracle(self, run):
        validators, model, calls = run
        net, oracle = GossipNetwork(model, validators), PerRecipientGossip(model, validators)
        tick = 0
        for i, (call, arg, recipients) in enumerate(calls + [("step", 30, None)]):
            if call == "broadcast":
                message = TraceEvent(tick, "prevote", 0, 0, arg, f"m{i}")
                net.broadcast(message, recipients)
                oracle.broadcast(message, recipients)
            else:
                tick += arg
                assert flat(net.step(tick)) == oracle.step(tick)
            assert net.pending == oracle.pending
            assert net.next_tick == oracle.next_tick
        assert net.pending == 0

    @staticmethod
    def lossless_net(*latencies):
        """A lossless network over v0, v1, ... with these region latencies."""
        return GossipNetwork(LOSSLESS, [ValidatorDescriptor(f"v{i}", 10.0, region_latency=latency)
                                        for i, latency in enumerate(latencies)])

    @staticmethod
    def listed(entries):
        return [(message, list(group)) for message, group in entries]

    def test_one_step_over_several_ticks_keeps_tick_then_push_order(self):
        net = self.lossless_net(3, 1, 2)
        sent = [TraceEvent(0, "prevote", 0, 0, sender, "d") for sender in ("v0", "v1", "v2")]
        sent += [TraceEvent(0, "precommit", 0, 0, sender, "d") for sender in ("v1", "v0")]
        for message in sent:
            net.broadcast(message)
        v0, v1, v2, v1_late, v0_late = sent
        assert self.listed(net.step(3)) == [
            (v1, ["v0", "v2"]), (v1_late, ["v0", "v2"]),  # due 1
            (v2, ["v0", "v1"]),                            # due 2
            (v0, ["v1", "v2"]), (v0_late, ["v1", "v2"])]   # due 3

    def test_entry_due_at_a_stepped_tick_comes_out_next_ahead_of_later_ones(self):
        net = self.lossless_net(0, 0, 2)
        later = TraceEvent(3, "prevote", 0, 0, "v2", "d")  # due 5
        net.broadcast(later)
        assert net.step(4) == []
        now = TraceEvent(4, "prevote", 0, 0, "v0", "d")  # due 4, already stepped
        net.broadcast(now)
        assert net.next_tick == 4
        assert self.listed(net.step(4)) == [(now, ["v1", "v2"])]
        net.broadcast(TraceEvent(4, "prevote", 0, 0, "v1", "d"))  # due 4 again
        net.broadcast(TraceEvent(4, "precommit", 0, 0, "v2", "d"))  # due 6
        assert [(m.sender, m.tick) for m, _ in net.step(5)] == [("v1", 4), ("v2", 3)]
        assert net.next_tick == 6

    def test_next_tick_and_pending_after_a_partial_step_and_once_empty(self):
        net = self.lossless_net(3, 1, 2)
        net.broadcast(TraceEvent(0, "prevote", 0, 0, "v0", "d"))  # 2 due at 3
        net.broadcast(TraceEvent(0, "prevote", 0, 0, "v1", "d"), ["v2"])  # 1 due at 1
        net.broadcast(TraceEvent(0, "prevote", 0, 0, "v2", "d"))  # 2 due at 2
        assert (net.next_tick, net.pending) == (1, 5)
        assert len(net.step(2)) == 2
        assert (net.next_tick, net.pending) == (3, 2)
        assert len(net.step(3)) == 1
        assert (net.next_tick, net.pending) == (None, 0)
        assert net.step(9) == []
        assert (net.next_tick, net.pending) == (None, 0)

    def test_lossless_unit_latency_delivers_once(self):
        validators = make_validators(["honest"] * 3, latency=1)
        net = GossipNetwork(LOSSLESS, validators)
        msg = TraceEvent(5, "prevote", 0, 0, "v0", "d")
        assert net.next_tick is None
        net.broadcast(msg)
        assert net.next_tick == 6
        assert net.step(5) == []
        assert [(message, list(group)) for message, group in net.step(6)] == [
            (msg, ["v1", "v2"])]
        assert net.next_tick is None
        assert net.step(7) == []

    def test_near_certain_drop_blocks_commit(self):
        model = NetworkModel(drop_probability=1 - 1e-15, rng_seed=3)
        validators = make_validators(["honest"] * 4)
        outcome = run_height(validators, ["tx"], model, max_rounds=3)
        assert not outcome.committed

    def test_same_seed_identical_trace(self):
        model = NetworkModel(drop_probability=0.4, latency_jitter=2, rng_seed=99)
        traces = []
        for _ in range(2):
            net = GossipNetwork(model, make_validators(["honest"] * 4))
            log = []
            for tick in range(3):
                net.broadcast(TraceEvent(tick, "prevote", 0, 0, f"v{tick}", "d"))
                log.extend((recipient, tick) for _, recipient in flat(net.step(tick)))
            for tick in range(3, 12):
                log.extend((recipient, tick) for _, recipient in flat(net.step(tick)))
            traces.append(log)
        assert traces[0] == traces[1]

    def test_partition_blocks_cross_traffic(self):
        model = NetworkModel(
            rng_seed=0,
            partition_schedule=(PartitionSpec(0, 100, frozenset({"v0"})),))
        validators = make_validators(["honest"] * 3, latency=1)
        net = GossipNetwork(model, validators)
        net.broadcast(TraceEvent(0, "prevote", 0, 0, "v0", "d"))
        net.broadcast(TraceEvent(0, "prevote", 0, 0, "v1", "d"))
        delivered = []
        for tick in range(4):
            delivered.extend(flat(net.step(tick)))
        pairs = {(message.sender, recipient) for message, recipient in delivered}
        assert ("v0", "v1") not in pairs and ("v0", "v2") not in pairs
        assert ("v1", "v2") in pairs and ("v1", "v0") not in pairs

    def test_unknown_recipient_rejected(self):
        net = GossipNetwork(LOSSLESS, make_validators(["honest"] * 2))
        with pytest.raises(DomainError, match="ghost"):
            net.broadcast(TraceEvent(0, "prevote", 0, 0, "v0", "d"),
                          recipients=["v1", "ghost"])
        assert net.pending == 0

    def test_decreasing_tick_rejected(self):
        net = GossipNetwork(LOSSLESS, make_validators(["honest"] * 2))
        net.step(5)
        with pytest.raises(DomainError):
            net.step(4)

    def test_draw_free_network_builds_no_generator(self, monkeypatch):
        seeds = []

        def generator(seed):
            seeds.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(consensus, "random", types.SimpleNamespace(Random=generator))
        validators = make_validators(["honest"] * 10 + ["equivocating", "silent"])
        partitioned = NetworkModel(rng_seed=5, partition_schedule=(
            PartitionSpec(0, 9, frozenset({"v0", "v1"})),))
        for model in (LOSSLESS, partitioned):
            assert not model.draws
            net = GossipNetwork(model, validators)
            net.broadcast(TraceEvent(0, "prevote", 0, 0, "v2", "d"))
            assert run_height(validators, ["tx"], model, max_rounds=3).committed
        assert seeds == []
        # The patch is live: a network that draws builds its generator.
        for model in (NetworkModel(latency_jitter=1, rng_seed=8),
                      NetworkModel(drop_probability=0.1, rng_seed=9)):
            assert model.draws
            GossipNetwork(model, validators)
        assert seeds == [8, 9]


class TestAggregateSignature:
    def _signature(self, validators, senders):
        stakes = {v.id: v.stake for v in validators}
        return AggregatedSignature("d", frozenset(senders),
                                   math.fsum(stakes[s] for s in senders),
                                   math.fsum(stakes.values()))

    def test_three_quarters_valid(self):
        sig = self._signature(make_validators(["honest"] * 4), ["v0", "v1", "v2"])
        assert sig.signed_stake == pytest.approx(30.0)
        assert sig.total_stake == pytest.approx(40.0)
        assert sig.valid

    def test_empty_precommits_invalid(self):
        sig = self._signature(make_validators(["honest"] * 4), [])
        assert sig.signed_stake == 0.0
        assert not sig.valid

    def test_half_stake_invalid(self):
        assert not self._signature(make_validators(["honest"] * 4), ["v0", "v1"]).valid

    def test_subset_validity_matches_stake_rule_exhaustively(self):
        stakes = [17.0, 11.0, 7.0, 5.0, 3.0, 2.0]
        validators = make_validators(["honest"] * 6, stakes=stakes)
        total = sum(stakes)
        for mask in range(2 ** 6):
            senders = [f"v{i}" for i in range(6) if mask & (1 << i)]
            expected = stake_quorum(sum(stakes[i] for i in range(6)
                                        if mask & (1 << i)), total)
            assert self._signature(validators, senders).valid == expected


class TestRunHeight:
    def test_unanimous_commit_round_zero(self):
        validators = make_validators(["honest"] * 4)
        outcome = run_height(validators, ["tx1", "tx2"], LOSSLESS, max_rounds=10)
        assert outcome.committed
        assert outcome.rounds_used == 1
        assert outcome.signature.signer_set == frozenset({"v0", "v1", "v2", "v3"})
        assert outcome.batch_digest == batch_digest(["tx1", "tx2"])

    def test_one_silent_commits_with_three_quarters(self):
        validators = make_validators(["honest", "honest", "honest", "silent"])
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=10)
        assert outcome.committed
        assert outcome.signature.signed_stake / outcome.signature.total_stake \
            == pytest.approx(0.75)

    def test_two_silent_cannot_commit(self):
        validators = make_validators(["honest", "honest", "silent", "silent"])
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=3)
        assert not outcome.committed
        assert outcome.signature is None
        assert outcome.rounds_used == 3

    def test_silent_proposer_commits_next_round(self):
        validators = make_validators(["silent", "honest", "honest", "honest"])
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=10)
        assert outcome.committed
        assert outcome.rounds_used == 2

    def test_invalid_proposer_skipped(self):
        validators = make_validators(
            ["invalid-proposer", "honest", "honest", "honest"])
        trace = EventTrace()
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=10,
                             trace=trace)
        assert outcome.committed
        assert outcome.rounds_used == 2
        assert any(f.kind == "fault:invalid-proposal" for f in trace.faults)

    def test_invalid_proposer_fault_recorded_at_each_proposal(self):
        # With more rounds than validators, b proposes in rounds 2 and 5 and
        # records a fault at each, while silent s is recorded once: a run
        # slashes b twice for this height.
        validators = [ValidatorDescriptor("a", 1.0),
                      ValidatorDescriptor("b", 1.0, "invalid-proposer"),
                      ValidatorDescriptor("s", 10.0, "silent")]
        trace = EventTrace()
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=6, trace=trace)
        assert not outcome.committed
        proposed = [e.round for e in trace.events if e.kind == "proposal" and e.sender == "b"]
        assert proposed == [2, 5]
        assert [(f.kind, f.round, f.sender) for f in trace.faults] == [
            ("fault:invalid-proposal", 2, "b"), ("fault:invalid-proposal", 5, "b"),
            ("fault:non-participation", 0, "s")]

    def test_single_validator_commits_alone(self):
        outcome = run_height(make_validators(["honest"]), ["tx"], LOSSLESS, 5)
        assert outcome.committed
        assert outcome.signature.signed_stake == pytest.approx(10.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            run_height(make_validators(["honest"]), [], LOSSLESS, 5)

    def test_no_validators_rejected(self):
        with pytest.raises(DomainError):
            run_height([], ["tx"], LOSSLESS, 5)

    def test_duplicate_ids_rejected(self):
        vals = [ValidatorDescriptor("v", 1.0), ValidatorDescriptor("v", 2.0)]
        with pytest.raises(DomainError):
            run_height(vals, ["tx"], LOSSLESS, 5)

    def test_deterministic_outcome_and_trace(self):
        model = NetworkModel(drop_probability=0.25, latency_jitter=2, rng_seed=42)
        validators = make_validators(
            ["honest", "honest", "equivocating", "honest", "silent"],
            stakes=[12.0, 9.0, 7.0, 6.0, 4.0])
        runs = []
        for _ in range(2):
            trace = EventTrace()
            outcome = run_height(validators, ["a", "b"], model, max_rounds=4,
                                 trace=trace)
            runs.append((outcome, trace.to_lines()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_seed_changes_trace(self):
        validators = make_validators(["honest"] * 4)
        lines = []
        for seed in (1, 2):
            model = NetworkModel(drop_probability=0.3, rng_seed=seed)
            trace = EventTrace()
            run_height(validators, ["tx"], model, max_rounds=4, trace=trace)
            lines.append(trace.to_lines())
        assert lines[0] != lines[1]

    def test_equivocator_fault_recorded(self):
        validators = make_validators(["honest", "honest", "honest", "equivocating"])
        trace = EventTrace()
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=5, trace=trace)
        assert outcome.committed
        assert any(f.kind == "fault:equivocation" and f.sender == "v3"
                   for f in trace.faults)

    def test_silent_fault_recorded(self):
        validators = make_validators(["honest", "honest", "honest", "silent"])
        trace = EventTrace()
        run_height(validators, ["tx"], LOSSLESS, max_rounds=5, trace=trace)
        assert any(f.kind == "fault:non-participation" and f.sender == "v3"
                   for f in trace.faults)


BEHAVIOR_CHOICES = [b.value for b in Behavior]


def all_decided_digests(trace):
    return set(trace.decisions.values())


class TestSafety:
    def test_exhaustive_small_networks_never_fork(self):
        # Every behavior assignment for 1..4 equal-stake validators.
        for n in range(1, 5):
            for behaviors in itertools.product(BEHAVIOR_CHOICES, repeat=n):
                validators = make_validators(list(behaviors))
                trace = EventTrace()
                outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=3,
                                     trace=trace)
                digests = all_decided_digests(trace)
                assert len(digests) <= 1, (behaviors, digests)
                if outcome.committed:
                    assert digests == {outcome.batch_digest}
                    assert outcome.signature.valid

    def test_randomized_byzantine_minority_never_forks(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(4, 7)
            stakes = [rng.uniform(1, 20) for _ in range(n)]
            total = sum(stakes)
            byz = [i for i in range(n) if rng.random() < 0.4]
            while sum(stakes[i] for i in byz) * 3 > total and byz:
                byz.pop()
            behaviors = ["honest"] * n
            for i in byz:
                behaviors[i] = rng.choice(["silent", "equivocating",
                                           "invalid-proposer"])
            model = NetworkModel(drop_probability=rng.uniform(0, 0.3),
                                 latency_jitter=rng.randint(0, 2),
                                 rng_seed=rng.randrange(2 ** 32))
            trace = EventTrace()
            run_height(make_validators(behaviors, stakes=stakes), ["tx"],
                       model, max_rounds=4, trace=trace)
            assert len(all_decided_digests(trace)) <= 1


class TestLiveness:
    def test_honest_supermajority_commits_quickly(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(4, 8)
            stakes = [rng.uniform(5, 20) for _ in range(n)]
            behaviors = ["honest"] * n
            # Flip minority stake to byzantine while honest stays > 2/3.
            for i in sorted(range(n), key=lambda i: stakes[i]):
                candidate = behaviors.copy()
                candidate[i] = rng.choice(["silent", "equivocating"])
                byz_stake = sum(s for s, b in zip(stakes, candidate)
                                if b != "honest")
                if not quorum_met(sum(stakes) - byz_stake, sum(stakes)):
                    break
                behaviors = candidate
            model = NetworkModel(rng_seed=rng.randrange(2 ** 32))
            outcome = run_height(make_validators(behaviors, stakes=stakes),
                                 ["tx"], model, max_rounds=10)
            assert outcome.committed
            assert outcome.rounds_used <= 10


# The honest step of Algorithm 1 (Buchman, Kwon and Milosevic, arXiv:1807.04938)
# at round 0, written out as rows of (phase, proposals, quorum keys, timer due,
# events): a node in the phase whose round-0 proposal, keys in quorums and
# timer match the row records the row's (kind, digest) events in one
# evaluation; the first matching row wins. The batch digest is "d" and "x" is
# another digest. A key set names the phase's keys present: in prevote and
# precommit that phase's, in propose the prevote keys, which the node reads
# once it has prevoted. A vote resets the timer, so a step after a vote needs
# a quorum; so does one after advancing, as the node does not propose in round 1.
PROPOSALS, KEY_SETS, DUE = (None, "d", "x"), ("batch", "nil", "both", "neither"), (True, False)
STEP_TABLE = [
    ("propose", {None}, KEY_SETS, {False}, []),
    ("propose", {None, "x"}, {"nil", "both"}, DUE, [("prevote", None), ("precommit", None)]),
    ("propose", {None, "x"}, {"batch", "neither"}, DUE, [("prevote", None)]),
    ("propose", {"d"}, {"batch", "both"}, DUE, [("prevote", "d"), ("precommit", "d")]),
    ("propose", {"d"}, {"nil"}, DUE, [("prevote", "d"), ("precommit", None)]),
    ("propose", {"d"}, {"neither"}, DUE, [("prevote", "d")]),
    ("prevote", {"d"}, {"batch", "both"}, DUE, [("precommit", "d")]),
    ("prevote", PROPOSALS, {"nil", "both"}, DUE, [("precommit", None)]),
    ("prevote", PROPOSALS, KEY_SETS, {True}, [("precommit", None)]),
    ("prevote", PROPOSALS, KEY_SETS, {False}, []),
    ("precommit", {"d"}, {"batch", "both"}, DUE, [("commit", "d")]),
    ("precommit", PROPOSALS, {"nil", "both"}, DUE, [("round-start", None)]),
    ("precommit", PROPOSALS, KEY_SETS, {True}, [("round-start", None)]),
    ("precommit", PROPOSALS, KEY_SETS, {False}, []),
]


def step_node(phase, proposal, key_set, due, tick=10):
    """v2 of 4 equal lossless validators, set to round 0 in ``phase``, and its trace.

    v2 proposes in neither round 0 nor round 1.
    """
    validators = make_validators(["honest"] * 4)
    trace = EventTrace()
    ctx = consensus._HeightContext(validators, "d", GossipNetwork(LOSSLESS, validators),
                                   2, 0, trace)
    node = consensus._HonestNode(validators[2], ctx)
    assert ctx.proposer(0).id != node.id != ctx.proposer(1).id
    node.phase, node.vote = phase, None
    if proposal is not None:
        node.proposals[0] = proposal
    kind = "prevote" if phase == "propose" else phase
    digests = {"batch": ["d"], "nil": [None], "both": ["d", None], "neither": []}[key_set]
    node.quorums = {(kind, 0, digest) for digest in digests}
    node.next_due = tick if due else tick + 1
    return node, trace


class TestStep:
    @pytest.mark.parametrize("phase, proposal, key_set, due", itertools.product(
        ("propose", "prevote", "precommit"), PROPOSALS, KEY_SETS, DUE))
    def test_one_evaluation_takes_the_tabled_steps(self, phase, proposal, key_set, due):
        expected = next(events for row_phase, proposals, key_sets, dues, events in STEP_TABLE
                        if row_phase == phase and proposal in proposals
                        and key_set in key_sets and due in dues)
        node, trace = step_node(phase, proposal, key_set, due)
        node._evaluate(10)
        assert [(e.kind, e.digest) for e in trace.events] == expected
        assert node.done == (expected == [("commit", "d")])

    @pytest.mark.parametrize("wake", ["_evaluate", "on_tick"])
    def test_a_done_node_takes_no_step(self, wake):
        # Every step would be open to it: a batch proposal, both quorums and a due timer.
        for phase in ("propose", "prevote", "precommit"):
            node, trace = step_node(phase, "d", "both", True)
            node._finish()
            getattr(node, wake)(10)
            assert trace.events == []
            assert (node.phase, node.round) == ("done", 0)


@contextmanager
def recorded(cls, method):
    """Patch ``cls.method`` to also record (self, args, result); yield the records.

    A static method's first argument is recorded as ``self``.
    """
    calls = []
    original, raw = getattr(cls, method), cls.__dict__[method]

    def wrapper(self, *args):
        result = original(self, *args)
        calls.append((self, args, result))
        return result

    setattr(cls, method, wrapper)
    try:
        yield calls
    finally:
        setattr(cls, method, raw)


class Tallies:
    """What ``followed`` records of the ``_HonestNode``s of the heights run inside it.

    Nodes keep unit sums, not voters, so the voters are rebuilt from what
    each node is handed: ``views[node][key]`` holds every voter whose vote
    of ``key`` the node cast itself or was handed by ``receive`` or
    ``share``. ``finished[node]`` is a copy of the node's ``quorums`` at
    its ``_finish``, and ``late`` lists every node handed a message after
    it finished.
    """

    def __init__(self):
        self.views, self.finished, self.late = {}, {}, []

    def hear(self, node, key, voter):
        self.views.setdefault(node, {}).setdefault(key, set()).add(voter)

    def quorums(self, node):
        """``node``'s quorums as they stood when it finished, or now if it never did."""
        return self.finished.get(node, node.quorums)

    def recomputed_quorums(self, node):
        """(kind, round, digest) keys with quorum, re-summed with ``fsum`` from ``node``'s voters."""
        stakes, total = node.ctx.stakes, node.ctx.total_stake
        return {key for key, voters in self.views.get(node, {}).items()
                if stake_quorum(math.fsum(stakes[v] for v in voters), total)}


@contextmanager
def followed():
    """Patch ``_HonestNode`` to fill a ``Tallies`` as heights run; yield it.

    ``ReferenceNode`` has its own ``receive`` and ``_tally``, so only its
    ``_finish`` is followed.
    """
    tallies, cls = Tallies(), consensus._HonestNode
    receive, share, tally, finish = cls.receive, cls.share, cls._tally, cls._finish

    def followed_receive(ctx, message, group, tick):
        group = list(group)
        tallies.late.extend(node for node in group if node.done)
        if message.kind != "proposal":
            for node in group:
                tallies.hear(node, (message.kind, message.round, message.digest), message.sender)
        receive(ctx, message, group, tick)

    def followed_share(ctx, message, nodes, tick, due):
        tallies.late.extend(node for node in nodes.values() if node.done)
        for node in nodes.values():
            tallies.hear(node, (message.kind, message.round, message.digest), message.sender)
        share(ctx, message, nodes, tick, due)

    def followed_tally(node, key, units):
        tallies.hear(node, key, node.d.id)
        return tally(node, key, units)

    def followed_finish(node):
        finish(node)
        tallies.finished[node] = set(node.quorums)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "receive", staticmethod(followed_receive))
        patch.setattr(cls, "share", staticmethod(followed_share))
        patch.setattr(cls, "_tally", followed_tally)
        patch.setattr(cls, "_finish", followed_finish)
        yield tallies


def assert_tally_follows_voters(node, tallies):
    """``node``'s quorums and private unit sums are those its voters give.

    Its quorums are the keys whose voters' stakes pass with ``fsum``, and a
    unit sum is kept only for a key not in them. On a height that shares
    tallies, a private sum holds the node's own vote at most; on any other
    height, it is the unit sum of the key's voters.
    """
    quorums = tallies.quorums(node)
    assert quorums == tallies.recomputed_quorums(node)
    assert not node.sums.keys() & quorums
    if node.ctx.shared_sums:
        assert set(node.sums.values()) <= {node.units}
    else:
        units = node.ctx.units
        assert node.sums == {key: sum(units[v] for v in voters)
                             for key, voters in tallies.views.get(node, {}).items()
                             if key not in quorums}


@st.composite
def heights(draw):
    """A roster of 1 to 16, a network that is lossless about half the time, and max_rounds.

    Clean heights share tallies (see run_height): lossless, with no
    partition and no equivocator.
    """
    n = draw(st.integers(1, 16))
    behaviors = draw(st.lists(st.sampled_from(list(Behavior)), min_size=n, max_size=n))
    validators = [ValidatorDescriptor(id=f"v{i}", stake=draw(st.floats(0.01, 50.0)),
                                      behavior=b, region_latency=draw(st.integers(0, 3)))
                  for i, b in enumerate(behaviors)]
    # Up to three windows that may overlap and open or close mid-height.
    partitions = tuple(
        PartitionSpec(start, start + length, frozenset(members))
        for start, length, members in draw(st.lists(
            st.tuples(st.integers(-10, 60), st.integers(1, 80),
                      st.sets(st.sampled_from([v.id for v in validators]), min_size=1)),
            max_size=3)))
    lossless = draw(st.booleans())
    model = NetworkModel(drop_probability=0.0 if lossless else draw(st.floats(0.0, 0.3)),
                         latency_jitter=0 if lossless else draw(st.integers(0, 2)),
                         rng_seed=draw(st.integers(0, 2 ** 32 - 1)),
                         partition_schedule=partitions)
    return validators, model, draw(st.integers(1, 5))


def without_equivocators(validators):
    """``validators`` with every equivocator made honest."""
    return [v._replace(behavior=Behavior.HONEST) if v.behavior is Behavior.EQUIVOCATING else v
            for v in validators]


@st.composite
def clean_heights(draw):
    """A height of ``heights()`` made clean: no equivocator, and a lossless, unpartitioned network."""
    validators, model, max_rounds = draw(heights())
    return without_equivocators(validators), NetworkModel(rng_seed=model.rng_seed), max_rounds


def late_quorum_roster():
    """Nine validators whose prevote quorum lands at the tick their prevote timers fire.

    v3 to v8 are four ticks away, so their prevotes reach the others at
    tick 5, when every timer set at tick 1 is due: a node must time out at
    the first of those entries, before the later ones bring it a quorum.
    """
    validators = make_validators(["honest"] * 9)
    return validators[:3] + [v._replace(region_latency=4) for v in validators[3:]]


def in_flight_roster(n):
    """``n`` honest validators; the last is 20 ticks away, the rest 1.

    Over one round every validator decides at tick 3, and the last one's
    prevote and precommit, due at the others at ticks 21 and 22, are still
    in flight then.
    """
    validators = make_validators(["honest"] * n)
    return validators[:-1] + [validators[-1]._replace(region_latency=20)]


def lone_last_delivery_roster():
    """Four validators whose last delivery in flight, with jitter 1 at seed 0, reaches one alone."""
    validators = make_validators(["honest"] * 4, stakes=[1.0, 1.0, 1.0, 2.0], latency=0)
    validators[1] = validators[1]._replace(region_latency=1)
    return validators


def nil_first_decider_roster():
    """Twelve validators whose first decider precommits nil on a 25%-drop network at seed 3990."""
    validators = make_validators(["honest"] * 12, stakes=[1.0] * 10 + [3.0, 6.0], latency=0)
    validators[10] = validators[10]._replace(region_latency=1)
    return validators


def shared_roster():
    """Twelve validators, two equivocating and one silent, with unequal stakes and latencies.

    The equivocators, and the partition below, keep a height over them from
    sharing tallies; ``without_equivocators`` of it shares on a lossless one.
    """
    behaviors = ["honest"] * 12
    behaviors[3] = behaviors[8] = "equivocating"
    behaviors[10] = "silent"
    validators = make_validators(behaviors, stakes=[float(30 - 2 * i) for i in range(12)])
    return [v._replace(region_latency=i % 3) for i, v in enumerate(validators)]


SHARED_PARTITION = NetworkModel(rng_seed=1, partition_schedule=(
    PartitionSpec(0, 6, frozenset({"v1", "v5", "v6"})),))


class TestEventAdvance:
    @settings(max_examples=150, deadline=None)
    @given(height=heights())
    @example(height=(make_validators(["silent", "equivocating", "equivocating"]),
                     LOSSLESS, 3))
    @example(height=(make_validators(["honest"] * 3 + ["silent"], latency=0),
                     LOSSLESS, 2))
    @example(height=(shared_roster(), SHARED_PARTITION, 3))
    @example(height=(without_equivocators(shared_roster()), LOSSLESS, 3))
    @example(height=(late_quorum_roster(), LOSSLESS, 2))
    def test_matches_tick_by_tick_oracle(self, height):
        validators, model, max_rounds = height
        trace, expected_trace = EventTrace(), EventTrace()
        with recorded(consensus._HonestNode, "start") as started, followed() as tallies:
            outcome = run_height(validators, ["a", "b"], model, max_rounds,
                                 height=7, trace=trace)
        expected = run_height_ticked(validators, ["a", "b"], model, max_rounds,
                                     height=7, trace=expected_trace)
        assert outcome == expected
        assert trace.to_lines() == expected_trace.to_lines()
        assert trace.faults == expected_trace.faults
        assert trace.decisions == expected_trace.decisions
        for node, _, _ in started:
            assert_tally_follows_voters(node, tallies)

    @settings(max_examples=150, deadline=None)
    @given(height=heights())
    @example(height=(make_validators(["silent", "equivocating", "equivocating"]),
                     LOSSLESS, 3))
    def test_every_wake_finds_a_timer_due(self, height):
        # run_height calls on_tick only on a node that is not done and whose
        # timer is due, so every wake acts; the oracle's calls at other ticks
        # do nothing. And every tick it visits after 0 delivers a message or
        # wakes a node: a stale timer entry left at the heap head would make
        # it visit an idle tick.
        validators, model, max_rounds = height
        wakes = []

        def checked(on_tick):
            def wrapper(node, tick):
                wakes.append((node.id, tick, node.done, node.next_due))
                on_tick(node, tick)
            return wrapper

        with pytest.MonkeyPatch.context() as patch, recorded(GossipNetwork, "step") as steps:
            for cls in (consensus._HonestNode, consensus._EquivocatingNode):
                patch.setattr(cls, "on_tick", checked(cls.on_tick))
            run_height(validators, ["a", "b"], model, max_rounds)
        assert [wake for wake in wakes if wake[2] or wake[1] < wake[3]] == []
        woken_ticks = {tick for _, tick, _, _ in wakes}
        assert [tick for _, (tick,), delivered in steps
                if tick > 0 and not delivered and tick not in woken_ticks] == []

    @settings(max_examples=50, deadline=None)
    @given(height=heights())
    def test_a_height_leaves_no_reference_cycle(self, height):
        # With the cycle collector off, a node or height context that is in
        # a reference cycle outlives run_height; the timer heap holds ids,
        # not nodes, for this reason.
        validators, model, max_rounds = height
        refs = []

        def tracked(init):
            def wrapper(node, descriptor, ctx):
                init(node, descriptor, ctx)
                refs.extend([weakref.ref(node), weakref.ref(ctx)])
            return wrapper

        gc.disable()
        try:
            with pytest.MonkeyPatch.context() as patch:
                for cls in (consensus._HonestNode, consensus._EquivocatingNode):
                    patch.setattr(cls, "__init__", tracked(cls.__init__))
                run_height(validators, ["a", "b"], model, max_rounds)
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert alive == []

    @settings(max_examples=150, deadline=None)
    @given(height=heights())
    @example(height=(make_validators(["honest", "equivocating", "honest", "equivocating"]),
                     LOSSLESS, 3))
    def test_each_recipient_hears_a_sender_once_per_kind_and_round(self, height):
        # The vote tally keys on (kind, round, digest) with no per-sender
        # check; it counts each sender's first vote only if no second one
        # arrives.
        validators, model, max_rounds = height
        with recorded(GossipNetwork, "step") as steps:
            run_height(validators, ["a", "b"], model, max_rounds)
        heard = [(recipient, message.sender, message.kind, message.round)
                 for _, _, delivered in steps for message, recipient in flat(delivered)]
        assert len(heard) == len(set(heard))

    def test_zero_latency_message_arrives_next_tick(self):
        # v0's proposal, broadcast before tick 0 is stepped, arrives at 0;
        # the prevotes sent while tick 0 is processed arrive at tick 1.
        trace = EventTrace()
        outcome = run_height(make_validators(["honest"] * 3, latency=0), ["tx"],
                             LOSSLESS, max_rounds=3, trace=trace)
        ticks = {(e.kind, e.sender): e.tick for e in trace.events}
        assert {ticks["prevote", v] for v in ("v0", "v1", "v2")} == {0}
        assert {ticks["precommit", v] for v in ("v0", "v1", "v2")} == {1}
        assert outcome.ticks_elapsed == 2

    def test_no_commit_at_last_timeout(self):
        # Honest validators give up at their last precommit timeout; the
        # height ends exactly there.
        max_rounds = 3
        trace = EventTrace()
        outcome = run_height(make_validators(["honest", "honest", "silent", "silent"]),
                             ["tx"], LOSSLESS, max_rounds, trace=trace)
        last_precommit = max(e.tick for e in trace.events if e.kind == "precommit")
        end = last_precommit + consensus.phase_timeout(max_rounds - 1)
        assert not outcome.committed
        assert outcome.ticks_elapsed == end
        assert trace.to_lines()[-1] == f"{end},no-commit,0,{max_rounds - 1},-,-"

    def test_in_flight_precommit_drained_at_its_tick(self):
        # v3 decides at tick 3, but its prevote and precommit would reach
        # the others only at ticks 21 and 22, when nobody listens: nothing
        # is stepped after tick 3, yet v3's precommit entry was queued, so
        # the signature covers v3.
        validators = in_flight_roster(4)
        with recorded(GossipNetwork, "step") as steps:
            outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=1)
        assert outcome.ticks_elapsed == 3
        assert [tick for _, (tick,), _ in steps] == [0, 1, 2, 3]
        assert outcome.signature.signer_set == {v.id for v in validators}

    @settings(max_examples=300, deadline=None)
    @given(height=heights() | clean_heights())
    # Half the stake is honest: nothing commits, and the honest validators
    # time out of all 64 rounds, by 12 * (2**64 - 1) ticks.
    @example(height=(make_validators(["honest", "honest", "silent"], stakes=[1.0, 1.0, 2.0]),
                     LOSSLESS, 64))
    @example(height=(make_validators(["silent"] * 3), LOSSLESS, 3))
    @example(height=(make_validators(["silent", "equivocating", "equivocating"]),
                     NetworkModel(drop_probability=0.2, latency_jitter=2, rng_seed=7), 3))
    @example(height=(make_validators(["honest"] * 4, latency=0), LOSSLESS, 2))
    @example(height=(lone_last_delivery_roster(), NetworkModel(latency_jitter=1), 1))
    # Every validator decides at tick 3, within the bound of 12, while v3's
    # votes are due at ticks 21 and 22.
    @example(height=(in_flight_roster(4), LOSSLESS, 1))
    def test_every_height_ends_by_its_timeouts(self, height):
        # run_height has no tick cap: the protocol ends the height. Every
        # event and every network step comes by the summed timeouts of its
        # rounds: nothing is stepped once nobody listens, so what is still
        # in flight then is never delivered. Without a commit, the height
        # ends at its no-commit record; with no protocol-following
        # validator, at tick 0.
        validators, model, max_rounds = height
        end = summed_timeouts(max_rounds)
        trace = EventTrace()
        with recorded(GossipNetwork, "step") as steps:
            outcome = run_height(validators, ["a", "b"], model, max_rounds, trace=trace)
        assert max(e.tick for e in trace.events) <= end
        assert max(tick for _, (tick,), _ in steps) <= end
        if not outcome.committed:
            assert trace.events[-1][:2] == (outcome.ticks_elapsed, "no-commit")
        if all(v.behavior in (Behavior.SILENT, Behavior.EQUIVOCATING) for v in validators):
            assert outcome.ticks_elapsed == 0
            assert {e.tick for e in trace.events} == {0}


# Honest stakes and a silent validator's stake at which a left-to-right sum of
# the honest stakes and their fsum fall on opposite sides of 2/3 of the total.
# From 2**53 floats are 2 apart and ties round to even: 2**53 + 1.0 rounds
# back to 2**53, so the naive sum of NAIVE_BELOW misses a quorum that fsum
# finds, and 2**53 + 3.0 rounds up to 2**53 + 4.0, so the naive sum of
# NAIVE_ABOVE finds a quorum that fsum does not. Both totals are exact.
NAIVE_BELOW = ([2.0 ** 53, 1.0, 1.0, 1.0, 1.0], 2.0 ** 52)
NAIVE_ABOVE = ([2.0 ** 53, 3.0, 3.0], 2.0 ** 52 + 4.0)


def edge_roster(stakes, silent_stake):
    return make_validators(["honest"] * len(stakes) + ["silent"], stakes + [silent_stake])


def tally_node(validators):
    """The first validator's node in a height over ``validators``, to tally votes at."""
    ctx = consensus._HeightContext(validators, "d", GossipNetwork(LOSSLESS, validators),
                                   1, 0, EventTrace())
    return consensus._HonestNode(validators[0], ctx)


def tally(node, voter):
    """Tally ``voter``'s round-0 prevote for "d" at ``node`` alone, with no evaluation.

    True if that vote brought the key into ``node.quorums``.
    """
    return node._tally(("prevote", 0, "d"), node.ctx.units[voter])


def assert_matches_reference_node(height):
    """``run_height`` gives the trace, outcome and quorums of ``ReferenceNode`` validators.

    Quorums are compared as they stood when each node finished. The
    certificate is the first-deciding reference node's own voters of the
    decided key: it keeps hearing votes after it decides.
    """
    validators, model, max_rounds = height
    trace, expected_trace = EventTrace(), EventTrace()
    with recorded(consensus._HonestNode, "start") as started, followed() as tallies:
        outcome = run_height(validators, ["a", "b"], model, max_rounds,
                             height=7, trace=trace)
        expected = run_height_ticked(validators, ["a", "b"], model, max_rounds,
                                     height=7, trace=expected_trace,
                                     honest=ReferenceNode)
    assert outcome == expected
    assert trace.to_lines() == expected_trace.to_lines()
    assert trace.faults == expected_trace.faults
    assert trace.decisions == expected_trace.decisions
    nodes = [node for node, _, _ in started if not isinstance(node, ReferenceNode)]
    reference = {node.d.id: node for node, _, _ in started if isinstance(node, ReferenceNode)}
    assert len(nodes) == len(reference)
    for node in nodes:
        assert tallies.quorums(node) == tallies.quorums(reference[node.d.id])
    if outcome.committed:
        first = next(e for e in expected_trace.events if e.kind == "commit")
        voters = reference[first.sender].votes[("precommit", first.round, first.digest)]
        assert outcome.signature.signer_set == set(voters)


class TestTallyShortcuts:
    """The evaluation gate and the integer tally change no trace and no quorum."""

    @settings(max_examples=150, deadline=None)
    @given(height=heights() | clean_heights())
    @example(height=(edge_roster(*NAIVE_BELOW), LOSSLESS, 2))
    @example(height=(edge_roster(*NAIVE_ABOVE), LOSSLESS, 2))
    @example(height=(make_validators(["honest", "equivocating", "honest", "invalid-proposer"]),
                     NetworkModel(drop_probability=0.2, latency_jitter=2, rng_seed=5), 4))
    @example(height=(shared_roster(), SHARED_PARTITION, 3))
    @example(height=(without_equivocators(shared_roster()), LOSSLESS, 3))
    # v8 alone is cut off at first: the others' votes reach all but v8, so
    # a partition keeps the height from sharing, and v8 must not count them.
    @example(height=(make_validators(["honest"] * 9), NetworkModel(rng_seed=1, partition_schedule=(
        PartitionSpec(0, 30, frozenset({"v8"})),)), 2))
    # A two-validator equivocator's half reaches every other validator, but
    # a height with an equivocator is not clean, so it does not share.
    @example(height=(make_validators(["equivocating", "honest"]), LOSSLESS, 2))
    @example(height=(make_validators(["honest", "silent"], latency=0), LOSSLESS, 2))
    def test_matches_reference_node(self, height):
        # Whether a height is clean alone picks the tally path, at any
        # roster size: every vote entry stepped out of a clean height goes
        # to share and its proposals to receive; every entry of any other
        # height goes to receive. The last step is at the height's end tick.
        assert_matches_reference_node(height)
        validators, model, max_rounds = height
        clean = (not model.draws and not model.partition_schedule
                 and all(v.behavior is not Behavior.EQUIVOCATING for v in validators))
        with recorded(consensus._HonestNode, "share") as shared, \
                recorded(consensus._HonestNode, "receive") as received, \
                recorded(GossipNetwork, "step") as steps, \
                recorded(consensus, "_finish_height") as finished:
            run_height(validators, ["a", "b"], model, max_rounds)
        [(_, (end,), _)] = finished
        assert steps[-1][1] == (end,)
        entries = [message for _, _, delivered in steps for message, _ in delivered]
        shared_kinds = {"prevote", "precommit"} if clean else set()
        assert [message for _, (message, *_), _ in shared] == [
            message for message in entries if message.kind in shared_kinds]
        assert [message for _, (message, *_), _ in received] == [
            message for message in entries if message.kind not in shared_kinds]

    @settings(max_examples=300, deadline=None)
    @given(stakes=st.lists(st.floats(5e-324, 1e306) | st.sampled_from([1.0, 3.0, 2.0 ** 53]),
                           min_size=1, max_size=12),
           voting=st.integers(1, 12))
    def test_quorum_units_is_the_exact_boundary(self, stakes, voting):
        # Subnormal to huge stakes: q - 1 units are short of quorum, q units
        # reach it, and a tally of any prefix is a quorum exactly when the
        # fsum of its stakes is.
        validators = make_validators(["honest"] * len(stakes), stakes)
        node = tally_node(validators)
        roster = node.ctx.roster
        q, total = roster.quorum_units, roster.total_stake
        scale = max(Fraction(stake).denominator for stake in stakes)
        assert not stake_quorum(float(Fraction(q - 1, scale)), total)
        assert stake_quorum(float(Fraction(q, scale)), total)
        units = [roster.units[v.id] for v in validators]
        for i in range(1, len(stakes) + 1):
            assert (sum(units[:i]) >= q) == stake_quorum(math.fsum(stakes[:i]), total)
        for v in validators[:voting]:
            tally(node, v.id)
        assert ((("prevote", 0, "d") in node.quorums)
                == stake_quorum(math.fsum(stakes[:voting]), total))

    @pytest.mark.parametrize("stakes, silent_stake, fsum_quorum",
                             [(*NAIVE_BELOW, True), (*NAIVE_ABOVE, False)])
    def test_quorums_follow_fsum_where_the_naive_sum_disagrees(self, stakes, silent_stake,
                                                               fsum_quorum):
        validators = edge_roster(stakes, silent_stake)
        node = tally_node(validators)
        ctx = node.ctx
        assert ctx.total_stake == sum(map(int, stakes)) + int(silent_stake)  # exact
        naive, added = 0.0, []
        for v in validators[:-1]:
            naive += v.stake
            added.append(tally(node, v.id))
        assert stake_quorum(math.fsum(stakes), ctx.total_stake) == fsum_quorum
        assert stake_quorum(naive, ctx.total_stake) != fsum_quorum
        assert (("prevote", 0, "d") in node.quorums) == fsum_quorum
        crossed = [stake_quorum(math.fsum(stakes[:i]), ctx.total_stake)
                   for i in range(len(stakes) + 1)]
        assert added == [after and not before for before, after in zip(crossed, crossed[1:])]

        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=2)
        assert outcome.committed == fsum_quorum
        if fsum_quorum:
            assert outcome.signature.valid
            assert outcome.signature.signer_set == {v.id for v in validators[:-1]}

    @pytest.mark.parametrize("silent_stake, committed", [(1.0, False), (1.0 - 2.0 ** -51, True)])
    def test_run_height_at_the_two_thirds_boundary(self, silent_stake, committed):
        # Honest stake of exactly 2/3 of the total is no quorum, as the rule
        # is strict; one ulp of silent stake less and the height commits.
        validators = edge_roster([1.0, 1.0], silent_stake)
        outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=2)
        assert outcome.committed == committed
        if committed:
            assert outcome.signature.signer_set == {"v0", "v1"}

    @pytest.mark.parametrize("stakes, committed", [([5e307, 5e307], False),
                                                   ([6e307, 2e307], True)])
    def test_threshold_near_overflow(self, stakes, committed):
        # Twice a total of 1e308 overflows, so no tally is a quorum and the
        # threshold is past every tally; a total of 8e307 still commits.
        validators = make_validators(["honest"] * len(stakes), stakes)
        roster = Roster(validators)
        assert (roster.quorum_units > sum(roster.units.values())) == (not committed)
        assert run_height(roster, ["tx"], LOSSLESS, max_rounds=2).committed == committed


def sharing_context(validators):
    """A height context over ``validators`` on a lossless network, to share tallies in."""
    return consensus._HeightContext(validators, "d", GossipNetwork(LOSSLESS, validators),
                                    1, 0, EventTrace())


class TestSharedTally:
    """A clean height tallies each vote once per key."""

    @settings(max_examples=100, deadline=None)
    @given(stakes=st.lists(st.floats(5e-324, 1e306) | st.sampled_from([1.0, 3.0, 2.0 ** 53]),
                           min_size=2, max_size=12),
           delays=st.lists(st.integers(0, 3), min_size=12, max_size=12))
    def test_split_tally_follows_fsum(self, stakes, delays):
        # Voter i casts at step i, which tallies its own units privately,
        # and its entry lands delays[i] steps later, in the shared tally.
        # After each cast and landing, every node's quorums follow the fsum
        # of the float stakes of its view, and its private tally holds its
        # own vote alone, and only between its cast and its landing.
        validators = make_validators(["honest"] * len(stakes), stakes)
        ctx = sharing_context(validators)
        nodes = {v.id: consensus._HonestNode(v, ctx) for v in validators}
        key = ("prevote", 0, "d")
        cast, landed = set(), set()
        steps = sorted([(i, False, v) for i, v in enumerate(validators)]
                       + [(i + delays[i], True, v) for i, v in enumerate(validators)],
                       key=lambda step: step[:2])
        for _, lands, v in steps:
            if lands:
                consensus._HonestNode.share(ctx, TraceEvent(0, "prevote", 0, 0, v.id, "d"),
                                             nodes, 0, [])
                landed.add(v.id)
            else:
                nodes[v.id]._tally(key, ctx.units[v.id])
                cast.add(v.id)
            shared_quorum = stake_quorum(math.fsum(ctx.stakes[voter] for voter in landed),
                                         ctx.total_stake)
            assert ctx.shared_sums.get(key, 0) == (
                None if shared_quorum else sum(ctx.units[voter] for voter in landed))
            for vid, node in nodes.items():
                private = {vid} & cast - landed
                view = [ctx.stakes[voter] for voter in landed | private]
                assert ((key in node.quorums)
                        == stake_quorum(math.fsum(view), ctx.total_stake)), vid
                assert node.quorums <= {key}
                # The private sum is the node's own vote, until its entry
                # lands or the key joins quorums.
                assert node.sums.get(key, 0) == (
                    0 if key in node.quorums else sum(ctx.units[voter] for voter in private))
                assert not node.sums.keys() & node.quorums

    def test_only_recipients_evaluate(self):
        # Every node's timer is due at tick 4, when v0's own prevote lands:
        # the others evaluate and time out, but v0 received nothing.
        validators = make_validators(["honest"] * 3)
        ctx = sharing_context(validators)
        nodes = {v.id: consensus._HonestNode(v, ctx) for v in validators}
        nodes["v0"]._tally(("prevote", 0, "d"), ctx.units["v0"])
        consensus._HonestNode.share(ctx, TraceEvent(0, "prevote", 0, 0, "v0", "d"), nodes, 4,
                                     list(nodes.values()))
        assert [node.phase for node in nodes.values()] == ["propose", "prevote", "prevote"]

    def test_in_flight_precommit_drained_at_its_tick(self):
        # As the four-validator test of that name, with ten: every node
        # decides at tick 3, and v9's prevote and precommit, due at ticks
        # 21 and 22, are never stepped, so they never reach the shared
        # tally. The first decider is v3, so the certificate covers v9 only
        # through its queued precommit entry. (With 12 validators the far
        # one, v11, would decide first and sign through its own vote.)
        validators = in_flight_roster(10)
        with recorded(GossipNetwork, "step") as steps, \
                recorded(consensus._HonestNode, "share") as shared:
            outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=1)
        assert outcome.ticks_elapsed == 3
        assert [tick for _, (tick,), _ in steps] == [0, 1, 2, 3]
        assert outcome.signature.signer_set == {v.id for v in validators}
        assert [message for _, (message, *_), _ in shared if message.sender == "v9"] == []

    def test_no_private_tally_holds_another_validators_vote(self):
        # Every vote of a lossless 64-validator height reaches every other
        # validator in one entry, so it is tallied once, in the shared
        # tally; a node's own vote moves there when its entry lands.
        validators = [v._replace(region_latency=1 + i % 3) for i, v in enumerate(
            make_validators(["honest"] * 64, stakes=[80.0 + i % 41 for i in range(64)]))]
        trace = EventTrace()
        with recorded(consensus._HonestNode, "start") as started, followed() as tallies:
            outcome = run_height(validators, ["tx"], LOSSLESS, max_rounds=2, trace=trace)
        assert outcome.committed
        # Every precommit of the batch digest lands, so all of them sign.
        assert outcome.signature.signer_set == {
            e.sender for e in trace.events if e.kind == "precommit" and e.digest is not None}
        nodes = [node for node, _, _ in started]
        assert len(nodes) == 64
        for node in nodes:
            # A private sum holds the node's own vote alone: one whose entry
            # landed after the node stopped listening.
            cast = {(e.kind, e.round, e.digest) for e in trace.events if e.sender == node.d.id}
            assert node.sums.keys() <= cast
            assert_tally_follows_voters(node, tallies)

    @pytest.mark.parametrize("source, shared, received", [
        # One clean 3-validator height is simulated, and the rest replay
        # it: its 6 votes go to share, its proposal to receive.
        pytest.param(str(CONFIGS / "payment.json"), 6, 1, id="payment.json"),
        pytest.param(WORKLOADS.config_text("payment-econ", 0), 6, 1, id="payment-econ-0"),
        # One clean 64-validator height is simulated.
        pytest.param(WORKLOADS.config_text("roster-wide", 0), 128, 1, id="roster-wide-0"),
        # Their networks draw, so no height is clean.
        pytest.param(str(CONFIGS / "sequencer.json"), 0, 608, id="sequencer.json"),
        pytest.param(WORKLOADS.config_text("byzantine-lossy", 0), 0, 9783,
                     id="byzantine-lossy-0")])
    def test_shipped_runs_route_entries_by_cleanness(self, source, shared, received):
        config = load_config(source)
        with recorded(consensus._HonestNode, "share") as shares, \
                recorded(consensus._HonestNode, "receive") as receives:
            run_simulation(config)
        assert (len(shares), len(receives)) == (shared, received)

    def test_wide_height_independent_of_the_hash_seed(self):
        # Of the shipped configs only payment.json shares, on one
        # 3-validator height. A clean 16-validator height whose first
        # proposer, v0, is silent: it commits in round 1 with three rounds,
        # not at all with one, and its votes all go through the shared tally.
        script = """
from opsim import EventTrace, NetworkModel, ValidatorDescriptor, consensus, run_height
shared, share = [], consensus._HonestNode.share
consensus._HonestNode.share = staticmethod(lambda *args: shared.append(args) or share(*args))
validators = [ValidatorDescriptor(f"v{i}", 40.0 - 1.5 * i, "silent" if i == 0 else "honest", i % 3)
              for i in range(16)]
for max_rounds in (1, 3):
    trace = EventTrace()
    outcome = run_height(validators, ["a", "b"], NetworkModel(rng_seed=1), max_rounds,
                         trace=trace)
    print("\\n".join(trace.to_lines()))
    if outcome.committed:
        print(sorted(outcome.signature.signer_set), repr(outcome.signature.signed_stake))
print("shared entries:", len(shared))
"""
        src = str(Path(consensus.__file__).parents[1])
        outputs = [subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                                  text=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                                  "PYTHONPATH": src}).stdout
                   for seed in ("1", "2")]
        assert ",commit," in outputs[0]
        assert int(outputs[0].rsplit(":", 1)[1]) > 0
        assert outputs[0] == outputs[1]


class TestCommitCertificate:
    @settings(max_examples=150, deadline=None)
    @given(height=heights())
    @example(height=(make_validators(["honest"] * 4), LOSSLESS, 1))
    @example(height=(make_validators(["honest", "honest", "equivocating", "honest"]),
                     LOSSLESS, 3))
    def test_certificate_matches_trace(self, height):
        # Checked against the trace alone, not against node internals.
        validators, model, max_rounds = height
        batch = ["a", "b"]
        trace = EventTrace()
        outcome = run_height(validators, batch, model, max_rounds, trace=trace)
        if not outcome.committed:
            return
        digest = batch_digest(batch)
        assert outcome.batch_digest == digest
        assert set(trace.decisions.values()) == {digest}
        signature = outcome.signature
        assert signature.batch_digest == digest
        assert signature.valid
        stakes = {v.id: v.stake for v in validators}
        assert signature.signed_stake == math.fsum(stakes[s] for s in signature.signer_set)
        assert signature.total_stake == math.fsum(stakes.values())
        decided_round = outcome.rounds_used - 1
        precommitted = {e.sender for e in trace.events if e.kind == "precommit"
                        and e.round == decided_round and e.digest == digest}
        assert signature.signer_set <= precommitted

    @settings(max_examples=100, deadline=None)
    @given(height=heights() | clean_heights())
    # The last validator's precommit is still in flight when every
    # validator has decided: unshared, as a partition long after the
    # height's end keeps it from being clean, and shared.
    @example(height=(in_flight_roster(4), NetworkModel(partition_schedule=(
        PartitionSpec(100, 101, frozenset({"v0"})),)), 1))
    @example(height=(in_flight_roster(10), LOSSLESS, 1))
    # The first decider, v4, precommitted nil: it is not in the certificate.
    @example(height=(nil_first_decider_roster(),
                     NetworkModel(drop_probability=0.25, rng_seed=3990), 1))
    def test_finished_validators_hear_nothing(self, height):
        # No receive or share hands a message to a validator that has
        # finished, yet the certificate holds the first decider's own
        # precommit of the batch digest and every one of its round queued
        # to it, those never delivered included. The network's record of
        # precommit entries is exactly what it stepped out plus what it
        # still holds.
        validators, model, max_rounds = height
        trace = EventTrace()
        with followed() as tallies, recorded(GossipNetwork, "step") as steps:
            outcome = run_height(validators, ["a", "b"], model, max_rounds, trace=trace)
        assert tallies.late == []
        net = steps[0][0]
        queued = [entry for _, _, delivered in steps for entry in delivered]
        # Every message was sent by the last tick stepped, so what is still
        # in flight is due by then plus the largest latency and jitter.
        last = steps[-1][1][0] + max(v.region_latency for v in validators) + model.latency_jitter
        queued += net.step(last)
        assert net.pending == 0
        assert (Counter((message, tuple(group)) for message, group in net.precommits)
                == Counter((message, tuple(group)) for message, group in queued
                           if message.kind == "precommit"))
        if not outcome.committed:
            return
        first = next(e for e in trace.events if e.kind == "commit")
        own = {e.sender for e in trace.events if e.kind == "precommit" and e.sender == first.sender
               and e.round == first.round and e.digest == first.digest}
        handed = {message.sender for message, group in net.precommits
                  if (message.round, message.digest) == (first.round, first.digest)
                  and first.sender in group}
        assert outcome.signature.signer_set == own | handed


class TestRoster:
    """An epoch's roster: run_height's input checks and its per-height derivations, done once."""

    @settings(max_examples=100, deadline=None)
    @given(height=heights())
    def test_run_height_same_from_a_list_or_a_roster(self, height):
        validators, model, max_rounds = height
        expected_trace = EventTrace()
        expected = run_height(list(validators), ["a", "b"], model, max_rounds, height=2,
                              trace=expected_trace)
        # One roster serves several heights, as it serves an epoch.
        roster = Roster(validators)
        for _ in range(2):
            trace = EventTrace()
            assert run_height(roster, ["a", "b"], model, max_rounds, height=2,
                              trace=trace) == expected
            assert trace.to_lines() == expected_trace.to_lines()

    @settings(max_examples=100, deadline=None)
    @given(height=heights())
    @example(height=([ValidatorDescriptor(id=vid, stake=stake, region_latency=latency)
                      for vid, stake, latency in (("d", 2.0, 1), ("b", 5.0, 0),
                                                  ("c", 2.0, 3), ("a", 5.0, 2))],
                     LOSSLESS, 1))
    def test_fields_equal_a_per_height_derivation(self, height):
        validators = height[0]
        roster = Roster(validators)
        stakes = {v.id: v.stake for v in validators}
        total = math.fsum(stakes.values())
        ids = sorted(stakes)
        assert list(roster) == validators
        assert roster.by_id == tuple(sorted(validators, key=lambda v: v.id))
        assert roster.by_stake == tuple(sorted(validators, key=lambda v: (-v.stake, v.id)))
        assert roster.stakes == stakes
        assert roster.total_stake == total
        scale = max(Fraction(stake).denominator for stake in stakes.values())
        assert {vid: Fraction(n, scale) for vid, n in roster.units.items()} == {
            vid: Fraction(stake) for vid, stake in stakes.items()}
        assert roster.max_units == max(roster.units.values())
        assert roster.latency == {v.id: v.region_latency for v in validators}
        assert roster.others == {vid: tuple(i for i in ids if i != vid) for vid in ids}
        assert Roster(roster) is roster

    @pytest.mark.parametrize("build", [
        Roster,
        lambda validators: run_height(validators, ["tx"], LOSSLESS, 5),
        lambda validators: GossipNetwork(LOSSLESS, validators),
    ], ids=["roster", "run_height", "network"])
    def test_bad_rosters_keep_their_errors(self, build):
        with pytest.raises(DomainError, match="^run_height requires at least one validator$"):
            build([])
        with pytest.raises(DomainError, match="^validator ids must be unique$"):
            build([ValidatorDescriptor("v", 1.0), ValidatorDescriptor("v", 2.0)])
        # A descriptor checks its stake when made; a roster checks the total,
        # here of a descriptor built past those checks.
        zeroed = tuple.__new__(ValidatorDescriptor, ("v", 0.0, Behavior.HONEST, 1))
        with pytest.raises(DomainError, match="^total stake must be > 0$"):
            build([zeroed])

    def test_context_and_network_accept_a_list(self):
        validators = make_validators(["honest"] * 3, stakes=[1.0, 3.0, 2.0])
        net = GossipNetwork(LOSSLESS, validators)
        ctx = consensus._HeightContext(validators, "d", net, 1, 0, EventTrace())
        assert isinstance(ctx.roster, Roster) and list(ctx.roster) == validators
        assert ctx.stakes == {"v0": 1.0, "v1": 3.0, "v2": 2.0} and ctx.total_stake == 6.0
        assert [ctx.proposer(r).id for r in range(4)] == ["v1", "v2", "v0", "v1"]
        message = TraceEvent(0, "prevote", 0, 0, "v1", "d")
        net.broadcast(message)
        assert [(m, list(group)) for m, group in net.step(1)] == [(message, ["v0", "v2"])]

    def test_harness_builds_one_roster_per_epoch(self, monkeypatch):
        rosters = []

        def recording_run_height(validators, *args, **kwargs):
            rosters.append(validators)
            return run_height(validators, *args, **kwargs)

        monkeypatch.setattr(harness, "run_height", recording_run_height)
        config = load_config(str(Path(__file__).resolve().parent.parent / "configs"
                                 / "sequencer.json"))
        run_simulation(config)
        per_epoch = config.schedule.windows_per_epoch
        assert len(rosters) == config.epochs * per_epoch
        assert all(isinstance(roster, Roster) for roster in rosters)
        epochs = [rosters[i:i + per_epoch] for i in range(0, len(rosters), per_epoch)]
        assert all(roster is epoch[0] for epoch in epochs for roster in epoch)
        assert len({id(epoch[0]) for epoch in epochs}) == len(epochs)

    @pytest.mark.parametrize("name, draws", [("payment.json", False), ("sequencer.json", True)])
    def test_harness_seeds_only_networks_that_draw(self, monkeypatch, name, draws):
        # A draw-free network never reads its seed, so every height reuses
        # the config's model and derives none; a drawing one gets its own.
        networks, labels = [], []
        fork_seed = harness.fork_seed

        def recording_run_height(validators, batch, network, *args, **kwargs):
            networks.append(network)
            return run_height(validators, batch, network, *args, **kwargs)

        def recording_fork_seed(seed, label):
            labels.append(label)
            return fork_seed(seed, label)

        monkeypatch.setattr(harness, "run_height", recording_run_height)
        monkeypatch.setattr(harness, "fork_seed", recording_fork_seed)
        config = load_config(str(Path(__file__).resolve().parent.parent / "configs" / name))
        run_simulation(config)
        assert config.network.draws is draws and networks
        derived = [label for label in labels if label.startswith("net:")]
        if draws:
            assert len(derived) == len(networks) == len({n.rng_seed for n in networks})
            assert {n._replace(rng_seed=0) for n in networks} == {
                config.network._replace(rng_seed=0)}
        else:
            assert derived == [] and all(n is config.network for n in networks)


@st.composite
def draw_free_heights(draw):
    """A height of ``heights()`` on a network that draws nothing; its partitions stay."""
    validators, model, max_rounds = draw(heights())
    return validators, model._replace(drop_probability=0.0, latency_jitter=0), max_rounds


def mixed_behavior_roster():
    """Six validators: one silent, one equivocating, one invalid proposer that proposes first."""
    behaviors = ["invalid-proposer", "honest", "equivocating", "honest", "silent", "honest"]
    return make_validators(behaviors, stakes=[20.0, 12.0, 11.0, 10.0, 9.0, 8.0])


MIXED_PARTITION = NetworkModel(rng_seed=3, partition_schedule=(
    PartitionSpec(2, 9, frozenset({"v0", "v3"})),))


def brace_roster():
    """``mixed_behavior_roster`` with ids that hold braces and ``str.format`` fields.

    The equivocator's forged digests hold its id, so braces reach both the
    senders and the digests of the trace.
    """
    ids = ["{0}", "}{", "{1}", "{", "}", "{{1}}"]
    return [v._replace(id=i) for v, i in zip(mixed_behavior_roster(), ids)]


def mark_roster():
    """``mixed_behavior_roster`` with ids that hold the lowest code points, digits and a field.

    The ids take the code points the marks of a kept height's template
    would otherwise be, so the marks must pass them; a digit, ASCII or not,
    is never a mark.
    """
    ids = ["\x00", "\x01", "\x02", "\u0663", "7", "{0}"]
    return [v._replace(id=i) for v, i in zip(mixed_behavior_roster(), ids)]


class TestReplay:
    """A draw-free height on a roster is simulated once and relabelled for every later batch."""

    @settings(max_examples=150, deadline=None)
    @given(height=st.one_of(draw_free_heights(), clean_heights()),
           heights_=st.tuples(st.integers(0, 50), st.integers(0, 50)))
    @example(height=(mixed_behavior_roster(), MIXED_PARTITION, 3),
             heights_=(4, 5))
    @example(height=(mixed_behavior_roster(), LOSSLESS, 1), heights_=(0, 0))
    @example(height=(without_equivocators(shared_roster()), LOSSLESS, 2), heights_=(9, 3))
    @example(height=(brace_roster(), LOSSLESS, 3), heights_=(2, 7))
    @example(height=(mark_roster(), LOSSLESS, 3), heights_=(0, 123))
    @example(height=(mark_roster(), MIXED_PARTITION, 2), heights_=(10, 9))
    def test_replay_matches_fresh_simulation(self, height, heights_):
        validators, model, max_rounds = height
        batches = (["a", "{b}"], ["{0}{1}c"])
        roster, trace, expected_trace = Roster(validators), EventTrace(), EventTrace()
        # The trace already holds an event: a kept height starts where its call began.
        for t in (trace, expected_trace):
            t.record(0, "round-start", 0, 0, "earlier", None)
        with recorded(consensus.GossipNetwork, "__init__") as networks:
            outcomes = [run_height(roster, batch, model, max_rounds, height=h, trace=trace)
                        for batch, h in zip(batches, heights_)]
        # Only the first height made a network; the second was replayed.
        assert len(networks) == 1 and list(roster.replays) == [(model, max_rounds)]
        expected = [run_height(Roster(validators), batch, model, max_rounds, height=h,
                               trace=expected_trace)
                    for batch, h in zip(batches, heights_)]
        assert outcomes == expected
        # The replayed height is pending: its text fills the kept template and
        # its faults are the kept ones, and neither builds its events.
        with recorded(KeptHeight, "relabel") as relabelled:
            assert trace.text() == "\n".join(expected_trace.to_lines())
            assert trace.faults == expected_trace.faults
            assert relabelled == []
            assert trace.events == expected_trace.events
            assert len(relabelled) == 1
        assert all(type(event) is TraceEvent for event in trace.events)
        assert trace.text() == expected_trace.text()

    @settings(max_examples=5, deadline=None)
    @given(validators=st.sampled_from([brace_roster(), mark_roster()]))
    @example(validators=brace_roster())
    @example(validators=mark_roster())
    def test_pending_replays_keep_event_order_in_a_mixed_trace(self, validators):
        roster, other = Roster(validators), mixed_behavior_roster()
        run_height(roster, ["kept"], LOSSLESS, 3)

        def fill(trace, replay):
            """Records, replays of ``roster`` and a height of ``other`` into ``trace``."""
            kept = roster if replay else list(roster)
            trace.record(0, "round-start", 0, 0, "first", None)
            run_height(kept, ["x"], LOSSLESS, 3, height=1, trace=trace)
            run_height(other, ["y"], MIXED_PARTITION, 3, height=2, trace=trace)
            trace.record(5, "round-start", 3, 1, "{0}", None)
            run_height(kept, ["z"], LOSSLESS, 3, height=4, trace=trace)
            trace.record(6, "round-start", 5, 0, "}", None)
            run_height(kept, ["w"], LOSSLESS, 3, height=6, trace=trace)
            return trace

        with recorded(consensus.GossipNetwork, "__init__") as networks:
            trace = fill(EventTrace(), replay=True)
        # Only the height of the other roster was simulated.
        assert len(networks) == 1
        expected = fill(EventTrace(), replay=False)
        assert trace.text() == "\n".join(expected.to_lines())
        assert trace.faults == expected.faults
        assert trace.events == expected.events
        assert trace.to_lines() == expected.to_lines()
        assert trace.text() == expected.text()

    @pytest.mark.parametrize("ids, marks", [
        ([f"v{i}" for i in range(6)], ("\x00", "\x01")),
        ([v.id for v in mark_roster()], ("\x03", "\x04")),
        # Between them the ids hold every code point below "0"; the marks
        # pass the digits, and ":", which the fault kinds hold.
        (["".join(map(chr, range(k, 48, 6))) for k in range(6)], (";", "<")),
        # Between them the ids hold every code point below 256.
        (["".join(map(chr, range(k, 256, 6))) for k in range(6)], ("\u0100", "\u0101")),
    ], ids=["plain", "mark", "below-digits", "latin-1"])
    def test_marks_are_the_lowest_code_points_free_in_the_lines(self, ids, marks):
        validators = [v._replace(id=i) for v, i in zip(mixed_behavior_roster(), ids)]
        roster, trace, expected = Roster(validators), EventTrace(), EventTrace()
        # Heights of every width from one digit to three.
        for h in (0, 9, 10, 123):
            run_height(roster, [f"tx{h}"], LOSSLESS, 3, height=h, trace=trace)
            run_height(validators, [f"tx{h}"], LOSSLESS, 3, height=h, trace=expected)
        (kept,) = roster.replays.values()
        assert kept.marks == marks
        assert trace.text() == "\n".join(expected.to_lines())
        assert trace.events == expected.events

    def test_drawing_network_never_replays(self):
        validators = mixed_behavior_roster()
        model = NetworkModel(drop_probability=0.1, latency_jitter=1, rng_seed=5)
        roster, trace, expected_trace = Roster(validators), EventTrace(), EventTrace()
        with recorded(consensus.GossipNetwork, "__init__") as networks:
            outcomes = [run_height(roster, ["tx", str(h)], model, 3, height=h, trace=trace)
                        for h in range(3)]
        assert len(networks) == 3 and roster.replays == {}
        assert outcomes == [run_height(validators, ["tx", str(h)], model, 3, height=h,
                                       trace=expected_trace) for h in range(3)]
        assert trace.to_lines() == expected_trace.to_lines()

    def test_each_network_and_max_rounds_is_kept_apart(self):
        roster = Roster(mixed_behavior_roster())
        for model, max_rounds in ((LOSSLESS, 2), (LOSSLESS, 3), (MIXED_PARTITION, 2),
                                  (LOSSLESS, 2)):
            expected = run_height(list(roster), ["x"], model, max_rounds, height=1)
            assert run_height(roster, ["x"], model, max_rounds, height=1) == expected
        assert list(roster.replays) == [(LOSSLESS, 2), (LOSSLESS, 3),
                                        (MIXED_PARTITION, 2)]

    def test_list_schedule_with_set_members_is_made_canonical_and_replayed(self):
        validators = mixed_behavior_roster()
        spec = MIXED_PARTITION.partition_schedule[0]
        model = NetworkModel(rng_seed=3, partition_schedule=[[*spec[:2], set(spec.members)]])
        assert model == MIXED_PARTITION
        roster = Roster(validators)
        with recorded(consensus.GossipNetwork, "__init__") as networks:
            for h in range(2):
                expected_trace, trace = EventTrace(), EventTrace()
                assert run_height(roster, ["x"], model, 3, height=h, trace=trace) == run_height(
                    validators, ["x"], MIXED_PARTITION, 3, height=h, trace=expected_trace)
                assert trace.events == expected_trace.events
        # The second height on the roster was replayed: only the first made a
        # network there, beside one per fresh simulation.
        assert len(networks) == 3 and list(roster.replays) == [(MIXED_PARTITION, 3)]

    def test_negative_height_raises_on_both_paths(self):
        roster = Roster(make_validators(["honest"] * 4))
        trace = EventTrace()
        run_height(roster, ["tx"], LOSSLESS, 2, height=0)
        for height in (-1, True, 1.5):
            # Simulated path (a fresh roster): nothing is kept and nothing recorded.
            fresh = Roster(list(roster))
            with pytest.raises(DomainError, match="^height must be an integer >= 0$"):
                run_height(fresh, ["tx"], LOSSLESS, 2, height=height, trace=trace)
            assert fresh.replays == {} and trace.events == []
            # Replayed path.
            assert list(roster.replays) == [(LOSSLESS, 2)]
            with pytest.raises(DomainError, match="^height must be an integer >= 0$"):
                run_height(roster, ["tx"], LOSSLESS, 2, height=height, trace=trace)
            assert trace.events == []

    @pytest.mark.parametrize("max_rounds", [0, -1, 2.0, True])
    def test_max_rounds_must_be_a_positive_integer(self, max_rounds):
        # A kept height is found by an equal max_rounds, and 2.0 == 2 would
        # replay an int's rounds for a float's.
        with pytest.raises(DomainError, match="^max_rounds must be an integer >= 1$"):
            run_height(make_validators(["honest"] * 4), ["tx"], LOSSLESS, max_rounds)


def roster_shape(validators):
    """What a roster's kept heights are shared by, derived from the float stakes; None past 8.

    Each validator's (id, behavior, region latency) in id order, the
    proposer order of ids, and per voter subset (bit i for the i-th id in
    id order) whether the ``fsum`` of its stakes is a quorum of the total.
    """
    if len(validators) > 8:
        return None
    by_id = sorted(validators, key=lambda v: v.id)
    total = math.fsum(v.stake for v in validators)
    family = [stake_quorum(math.fsum(v.stake for i, v in enumerate(by_id) if mask >> i & 1),
                           total)
              for mask in range(2 ** len(by_id))]
    return ([(v.id, v.behavior, v.region_latency) for v in by_id],
            [v.id for v in sorted(by_id, key=lambda v: (-v.stake, v.id))], family)


@st.composite
def restaked_heights(draw):
    """A draw-free height and the same validators with new stakes, as settlement would leave them.

    Each stake is kept or multiplied by a drawn factor, and then all by a
    common one; a power of two keeps every quorum, so equal shapes are common.
    """
    validators, model, max_rounds = draw(draw_free_heights())
    scale = draw(st.sampled_from([1.0, 0.5, 2.0, 1.5]))
    restaked = [v._replace(stake=v.stake * draw(st.just(1.0) | st.floats(0.2, 5.0)) * scale)
                for v in validators]
    return validators, restaked, model, max_rounds


def honest_roster(stakes, first_id=0):
    return [ValidatorDescriptor(f"v{first_id + i}", stake) for i, stake in enumerate(stakes)]


# Pinned (roster, restaked roster) pairs for TestShapeReplay.
# A slash of v1 makes {v2, v3} a quorum (and v1 the last proposer).
SLASHED = honest_roster([4.0, 3.0, 3.0], first_id=1), honest_roster([2.0, 3.0, 3.0], first_id=1)
# The quorum family stays (three of four), but v1 becomes the first proposer.
FLIPPED = honest_roster([4.0, 3.0, 3.0, 3.0]), honest_roster([3.0, 4.0, 3.0, 3.0])
# A single operator is always its own quorum.
SINGLE = honest_roster([10.0]), honest_roster([3.0])
# A silent operator slashed to the harness's stake floor of 1e-9.
FLOOR = tuple([*honest_roster(stakes), ValidatorDescriptor("v2", 1e-9, "silent")]
              for stakes in ([5.0, 4.0], [5.5, 4.0]))


class TestShapeReplay:
    """Rosters that share a store of kept heights replay each other's when their shapes are equal."""

    @settings(max_examples=150, deadline=None)
    @given(height=restaked_heights())
    @example(height=(*SLASHED, LOSSLESS, 3))
    @example(height=(*FLIPPED, LOSSLESS, 3))
    @example(height=(*SINGLE, LOSSLESS, 1))
    @example(height=(*FLOOR, LOSSLESS, 2))
    def test_equal_shape_replays_a_fresh_simulation(self, height):
        validators, restaked, model, max_rounds = height
        kept = {}
        run_height(Roster(validators, kept), ["a"], model, max_rounds, height=1)
        roster, trace, expected_trace = Roster(restaked, kept), EventTrace(), EventTrace()
        with recorded(consensus.GossipNetwork, "__init__") as networks:
            outcome = run_height(roster, ["b", "{c}"], model, max_rounds, height=4, trace=trace)
        shape = roster_shape(validators)
        assert len(networks) == (0 if shape is not None and shape == roster_shape(restaked)
                                 else 1)
        expected = run_height(restaked, ["b", "{c}"], model, max_rounds, height=4,
                              trace=expected_trace)
        # A signature's stakes are those of the roster it ran on.
        assert outcome == expected
        if outcome.committed:
            assert outcome.signature.valid is expected.signature.valid
        assert trace.text() == expected_trace.text()
        assert trace.faults == expected_trace.faults
        assert trace.events == expected_trace.events

    def test_only_a_replay_on_another_roster_restakes(self, monkeypatch):
        # A kept height holds its roster's stakes dict, and not the roster,
        # which holds it in turn. A replay on that roster keeps the kept
        # signature's stakes; one on a roster of equal shape sums its own.
        validators = mixed_behavior_roster()
        kept = {}
        roster = Roster(validators, kept)
        run_height(roster, ["a"], LOSSLESS, 3)
        (kept_height,) = roster.replays.values()
        assert kept_height.stakes is roster.stakes
        assert not any(r is roster for r in gc.get_referents(kept_height))
        sums = []
        monkeypatch.setattr(trace_module, "math", types.SimpleNamespace(
            fsum=lambda stakes: sums.append(1) or math.fsum(stakes)))
        outcome = run_height(roster, ["b"], LOSSLESS, 3, height=1)
        assert outcome.committed and sums == []
        assert outcome == run_height(validators, ["b"], LOSSLESS, 3, height=1)
        # Doubled stakes keep the shape but not the stakes.
        doubled = [v._replace(stake=2 * v.stake) for v in validators]
        outcome = run_height(Roster(doubled, kept), ["c"], LOSSLESS, 3, height=2)
        assert sums == [1] and outcome.signature.total_stake == 2 * roster.total_stake
        assert outcome == run_height(doubled, ["c"], LOSSLESS, 3, height=2)

    def test_pinned_examples_hit_both_sides(self):
        # The examples above: the first two must simulate, the last two replay.
        a, b = map(roster_shape, SLASHED)
        assert a[0] == b[0] and a[2] != b[2] and b[2][0b110]
        a, b = map(roster_shape, FLIPPED)
        assert a[0] == b[0] and a[1] != b[1] and a[2] == b[2]
        for a, b in (SINGLE, FLOOR):
            assert roster_shape(a) == roster_shape(b)

    @pytest.mark.parametrize("change", [
        {"behavior": Behavior.HONEST}, {"region_latency": 3}, {"id": "v9"}])
    def test_a_validator_changed_but_for_its_stake_is_another_shape(self, change):
        # v2, the equivocator, changes; the stakes and the quorum family stay.
        validators = mixed_behavior_roster()
        changed = [v._replace(**change) if v.id == "v2" else v for v in validators]
        kept = {}
        run_height(Roster(validators, kept), ["a"], LOSSLESS, 3)
        trace, expected_trace = EventTrace(), EventTrace()
        with recorded(consensus.GossipNetwork, "__init__") as networks:
            outcome = run_height(Roster(changed, kept), ["b"], LOSSLESS, 3, trace=trace)
        assert len(networks) == 1 and len(kept) == 2
        assert outcome == run_height(changed, ["b"], LOSSLESS, 3, trace=expected_trace)
        assert trace.events == expected_trace.events

    def test_large_rosters_keep_their_own_replays(self):
        # A roster of up to 8 validators has a shape, and one of 9 does not,
        # whether or not its heights share tallies.
        kept = {}
        big = [Roster(honest_roster([10.0 + i] * 9), kept) for i in range(2)]
        assert kept == {} and big[0].replays is not big[1].replays
        for n in (3, 8):
            small = [Roster(honest_roster([10.0 + i] * n), kept) for i in range(2)]
            assert small[0].replays is small[1].replays
        assert len(kept) == 2

    def test_no_kept_height_outlives_a_run(self):
        # Every run simulates its own first height; payment-econ's other 47 replay it.
        config = load_config(WORKLOADS.config_text("payment-econ", 0))
        for _ in range(2):
            with recorded(consensus.GossipNetwork, "__init__") as networks:
                run_simulation(config)
            assert len(networks) == 1

    @pytest.mark.parametrize("source", [
        *(pytest.param(str(CONFIGS / name), id=name) for name in ("sequencer.json", "payment.json")),
        *(pytest.param(WORKLOADS.config_text(name, 0), id=f"{name}-0")
          for name in sorted(WORKLOADS.WORKLOADS))])
    def test_runs_that_replay_nothing_give_the_same_report(self, source, monkeypatch, tmp_path):
        class Forgetful(dict):
            """A replays store that keeps nothing, so every lookup misses."""

            def __setitem__(self, key, value):
                pass

        def forgetful_roster(validators, kept):
            roster = Roster(validators, kept)
            roster.replays = Forgetful()
            return roster

        config = load_config(source)
        reports = [run_simulation(config)]
        monkeypatch.setattr(harness, "Roster", forgetful_roster)
        with recorded(consensus.GossipNetwork, "__init__") as networks:
            reports.append(run_simulation(config))
        assert len(networks) == sum(len(epoch["heights"]) for epoch in reports[1].epochs)
        assert reports[0].trace_digest == reports[1].trace_digest
        for i, report in enumerate(reports):
            write_report(report, "json", tmp_path / f"{i}.json")
        assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()


class TestClosedFormLatency:
    """ROADMAP item 4: a lossless, all-honest roster of uniform latency L commits at tick 3L.

    A proposal, the prevotes and the precommits each take L ticks, so the
    first commit is in round 0 at tick 3L whenever 2L <= BASE_PHASE_TIMEOUT.
    Both the simulated first height and a replayed second one are checked.
    """

    @pytest.mark.parametrize("n, latency", [
        pytest.param(n, latency, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 8: the proposer takes its prevote timeout at "
            "the first prevote delivered at tick 4, and the height commits in round 1 at "
            "tick 14")) if (n, latency) == (3, 2) else (n, latency)
        for n in (3, 4, 9, 16, 64) for latency in (1, 2)])
    def test_first_commit_in_round_zero_at_three_latencies(self, n, latency):
        roster = Roster(make_validators(["honest"] * n, latency=latency))
        for h, batch in enumerate((["a"], ["b", "c"])):
            outcome = run_height(roster, batch, LOSSLESS, max_rounds=4, height=h)
            assert (outcome.committed, outcome.rounds_used, outcome.ticks_elapsed) == (
                True, 1, 3 * latency), f"height {h}"
        assert len(roster.replays) == 1
