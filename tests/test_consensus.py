import itertools
import random

import pytest

from opsim import (Behavior, ConsensusMessage, DomainError,
                   EventTrace, GossipNetwork, MsgKind, NetworkModel, PartitionSpec,
                   ValidatorDescriptor, aggregate_signature, batch_digest,
                   quorum_met, run_height)
from oracles import stake_quorum

LOSSLESS = NetworkModel(drop_probability=0.0, latency_jitter=0, rng_seed=1)


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
            ConsensusMessage(MsgKind.PROPOSAL, 0, 0, "v", None, 0)

    def test_nil_votes_allowed(self):
        msg = ConsensusMessage(MsgKind.PREVOTE, 0, 0, "v", None, 0)
        assert msg.batch_digest is None

    def test_network_model_bounds(self):
        with pytest.raises(DomainError):
            NetworkModel(drop_probability=1.0)
        with pytest.raises(DomainError):
            NetworkModel(latency_jitter=-1)


class TestGossip:
    def test_lossless_unit_latency_delivers_once(self):
        validators = make_validators(["honest"] * 3, latency=1)
        net = GossipNetwork(LOSSLESS, validators)
        msg = ConsensusMessage(MsgKind.PREVOTE, 0, 0, "v0", "d", send_tick=5)
        net.broadcast(msg)
        assert net.step(5) == []
        delivered = net.step(6)
        assert sorted(d.recipient for d in delivered) == ["v1", "v2"]
        assert all(d.deliver_tick == 6 for d in delivered)
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
                msg = ConsensusMessage(MsgKind.PREVOTE, 0, 0, f"v{tick}", "d", tick)
                net.broadcast(msg)
                log.extend((d.recipient, d.deliver_tick) for d in net.step(tick))
            for tick in range(3, 12):
                log.extend((d.recipient, d.deliver_tick) for d in net.step(tick))
            traces.append(log)
        assert traces[0] == traces[1]

    def test_partition_blocks_cross_traffic(self):
        model = NetworkModel(
            rng_seed=0,
            partition_schedule=(PartitionSpec(0, 100, frozenset({"v0"})),))
        validators = make_validators(["honest"] * 3, latency=1)
        net = GossipNetwork(model, validators)
        net.broadcast(ConsensusMessage(MsgKind.PREVOTE, 0, 0, "v0", "d", 0))
        net.broadcast(ConsensusMessage(MsgKind.PREVOTE, 0, 0, "v1", "d", 0))
        delivered = []
        for tick in range(4):
            delivered.extend(net.step(tick))
        pairs = {(d.message.sender, d.recipient) for d in delivered}
        assert ("v0", "v1") not in pairs and ("v0", "v2") not in pairs
        assert ("v1", "v2") in pairs and ("v1", "v0") not in pairs

    def test_decreasing_tick_rejected(self):
        net = GossipNetwork(LOSSLESS, make_validators(["honest"] * 2))
        net.step(5)
        with pytest.raises(DomainError):
            net.step(4)


class TestAggregateSignature:
    def _precommits(self, senders, digest="d"):
        return [ConsensusMessage(MsgKind.PRECOMMIT, 0, 0, s, digest, 0)
                for s in senders]

    def test_three_quarters_valid(self):
        validators = make_validators(["honest"] * 4)
        sig = aggregate_signature(self._precommits(["v0", "v1", "v2"]),
                                  validators, "d")
        assert sig.signed_stake == pytest.approx(30.0)
        assert sig.total_stake == pytest.approx(40.0)
        assert sig.valid

    def test_empty_precommits_invalid(self):
        validators = make_validators(["honest"] * 4)
        sig = aggregate_signature([], validators, "d")
        assert sig.signed_stake == 0.0
        assert not sig.valid

    def test_half_stake_invalid(self):
        validators = make_validators(["honest"] * 4)
        sig = aggregate_signature(self._precommits(["v0", "v1"]), validators, "d")
        assert not sig.valid

    def test_duplicate_senders_count_once(self):
        validators = make_validators(["honest"] * 4)
        sig = aggregate_signature(self._precommits(["v0", "v0", "v1", "v1"]),
                                  validators, "d")
        assert sig.signed_stake == pytest.approx(20.0)

    def test_unknown_sender_recorded_and_ignored(self):
        validators = make_validators(["honest"] * 3)
        trace = EventTrace()
        sig = aggregate_signature(self._precommits(["v0", "ghost"]),
                                  validators, "d", trace)
        assert sig.signed_stake == pytest.approx(10.0)
        assert [f.kind for f in trace.faults] == ["unknown-validator"]

    def test_mismatched_digest_not_counted(self):
        validators = make_validators(["honest"] * 3)
        msgs = self._precommits(["v0"]) + self._precommits(["v1"], digest="other")
        sig = aggregate_signature(msgs, validators, "d")
        assert sig.signer_set == frozenset({"v0"})

    def test_mixed_rounds_rejected(self):
        validators = make_validators(["honest"] * 2)
        msgs = [ConsensusMessage(MsgKind.PRECOMMIT, 0, 0, "v0", "d", 0),
                ConsensusMessage(MsgKind.PRECOMMIT, 0, 1, "v1", "d", 0)]
        with pytest.raises(DomainError):
            aggregate_signature(msgs, validators, "d")

    def test_subset_validity_matches_stake_rule_exhaustively(self):
        stakes = [17.0, 11.0, 7.0, 5.0, 3.0, 2.0]
        validators = make_validators(["honest"] * 6, stakes=stakes)
        total = sum(stakes)
        for mask in range(2 ** 6):
            senders = [f"v{i}" for i in range(6) if mask & (1 << i)]
            sig = aggregate_signature(self._precommits(senders), validators, "d")
            expected = stake_quorum(sum(stakes[i] for i in range(6)
                                        if mask & (1 << i)), total)
            assert sig.valid == expected


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
        assert any(f.kind == "invalid-proposal" for f in trace.faults)

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
        assert any(f.kind == "equivocation" and f.validator == "v3"
                   for f in trace.faults)

    def test_silent_fault_recorded(self):
        validators = make_validators(["honest", "honest", "honest", "silent"])
        trace = EventTrace()
        run_height(validators, ["tx"], LOSSLESS, max_rounds=5, trace=trace)
        assert any(f.kind == "non-participation" and f.validator == "v3"
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
