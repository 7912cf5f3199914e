"""Seeded workload generators for the opsim benchmark.

Each workload is a config document built from the benchmark's seed and
handed to ``opsim.load_config`` as inline JSON. The shape of every workload
is fixed and the seed moves values inside narrow ranges, so the work a run
does, and hence its run time, stays close across seeds.

Why each workload exists, and which layer it loads or bypasses:

* ``payment-econ`` -- the shape of ``configs/payment.json`` over 16 epochs.
  The projected-gradient allocation solve does over 90% of the work; three
  lossless validators make consensus trivial. A consensus change must not
  move it.
* ``roster-wide`` -- 64 honest operators on a lossless network. Every
  height commits in round 1 within 8 ticks, but each height sends about
  8k messages, each re-tallied by its recipient: consensus is
  message-bound. Tick skipping has nothing to skip here.
* ``byzantine-lossy`` -- 16 operators, a quarter of them Byzantine, with
  drops, jitter and a partition. Honest laggards run to the horizon, so a
  height simulates about 5k mostly idle ticks: consensus is tick-bound.
  Window misses, fallbacks and slashes all occur.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("payment-econ", "roster-wide", "byzantine-lossy")


def _payment_econ(rng: random.Random) -> dict:
    def jitter(value: float, spread: float = 0.05) -> float:
        return round(value * rng.uniform(1.0 - spread, 1.0 + spread), 6)

    operators = [
        {"id": "validator-1", "stake": jitter(150.0), "trust": jitter(0.7),
         "payment": {"fee": 1.0, "validation_cost_coeff": jitter(0.01),
                     "capacity": 400, "error_cost_coeff": 2.0, "error_rate": 0.01,
                     "penalty_coeff": 0.1, "deadline": 1.0, "validation_time": 0.8}},
        {"id": "validator-2", "stake": jitter(110.0), "trust": jitter(0.5),
         "payment": {"fee": 0.9, "validation_cost_coeff": jitter(0.02),
                     "capacity": 250, "error_cost_coeff": 1.5, "penalty_coeff": 0.2,
                     "deadline": 1.0,
                     "stages": [{"latency": 0.4, "error_rate": 0.004},
                                {"latency": 0.5, "error_rate": 0.006},
                                {"latency": 0.3, "error_rate": 0.002}]}},
        {"id": "validator-3", "stake": jitter(90.0), "trust": jitter(0.5),
         "payment": {"fee": 0.8, "validation_cost_coeff": jitter(0.015),
                     "capacity": 300, "error_cost_coeff": 1.0, "error_rate": 0.02,
                     "validation_cost_cap": 450.0}},
    ]
    return {
        "scenario": "payment",
        "seed": rng.randrange(2**31),
        "epochs": 16,
        # No window misses: the trust path, and with it the solver's work,
        # then depends on the seed only through the jittered parameters.
        "failure_rate_constant": 0.0,
        "schedule": {"window_length": 10, "windows_per_epoch": 3, "grace_length": 5},
        "operators": operators,
        "tasks": [{"id": "consumer-payments", "cost_rate": 0.05, "resource_cap": 9.0,
                   "value": 45.0, "consensus_gain": jitter(1.2),
                   "performance_gain": jitter(1.0)}],
    }


def _gain_table(rng: random.Random, operators: list[dict], low: float,
                high: float) -> dict[str, float]:
    return {op["id"]: round(rng.uniform(low, high), 4) for op in operators}


def _roster_wide(rng: random.Random) -> dict:
    operators = [
        {"id": f"op-{i:02d}", "stake": round(rng.uniform(80.0, 120.0), 3),
         "trust": round(rng.uniform(0.45, 0.75), 3), "capacity": 300.0,
         "resources": 20.0, "region_latency": rng.randint(1, 3)}
        for i in range(64)
    ]
    # The largest stake proposes every round-0 block. From a far region its
    # own prevote deadline would expire before the quorum arrives, leaving
    # it a laggard that runs to the horizon; keep it near so every height
    # finishes in a few ticks and the workload stays message-bound.
    max(operators, key=lambda op: (op["stake"], op["id"]))["region_latency"] = 1
    return {
        "scenario": "sequencer",
        "seed": rng.randrange(2**31),
        "epochs": 1,
        "network": {"drop_probability": 0.0, "latency_jitter": 0, "partitions": []},
        "schedule": {"window_length": 8, "windows_per_epoch": 16, "grace_length": 4},
        "operators": operators,
        "tasks": [{"id": "batch-ordering", "cost_rate": 0.12, "corruption_rate": 0.02,
                   "resource_cap": 40.0, "value": 60.0,
                   "consensus_gain": _gain_table(rng, operators, 1.0, 1.8),
                   "performance_gain": _gain_table(rng, operators, 0.8, 1.2)}],
    }


def _byzantine_lossy(rng: random.Random) -> dict:
    # Run time here is set by how many honest validators lag each height,
    # which the network draws decide; over different draws it spreads by
    # about 15%, more than the bound a regression is judged by. So stakes,
    # roles, regions, partition members and the simulator's seed (hence
    # every network draw) are fixed, and the benchmark seed moves trusts,
    # gains and costs: window misses, fallbacks, rewards and the stakes the
    # second epoch starts from.
    behaviors = {1: "equivocating", 6: "silent", 10: "invalid-proposer",
                 13: "equivocating"}
    operators = [
        {"id": f"op-{rank:02d}", "stake": 140.0 - 4.0 * rank,
         "trust": round(rng.uniform(0.45, 0.75), 3),
         "behavior": behaviors.get(rank, "honest"), "capacity": 300.0,
         "resources": 20.0, "region_latency": 1 + rank % 2}
        for rank in range(16)
    ]
    partitioned = [operators[rank]["id"] for rank in (3, 7, 11, 15)]
    tasks = [
        {"id": f"task-{t}", "cost_rate": round(rng.uniform(0.08, 0.12), 4),
         "resource_cap": cap, "value": 30.0,
         "consensus_gain": _gain_table(rng, operators, 1.0, 1.6),
         "performance_gain": _gain_table(rng, operators, 0.8, 1.4)}
        for t, cap in enumerate((10.0, 6.0, 8.0))
    ]
    return {
        "scenario": "sequencer",
        "seed": 777,
        "epochs": 2,
        "max_rounds": 9,
        # Misses are frequent enough that fallbacks and unrecoverable
        # windows occur at every seed.
        "failure_rate_constant": 0.25,
        "network": {"drop_probability": 0.1, "latency_jitter": 2,
                    "partitions": [{"start": 0, "end": 24, "members": partitioned}]},
        "schedule": {"window_length": 8, "windows_per_epoch": 8, "grace_length": 4},
        "operators": operators,
        "tasks": tasks,
    }


_GENERATORS = {
    "payment-econ": _payment_econ,
    "roster-wide": _roster_wide,
    "byzantine-lossy": _byzantine_lossy,
}


def generate(workload: str, seed: int) -> dict:
    """Config document of ``workload`` for benchmark seed ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def config_text(workload: str, seed: int) -> str:
    """Inline JSON text of the workload, as ``load_config`` accepts it."""
    return json.dumps(generate(workload, seed), sort_keys=True)
