"""Tests of the benchmark's own parts.

Run from the root of a checkout: ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from checks import water_fill
from run import END_TO_END, PER_LAYER
from tracing import Tracer, TracingError, run_metrics
from workloads import WORKLOADS, generate

from opsim import consensus, harness, load_config, run_simulation

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)
        assert generate(workload, 7) != generate(workload, 8)


@pytest.mark.parametrize("cap", [4.0, 10.0])
def test_water_fill_matches_brute_force_grid(cap):
    # Two operators on one task: maximize sum g ln(1 + x) - k x on a grid
    # over {x >= 0, x1 + x2 <= cap}. The cap binds at 4 and not at 10.
    gains, cost = (3.0, 2.0), 0.5
    axis = np.linspace(0.0, cap, 1001)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    welfare = (gains[0] * np.log1p(x1) + gains[1] * np.log1p(x2)
               - cost * (x1 + x2))
    welfare[x1 + x2 > cap + 1e-12] = -np.inf
    best = np.unravel_index(np.argmax(welfare), welfare.shape)
    exact = water_fill(gains, cost, cap)
    step = axis[1] - axis[0]
    assert abs(exact[0] - x1[best]) <= 2 * step
    assert abs(exact[1] - x2[best]) <= 2 * step
    assert math.fsum(exact) <= cap + 1e-12


def _small_byzantine():
    doc = generate("byzantine-lossy", 3)
    doc["epochs"] = 1
    doc["max_rounds"] = 4
    doc["schedule"]["windows_per_epoch"] = 3
    return load_config(json.dumps(doc))


def test_traced_run_has_the_untraced_digest():
    config = _small_byzantine()
    untraced = run_simulation(config)
    tracer = Tracer()
    with tracer.installed(harness, consensus.GossipNetwork):
        with tracer.span("harness.run_simulation"):
            traced = harness.run_simulation(config)
    assert traced.trace_digest == untraced.trace_digest
    assert harness.run_height is consensus.run_height

    timings, counts, problems = run_metrics(tracer, traced.to_dict(),
                                            consensus.batch_digest)
    assert problems == []
    assert counts["consensus.msgs_sent"] > counts["consensus.msgs_dropped"] > 0
    assert counts["consensus.ticks_per_height"] > 0
    assert timings["consensus.heights_s"] > 0


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(harness, "settle")
    with pytest.raises(TracingError, match="settle"):
        with Tracer().installed(harness, consensus.GossipNetwork):
            pass


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
