"""Traced run: spans around every call the harness makes into each layer.

The tracer wraps, from outside the program, each function that
``opsim.harness`` imports from a layer module, plus ``GossipNetwork.step``
(one call per simulated tick) and ``GossipNetwork.broadcast`` (one call per
message fan-out). Spans (name, start, end, parent, run id) stay in memory
until the benchmark writes them out. Self time of a span is its duration
minus that of its child spans; a layer's self time is the sum over its
spans. Counts come from the wrapped calls' arguments and results and from
the report, and repeat exactly for a fixed (workload, seed).
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager

from checks import allocation_error

LAYERS = ("agents", "allocation", "consensus", "scheduling", "incentives", "scenarios")

# Names the per-layer metrics are computed from. If the harness stops
# importing one of them the traced run fails instead of reporting zeros.
REQUIRED = {
    "evaluate_scores": "agents",
    "solve_allocation": "allocation",
    "hessian_stability": "allocation",
    "run_height": "consensus",
    "assign_windows": "scheduling",
    "on_window_miss": "scheduling",
    "apply_fallback": "scheduling",
    "settle": "incentives",
    "update_trust": "incentives",
    "make_aggregation_report": "incentives",
    "feedback_iterate": "incentives",
    "failure_probability": "scenarios",
}


class TracingError(RuntimeError):
    """The program no longer has a name the tracer must wrap."""


def layer_functions(harness) -> dict[str, str]:
    """Map each function ``harness`` imports from a layer to that layer."""
    found = {}
    for name, obj in vars(harness).items():
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(obj) and module.startswith("opsim.") and layer in LAYERS:
            found[name] = layer
    for name, layer in REQUIRED.items():
        if found.get(name) != layer:
            raise TracingError(f"opsim.harness no longer imports {name} from "
                               f"opsim.{layer}; the traced run cannot measure it")
    return found


class Tracer:
    """In-memory spans plus the raw call records the metrics are built from."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index, run id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0
        self.heights: list[dict] = []
        self.solves: list[tuple] = []
        self.settles: list[tuple] = []
        self._height: dict | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start

    def _wrap(self, name: str, layer: str, fn):
        span_name = f"{layer}.{name}"
        if name == "run_height":
            return self._wrap_height(span_name, fn)
        signature = inspect.signature(fn)
        records = {"solve_allocation": self.solves, "settle": self.settles}.get(name)

        def wrapper(*args, **kwargs):
            index = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if records is not None:
                records.append((signature.bind(*args, **kwargs).arguments, result))
            return result
        return wrapper

    def _wrap_height(self, span_name: str, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            height = {"roster": len(call["validators"]), "ticks": 0, "sent": 0,
                      "queued": 0, "call": call}
            self._height = height
            index = self.open(span_name)
            try:
                height["outcome"] = fn(*args, **kwargs)
            finally:
                self.close(index)
                self._height = None
            height["span"] = index
            self.heights.append(height)
            return height["outcome"]
        return wrapper

    def _wrap_network(self, network_cls):
        step, broadcast = network_cls.step, network_cls.broadcast

        def traced_step(net, tick):
            self._height["ticks"] += 1
            return step(net, tick)

        def traced_broadcast(net, message, recipients=None):
            before = net.pending
            broadcast(net, message, recipients)
            height = self._height
            # Recipients a message was not queued for were dropped or cut off
            # by a partition.
            height["queued"] += net.pending - before
            height["sent"] += (height["roster"] - 1 if recipients is None
                               else len(set(recipients) - {message.sender}))
        return traced_step, traced_broadcast

    @contextmanager
    def installed(self, harness, network_cls):
        """Wrap the harness's layer calls and the gossip network, then restore."""
        names = layer_functions(harness)
        for method in ("step", "broadcast"):
            if not callable(vars(network_cls).get(method)):
                raise TracingError(f"GossipNetwork.{method} no longer exists")
        originals = {name: getattr(harness, name) for name in names}
        network_originals = (network_cls.step, network_cls.broadcast)
        try:
            for name, layer in names.items():
                setattr(harness, name, self._wrap(name, layer, originals[name]))
            network_cls.step, network_cls.broadcast = self._wrap_network(network_cls)
            yield self
        finally:
            for name, fn in originals.items():
                setattr(harness, name, fn)
            network_cls.step, network_cls.broadcast = network_originals

    def reset_run(self, run_id: int) -> None:
        """Start a new run: call records are per run, spans accumulate."""
        self.run_id = run_id
        self.heights.clear()
        self.solves.clear()
        self.settles.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name over the current run."""
        child_time: dict[int, float] = {}
        for index, (_, start, end, parent, run) in enumerate(self.spans):
            if run == self.run_id and parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _, run) in enumerate(self.spans):
            if run == self.run_id:
                own = end - start - child_time.get(index, 0.0)
                totals[name] = totals.get(name, 0.0) + own
        return totals


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_metrics(tracer: Tracer, report_doc: dict, batch_digest) -> tuple[dict, dict, list]:
    """Per-layer (timings, counts, problems) of the tracer's current run.

    ``batch_digest`` is the program's digest function: a traced height that
    decides any other digest than that of the batch it was given is a
    failed run.
    """
    self_s = tracer.self_times()

    def layer_s(layer: str) -> float:
        return math.fsum(v for k, v in self_s.items() if k.startswith(layer + "."))

    problems = []
    heights = tracer.heights
    committed = undecided = rounds = 0
    for h in heights:
        call, outcome = h["call"], h["outcome"]
        expected = batch_digest(call["batch"])
        decided = set(call["trace"].decisions.values())
        if (outcome.committed and outcome.batch_digest != expected) or decided - {expected}:
            problems.append(f"height {call.get('height')}: decided a digest other "
                            "than the batch digest")
        committed += outcome.committed
        rounds += outcome.rounds_used
        undecided += sum(1 for v in call["validators"]
                         if v.behavior.value == "honest"
                         and v.id not in call["trace"].decisions)
    sent = sum(h["sent"] for h in heights)
    dropped = sent - sum(h["queued"] for h in heights)
    height_ms = [1e3 * tracer.duration(h["span"]) for h in heights]

    iterations = 0
    max_err = 0.0
    for call, (allocation, convergence) in tracer.solves:
        iterations += convergence.iterations
        max_err = max(max_err, allocation_error(call["agents"], call["tasks"],
                                                call["weights"], allocation))

    windows = [w for e in report_doc["epochs"] for w in e["windows"]]
    misses = sum(1 for w in windows if w["committed"] and not w["submitted"])
    fallbacks = sum(1 for w in windows if w["fallback"] is not None)
    rescued = sum(1 for w in windows if w["fallback"] and w["fallback"]["submitted"])
    # The digest covers every consensus event plus one submission line per
    # committed window, two when the window was missed.
    trace_events = (sum(len(h["call"]["trace"].events) for h in heights)
                    + sum(1 for w in windows if w["committed"]) + misses)

    solve_s = self_s.get("allocation.solve_allocation", 0.0)
    timings = {
        "agents.scores_s": layer_s("agents"),
        "allocation.solve_s": solve_s,
        "allocation.stability_s": self_s.get("allocation.hessian_stability", 0.0),
        "allocation.us_per_iteration": 1e6 * solve_s / max(iterations, 1),
        "consensus.heights_s": layer_s("consensus"),
        "consensus.height_ms.p50": nearest_rank(height_ms, 0.5),
        "consensus.height_ms.p90": nearest_rank(height_ms, 0.9),
        "scheduling.assign_s": layer_s("scheduling"),
        "incentives.settle_s": layer_s("incentives"),
        "scenarios.metrics_s": layer_s("scenarios"),
        "harness.load_s": self_s.get("harness.load_config", 0.0),
        "harness.write_s": self_s.get("harness.write_report", 0.0),
        "harness.self_s": self_s.get("harness.run_simulation", 0.0),
    }
    counts = {
        "allocation.iterations": iterations,
        "allocation.max_abs_err": max_err,
        "consensus.ticks_per_height": sum(h["ticks"] for h in heights) / len(heights),
        "consensus.msgs_sent": sent,
        "consensus.msgs_dropped": dropped,
        "consensus.msgs_per_commit": sent / max(committed, 1),
        "consensus.commit_ratio": committed / len(heights),
        "consensus.rounds_used": rounds / len(heights),
        "consensus.undecided_honest": undecided,
        "scheduling.misses": misses,
        "scheduling.fallbacks": fallbacks,
        "scheduling.unrecoverable": misses - rescued,
        "incentives.ledger_entries": sum(len(ledger) for _, (ledger, _) in tracer.settles),
        "harness.trace_events": trace_events,
    }
    return timings, counts, problems
