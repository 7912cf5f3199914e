"""One fresh benchmark process; ``run.py`` starts it and reads its result.

Usage: worker.py {setup,timed,traced} SECONDS OUT_PREFIX < config.json

The config document arrives on standard input; the result is one JSON
object on standard output. Every mode first times importing ``opsim`` and
loading the config, the set-up a user of the CLI pays on each invocation.
Set-up and every timed repeat are bracketed by ``calibration_s``.

* ``setup``  -- stops there.
* ``timed``  -- repeats ``run_simulation`` untraced for about SECONDS,
  checking every report, and reports run times and the process's peak RSS.
* ``traced`` -- alternates untraced and traced runs for about SECONDS and
  reports per-layer metrics, writing the spans and the last report under
  OUT_PREFIX.

Both loops run at least once and start another repeat only while the last
one would still end within SECONDS.

A run that raises counts as a failed run and ends the loop, since every
repeat of one config would raise alike. A traced run that cannot wrap a
name it needs is not a failed run but a broken benchmark, and exits.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _attempt(run, config, config_doc: dict) -> tuple[dict, dict | None]:
    """Time one ``run(config)`` and check its report.

    Returns the run's record (elapsed seconds, trace digest, problems) and
    its report document, which the caller drops once used: keeping every
    report would make peak RSS grow with the number of repeats.
    """
    from checks import report_problems

    start = time.perf_counter()
    try:
        report = run(config)
    except Exception:  # a raising run is a failed run, not a benchmark crash
        return {"elapsed": time.perf_counter() - start, "digest": None,
                "problems": [traceback.format_exc(limit=3)]}, None
    elapsed = time.perf_counter() - start
    report_doc = report.to_dict()
    return {"elapsed": elapsed, "digest": report.trace_digest,
            "problems": report_problems(config_doc, report_doc)}, report_doc


def calibration_s() -> float:
    """Seconds this process takes for a fixed pure-Python kernel.

    Host speed on a shared machine drifts by a quarter over minutes; the
    kernel, timed next to each measurement, lets ``run.py`` scale every
    time to one reference speed.
    """
    start = time.perf_counter()
    totals: dict[int, float] = {}
    for i in range(80_000):
        totals[i % 97] = totals.get(i % 97, 0.0) + math.sqrt(i)
    math.fsum(sorted(totals.values()))
    return time.perf_counter() - start


def _time_left(start: float, seconds: float, last_start: float) -> bool:
    """Another repeat as long as the last one would still fit in SECONDS."""
    now = time.perf_counter()
    return now - start + (now - last_start) <= seconds


def _timed(seconds: float, config, config_doc: dict) -> dict:
    from opsim import run_simulation

    runs, calibration = [], []
    start = last = time.perf_counter()
    while not runs or _time_left(start, seconds, last):
        last = time.perf_counter()
        before = calibration_s()
        record, report_doc = _attempt(run_simulation, config, config_doc)
        calibration.append((before + calibration_s()) / 2)
        runs.append(record)
        if report_doc is None:
            break
    return {"run_s": [r["elapsed"] for r in runs],
            "calibration_s": calibration, "runs": runs}


def _traced(seconds: float, text: str, config, config_doc: dict,
            out_prefix: str) -> dict:
    from opsim import harness
    from opsim.consensus import GossipNetwork, batch_digest
    from tracing import Tracer, run_metrics

    tracer = Tracer()
    report_path = Path(f"{out_prefix}-report.json")
    untraced, traced, traced_s, timings, counts = [], [], [], [], []

    def traced_run(_config):
        with tracer.span("harness.load_config"):
            traced_config = harness.load_config(text)
        with tracer.span("harness.run_simulation") as root:
            report = harness.run_simulation(traced_config)
        with tracer.span("harness.write_report"):
            harness.write_report(report, "json", report_path)
        traced_s.append(tracer.duration(root))
        return report

    start = last = time.perf_counter()
    while not traced or _time_left(start, seconds, last):
        last = time.perf_counter()
        record, untraced_doc = _attempt(harness.run_simulation, config, config_doc)
        untraced.append(record)
        tracer.reset_run(len(traced))
        with tracer.installed(harness, GossipNetwork):
            record, report_doc = _attempt(traced_run, config, config_doc)
        traced.append(record)
        if untraced_doc is None or report_doc is None:
            break
        run_timings, run_counts, found = run_metrics(tracer, report_doc, batch_digest)
        run_counts["harness.report_bytes"] = report_path.stat().st_size
        timings.append(run_timings)
        counts.append(run_counts)
        traced[-1]["problems"] += found
        if run_counts != counts[0]:
            traced[-1]["problems"].append("per-layer counts differ between repeats")

    with open(f"{out_prefix}-spans.jsonl", "w") as out:
        for index, (name, begin, end, parent, run) in enumerate(tracer.spans):
            out.write(json.dumps({"run": run, "id": index, "parent": parent,
                                  "name": name, "start": begin, "end": end}) + "\n")
    result = {"run_s": [r["elapsed"] for r in untraced], "runs": untraced + traced}
    if timings:
        metrics = {name: statistics.median(t[name] for t in timings)
                   for name in timings[0]}
        metrics.update(counts[0])
        metrics["bench.trace_overhead_s"] = (statistics.median(traced_s)
                                             - statistics.median(result["run_s"]))
        result["metrics"] = metrics
    return result


def main() -> None:
    mode, seconds, out_prefix = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    text = sys.stdin.read()
    before = calibration_s()
    start = time.perf_counter()
    from opsim import load_config
    config = load_config(text)
    setup_s = time.perf_counter() - start
    kernels = [before] + [calibration_s() for _ in range(4)]
    result = {"setup_s": setup_s, "setup_calibration_s": statistics.median(kernels)}
    config_doc = json.loads(text)
    if mode == "timed":
        result.update(_timed(seconds, config, config_doc))
    elif mode == "traced":
        result.update(_traced(seconds, text, config, config_doc, out_prefix))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
