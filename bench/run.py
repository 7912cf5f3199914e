"""opsim benchmark: host time of ``run_simulation`` on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of the workloads in ``workloads.py``. The config is generated
from the seed and given to the program as inline JSON; the program is
imported from ``src/`` of the checkout. Runs happen one at a time, each in
a fresh process with no threads.

``--trace 0`` repeats the untraced run for S seconds and reports the
end-to-end metrics: ``run_s`` (median wall time of ``run_simulation``),
``setup_s`` (median time a fresh process takes to import ``opsim`` and load
the config, over several processes), ``peak_rss_mb`` (peak RSS of the
measuring process) and ``pass_ratio`` (runs that passed every check over
runs attempted). ``--trace 1`` alternates untraced and traced runs for S
seconds and reports the per-layer metrics of ``tracing.py``.

Host speed on a shared machine drifts: on a 2-vCPU VM the median of 30 s
of repeats moved by 25% between runs minutes apart, in step with any fixed
piece of Python. So ``run_s`` and ``setup_s`` are wall seconds at a
reference host speed: each wall time is multiplied by
``REFERENCE_CALIBRATION_S`` over the time of a fixed kernel
(``worker.calibration_s``) measured next to it. A change to the program
moves the wall time and not the kernel, so it shows in full. The raw wall
medians and the host speed are printed alongside. The per-layer times of
``--trace 1`` are raw wall seconds; compare them within one run.

A run fails when it raises, when an allocation breaks a task cap, when a
committed signer set is below quorum, when a traced height decides a
digest other than its batch's, or when ``trace_digest`` differs between
repeats. A digest that differs from the one pinned in ``digests.json`` is
only flagged (``digest_changed``): behaviour changes move digests on
purpose, a performance change must not.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in both modes and
prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# The calibration kernel's median time on the machine the bounds were set on
# (a 2-vCPU Xeon VM at 2.0 GHz): scaled times read as wall seconds there.
REFERENCE_CALIBRATION_S = 0.02
# Set-up is timed in this many set-up-only processes plus the measuring one.
SETUP_PROCESSES = 6
MAX_PROBLEMS_SHOWN = 10
# Slack on top of --seconds for the last repeat and the process's own set-up.
WORKER_GRACE_S = 120

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
PER_LAYER = {
    "agents.scores_s": "s",
    "allocation.solve_s": "s",
    "allocation.stability_s": "s",
    "allocation.iterations": "count",
    "allocation.us_per_iteration": "us",
    "allocation.max_abs_err": "units",
    "consensus.heights_s": "s",
    "consensus.height_ms.p50": "ms",
    "consensus.height_ms.p90": "ms",
    "consensus.ticks_per_height": "count",
    "consensus.msgs_sent": "count",
    "consensus.msgs_dropped": "count",
    "consensus.msgs_per_commit": "count",
    "consensus.commit_ratio": "ratio",
    "consensus.rounds_used": "count",
    "consensus.undecided_honest": "count",
    "scheduling.assign_s": "s",
    "scheduling.misses": "count",
    "scheduling.fallbacks": "count",
    "scheduling.unrecoverable": "count",
    "incentives.settle_s": "s",
    "incentives.ledger_entries": "count",
    "scenarios.metrics_s": "s",
    "harness.load_s": "s",
    "harness.write_s": "s",
    "harness.report_bytes": "bytes",
    "harness.trace_events": "count",
    "harness.self_s": "s",
    "bench.trace_overhead_s": "s",
}
# Self-time metrics whose sum is the traced run, one entry per layer.
LAYER_TIMES = {
    "agents": ("agents.scores_s",),
    "allocation": ("allocation.solve_s", "allocation.stability_s"),
    "consensus": ("consensus.heights_s",),
    "scheduling": ("scheduling.assign_s",),
    "incentives": ("incentives.settle_s",),
    "scenarios": ("scenarios.metrics_s",),
    "harness": ("harness.self_s",),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(mode: str, text: str, seconds: float, prefix: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, str(seconds), prefix],
            input=text, capture_output=True, text=True, env=env,
            timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((BENCH / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def _at_reference_speed(wall_s: float, calibration_s: float) -> float:
    return wall_s * REFERENCE_CALIBRATION_S / calibration_s


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4f} .. {q3:.4f}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in one mode; print its report; return the result."""
    text = config_text(workload, seed)
    OUT.mkdir(exist_ok=True)
    prefix = str(OUT / f"{workload}-seed{seed}")
    setups = [_worker("setup", text, 0, prefix) for _ in range(SETUP_PROCESSES)]
    result = _worker("traced" if trace else "timed", text, seconds, prefix)
    setups.append(result)
    setup_wall = [s["setup_s"] for s in setups]
    setup_s = [_at_reference_speed(s["setup_s"], s["setup_calibration_s"])
               for s in setups]

    runs = result["runs"]
    reference = next((r["digest"] for r in runs if r["digest"]), None)
    failed = 0
    for run in runs:
        if run["digest"] != reference:
            run["problems"].append("trace_digest differs between repeats")
        failed += bool(run["problems"])
    pinned = _pinned_digest(workload, seed)
    changed = None if pinned is None or reference is None else reference != pinned

    wall = result["run_s"]
    samples = [_at_reference_speed(w, c)
               for w, c in zip(wall, result.get("calibration_s", []))]
    mode = "traced" if trace else "untraced"
    print(f"{workload} seed {seed} ({mode}, {seconds:g} s)")
    if samples:
        print(f"  run_s        {statistics.median(samples):.4f} s   "
              f"median of {len(samples)}{_quartiles(samples)}")
    print(f"  run wall     {statistics.median(wall):.4f} s   "
          f"median of {len(wall)}{_quartiles(wall)}")
    print(f"  setup_s      {statistics.median(setup_s):.4f} s   "
          f"median of {len(setup_s)} processes (wall {statistics.median(setup_wall):.4f} s)")
    if samples:
        speed = REFERENCE_CALIBRATION_S / statistics.median(result["calibration_s"])
        print(f"  host speed   {speed:.3f} of reference")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB   1 process")
    print(f"  fail_ratio   {failed / len(runs):.4f} ratio   "
          f"{failed} of {len(runs)} runs failed a check")
    print(f"  trace_digest {reference}   digest_changed "
          f"{json.dumps(changed)}{'' if pinned else ' (seed not pinned)'}")
    problems = sorted({p.strip() for run in runs for p in run["problems"]})
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"  FAILED: ... and {len(problems) - MAX_PROBLEMS_SHOWN} more problems")

    if trace:
        values = result.get("metrics", {})
        traced_total = sum(values.get(n, 0.0) for names in LAYER_TIMES.values()
                           for n in names)
        for name, unit in PER_LAYER.items():
            if name in values:
                print(f"  {name:30s} {values[name]:.6g} {unit}")
        if traced_total > 0:
            split = ", ".join(
                f"{layer} {100 * sum(values[n] for n in names) / traced_total:.1f}%"
                for layer, names in LAYER_TIMES.items())
            print(f"  layer split of traced run_simulation: {split}")
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in PER_LAYER.items() if n in values}
    else:
        values = {"run_s": statistics.median(samples),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "pass_ratio": 1.0 - failed / len(runs)}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "opsim" / "__init__.py").is_file():
        print(f"opsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    part = measure(workload, args.seed, args.seconds, trace)
                    summary["correct"] &= part["correct"]
                    summary["attempted"] += part["attempted"]
                    summary["failed"] += part["failed"]
                    summary["metrics"].update(
                        {f"{workload}.{n}": m for n, m in part["metrics"].items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
