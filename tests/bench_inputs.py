"""The benchmark's inputs, read from ``bench/`` by path and never written.

``WORKLOADS`` is ``bench/workloads.py``, loaded under its own module name,
and ``PINS`` maps each workload and seed (a decimal string) to the trace
digest that ``bench/digests.json`` pins for it.
"""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("opsim_bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
PINS = json.loads((BENCH / "digests.json").read_text())
