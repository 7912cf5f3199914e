"""Rewrite ``digests.json``: the trace digest of each (workload, seed) pinned.

Run from the root of a checkout, after a change that alters behaviour on
purpose and says so:

    PYTHONPATH=src python3 bench/pin_digests.py

A performance change must leave this file as it is; ``run.py`` flags any
digest that differs from its pin as ``digest_changed``.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS, config_text

from opsim import load_config, run_simulation

PINNED_SEEDS = range(20)


def main() -> None:
    pins = {
        workload: {str(seed): run_simulation(load_config(config_text(workload, seed)))
                   .trace_digest for seed in PINNED_SEEDS}
        for workload in WORKLOADS
    }
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
