"""The shipped configs' trace digests, pinned in full.

A change that moves either digest changes simulated behaviour and must
re-pin it here on purpose.
"""

from pathlib import Path

import pytest

from opsim import load_config, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "sequencer.json": "7949c821d3e4e53c134f47bfecc0633c700dbe550f232132621ffba069450f6a",
    "payment.json": "ecb81adb08abc2589cfdec43a1752dd2fbe425d744b65deb25f8618b9755224d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_is_pinned(name):
    report = run_simulation(load_config(str(CONFIGS / name)))
    assert report.trace_digest == GOLDEN[name]
