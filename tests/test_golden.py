"""The shipped configs' trace digests and commit signer sets, pinned in full.

A change that moves either digest changes simulated behaviour and must
re-pin it here on purpose. ``trace_digest`` does not cover the signer set
of each height's commit certificate, so that is pinned separately.
"""

import hashlib
import json
from pathlib import Path

import pytest

from opsim import load_config, run_simulation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "sequencer.json": "7949c821d3e4e53c134f47bfecc0633c700dbe550f232132621ffba069450f6a",
    "payment.json": "ecb81adb08abc2589cfdec43a1752dd2fbe425d744b65deb25f8618b9755224d",
}

# SHA-256 of the JSON list of every height's sorted signer list, in height order.
GOLDEN_SIGNERS = {
    "sequencer.json": "75d2d2728c5289d8b36a22b5ac8551a4e68f41c1445c15be4da4726c582d3916",
    "payment.json": "caf0247346217b27cf2bedfd0e365437b6c81c871317f3a285751348c3c0664e",
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def shipped(request):
    return request.param, run_simulation(load_config(str(CONFIGS / request.param)))


def test_trace_digest_is_pinned(shipped):
    name, report = shipped
    assert report.trace_digest == GOLDEN[name]


def test_signer_sets_are_pinned(shipped):
    name, report = shipped
    signers = [h["signers"] for epoch in report.epochs for h in epoch["heights"]]
    assert hashlib.sha256(json.dumps(signers).encode()).hexdigest() == GOLDEN_SIGNERS[name]
