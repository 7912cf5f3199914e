"""The shipped configs' trace digests, signer sets and reports, pinned in full.

A change that moves either digest changes simulated behaviour and must
re-pin it here on purpose. ``trace_digest`` does not cover the signer set
of each height's commit certificate, so that is pinned separately. Nor does
it cover what the report derives from the trace: metrics, ledger, stakes,
trusts, aggregation, allocation and windows. The written JSON and CSV
reports are pinned byte for byte, so a change that moves any of those
numbers re-pins them on purpose too.

The benchmark's workloads are pinned too: ``bench/digests.json`` holds the
trace digest of each of them at seeds 0 to 19, and every one is rerun here.
A whole run is also checked to digest exactly its chunks: each height's
trace text, replayed or not, and the submission lines.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from bench_inputs import PINS, WORKLOADS
from opsim import harness, load_config, run_simulation, write_report
from opsim.trace import KeptHeight, TraceDigest

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

# SHA-256 of the report file that write_report writes, per format.
GOLDEN_REPORTS = {
    "sequencer.json": {
        "json": "dc8642a8e9bd8e99cb8e79e702e27e85ec1171013d2c3f6408007753cd822f57",
        "csv": "9b74276771be83a0a194a324f314666ac0e70697427efbea082e7dee7b850292",
    },
    "payment.json": {
        "json": "d073e56259224c6d3990749c04402879263e1948c33f2dd40affac4f5d2ac351",
        "csv": "346e65bb441d61140cc00ed58d5957aa15324d115a0406a3587adaf8e3ed4271",
    },
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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_bytes_are_pinned(shipped, fmt, tmp_path):
    name, report = shipped
    path = tmp_path / f"report.{fmt}"
    write_report(report, fmt, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_REPORTS[name][fmt]


def test_every_workload_is_pinned_at_twenty_seeds():
    assert sorted(PINS) == sorted(WORKLOADS.WORKLOADS)
    for seeds in PINS.values():
        assert sorted(map(int, seeds)) == list(range(20))


@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=f"{workload}-{seed}")
    for workload in sorted(PINS) for seed in sorted(PINS[workload], key=int)])
def test_benchmark_digest_is_pinned(workload, seed):
    report = run_simulation(load_config(WORKLOADS.config_text(workload, int(seed))))
    assert report.trace_digest == PINS[workload][seed]


SUBMISSION_LINE = re.compile(
    r"\d+,(submit|window-miss|fallback-submit|unrecoverable-miss),\d+,\d+,[^,\n]+,-")


# sequencer.json draws from its network, so every height is simulated; the
# others replay: payment.json 8 of its 12 heights, payment-econ 32 of 48 and
# roster-wide 15 of 16.
@pytest.mark.parametrize("source, replayed", [
    pytest.param(str(CONFIGS / "sequencer.json"), 0, id="sequencer.json"),
    pytest.param(str(CONFIGS / "payment.json"), 8, id="payment.json"),
    pytest.param(WORKLOADS.config_text("payment-econ", 0), 32, id="payment-econ-0"),
    pytest.param(WORKLOADS.config_text("roster-wide", 0), 15, id="roster-wide-0"),
])
def test_trace_digest_is_exactly_its_chunks(source, replayed, monkeypatch):
    # Each height's chunk, a template fill where it was replayed, must be
    # the lines of its events built in full, and the digest must be SHA-256
    # of the chunks joined by newlines: nothing else goes into it.
    chunks, heights, replays = [], [], []
    run_height, add, replay = harness.run_height, TraceDigest.add, KeptHeight.replay

    def keep_height(*args, trace, **kwargs):
        outcome = run_height(*args, trace=trace, **kwargs)
        heights.append((len(chunks), trace))  # its chunk is the next one added
        return outcome

    def keep_chunk(self, text):
        chunks.append(text)
        add(self, text)

    def keep_replay(self, *args):
        replays.append(args)
        return replay(self, *args)

    monkeypatch.setattr(harness, "run_height", keep_height)
    monkeypatch.setattr(TraceDigest, "add", keep_chunk)
    monkeypatch.setattr(KeptHeight, "replay", keep_replay)
    report = run_simulation(load_config(source))
    assert len(heights) == sum(len(epoch["heights"]) for epoch in report.epochs)
    assert len(replays) == replayed
    for index, trace in heights:
        assert chunks[index] == "\n".join(trace.to_lines())
    height_chunks = {index for index, _ in heights}
    others = [chunk for i, chunk in enumerate(chunks) if i not in height_chunks]
    assert others and all(SUBMISSION_LINE.fullmatch(chunk) for chunk in others)
    joined = "\n".join(chunk for chunk in chunks if chunk)
    assert hashlib.sha256(joined.encode()).hexdigest() == report.trace_digest
