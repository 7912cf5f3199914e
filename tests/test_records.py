"""The public records: constructor parameters, immutability and re-checked copies."""

import inspect
import math

import pytest

from opsim import (AggregatedSignature, AggregationReport, Behavior, ConvergenceReport,
                   DomainError, IncentiveParams, LedgerEntry, NetworkModel, OperatorConfig,
                   OperatorState, PartitionSpec, PaymentMetrics, PaymentNodeParams,
                   PaymentWindowLog, ReputationParams, RoundOutcome, RunConfig, RunReport,
                   Schedule, ScheduleParams, ScenarioWeights, SequencerMetrics,
                   SequencerRunLog, SettlementEvent, StabilityReport, SubmissionWindow,
                   TaskSpec, TraceEvent, ValidatorDescriptor)
from opsim.incentives import EntryKind

# Each record's constructor parameters in order; "=value" gives the repr of a default.
SIGNATURES = {
    OperatorState: "id stake resources=0.0",
    TaskSpec: "id cost_rate=0.0 corruption_rate=0.0 resource_cap=0.0 consensus_gain=None "
              "performance_gain=None value=0.0",
    ScenarioWeights: "w1=1.0 w2=1.0",
    ConvergenceReport: "constraint_violation multipliers=None",
    StabilityReport: "eigen_extremes verdict",
    ValidatorDescriptor: "id stake behavior=<Behavior.HONEST: 'honest'> region_latency=1",
    AggregatedSignature: "batch_digest signer_set signed_stake total_stake",
    RoundOutcome: "committed batch_digest signature rounds_used ticks_elapsed",
    PartitionSpec: "start_tick end_tick members",
    NetworkModel: "drop_probability=0.0 latency_jitter=0 rng_seed=0 partition_schedule=()",
    TraceEvent: "tick kind height round sender digest",
    SettlementEvent: "kind operator_id tick task_id=None score=0.0",
    LedgerEntry: "operator_id tick kind amount reason",
    ReputationParams: "smoothing=0.9 initial_trust=0.5 slash_fraction=0.05",
    AggregationReport: "tick values weights aggregate",
    SequencerRunLog: "outputs consensus_scores performance_scores failures costs "
                     "total_resources",
    SequencerMetrics: "throughput latency fault_tolerance efficiency",
    PaymentMetrics: "total_transactions validation_efficiency error_rate revenue_growth "
                    "total_penalties",
    PaymentNodeParams: "fee validation_cost_coeff capacity penalty_coeff=0.0 "
                       "error_cost_coeff=0.0 error_rate=0.0 deadline=inf "
                       "validation_time=0.0 validation_cost_cap=None",
    PaymentWindowLog: "transactions validation_costs errors penalties profit",
    SubmissionWindow: "operator_id start_tick end_tick window_index is_fallback=False "
                      "covers_window=None",
    Schedule: "horizon_ticks window_length windows grace_length",
    OperatorConfig: "id stake behavior trust capacity resources region_latency payment",
    ScheduleParams: "window_length windows_per_epoch grace_length",
    IncentiveParams: "reputation submit_fee",
    RunConfig: "scenario operators tasks weights network schedule incentives max_rounds "
               "failure_rate_constant epochs seed",
    RunReport: "config epochs ledger_totals trace_digest",
}


def parameters(cls) -> str:
    params = inspect.signature(cls).parameters.values()
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    return " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                    for p in params)


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_pinned(cls):
    assert parameters(cls) == SIGNATURES[cls]
    assert cls._fields == tuple(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = tuple.__new__(cls, range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict


def test_default_tables_are_not_shared():
    first, second = TaskSpec("a"), TaskSpec("b")
    assert first.consensus_gain == second.consensus_gain == {}
    assert first.consensus_gain is not second.consensus_gain
    assert first.performance_gain is not second.performance_gain
    assert first.consensus_gain is not first.performance_gain
    reports = [ConvergenceReport(0.0) for _ in range(2)]
    assert reports[0].multipliers == {} and reports[0].multipliers is not reports[1].multipliers


def test_trace_event_make_and_replace_run_the_checks():
    vote = TraceEvent(0, "prevote", 0, 0, "v", "d")
    with pytest.raises(DomainError, match="^proposals must carry a digest$"):
        vote._replace(kind="proposal", digest=None)
    with pytest.raises(DomainError, match="^height and round must be >= 0$"):
        TraceEvent._make((0, "prevote", -1, 0, "v", "d"))
    assert TraceEvent._make(vote) == vote and type(TraceEvent._make(vote)) is TraceEvent


NODE = PaymentNodeParams(fee=2.0, validation_cost_coeff=1.0, capacity=10.0)
WINDOW = SubmissionWindow("a", 0, 8, 0)
TABLE = {"a": 1.0}

# (a valid record, fields whose values its checks refuse, the error message)
CHECKED = [
    (OperatorState("a", 1.0), {"stake": -1.0}, "operator a: stake must be finite and >= 0"),
    (TaskSpec("t", consensus_gain=TABLE), {"consensus_gain": {"a": -1.0}},
     r"task t: consensus_gain\[a\] must be finite and >= 0"),
    (ScenarioWeights(), {"w1": 0.0, "w2": 0.0}, "weights must satisfy w1 \\+ w2 > 0"),
    (ValidatorDescriptor("v", 1.0), {"stake": 0.0}, "validator v: stake must be finite and > 0"),
    (NetworkModel(), {"drop_probability": 1.0}, r"drop_probability must lie in \[0, 1\)"),
    (LedgerEntry("a", 0, EntryKind.FEE, 1.0, "fee"), {"amount": math.nan},
     "ledger amounts must be finite and >= 0"),
    (ReputationParams(), {"slash_fraction": 1.0}, r"slash_fraction must lie in \(0, 1\)"),
    (WINDOW, {"end_tick": 0}, "window 0: start_tick must precede end_tick"),
    (SequencerRunLog(TABLE, TABLE, TABLE, 0, TABLE, 1.0), {"failures": 2},
     r"failures must lie in \[0, node count\]"),
    (NODE, {"error_rate": 2.0}, r"payment params: error_rate must lie in \[0, 1\]"),
    (PaymentWindowLog(TABLE, TABLE, TABLE, TABLE, 0.0), {"errors": {}},
     "errors must cover the same nodes as transactions"),
]


@pytest.mark.parametrize("record, bad, message", CHECKED,
                         ids=[type(record).__name__ for record, _, _ in CHECKED])
def test_replace_and_make_run_the_checks(record, bad, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        record._replace(**bad)
    values = [bad.get(name, value) for name, value in zip(record._fields, record)]
    with pytest.raises(DomainError, match=f"^{message}$"):
        type(record)._make(values)
    copy = record._replace()
    assert copy == record and type(copy) is type(record)


def test_replace_converts_a_behavior_value():
    assert ValidatorDescriptor("v", 1.0)._replace(behavior="silent").behavior is Behavior.SILENT


def test_replace_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unexpected field names"):
        WINDOW._replace(start=1)
