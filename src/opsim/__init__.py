"""Deterministic simulator of decentralized node-operator networks.

The package models an operator economy end to end: agents with stake and
trust allocate effort across tasks through an exact water-filling welfare
solver, submit results in reputation-ranked time windows, agree on batches
through a stake-weighted round-based commit protocol over a lossy gossip
network, and settle rewards, slashes, and reputation updates that feed the
next allocation round. Two scenario bindings (L2 sequencing and off-chain
payment validation) expose throughput, latency, fault-tolerance, and
economic metrics.
"""

from .agents import (AllocationVector, OperatorState, ScenarioWeights, TaskSpec,
                     evaluate_scores)
from .allocation import (ConvergenceReport, StabilityReport, StabilityVerdict,
                         hessian_stability, solve_allocation)
from .consensus import (AggregatedSignature, Behavior, EventTrace, GossipNetwork,
                        NetworkModel, PartitionSpec, Roster, RoundOutcome, TraceEvent,
                        ValidatorDescriptor, batch_digest, quorum_met, run_height)
from .errors import ConfigError, ConstraintViolationError, DomainError, OpsimError
from .harness import (IncentiveParams, OperatorConfig, RunConfig, RunReport,
                      ScheduleParams, fork_seed, load_config, read_report,
                      run_simulation, write_report)
from .incentives import (AggregationReport, EntryKind, EventKind, LedgerEntry,
                         ReputationParams, SettlementEvent,
                         aggregate_results, feedback_iterate, make_aggregation_report,
                         settle, update_trust)
from .scenarios import (PaymentMetrics, PaymentNodeParams, PaymentWindowLog,
                        SequencerMetrics, SequencerRunLog, failure_probability,
                        optimize_throughput, payment_metrics, payment_utility,
                        sequencer_metrics)
from .scheduling import (Schedule, SubmissionWindow, apply_fallback, assign_windows,
                         on_window_miss)

__version__ = "0.1.0"
