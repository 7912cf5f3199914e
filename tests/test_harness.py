import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from opsim import ConfigError, fork_seed, load_config, read_report, run_simulation, write_report
from opsim.cli import main as cli_main
from opsim.harness import _TOP

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """
{
  "scenario": "sequencer",
  "operators": [{"id": "solo", "stake": 50.0}],
  "tasks": [{"id": "t", "resource_cap": 4.0}]
}
"""

BASIC = """
{
  "scenario": "sequencer",
  "seed": 11,
  "epochs": 2,
  "operators": [
    {"id": "op-a", "stake": 100.0, "resources": 15.0},
    {"id": "op-b", "stake": 80.0, "resources": 15.0},
    {"id": "op-c", "stake": 60.0, "resources": 15.0},
    {"id": "op-d", "stake": 40.0, "resources": 15.0}
  ],
  "tasks": [
    {"id": "batching", "cost_rate": 0.1, "resource_cap": 8.0, "value": 40.0,
     "consensus_gain": 1.5, "performance_gain": 1.0}
  ]
}
"""

PAYMENT = """
{
  "scenario": "payment",
  "seed": 5,
  "epochs": 2,
  "operators": [
    {"id": "n1", "stake": 90.0,
     "payment": {"fee": 1.0, "validation_cost_coeff": 0.01, "capacity": 300,
                 "error_cost_coeff": 2.0, "error_rate": 0.01}},
    {"id": "n2", "stake": 70.0,
     "payment": {"fee": 0.9, "validation_cost_coeff": 0.02, "capacity": 200}}
  ],
  "tasks": [{"id": "validate", "cost_rate": 0.05, "resource_cap": 5.0, "value": 10.0}]
}
"""


# Every section and optional field present, so each row has a value to break.
FULL = {
    "scenario": "payment", "seed": 3, "epochs": 2, "max_rounds": 4,
    "failure_rate_constant": 0.1,
    "weights": {"consensus": 1.0, "performance": 2.0},
    "network": {"drop_probability": 0.1, "latency_jitter": 1,
                "partitions": [{"start": 0, "end": 5, "members": ["a"]}]},
    "schedule": {"window_length": 6, "windows_per_epoch": 3, "grace_length": 2},
    "incentives": {"smoothing": 0.8, "initial_trust": 0.4, "slash_fraction": 0.1,
                   "submit_fee": 0.5},
    "operators": [
        {"id": "a", "stake": 10.0, "behavior": "silent", "trust": 0.3, "capacity": 50.0,
         "resources": 5.0, "region_latency": 2,
         "payment": {"fee": 1.0, "validation_cost_coeff": 0.01, "capacity": 100.0,
                     "penalty_coeff": 0.1, "error_cost_coeff": 0.2, "error_rate": 0.01,
                     "deadline": 1.0, "validation_time": 0.5, "validation_cost_cap": 3.0,
                     "stages": [{"latency": 0.2, "error_rate": 0.01}]}},
        {"id": "b", "stake": 5.0,
         "payment": {"fee": 0.5, "validation_cost_coeff": 0.02, "capacity": 80.0}},
    ],
    "tasks": [{"id": "t", "cost_rate": 0.1, "corruption_rate": 0.05, "resource_cap": 4.0,
               "value": 3.0, "consensus_gain": {"a": 1.0, "b": 2.0},
               "performance_gain": 0.5}],
}

# Numeric edge cases that a run must survive.
EDGE_CASES = {
    "single-operator": {
        "scenario": "sequencer", "seed": 4, "epochs": 3, "failure_rate_constant": 0.05,
        "operators": [{"id": "solo", "stake": 20.0, "trust": 0.1}],
        "tasks": [{"id": "t", "resource_cap": 4.0, "value": 5.0}]},
    "zero-stake": {
        "scenario": "sequencer", "seed": 2, "epochs": 3, "failure_rate_constant": 0.2,
        "operators": [{"id": "a", "stake": 0.0}, {"id": "b", "stake": 30.0},
                      {"id": "c", "stake": 30.0}, {"id": "d", "stake": 30.0}],
        "tasks": [{"id": "t", "resource_cap": 6.0, "value": 9.0}]},
    "zero-gain": {
        "scenario": "sequencer", "seed": 1, "epochs": 2,
        "operators": [{"id": "a", "stake": 10.0}, {"id": "b", "stake": 12.0}],
        "tasks": [{"id": "t", "resource_cap": 3.0, "value": 7.0,
                   "consensus_gain": 0.0, "performance_gain": 0.0}]},
}

WRONG_KIND = {"number": "1.0", "integer": 1.5, "string": 7, "list": "x",
              "object": ["x"], "raw": "x"}


def _row_paths(rows, prefix=()):
    """(path into FULL, kind) for every config row, descending into items."""
    for row in rows:
        path = prefix + (row.key,)
        yield path, row.kind
        if row.rows is not None:
            yield from _row_paths(row.rows, path + ((0,) if row.kind == "list" else ()))


def _full_with(path, *value):
    """FULL as JSON text with the field at ``path`` set to ``value``, or removed."""
    doc = json.loads(json.dumps(FULL))
    target = doc
    for step in path[:-1]:
        target = target[step]
    if value:
        target[path[-1]] = value[0]
    else:
        del target[path[-1]]
    return json.dumps(doc)


def _display(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _object_keys(doc, path="", found=None):
    """Path of every object in ``doc`` (list items as ``[]``) -> the union of its keys.

    Maps keyed by operator or task ids, and the config echo, count as values.
    """
    found = {} if found is None else found
    if isinstance(doc, dict):
        found.setdefault(path, set()).update(doc)
        for key, value in doc.items():
            if key not in ("config", "stakes", "trusts", "allocation", "multipliers",
                           "values", "weights"):
                _object_keys(value, f"{path}.{key}".lstrip("."), found)
    elif isinstance(doc, list):
        for item in doc:
            _object_keys(item, path + "[]", found)
    return found


@st.composite
def config_docs(draw):
    """Valid config documents; optional fields are drawn present or omitted."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    amount = st.floats(0.0, 50.0)
    positive = st.floats(0.01, 5.0)

    def maybe(target, key, strategy):
        if draw(st.booleans()):
            target[key] = draw(strategy)

    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4,
                        unique=True))
    scenario = draw(st.sampled_from(["sequencer", "payment"]))
    doc = {"scenario": scenario, "operators": [], "tasks": []}
    maybe(doc, "seed", st.integers(0, 2**40))
    maybe(doc, "epochs", st.integers(0, 5))
    maybe(doc, "max_rounds", st.integers(1, 12))
    maybe(doc, "failure_rate_constant", amount)
    maybe(doc, "weights", st.fixed_dictionaries(
        {}, optional={"consensus": positive, "performance": positive}))
    network = {}
    maybe(network, "drop_probability", unit)
    maybe(network, "latency_jitter", st.integers(0, 3))
    if len(ids) > 1:  # a partition must split the roster
        maybe(network, "partitions", st.lists(st.integers(0, 50).flatmap(
            lambda start: st.fixed_dictionaries({
                "start": st.just(start), "end": st.integers(start + 1, 100),
                "members": st.lists(st.sampled_from(ids), min_size=1,
                                    max_size=len(ids) - 1, unique=True)})), max_size=2))
    maybe(doc, "network", st.just(network))
    schedule = {}
    maybe(schedule, "window_length", st.integers(1, 12))
    maybe(schedule, "windows_per_epoch", st.integers(1, 6))
    if draw(st.booleans()):
        schedule["grace_length"] = draw(
            st.integers(0, schedule.get("window_length", 8) // 2))
    maybe(doc, "schedule", st.just(schedule))
    maybe(doc, "incentives", st.fixed_dictionaries({}, optional={
        "smoothing": st.floats(0.01, 0.99), "initial_trust": st.floats(0.0, 1.0),
        "slash_fraction": st.floats(0.01, 0.99), "submit_fee": amount}))
    for op_id in ids:
        op = {"id": op_id, "stake": draw(amount)}
        maybe(op, "behavior", st.sampled_from(["honest", "silent", "equivocating",
                                                "invalid-proposer"]))
        maybe(op, "trust", st.floats(0.0, 1.0))
        maybe(op, "capacity", amount)
        maybe(op, "resources", amount)
        maybe(op, "region_latency", st.integers(0, 3))
        if scenario == "payment" or draw(st.booleans()):
            payment = {"fee": draw(amount), "validation_cost_coeff": draw(amount),
                       "capacity": draw(amount)}
            for key in ("penalty_coeff", "error_cost_coeff", "deadline",
                        "validation_time", "validation_cost_cap"):
                maybe(payment, key, amount)
            maybe(payment, "error_rate", st.floats(0.0, 1.0))
            maybe(payment, "stages", st.lists(st.fixed_dictionaries({}, optional={
                "latency": amount, "error_rate": unit}), min_size=1, max_size=3))
            op["payment"] = payment
        doc["operators"].append(op)
    gain = st.one_of(amount, st.fixed_dictionaries({op_id: amount for op_id in ids}))
    for t in range(draw(st.integers(1, 3))):
        task = {"id": f"t{t}", "resource_cap": draw(amount)}
        for key in ("cost_rate", "corruption_rate", "value"):
            maybe(task, key, amount)
        maybe(task, "consensus_gain", gain)
        maybe(task, "performance_gain", gain)
        doc["tasks"].append(task)
    return doc


class TestLoadConfig:
    def test_minimal_defaults_filled(self):
        config = load_config(MINIMAL)
        assert config.epochs == 1
        assert config.seed == 0
        assert config.weights.w1 == 1.0
        assert config.incentives.reputation.initial_trust == 0.5
        assert config.network.drop_probability == 0.0
        # scalar gain shorthand broadcast to the roster
        assert config.tasks[0].consensus_gain == {"solo": 1.0}

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError) as exc:
            load_config('{"scenario": "sequencer",}')
        assert exc.value.line == 1
        assert exc.value.column is not None

    def test_zero_weights_named(self):
        bad = MINIMAL.replace('"tasks"',
                              '"weights": {"consensus": 0.0, "performance": 0.0}, "tasks"')
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert "weights" in str(exc.value)

    def test_duplicate_operator_id_rejected(self):
        bad = json.loads(BASIC)
        bad["operators"][1]["id"] = "op-a"
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(bad))
        assert "duplicate" in str(exc.value)

    def test_unknown_field_rejected(self):
        bad = json.loads(MINIMAL)
        bad["unexpected"] = 1
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(bad))
        assert "unknown field 'unexpected'" in str(exc.value)

    def test_unknown_nested_field_rejected(self):
        bad = json.loads(MINIMAL)
        bad["operators"][0]["stkae"] = 3
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(bad))
        assert "stkae" in str(exc.value)

    def test_gain_table_must_cover_roster(self):
        bad = json.loads(BASIC)
        bad["tasks"][0]["consensus_gain"] = {"op-a": 1.0}
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(bad))
        assert "missing operators" in str(exc.value)

    def test_gain_table_rejects_strangers(self):
        bad = json.loads(MINIMAL)
        bad["tasks"][0]["performance_gain"] = {"phantom": 1.0}
        with pytest.raises(ConfigError):
            load_config(json.dumps(bad))

    def test_payment_scenario_requires_payment_params(self):
        bad = json.loads(PAYMENT)
        del bad["operators"][1]["payment"]
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(bad))
        assert "payment" in str(exc.value)

    def test_stage_list_derives_time_and_error(self):
        config = load_config(PAYMENT.replace(
            '"payment": {"fee": 0.9, "validation_cost_coeff": 0.02, "capacity": 200}',
            '"payment": {"fee": 0.9, "validation_cost_coeff": 0.02, "capacity": 200,'
            ' "stages": [{"latency": 0.25, "error_rate": 0.01},'
            ' {"latency": 0.5, "error_rate": 0.02}]}'))
        params = config.operators[1].payment
        assert params.validation_time == pytest.approx(0.75)
        assert params.error_rate == pytest.approx(1 - 0.99 * 0.98)

    def test_bad_behavior_rejected(self):
        bad = json.loads(MINIMAL)
        bad["operators"][0]["behavior"] = "sneaky"
        with pytest.raises(ConfigError):
            load_config(json.dumps(bad))

    @settings(max_examples=150, deadline=None)
    @given(doc=st.one_of(st.sampled_from([BASIC, PAYMENT]).map(json.loads), config_docs()))
    @example(doc=json.loads(BASIC))
    def test_config_roundtrip_is_stable(self, doc):
        config = load_config(json.dumps(doc))
        assert load_config(json.dumps(config.to_dict())) == config

    def test_echoed_config_reproduces_capped_payment_run(self):
        doc = json.loads((ROOT / "configs" / "payment.json").read_text())
        doc["operators"][2]["payment"]["validation_cost_cap"] = 5.0
        report = run_simulation(load_config(json.dumps(doc)))
        rerun = run_simulation(load_config(json.dumps(report.config)))
        assert rerun.to_dict() == report.to_dict()
        for epoch in rerun.epochs:
            assert epoch.metrics.payment.total_transactions == pytest.approx(165.92, abs=5e-3)

    @pytest.mark.parametrize("path, kind", [
        pytest.param(path, kind, id=_display(path)) for path, kind in _row_paths(_TOP)])
    def test_wrong_kind_names_the_field(self, path, kind):
        name = _display(path)
        with pytest.raises(ConfigError) as exc:
            load_config(_full_with(path, WRONG_KIND[kind]))
        assert name in str(exc.value)
        assert exc.value.field == name

    @pytest.mark.parametrize("path", [
        ("schedule", "grace_length"), ("operators", 0, "trust"),
        ("operators", 0, "payment", "stages"), ("operators", 0, "payment", "deadline"),
        ("operators", 0, "payment", "validation_cost_cap")])
    def test_null_counts_as_omitted_for_optional_fields(self, path):
        assert load_config(_full_with(path, None)) == load_config(_full_with(path))

    @pytest.mark.parametrize("path", [
        ("seed",), ("weights",), ("schedule", "windows_per_epoch"),
        ("operators", 0, "behavior"), ("tasks", 0, "consensus_gain")])
    def test_null_is_rejected_for_fields_with_a_default(self, path):
        with pytest.raises(ConfigError):
            load_config(_full_with(path, None))

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=f"{_display(path)}={value}") for path, value in [
            (("operators", 0, "stake"), -1.0),
            (("operators", 0, "stake"), float("nan")),
            (("operators", 0, "capacity"), -5.0),
            (("operators", 0, "resources"), float("inf")),
            (("operators", 0, "region_latency"), -1),
            (("network", "partitions", 0, "end"), -1),
            (("network", "partitions", 0, "end"), 0),
            (("network", "partitions", 0, "members"), []),
            (("network", "partitions", 0, "members"), ["a", "b"])]])
    def test_out_of_range_value_names_the_field(self, path, value):
        with pytest.raises(ConfigError) as exc:
            load_config(_full_with(path, value))
        assert exc.value.field == _display(path)

    def test_partition_before_tick_zero_is_rejected(self):
        doc = json.loads(_full_with(("network", "partitions", 0, "start"), -50))
        doc["network"]["partitions"][0]["end"] = -10
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(doc))
        assert exc.value.field == "network.partitions[0].end"

    def test_solver_section_is_rejected(self):
        doc = json.loads(MINIMAL)
        doc["solver"] = {"learning_rate": 0.01}
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(doc))
        assert exc.value.field == "solver"

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(MINIMAL)
        config = load_config(str(path))
        assert config.operators[0].id == "solo"

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")


class TestRunSimulation:
    def test_identical_runs_byte_identical(self):
        config = load_config(BASIC)
        a = run_simulation(config).to_dict()
        b = run_simulation(config).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_flip_changes_digest(self):
        base = load_config(BASIC)
        flipped = load_config(BASIC.replace('"seed": 11', '"seed": 12'))
        assert run_simulation(base).trace_digest \
            != run_simulation(flipped).trace_digest

    def test_all_honest_perfect_fault_tolerance(self):
        config = load_config(BASIC.replace(
            '"seed": 11', '"seed": 11, "failure_rate_constant": 0.0'))
        report = run_simulation(config)
        for epoch in report.epochs:
            assert epoch.metrics.sequencer.fault_tolerance == 1.0
            for height in epoch.heights:
                assert height["committed"]

    def test_silent_validator_slashed_and_excluded_from_signers(self):
        silent = BASIC.replace('{"id": "op-d", "stake": 40.0, "resources": 15.0}',
                               '{"id": "op-d", "stake": 40.0, "resources": 15.0, '
                               '"behavior": "silent"}')
        report = run_simulation(load_config(silent))
        first = report.epochs[0]
        assert all("op-d" not in h["signers"] for h in first.heights)
        assert any(e.operator_id == "op-d" and e.kind.value == "slash"
                   for e in first.ledger)
        baseline = run_simulation(load_config(BASIC))
        assert len(first.heights[0]["signers"]) \
            == len(baseline.epochs[0].heights[0]["signers"]) - 1

    def test_all_success_monotone_stakes_and_trust(self):
        config = load_config(BASIC.replace(
            '"seed": 11', '"seed": 11, "failure_rate_constant": 0.0'))
        report = run_simulation(config)
        prev_stakes = {op.id: op.stake for op in config.operators}
        prev_trusts = {op.id: 0.5 for op in config.operators}
        for epoch in report.epochs:
            for op, stake in epoch.stakes.items():
                assert stake >= prev_stakes[op] - 1e-9
            for op, trust in epoch.trusts.items():
                assert trust >= prev_trusts[op] - 1e-9
            prev_stakes, prev_trusts = epoch.stakes, epoch.trusts

    def test_payment_scenario_metrics_present(self):
        report = run_simulation(load_config(PAYMENT))
        assert report.epochs[0].metrics.payment is not None
        assert report.epochs[0].metrics.payment.revenue_growth is None
        assert report.epochs[1].metrics.payment.revenue_growth is not None
        # static parameters give identical profits epoch over epoch
        assert report.epochs[1].metrics.payment.revenue_growth == pytest.approx(0.0)

    def test_payment_totals_are_per_epoch_not_cumulative(self):
        report = run_simulation(load_config(PAYMENT))
        first = report.epochs[0].metrics.payment.total_transactions
        second = report.epochs[1].metrics.payment.total_transactions
        # Static node params give identical (not accumulating) epoch totals.
        assert second == pytest.approx(first)
        # n1 optimum (1 - 2*0.01)/0.01 = 98, n2 optimum 0.9/0.02 = 45.
        assert first == pytest.approx(98.0 + 45.0)

    def test_partition_config_blocks_commits(self):
        partitioned = json.loads(BASIC)
        partitioned["network"] = {
            "partitions": [{"start": 0, "end": 100000,
                            "members": ["op-a", "op-b"]}]}
        report = run_simulation(load_config(json.dumps(partitioned)))
        # {op-a, op-b} holds 180 of 280 stake; neither side reaches >2/3.
        for epoch in report.epochs:
            assert all(not h["committed"] for h in epoch.heights)

    @pytest.mark.parametrize("case", ["single-operator", "zero-stake", "zero-gain"])
    def test_edge_case_runs_are_reproducible_and_bounded(self, tmp_path, case):
        config = load_config(json.dumps(EDGE_CASES[case]))
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            write_report(run_simulation(config), "json", path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        epochs = read_report(paths[0])["epochs"]
        for epoch in epochs:
            assert all(entry["amount"] >= 0 for entry in epoch["ledger"])
            assert all(stake >= 0 for stake in epoch["stakes"].values())
            assert all(0 <= trust <= 1 for trust in epoch["trusts"].values())
        windows = [w for epoch in epochs for w in epoch["windows"]]
        missed = [w for w in windows if w["committed"] and not w["submitted"]]
        if case == "single-operator":
            assert missed and all(w["fallback"] is None for w in missed)
        if case == "zero-stake":
            assert any(e["operator"] == "a" for epoch in epochs for e in epoch["ledger"])
        if case == "zero-gain":
            for epoch in epochs:
                assert epoch["metrics"] == {}
                assert all(e["reason"] != "task-complete" for e in epoch["ledger"])

    def test_zero_epochs_gives_empty_report(self):
        config = load_config(MINIMAL.replace('"scenario": "sequencer",',
                                             '"scenario": "sequencer", "epochs": 0,'))
        report = run_simulation(config)
        assert report.epochs == ()

    def test_fork_seed_stable_labels(self):
        assert fork_seed(1, "net:0:0") == fork_seed(1, "net:0:0")
        assert fork_seed(1, "net:0:0") != fork_seed(1, "net:0:1")
        assert fork_seed(1, "net:0:0") != fork_seed(2, "net:0:0")


class TestReports:
    def test_json_roundtrip(self, tmp_path):
        report = run_simulation(load_config(BASIC))
        out = tmp_path / "report.json"
        write_report(report, "json", out)
        loaded = read_report(out)
        assert loaded == report.to_dict()

    def test_json_bytes_identical_across_runs(self, tmp_path):
        config = load_config(BASIC)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            write_report(run_simulation(config), "json", path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_row_count(self, tmp_path):
        report = run_simulation(load_config(BASIC))
        out = tmp_path / "report.csv"
        write_report(report, "csv", out)
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "epoch,metric,value"
        assert len(rows) == 1 + 2 * 4  # header + epochs * sequencer metrics

    def test_empty_report_still_valid(self, tmp_path):
        config = load_config(MINIMAL.replace('"scenario": "sequencer",',
                                             '"scenario": "sequencer", "epochs": 0,'))
        report = run_simulation(config)
        out = tmp_path / "empty.json"
        write_report(report, "json", out)
        assert read_report(out)["epochs"] == []
        csv_out = tmp_path / "empty.csv"
        write_report(report, "csv", csv_out)
        assert csv_out.read_text().strip() == "epoch,metric,value"

    @pytest.mark.parametrize("text, section, metrics", [
        pytest.param(BASIC, "sequencer",
                     ["throughput", "latency", "fault_tolerance", "efficiency"],
                     id="sequencer"),
        pytest.param(PAYMENT, "payment",
                     ["total_transactions", "validation_efficiency", "error_rate",
                      "revenue_growth", "total_penalties"], id="payment")])
    def test_report_shape(self, tmp_path, text, section, metrics):
        report = run_simulation(load_config(text))
        shape = {
            "": {"config", "epochs", "ledger_totals", "trace_digest"},
            "ledger_totals": {"fees", "rewards", "slashes"},
            "epochs[]": {"epoch", "metrics", "convergence", "stability", "aggregation",
                         "ledger", "stakes", "trusts", "allocation", "windows", "heights"},
            "epochs[].metrics": {section},
            f"epochs[].metrics.{section}": set(metrics),
            "epochs[].convergence": {"converged", "iterations", "step_norm",
                                     "constraint_violation", "multipliers"},
            "epochs[].stability": {"verdict", "eigen_min", "eigen_max"},
            "epochs[].aggregation": {"tick", "values", "weights", "aggregate"},
            "epochs[].ledger[]": {"operator", "tick", "kind", "amount", "reason"},
            "epochs[].windows[]": {"window_index", "operator", "start", "end", "committed",
                                   "submitted", "fallback"},
            "epochs[].windows[].fallback": {"operator", "submitted"},
            "epochs[].heights[]": {"height", "window_index", "committed", "digest",
                                   "rounds_used", "ticks_elapsed", "signers"},
        }
        assert _object_keys(report.to_dict()) == shape
        out = tmp_path / "report.csv"
        write_report(report, "csv", out)
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == metrics * len(report.epochs)

    def test_float_precision_roundtrip(self, tmp_path):
        report = run_simulation(load_config(BASIC))
        out = tmp_path / "report.json"
        write_report(report, "json", out)
        loaded = read_report(out)
        dumped = report.to_dict()
        for i, epoch in enumerate(dumped["epochs"]):
            assert loaded["epochs"][i]["metrics"] == epoch["metrics"]


class TestCli:
    def test_run_and_metrics(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(BASIC)
        out_path = tmp_path / "out.json"
        code = cli_main(["run", "--config", str(config_path),
                         "--out", str(out_path), "--format", "json"])
        assert code == 0
        assert out_path.exists()
        code = cli_main(["metrics", "--report", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "sequencer.throughput" in captured.out
        for epoch in read_report(out_path)["epochs"]:
            lam = epoch["convergence"]["multipliers"]["batching"]
            assert lam > 0
            assert (f"  allocation: constraint_violation=0 multipliers: batching={lam:.6g}"
                    in captured.out.splitlines())

    def test_validate_ok(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(MINIMAL)
        assert cli_main(["validate", "--config", str(config_path)]) == 0
        assert '"drop_probability": 0.0' in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text('{"scenario": "sequencer"')
        assert cli_main(["validate", "--config", str(config_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_seed_override_changes_digest(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(BASIC)
        outs = []
        for seed in ("11", "99"):
            out_path = tmp_path / f"out-{seed}.json"
            assert cli_main(["run", "--config", str(config_path), "--seed", seed,
                             "--out", str(out_path)]) == 0
            outs.append(read_report(out_path)["trace_digest"])
        assert outs[0] != outs[1]

    def test_epoch_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(BASIC)
        out_path = tmp_path / "out.json"
        assert cli_main(["run", "--config", str(config_path), "--epochs", "3",
                         "--out", str(out_path)]) == 0
        assert len(read_report(out_path)["epochs"]) == 3

    def test_unwritable_destination_runtime_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(MINIMAL)
        code = cli_main(["run", "--config", str(config_path),
                         "--out", str(tmp_path / "missing-dir" / "out.json")])
        assert code == 2


def test_readme_names_every_config_field():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = {path[-1] for path, _ in _row_paths(_TOP)}
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def test_run_path_never_imports_numpy():
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import opsim\n"
              "for path in sys.argv[2:]:\n"
              "    opsim.run_simulation(opsim.load_config(path))\n"
              "history = [opsim.AllocationVector({('a', 't'): 1.0})] * 2\n"
              "opsim.payment_convergence_check(history, 1e-6, cost_coeff=0.01)\n"
              "assert 'numpy' not in sys.modules, 'the run path imported numpy'\n")
    configs = [str(ROOT / "configs" / name) for name in ("sequencer.json", "payment.json")]
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), *configs],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
