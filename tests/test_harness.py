import ast
import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from opsim import (Behavior, ConfigError, DomainError, fork_seed, load_config, quorum_met,
                   read_report, run_simulation, write_report)
from opsim.cli import main as cli_main
from opsim.harness import _KINDS, _TOP

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
    "schedule": {"window_length": 6, "windows_per_epoch": 3, "grace_length": 0},
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

# Low trust, a high failure rate, Byzantine validators and a lossy network:
# misses, fallbacks and slashes move trust in every epoch.
FAILURE_HEAVY = {
    "scenario": "sequencer", "seed": 7, "epochs": 4, "failure_rate_constant": 1.5,
    "network": {"drop_probability": 0.2, "latency_jitter": 2},
    "operators": [{"id": "a", "stake": 40.0, "trust": 0.2},
                  {"id": "b", "stake": 30.0, "trust": 0.9},
                  {"id": "c", "stake": 30.0, "behavior": "equivocating"},
                  {"id": "d", "stake": 20.0, "trust": 0.05},
                  {"id": "e", "stake": 10.0, "behavior": "silent"}],
    "tasks": [{"id": "t", "resource_cap": 6.0, "value": 9.0}],
}

# A UTF-16 byte-order mark: not UTF-8 text.
NOT_UTF8 = b"\xff\xfe{\x00}\x00"

WRONG_KIND = {"number": "1.0", "amount": "1.0", "fraction": "0.5", "probability": "0.5",
              "interior": "0.5", "gain": "x", "integer": 1.5, "count": 1.5,
              "positive": 1.5, "rounds": 1.5, "string": 7, "scenario": 7, "behavior": 7,
              "list": "x", "items": "x", "object": ["x"]}

# A JSON integer literal of 401 digits: too large for a float.
BIG = 10 ** 400
# From CPython 3.10.7 a str-to-int conversion has a digit limit (4,300 by
# default), so json.loads rejects a longer integer literal.
NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                           reason="no int digit limit")

# Values just inside and just outside the bounds of each ranged kind. For
# "string" and "items" the inside case is FULL itself: its ids are one
# character long and its task and stage lists hold one item each.
BOUNDS = {
    "number": ([0, math.inf], [-5e-324, math.nan, BIG]),
    "amount": ([0, sys.float_info.max], [-5e-324, math.inf, math.nan, BIG]),
    "fraction": ([0, 1], [-5e-324, 1.0000000000000002, math.nan]),
    "probability": ([0, 0.9999999999999999], [-5e-324, 1, math.nan]),
    "interior": ([5e-324, 0.9999999999999999], [0, 1, math.nan]),
    "gain": ([0, sys.float_info.max], [-5e-324, math.inf, math.nan, BIG]),
    "count": ([0], [-1]),
    "positive": ([1], [0]),
    "rounds": ([1, 64], [0, 65, BIG]),
    "string": ([], [""]),
    "scenario": (["sequencer", "payment"], ["auction"]),
    "behavior": ([b.value for b in Behavior], ["sneaky"]),
    "items": ([], [[]]),
}


def _row_paths(rows, prefix=()):
    """(path into FULL, kind) for every config row, descending into items."""
    for row in rows:
        path = prefix + (row.key,)
        yield path, row.kind
        if row.rows is not None:
            yield from _row_paths(row.rows, path + (() if row.kind == "object" else (0,)))


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


def _label(value):
    """``value`` for a test id, with the 401-digit literal written short."""
    return "10**400" if value == BIG else str(value)


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
        # A sequencer config needs some resources; the first operator holds them.
        maybe(op, "resources", positive if scenario == "sequencer" and op_id == ids[0]
              else amount)
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

    def test_sequencer_needs_resources(self):
        # sequencer_metrics divides by the roster's total resources.
        doc = json.loads(BASIC)
        for op in doc["operators"]:
            op["resources"] = 0.0
        with pytest.raises(ConfigError, match="resources > 0") as exc:
            load_config(json.dumps(doc))
        assert exc.value.field == "operators"
        doc["operators"][3]["resources"] = 5e-324
        load_config(json.dumps(doc))
        # The payment scenario reads no resources.
        doc = json.loads(PAYMENT)
        for op in doc["operators"]:
            op["resources"] = 0.0
        load_config(json.dumps(doc))

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

    @pytest.mark.parametrize("operator_ids, task_ids, field, message", [
        (["op-d", "op-b", "op-d", "op-b"], ["t"], "operators",
         "operators have duplicate ids: ['op-b', 'op-d']"),
        (["op-a"], ["t", "u", "t"], "tasks", "tasks have duplicate ids: ['t']"),
    ])
    def test_duplicate_ids_message_is_pinned(self, operator_ids, task_ids, field, message):
        # Each duplicated id is named once, sorted, whatever order it came in.
        doc = {"scenario": "sequencer",
               "operators": [{"id": op, "stake": 1.0} for op in operator_ids],
               "tasks": [{"id": task, "resource_cap": 1.0} for task in task_ids]}
        with pytest.raises(ConfigError) as exc:
            load_config(json.dumps(doc))
        assert str(exc.value) == message
        assert exc.value.field == field

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
            metrics = epoch["metrics"]["payment"]
            assert metrics["total_transactions"] == pytest.approx(165.92, abs=5e-3)

    @pytest.mark.parametrize("path, kind", [
        pytest.param(path, kind, id=_display(path)) for path, kind in _row_paths(_TOP)])
    def test_wrong_kind_names_the_field(self, path, kind):
        name = _display(path)
        with pytest.raises(ConfigError) as exc:
            load_config(_full_with(path, WRONG_KIND[kind]))
        assert name in str(exc.value)
        assert exc.value.field == name

    def test_wrong_kind_covers_every_kind(self):
        assert set(WRONG_KIND) == {*_KINDS, "object"}
        assert {kind for _, kind in _row_paths(_TOP)} == set(WRONG_KIND)

    @pytest.mark.parametrize("path, value, inside", [
        pytest.param(path, value, inside, id=f"{_display(path)}={_label(value)}")
        for path, kind in _row_paths(_TOP) if kind in BOUNDS
        for inside, values in zip((True, False), BOUNDS[kind]) for value in values])
    def test_ranged_row_bounds(self, path, value, inside):
        text = _full_with(path, value)
        if inside:
            load_config(text)
            return
        with pytest.raises(ConfigError) as exc:
            load_config(text)
        assert exc.value.field == _display(path)

    @pytest.mark.parametrize("path", [
        ("schedule", "grace_length"), ("operators", 0, "trust"),
        ("operators", 0, "payment", "stages"), ("operators", 0, "payment", "deadline"),
        ("operators", 0, "payment", "validation_cost_cap"), ("schedule", "windows_per_epoch")])
    def test_null_counts_as_omitted_for_optional_fields(self, path):
        assert load_config(_full_with(path, None)) == load_config(_full_with(path))

    @pytest.mark.parametrize("path", [
        ("seed",), ("weights",), ("operators", 0, "payment", "stages", 0, "latency"),
        ("operators", 0, "behavior"), ("tasks", 0, "consensus_gain")])
    def test_null_is_rejected_for_fields_with_a_default(self, path):
        with pytest.raises(ConfigError):
            load_config(_full_with(path, None))

    @pytest.mark.parametrize("path, value, field", [
        pytest.param(path, value, name[0] if name else _display(path),
                     id=f"{_display(path)}={_label(value)}")
        for path, value, *name in [
            (("operators", 0, "stake"), -1.0),
            (("operators", 0, "stake"), float("nan")),
            (("operators", 0, "capacity"), -5.0),
            (("operators", 0, "resources"), float("inf")),
            (("operators", 0, "region_latency"), -1),
            (("failure_rate_constant",), float("nan")),
            (("failure_rate_constant",), float("inf")),
            (("incentives", "submit_fee"), float("nan")),
            (("incentives", "submit_fee"), float("inf")),
            (("network", "partitions", 0, "end"), -1),
            (("network", "partitions", 0, "end"), 0),
            (("network", "partitions", 0, "members"), []),
            (("network", "partitions", 0, "members"), ["a", "b"]),
            # A member that is not a string, hashable or not, is named by its index.
            (("network", "partitions", 0, "members"), [["a"]], "network.partitions[0].members[0]"),
            (("network", "partitions", 0, "members"), ["a", {"id": "b"}],
             "network.partitions[0].members[1]"),
            (("network", "partitions", 0, "members"), [1], "network.partitions[0].members[0]"),
            (("operators", 0, "stake"), BIG),
            (("operators", 0, "resources"), BIG),
            (("tasks", 0, "resource_cap"), BIG),
            (("tasks", 0, "consensus_gain", "a"), BIG, "tasks[0].consensus_gain[a]"),
            (("tasks", 0, "performance_gain"), BIG),
            # Two stages at error rate 2: their pass rates multiply to 1.
            (("operators", 0, "payment", "stages"), [{"error_rate": 2.0}] * 2,
             "operators[0].payment.stages[0].error_rate"),
            (("operators", 0, "payment", "stages", 0, "error_rate"), float("nan")),
            (("operators", 0, "payment", "stages", 0, "latency"), -0.4),
            # Numbers that a domain class checks too are named by their row.
            (("max_rounds",), BIG),
            (("network", "drop_probability"), 2),
            (("incentives", "smoothing"), 2),
            (("weights", "consensus"), -1),
            (("tasks", 0, "cost_rate"), -1),
            (("tasks", 0, "consensus_gain", "b"), -1, "tasks[0].consensus_gain[b]"),
            (("operators", 0, "payment", "fee"), -1)]])
    def test_out_of_range_value_names_the_field(self, path, value, field):
        with pytest.raises(ConfigError) as exc:
            load_config(_full_with(path, value))
        assert exc.value.field == field

    @pytest.mark.parametrize("key", ["capacity", "deadline", "validation_cost_cap"])
    def test_nan_payment_bound_names_the_field(self, key):
        with pytest.raises(ConfigError) as exc:
            load_config(_full_with(("operators", 0, "payment", key), float("nan")))
        assert exc.value.field == f"operators[0].payment.{key}"
        assert key in str(exc.value)

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

    def test_non_utf8_file_is_config_error_naming_it(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(ConfigError, match="config.json"):
            load_config(str(path))


def silent_minority_doc(stakes, latencies, share):
    """A lossless honest roster with ``stakes`` and ``latencies``, and one silent operator.

    The silent operator starts with ``share`` of the stake. It has gains of
    0 and there is no submission fee, so it earns nothing. ``max_rounds`` 8
    lets the doubled phase timeouts outgrow every latency, and no window is
    missed.
    """
    operators = [{"id": f"op-{i}", "stake": stake, "region_latency": latency}
                 for i, (stake, latency) in enumerate(zip(stakes, latencies))]
    operators.append({"id": "op-silent", "behavior": "silent",
                      "stake": share / (1.0 - share) * math.fsum(stakes)})
    gains = {op["id"]: 0.0 if op["id"] == "op-silent" else 1.0 for op in operators}
    return {"scenario": "sequencer", "epochs": 4, "max_rounds": 8,
            "failure_rate_constant": 0.0, "schedule": {"windows_per_epoch": 4},
            "incentives": {"submit_fee": 0.0}, "operators": operators,
            "tasks": [{"id": "t", "resource_cap": 10.0, "consensus_gain": gains,
                       "performance_gain": gains}]}


@st.composite
def silent_minority_docs(draw):
    """``silent_minority_doc`` of 4-9 honest operators with latencies 0-2, the silent
    share in [0.30, 0.40], around the third that stalls the 2/3 rule."""
    n = draw(st.integers(4, 9))
    return silent_minority_doc(draw(st.lists(st.floats(50.0, 150.0), min_size=n, max_size=n)),
                               draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                               draw(st.floats(0.30, 0.40)))


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
            assert epoch["metrics"]["sequencer"]["fault_tolerance"] == 1.0
            for height in epoch["heights"]:
                assert height["committed"]

    def test_silent_validator_slashed_and_excluded_from_signers(self):
        silent = BASIC.replace('{"id": "op-d", "stake": 40.0, "resources": 15.0}',
                               '{"id": "op-d", "stake": 40.0, "resources": 15.0, '
                               '"behavior": "silent"}')
        report = run_simulation(load_config(silent))
        first = report.epochs[0]
        assert all("op-d" not in h["signers"] for h in first["heights"])
        assert any(e["operator"] == "op-d" and e["kind"] == "slash"
                   for e in first["ledger"])
        baseline = run_simulation(load_config(BASIC))
        assert len(first["heights"][0]["signers"]) \
            == len(baseline.epochs[0]["heights"][0]["signers"]) - 1

    def test_incentive_loop_restores_liveness_after_a_silent_third(self):
        # The incentive loop end to end: a silent operator holding over a
        # third of the stake stalls epoch 0. Settlement slashes it and pays
        # the others, and the next epoch's roster is built from the stakes
        # that settlement leaves, until the honest rest is a quorum.
        doc = json.loads((ROOT / "configs" / "sequencer.json").read_text())
        doc["network"], doc["epochs"] = {}, 6
        for op in doc["operators"]:
            op["stake"] = 160.0 if op["id"] == "op-north" else 100.0
        report = run_simulation(load_config(json.dumps(doc)))
        stakes = {op["id"]: op["stake"] for op in doc["operators"]}
        silent, shares = [], []
        for epoch in report.epochs:
            # Epoch k starts from the stakes that epoch k - 1 reports.
            total = math.fsum(stakes.values())
            silent.append(stakes["op-north"])
            shares.append(stakes["op-north"] / total)
            committed = [h["committed"] for h in epoch["heights"]]
            assert committed == [quorum_met(total - stakes["op-north"], total)] * 4
            stakes = epoch["stakes"]
        assert [sum(h["committed"] for h in epoch["heights"]) for epoch in report.epochs] \
            == [0, 4, 4, 4, 4, 4]
        assert shares[0] == pytest.approx(160 / 460)
        assert all(later < earlier for earlier, later in zip(shares, shares[1:]))
        assert all(later < earlier for earlier, later in zip(silent, silent[1:]))

    @settings(max_examples=100, deadline=None)
    @given(doc=silent_minority_docs())
    @example(doc=silent_minority_doc([100.0] * 4, [0, 1, 2, 1], 0.30))
    @example(doc=silent_minority_doc([100.0] * 4, [0, 1, 2, 1], 0.40))
    def test_each_epoch_commits_exactly_when_its_honest_stake_is_a_quorum(self, doc):
        # The open part of the incentive-loop check, on drawn rosters: an
        # epoch commits all its heights when the honest stake passes
        # quorum_met against the total of its starting stakes, and none
        # otherwise; settlement slashes the silent stake every epoch.
        report = run_simulation(load_config(json.dumps(doc)))
        stakes = {op["id"]: op["stake"] for op in doc["operators"]}
        silent = []
        for epoch in report.epochs:
            honest = math.fsum(stake for op, stake in stakes.items() if op != "op-silent")
            quorum = quorum_met(honest, math.fsum(stakes.values()))
            assert [h["committed"] for h in epoch["heights"]] == [quorum] * 4
            silent.append(stakes["op-silent"])
            stakes = epoch["stakes"]
        silent.append(stakes["op-silent"])
        assert all(later < earlier for earlier, later in zip(silent, silent[1:]))

    def test_all_success_monotone_stakes_and_trust(self):
        config = load_config(BASIC.replace(
            '"seed": 11', '"seed": 11, "failure_rate_constant": 0.0'))
        report = run_simulation(config)
        prev_stakes = {op.id: op.stake for op in config.operators}
        prev_trusts = {op.id: 0.5 for op in config.operators}
        for epoch in report.epochs:
            for op, stake in epoch["stakes"].items():
                assert stake >= prev_stakes[op] - 1e-9
            for op, trust in epoch["trusts"].items():
                assert trust >= prev_trusts[op] - 1e-9
            prev_stakes, prev_trusts = epoch["stakes"], epoch["trusts"]

    def test_payment_scenario_metrics_present(self):
        report = run_simulation(load_config(PAYMENT))
        assert "payment" in report.epochs[0]["metrics"]
        assert report.epochs[0]["metrics"]["payment"]["revenue_growth"] is None
        assert report.epochs[1]["metrics"]["payment"]["revenue_growth"] is not None
        # static parameters give identical profits epoch over epoch
        assert report.epochs[1]["metrics"]["payment"]["revenue_growth"] == pytest.approx(0.0)

    def test_payment_totals_are_per_epoch_not_cumulative(self):
        report = run_simulation(load_config(PAYMENT))
        first = report.epochs[0]["metrics"]["payment"]["total_transactions"]
        second = report.epochs[1]["metrics"]["payment"]["total_transactions"]
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
            assert all(not h["committed"] for h in epoch["heights"])

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

    @pytest.mark.parametrize("text", [BASIC, json.dumps(FAILURE_HEAVY)],
                             ids=["basic", "failure-heavy"])
    def test_aggregation_weights_are_the_epochs_starting_trusts(self, text):
        config = load_config(text)
        starting = {op.id: op.trust for op in config.operators}
        epochs = run_simulation(config).epochs
        assert epochs[-1]["trusts"] != starting
        for epoch in epochs:
            assert epoch["aggregation"]["weights"] == starting
            starting = epoch["trusts"]

    @pytest.mark.parametrize("text", [BASIC, PAYMENT], ids=["sequencer", "payment"])
    def test_all_zero_trusts_run_every_epoch(self, text):
        doc = json.loads(text)
        for op in doc["operators"]:
            op["trust"] = 0.0
        epochs = run_simulation(load_config(json.dumps(doc))).epochs
        assert len(epochs) == doc["epochs"]
        # The trusts weight the aggregation, and an all-zero weighting has no mean.
        assert epochs[0]["aggregation"]["aggregate"] is None

    def test_payment_optimum_is_needed_only_once_an_epoch_runs(self):
        # Zero validation cost and unbounded capacity have no optimum.
        doc = json.loads(PAYMENT)
        doc["operators"][1]["payment"].update(validation_cost_coeff=0.0, capacity=math.inf)
        doc["epochs"] = 0
        assert run_simulation(load_config(json.dumps(doc))).epochs == ()
        doc["epochs"] = 1
        with pytest.raises(DomainError, match="unbounded"):
            run_simulation(load_config(json.dumps(doc)))

    def test_zero_epochs_gives_empty_report(self):
        config = load_config(MINIMAL.replace('"scenario": "sequencer",',
                                             '"scenario": "sequencer", "epochs": 0,'))
        report = run_simulation(config)
        assert report.epochs == ()

    def test_fork_seed_stable_labels(self):
        assert fork_seed(1, "net:0:0") == fork_seed(1, "net:0:0")
        assert fork_seed(1, "net:0:0") != fork_seed(1, "net:0:1")
        assert fork_seed(1, "net:0:0") != fork_seed(2, "net:0:0")

    @pytest.mark.parametrize("seed, label", [(0, "failures"), (1, "net:0:0"),
                                             (2**63, "net:15:3"), (-5, "é")])
    def test_fork_seed_matches_hashlib_reference(self, seed, label):
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        assert fork_seed(seed, label) == int.from_bytes(digest[:8], "big")


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
            "epochs[].convergence": {"constraint_violation", "multipliers"},
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

    def test_report_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"config": {},\n  "epochs": ]}')
        with pytest.raises(ConfigError, match="^report parse error at line 2, column 13: ") as exc:
            read_report(path)
        assert (exc.value.line, exc.value.column) == (2, 13)

    def test_non_utf8_report_is_config_error_naming_it(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(ConfigError, match="report.json"):
            read_report(path)

    @pytest.mark.parametrize("doc, key", [
        ([], "config"), ("config epochs", "config"), ({"config": {}}, "epochs"),
        ({"config": {}, "epochs": [], "trace_digest": ""}, "ledger_totals"),
        ({"config": {}, "epochs": [], "ledger_totals": {}}, "trace_digest")])
    def test_json_that_is_not_a_report_names_the_missing_key(self, tmp_path, doc, key):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"'{key}'") as exc:
            read_report(path)
        assert exc.value.field == key

    def test_float_precision_roundtrip(self, tmp_path):
        report = run_simulation(load_config(BASIC))
        out = tmp_path / "report.json"
        write_report(report, "json", out)
        loaded = read_report(out)
        dumped = report.to_dict()
        for i, epoch in enumerate(dumped["epochs"]):
            assert loaded["epochs"][i]["metrics"] == epoch["metrics"]


def metrics_report():
    """A two-epoch report document holding every field ``opsim metrics`` reads."""
    epoch = {"epoch": 0, "metrics": {"sequencer": {"throughput": 2, "latency": None}},
             "convergence": {"multipliers": {"t": 0.5}, "constraint_violation": 0.0}}
    return {"config": {"scenario": "sequencer", "seed": 3},
            "epochs": [epoch, json.loads(json.dumps(epoch))],
            "ledger_totals": {}, "trace_digest": "abc"}


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

    def test_negative_epoch_override_names_epochs(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(BASIC)
        code = cli_main(["run", "--config", str(config_path), "--epochs", "-1",
                         "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert "epochs" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command, content", [
        pytest.param("validate", NOT_UTF8, id="validate-not-utf8"),
        pytest.param("metrics", NOT_UTF8, id="metrics-not-utf8"),
        pytest.param("metrics", b"[]", id="metrics-list"),
        pytest.param("metrics", b'{"config": {}}', id="metrics-partial"),
        pytest.param("metrics", BASIC.encode(), id="metrics-on-a-config")])
    def test_unusable_input_is_a_config_error(self, tmp_path, capsys, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        flag = "--config" if command == "validate" else "--report"
        assert cli_main([command, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "input.json" in err

    @pytest.mark.parametrize("command, content", [
        pytest.param("validate", MINIMAL.replace(
            '"sequencer",', '"sequencer", "seed": 1' + "0" * 5000 + ",").encode(),
            marks=NEEDS_INT_DIGIT_LIMIT, id="validate-5001-digit-seed"),
        pytest.param("validate", b"[" * 100_000, id="validate-100000-deep"),
        pytest.param("metrics", b'{"epochs": 1' + b"0" * 5000 + b"}",
                     marks=NEEDS_INT_DIGIT_LIMIT, id="metrics-5001-digit-number"),
        pytest.param("metrics", b"[" * 100_000, id="metrics-100000-deep")])
    def test_json_that_json_loads_rejects_otherwise_is_a_config_error(
            self, tmp_path, capsys, command, content):
        # json.loads raises ValueError past the int digit limit, and
        # RecursionError past the recursion limit; neither is a JSONDecodeError.
        path = tmp_path / "input.json"
        path.write_bytes(content)
        flag = "--config" if command == "validate" else "--report"
        assert cli_main([command, flag, str(path)]) == 1
        what = "config" if command == "validate" else "report"
        assert capsys.readouterr().err.startswith(f"config error: {what} parse error: ")

    def test_missing_report_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert cli_main(["metrics", "--report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read report file") and "missing.json" in err

    @pytest.mark.parametrize("drop, field", [
        (None, None),
        (("config", "scenario"), "config.scenario"),
        (("config", "seed"), "config.seed"),
        (("epochs", 1, "epoch"), "epochs[1].epoch"),
        (("epochs", 1, "convergence"), "epochs[1].convergence"),
        (("epochs", 0, "convergence", "multipliers"), "epochs[0].convergence.multipliers"),
        (("epochs", 0, "convergence", "constraint_violation"),
         "epochs[0].convergence.constraint_violation")])
    def test_metrics_names_a_missing_field(self, tmp_path, capsys, drop, field):
        doc = metrics_report()
        if drop is not None:
            *parents, key = drop
            target = doc
            for parent in parents:
                target = target[parent]
            del target[key]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code = cli_main(["metrics", "--report", str(path)])
        captured = capsys.readouterr()
        if field is None:
            assert code == 0
            assert "multipliers: t=0.5" in captured.out
            assert "  sequencer.latency = absent" in captured.out.splitlines()
            return
        assert code == 1
        assert captured.err.startswith("config error:") and f"'{field}'" in captured.err
        assert "report.json" in captured.err

    @pytest.mark.parametrize("where, value, field", [
        (("trace_digest",), 5, "trace_digest"),
        (("epochs", 1, "metrics"), [], "epochs[1].metrics"),
        (("epochs", 1, "metrics", "sequencer"), 3, "epochs[1].metrics.sequencer"),
        (("epochs", 1, "metrics", "sequencer", "throughput"), "x",
         "epochs[1].metrics.sequencer.throughput"),
        (("epochs", 0, "metrics", "sequencer", "throughput"), True,
         "epochs[0].metrics.sequencer.throughput"),
        (("epochs", 0, "convergence", "multipliers"), [0.5], "epochs[0].convergence.multipliers"),
        (("epochs", 0, "convergence", "multipliers", "t"), "0.5",
         "epochs[0].convergence.multipliers.t"),
        (("epochs", 0, "convergence", "multipliers", "t"), None,
         "epochs[0].convergence.multipliers.t"),
        (("epochs", 1, "convergence", "constraint_violation"), "0",
         "epochs[1].convergence.constraint_violation"),
        (("epochs", 1, "convergence", "constraint_violation"), None,
         "epochs[1].convergence.constraint_violation")])
    def test_metrics_names_a_wrong_typed_field(self, tmp_path, capsys, where, value, field):
        doc = metrics_report()
        *parents, key = where
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["metrics", "--report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{field}'" in err and "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"config": {}, "epochs": [], "ledger_totals": {}, "trace_digest": ""},
        {"config": [], "epochs": [], "ledger_totals": {}, "trace_digest": ""},
        {"config": {"scenario": "s", "seed": 0}, "epochs": 5, "ledger_totals": {},
         "trace_digest": ""},
        {"config": {"scenario": "s", "seed": 0}, "epochs": [[]], "ledger_totals": {},
         "trace_digest": ""}])
    def test_metrics_on_a_malformed_report_is_a_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["metrics", "--report", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})


# CPython's built-in SHA-256 module is _sha2 from 3.12 and _sha256 before,
# so each name is missing from sys.stdlib_module_names on some version.
BUILTIN_SHA256 = ("_sha2", "_sha256")


def _builtin_sha256_imports(tree):
    """Imports of a built-in SHA-256 module that fall back to ``hashlib``.

    Only ``from _sha2 import sha256`` or ``from _sha256 import sha256`` in a
    ``try`` body count, and only when an ``except ImportError`` of that
    ``try`` imports ``sha256`` from ``hashlib``, itself or in a nested ``try``.
    """
    def hashlib_fallback(node):
        return isinstance(node, ast.ImportFrom) and node.level == 0 \
            and node.module == "hashlib" and [a.name for a in node.names] == ["sha256"]

    excused = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        if not any(isinstance(handler.type, ast.Name) and handler.type.id == "ImportError"
                   and any(hashlib_fallback(inner) for statement in handler.body
                           for inner in ast.walk(statement))
                   for handler in node.handlers):
            continue
        excused.update(statement for statement in node.body
                       if isinstance(statement, ast.ImportFrom) and statement.level == 0
                       and statement.module in BUILTIN_SHA256
                       and [a.name for a in statement.names] == ["sha256"])
    return excused


def test_package_imports_only_the_standard_library():
    # Read from the source, so an import in a function body that no test
    # runs counts too: opsim has no runtime dependency.
    paths = sorted((ROOT / "src" / "opsim").glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        excused = _builtin_sha256_imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if node in excused:
                continue
            outside += [f"{path.name}:{node.lineno}: {module}" for module in modules
                        if module.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_builtin_sha256_import_needs_the_hashlib_fallback():
    guarded = ("try:\n"
               "    from _sha2 import sha256\n"
               "except ImportError:\n"
               "    try:\n"
               "        from _sha256 import sha256\n"
               "    except ImportError:\n"
               "        from hashlib import sha256\n")
    assert len(_builtin_sha256_imports(ast.parse(guarded))) == 2
    for source in ("from _sha2 import sha256\n",
                   "try:\n    from _sha256 import sha256\nexcept ImportError:\n    pass\n",
                   "try:\n    from _sha256 import sha256\n"
                   "except OSError:\n    from hashlib import sha256\n",
                   "try:\n    from _sha256 import sha1\n"
                   "except ImportError:\n    from hashlib import sha256\n",
                   "try:\n    from _md5 import sha256\n"
                   "except ImportError:\n    from hashlib import sha256\n"):
        assert _builtin_sha256_imports(ast.parse(source)) == set(), source


def test_run_path_never_imports_numpy():
    # numpy is a test-only dependency: both shipped configs run with it
    # made unimportable, and nothing else loads it behind the import.
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import opsim\n"
              "for path in sys.argv[2:]:\n"
              "    opsim.run_simulation(opsim.load_config(path))\n"
              "assert sys.modules['numpy'] is None, 'the run path replaced numpy'\n")
    configs = [str(ROOT / "configs" / name) for name in ("sequencer.json", "payment.json")]
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), *configs],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_run_path_never_loads_openssl():
    # SHA-256 comes from CPython's built-in module where there is one, so
    # neither importing opsim nor running both shipped configs loads the
    # OpenSSL backend of hashlib.
    script = ("import importlib.util, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import opsim\n"
              "for path in sys.argv[2:]:\n"
              "    opsim.run_simulation(opsim.load_config(path))\n"
              "loaded = '_hashlib' in sys.modules\n"
              "builtin = [name for name in ('_sha2', '_sha256')\n"
              "           if importlib.util.find_spec(name) is not None]\n"
              "print(builtin, loaded)\n")
    configs = [str(ROOT / "configs" / name) for name in ("sequencer.json", "payment.json")]
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), *configs],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    builtin, _, loaded = result.stdout.strip().rpartition(" ")
    if builtin == "[]":
        pytest.skip("this Python has no built-in SHA-256 module")
    assert loaded == "False", f"_hashlib loaded although {builtin} can be imported"


def test_import_never_searches_for_the_other_versions_sha256_module():
    # opsim.trace picks its built-in SHA-256 module by version, _sha2 from
    # 3.12 and _sha256 before, since a search for the missing one walks all
    # of sys.path. A finder placed first records every module searched for.
    script = ("import sys\n"
              "searched = []\n"
              "class Recorder:\n"
              "    @staticmethod\n"
              "    def find_spec(name, path=None, target=None):\n"
              "        searched.append(name)\n"
              "sys.meta_path.insert(0, Recorder)\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import opsim.trace\n"
              "print(opsim.trace.sha256.__module__, *searched)\n")
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "src")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    module, *searched = result.stdout.split()
    assert "opsim.trace" in searched
    wanted, other = ("_sha2", "_sha256") if sys.version_info >= (3, 12) else ("_sha256", "_sha2")
    assert other not in searched
    # The hashlib fallback serves a Python without the built-in module.
    assert module == wanted or importlib.util.find_spec(wanted) is None, module


def test_run_path_never_loads_dataclasses_or_inspect():
    # The records are named tuples, so importing opsim generates no
    # dataclass methods: neither the import nor a run of both shipped
    # configs newly loads dataclasses or inspect, whose import chain
    # (ast, dis, tokenize) would add to every run's set-up.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import opsim\n"
              "for path in sys.argv[2:]:\n"
              "    opsim.run_simulation(opsim.load_config(path))\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n")
    configs = [str(ROOT / "configs" / name) for name in ("sequencer.json", "payment.json")]
    result = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), *configs],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
