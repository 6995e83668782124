from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path
from typing import Callable

import pytest

import golden
from chainplan import (
    DEFAULT_PCIE_LATENCY_US,
    Placement,
    Scenario,
    ScenarioFormatError,
    ScenarioValidationError,
    ServiceChain,
    TracePoint,
    ValidationReport,
    Violation,
    VnfSpec,
    builtin_table1,
    cli,
    load_scenario,
    load_trace,
    model,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)
from chainplan import scenario_io as sio

S = Placement.SMARTNIC
C = Placement.CPU


def fig1_doc() -> dict:
    return json.loads(golden.FIG1_SCENARIO.read_text())


class TestLoadScenario:
    def test_golden_file_builds_the_golden_chain(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        assert scenario.chain.ids == ("LB", "Logger", "Monitor", "Firewall", "C2")
        assert scenario.chain.placements == (C, S, S, S, C)
        assert scenario.chain.ingress_anchor is S
        assert scenario.chain.egress_anchor is S
        assert scenario.theta_cur == 1.2
        assert scenario.pcie_latency_us == 10.0
        assert scenario.specs["Logger"].cap_smartnic == 2.0
        assert scenario.specs["C2"].cap_cpu == 4.0

    def test_missing_chain_key_is_named(self, tmp_path):
        doc = fig1_doc()
        del doc["chain"]
        path = tmp_path / "bad.scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="'chain'"):
            load_scenario(path)

    def test_override_touches_only_named_fields(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        assert scenario.specs["Monitor"].cap_smartnic == 1.8
        assert scenario.specs["Monitor"].cap_cpu == 10.0  # untouched
        assert scenario.specs["Logger"].cap_smartnic == 2.0  # untouched
        assert scenario.specs["Firewall"].proc_latency_cpu == 15.0

    def test_unknown_top_level_key_rejected(self):
        doc = fig1_doc()
        doc["comment"] = "hi"
        with pytest.raises(ScenarioFormatError, match="comment"):
            scenario_from_dict(doc)

    def test_unknown_chain_entry_key_rejected(self):
        doc = fig1_doc()
        doc["chain"][0]["weight"] = 2
        with pytest.raises(ScenarioFormatError, match="weight"):
            scenario_from_dict(doc)

    def test_unknown_override_field_rejected(self):
        doc = fig1_doc()
        doc["spec_overrides"]["C2"]["cores"] = 4
        with pytest.raises(ScenarioFormatError, match="cores"):
            scenario_from_dict(doc)

    def test_bad_placement_names_the_field(self):
        doc = fig1_doc()
        doc["chain"][1]["placement"] = "GPU"
        with pytest.raises(ScenarioFormatError, match=r"chain\[1\].placement"):
            scenario_from_dict(doc)

    def test_new_spec_requires_both_capacities(self):
        doc = fig1_doc()
        doc["spec_overrides"]["C2"] = {"cap_cpu": 4.0}
        with pytest.raises(ScenarioFormatError, match="cap_smartnic"):
            scenario_from_dict(doc)

    def test_override_keys_are_the_spec_numbers(self):
        assert sio.OVERRIDE_KEYS == ("cap_smartnic", "cap_cpu", "proc_latency_smartnic", "proc_latency_cpu")
        assert sio.NEW_SPEC_KEYS == ("cap_smartnic", "cap_cpu")

    def test_validation_failures_propagate(self):
        doc = fig1_doc()
        doc["theta_cur"] = -1.0
        with pytest.raises(ScenarioValidationError, match="negative_load"):
            scenario_from_dict(doc)

    def test_negative_theta_is_reported_at_its_key(self, tmp_path, capsys):
        doc = fig1_doc()
        doc["theta_cur"] = -1.0
        path = tmp_path / "negative.scenario.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["plan", "--scenario", str(path), "--policy", "pam"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scenario failed validation: negative_load at theta_cur\n"

    def test_empty_chain_reported_as_validation_error(self):
        doc = fig1_doc()
        doc["chain"] = []
        with pytest.raises(ScenarioValidationError, match="empty_chain"):
            scenario_from_dict(doc)

    def test_invalid_json_reports_the_line(self, tmp_path):
        path = tmp_path / "broken.scenario.json"
        path.write_text('{\n  "chain": [,]\n}\n')
        with pytest.raises(ScenarioFormatError, match="line 2"):
            load_scenario(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "binary.scenario.json"
        path.write_bytes(b"\xff")
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: invalid UTF-8 at byte 0: invalid start byte"

    def test_nesting_past_the_parser_limit_names_the_file(self, tmp_path):
        # Far deeper than CPython's recursion guard for json, whose depth
        # differs between supported versions.
        depth = 100_000
        path = tmp_path / "deep.scenario.json"
        path.write_text('{"chain": ' + "[" * depth + "]" * depth + ', "theta_cur": 1.0}')
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: invalid JSON: maximum recursion depth")

    def test_number_past_the_digit_limit_names_the_file(self, tmp_path):
        path = tmp_path / "digits.scenario.json"
        path.write_text('{"chain": [], "theta_cur": ' + "9" * 5000 + "}")
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: invalid JSON: Exceeds the limit")

    def test_anchors_default_to_smartnic(self):
        doc = fig1_doc()
        del doc["anchors"]
        scenario = scenario_from_dict(doc)
        assert scenario.chain.ingress_anchor is S
        assert scenario.chain.egress_anchor is S

    def test_theta_must_be_a_number(self):
        doc = fig1_doc()
        doc["theta_cur"] = "fast"
        with pytest.raises(ScenarioFormatError, match="theta_cur"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_number_names_the_key(self, value):
        doc = fig1_doc()
        doc["spec_overrides"]["C2"]["cap_cpu"] = value
        with pytest.raises(ScenarioFormatError, match=r"spec_overrides\[C2\]\.cap_cpu must be a finite number"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_constant_names_the_key(self, tmp_path, constant):
        path = tmp_path / "nan.scenario.json"
        text = golden.FIG1_SCENARIO.read_text()
        for key, value, where in (
            ("theta_cur", "1.2", "theta_cur"),
            ("cap_cpu", "4.0", "spec_overrides[C2].cap_cpu"),
        ):
            assert text.count(f'"{key}": {value}') == 1
            path.write_text(text.replace(f'"{key}": {value}', f'"{key}": {constant}'))
            with pytest.raises(ScenarioFormatError) as exc:
                load_scenario(path)
            got = repr(float(constant))
            assert str(exc.value) == f"{path}: {where} must be a finite number, got {got}"

    def test_duplicate_key_is_named(self, tmp_path):
        path = tmp_path / "dup.scenario.json"
        text = golden.FIG1_SCENARIO.read_text()
        for old, key, where in (
            ('"theta_cur": 1.2', "theta_cur", "scenario"),
            ('"cap_cpu": 4.0', "cap_cpu", "spec_overrides[C2]"),
            ('"spec": "Monitor"', "spec", "chain[2]"),
            ('"egress": "SmartNIC"', "egress", "anchors"),
            ('"C2": {"cap_smartnic": 15.0, "cap_cpu": 4.0}', "C2", "spec_overrides"),
        ):
            assert text.count(old) == 1
            path.write_text(text.replace(old, f"{old}, {old}"))
            with pytest.raises(ScenarioFormatError) as exc:
                load_scenario(path)
            assert str(exc.value) == f"{path}: duplicate key {key!r} in {where}"


def _set(doc: dict, path: tuple, value: object) -> dict:
    """Return doc with the value at path (keys and list indices) replaced."""
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


def _drop(doc: dict, path: tuple) -> dict:
    target = doc
    for step in path[:-1]:
        target = target[step]
    del target[path[-1]]
    return doc


# (mutation of the fig1 document, message the reader must give). Each level
# of the schema gets a wrong type, an unknown key and each missing required
# key; each message names the offending key and the level.
STRICT_READER_CASES = [
    pytest.param(lambda d: [d], "scenario must be an object", id="top-not-object"),
    pytest.param(lambda d: _set(d, ("comment",), "hi"), "unknown key(s) in scenario: comment", id="top-unknown-key"),
    pytest.param(lambda d: _drop(d, ("chain",)), "missing required key 'chain' in scenario", id="top-missing-chain"),
    pytest.param(lambda d: _drop(d, ("theta_cur",)), "missing required key 'theta_cur' in scenario", id="top-missing-theta_cur"),
    pytest.param(lambda d: _set(d, ("chain",), {"LB": "CPU"}), "chain must be a list", id="chain-not-list"),
    pytest.param(lambda d: _set(d, ("chain", 0), "LB"), "chain[0] must be an object", id="entry-not-object"),
    pytest.param(lambda d: _set(d, ("chain", 0, "weight"), 2), "unknown key(s) in chain[0]: weight", id="entry-unknown-key"),
    pytest.param(lambda d: _drop(d, ("chain", 2, "id")), "missing required key 'id' in chain[2]", id="entry-missing-id"),
    pytest.param(lambda d: _drop(d, ("chain", 2, "spec")), "missing required key 'spec' in chain[2]", id="entry-missing-spec"),
    pytest.param(
        lambda d: _drop(d, ("chain", 2, "placement")), "missing required key 'placement' in chain[2]",
        id="entry-missing-placement",
    ),
    pytest.param(lambda d: _set(d, ("chain", 1, "placement"), 3), "chain[1].placement must be a string, got 3", id="placement-not-string"),
    pytest.param(lambda d: _set(d, ("anchors",), ["SmartNIC"]), "anchors must be an object", id="anchors-not-object"),
    pytest.param(lambda d: _set(d, ("anchors", "middle"), "CPU"), "unknown key(s) in anchors: middle", id="anchors-unknown-key"),
    pytest.param(
        lambda d: _set(d, ("anchors", "ingress"), None), "anchors.ingress must be a string, got None",
        id="anchors-ingress-not-string",
    ),
    pytest.param(
        lambda d: _set(d, ("anchors", "egress"), "GPU"),
        "anchors.egress: unknown placement 'GPU' (expected 'SmartNIC' or 'CPU')",
        id="anchors-egress-unknown-placement",
    ),
    pytest.param(lambda d: _set(d, ("spec_overrides",), [1]), "spec_overrides must be an object", id="overrides-not-object"),
    pytest.param(
        lambda d: _set(d, ("spec_overrides", "C2"), 4.0), "spec_overrides[C2] must be an object",
        id="override-not-object",
    ),
    pytest.param(
        lambda d: _set(d, ("spec_overrides", "Monitor"), {"cores": 4}), "unknown key(s) in spec_overrides[Monitor]: cores",
        id="override-unknown-key",
    ),
    pytest.param(
        lambda d: _set(d, ("spec_overrides", "C2"), {"cap_cpu": 4.0}),
        "missing required key 'cap_smartnic' in spec_overrides[C2]",
        id="new-spec-missing-cap_smartnic",
    ),
    pytest.param(
        lambda d: _set(d, ("spec_overrides", "C2"), {"cap_smartnic": 15.0}),
        "missing required key 'cap_cpu' in spec_overrides[C2]",
        id="new-spec-missing-cap_cpu",
    ),
]


class TestStrictReader:
    @pytest.mark.parametrize("mutate, message", STRICT_READER_CASES)
    def test_rejection_names_the_key_and_the_level(self, mutate, message):
        with pytest.raises(ScenarioFormatError) as excinfo:
            scenario_from_dict(mutate(fig1_doc()))
        assert str(excinfo.value) == message


# A bad chain entry's JSON text and the message the reader gives for it at
# position {pos}.
BAD_CHAIN_ENTRIES = [
    pytest.param('"LB"', "chain[{pos}] must be an object", id="not-object"),
    pytest.param('["LB", "Logger", "CPU"]', "chain[{pos}] must be an object", id="list"),
    pytest.param(
        '{"id": "x", "spec": "Logger", "placement": "CPU", "weight": 2}',
        "unknown key(s) in chain[{pos}]: weight", id="unknown-key",
    ),
    pytest.param(
        '{"id": "x", "placement": "CPU"}', "missing required key 'spec' in chain[{pos}]",
        id="missing-key",
    ),
    pytest.param(
        '{"id": "x", "id": "x", "spec": "Logger", "placement": "CPU"}',
        "duplicate key 'id' in chain[{pos}]", id="duplicate-key",
    ),
    pytest.param(
        '{"id": true, "spec": "Logger", "placement": "CPU"}',
        "chain[{pos}].id must be a string, got True", id="bool-id",
    ),
    pytest.param(
        '{"id": 7, "spec": "Logger", "placement": "CPU"}',
        "chain[{pos}].id must be a string, got 7", id="int-id",
    ),
    pytest.param(
        '{"id": "x", "spec": "Logger", "placement": ["CPU"]}',
        "chain[{pos}].placement must be a string, got ['CPU']", id="list-placement",
    ),
    pytest.param(
        '{"id": "x", "spec": "Logger", "placement": "GPU"}',
        "chain[{pos}].placement: unknown placement 'GPU' (expected 'SmartNIC' or 'CPU')",
        id="unknown-placement",
    ),
]

LONG_CHAIN = 1000


def _long_chain_text(bad_pos: int, bad_entry: str) -> str:
    entries = [
        f'{{"id": "v{i}", "spec": "Logger", "placement": "{"CPU" if i % 3 else "SmartNIC"}"}}'
        for i in range(LONG_CHAIN)
    ]
    entries[bad_pos] = bad_entry
    return f'{{"chain": [{", ".join(entries)}], "theta_cur": 0.5}}'


class TestChainReader:
    """Chain entries: well-formed ones take a fast path, any other the strict
    checks, so each bad entry gets the message its position and field name."""

    @pytest.mark.parametrize("bad_entry, message", BAD_CHAIN_ENTRIES)
    @pytest.mark.parametrize("pos", [0, LONG_CHAIN // 2, LONG_CHAIN - 1], ids=["first", "middle", "last"])
    def test_bad_entry_in_a_long_chain(self, tmp_path, bad_entry, message, pos):
        path = tmp_path / "long.scenario.json"
        path.write_text(_long_chain_text(pos, bad_entry))
        with pytest.raises(ScenarioFormatError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"{path}: " + message.format(pos=pos)

    def test_long_chain_reads_every_entry(self, tmp_path):
        path = tmp_path / "long.scenario.json"
        good = '{"placement": "SmartNIC", "spec": "Monitor", "id": "last"}'  # keys reordered
        path.write_text(_long_chain_text(LONG_CHAIN - 1, good))
        chain = load_scenario(path).chain
        assert len(chain) == LONG_CHAIN
        rows = list(zip(chain.ids, chain.spec_names, chain.placements))
        assert rows[1] == ("v1", "Logger", C)
        assert rows[-1] == ("last", "Monitor", S)

    def test_str_subclass_values_are_accepted(self):
        class Name(str):
            pass

        doc = fig1_doc()
        doc["chain"][1] = {"id": Name("Logger"), "spec": Name("Logger"), "placement": Name("SmartNIC")}
        scenario = scenario_from_dict(doc)
        assert scenario == scenario_from_dict(fig1_doc())
        assert type(scenario.chain.ids[1]) is Name


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path",
        [golden.FIG1_SCENARIO, golden.MONITOR_BOTTLENECK_SCENARIO, golden.TWO_STEP_SCENARIO],
        ids=lambda p: p.stem,
    )
    def test_load_save_load_is_identity(self, path, tmp_path):
        scenario = load_scenario(path)
        saved = tmp_path / "saved.scenario.json"
        save_scenario(scenario, saved)
        reloaded = load_scenario(saved)
        assert reloaded == scenario

    def test_save_is_deterministic(self, tmp_path):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(scenario, a)
        save_scenario(scenario, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("where", ["cap_smartnic", "theta_cur"])
    def test_infinite_values_are_refused_before_writing(self, where, tmp_path):
        # `validate` accepts both (inf > 0 and inf >= 0), but the strict
        # reader rejects the `Infinity` token json.dumps would write.
        scenario = load_scenario(golden.FIG1_SCENARIO)
        if where == "theta_cur":
            scenario = scenario._replace(theta_cur=math.inf)
        else:
            specs = dict(scenario.specs)
            specs["Logger"] = specs["Logger"]._replace(cap_smartnic=math.inf)
            scenario = scenario._replace(specs=specs)
        assert validate(scenario).ok
        saved = tmp_path / "saved.scenario.json"
        with pytest.raises(ValueError):
            save_scenario(scenario, saved)
        assert not saved.exists()

    def test_dict_round_trip_preserves_every_field(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_override_entries_list_the_spec_fields_in_declaration_order(self):
        doc = scenario_to_dict(load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO))
        for entry in doc["spec_overrides"].values():
            assert list(entry) == ["cap_smartnic", "cap_cpu", "proc_latency_smartnic", "proc_latency_cpu"]

    def test_unmodified_builtin_specs_are_not_written_as_overrides(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        doc = scenario_to_dict(scenario)
        assert set(doc["spec_overrides"]) == {"C2"}


class TestLoadTrace:
    def test_golden_trace(self):
        points = load_trace(golden.RAMP_TRACE)
        assert [(p.t, p.theta_cur) for p in points] == [(0.0, 0.5), (1.0, 1.2)]

    def test_header_only_is_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,theta_cur_gbps\n\n")
        with pytest.raises(ScenarioFormatError, match="no data rows"):
            load_trace(path)

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,gbps\n0,1\n")
        with pytest.raises(ScenarioFormatError, match="header"):
            load_trace(path)

    def test_t_must_strictly_increase(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,theta_cur_gbps\n0.0,1.0\n0.0,2.0\n")
        with pytest.raises(ScenarioFormatError, match="strictly increasing"):
            load_trace(path)

    def test_negative_throughput_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,theta_cur_gbps\n0.0,-1.0\n")
        with pytest.raises(ScenarioFormatError, match=">= 0"):
            load_trace(path)

    def test_non_numeric_field_reports_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,theta_cur_gbps\n0.0,1.0\nx,2.0\n")
        with pytest.raises(ScenarioFormatError, match="line 3"):
            load_trace(path)

    def test_a_value_error_after_a_quoted_newline_reports_the_physical_line(self, tmp_path):
        # The quoted field spans lines 2 and 3 (float accepts "0.0\n"), so x is on line 4.
        path = tmp_path / "t.csv"
        path.write_text('t,theta_cur_gbps\n"0.0\n",1.0\nx,2\n')
        with pytest.raises(ScenarioFormatError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: line 4: could not convert string to float: 'x'"

    @pytest.mark.parametrize("row", ["1.0,nan", "1.0,inf", "inf,1.0", "nan,1.0"])
    def test_non_finite_field_reports_the_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"t,theta_cur_gbps\n0.0,1.0\n{row}\n")
        with pytest.raises(ScenarioFormatError, match="line 3: values must be finite"):
            load_trace(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"t,theta_cur_gbps\n0.0,1.0\n1.0,\xff2.0\n")
        with pytest.raises(ScenarioFormatError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: invalid UTF-8 at byte 29: invalid start byte"

    @pytest.mark.parametrize(
        "rows, line",
        [("0.0,1.0\n1.0", 3), ("0.0,1.0\n1.0,2.0,3.0", 3), ('"0.0\n",1.0\n1.0', 4)],
        ids=["short", "long", "short-after-a-quoted-newline"],
    )
    def test_row_of_the_wrong_width_reports_the_line(self, tmp_path, rows, line):
        path = tmp_path / "t.csv"
        path.write_text(f"t,theta_cur_gbps\n{rows}\n")
        with pytest.raises(ScenarioFormatError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: line {line}: expected 2 fields"

    def test_field_over_the_csv_limit_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,theta_cur_gbps\n0.0,1.0\n1.0," + "1" * 200_000 + "\n")
        with pytest.raises(ScenarioFormatError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: line 3: field larger than field limit (131072)"


# (reader, file contents): the bad inputs of the tests above, for both
# readers. Every format error must start with the file's path, once.
BAD_FILES = [
    *(
        pytest.param(load_scenario, json.dumps(case.values[0](fig1_doc())).encode(), id=f"scenario-{case.id}")
        for case in STRICT_READER_CASES
    ),
    *(
        pytest.param(load_scenario, _long_chain_text(1, case.values[0]).encode(), id=f"chain-{case.id}")
        for case in BAD_CHAIN_ENTRIES
    ),
    pytest.param(load_scenario, b'{\n  "chain": [,]\n}\n', id="scenario-invalid-json"),
    pytest.param(load_scenario, b"\xff", id="scenario-not-utf8"),
    pytest.param(
        load_scenario, b'{"chain": ' + b"[" * 100_000 + b"]" * 100_000 + b', "theta_cur": 1.0}',
        id="scenario-nested-too-deep",
    ),
    pytest.param(load_scenario, b'{"chain": [], "theta_cur": ' + b"9" * 5000 + b"}", id="scenario-too-many-digits"),
    pytest.param(
        load_scenario, golden.FIG1_SCENARIO.read_bytes().replace(b'"theta_cur": 1.2', b'"theta_cur": NaN'),
        id="scenario-nan",
    ),
    pytest.param(
        load_scenario, golden.FIG1_SCENARIO.read_bytes().replace(b'"theta_cur": 1.2', b'"theta_cur": 1.2, "theta_cur": 1.2'),
        id="scenario-duplicate-key",
    ),
    pytest.param(load_trace, b"t,theta_cur_gbps\n\n", id="trace-no-rows"),
    pytest.param(load_trace, b"time,gbps\n0,1\n", id="trace-header"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\n0.0,2.0\n", id="trace-not-increasing"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,-1.0\n", id="trace-negative"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\nx,2.0\n", id="trace-not-a-number"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\n1.0,nan\n", id="trace-not-finite"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\n1.0\n", id="trace-short-row"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\n1.0,2.0,3.0\n", id="trace-long-row"),
    pytest.param(load_trace, b't,theta_cur_gbps\n"0.0\n",1.0\nx,2\n', id="trace-not-a-number-after-a-quoted-newline"),
    pytest.param(load_trace, b't,theta_cur_gbps\n"0.0\n",1.0\n1.0\n', id="trace-short-row-after-a-quoted-newline"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\n1.0,\xff2.0\n", id="trace-not-utf8"),
    pytest.param(load_trace, b"t,theta_cur_gbps\n0.0,1.0\n1.0," + b"1" * 200_000 + b"\n", id="trace-field-over-limit"),
]


@pytest.mark.parametrize("load, data", BAD_FILES)
def test_format_error_starts_with_the_path_once(tmp_path, load, data):
    path = tmp_path / "bad.input"
    path.write_bytes(data)
    with pytest.raises(ScenarioFormatError) as err:
        load(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1


# -- The bulk loader against the strict walks --------------------------------
#
# The loader accepts a plain `json.loads` that validates and whose kept keys
# number the text's ':', and parses every other text again through
# `_strict_object`; chain columns and `validate` check column-wide and run
# their per-entry walks only when a column check fails. The reference below
# is the hook-first loader: every object through `_strict_object`, every
# chain entry through `_chain_entry`, every vNF through the validation loop.
# The two must agree on every input: the same Scenario, or the same error
# type and message.


def _reference_validate(scenario: Scenario) -> ValidationReport:
    """`validate` with the chain walked vNF by vNF, in chain order."""
    violations: list[Violation] = []
    chain = scenario.chain
    if not chain.ids:
        violations.append(Violation("empty_chain", "chain", "chain has no vNF instances"))
    seen: set[str] = set()
    for vnf_id, spec in zip(chain.ids, chain.spec_names):
        if vnf_id in seen:
            violations.append(
                Violation("duplicate_vnf_id", f"chain[{vnf_id}]", f"vNF id {vnf_id!r} appears more than once")
            )
        seen.add(vnf_id)
        if spec not in scenario.specs:
            violations.append(
                Violation(
                    "unresolved_spec_reference", f"chain[{vnf_id}].spec",
                    f"vNF {vnf_id!r} references unknown spec {spec!r}",
                )
            )
    for name, spec in scenario.specs.items():
        for field, holds, code, rule in model._SPEC_RULES:
            value = getattr(spec, field)
            if not holds(value, 0):
                violations.append(Violation(code, f"specs[{name}].{field}", f"{rule}, got {value}"))
    if not scenario.theta_cur >= 0:
        violations.append(
            Violation("negative_load", "theta_cur", f"throughput must be >= 0, got {scenario.theta_cur}")
        )
    pcie = scenario.pcie_latency_us
    if pcie < 0:
        violations.append(Violation("negative_pcie_latency", "pcie_latency_us",
                                    f"crossing latency must be >= 0, got {pcie}"))
    elif not math.isfinite(pcie):
        violations.append(Violation("non_finite_pcie_latency", "pcie_latency_us",
                                    f"crossing latency must be finite, got {pcie}"))
    return ValidationReport(tuple(violations))


def _reference_from_dict(data: object) -> Scenario:
    """`scenario_from_dict` with every chain entry through `_chain_entry`."""
    data = sio._object(data, "scenario", sio.TOP_LEVEL_KEYS, required=("chain", "theta_cur"))
    chain_data = data["chain"]
    if not isinstance(chain_data, list):
        raise ScenarioFormatError("chain must be a list")
    rows = [sio._chain_entry(entry, f"chain[{pos}]") for pos, entry in enumerate(chain_data)]
    anchors = sio._object(data.get("anchors", {}), "anchors", sio.ANCHOR_KEYS)
    ingress, egress = (
        sio._placement(anchors[end], f"anchors.{end}") if end in anchors else S for end in sio.ANCHOR_KEYS
    )
    specs = builtin_table1()
    for name, entry in sio._object(data.get("spec_overrides", {}), "spec_overrides", None).items():
        where = f"spec_overrides[{name}]"
        base = specs.get(name)
        entry = sio._object(entry, where, sio.OVERRIDE_KEYS, required=sio.NEW_SPEC_KEYS if base is None else ())
        numbers = {key: sio._number(value, f"{where}.{key}") for key, value in entry.items()}
        specs[name] = VnfSpec(name=name, **numbers) if base is None else base._replace(**numbers)
    theta_cur = sio._number(data["theta_cur"], "theta_cur")
    pcie = sio._number(data.get("pcie_latency_us", DEFAULT_PCIE_LATENCY_US), "pcie_latency_us")
    columns = tuple(map(tuple, zip(*rows))) if rows else ((), (), ())
    scenario = Scenario(ServiceChain(*columns, ingress, egress), specs, theta_cur, pcie)
    report = _reference_validate(scenario)
    if not report.ok:
        raise ScenarioValidationError(report)
    return scenario


def _reference_from_json(text: str) -> Scenario:
    """The hook-first loader: every object of `text` through `_strict_object`."""
    try:
        data = json.loads(text, object_pairs_hook=sio._strict_object)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    return _reference_from_dict(data)


def _hook_first_load(path: Path) -> Scenario:
    """`load_scenario` by the hook-first loader, whose `json.loads` runs as
    many frames deep as `load_scenario`'s strict parse."""
    return sio._parse_file(path, lambda text: _reference_from_json(text))


def _outcome(build: Callable[[], Scenario]) -> tuple:
    """What `build` gives: the Scenario with its column types, or the error."""
    try:
        scenario = build()
    except (ScenarioFormatError, ScenarioValidationError) as exc:
        return type(exc), str(exc)
    chain = scenario.chain
    return scenario, tuple(map(type, chain.ids)), tuple(map(type, chain.spec_names))


class _Obj(list):
    """A JSON object as a list of [key as JSON text, value] pairs, so that a
    mutation can repeat a key or write it with escapes."""


def _tree(text: str) -> object:
    return json.loads(text, object_pairs_hook=lambda pairs: _Obj([json.dumps(k), v] for k, v in pairs))


def _text(node: object) -> str:
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{key}: {_text(value)}" for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_text, node)) + "]"
    return json.dumps(node)


def _objects(node: object) -> list[_Obj]:
    """Every object in the tree, outermost first."""
    if isinstance(node, _Obj):
        return [node, *(found for _, value in node for found in _objects(value))]
    if isinstance(node, list):
        return [found for child in node for found in _objects(child)]
    return []


def _member(obj: _Obj, key: str) -> object:
    """The value a parse keeps for `key`: that of its last pair."""
    return [value for k, value in obj if k == json.dumps(key)][-1]


def _escaped(key: str, rng: random.Random) -> str:
    """`key` as JSON text with one character written as a \\u escape."""
    if not key:
        return '""'
    pos = rng.randrange(len(key))
    return json.dumps(key[:pos])[:-1] + f"\\u{ord(key[pos]):04x}" + json.dumps(key[pos + 1:])[1:]


def _repeat_pair(tree, rng, escape: bool) -> None:
    obj = rng.choice(_objects(tree))
    if not obj:
        obj.append(['"id"', "x"])
    key, value = rng.choice(obj)
    if escape:
        key = _escaped(json.loads(key), rng)
    value = rng.choice([value, "SmartNIC", 2.5, _Obj()])
    obj.insert(rng.randrange(len(obj) + 1), [key, value])


def _rename(tree, rng, mark: str) -> None:
    """Put `mark` inside an id, or inside a spec name everywhere it is used."""
    chain = _member(tree, "chain")
    entry = rng.choice(chain)
    field = rng.choice(["id", "spec", "override"])
    if field == "id":
        entry[0][1] = entry[0][1][:1] + mark + entry[0][1][1:]
        return
    old = entry[1][1]
    new = old[:2] + mark + old[2:]
    for other in chain:
        if other[1][1] == old:
            other[1][1] = new
    if field == "override":  # also rename (or add) its override entry
        overrides = _member(tree, "spec_overrides")
        for pair in overrides:
            if pair[0] == json.dumps(old):
                pair[0] = json.dumps(new)
                break
        else:
            overrides.append([json.dumps(new), _Obj([['"cap_smartnic"', 3.0], ['"cap_cpu"', 5.0]])])


def _object_for_scalar(tree, rng) -> None:
    slots = [(obj, i) for obj in _objects(tree) for i, (_, value) in enumerate(obj) if not isinstance(value, list)]
    obj, i = rng.choice(slots)
    obj[i][1] = rng.choice([_Obj([['"a"', 1]]), _Obj([['"id"', "x"], ['"id"', "y"]]), _Obj(), [_Obj()]])


def _bad_entry(tree, rng) -> None:
    chain = _member(tree, "chain")
    if type(chain) is not list:  # a repeated "chain" pair replaced it
        return
    pos = rng.randrange(len(chain))
    entry = chain[pos]
    chain[pos] = rng.choice([
        [value for _, value in entry],
        entry[0][1],
        _Obj(rng.sample(entry, 2)),
        _Obj([*entry, ['"weight"', 2]]),
        _Obj([*entry[:2], ['"placement"', "GPU"]]),
        [_Obj()],
    ])


def _repeat_id(tree, rng) -> None:
    chain = _member(tree, "chain")
    rng.choice(chain)[0][1] = rng.choice(chain)[0][1]


def _unresolve_spec(tree, rng) -> None:
    rng.choice(_member(tree, "chain"))[1][1] = rng.choice(["Router", "logger", "C2 "])


# Mutations that keep the document's shape come first: "mixed" applies three
# in this order, so each finds the chain entries it expects.
MUTATIONS = {
    "colon-in-name": lambda tree, rng: _rename(tree, rng, ":"),
    "brace-in-name": lambda tree, rng: _rename(tree, rng, rng.choice(["{", "{}", ": {"])),
    "repeated-id": _repeat_id,
    "unresolved-spec": _unresolve_spec,
    "repeated-pair": lambda tree, rng: _repeat_pair(tree, rng, escape=False),
    "repeated-escaped-key": lambda tree, rng: _repeat_pair(tree, rng, escape=True),
    "object-for-scalar": _object_for_scalar,
    "bad-entry": _bad_entry,
}
SHIPPED_SCENARIOS = sorted(golden.SCENARIO_DIR.glob("*.scenario.json"))
MUTANTS_PER_CASE = 40


class TestBulkLoaderMatchesTheStrictWalks:
    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
    @pytest.mark.parametrize("kind", [*MUTATIONS, "mixed"])
    def test_seeded_mutants_load_alike(self, tmp_path, path, kind):
        rng = random.Random(f"{path.stem}/{kind}")
        outcomes = set()
        for _ in range(MUTANTS_PER_CASE):
            tree = _tree(path.read_text())
            kinds = [kind] if kind != "mixed" else sorted(rng.sample(list(MUTATIONS), 3), key=list(MUTATIONS).index)
            for name in kinds:
                MUTATIONS[name](tree, rng)
            mutant = tmp_path / "mutant.scenario.json"
            mutant.write_text(_text(tree))
            got = _outcome(lambda: load_scenario(mutant))
            assert got == _outcome(lambda: sio._parse_file(mutant, _reference_from_json)), mutant.read_text()
            outcomes.add(got[1] if isinstance(got[0], type) else "loaded")
        assert len(outcomes) > 1  # the mutants reach more than one outcome

    @pytest.mark.parametrize("seed", range(20))
    def test_str_subclass_columns_build_alike(self, seed):
        class Name(str):
            pass

        rng = random.Random(seed)
        doc = fig1_doc()
        for entry in rng.sample(doc["chain"], rng.randint(1, 3)):
            for key in rng.sample(list(entry), rng.randint(1, 3)):
                entry[key] = Name(entry[key])
        if rng.random() < 0.5:
            rng.choice(doc["chain"])["id"] = Name(rng.choice(doc["chain"])["id"])
        if rng.random() < 0.5:
            rng.choice(doc["chain"])["spec"] = Name("Router")
        assert _outcome(lambda: scenario_from_dict(doc)) == _outcome(lambda: _reference_from_dict(doc))

    def test_violations_keep_the_chain_order(self):
        doc = fig1_doc()
        doc["chain"][1]["spec"] = "Router"
        doc["chain"][3]["id"] = "LB"
        doc["chain"][4]["id"] = "Logger"
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        assert [v.code for v in err.value.report.violations] == [
            "unresolved_spec_reference", "duplicate_vnf_id", "duplicate_vnf_id",
        ]
        assert str(err.value) == (
            "scenario failed validation: unresolved_spec_reference at chain[Logger].spec; "
            "duplicate_vnf_id at chain[LB]; duplicate_vnf_id at chain[Logger]"
        )


@pytest.fixture
def strict_calls(monkeypatch) -> list:
    """The objects `_strict_object` builds, one entry per call."""
    calls: list = []
    strict_object = sio._strict_object
    monkeypatch.setattr(sio, "_strict_object", lambda pairs: calls.append(pairs) or strict_object(pairs))
    return calls


class TestStrictParseRunsOnlyToNameAnError:
    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios_load_without_it(self, path, strict_calls):
        load_scenario(path)
        assert strict_calls == []

    def test_a_colon_in_an_id_loads_through_one_strict_parse(self, tmp_path, strict_calls):
        text = golden.FIG1_SCENARIO.read_text()
        path = tmp_path / "colon.scenario.json"
        path.write_text(text.replace('"id": "Monitor"', '"id": "Mon:itor"'))
        expected = load_scenario(golden.FIG1_SCENARIO)
        ids = tuple(vnf_id.replace("Monitor", "Mon:itor") for vnf_id in expected.chain.ids)
        assert strict_calls == []
        assert load_scenario(path) == expected._replace(chain=expected.chain._replace(ids=ids))
        assert len(strict_calls) == text.count("{")  # each object once

    def test_an_escaped_repeat_of_a_key_is_named(self, tmp_path, strict_calls):
        path = tmp_path / "escaped.scenario.json"
        text = golden.FIG1_SCENARIO.read_text()
        path.write_text(text.replace('{"id": "LB",', '{"id": "LB", "\\u0069d": "LB",'))
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: duplicate key 'id' in chain[0]"
        assert strict_calls

    def test_a_brace_in_an_id_loads_without_it(self, tmp_path, strict_calls):
        text = golden.FIG1_SCENARIO.read_text()
        path = tmp_path / "brace.scenario.json"
        path.write_text(text.replace('"id": "Monitor"', '"id": "Mon{itor"'))
        expected = load_scenario(golden.FIG1_SCENARIO)
        ids = tuple(vnf_id.replace("Monitor", "Mon{itor") for vnf_id in expected.chain.ids)
        assert load_scenario(path) == expected._replace(chain=expected.chain._replace(ids=ids))
        assert strict_calls == []

    def test_a_rejected_scenario_goes_through_it_once(self, tmp_path, strict_calls):
        # Every key is counted, so only the rejection sends it there.
        path = tmp_path / "empty.scenario.json"
        path.write_text('{"chain": [], "theta_cur": 1.0}')
        expected = _outcome(lambda: _hook_first_load(path))
        assert expected == (ScenarioValidationError, "scenario failed validation: empty_chain at chain")
        strict_calls.clear()
        assert _outcome(lambda: load_scenario(path)) == expected
        assert len(strict_calls) == 1

    def test_an_empty_object_where_none_is_counted_goes_through_it(self, tmp_path, strict_calls):
        # A chain entry that is not an object is rejected, so the text goes
        # through the strict parse, whose hook call can meet the recursion
        # limit where the plain parse does not.
        path = tmp_path / "nested.scenario.json"
        path.write_text('{"chain": [[{}]], "theta_cur": 1.0}')
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value) == f"{path}: chain[0] must be an object"
        assert len(strict_calls) == 2


def _nested(depth: int, inner: str) -> str:
    return '{"chain": ' + "[" * depth + inner + "]" * depth + ', "theta_cur": 1.0}'


def _first_depth(overflows: Callable[[int], bool]) -> int:
    """The least nesting depth at which `overflows` holds, by bisection."""
    low, high = 0, sys.getrecursionlimit()
    while not overflows(high):
        low, high = high, high * 2
        assert high <= 1 << 20, "no recursion limit met"
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if overflows(mid) else (mid, high)
    return high


@pytest.mark.parametrize("inner", ["{}", ""], ids=["object-inside", "lists-only"])
def test_nesting_around_the_recursion_limit_loads_as_the_hook_first_loader(tmp_path, inner):
    # The plain parse calls no hook, so it meets the recursion limit a few
    # levels deeper than the strict parse. Around and between both points
    # (found on the running Python, from this frame's depth give or take a
    # frame) the loader must give what the hook-first loader gives.
    path = tmp_path / "nested.scenario.json"

    def plain_overflows(depth: int) -> bool:
        path.write_text(_nested(depth, inner))
        try:
            sio._parse_file(path, lambda text: json.loads(text))
        except RecursionError:
            return True
        return False

    def strict_overflows(depth: int) -> bool:
        path.write_text(_nested(depth, inner))
        return "maximum recursion depth" in _outcome(lambda: _hook_first_load(path))[1]

    points = _first_depth(strict_overflows), _first_depth(plain_overflows)
    messages = set()
    for depth in range(min(points) - 4, max(points) + 5):
        path.write_text(_nested(depth, inner))
        got = _outcome(lambda: load_scenario(path))
        assert got == _outcome(lambda: _hook_first_load(path)), depth
        messages.add(got[1].split(": ", 2)[-1].split(" while ")[0])
    assert messages == {"chain[0] must be an object", "maximum recursion depth exceeded"}, points


# -- The bulk trace loader against the per-row loop --------------------------
#
# `_trace_points` accepts a trace in bulk when every check of the per-row
# loop `_strict_trace_points` would pass, and sends every other text to that
# loop. The two must agree on every input: the same points, or the same
# error message, and the loop runs only on text that is rejected.


def _generated_trace(rng: random.Random) -> str:
    """A seasonal trace written as the benchmark's generator writes one."""
    thetas = [abs(1.5 + math.sin(i / 5.0) + rng.uniform(-0.3, 0.3)) for i in range(rng.randint(1, 40))]
    return "t,theta_cur_gbps\n" + "".join(f"{float(t)!r},{x!r}\n" for t, x in enumerate(thetas))


def _data_rows(rows: list[list[str]]) -> list[list[str]]:
    """The rows after the header that hold both fields."""
    return [row for row in rows[1:] if len(row) >= 2]


def _set_field(rows, rng, value) -> None:
    data = _data_rows(rows)
    if data:
        rng.choice(data)[rng.randrange(2)] = value


def _quote(rows, rng) -> None:
    row = rng.choice(rows)
    if row:
        j = rng.randrange(len(row))
        row[j] = f'"{row[j]}"'


def _quoted_newline(rows, rng) -> None:
    data = _data_rows(rows)
    if data:
        row, j = rng.choice(data), rng.randrange(2)
        row[j] = rng.choice(['"{}\n"', '"\n{}"', '"{}\r\n"', '"{}\n1"']).format(row[j])


def _space(rows, rng) -> None:
    row = rng.choice(rows)
    if row:
        j = rng.randrange(len(row))
        row[j] = rng.choice([" {}", "{} ", "\t{}"]).format(row[j])


def _equal_t(rows, rng) -> None:
    data = _data_rows(rows)
    if len(data) > 1:
        i = rng.randrange(1, len(data))
        data[i][0] = data[i - 1][0]


def _decreasing_t(rows, rng) -> None:
    data = _data_rows(rows)
    if len(data) > 1:
        i = rng.randrange(1, len(data))
        data[i][0], data[i - 1][0] = data[i - 1][0], data[i][0]


def _negative_theta(rows, rng) -> None:
    data = _data_rows(rows)
    if data:
        row = rng.choice(data)
        row[1] = rng.choice(["-{}", "-1e-300", "-0.0"]).format(row[1])


def _width(rows, rng) -> None:
    row = rng.choice(rows[1:] or rows)
    if rng.random() < 0.5:
        row.append(rng.choice(["", "1.0"]))
    else:
        del row[-1:]


TRACE_MUTATIONS = {
    "blank-start": lambda rows, rng: rows.insert(0, []),
    "blank-middle": lambda rows, rng: rows.insert(rng.randint(1, len(rows)), []),
    "blank-end": lambda rows, rng: rows.extend([[]] * rng.randint(1, 3)),
    "quoted": _quote,
    "quoted-newline": _quoted_newline,
    "spaces": _space,
    "value": lambda rows, rng: _set_field(
        rows, rng, rng.choice(["nan", "inf", "-inf", "1e400", "1_0", "-0.0", "NaN", "0x1", "", "1e-400"])
    ),
    "equal-t": _equal_t,
    "decreasing-t": _decreasing_t,
    "negative-theta": _negative_theta,
    "width": _width,
    "header": lambda rows, rng: rows.__setitem__(
        0,
        rng.choice(
            [["t", "theta"], ["T", "theta_cur_gbps"], ["t", "theta_cur_gbps", ""], ["theta_cur_gbps", "t"], ["t"], []]
        ),
    ),
}
TRACE_NEWLINES = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
TRACE_SOURCES = {"ramp": golden.RAMP_TRACE, "seasonal": golden.SEASONAL_TRACE, "generated": None}


def _trace_text(source: str, rng: random.Random) -> str:
    path = TRACE_SOURCES[source]
    return path.read_text() if path is not None else _generated_trace(rng)


def _trace_outcome(load: Callable[[], tuple]) -> tuple:
    """What `load` gives: `tuple` and each point's type and value reprs (so
    -0.0 and 0.0 differ), or the error's type and message."""
    try:
        points = load()
    except ScenarioFormatError as exc:
        return type(exc), str(exc)
    return tuple, [(type(p), repr(p.t), repr(p.theta_cur)) for p in points]


@pytest.fixture
def loop_calls(monkeypatch) -> list:
    """The texts `_trace_points` hands to the per-row loop."""
    calls: list = []
    loop = sio._strict_trace_points
    monkeypatch.setattr(sio, "_strict_trace_points", lambda text: calls.append(text) or loop(text))
    return calls


class TestBulkTraceLoaderMatchesTheLoop:
    @pytest.mark.parametrize("newline", TRACE_NEWLINES)
    @pytest.mark.parametrize("kind", [*TRACE_MUTATIONS, "none", "mixed"])
    @pytest.mark.parametrize("source", TRACE_SOURCES)
    def test_mutated_traces_load_alike(self, tmp_path, loop_calls, source, kind, newline):
        # Raw text keeps every '\r' for csv to see; a file is read with
        # universal newlines, which turns each line ending into '\n'.
        rng = random.Random(f"{source}/{kind}/{newline}")
        path = tmp_path / "mutant.trace.csv"
        for _ in range(12):
            rows = [line.split(",") if line else [] for line in _trace_text(source, rng).splitlines()]
            kinds = [] if kind == "none" else [kind] if kind != "mixed" else rng.sample(list(TRACE_MUTATIONS), 3)
            for name in kinds:
                TRACE_MUTATIONS[name](rows, rng)
            text = "".join(",".join(row) + TRACE_NEWLINES[newline] for row in rows)
            path.write_bytes(text.encode())
            for read, load, strict_load in (
                (text, lambda: sio._trace_points(text), lambda: sio._strict_trace_points(text)),
                (
                    path.read_text(encoding="utf-8"),
                    lambda: load_trace(path),
                    lambda: sio._parse_file(path, sio._strict_trace_points),
                ),
            ):
                loop_calls.clear()
                got = _trace_outcome(load)
                assert loop_calls == ([] if got[0] is tuple else [read]), text
                assert got == _trace_outcome(strict_load), text

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("\nt,theta_cur_gbps\n0,1.0\n", "trace header must be 't,theta_cur_gbps'"),
            ("t,theta_cur_gbps\n\n\n", "trace has no data rows"),
            ("", "trace header must be 't,theta_cur_gbps'"),
            ("t,theta_cur_gbps\n0,1.0\n1,1e400\n", "line 3: values must be finite"),
            ("t,theta_cur_gbps\n0,1.0\n\n0,2.0\n", "line 4: t must be strictly increasing"),
            ("t,theta_cur_gbps\n0,-1e-300\n", "line 2: theta_cur_gbps must be >= 0"),
            ('t,theta_cur_gbps\n"0\n1",1.0\n', "line 3: could not convert string to float: '0\\n1'"),
        ],
        ids=[
            "blank-before-the-header", "blank-rows-only", "empty", "overflow", "equal-t-after-a-blank",
            "negative", "quoted-newline-inside-a-number",
        ],
    )
    def test_rejections_come_from_the_loop(self, loop_calls, text, expected):
        with pytest.raises(ScenarioFormatError) as err:
            sio._trace_points(text)
        assert str(err.value) == expected
        assert loop_calls == [text]

    @pytest.mark.parametrize(
        "text, points",
        [
            ('"t","theta_cur_gbps"\r\n\r\n" 0\n", 1_0 \r\n\r\n', [(0.0, 10.0)]),
            ("t,theta_cur_gbps\n0,-0.0\n4e-324,1.5\n", [(0.0, -0.0), (5e-324, 1.5)]),
        ],
        ids=["quoted-spaced-crlf", "signed-zero-subnormal"],
    )
    def test_odd_but_valid_text_loads_in_bulk(self, loop_calls, text, points):
        loaded = sio._trace_points(text)
        assert [(repr(p.t), repr(p.theta_cur)) for p in loaded] == [(repr(t), repr(x)) for t, x in points]
        assert all(type(p) is TracePoint for p in loaded)
        assert loop_calls == []
