from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import golden
from chainplan import (
    Placement,
    ScenarioFormatError,
    ScenarioValidationError,
    VnfInstance,
    cli,
    load_scenario,
    load_trace,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)

S = Placement.SMARTNIC
C = Placement.CPU


def fig1_doc() -> dict:
    return json.loads(golden.FIG1_SCENARIO.read_text())


class TestLoadScenario:
    def test_golden_file_builds_the_golden_chain(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        assert [v.id for v in scenario.chain.vnfs] == ["LB", "Logger", "Monitor", "Firewall", "C2"]
        assert scenario.chain.placements() == (C, S, S, S, C)
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
        vnfs = load_scenario(path).chain.vnfs
        assert len(vnfs) == LONG_CHAIN
        assert vnfs[1] == VnfInstance("v1", "Logger", C)
        assert vnfs[-1] == VnfInstance("last", "Monitor", S)

    def test_str_subclass_values_are_accepted(self):
        class Name(str):
            pass

        doc = fig1_doc()
        doc["chain"][1] = {"id": Name("Logger"), "spec": Name("Logger"), "placement": Name("SmartNIC")}
        scenario = scenario_from_dict(doc)
        assert scenario == scenario_from_dict(fig1_doc())
        assert type(scenario.chain.vnfs[1].id) is Name


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
            scenario = replace(scenario, theta_cur=math.inf)
        else:
            specs = dict(scenario.specs)
            specs["Logger"] = replace(specs["Logger"], cap_smartnic=math.inf)
            scenario = replace(scenario, specs=specs)
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

    @pytest.mark.parametrize("row", ["1.0", "1.0,2.0,3.0"], ids=["short", "long"])
    def test_row_of_the_wrong_width_reports_the_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"t,theta_cur_gbps\n0.0,1.0\n{row}\n")
        with pytest.raises(ScenarioFormatError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: line 3: expected 2 fields"

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
