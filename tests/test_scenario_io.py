from __future__ import annotations

import json

import pytest

import golden
from chainplan import (
    Placement,
    ScenarioFormatError,
    ScenarioValidationError,
    load_scenario,
    load_trace,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
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
        assert scenario.load.theta_cur == 1.2
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
        assert '"theta_cur": 1.2' in text
        path.write_text(text.replace('"theta_cur": 1.2', f'"theta_cur": {constant}'))
        with pytest.raises(ScenarioFormatError, match=f"theta_cur must be a finite number, got {constant}"):
            load_scenario(path)

    def test_duplicate_key_is_named(self, tmp_path):
        path = tmp_path / "dup.scenario.json"
        text = golden.FIG1_SCENARIO.read_text()
        path.write_text(text.replace('"theta_cur": 1.2', '"theta_cur": 1.2, "theta_cur": 0.5'))
        with pytest.raises(ScenarioFormatError, match="duplicate key 'theta_cur'"):
            load_scenario(path)


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

    def test_dict_round_trip_preserves_every_field(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

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
