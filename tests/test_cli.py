from __future__ import annotations

import json

import pytest

import golden
from chainplan import cli, parse_timeline_csv


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--scenario", str(golden.FIG1_SCENARIO), "--policy", "pam"
        )
        assert code == 0
        assert "outcome: Resolved" in out
        assert "Logger: SmartNIC -> CPU" in out
        assert "crossings: 4 -> 4" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "--scenario", str(golden.FIG1_SCENARIO), "--policy", "pam", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "Resolved"
        assert [s["vnf_id"] for s in payload["steps"]] == ["Logger"]
        assert payload["steps"][0]["from"] == "SmartNIC"
        assert payload["steps"][0]["to"] == "CPU"
        assert payload["crossings_after"] == 4

    def test_naive_policy(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO),
            "--policy", "naive", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [s["vnf_id"] for s in payload["steps"]] == ["Monitor"]
        assert payload["crossings_after"] == 6

    def test_byte_identical_runs(self, capsys):
        argv = ("plan", "--scenario", str(golden.FIG1_SCENARIO), "--policy", "pam", "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestSimulateCommand:
    def test_writes_timeline_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "timeline.csv"
        code, out, _ = run(
            capsys,
            "simulate", "--scenario", str(golden.FIG1_SCENARIO),
            "--trace", str(golden.RAMP_TRACE), "--policy", "pam",
            "--out", str(out_csv),
        )
        assert code == 0
        assert "wrote 2 records" in out
        records = parse_timeline_csv(out_csv.read_text())
        assert records[1].migrations_this_step == ("Logger",)

    def test_optional_svg(self, capsys, tmp_path):
        out_csv = tmp_path / "timeline.csv"
        out_svg = tmp_path / "timeline.svg"
        code, _, _ = run(
            capsys,
            "simulate", "--scenario", str(golden.FIG1_SCENARIO),
            "--trace", str(golden.RAMP_TRACE), "--policy", "none",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        assert out_svg.read_text().startswith("<svg ")

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "simulate", "--scenario", str(golden.TWO_STEP_SCENARIO),
                "--trace", str(golden.RAMP_TRACE), "--policy", "naive",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_without_data_rows_is_exit_one(self, capsys, tmp_path):
        trace = tmp_path / "empty.trace.csv"
        trace.write_text("t,theta_cur_gbps\n")
        out_csv = tmp_path / "timeline.csv"
        code, _, err = run(
            capsys,
            "simulate", "--scenario", str(golden.FIG1_SCENARIO),
            "--trace", str(trace), "--policy", "pam", "--out", str(out_csv),
        )
        assert code == 1
        assert f"{trace}: trace has no data rows" in err
        assert not out_csv.exists()


class TestCompareCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO)
        )
        assert code == 0
        assert "crossings: 4 -> 4" in out
        assert "crossings: 4 -> 6" in out
        assert "18.0% lower" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "compare", "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pam"]["crossings_after"] == 4
        assert payload["naive"]["crossings_after"] == 6
        assert payload["pam"]["verification"] == "pass"
        assert payload["latency_reduction_pct"] == pytest.approx(18.0, abs=0.5)

    def test_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "cmp.svg"
        code, _, _ = run(
            capsys,
            "compare", "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO),
            "--svg", str(svg),
        )
        assert code == 0
        assert svg.exists()


class TestVerifyCommand:
    def test_passes_on_the_golden_scenario(self, capsys):
        code, out, _ = run(capsys, "verify", "--scenario", str(golden.FIG1_SCENARIO))
        assert code == 0
        assert "PASS reachability" in out
        assert out.strip().endswith("verified")

    def test_failure_exit_code(self, capsys, monkeypatch):
        from chainplan.oracle import AssertionResult, VerificationReport

        def fake_verify(*args, **kwargs):
            return VerificationReport(
                False,
                (AssertionResult("crossing_nonincrease", False, "crossings 6 > 4"),),
            )

        monkeypatch.setattr(cli, "verify_plan", fake_verify)
        code, out, _ = run(capsys, "verify", "--scenario", str(golden.FIG1_SCENARIO))
        assert code == 2
        assert "FAIL crossing_nonincrease" in out


class TestErrorHandling:
    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "plan", "--scenario", str(tmp_path / "nope.json"), "--policy", "pam"
        )
        assert code == 3
        assert "i/o error" in err

    def test_invalid_scenario_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.scenario.json"
        path.write_text('{"chain": [], "theta_cur": 1.0}')
        code, _, err = run(capsys, "plan", "--scenario", str(path), "--policy", "pam")
        assert code == 1
        assert "empty_chain" in err

    def test_parse_error_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.scenario.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "plan", "--scenario", str(path), "--policy", "pam")
        assert code == 1
        assert "error:" in err

    def test_unwritable_output_is_exit_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "simulate", "--scenario", str(golden.FIG1_SCENARIO),
            "--trace", str(golden.RAMP_TRACE), "--policy", "pam",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3
        assert "i/o error" in err


class TestPcieOverride:
    def test_override_changes_latency(self, capsys):
        _, base_out, _ = run(
            capsys,
            "compare", "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO), "--json",
        )
        _, scaled_out, _ = run(
            capsys,
            "compare", "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO),
            "--pcie-latency-us", "20", "--json",
        )
        base = json.loads(base_out)
        scaled = json.loads(scaled_out)
        assert base["naive"]["latency_after_us"] == 111.0
        assert scaled["naive"]["latency_after_us"] == 171.0
        assert scaled["pcie_latency_us"] == 20.0

    def test_negative_override_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "plan", "--scenario", str(golden.FIG1_SCENARIO), "--policy", "pam",
            "--pcie-latency-us", "-5",
        )
        assert code == 1
        assert "negative_pcie_latency" in err
        # NaN and +inf are not negative, but are no latency either, and JSON
        # output has no token for them.
        for value in ("nan", "inf", "-inf"):
            for command in (("plan", "--policy", "pam"), ("compare", "--json"), ("verify",)):
                code, out, err = run(
                    capsys, *command, "--scenario", str(golden.FIG1_SCENARIO),
                    f"--pcie-latency-us={value}",
                )
                assert (code, out) == (1, ""), (value, command)
                assert "at pcie_latency_us" in err


class TestOverflowingDemand:
    """Demand ratios whose sum is past the float range: every decision then
    takes the chain-order sum instead of the planner's running sums."""

    def test_every_command_prints_a_result(self, capsys, tmp_path):
        scenario = tmp_path / "tiny.scenario.json"
        scenario.write_text(json.dumps({
            "chain": [
                {"id": "a", "spec": "Tiny", "placement": "SmartNIC"},
                {"id": "b", "spec": "Tiny", "placement": "SmartNIC"},
            ],
            "spec_overrides": {"Tiny": {"cap_smartnic": 1e-308, "cap_cpu": 4.0}},
            "theta_cur": 1.0,
        }))
        trace = tmp_path / "tiny.trace.csv"
        trace.write_text("t,theta_cur_gbps\n0.0,1.0\n")
        out_csv = tmp_path / "timeline.csv"
        args = ("--scenario", str(scenario))

        # No border: pam cannot move anything. naive moves both vNFs and the
        # SmartNIC's chain-order sum is then 0.
        code, out, err = run(capsys, "plan", "--policy", "pam", *args)
        assert code == 0 and "Traceback" not in err
        assert "outcome: ScaleOutRequired" in out
        # pam's SmartNIC utilization is inf, which JSON cannot carry.
        code, out, err = run(capsys, "plan", "--policy", "pam", "--json", *args)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        code, out, err = run(capsys, "plan", "--policy", "naive", *args)
        assert code == 0 and "Traceback" not in err
        assert "outcome: Resolved" in out
        assert "steps:\n  1. a: SmartNIC -> CPU\n  2. b: SmartNIC -> CPU" in out

        code, out, err = run(capsys, "verify", *args)
        assert code == 0 and "Traceback" not in err
        assert out.strip().endswith("verified")
        code, out, err = run(capsys, "compare", "--json", *args)
        assert code == 0 and "Traceback" not in err
        payload = json.loads(out)
        assert (payload["pam"]["outcome"], payload["naive"]["outcome"]) == (
            "ScaleOutRequired", "Resolved",
        )
        code, out, err = run(
            capsys, "simulate", "--policy", "pam", "--trace", str(trace),
            "--out", str(out_csv), *args,
        )
        assert code == 0 and "Traceback" not in err
        assert "wrote 1 records" in out
