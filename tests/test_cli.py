from __future__ import annotations

import hashlib
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


# SHA-256 of the timeline CSV and SVG that `chainplan simulate` writes for each
# shipped scenario and policy on traces/seasonal.trace.csv (50 points that
# rise and fall across every scenario's SmartNIC capacity). Recorded with the
# replay loop that recomputed every column at every point.
SEASONAL_REPLAY_SHA256 = {
    ("fig1", "pam"): (
        "87c4fc5a94be4ff73c28779b732d1df2016c341fd78b4f27e1c74cb5519ed76d",
        "8cde0b6e400004a1bad0478a49a379f98a3f0d14fb8e36cb9e2001d6379d363c",
    ),
    ("fig1", "naive"): (
        "3c50c501f07daeeb9b102272822c49c8cb0e15a5c51a7f0841884b29a5a358f3",
        "b147470cc8dd75d7b23b19d08d031787283dea9d123eab025023bf76e1068f95",
    ),
    ("fig1", "none"): (
        "0c9f97179b8e843e4f44548d9c093ac5f7fd6824a471d8c579660dad69feccdd",
        "b3792023f765586859d8af793ae9b48369c67dcb2a7a931272826f96acaec562",
    ),
    ("monitor_bottleneck", "pam"): (
        "a8f37cbd0107eb63b744cb35e3931ef5dcf2a4fbf791160f00e0fd72d4851831",
        "aa774ee38fa932cdcf7f8607782a133bbf7e38b5a57677d0dd02adb9137b6562",
    ),
    ("monitor_bottleneck", "naive"): (
        "385eab7a6f273b933f2ec53374e75ada7f46d2b69746f48e28cb3b38eb989e4d",
        "d77fe1c691173dbbf3002874a9ddec80cec07836bfa407905c85dcb556f6b289",
    ),
    ("monitor_bottleneck", "none"): (
        "350f81bf3ddc615810db892645fe36c7667c4f460ece0f2c98054e5f57c6c30a",
        "3c6bdd6c8601a04deb0e42c188925e24ad9d577a935cc273e4a8466d23f0df45",
    ),
    ("two_step", "pam"): (
        "f246d3b5953cc41987d0b271607b7235ac5483005af44c006fda2408a204b95b",
        "14a0c099d6cbac50252a5b17e49f25e03baae1373ad286eb5a08ecf37256464c",
    ),
    ("two_step", "naive"): (
        "4b5bc03469090fd98bd9a2d4863ed7f9ece06f599c66086e351d99b34a463a3a",
        "2b7e8fff931c8dd46dae3851ec25a22a8e19b895e28521b386869591379300a2",
    ),
    ("two_step", "none"): (
        "8669f22d63281ab08e62600442f7bf9f4a46641bdd647a448f59810c361132f0",
        "3050b7ff6c5b7395198255989d898809e4b241049d9132b692dd4db6667539ea",
    ),
}


class TestSeasonalReplayBytes:
    @pytest.mark.parametrize("scenario, policy", sorted(SEASONAL_REPLAY_SHA256))
    def test_timeline_files_are_byte_identical(self, capsys, tmp_path, scenario, policy):
        out_csv, out_svg = tmp_path / "timeline.csv", tmp_path / "timeline.svg"
        code, out, _ = run(
            capsys,
            "simulate", "--scenario", str(golden.SCENARIO_DIR / f"{scenario}.scenario.json"),
            "--trace", str(golden.SEASONAL_TRACE), "--policy", policy,
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        assert "wrote 50 records" in out
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out_csv, out_svg))
        assert digests == SEASONAL_REPLAY_SHA256[scenario, policy]


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
