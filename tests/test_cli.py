from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import golden
import randgen
from chainplan import (
    Placement,
    Scenario,
    VnfSpec,
    cli,
    load_scenario,
    parse_timeline_csv,
    scenario_from_dict,
)
from chainplan.oracle import MAX_ORACLE_CHAIN, AssertionResult, VerificationReport
from chainplan.perf import count_crossings
from chainplan.resources import device_utilizations
from chainplan.simulate import ComparisonReport, compare


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

    @pytest.mark.parametrize("bad_id", ["a;b", ""])
    def test_a_migrated_id_the_timeline_cannot_carry_is_exit_one(self, capsys, tmp_path, bad_id):
        # fig1 migrates Logger at the ramp's second point; `validate` accepts both ids.
        doc = json.loads(golden.FIG1_SCENARIO.read_text())
        doc["chain"][1]["id"] = bad_id
        scenario = tmp_path / "renamed.scenario.json"
        scenario.write_text(json.dumps(doc))
        out_csv, out_svg = tmp_path / "timeline.csv", tmp_path / "timeline.svg"
        code, out, err = run(
            capsys,
            "simulate", "--scenario", str(scenario), "--trace", str(golden.RAMP_TRACE),
            "--policy", "pam", "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: vNF id {bad_id!r} ") and err.count("\n") == 1
        assert not out_csv.exists() and not out_svg.exists()


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


def _exit_of(call, argv: list[str]) -> tuple[object, str, str]:
    """(SystemExit code, stdout, stderr) of `call(argv)`, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as excinfo:
            call(argv)
    return excinfo.value.code, out.getvalue(), err.getvalue()


class TestSharedParser:
    """`main` parses with one parser per process; it must answer every argv
    as a newly built parser does, however many commands ran before."""

    ARGVS = {
        "no_subcommand": [],
        "missing_scenario": ["plan", "--policy", "pam"],
        "bad_policy": ["plan", "--scenario", str(golden.FIG1_SCENARIO), "--policy", "greedy"],
        "unknown_flag": ["compare", "--scenario", str(golden.FIG1_SCENARIO), "--fast"],
        "help": ["--help"],
        "plan_help": ["plan", "--help"],
    }

    @pytest.mark.parametrize("name", sorted(ARGVS))
    def test_exits_as_a_new_parser(self, capsys, tmp_path, name):
        argv = self.ARGVS[name]
        fresh = _exit_of(lambda a: cli.build_parser().parse_args(a), argv)
        assert fresh[0] == (0 if name.endswith("help") else 2)
        assert "usage: chainplan" in fresh[1] + fresh[2]
        assert _exit_of(cli.main, argv) == fresh
        scenario = str(golden.TWO_STEP_SCENARIO)
        for command in (
            ("plan", "--policy", "naive", "--json"),
            ("compare", "--svg", str(tmp_path / "c.svg")),
            ("verify",),
            ("simulate", "--trace", str(golden.RAMP_TRACE), "--policy", "pam",
             "--out", str(tmp_path / "t.csv")),
        ):
            assert cli.main([*command, "--scenario", scenario]) == 0
        capsys.readouterr()
        assert _exit_of(cli.main, argv) == fresh

    def test_build_parser_returns_a_new_parser(self):
        first = cli.build_parser()
        assert first is not cli._PARSER
        assert cli.build_parser() is not first


class TestSteadyStateMemory:
    """Repeated commands in one process hold no more memory: no cyclic
    garbage for the collector to find, no tuples parked per call."""

    ROUNDS = 700
    MAX_BLOCK_GROWTH = 2000

    def test_allocated_blocks_stay_flat(self, tmp_path):
        rejecting = tmp_path / "scenario.json"
        rejecting.write_text(_fig1_at(2.0))  # naive rejects three vNFs
        argvs = [
            ["compare", "--json", "--scenario", str(golden.FIG1_SCENARIO)],
            ["compare", "--scenario", str(rejecting)],
            ["plan", "--policy", "pam", "--json",
             "--scenario", str(golden.MONITOR_BOTTLENECK_SCENARIO)],
            ["plan", "--policy", "naive", "--scenario", str(rejecting)],
            ["verify", "--scenario", str(golden.TWO_STEP_SCENARIO)],
        ]

        def call(argv: list[str]) -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        for argv in argvs:
            for _ in range(50):
                call(argv)
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(self.ROUNDS):
                for argv in argvs:
                    call(argv)
            growth = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert growth < self.MAX_BLOCK_GROWTH

    def test_comparison_writer_keeps_no_blocks(self):
        """No tuple per call parked on the interpreter's free lists, which
        keep up to 2,000 of each length."""
        report = compare(golden.golden_scenario())
        for _ in range(50):
            cli._comparison_json(report)
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(1000):
                cli._comparison_json(report)
            growth = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert growth < 100

    def test_simulate_allocated_blocks_stay_flat(self, tmp_path):
        """Replays hold no memory past their call: no records, texts or
        per-device lists left behind."""
        argvs = [
            ["simulate", "--scenario", str(golden.FIG1_SCENARIO),
             "--trace", str(golden.SEASONAL_TRACE), "--policy", policy,
             "--out", str(tmp_path / "t.csv"), "--svg", str(tmp_path / "t.svg")]
            for policy in ("pam", "naive", "none")
        ]

        def call(argv: list[str]) -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        for argv in argvs:
            for _ in range(20):
                call(argv)
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for i in range(300):
                call(argvs[i % len(argvs)])
            growth = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert growth < self.MAX_BLOCK_GROWTH

    def test_scale_out_verify_leaves_no_cycles(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(_fig1_at(1.5))  # pam's plan is ScaleOutRequired
        argv = ["verify", "--scenario", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert "PASS scale_out_certified" in out.getvalue()
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        finally:
            garbage = gc.collect()
            gc.enable()
        assert garbage == 0


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

    def test_non_utf8_scenario_is_exit_one_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "binary.scenario.json"
        path.write_bytes(b"\xff")
        code, out, err = run(capsys, "plan", "--scenario", str(path), "--policy", "pam")
        assert (code, out) == (1, "")
        assert err == f"error: {path}: invalid UTF-8 at byte 0: invalid start byte\n"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("deep.scenario.json", '{"chain": ' + "[" * 100_000 + "]" * 100_000 + "}"),
            ("digits.scenario.json", '{"chain": [], "theta_cur": ' + "9" * 5000 + "}"),
            ("wide.trace.csv", "t,theta_cur_gbps\n0.0," + "1" * 200_000 + "\n"),
        ],
        ids=["nested", "digits", "wide-field"],
    )
    def test_input_past_a_parser_limit_is_exit_one_naming_the_file(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        scenario, trace = (golden.FIG1_SCENARIO, path) if name.endswith(".csv") else (path, golden.RAMP_TRACE)
        code, out, err = run(
            capsys,
            "simulate", "--scenario", str(scenario), "--trace", str(trace), "--policy", "pam",
            "--out", str(tmp_path / "timeline.csv"),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "timeline.csv").exists()

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


# Two SmartNIC vNFs whose demand ratios (1e308 each) add up past the float range.
OVERFLOWING_SCENARIO = {
    "chain": [
        {"id": "a", "spec": "Tiny", "placement": "SmartNIC"},
        {"id": "b", "spec": "Tiny", "placement": "SmartNIC"},
    ],
    "spec_overrides": {"Tiny": {"cap_smartnic": 1e-308, "cap_cpu": 4.0}},
    "theta_cur": 1.0,
}


class TestOverflowingDemand:
    """Demand ratios whose sum is past the float range: every decision then
    takes the chain-order sum instead of the planner's running sums."""

    def test_every_command_prints_a_result(self, capsys, tmp_path):
        scenario = tmp_path / "tiny.scenario.json"
        scenario.write_text(json.dumps(OVERFLOWING_SCENARIO))
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


def _fig1_at(theta: float) -> str:
    data = json.loads(golden.FIG1_SCENARIO.read_text())
    data["theta_cur"] = theta
    return json.dumps(data)


# The 9-vNF chain of test_oracle's `greedy_limitation`: the border plan is
# ScaleOutRequired although a border-peelable placement fits.
GREEDY_LIMITATION_CAPS = ((0.74, 7.29), (0.57, 0.79), (3.75, 6.81), (2.57, 2.68), (4.64, 1.84),
                          (8.62, 1.51), (0.58, 13.99), (0.5, 1.82), (1.01, 12.03))
GREEDY_LIMITATION = json.dumps({
    "chain": [
        {"id": f"nf{i}", "spec": f"nf{i}", "placement": "CPU" if p == "C" else "SmartNIC"}
        for i, p in enumerate("SSCSSSSSS")
    ],
    "spec_overrides": {
        f"nf{i}": {"cap_smartnic": s, "cap_cpu": c}
        for i, (s, c) in enumerate(GREEDY_LIMITATION_CAPS)
    },
    "theta_cur": 0.321,
})

# Scenario name -> scenario file text; None is the shipped file of that name.
CLI_SCENARIOS = {
    "fig1": None,
    "monitor_bottleneck": None,
    "two_step": None,
    "fig1_theta_1.5": _fig1_at(1.5),  # pam rejects Logger and Firewall
    "fig1_theta_2.0": _fig1_at(2.0),  # naive rejects three vNFs
    "greedy_limitation": GREEDY_LIMITATION,  # verify prints a FAIL detail and info
}

CLI_COMMANDS = {
    "plan_pam": ("plan", "--policy", "pam"),
    "plan_pam_json": ("plan", "--policy", "pam", "--json"),
    "plan_naive": ("plan", "--policy", "naive"),
    "plan_naive_json": ("plan", "--policy", "naive", "--json"),
    "compare": ("compare",),
    "compare_json": ("compare", "--json"),
    "verify": ("verify",),
}

# SHA-256 of each command's stdout, and of the `compare --svg` file.
CLI_OUTPUT_SHA256 = {
    "fig1": {
        "plan_pam": (0, "f24373486ccd9503df602d469d4fb47636ff193cc22b5262a0efa760f0f1aa60"),
        "plan_pam_json": (0, "f9876ba4ece1d17ac284f49312ab06a9ee5db068fced36ae59b649fb1d673bcf"),
        "plan_naive": (0, "522acea986a2b389c27435933332cbd335d2748012e26ac0d68449c7d3b629d6"),
        "plan_naive_json": (0, "783a5b704c38ad46fb3715c4e1eb4960497f5691c84d1c61025827a1c3dab7e5"),
        "compare": (0, "896464693a18bede672e26c79544564d2a57fabbe7c54a450ab0171ac2e9a1f2"),
        "compare_json": (0, "39b9c0230f3aacb193424f83823e63d3d8a2db98050837f9d79973e04037dd68"),
        "verify": (0, "8e3198c1d5f2fbd05ae0bc23d026c30aab5521908f8fd1d1545e69e50722eaf4"),
        "compare_svg": "bbd29c64d7c7a5074ff23e5cae38971f94d99f72c2d3f6faeda1fcfb298b1431",
    },
    "fig1_theta_1.5": {
        "plan_pam": (0, "85df43bfd70cf096e25ae2810e173a7cee6af074120b332877f0acc0eb7c8e9d"),
        "plan_pam_json": (0, "a83f104440f42f550753d5aece8459c7cd5deb9f7cb0a59b3ec965d84f11070b"),
        "plan_naive": (0, "02c5ff1b77180ca7d5c1d1ee8817bae86f52a13ac9a8202df29e39841ad39977"),
        "plan_naive_json": (0, "bd27e85f8cf58b3a8181e0a2949ea0c4a24610bbc21912af3d81aa81709803fd"),
        "compare": (0, "388a21b4827fa927d28ba7af38383e02db6586113b8fc24d521d7ed43b4e119d"),
        "compare_json": (0, "840dadd8bb156cd24d82fe4dc3f3f70f27156a58b3032f6b37959c70329ab672"),
        "verify": (0, "cd87db2411f48c2911cd4b2e4c5a603a65cb45069cb3c81ecc81630789862c3c"),
        "compare_svg": "33bfbe89dbbb38780454d6d65e2048771d77ec07f2edc36760656bf3cf0fdc2b",
    },
    "fig1_theta_2.0": {
        "plan_pam": (0, "56bc799a078e5a6f541b4bbfe710c1d8d30116d2c993ba7de7f44a4fa64106cf"),
        "plan_pam_json": (0, "6922c04416a8dad52ef5cd327a48389b07c3f1e895179afcded14469e6f7b8f0"),
        "plan_naive": (0, "c40309811e95dd2568a9a36df08efb17d29528b08378181a722451855f0f9990"),
        "plan_naive_json": (0, "46c7dedbd286ac61996c420fddc8ad0e37364d2c31d4cbc97cf7e70cc1cf3a55"),
        "compare": (0, "556e73d862b78b5ffd0da7846de66e814b2ddfb5a0c7848c389523d6bdf69a75"),
        "compare_json": (0, "94abdcf3c26fe63ac447719ce3bc87d6265d49b48fd88e7ef0af9340452d01e3"),
        "verify": (0, "cd87db2411f48c2911cd4b2e4c5a603a65cb45069cb3c81ecc81630789862c3c"),
        "compare_svg": "9882a78bc13f4657bd0a585a7656f2bb84da3c1b8ad3b7f585974df6e8c1337f",
    },
    "greedy_limitation": {
        "plan_pam": (0, "7c560701faae2b8dc2ac31d11112866bc0a5badd23b7af0a90a54db91f7f72f4"),
        "plan_pam_json": (0, "25fd3f02603f217ac96e2908e43ffe7d2a56a7f98d6b78fe5f51577803755fae"),
        "plan_naive": (0, "e1a725ea150a324025879d7d434dcceceec6978f2ca30174231caa0cd468a125"),
        "plan_naive_json": (0, "51cbda7e9d0d2108fd0e99e1288d6ecc2f0049eaa53bc80bf4aa1a68b202a45a"),
        "compare": (0, "c536a1800785dfde73a33838f554eab9a047131119db8c814c688cb106f9d2de"),
        "compare_json": (0, "ce1f1ae2b72fbe72de2a81b31789e5b7d5c438408a5f27e6929622f8e53ab671"),
        "verify": (2, "d547a5a153e0860cc9d8cce3dfe700fb210af535f2072ae3bf1719b51edd4dce"),
        "compare_svg": "86e946a57307cd7a92f3f40b5019028d276e300804ea75d754d08c4328b408c7",
    },
    "monitor_bottleneck": {
        "plan_pam": (0, "e6d0bcbea2e94d9aed66197383a1f40a16381cd8a07ee32ecad5f176c4f79864"),
        "plan_pam_json": (0, "47f0c1515da3c4015532587a5274b23aa5e543df69bde3d3ed7ac90d27ee4c3c"),
        "plan_naive": (0, "d88dbd07964cf53098db1e734215168c093ebced9a83337468c94428c6fcd82f"),
        "plan_naive_json": (0, "a75700bde26f215fcb5c95ab1d867da088c5aa3c3fed5ce2d41aa5a284b9bf2a"),
        "compare": (0, "57b0e73faec10620c0563bb848e5eff2ad8379acde80da67fecc3718c7eade24"),
        "compare_json": (0, "8c0d8992a8cf2177ea54a27f95275cde432a9dfbedf8d879e1b3d13bd9acd301"),
        "verify": (0, "8e3198c1d5f2fbd05ae0bc23d026c30aab5521908f8fd1d1545e69e50722eaf4"),
        "compare_svg": "daeb18ef96af7c506cfb6a3abb63568ede5c347b224fd95da8fe8a8f2b876c32",
    },
    "two_step": {
        "plan_pam": (0, "24ed7196131b9bcb3fb0151aa5f76f4fa9e5dfe1e4c18e799e1c2d5a40922992"),
        "plan_pam_json": (0, "a281fafd2c8196666e144ab86428d5c324992c9ea651ee9fcefb8b442f22b2ca"),
        "plan_naive": (0, "f07ec2d1d7281633ffaefc5ab9a4e95c2e70f4e4591b8789e8a0360ba4abec8c"),
        "plan_naive_json": (0, "6beb924d66c85a73dffd8e57522b20d5985f72eec884df563070f773461b47ef"),
        "compare": (0, "7aac25a4b2cb55a57ba9a5baad756018b863d983d5da912dba7dcb56a825e5b1"),
        "compare_json": (0, "2020c4b4e0fbf68c0fc998961b9ded55463fb656afb1a45ae7dde96b23a8226d"),
        "verify": (0, "8e3198c1d5f2fbd05ae0bc23d026c30aab5521908f8fd1d1545e69e50722eaf4"),
        "compare_svg": "92270f3e85962e8fce5fd535bc3b5e351f03bda7b154372d9a2e91e225ada8b8",
    },
}


class TestOutputBytes:
    """Every stdout byte of plan, compare and verify, and the compare SVG."""

    @pytest.mark.parametrize("scenario", sorted(CLI_SCENARIOS))
    def test_outputs_are_byte_identical(self, capsys, tmp_path, scenario):
        text = CLI_SCENARIOS[scenario]
        path = golden.SCENARIO_DIR / f"{scenario}.scenario.json"
        if text is not None:
            path = tmp_path / "scenario.json"
            path.write_text(text)
        svg = tmp_path / "compare.svg"
        digests = {}
        for name, command in CLI_COMMANDS.items():
            if name == "compare":
                command += ("--svg", str(svg))
            code, out, err = run(capsys, *command, "--scenario", str(path))
            assert err == ""
            digests[name] = (code, hashlib.sha256(out.encode()).hexdigest())
        digests["compare_svg"] = hashlib.sha256(svg.read_bytes()).hexdigest()
        assert digests == CLI_OUTPUT_SHA256[scenario]


# vNF ids the JSON writers must escape as json does: escapes, non-ASCII text
# (in and past the Basic Multilingual Plane), the empty string.
ODD_STRINGS = ("\u00e9", " ", '"', "\\", "", "LB", "tab\t", "\u2028", "\U0001F600")


def _dumps(value: object) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


def _raised(encode, value: object) -> tuple[type, str]:
    with pytest.raises((ValueError, TypeError)) as excinfo:
        encode(value)
    return excinfo.type, str(excinfo.value)


def reference_payload(scenario: Scenario, policy: str, plan) -> dict:
    """The `plan` command's output as plain dicts, lists and scalars: the
    `plan --json` document is `json.dumps(payload, indent=2, allow_nan=False)`
    of it, and the text output is `_print_reference_text(payload)`."""
    before, after = scenario.chain, plan.post_chain
    nic_before, cpu_before = device_utilizations(before, scenario.specs, scenario.theta_cur)
    nic_after, cpu_after = device_utilizations(after, scenario.specs, scenario.theta_cur)
    return {
        "policy": policy,
        "theta_cur_gbps": scenario.theta_cur,
        "outcome": plan.outcome.value,
        "steps": [
            {
                "vnf_id": vnf_id,
                "from": Placement.SMARTNIC.value,
                "to": Placement.CPU.value,
                "reason": "min_smartnic_capacity",
                "selected_as_candidate": True,
            }
            for vnf_id in plan.steps
        ],
        "rejected_candidates": [
            {"vnf_id": vnf_id, "reason": "cpu_headroom"} for vnf_id in plan.rejected_candidates
        ],
        "post_placements": [
            {"id": vnf_id, "placement": p.value} for vnf_id, p in zip(after.ids, after.placements)
        ],
        "smartnic_util_before": nic_before,
        "smartnic_util_after": nic_after,
        "cpu_util_before": cpu_before,
        "cpu_util_after": cpu_after,
        "crossings_before": count_crossings(before),
        "crossings_after": count_crossings(after),
    }


def _print_reference_text(payload: dict) -> None:
    print(f"policy: {payload['policy']}")
    print(f"theta_cur: {payload['theta_cur_gbps']} Gbps")
    print(f"outcome: {payload['outcome']}")
    if payload["steps"]:
        print("steps:")
        for i, s in enumerate(payload["steps"], start=1):
            print(f"  {i}. {s['vnf_id']}: {s['from']} -> {s['to']}")
    else:
        print("steps: (none)")
    if payload["rejected_candidates"]:
        rejected = ", ".join(
            f"{r['vnf_id']} ({r['reason']})" for r in payload["rejected_candidates"]
        )
        print(f"rejected: {rejected}")
    print(
        f"smartnic utilization: {payload['smartnic_util_before']!r} -> "
        f"{payload['smartnic_util_after']!r}"
    )
    print(f"cpu utilization: {payload['cpu_util_before']!r} -> {payload['cpu_util_after']!r}")
    print(f"crossings: {payload['crossings_before']} -> {payload['crossings_after']}")


def _stdout(call, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        call(*args)
    return out.getvalue()


def _plans(scenario: Scenario) -> list:
    """(policy, plan) for both policies."""
    return [
        (policy, cli._PLANNERS[policy](scenario.chain, scenario.specs, scenario.theta_cur))
        for policy in ("pam", "naive")
    ]


def _check_plan_writers(scenario: Scenario) -> list:
    """Check both `plan` writers against the reference payload for both
    policies; returns the (plan, JSON document) pairs."""
    written = []
    for policy, plan in _plans(scenario):
        payload = reference_payload(scenario, policy, plan)
        doc = cli._plan_json(scenario, policy, plan)
        assert doc == _dumps(payload), (policy, plan)
        assert _stdout(cli._print_plan_text, scenario, policy, plan) == _stdout(
            _print_reference_text, payload
        )
        written.append((plan, doc))
    return written


class TestPlanJson:
    """`cli._plan_json` and `cli._print_plan_text`, which write `plan`'s
    output straight from the plan, against the reference payload's
    `json.dumps(indent=2, allow_nan=False)` and its text printer."""

    @pytest.mark.parametrize("name", sorted(CLI_SCENARIOS))
    def test_cli_scenarios(self, name):
        text = CLI_SCENARIOS[name]
        if text is None:
            scenario = load_scenario(golden.SCENARIO_DIR / f"{name}.scenario.json")
        else:
            scenario = scenario_from_dict(json.loads(text))
        _check_plan_writers(scenario)

    def test_random_and_boundary_chains(self):
        rng = random.Random(16)
        kinds = set()
        for i in range(600):
            make = randgen.random_scenario if i % 2 else randgen.boundary_scenario
            chain, specs, theta = make(rng, max_len=rng.choice((4, 10, 24)))
            for plan, _ in _check_plan_writers(Scenario(chain, specs, theta)):
                kinds.add((bool(plan.steps), bool(plan.rejected_candidates)))
        # Plans with and without steps, each with and without rejections.
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_odd_vnf_ids(self):
        rng = random.Random(2028)
        for _ in range(200):
            chain, specs, theta = randgen.random_scenario(rng, max_len=len(ODD_STRINGS))
            chain = replace(chain, ids=tuple(rng.sample(ODD_STRINGS, len(chain))))
            _check_plan_writers(Scenario(chain, specs, theta))

    def test_empty_smartnic_reads_int_zero(self):
        C, S = Placement.CPU, Placement.SMARTNIC
        specs = {"nf": VnfSpec("nf", cap_smartnic=0.5, cap_cpu=10.0)}
        for placements, zeros in (
            ((C, S), ('"smartnic_util_after": 0,',)),  # both policies move the SmartNIC vNF
            ((C, C), ('"smartnic_util_before": 0,', '"smartnic_util_after": 0,')),
        ):
            chain = golden.chain_from_rows([(f"v{i}", "nf", p) for i, p in enumerate(placements)])
            for _, doc in _check_plan_writers(Scenario(chain, specs, 1.0)):
                for zero in zeros:
                    assert zero in doc

    def test_plan_without_steps_or_rejections(self):
        # The golden chain at a load the SmartNIC carries: NotOverloaded.
        scenario = replace(golden.golden_scenario(), theta_cur=0.1)
        for plan, doc in _check_plan_writers(scenario):
            assert plan.steps == plan.rejected_candidates == ()
            assert '"steps": [],\n  "rejected_candidates": [],' in doc

    def test_non_finite_utilization_raises_json_value_error(self):
        scenario = scenario_from_dict(OVERFLOWING_SCENARIO)
        for policy, plan in _plans(scenario):
            payload = reference_payload(scenario, policy, plan)
            raised = _raised(lambda _: cli._plan_json(scenario, policy, plan), None)
            assert raised == _raised(_dumps, payload)
            assert raised[0] is ValueError
            assert _stdout(cli._print_plan_text, scenario, policy, plan) == _stdout(
                _print_reference_text, payload
            )


def reference_comparison_payload(report: ComparisonReport) -> dict:
    """The `compare` command's output as plain dicts, lists and scalars: the
    `compare --json` document is `json.dumps(payload, indent=2,
    allow_nan=False)` of it, and the text output is
    `_print_reference_comparison_text(payload)`."""

    def policy_payload(result) -> dict:
        payload = {
            "outcome": result.plan.outcome.value,
            "steps": list(result.plan.steps),
            "rejected_candidates": [
                {"vnf_id": vnf_id, "reason": "cpu_headroom"}
                for vnf_id in result.plan.rejected_candidates
            ],
            "crossings_before": result.crossings_before,
            "crossings_after": result.crossings_after,
            "latency_before_us": result.latency_before_us,
            "latency_after_us": result.latency_after_us,
            "max_throughput_before_gbps": result.max_throughput_before_gbps,
            "max_throughput_after_gbps": result.max_throughput_after_gbps,
        }
        if result.verification is not None:
            payload["verification"] = "pass" if result.verification.passed else "fail"
        return payload

    return {
        "theta_cur_gbps": report.theta_cur,
        "pcie_latency_us": report.pcie_latency_us,
        "pam": policy_payload(report.pam),
        "naive": policy_payload(report.naive),
        "latency_reduction_pct": report.latency_reduction_pct,
    }


def _print_reference_comparison_text(payload: dict) -> None:
    print(
        f"theta_cur: {payload['theta_cur_gbps']} Gbps, "
        f"pcie latency: {payload['pcie_latency_us']} us/crossing"
    )
    for policy in ("pam", "naive"):
        p = payload[policy]
        print(f"== {policy} ==")
        print(f"outcome: {p['outcome']}")
        print(f"steps: {', '.join(p['steps']) if p['steps'] else '(none)'}")
        print(f"crossings: {p['crossings_before']} -> {p['crossings_after']}")
        print(f"latency_us: {p['latency_before_us']!r} -> {p['latency_after_us']!r}")
        print(
            f"max_throughput_gbps: {p['max_throughput_before_gbps']!r} -> "
            f"{p['max_throughput_after_gbps']!r}"
        )
        if "verification" in p:
            print(f"verification: {p['verification']}")
    print(f"pam latency vs naive: {payload['latency_reduction_pct']:.1f}% lower")


def _check_compare_writers(report: ComparisonReport) -> str:
    """Check both `compare` writers against the reference payload; returns
    the JSON document."""
    payload = reference_comparison_payload(report)
    doc = cli._comparison_json(report)
    assert doc == _dumps(payload), report
    assert _stdout(cli._print_comparison_text, report) == _stdout(
        _print_reference_comparison_text, payload
    )
    return doc


class TestCompareJson:
    """`cli._comparison_json` and `cli._print_comparison_text`, which write
    `compare`'s output straight from the report, against the reference
    payload's `json.dumps(indent=2, allow_nan=False)` and its text printer."""

    @pytest.mark.parametrize("name", sorted(CLI_SCENARIOS))
    def test_cli_scenarios(self, name):
        text = CLI_SCENARIOS[name]
        if text is None:
            scenario = load_scenario(golden.SCENARIO_DIR / f"{name}.scenario.json")
        else:
            scenario = scenario_from_dict(json.loads(text))
        _check_compare_writers(compare(scenario))

    def test_random_and_boundary_reports(self):
        rng = random.Random(17)
        kinds = set()
        for i in range(600):
            make = randgen.random_scenario if i % 2 else randgen.boundary_scenario
            chain, specs, theta = make(rng, max_len=rng.choice((4, 10, 12)))
            pcie = rng.choice((0.0, 1e-07, 2.5, 10.0, 1e16))
            report = compare(Scenario(chain, specs, theta, pcie_latency_us=pcie))
            _check_compare_writers(report)
            for result in (report.pam, report.naive):
                kinds.add((bool(result.plan.steps), bool(result.plan.rejected_candidates)))
        # Plans with and without steps, each with and without rejections.
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_long_chain_has_no_verification_key(self):
        rng = random.Random(21)
        for _ in range(20):
            chain, specs, theta = randgen.random_scenario(rng, max_len=40)
            report = compare(Scenario(chain, specs, theta))
            doc = _check_compare_writers(report)
            if len(chain) > MAX_ORACLE_CHAIN:
                assert report.pam.verification is report.naive.verification is None
                assert '"verification"' not in doc
            else:
                assert doc.count('"verification": ') == 2

    def test_failed_verification(self):
        report = compare(golden.golden_scenario())
        failed = VerificationReport(False, (AssertionResult("reachability", False, "x"),))
        report = report._replace(naive=report.naive._replace(verification=failed))
        doc = _check_compare_writers(report)
        assert '"verification": "pass"' in doc and '"verification": "fail"' in doc

    def test_odd_vnf_ids(self):
        rng = random.Random(2029)
        for _ in range(200):
            chain, specs, theta = randgen.random_scenario(rng, max_len=len(ODD_STRINGS))
            chain = replace(chain, ids=tuple(rng.sample(ODD_STRINGS, len(chain))))
            _check_compare_writers(compare(Scenario(chain, specs, theta)))

    def test_plans_without_steps_or_rejections(self):
        # The golden chain at a load the SmartNIC carries: NotOverloaded.
        report = compare(replace(golden.golden_scenario(), theta_cur=0.1))
        for result in (report.pam, report.naive):
            assert result.plan.steps == result.plan.rejected_candidates == ()
        doc = _check_compare_writers(report)
        assert doc.count('"steps": [],\n    "rejected_candidates": [],') == 2

    def test_non_finite_latency_raises_json_value_error(self):
        scenario = golden.golden_scenario()
        specs = dict(scenario.specs)
        specs["Logger"] = replace(specs["Logger"], proc_latency_cpu=math.inf)
        report = compare(replace(scenario, specs=specs))
        payload = reference_comparison_payload(report)
        raised = _raised(cli._comparison_json, report)
        assert raised == _raised(_dumps, payload)
        assert raised[0] is ValueError
        assert _stdout(cli._print_comparison_text, report) == _stdout(
            _print_reference_comparison_text, payload
        )


class TestUtf8Files:
    """Scenario, trace and timeline files are UTF-8 whatever the locale."""

    def test_non_ascii_vnf_id_under_the_c_locale(self, tmp_path):
        data = json.loads(golden.FIG1_SCENARIO.read_text(encoding="utf-8"))
        for entry in data["chain"]:
            if entry["id"] == "Logger":
                entry["id"] = "Loggeré"
        scenario = tmp_path / "fig1.scenario.json"
        scenario.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
        trace = tmp_path / "theta.trace.csv"
        trace.write_bytes(b"t,theta_cur_gbps\n0.0,1.2\n")
        timeline = tmp_path / "timeline.csv"
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith(("PYTHON", "LC_", "LANG"))
        }
        env.update(
            PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
            PYTHONPATH=str(golden.ROOT / "src"),
        )

        def chainplan(*argv: str) -> str:
            done = subprocess.run(
                [sys.executable, "-m", "chainplan.cli", *argv, "--scenario", str(scenario)],
                env=env, capture_output=True, check=False,
            )
            assert (done.returncode, done.stderr) == (0, b""), argv
            return done.stdout.decode("ascii")

        doc = json.loads(chainplan("plan", "--policy", "pam", "--json"))
        assert "Loggeré" in [entry["id"] for entry in doc["post_placements"]]
        chainplan(
            "simulate", "--policy", "pam", "--trace", str(trace), "--out", str(timeline)
        )
        assert "Loggeré".encode("utf-8") in timeline.read_bytes()
