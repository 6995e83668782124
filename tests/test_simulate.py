from __future__ import annotations

from dataclasses import replace

import pytest

import golden
from chainplan import (
    LoadState,
    Placement,
    TracePoint,
    compare,
    load_scenario,
    load_trace,
    run_trace,
)

S = Placement.SMARTNIC
C = Placement.CPU


class TestRunTrace:
    def test_ramp_trace_migrates_at_the_second_point(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        trace = load_trace(golden.RAMP_TRACE)
        records = run_trace(scenario, trace, "pam")
        assert len(records) == 2
        first, second = records
        assert first.migrations_this_step == ()
        assert first.outcome == "NotOverloaded"
        assert first.cumulative_migrations == 0
        assert second.migrations_this_step == ("Logger",)
        assert second.outcome == "Resolved"
        assert second.cumulative_migrations == 1
        assert second.crossings == 4
        assert second.smartnic_util == pytest.approx(0.495, abs=1e-9)
        assert second.cpu_util == pytest.approx(0.9, abs=1e-9)

    def test_constant_low_trace_never_migrates(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        trace = tuple(TracePoint(float(i), 0.4) for i in range(5))
        for policy in ("pam", "naive", "none"):
            records = run_trace(scenario, trace, policy)
            assert all(r.migrations_this_step == () for r in records)
            assert all(r.cumulative_migrations == 0 for r in records)
            assert all(r.outcome == "NotOverloaded" for r in records)

    def test_policies_diverge_on_the_bottleneck_scenario(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        trace = (TracePoint(0.0, 1.0),)
        pam_records = run_trace(scenario, trace, "pam")
        naive_records = run_trace(scenario, trace, "naive")
        assert pam_records[-1].crossings == 4
        assert naive_records[-1].crossings == 6
        assert pam_records[-1].migrations_this_step == ("Logger",)
        assert naive_records[-1].migrations_this_step == ("Monitor",)

    def test_state_carries_forward_between_points(self):
        scenario = load_scenario(golden.TWO_STEP_SCENARIO)
        trace = (TracePoint(0.0, 1.6), TracePoint(1.0, 1.6))
        records = run_trace(scenario, trace, "pam")
        assert records[0].migrations_this_step == ("Logger", "Monitor")
        assert records[1].migrations_this_step == ()
        assert records[1].cumulative_migrations == 2

    def test_policy_none_never_touches_placements(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        trace = tuple(TracePoint(float(i), 0.5 + 0.5 * i) for i in range(4))
        records = run_trace(scenario, trace, "none")
        assert all(r.crossings == 4 for r in records)
        assert all(r.migrations_this_step == () for r in records)
        assert records[0].outcome == "NotOverloaded"
        assert records[-1].outcome == "Overloaded"

    def test_empty_trace_rejected(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        with pytest.raises(ValueError, match="empty"):
            run_trace(scenario, (), "pam")

    def test_unknown_policy_rejected(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        with pytest.raises(ValueError, match="policy"):
            run_trace(scenario, (TracePoint(0.0, 1.0),), "best")


class TestCompare:
    def test_bottleneck_scenario_reproduces_the_crossing_split(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        report = compare(scenario)
        assert report.naive.crossings_after - report.naive.crossings_before == 2
        assert report.pam.crossings_after - report.pam.crossings_before == 0
        assert report.latency_reduction_pct == pytest.approx(18.0, abs=0.5)
        assert report.pam.latency_after_us == report.pam.latency_before_us
        assert report.pam.verification is not None and report.pam.verification.passed
        assert report.naive.verification is not None and report.naive.verification.passed

    def test_underloaded_scenario_is_a_wash(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        report = compare(replace(scenario, load=LoadState(0.5)))
        assert report.pam.plan.outcome.value == "NotOverloaded"
        assert report.naive.plan.outcome.value == "NotOverloaded"
        assert report.latency_reduction_pct == 0.0

    def test_golden_scenario_policies_coincide(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        report = compare(scenario)
        assert [s.vnf_id for s in report.pam.plan.steps] == ["Logger"]
        assert [s.vnf_id for s in report.naive.plan.steps] == ["Logger"]
        assert report.latency_reduction_pct == 0.0

    def test_throughput_sides_of_the_report(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        report = compare(scenario)
        assert report.pam.max_throughput_after_gbps == pytest.approx(4 / 3, abs=1e-9)
        assert report.naive.max_throughput_after_gbps == pytest.approx(5 / 3, abs=1e-9)
