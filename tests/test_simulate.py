from __future__ import annotations

import math
import random
from dataclasses import is_dataclass, replace

import pytest

import golden
import randgen
from chainplan import (
    Placement,
    Scenario,
    TimelineRecord,
    TracePoint,
    compare,
    count_crossings,
    enumerate_placements,
    estimate_latency,
    is_overloaded,
    load_scenario,
    load_trace,
    max_chain_throughput,
    plan_naive,
    plan_pam,
    run_trace,
    simulate,
    utilization,
    validate,
)
from chainplan.reports import TIMELINE_COLUMNS

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


def reference_run_trace(scenario, trace, policy):
    """The replay loop that recomputes every column at every point."""
    planners = {"pam": plan_pam, "naive": plan_naive}
    chain, specs = scenario.chain, scenario.specs
    cumulative = 0
    records = []
    for point in trace:
        load = point.theta_cur
        if policy == "none":
            migrated = ()
            overloaded = is_overloaded(chain, specs, S, load)
            outcome = "Overloaded" if overloaded else "NotOverloaded"
        else:
            plan = planners[policy](chain, specs, load)
            chain = plan.post_chain
            migrated = plan.steps
            cumulative += len(migrated)
            outcome = plan.outcome.value
        records.append(
            TimelineRecord(
                t=point.t,
                theta_cur=point.theta_cur,
                policy=policy,
                smartnic_util=utilization(chain, specs, S, load),
                cpu_util=utilization(chain, specs, C, load),
                crossings=count_crossings(chain),
                latency_us=estimate_latency(chain, specs, scenario.pcie_latency_us),
                max_throughput_gbps=max_chain_throughput(chain, specs),
                migrations_this_step=migrated,
                cumulative_migrations=cumulative,
                outcome=outcome,
            )
        )
    return tuple(records)


def rising_and_falling_trace(rng, scenario, max_points=30):
    """Seasonal swings around the load at which the start chain's SmartNIC
    fills up, with the scenario's own load (where `boundary_scenario` puts
    device sums within a few ulps of 1.0) mixed in."""
    chain = scenario.chain
    nic = [1.0 / scenario.specs[n].cap_smartnic for n, p in zip(chain.spec_names, chain.placements) if p is S]
    full = 1.0 / sum(nic) if nic else scenario.theta_cur
    period, phase = rng.uniform(3.0, 12.0), rng.uniform(0.0, 2 * math.pi)
    points = []
    for i in range(rng.randint(1, max_points)):
        if rng.random() < 0.25:
            theta = scenario.theta_cur
        else:
            swing = 1.0 + 0.7 * math.sin(2 * math.pi * i / period + phase)
            theta = full * swing * rng.uniform(0.95, 1.05)
        points.append(TracePoint(float(i), theta))
    return tuple(points)


def random_replays(seed, count):
    rng = random.Random(seed)
    for draw in range(count):
        generator = randgen.random_scenario if draw % 2 else randgen.boundary_scenario
        chain, specs, load = generator(rng)
        scenario = Scenario(chain, specs, load, pcie_latency_us=rng.uniform(0.0, 30.0))
        yield scenario, rising_and_falling_trace(rng, scenario)


def field_reprs(records):
    return [[repr(getattr(r, name)) for name in r._fields] for r in records]


class TestMatchesPerPointRecompute:
    @pytest.mark.parametrize("policy", ("pam", "naive", "none"))
    def test_random_and_boundary_scenarios(self, policy):
        migrated = overloaded = 0
        for scenario, trace in random_replays(seed=9, count=300):
            records = run_trace(scenario, trace, policy)
            expected = reference_run_trace(scenario, trace, policy)
            assert records == expected
            assert field_reprs(records) == field_reprs(expected)
            migrated += sum(1 for r in records if r.migrations_this_step)
            overloaded += sum(1 for r in records if r.outcome != "NotOverloaded")
        # The sweep crosses capacity both ways and moves vNFs.
        assert overloaded > 0
        assert policy == "none" or migrated > 0


class TestChainColumnsOncePerChainState:
    COUNTED = ("count_crossings", "estimate_latency", "max_chain_throughput")

    def count_calls(self, monkeypatch):
        calls = dict.fromkeys(self.COUNTED, 0)
        for name in self.COUNTED:
            original = getattr(simulate, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(simulate, name, counted)
        return calls

    def replays(self):
        trace = load_trace(golden.SEASONAL_TRACE)
        for path in (golden.FIG1_SCENARIO, golden.MONITOR_BOTTLENECK_SCENARIO, golden.TWO_STEP_SCENARIO):
            yield load_scenario(path), trace
        yield from random_replays(seed=11, count=60)

    @pytest.mark.parametrize("policy", ("pam", "naive", "none"))
    def test_once_per_distinct_chain(self, monkeypatch, policy):
        calls = self.count_calls(monkeypatch)
        for scenario, trace in self.replays():
            for name in self.COUNTED:
                calls[name] = 0
            records = run_trace(scenario, trace, policy)
            # The chains the records show: the start chain unless the first
            # point migrates, then one more after every migrating point.
            states = sum(1 for r in records if r.migrations_this_step)
            if not records[0].migrations_this_step:
                states += 1
            assert policy != "none" or states == 1
            assert calls == dict.fromkeys(self.COUNTED, states)


def count_planner_calls(monkeypatch, policy):
    """The loads `run_trace` plans at under `policy`, appended per call."""
    calls = []
    original = simulate._PLANNERS[policy]

    def counted(chain, specs, load):
        calls.append(load)
        return original(chain, specs, load)

    monkeypatch.setitem(simulate._PLANNERS, policy, counted)
    return calls


class TestPlannerOnlyWhenOverloaded:
    def overloaded_points(self, scenario, trace, policy):
        """Points whose SmartNIC sum on the chain the point starts from is
        >= 1.0, replayed with the planners themselves."""
        planner = {"pam": plan_pam, "naive": plan_naive}[policy]
        chain, specs = scenario.chain, scenario.specs
        overloaded = []
        for point in trace:
            load = point.theta_cur
            if utilization(chain, specs, S, load) >= 1.0:
                overloaded.append(point.theta_cur)
            chain = planner(chain, specs, load).post_chain
        return overloaded

    @pytest.mark.parametrize("policy", ("pam", "naive"))
    def test_called_exactly_at_the_overloaded_points(self, monkeypatch, policy):
        calls = count_planner_calls(monkeypatch, policy)
        called = points = 0
        for scenario, trace in TestChainColumnsOncePerChainState().replays():
            calls.clear()
            run_trace(scenario, trace, policy)
            assert calls == self.overloaded_points(scenario, trace, policy)
            called += len(calls)
            points += len(trace)
        # Some points plan and most do not.
        assert 0 < called < points / 2


class TestPolicyNoneBoundary:
    # fig1's SmartNIC hosts capacities 2, 3.2 and 10: at this load the
    # chain-order sum of theta / cap is exactly 1.0, and one float lower it
    # is below 1.
    THETA = 1.095890410958904

    def outcome(self, theta):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        (record,) = run_trace(scenario, (TracePoint(0.0, theta),), "none")
        return record

    def test_a_sum_of_exactly_one_is_overloaded(self):
        record = self.outcome(self.THETA)
        assert record.smartnic_util == 1.0
        assert record.outcome == "Overloaded"

    def test_the_next_float_below_is_not(self):
        record = self.outcome(math.nextafter(self.THETA, 0.0))
        assert record.smartnic_util < 1.0
        assert record.outcome == "NotOverloaded"

    @pytest.mark.parametrize("policy", ("pam", "naive"))
    def test_the_planner_runs_from_a_sum_of_exactly_one(self, monkeypatch, policy):
        calls = count_planner_calls(monkeypatch, policy)
        scenario = load_scenario(golden.FIG1_SCENARIO)
        below = math.nextafter(self.THETA, 0.0)
        for theta, expected_calls in ((self.THETA, [self.THETA]), (below, [])):
            calls.clear()
            trace = (TracePoint(0.0, theta),)
            records = run_trace(scenario, trace, policy)
            assert calls == expected_calls
            assert records == reference_run_trace(scenario, trace, policy)
        assert records[0].outcome == "NotOverloaded"


RESULT_TYPES = (
    "Violation", "ValidationReport", "MigrationPlan", "PlacementRecord",
    "AssertionResult", "VerificationReport", "PolicyResult", "ComparisonReport",
)


def result_values() -> dict:
    """One value of each result type the package returns, by type name."""
    report = compare(golden.golden_scenario())
    verification = report.pam.verification
    invalid = validate(golden.golden_scenario(theta=-1.0))
    placements = enumerate_placements(golden.golden_chain(), golden.golden_specs(), 1.2)
    values = (
        invalid.violations[0], invalid, report.pam.plan, placements[0],
        verification.assertions[0], verification, report.pam, report,
    )
    return dict(zip(RESULT_TYPES, values))


class TestRecordsArePlainTuples:
    def test_trace_point(self):
        point = TracePoint(0.0, 1.0)
        assert point == (0.0, 1.0)
        assert tuple(point) == (0.0, 1.0) and point[1] == 1.0
        assert point._replace(theta_cur=2.0) == TracePoint(0.0, 2.0)
        assert TracePoint._fields == ("t", "theta_cur")
        assert TracePoint(0.0, 1.0) < TracePoint(0.0, 2.0)
        assert not is_dataclass(point)

    def test_timeline_record(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        (record,) = run_trace(scenario, (TracePoint(0.0, 1.2),), "pam")
        assert record == tuple(getattr(record, name) for name in record._fields)
        assert record._fields[:2] == ("t", "theta_cur")
        assert len(record._fields) == len(TIMELINE_COLUMNS)
        assert record._replace(outcome="x").outcome == "x"
        with pytest.raises(AttributeError):
            record.outcome = "x"  # type: ignore[misc]
        assert not is_dataclass(record)

    @pytest.mark.parametrize("name", RESULT_TYPES)
    def test_result(self, name):
        value = result_values()[name]
        assert type(value).__name__ == name
        assert value == tuple(getattr(value, field) for field in value._fields)
        field = value._fields[0]
        assert getattr(value._replace(**{field: "x"}), field) == "x"
        with pytest.raises(AttributeError):
            setattr(value, field, "x")
        assert not is_dataclass(value)


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
        report = compare(replace(scenario, theta_cur=0.5))
        assert report.pam.plan.outcome.value == "NotOverloaded"
        assert report.naive.plan.outcome.value == "NotOverloaded"
        assert report.latency_reduction_pct == 0.0

    def test_golden_scenario_policies_coincide(self):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        report = compare(scenario)
        assert list(report.pam.plan.steps) == ["Logger"]
        assert list(report.naive.plan.steps) == ["Logger"]
        assert report.latency_reduction_pct == 0.0

    def test_throughput_sides_of_the_report(self):
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        report = compare(scenario)
        assert report.pam.max_throughput_after_gbps == pytest.approx(4 / 3, abs=1e-9)
        assert report.naive.max_throughput_after_gbps == pytest.approx(5 / 3, abs=1e-9)
