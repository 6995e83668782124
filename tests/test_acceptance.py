"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. The random suites use a fixed seed (the whole artifact is
deterministic by contract) and the distributions documented in randgen.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    Placement,
    PlanOutcome,
    cli,
    compare,
    count_crossings,
    estimate_latency,
    identify_borders,
    load_scenario,
    max_chain_throughput,
    plan_naive,
    plan_pam,
    save_scenario,
    utilization,
    verify_plan,
)

SEED = 0
S = Placement.SMARTNIC
C = Placement.CPU


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_crossing_reproduction():
    with criterion(1, "bottleneck scenario crossing deltas"):
        t0 = time.perf_counter()
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        report = compare(scenario)
        naive_delta = report.naive.crossings_after - report.naive.crossings_before
        pam_delta = report.pam.crossings_after - report.pam.crossings_before
        assert (naive_delta, pam_delta) == (2, 0)
        assert (naive_delta, pam_delta) == oracle_script.bottleneck_crossing_deltas()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"compare took {elapsed:.3f}s"


def test_criterion_2_single_step_trace_fidelity():
    with criterion(2, "golden chain single border step"):
        scenario = load_scenario(golden.FIG1_SCENARIO)
        plan = plan_pam(scenario.chain, scenario.specs, scenario.load)
        assert [s.vnf_id for s in plan.steps] == ["Logger"]
        assert plan.outcome is PlanOutcome.RESOLVED
        s_util = utilization(plan.post_chain, scenario.specs, S, scenario.load)
        c_util = utilization(plan.post_chain, scenario.specs, C, scenario.load)
        assert s_util == pytest.approx(0.495, abs=1e-9)
        assert c_util == pytest.approx(0.9, abs=1e-9)
        expected_s, expected_c = oracle_script.golden_post_border_migration_utils(1.2)
        assert s_util == pytest.approx(expected_s, abs=1e-12)
        assert c_util == pytest.approx(expected_c, abs=1e-12)


def test_criterion_3_two_step_border_promotion():
    with criterion(3, "two-step plan with border promotion"):
        scenario = load_scenario(golden.TWO_STEP_SCENARIO)
        plan = plan_pam(scenario.chain, scenario.specs, scenario.load)
        assert [s.vnf_id for s in plan.steps] == ["Logger", "Monitor"]
        assert plan.outcome is PlanOutcome.RESOLVED
        assert count_crossings(plan.post_chain) == count_crossings(scenario.chain)
        expected_steps, _ = oracle_script.two_step_hand_trace()
        assert [s.vnf_id for s in plan.steps] == expected_steps


def test_criterion_4_latency_advantage():
    with criterion(4, "latency advantage: property + calibrated profile"):
        t0 = time.perf_counter()

        # (a) Whenever the baseline's post chain carries extra crossings
        # (which only a non-border migration can cause) and processing
        # latencies are device-invariant, the border policy is strictly
        # better by an even multiple of the crossing cost.
        rng = random.Random(SEED)
        pcie = 10.0
        exercised = 0
        for _ in range(1000):
            chain, specs, load = randgen.random_scenario(rng)
            pam = plan_pam(chain, specs, load)
            naive = plan_naive(chain, specs, load)
            before = count_crossings(chain)
            after_naive = count_crossings(naive.post_chain)
            if after_naive <= before:
                continue
            exercised += 1
            assert _migrated_nonborder(chain, naive)
            lat_naive = estimate_latency(naive.post_chain, specs, pcie)
            lat_pam = estimate_latency(pam.post_chain, specs, pcie)
            k, rem = divmod(after_naive - count_crossings(pam.post_chain), 2)
            assert rem == 0 and k >= 1
            assert lat_pam < lat_naive
            assert lat_naive - lat_pam == pytest.approx(2 * k * pcie, abs=1e-9)
        assert exercised > 0

        # (b) The shipped profile (processing sum 51 us, 10 us per crossing)
        # calibrates the comparison to an 18.0% reduction.
        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        report = compare(scenario)
        assert report.latency_reduction_pct == pytest.approx(18.0, abs=0.5)
        assert report.latency_reduction_pct == pytest.approx(
            oracle_script.latency_calibration()[51.0][2], abs=1e-9
        )

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_oracle_suite():
    with criterion(5, "1000-scenario brute-force certification"):
        t0 = time.perf_counter()
        rng = random.Random(SEED)
        failures = []
        for i in range(1000):
            chain, specs, load = randgen.random_scenario(rng)
            plan = plan_pam(chain, specs, load)
            report = verify_plan(chain, specs, load, plan)
            if not report.passed:
                failures.append((i, chain.placements(), report))
        assert not failures, f"{len(failures)} verification failures: {failures[:3]}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_6_throughput_formula():
    with criterion(6, "closed-form throughput matches bisection"):
        rng = random.Random(SEED)
        for _ in range(200):
            chain, specs, _ = randgen.random_scenario(rng)
            s_caps = [specs[v.spec].cap_smartnic for v in chain.vnfs if v.placement is S]
            c_caps = [specs[v.spec].cap_cpu for v in chain.vnfs if v.placement is C]
            expected = oracle_script.bisect_max_throughput(s_caps, c_caps, hi=32.0)
            got = max_chain_throughput(chain, specs)
            assert got == pytest.approx(expected, abs=1e-6)


def test_criterion_7_determinism_and_round_trip(tmp_path, capsys):
    with criterion(7, "byte-identical outputs and lossless files"):
        # plan, twice
        plan_argv = ["plan", "--scenario", str(golden.FIG1_SCENARIO), "--policy", "pam", "--json"]
        assert cli.main(plan_argv) == 0
        first = capsys.readouterr().out
        assert cli.main(plan_argv) == 0
        second = capsys.readouterr().out
        assert first == second

        # simulate, twice
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli.main(
                [
                    "simulate", "--scenario", str(golden.TWO_STEP_SCENARIO),
                    "--trace", str(golden.RAMP_TRACE), "--policy", "pam",
                    "--out", str(out),
                ]
            )
            assert code == 0
            capsys.readouterr()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        # scenario files round-trip losslessly
        for path in (
            golden.FIG1_SCENARIO,
            golden.MONITOR_BOTTLENECK_SCENARIO,
            golden.TWO_STEP_SCENARIO,
        ):
            scenario = load_scenario(path)
            saved_once = tmp_path / "once.json"
            saved_twice = tmp_path / "twice.json"
            save_scenario(scenario, saved_once)
            reloaded = load_scenario(saved_once)
            assert reloaded == scenario
            save_scenario(reloaded, saved_twice)
            assert saved_once.read_bytes() == saved_twice.read_bytes()

        # deterministic plan objects end to end
        scenario = load_scenario(golden.TWO_STEP_SCENARIO)
        a = plan_pam(scenario.chain, scenario.specs, scenario.load)
        b = plan_pam(scenario.chain, scenario.specs, scenario.load)
        assert a == b
        assert json.dumps([s.vnf_id for s in a.steps]) == json.dumps(
            [s.vnf_id for s in b.steps]
        )


def _migrated_nonborder(chain, plan) -> bool:
    work = chain
    for step in plan.steps:
        idx = work.index_of(step.vnf_id)
        if idx not in identify_borders(work):
            return True
        work = work.with_placement(idx, C)
    return False
