from __future__ import annotations

import random
from dataclasses import replace

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    Placement,
    ServiceChain,
    count_crossings,
    estimate_latency,
    identify_borders,
    max_chain_throughput,
    plan_naive,
    plan_pam,
)

S = Placement.SMARTNIC
C = Placement.CPU


class TestCountCrossings:
    def test_golden_chain_has_four(self, fig1_chain):
        assert count_crossings(fig1_chain) == 4

    def test_interior_migration_adds_exactly_two(self, fig1_chain):
        naive_post = fig1_chain.with_placement(2, C)  # Monitor
        assert count_crossings(naive_post) == 6

    def test_border_migration_keeps_the_count(self, fig1_chain):
        pam_post = fig1_chain.with_placement(1, C)  # Logger
        assert count_crossings(pam_post) == 4

    def test_matches_independent_scan(self):
        assert oracle_script.golden_crossing_counts() == (4, 6, 4)

    def test_all_smartnic_chain_with_smartnic_anchors(self):
        assert count_crossings(golden.chain_of("SSSS")) == 0

    def test_parity_matches_anchor_equality(self):
        rng = random.Random(21)
        anchors = (S, C)
        for _ in range(300):
            chain, _, _ = randgen.random_scenario(rng)
            chain = replace(
                chain,
                ingress_anchor=rng.choice(anchors),
                egress_anchor=rng.choice(anchors),
            )
            crossings = count_crossings(chain)
            assert crossings >= 0
            if chain.ingress_anchor is chain.egress_anchor:
                assert crossings % 2 == 0
            else:
                assert crossings % 2 == 1

    def test_reversing_the_chain_preserves_the_count(self):
        rng = random.Random(22)
        anchors = (S, C)
        for _ in range(300):
            chain, _, _ = randgen.random_scenario(rng)
            chain = replace(
                chain,
                ingress_anchor=rng.choice(anchors),
                egress_anchor=rng.choice(anchors),
            )
            reversed_chain = ServiceChain(
                chain.ids[::-1],
                chain.spec_names[::-1],
                chain.placements[::-1],
                ingress_anchor=chain.egress_anchor,
                egress_anchor=chain.ingress_anchor,
            )
            assert count_crossings(reversed_chain) == count_crossings(chain)


class TestEstimateLatency:
    def test_pure_crossing_cost(self, fig1_chain, fig1_specs):
        assert estimate_latency(fig1_chain, fig1_specs, 10.0) == 40.0

    def test_zero_pcie_leaves_processing_only(self, fig1_chain):
        specs = golden.monitor_bottleneck_specs()
        specs = {
            name: replace(spec, proc_latency_smartnic=5.0, proc_latency_cpu=5.0)
            for name, spec in specs.items()
        }
        assert estimate_latency(fig1_chain, specs, 0.0) == 25.0

    def test_calibration_profile_hits_18_percent(self):
        # Shipped profile: processing latencies sum to 51 us (device
        # invariant) and each crossing costs 10 us.
        from chainplan import load_scenario

        scenario = load_scenario(golden.MONITOR_BOTTLENECK_SCENARIO)
        chain, specs = scenario.chain, scenario.specs
        naive_post = chain.with_placement(2, C)
        pam_post = chain.with_placement(1, C)
        naive_lat = estimate_latency(naive_post, specs, scenario.pcie_latency_us)
        pam_lat = estimate_latency(pam_post, specs, scenario.pcie_latency_us)
        expected_naive, expected_pam, expected_pct = oracle_script.latency_calibration()[51.0]
        assert naive_lat == expected_naive == 111.0
        assert pam_lat == expected_pam == 91.0
        reduction = 100.0 * (naive_lat - pam_lat) / naive_lat
        assert reduction == pytest.approx(expected_pct, abs=1e-9)
        assert reduction == pytest.approx(18.0, abs=0.5)
        # Border migration leaves latency where it was before any migration.
        assert estimate_latency(chain, specs, scenario.pcie_latency_us) == pam_lat

    def test_71us_profile_gives_15_percent(self):
        expected_naive, expected_pam, pct = oracle_script.latency_calibration()[71.0]
        assert (expected_naive, expected_pam) == (131.0, 111.0)
        assert pct == pytest.approx(15.267, abs=1e-3)

    def test_monotone_in_pcie_latency(self, fig1_chain, fig1_specs):
        lows = estimate_latency(fig1_chain, fig1_specs, 1.0)
        highs = estimate_latency(fig1_chain, fig1_specs, 2.0)
        assert highs > lows  # 4 crossings
        flat_chain = golden.chain_of("SSS")
        assert estimate_latency(flat_chain, golden.UNIFORM_SPECS, 1.0) == estimate_latency(
            flat_chain, golden.UNIFORM_SPECS, 99.0
        )


class TestEstimatePerf:
    def test_bottleneck_post_border_migration(self):
        specs = golden.monitor_bottleneck_specs()
        post_pam = golden.golden_chain().with_placement(1, C)
        assert count_crossings(post_pam) == 4
        assert max_chain_throughput(post_pam, specs) == pytest.approx(4 / 3, abs=1e-9)

    def test_bottleneck_post_baseline(self):
        specs = golden.monitor_bottleneck_specs()
        post_naive = golden.golden_chain().with_placement(2, C)
        assert count_crossings(post_naive) == 6
        throughput = max_chain_throughput(post_naive, specs)
        assert throughput == pytest.approx(5 / 3, abs=1e-9)
        # Device-dependent capacities can favor the baseline's throughput even
        # though its latency is worse.
        assert throughput > 4 / 3

    def test_empty_cpu_chain_has_no_crossings(self):
        assert count_crossings(golden.chain_of("SSS")) == 0

    def test_latency_is_additive(self, fig1_chain, fig1_specs):
        proc = sum(
            fig1_specs[n].proc_latency(p) for n, p in zip(fig1_chain.spec_names, fig1_chain.placements)
        )
        assert estimate_latency(fig1_chain, fig1_specs, 7.5) == pytest.approx(
            proc + count_crossings(fig1_chain) * 7.5, abs=1e-9
        )


class TestPolicyComparisonProperty:
    def test_persistent_baseline_splits_always_cost_even_crossing_deltas(self):
        # Whenever the baseline's post chain carries more crossings than the
        # input (which can only come from migrating a non-border vNF) and
        # processing latencies are device-invariant, the border policy's
        # latency is strictly lower, by an even multiple of the crossing cost.
        rng = random.Random(0)
        pcie = 10.0
        exercised = 0
        for _ in range(300):
            chain, specs, load = randgen.random_scenario(rng)
            pam = plan_pam(chain, specs, load)
            naive = plan_naive(chain, specs, load)
            before = count_crossings(chain)
            after_naive = count_crossings(naive.post_chain)
            if after_naive <= before:
                continue
            exercised += 1
            assert _migrated_nonborder(chain, naive)
            delta = estimate_latency(naive.post_chain, specs, pcie) - estimate_latency(
                pam.post_chain, specs, pcie
            )
            k, rem = divmod(after_naive - count_crossings(pam.post_chain), 2)
            assert rem == 0
            assert k >= 1
            assert delta == pytest.approx(2 * k * pcie, abs=1e-9)
            assert delta > 0
        assert exercised > 0


def _migrated_nonborder(chain, plan):
    work = chain
    for vnf_id in plan.steps:
        idx = work.ids.index(vnf_id)
        if idx not in identify_borders(work):
            return True
        work = work.with_placement(idx, C)
    return False
