from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    MigrationPlan,
    Placement,
    PlanOutcome,
    ServiceChain,
    VnfSpec,
    count_crossings,
    identify_borders,
    is_overloaded,
    plan_naive,
    plan_pam,
    utilization,
    verify_plan,
)

S = Placement.SMARTNIC
C = Placement.CPU


def direct_border_scan(chain: ServiceChain) -> tuple[set[int], set[int]]:
    """Reference scan: spell the neighbor rule out position by position."""
    left, right = set(), set()
    n = len(chain)
    for i, placement in enumerate(chain.placements):
        if placement is not S:
            continue
        upstream = chain.ingress_anchor if i == 0 else chain.placements[i - 1]
        downstream = chain.egress_anchor if i == n - 1 else chain.placements[i + 1]
        if upstream is C:
            left.add(i)
        if downstream is C:
            right.add(i)
    return left, right


def select_candidate(chain, pool, specs):
    """Reference pick: pool index with minimum SmartNIC capacity, lowest
    chain index on ties; None for an empty pool."""
    if not pool:
        return None
    return min(pool, key=lambda i: (specs[chain.spec_names[i]].cap_smartnic, i))


def check_cpu_headroom(chain, specs, index, load):
    """Reference headroom test: the chain-order CPU sum plus the vNF at
    `index` stays strictly under capacity."""
    cpu = utilization(chain, specs, C, load)
    spec = specs[chain.spec_names[index]]
    return cpu + load / spec.cap_cpu < 1.0


class TestIdentifyBorders:
    def test_golden_chain(self, fig1_chain):
        borders = identify_borders(fig1_chain)
        assert borders == {1, 3}  # Logger, Firewall
        assert type(borders) is frozenset

    def test_all_cpu_chain_has_no_borders(self):
        assert identify_borders(golden.chain_of("CCCC")) == frozenset()

    def test_two_smartnic_segments(self):
        # [A@S, B@C, C@S, D@S, E@C] with SmartNIC anchors
        assert identify_borders(golden.chain_of("SCSSC")) == {0, 2, 3}

    def test_all_smartnic_chain_with_smartnic_anchors_has_no_borders(self):
        assert identify_borders(golden.chain_of("SSS")) == frozenset()

    def test_cpu_anchor_makes_chain_head_a_left_border(self):
        chain = golden.chain_of("SS", ingress=C)
        assert direct_border_scan(chain) == ({0}, set())
        assert identify_borders(chain) == {0}

    def test_singleton_segment_is_in_both_sets(self):
        chain = golden.chain_of("CSC")
        assert direct_border_scan(chain) == ({1}, {1})
        assert identify_borders(chain) == {1}

    def test_members_are_on_smartnic(self):
        rng = random.Random(3)
        for _ in range(100):
            chain, _, _ = randgen.random_scenario(rng)
            for i in identify_borders(chain):
                assert chain.placements[i] is S

    def test_matches_direct_scan_exhaustively(self):
        anchors = (S, C)
        for n in range(1, 9):
            for bits in itertools.product("SC", repeat=n):
                for ingress, egress in itertools.product(anchors, anchors):
                    chain = golden.chain_of("".join(bits), ingress=ingress, egress=egress)
                    left, right = direct_border_scan(chain)
                    assert identify_borders(chain) == left | right

    def test_matches_direct_scan_on_random_chains(self):
        rng = random.Random(4)
        for _ in range(200):
            chain, _, _ = randgen.random_scenario(rng)
            left, right = direct_border_scan(chain)
            assert identify_borders(chain) == left | right


class TestSelectCandidate:
    def test_logger_beats_firewall(self, fig1_chain, fig1_specs):
        borders = identify_borders(fig1_chain)
        assert select_candidate(fig1_chain, borders, fig1_specs) == 1  # Logger

    def test_empty_union_returns_none(self, fig1_chain, fig1_specs):
        assert select_candidate(fig1_chain, frozenset(), fig1_specs) is None

    def test_equal_capacities_tie_break_on_lowest_index(self):
        specs = {
            "pad": VnfSpec("pad", cap_smartnic=4.0, cap_cpu=4.0),
            "four": VnfSpec("four", cap_smartnic=4.0, cap_cpu=4.0),
        }
        chain = golden.chain_from_rows(
            [
                ("x", "pad", C),
                ("a", "four", S),
                ("y", "pad", C),
                ("b", "four", S),
                ("z", "pad", C),
            ]
        )
        borders = identify_borders(chain)
        assert borders == {1, 3}
        assert select_candidate(chain, borders, specs) == 1  # "a"


LOGGER = 1  # chain index of Logger in the golden chain


class TestCpuHeadroom:
    def test_golden_chain_logger_at_1_2(self, fig1_chain, fig1_specs):
        assert check_cpu_headroom(fig1_chain, fig1_specs, LOGGER, 1.2)
        assert oracle_script.cpu_headroom_values()[1.2] < 1.0

    def test_zero_load_always_passes(self, fig1_chain, fig1_specs):
        assert check_cpu_headroom(fig1_chain, fig1_specs, LOGGER, 0.0)

    def test_golden_chain_logger_at_1_5_fails(self, fig1_chain, fig1_specs):
        assert not check_cpu_headroom(fig1_chain, fig1_specs, LOGGER, 1.5)
        assert oracle_script.cpu_headroom_values()[1.5] >= 1.0


class TestAlleviated:
    """The planner's stop rule: the SmartNIC fits once the candidate has moved."""

    @staticmethod
    def alleviated(chain, specs, index, load):
        return not is_overloaded(chain.with_placement(index, C), specs, S, load)

    def test_golden_chain_without_logger(self, fig1_chain, fig1_specs):
        assert self.alleviated(fig1_chain, fig1_specs, LOGGER, 1.2)

    def test_candidate_is_only_smartnic_vnf(self, fig1_specs):
        chain = golden.chain_from_rows([("x", "LoadBalancer", C), ("Logger", "Logger", S)])
        assert self.alleviated(chain, fig1_specs, 1, 100.0)

    def test_monitor_override_at_1_6_fails(self, fig1_chain):
        specs = golden.monitor_bottleneck_specs()
        assert not self.alleviated(fig1_chain, specs, LOGGER, 1.6)


class TestPlanPam:
    def test_golden_chain_migrates_logger(self, fig1_chain, fig1_specs):
        plan = plan_pam(fig1_chain, fig1_specs, 1.2)
        assert list(plan.steps) == ["Logger"]
        assert plan.outcome is PlanOutcome.RESOLVED
        assert plan.rejected_candidates == ()
        load = 1.2
        s_util = utilization(plan.post_chain, fig1_specs, S, load)
        c_util = utilization(plan.post_chain, fig1_specs, C, load)
        expected_s, expected_c = oracle_script.golden_post_border_migration_utils(1.2)
        assert s_util == pytest.approx(expected_s, abs=1e-12)
        assert c_util == pytest.approx(expected_c, abs=1e-12)

    def test_underloaded_chain_is_left_alone(self, fig1_chain, fig1_specs):
        plan = plan_pam(fig1_chain, fig1_specs, 0.5)
        assert plan.outcome is PlanOutcome.NOT_OVERLOADED
        assert plan.steps == ()
        assert plan.post_chain == fig1_chain
        assert oracle_script.underload_utilization(0.5) < 1.0

    def test_two_step_scenario_promotes_monitor(self, fig1_chain):
        specs = golden.two_step_specs()
        plan = plan_pam(fig1_chain, specs, 1.6)
        assert list(plan.steps) == ["Logger", "Monitor"]
        assert plan.outcome is PlanOutcome.RESOLVED
        assert count_crossings(plan.post_chain) == count_crossings(fig1_chain)
        expected_steps, expected_residual = oracle_script.two_step_hand_trace()
        assert list(plan.steps) == expected_steps
        s_util = utilization(plan.post_chain, specs, S, 1.6)
        assert s_util == pytest.approx(expected_residual, abs=1e-12)

    def test_headroom_rejections_are_recorded(self, fig1_chain, fig1_specs):
        # At 1.5 Gbps the CPU cannot absorb either border vNF.
        plan = plan_pam(fig1_chain, fig1_specs, 1.5)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        assert plan.steps == ()
        assert plan.rejected_candidates == (
            "Logger",
            "Firewall",
        )
        assert plan.post_chain == fig1_chain

    def test_steps_are_smartnic_to_cpu(self, fig1_chain):
        plan = plan_pam(fig1_chain, golden.two_step_specs(), 1.6)
        assert plan.steps
        for vnf_id in plan.steps:
            i = fig1_chain.ids.index(vnf_id)
            assert fig1_chain.placements[i] is S
            assert plan.post_chain.placements[i] is C

    def test_rejected_border_is_not_readmitted_when_its_neighbor_migrates(self):
        # v2 fails the headroom check; migrating v1 then makes v2 a left
        # border too, but the CPU sum only grew, so it stays rejected.
        specs = {
            "A": VnfSpec("A", cap_smartnic=1.5, cap_cpu=4.0),
            "B": VnfSpec("B", cap_smartnic=1.0, cap_cpu=0.5),
            "H": VnfSpec("H", cap_smartnic=5.0, cap_cpu=3.0),
            "D": VnfSpec("D", cap_smartnic=2.0, cap_cpu=40.0),
        }
        chain = golden.chain_from_rows(
            [
                ("v0", "H", C),
                ("v1", "A", S),
                ("v2", "B", S),
                ("v3", "H", C),
                ("v4", "D", S),
            ]
        )
        plan = plan_pam(chain, specs, 0.9)
        assert plan.outcome is PlanOutcome.RESOLVED
        assert list(plan.steps) == ["v1", "v4"]
        assert plan.rejected_candidates == ("v2",)

    def test_singleton_segment_migrated_once(self):
        specs = {
            "slow": VnfSpec("slow", cap_smartnic=1.0, cap_cpu=16.0),
            "pad": VnfSpec("pad", cap_smartnic=16.0, cap_cpu=16.0),
        }
        chain = golden.chain_from_rows([("x", "pad", C), ("mid", "slow", S), ("y", "pad", C)])
        assert identify_borders(chain) == {1}
        plan = plan_pam(chain, specs, 1.2)
        assert list(plan.steps) == ["mid"]
        assert plan.outcome is PlanOutcome.RESOLVED

    def test_no_borders_means_scale_out_without_steps(self, fig1_specs):
        chain = golden.chain_from_rows([("Logger", "Logger", S), ("Monitor", "Monitor", S)])
        plan = plan_pam(chain, fig1_specs, 3.0)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        assert plan.steps == ()


class TestPlanNaive:
    def test_monitor_bottleneck_migrates_monitor(self, fig1_chain):
        specs = golden.monitor_bottleneck_specs()
        plan = plan_naive(fig1_chain, specs, 1.0)
        assert list(plan.steps) == ["Monitor"]
        assert plan.outcome is PlanOutcome.RESOLVED

    def test_underloaded_chain_is_left_alone(self, fig1_chain, fig1_specs):
        plan = plan_naive(fig1_chain, fig1_specs, 0.5)
        assert plan.outcome is PlanOutcome.NOT_OVERLOADED
        assert plan.steps == ()

    def test_golden_chain_coincides_with_border_policy(self, fig1_chain, fig1_specs):
        # Logger holds the global minimum capacity and is also a border.
        plan = plan_naive(fig1_chain, fig1_specs, 1.2)
        assert list(plan.steps) == ["Logger"]
        assert plan == plan_pam(fig1_chain, fig1_specs, 1.2)

    def test_can_migrate_interior_vnfs(self, fig1_chain):
        specs = golden.monitor_bottleneck_specs()
        plan = plan_naive(fig1_chain, specs, 1.0)
        post = plan.post_chain
        assert post.placements[2] is C  # Monitor was interior
        assert count_crossings(post) == count_crossings(fig1_chain) + 2


class TestPlanProperties:
    def test_border_policy_never_adds_crossings(self):
        rng = random.Random(11)
        for _ in range(300):
            chain, specs, load = randgen.random_scenario(rng)
            plan = plan_pam(chain, specs, load)
            assert count_crossings(plan.post_chain) <= count_crossings(chain)

    def test_crossing_decrease_matches_drained_interior_segments(self):
        rng = random.Random(12)
        for _ in range(300):
            chain, specs, load = randgen.random_scenario(rng)
            plan = plan_pam(chain, specs, load)
            migrated = set(plan.steps)
            drained = 0
            seq = chain.placement_sequence()
            i = 0
            while i < len(chain):
                if chain.placements[i] is S:
                    j = i
                    while j + 1 < len(chain) and chain.placements[j + 1] is S:
                        j += 1
                    flanked = seq[i] is C and seq[j + 2] is C
                    if flanked and all(vnf_id in migrated for vnf_id in chain.ids[i : j + 1]):
                        drained += 1
                    i = j + 1
                else:
                    i += 1
            decrease = count_crossings(chain) - count_crossings(plan.post_chain)
            assert decrease == 2 * drained

    def test_resolved_plans_leave_both_devices_feasible(self):
        rng = random.Random(13)
        for _ in range(300):
            chain, specs, load = randgen.random_scenario(rng)
            plan = plan_pam(chain, specs, load)
            if plan.outcome is PlanOutcome.RESOLVED:
                assert utilization(plan.post_chain, specs, S, load) < 1.0
                assert utilization(plan.post_chain, specs, C, load) < 1.0

    def test_post_chain_is_input_with_steps_applied(self):
        rng = random.Random(14)
        for _ in range(200):
            chain, specs, load = randgen.random_scenario(rng)
            for planner in (plan_pam, plan_naive):
                plan = planner(chain, specs, load)
                work = chain
                for vnf_id in plan.steps:
                    work = work.with_placement(work.ids.index(vnf_id), C)
                assert work == plan.post_chain
                rejected = list(plan.rejected_candidates)
                assert len(rejected) == len(set(rejected))

    def test_selected_candidate_always_releases_the_most(self):
        # Replay each plan: every step is a candidate of the chain it applies
        # to, and every candidate that sorts ahead of it was rejected.
        def border_pool(chain):
            return identify_borders(chain)

        def smartnic_pool(chain):
            return {i for i, p in enumerate(chain.placements) if p is S}

        rng = random.Random(15)
        for _ in range(200):
            chain, specs, load = randgen.random_scenario(rng)
            for planner, pool_of in ((plan_pam, border_pool), (plan_naive, smartnic_pool)):
                plan = planner(chain, specs, load)
                rejected = set(plan.rejected_candidates)
                work = chain
                for vnf_id in plan.steps:
                    idx = work.ids.index(vnf_id)
                    pool = pool_of(work)
                    assert idx in pool
                    key = lambda i: (specs[work.spec_names[i]].cap_smartnic, i)
                    ahead = {work.ids[i] for i in pool if key(i) < key(idx)}
                    assert ahead <= rejected
                    work = work.with_placement(idx, C)

    def test_determinism_byte_identical_plans(self):
        rng = random.Random(16)
        for _ in range(50):
            chain, specs, load = randgen.random_scenario(rng)
            for planner in (plan_pam, plan_naive):
                a = planner(chain, specs, load)
                b = planner(chain, specs, load)
                assert a == b
                assert repr(a) == repr(b)


class TestLoadBalancerStandIn:
    def test_smartnic_capacity_value_never_changes_golden_outcomes(self):
        # The profile only pins the load balancer's SmartNIC capacity as
        # "> 10"; any stand-in must leave every shipped scenario unchanged.
        cases = (
            (golden.golden_specs(), 1.2),
            (golden.monitor_bottleneck_specs(), 1.0),
            (golden.two_step_specs(), 1.6),
        )
        chain = golden.golden_chain()
        for specs, theta in cases:
            reference = (plan_pam(chain, specs, theta), plan_naive(chain, specs, theta))
            for cap in (10.01, 100.0):
                varied = dict(specs)
                varied["LoadBalancer"] = replace(specs["LoadBalancer"], cap_smartnic=cap)
                got_pam = plan_pam(chain, varied, theta)
                got_naive = plan_naive(chain, varied, theta)
                assert got_pam.steps == reference[0].steps
                assert got_pam.outcome is reference[0].outcome
                assert got_naive.steps == reference[1].steps
                assert got_naive.outcome is reference[1].outcome
                assert got_pam.post_chain.placements == reference[0].post_chain.placements


def chain_order_sum(chain, specs, device, load):
    """Device demand added left to right in chain order, as a plain loop."""
    total = 0.0
    for name, placement in zip(chain.spec_names, chain.placements):
        if placement is device:
            total += load / specs[name].capacity(device)
    return total


def reference_plan(chain, specs, load, *, borders_only):
    """The greedy loop spelled out with the reference one-step helpers.

    Rebuilds the chain and re-sums both devices every step. Returns the plan
    and every device sum a decision compared with 1.0: the CPU sum plus the
    candidate for each headroom test, the SmartNIC sum for each stop test.
    """
    if not is_overloaded(chain, specs, S, load):
        return MigrationPlan((), PlanOutcome.NOT_OVERLOADED, (), chain), []
    if borders_only:
        pool = set(identify_borders(chain))
    else:
        pool = {i for i, p in enumerate(chain.placements) if p is S}
    work = chain
    steps, rejected, sums = [], [], []
    outcome = PlanOutcome.SCALE_OUT_REQUIRED
    while (idx := select_candidate(work, pool, specs)) is not None:
        pool.discard(idx)
        cpu = chain_order_sum(work, specs, C, load)
        sums.append(cpu + load / specs[work.spec_names[idx]].cap_cpu)
        if not check_cpu_headroom(work, specs, idx, load):
            rejected.append(idx)
            continue
        steps.append(work.ids[idx])
        work = work.with_placement(idx, C)
        sums.append(chain_order_sum(work, specs, S, load))
        if not is_overloaded(work, specs, S, load):
            outcome = PlanOutcome.RESOLVED
            break
        for j in (idx - 1, idx + 1):
            if 0 <= j < len(work) and work.placements[j] is S and j not in rejected:
                pool.add(j)
    rejections = tuple(chain.ids[i] for i in rejected)
    return MigrationPlan(tuple(steps), outcome, rejections, work), sums


def long_scenario(rng):
    """100-400 vNFs with capacities scaled by chain length.

    The SmartNIC starts at 1-4x its capacity and the CPU well under its own,
    so plans take tens of steps, admit migrated vNFs' neighbours and, once
    the CPU fills, reject candidates.
    """
    n = rng.randint(100, 400)
    specs, rows = {}, []
    for j in range(n):
        name = f"nf{j}"
        specs[name] = VnfSpec(
            name,
            cap_smartnic=randgen.log_uniform(rng) * n / 8,
            cap_cpu=randgen.log_uniform(rng) * n / 2,
        )
        rows.append((name, name, rng.choice((S, C))))
    return golden.chain_from_rows(rows), specs, rng.uniform(0.5, 2.0)


class TestMatchesReferenceLoop:
    """plan_pam / plan_naive against the loop built from the reference helpers."""

    POLICIES = ((plan_pam, True), (plan_naive, False))

    def check(self, chain, specs, load):
        sums = []
        for planner, borders_only in self.POLICIES:
            expected, decided = reference_plan(chain, specs, load, borders_only=borders_only)
            got = planner(chain, specs, load)
            assert got.steps == expected.steps
            assert got.outcome is expected.outcome
            assert got.rejected_candidates == expected.rejected_candidates
            assert got.post_chain == expected.post_chain
            sums += decided
        return sums

    def test_random_scenarios(self):
        rng = random.Random(21)
        for _ in range(1500):
            self.check(*randgen.random_scenario(rng))

    def test_long_chains(self):
        rng = random.Random(22)
        mixed = 0
        for _ in range(12):
            chain, specs, load = long_scenario(rng)
            self.check(chain, specs, load)
            for planner in (plan_pam, plan_naive):
                plan = planner(chain, specs, load)
                mixed += len(plan.steps) >= 20 and len(plan.rejected_candidates) >= 20
        assert mixed >= 4

    def test_boundary_scenarios(self):
        # Some decisions must compare a chain-order sum within a few ulps of
        # 1.0, where the running sums cannot decide and the planner falls
        # back to the chain-order test.
        rng = random.Random(23)
        near_one = 0
        for _ in range(1500):
            sums = self.check(*randgen.boundary_scenario(rng))
            near_one += any(abs(s - 1.0) <= 4 * math.ulp(1.0) for s in sums)
        assert near_one >= 10


def boundary_witness():
    """C,S,S,S,C at theta = 1.0 where the CPU sums to 1.0 up to rounding."""
    caps = ((0.7, 6.0), (1.1, 3.0), (0.7, 6.0), (1.1, 3.0), (0.3, 3.0))
    specs = {f"n{i}": VnfSpec(f"n{i}", cap_smartnic=s, cap_cpu=c) for i, (s, c) in enumerate(caps)}
    chain = golden.chain_from_rows([(f"n{i}", f"n{i}", p) for i, p in enumerate((C, S, S, S, C))])
    return chain, specs, 1.0


class TestBoundaryWitness:
    def test_current_plans(self):
        chain, specs, load = boundary_witness()
        pam = plan_pam(chain, specs, load)
        assert pam.outcome is PlanOutcome.RESOLVED
        assert list(pam.steps) == ["n1", "n2"]
        assert pam.rejected_candidates == ()
        naive = plan_naive(chain, specs, load)
        assert naive.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        assert list(naive.steps) == ["n2"]
        assert naive.rejected_candidates == ("n1", "n3")

    @pytest.mark.xfail(
        strict=True,
        reason="headroom adds cpu + theta/cap where the oracle sums the post chain in "
        "chain order; the post chain's CPU reads 1.0",
    )
    def test_oracle_accepts_pam_plan(self):
        chain, specs, load = boundary_witness()
        assert verify_plan(chain, specs, load, plan_pam(chain, specs, load)).passed
