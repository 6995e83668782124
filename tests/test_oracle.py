from __future__ import annotations

import random

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    ChainTooLongError,
    LoadState,
    MigrationPlan,
    MigrationStep,
    Placement,
    PlanOutcome,
    ServiceChain,
    VnfInstance,
    VnfSpec,
    border_peel_closure,
    enumerate_placements,
    plan_pam,
    verify_plan,
)

S = Placement.SMARTNIC
C = Placement.CPU


class TestEnumeratePlacements:
    def test_single_vnf_gives_two_records(self, fig1_specs):
        chain = ServiceChain((VnfInstance("Logger", "Logger", S),))
        records = enumerate_placements(chain, fig1_specs, LoadState(1.0))
        assert len(records) == 2

    def test_golden_chain_gives_32_records(self, fig1_chain, fig1_specs):
        records = enumerate_placements(fig1_chain, fig1_specs, LoadState(1.2))
        assert len(records) == 32

    def test_binary_counting_order(self, fig1_chain, fig1_specs):
        records = enumerate_placements(fig1_chain, fig1_specs, LoadState(1.2))
        n = len(fig1_chain)
        assert records[0].placement_vector == (S,) * n
        assert records[-1].placement_vector == (C,) * n
        assert records[1].placement_vector == (C, S, S, S, S)
        # Index 19 = binary 10011: vNFs 0, 1 and 4 on the CPU.
        assert records[19].placement_vector == (C, C, S, S, C)

    def test_migration_counts_are_relative_to_input(self, fig1_chain, fig1_specs):
        records = enumerate_placements(fig1_chain, fig1_specs, LoadState(1.2))
        # Input is C,S,S,S,C: the all-SmartNIC record moves nothing toward the CPU.
        assert records[0].migrations_from_input == 0
        # Record 19 (C,C,S,S,C) moves only Logger.
        assert records[19].migrations_from_input == 1
        assert records[-1].migrations_from_input == 3

    def test_minimum_migration_scan_certifies_the_border_plan(self, fig1_chain, fig1_specs):
        load = LoadState(1.2)
        base_crossings = 4
        records = enumerate_placements(fig1_chain, fig1_specs, load)
        input_vec = fig1_chain.placements()
        candidates = []
        for record in records:
            reachable = all(
                not (a is C and b is S)
                for a, b in zip(input_vec, record.placement_vector)
            )
            if (
                reachable
                and record.feasible_smartnic
                and record.feasible_cpu
                and record.crossings <= base_crossings
            ):
                candidates.append(record)
        smallest = min(r.migrations_from_input for r in candidates)
        assert smallest == 1
        moved_sets = {
            frozenset(
                fig1_chain.vnfs[j].id
                for j in range(len(fig1_chain))
                if input_vec[j] is S and r.placement_vector[j] is C
            )
            for r in candidates
            if r.migrations_from_input == smallest
        }
        assert moved_sets == oracle_script.golden_minimum_migration_sets(1.2)
        # In enumeration order the first minimal record is the border plan's.
        first = next(r for r in candidates if r.migrations_from_input == smallest)
        assert first.placement_vector == (C, C, S, S, C)

    def test_flags_match_inline_recomputation(self):
        rng = random.Random(31)
        for _ in range(30):
            chain, specs, load = randgen.random_scenario(rng, max_len=8)
            theta = load.theta_cur
            for record in enumerate_placements(chain, specs, load):
                s_util = c_util = 0.0
                for v, p in zip(chain.vnfs, record.placement_vector):
                    if p is S:
                        s_util += theta / specs[v.spec].cap_smartnic
                    else:
                        c_util += theta / specs[v.spec].cap_cpu
                seq = (chain.ingress_anchor, *record.placement_vector, chain.egress_anchor)
                crossings = sum(1 for a, b in zip(seq, seq[1:]) if a is not b)
                assert record.feasible_smartnic == (s_util < 1.0)
                assert record.feasible_cpu == (c_util < 1.0)
                assert record.crossings == crossings

    def test_rejects_chains_over_the_cap(self, fig1_specs):
        vnfs = tuple(VnfInstance(f"n{i}", "Logger", S) for i in range(21))
        with pytest.raises(ChainTooLongError):
            enumerate_placements(ServiceChain(vnfs), fig1_specs, LoadState(0.1))


class TestVerifyPlan:
    def test_golden_border_plan_passes(self, fig1_chain, fig1_specs):
        load = LoadState(1.2)
        plan = plan_pam(fig1_chain, fig1_specs, load)
        report = verify_plan(fig1_chain, fig1_specs, load, plan)
        assert report.passed
        assert {a.name for a in report.assertions} == {
            "reachability",
            "resolved_feasibility",
            "crossing_nonincrease",
        }

    def test_not_overloaded_plan_trivially_passes(self, fig1_chain, fig1_specs):
        load = LoadState(0.5)
        plan = plan_pam(fig1_chain, fig1_specs, load)
        report = verify_plan(fig1_chain, fig1_specs, load, plan)
        assert report.passed

    def test_bogus_interior_plan_fails_the_crossing_check(self, fig1_chain, fig1_specs):
        load = LoadState(1.2)
        bogus = MigrationPlan(
            steps=(MigrationStep("Monitor"),),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain.with_placement(2, C),
        )
        report = verify_plan(fig1_chain, fig1_specs, load, bogus)
        assert not report.passed
        failed = {a.name: a for a in report.assertions if not a.passed}
        assert set(failed) == {"crossing_nonincrease"}
        assert "6 > 4" in failed["crossing_nonincrease"].detail

    def test_crossing_check_can_be_disabled_for_baselines(self, fig1_chain, fig1_specs):
        load = LoadState(1.2)
        bogus = MigrationPlan(
            steps=(MigrationStep("Monitor"),),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain.with_placement(2, C),
        )
        report = verify_plan(
            fig1_chain, fig1_specs, load, bogus, require_crossing_nonincrease=False
        )
        assert report.passed

    def test_mismatched_post_chain_fails_reachability(self, fig1_chain, fig1_specs):
        load = LoadState(1.2)
        bogus = MigrationPlan(
            steps=(MigrationStep("Logger"),),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain,  # claims nothing moved
        )
        report = verify_plan(fig1_chain, fig1_specs, load, bogus)
        failed = {a.name for a in report.assertions if not a.passed}
        assert "reachability" in failed

    def test_infeasible_resolved_claim_fails(self, fig1_chain, fig1_specs):
        load = LoadState(3.0)
        bogus = MigrationPlan(
            steps=(),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain,
        )
        report = verify_plan(fig1_chain, fig1_specs, load, bogus)
        failed = {a.name for a in report.assertions if not a.passed}
        assert "resolved_feasibility" in failed

    def test_random_border_plans_pass(self):
        rng = random.Random(32)
        for _ in range(200):
            chain, specs, load = randgen.random_scenario(rng)
            plan = plan_pam(chain, specs, load)
            report = verify_plan(chain, specs, load, plan)
            assert report.passed, report


class TestBorderPeelClosure:
    def test_contains_the_input(self, fig1_chain):
        states = list(border_peel_closure(fig1_chain))
        assert states[0] == fig1_chain

    def test_golden_chain_closure_is_prefix_suffix_peels(self, fig1_chain):
        vectors = {c.placements() for c in border_peel_closure(fig1_chain)}
        # The single segment Logger..Firewall peels from either end: any
        # placement keeping a contiguous SmartNIC run (possibly empty).
        expected = set()
        for start in range(1, 4):
            for end in range(start - 1, 4):
                vec = [C, C, C, C, C]
                for j in range(start, end + 1):
                    vec[j] = S
                expected.add(tuple(vec))
        assert vectors == expected

    def test_anchor_protected_ends_never_peel_from_that_side(self):
        chain = golden.chain_of("SSC")
        vectors = {c.placements() for c in border_peel_closure(chain)}
        # nf0's upstream is the SmartNIC anchor, so it only leaves after nf1.
        assert (C, S, C) not in vectors
        assert vectors == {(S, S, C), (S, C, C), (C, C, C)}


class TestKnownGreedyLimitation:
    def test_min_capacity_first_can_miss_a_peelable_solution(self):
        # The loop must migrate the smallest-capacity border whenever the CPU
        # can absorb it. Here that burns the headroom nf3..nf8 would have
        # needed, while leaving nf0+nf1 (utilization 0.997) in place and
        # draining the right segment is feasible. The brute-force check
        # reports the missed placement as a witness.
        s_caps = (0.74, 0.57, 3.75, 2.57, 4.64, 8.62, 0.58, 0.5, 1.01)
        c_caps = (7.29, 0.79, 6.81, 2.68, 1.84, 1.51, 13.99, 1.82, 12.03)
        placements = "SSCSSSSSS"
        specs = {
            f"nf{i}": VnfSpec(f"nf{i}", cap_smartnic=s, cap_cpu=c)
            for i, (s, c) in enumerate(zip(s_caps, c_caps))
        }
        chain = ServiceChain(
            tuple(
                VnfInstance(f"nf{i}", f"nf{i}", S if p == "S" else C)
                for i, p in enumerate(placements)
            )
        )
        load = LoadState(0.321)
        plan = plan_pam(chain, specs, load)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        report = verify_plan(chain, specs, load, plan)
        assert not report.passed
        failed = {a.name: a for a in report.assertions if not a.passed}
        assert set(failed) == {"scale_out_certified"}
        assert "S,S,C,C,C,C,C,C,C" in failed["scale_out_certified"].detail
        assert dict(report.info)["global_feasible_subset"] != "none"
