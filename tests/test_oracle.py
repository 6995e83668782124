from __future__ import annotations

import math
import random
from collections import deque

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    ChainTooLongError,
    MigrationPlan,
    Placement,
    PlanOutcome,
    Scenario,
    ServiceChain,
    VnfSpec,
    border_peel_closure,
    count_crossings,
    enumerate_placements,
    identify_borders,
    plan_naive,
    plan_pam,
    validate,
    verify_plan,
)
from chainplan import oracle
from chainplan.oracle import MAX_ORACLE_CHAIN, AssertionResult, VerificationReport
from chainplan.resources import chain_sum, demand_ratios, fits, hosted

S = Placement.SMARTNIC
C = Placement.CPU


class TestEnumeratePlacements:
    def test_single_vnf_gives_two_records(self, fig1_specs):
        chain = golden.chain_from_rows([("Logger", "Logger", S)])
        records = enumerate_placements(chain, fig1_specs, 1.0)
        assert len(records) == 2

    def test_golden_chain_gives_32_records(self, fig1_chain, fig1_specs):
        records = enumerate_placements(fig1_chain, fig1_specs, 1.2)
        assert len(records) == 32

    def test_binary_counting_order(self, fig1_chain, fig1_specs):
        records = enumerate_placements(fig1_chain, fig1_specs, 1.2)
        n = len(fig1_chain)
        assert records[0].placement_vector == (S,) * n
        assert records[-1].placement_vector == (C,) * n
        assert records[1].placement_vector == (C, S, S, S, S)
        # Index 19 = binary 10011: vNFs 0, 1 and 4 on the CPU.
        assert records[19].placement_vector == (C, C, S, S, C)

    def test_migration_counts_are_relative_to_input(self, fig1_chain, fig1_specs):
        records = enumerate_placements(fig1_chain, fig1_specs, 1.2)
        # Input is C,S,S,S,C: the all-SmartNIC record moves nothing toward the CPU.
        assert records[0].migrations_from_input == 0
        # Record 19 (C,C,S,S,C) moves only Logger.
        assert records[19].migrations_from_input == 1
        assert records[-1].migrations_from_input == 3

    def test_minimum_migration_scan_certifies_the_border_plan(self, fig1_chain, fig1_specs):
        load = 1.2
        base_crossings = 4
        records = enumerate_placements(fig1_chain, fig1_specs, load)
        input_vec = fig1_chain.placements
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
                fig1_chain.ids[j]
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
            theta = load
            for record in enumerate_placements(chain, specs, load):
                s_util = c_util = 0.0
                for spec, p in zip(chain.spec_names, record.placement_vector):
                    if p is S:
                        s_util += theta / specs[spec].cap_smartnic
                    else:
                        c_util += theta / specs[spec].cap_cpu
                seq = (chain.ingress_anchor, *record.placement_vector, chain.egress_anchor)
                crossings = sum(1 for a, b in zip(seq, seq[1:]) if a is not b)
                assert record.feasible_smartnic == (s_util < 1.0)
                assert record.feasible_cpu == (c_util < 1.0)
                assert record.crossings == crossings

    def test_rejects_chains_over_the_cap(self, fig1_specs):
        chain = golden.chain_from_rows([(f"n{i}", "Logger", S) for i in range(21)])
        with pytest.raises(ChainTooLongError):
            enumerate_placements(chain, fig1_specs, 0.1)


class TestVerifyPlan:
    def test_golden_border_plan_passes(self, fig1_chain, fig1_specs):
        load = 1.2
        plan = plan_pam(fig1_chain, fig1_specs, load)
        report = verify_plan(fig1_chain, fig1_specs, load, plan)
        assert report.passed
        assert {a.name for a in report.assertions} == {
            "reachability",
            "resolved_feasibility",
            "crossing_nonincrease",
        }

    def test_not_overloaded_plan_trivially_passes(self, fig1_chain, fig1_specs):
        load = 0.5
        plan = plan_pam(fig1_chain, fig1_specs, load)
        report = verify_plan(fig1_chain, fig1_specs, load, plan)
        assert report.passed

    def test_bogus_interior_plan_fails_the_crossing_check(self, fig1_chain, fig1_specs):
        load = 1.2
        bogus = MigrationPlan(
            steps=("Monitor",),
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
        load = 1.2
        bogus = MigrationPlan(
            steps=("Monitor",),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain.with_placement(2, C),
        )
        report = verify_plan(
            fig1_chain, fig1_specs, load, bogus, require_crossing_nonincrease=False
        )
        assert report.passed

    def test_mismatched_post_chain_fails_reachability(self, fig1_chain, fig1_specs):
        load = 1.2
        bogus = MigrationPlan(
            steps=("Logger",),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain,  # claims nothing moved
        )
        report = verify_plan(fig1_chain, fig1_specs, load, bogus)
        failed = {a.name for a in report.assertions if not a.passed}
        assert "reachability" in failed

    @pytest.mark.parametrize(
        "steps, detail",
        [
            (("nope",), "step 1 names unknown vNF 'nope'"),
            (("Logger", "nope"), "step 2 names unknown vNF 'nope'"),
            (("LB",), "step 1 migrates 'LB' which is not on the SmartNIC in C,S,S,S,C"),
            (("Logger", "Logger"), "step 2 migrates 'Logger' which is not on the SmartNIC in C,C,S,S,C"),
            (("Logger",), "replayed steps give C,C,S,S,C but post_chain is C,S,S,S,C"),
        ],
    )
    def test_reachability_failures_name_the_step(self, fig1_chain, fig1_specs, steps, detail):
        bogus = MigrationPlan(steps, PlanOutcome.NOT_OVERLOADED, (), fig1_chain)
        report = verify_plan(fig1_chain, fig1_specs, 1.2, bogus)
        assert report.assertions[0] == ("reachability", False, detail)

    @pytest.mark.parametrize(
        "column, value, detail",
        [
            ("ids", ("a", "b", "c", "d", "e"),
             "replayed steps give ids ('LB', 'Logger', 'Monitor', 'Firewall', 'C2') "
             "but post_chain has ('a', 'b', 'c', 'd', 'e')"),
            ("spec_names", ("Nope",) * 5,
             "replayed steps give spec_names ('LoadBalancer', 'Logger', 'Monitor', 'Firewall', 'C2') "
             "but post_chain has ('Nope', 'Nope', 'Nope', 'Nope', 'Nope')"),
            ("egress_anchor", C,
             "replayed steps give egress_anchor Placement.SMARTNIC but post_chain has Placement.CPU"),
        ],
        ids=["ids", "spec_names", "egress_anchor"],
    )
    def test_reachability_failure_names_the_differing_column(
        self, fig1_chain, fig1_specs, column, value, detail
    ):
        # The placements agree, so the placement labels alone would not say
        # what differs.
        plan = plan_pam(fig1_chain, fig1_specs, 1.2)
        post = plan.post_chain._replace(**{column: value})
        report = verify_plan(fig1_chain, fig1_specs, 1.2, plan._replace(post_chain=post))
        assert report.assertions[0] == ("reachability", False, detail)

    def test_infeasible_resolved_claim_fails(self, fig1_chain, fig1_specs):
        load = 3.0
        bogus = MigrationPlan(
            steps=(),
            outcome=PlanOutcome.RESOLVED,
            rejected_candidates=(),
            post_chain=fig1_chain,
        )
        report = verify_plan(fig1_chain, fig1_specs, load, bogus)
        failed = {a.name: a.detail for a in report.assertions if not a.passed}
        assert failed == {
            "resolved_feasibility": "post placement C,S,S,S,C has smartnic=2.7375, cpu=1.5"
        }

    def test_unknown_post_chain_spec_fails_resolved_feasibility(self, fig1_chain, fig1_specs):
        plan = plan_pam(fig1_chain, fig1_specs, 1.2)
        post = plan.post_chain._replace(spec_names=("Nope",) * len(fig1_chain))
        report = verify_plan(fig1_chain, fig1_specs, 1.2, plan._replace(post_chain=post))
        failed = {a.name: a.detail for a in report.assertions if not a.passed}
        assert failed["resolved_feasibility"] == "post_chain names unknown spec 'Nope'"

    def test_random_border_plans_pass(self):
        rng = random.Random(32)
        for _ in range(200):
            chain, specs, load = randgen.random_scenario(rng)
            plan = plan_pam(chain, specs, load)
            report = verify_plan(chain, specs, load, plan)
            assert report.passed, report


def reference_reachability(chain: ServiceChain, plan: MigrationPlan) -> AssertionResult:
    """Check (a) replayed chain by chain: one `with_placement` copy per step,
    then the whole replayed chain compared with `post_chain`."""
    work = chain
    for step_no, vnf_id in enumerate(plan.steps, start=1):
        if vnf_id not in work.ids:
            return AssertionResult("reachability", False, f"step {step_no} names unknown vNF {vnf_id!r}")
        idx = work.ids.index(vnf_id)
        if work.placements[idx] is not S:
            return AssertionResult(
                "reachability", False,
                f"step {step_no} migrates {vnf_id!r} which is not on the SmartNIC in {label(work.placements)}",
            )
        work = work.with_placement(idx, C)
    post = plan.post_chain
    if work.placements != post.placements:
        return AssertionResult(
            "reachability", False,
            f"replayed steps give {label(work.placements)} but post_chain is {label(post.placements)}",
        )
    if work != post:
        column, mine, theirs = next(
            (name, getattr(work, name), getattr(post, name))
            for name in ("ids", "spec_names", "ingress_anchor", "egress_anchor")
            if getattr(work, name) != getattr(post, name)
        )
        return AssertionResult(
            "reachability", False, f"replayed steps give {column} {mine} but post_chain has {theirs}"
        )
    return AssertionResult("reachability", True, "")


def malformed_plan(rng: random.Random, chain: ServiceChain, plan: MigrationPlan) -> MigrationPlan:
    """`plan` with one of its steps or one field of its post chain changed."""
    steps, post = list(plan.steps), plan.post_chain
    at = rng.randint(0, len(steps))
    j = rng.randrange(len(chain))
    kind = rng.choice(("unknown", "repeated", "cpu", "reordered", "placement", "id", "spec", "anchor"))
    if kind == "unknown":
        steps.insert(at, rng.choice(("nope", "", chain.ids[j] + "x")))
    elif kind == "repeated" and steps:
        steps.insert(at, rng.choice(steps))
    elif kind == "cpu":
        steps.insert(at, rng.choice([*(i for i, p in zip(chain.ids, post.placements) if p is C), "nope"]))
    elif kind == "reordered":
        rng.shuffle(steps)
    elif kind == "placement":
        flipped = C if post.placements[j] is S else S
        post = post._replace(placements=(*post.placements[:j], flipped, *post.placements[j + 1:]))
    elif kind == "id":
        post = post._replace(ids=(*post.ids[:j], post.ids[j] + "'", *post.ids[j + 1:]))
    elif kind == "spec":
        post = post._replace(spec_names=(*post.spec_names[:j], "Nope", *post.spec_names[j + 1:]))
    elif kind == "anchor":
        side = rng.choice(("ingress_anchor", "egress_anchor"))
        post = post._replace(**{side: C if getattr(post, side) is S else S})
    return plan._replace(steps=tuple(steps), post_chain=post)


class TestReachabilityReplay:
    """Check (a) replays the steps on one placement list; its reports are the
    chain-by-chain replay's."""

    def test_same_reports_as_replaying_chain_by_chain(self):
        rng = random.Random(27)
        details = []
        for i in range(1500):
            generate = randgen.boundary_scenario if i % 2 else randgen.random_scenario
            chain, specs, load = generate(rng)
            if i % 3 == 0:
                chain = chain._replace(ingress_anchor=rng.choice((S, C)), egress_anchor=rng.choice((S, C)))
            plan = rng.choice((plan_pam, plan_naive))(chain, specs, load)
            if i % 5:
                plan = malformed_plan(rng, chain, plan)
            report = verify_plan(chain, specs, load, plan)
            assert report.assertions[0] == reference_reachability(chain, plan), (chain, plan)
            details.append(report.assertions[0].detail)
        kinds = {
            "passed": [d for d in details if not d],
            "unknown": [d for d in details if "names unknown vNF" in d],
            "not on the SmartNIC": [d for d in details if "not on the SmartNIC" in d],
            "placements": [d for d in details if " but post_chain is " in d],
        }
        for column in ("ids", "spec_names", "ingress_anchor", "egress_anchor"):
            kinds[column] = [d for d in details if d.startswith(f"replayed steps give {column} ")]
        assert all(len(found) >= 20 for found in kinds.values()), {k: len(v) for k, v in kinds.items()}

    def test_makes_no_with_placement_call(self, fig1_chain, fig1_specs, monkeypatch):
        plans = [planner(fig1_chain, fig1_specs, load) for planner in (plan_pam, plan_naive) for load in (1.2, 3.0)]
        plans.append(plans[0]._replace(steps=("Logger", "Logger")))
        assert any(plan.steps for plan in plans)
        calls = []
        original = ServiceChain.with_placement

        def counted(chain, index, placement):
            calls.append(index)
            return original(chain, index, placement)

        monkeypatch.setattr(ServiceChain, "with_placement", counted)
        for plan in plans:
            verify_plan(fig1_chain, fig1_specs, 1.2, plan)
        assert calls == []


def reference_closure(chain: ServiceChain):
    """Reference border-peel closure over chains: breadth-first from the
    input, each state a rebuilt chain whose borders are found from scratch."""
    seen = {chain.placements}
    queue = deque([chain])
    while queue:
        cur = queue.popleft()
        yield cur
        for i in sorted(identify_borders(cur)):
            nxt = cur.with_placement(i, C)
            if nxt.placements not in seen:
                seen.add(nxt.placements)
                queue.append(nxt)


def random_anchored_chain(rng: random.Random, max_len: int = randgen.MAX_CHAIN) -> ServiceChain:
    return randgen.random_scenario(rng, max_len)[0]._replace(
        ingress_anchor=rng.choice((S, C)),
        egress_anchor=rng.choice((S, C)),
    )


class TestBorderPeelClosure:
    def test_contains_the_input(self, fig1_chain):
        states = list(border_peel_closure(fig1_chain))
        assert states[0] == fig1_chain.placements

    def test_golden_chain_closure_is_prefix_suffix_peels(self, fig1_chain):
        vectors = set(border_peel_closure(fig1_chain))
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
        vectors = set(border_peel_closure(chain))
        # nf0's upstream is the SmartNIC anchor, so it only leaves after nf1.
        assert (C, S, C) not in vectors
        assert vectors == {(S, S, C), (S, C, C), (C, C, C)}

    def test_no_state_adds_crossings(self):
        # Migrating a border changes the crossing count by 0 or -2, which is
        # why `verify_plan`'s scale-out check has no crossing test.
        def crossings(seq):
            return sum(1 for a, b in zip(seq, seq[1:]) if a is not b)

        rng = random.Random(55)
        for _ in range(300):
            chain = random_anchored_chain(rng)
            base = count_crossings(chain)
            anchors = chain.ingress_anchor, chain.egress_anchor
            assert all(
                crossings((anchors[0], *vec, anchors[1])) <= base
                for vec in border_peel_closure(chain)
            )

    def test_same_sequence_as_the_reference_closure(self):
        # Same states in the same breadth-first order, so `verify_plan`'s
        # first witness is unchanged.
        rng = random.Random(1913)
        states = 0
        for _ in range(1000):
            chain = random_anchored_chain(rng, 12)
            expected = [state.placements for state in reference_closure(chain)]
            assert list(border_peel_closure(chain)) == expected, chain
            states += len(expected)
        assert states > 10_000


def chain_from(placements: str, caps) -> tuple[ServiceChain, dict[str, VnfSpec]]:
    """vNF i is `nf{i}` with (SmartNIC, CPU) capacities caps[i], on "S" or "C"."""
    specs = {
        f"nf{i}": VnfSpec(f"nf{i}", cap_smartnic=s, cap_cpu=c) for i, (s, c) in enumerate(caps)
    }
    chain = golden.chain_from_rows(
        [(f"nf{i}", f"nf{i}", S if p == "S" else C) for i, p in enumerate(placements)]
    )
    return chain, specs


def greedy_limitation(cpu_padding: int = 0):
    """The 9-vNF chain of `TestKnownGreedyLimitation`, with `cpu_padding`
    light CPU vNFs added to its CPU run; the padding changes no decision."""
    caps = [(0.74, 7.29), (0.57, 0.79), (3.75, 6.81), (2.57, 2.68), (4.64, 1.84),
            (8.62, 1.51), (0.58, 13.99), (0.5, 1.82), (1.01, 12.03)]
    caps[3:3] = [(1.0, 1000.0)] * cpu_padding
    return (*chain_from("SSC" + "C" * cpu_padding + "SSSSSS", caps), 0.321)


class TestKnownGreedyLimitation:
    def test_min_capacity_first_can_miss_a_peelable_solution(self):
        # The loop must migrate the smallest-capacity border whenever the CPU
        # can absorb it. Here that burns the headroom nf3..nf8 would have
        # needed, while leaving nf0+nf1 (utilization 0.997) in place and
        # draining the right segment is feasible. The brute-force check
        # reports the missed placement as a witness.
        chain, specs, load = greedy_limitation()
        plan = plan_pam(chain, specs, load)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        report = verify_plan(chain, specs, load, plan)
        assert not report.passed
        failed = {a.name: a for a in report.assertions if not a.passed}
        assert set(failed) == {"scale_out_certified"}
        assert "S,S,C,C,C,C,C,C,C" in failed["scale_out_certified"].detail
        assert dict(report.info)["global_feasible_subset"] != "none"


def label(vec) -> str:
    return ",".join("S" if p is S else "C" for p in vec)


def reference_global_subset(chain, specs, load) -> tuple[str, bool]:
    """`global_feasible_subset` by the full scan `verify_plan` used to run.

    Also says whether a record up to the first witness lies where only the
    chain order decides: it is reachable, adds no crossings, neither
    chain-order sum exceeds 1.0 by more than 4 ulps and one lies within 4
    ulps of 1.0, so summing its ratios in another order could flip its fit.
    """
    base_crossings = count_crossings(chain)
    input_vec = chain.placements
    theta = load
    near_one = False
    for record in enumerate_placements(chain, specs, load):
        vec = record.placement_vector
        reachable = all(not (a is C and b is S) for a, b in zip(input_vec, vec))
        if not reachable or record.crossings > base_crossings:
            continue
        nic = chain_sum(theta / specs[n].cap_smartnic for n, p in zip(chain.spec_names, vec) if p is S)
        cpu = chain_sum(theta / specs[n].cap_cpu for n, p in zip(chain.spec_names, vec) if p is C)
        edge = 4 * math.ulp(1.0)
        near_one |= max(nic, cpu) <= 1.0 + edge and min(abs(nic - 1.0), abs(cpu - 1.0)) <= edge
        if record.feasible_smartnic and record.feasible_cpu:
            return label(vec), near_one
    return "none", near_one


class TestGlobalFeasibleSubset:
    """`verify_plan`'s pruned walk against the full scan, on ScaleOutRequired plans."""

    def check(self, chain, specs, load) -> list[tuple[str, bool]]:
        plans = [planner(chain, specs, load) for planner in (plan_pam, plan_naive)]
        plans = [plan for plan in plans if plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED]
        if not plans:
            return []
        expected = reference_global_subset(chain, specs, load)
        for plan in plans:
            report = verify_plan(chain, specs, load, plan)
            assert dict(report.info)["global_feasible_subset"] == expected[0]
        return [expected] * len(plans)

    def check_claim(self, chain, specs, load) -> tuple[str, bool]:
        # A claimed ScaleOutRequired plan runs the walk whatever the planners decide.
        claim = MigrationPlan((), PlanOutcome.SCALE_OUT_REQUIRED, (), chain)
        expected = reference_global_subset(chain, specs, load)
        assert dict(verify_plan(chain, specs, load, claim).info)["global_feasible_subset"] == expected[0]
        return expected

    def test_random_scenarios(self):
        rng = random.Random(53)
        results = []
        for _ in range(80):
            results += self.check(*randgen.random_scenario(rng, max_len=12))
        assert len(results) >= 50
        assert any(found == "none" for found, _ in results)

    def test_boundary_scenarios(self):
        # Witnesses are rare (a few per 500 plans), and some leaves sum to
        # within a few ulps of 1.0, where only chain-order sums decide.
        rng = random.Random(51)
        results = []
        for _ in range(800):
            results += self.check(*randgen.boundary_scenario(rng, max_len=8))
        found = {expected for expected, _ in results}
        assert "none" in found and len(found) > 1
        assert sum(near_one for _, near_one in results) >= 10

    @pytest.mark.parametrize(
        "placements, caps, expected",
        [
            # On one device, ratios 0.1, 0.2, 0.7 sum to 1.0 in chain order
            # (no fit) and to 0.9999999999999999 from the right; 0.7, 0.2,
            # 0.1 the other way round (a fit that reads 1.0 from the right).
            # A walk deciding from the right that carried its sums would add
            # in those other orders (stayers from the right, the input's CPU
            # vNFs before the moved ones) and flip each answer.
            ("SSS", [(10.0, 100.0), (5.0, 100.0), (1 / 0.7, 100.0)], "none"),
            ("SSS", [(1 / 0.7, 100.0), (5.0, 100.0), (10.0, 100.0)], "S,S,S"),
            ("SCC", [(1.0, 10.0), (100.0, 5.0), (100.0, 1 / 0.7)], "none"),
            ("SCC", [(1.0, 1 / 0.7), (100.0, 5.0), (100.0, 10.0)], "C,C,C"),
        ],
    )
    def test_chain_order_decides_inside_the_band(self, placements, caps, expected):
        chain, specs = chain_from(placements, caps)
        assert self.check_claim(chain, specs, 1.0) == (expected, True)

    def test_anchored_scenarios(self):
        rng = random.Random(55)
        results = []
        for i in range(300):
            generate = randgen.boundary_scenario if i % 2 else randgen.random_scenario
            chain, specs, load = generate(rng, max_len=8 if i % 2 else 10)
            ingress, egress = rng.choice((S, C)), rng.choice((S, C))
            chain = chain._replace(ingress_anchor=ingress, egress_anchor=egress)
            results += [*self.check(chain, specs, load), self.check_claim(chain, specs, load)]
        found = {expected for expected, _ in results}
        assert len(results) >= 400
        assert "none" in found and len(found) > 20
        assert any(near_one for _, near_one in results)

    def test_infinite_and_nan_ratios(self):
        # theta = inf gives inf ratios, and inf over an inf capacity NaN; a
        # finite theta over an inf capacity gives ratio 0.
        rng = random.Random(56)
        found = set()
        for i in range(200):
            n = rng.randint(1, 8)
            placements = "".join(rng.choice("SC") for _ in range(n))
            caps = [
                tuple(math.inf if rng.random() < 0.4 else randgen.log_uniform(rng) for _ in "SC")
                for _ in range(n)
            ]
            chain, specs = chain_from(placements, caps)
            ingress, egress = rng.choice((S, C)), rng.choice((S, C))
            chain = chain._replace(ingress_anchor=ingress, egress_anchor=egress)
            load = math.inf if i % 2 else rng.uniform(0.1, 4.0)
            assert validate(Scenario(chain, specs, load)).ok
            found.add((load == math.inf, self.check_claim(chain, specs, load)[0]))
        # No device fits an inf or NaN ratio, so theta = inf has no witness.
        assert (True, "none") in found and not any(inf and e != "none" for inf, e in found)
        assert len(found) > 10

    def test_first_of_several_fits_is_reported(self, fig1_chain, fig1_specs):
        # On the fig1 chain at 1.2 Gbps several subsets fit; counting order
        # puts C,C,S,S,C (index 0b10011) first.
        expected = oracle_script.golden_first_feasible_subset(1.2)
        assert expected == "C,C,S,S,C"
        assert self.check_claim(fig1_chain, fig1_specs, 1.2)[0] == expected

    def test_known_limitation_witness(self):
        chain, specs, load = greedy_limitation()
        assert self.check(chain, specs, load) == [("S,S,C,C,C,C,C,C,C", False)]


def brute_force_subset(chain, specs, load) -> str:
    """First feasible subset of the SmartNIC vNFs moved to the CPU, in
    binary-counting order over chain positions, with chain-order sums."""
    theta = load
    nic_positions = [j for j, p in enumerate(chain.placements) if p is S]
    base_crossings = count_crossings(chain)
    for mask in range(1 << len(nic_positions)):
        vec = list(chain.placements)
        for bit, j in enumerate(nic_positions):
            if (mask >> bit) & 1:
                vec[j] = C
        nic = chain_sum(theta / specs[n].cap_smartnic for n, p in zip(chain.spec_names, vec) if p is S)
        cpu = chain_sum(theta / specs[n].cap_cpu for n, p in zip(chain.spec_names, vec) if p is C)
        crossings = count_crossings(chain._replace(placements=tuple(vec)))
        if nic < 1.0 and cpu < 1.0 and crossings <= base_crossings:
            return label(vec)
    return "none"


class TestAtTheCap:
    """20-vNF chains (MAX_ORACLE_CHAIN) with at most 10 SmartNIC vNFs."""

    def test_padded_limitation_chain_has_the_brute_force_witness(self):
        chain, specs, load = greedy_limitation(cpu_padding=11)
        assert len(chain) == MAX_ORACLE_CHAIN
        plan = plan_pam(chain, specs, load)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        expected = brute_force_subset(chain, specs, load)
        assert expected == "S,S" + ",C" * 18
        assert dict(verify_plan(chain, specs, load, plan).info)["global_feasible_subset"] == expected

    def test_random_chains_match_brute_force(self):
        rng = random.Random(54)
        checked = 0
        while checked < 3:
            on_nic = set(rng.sample(range(MAX_ORACLE_CHAIN), 10))
            placements = "".join("S" if j in on_nic else "C" for j in range(MAX_ORACLE_CHAIN))
            caps = [(randgen.log_uniform(rng), randgen.log_uniform(rng)) for _ in placements]
            chain, specs = chain_from(placements, caps)
            load = rng.uniform(0.05, 0.4)
            plan = plan_pam(chain, specs, load)
            if plan.outcome is not PlanOutcome.SCALE_OUT_REQUIRED:
                continue
            report = verify_plan(chain, specs, load, plan)
            assert dict(report.info)["global_feasible_subset"] == brute_force_subset(chain, specs, load)
            checked += 1


def closure_first_report(chain, specs, load, plan) -> VerificationReport:
    """`verify_plan`'s report with check (d) taken from a scan of the whole
    border-peel closure, whatever the walk finds, and the walk then run for
    `global_feasible_subset`."""
    report = verify_plan(chain, specs, load, plan)
    if plan.outcome is not PlanOutcome.SCALE_OUT_REQUIRED:
        return report
    s_ratio, c_ratio = demand_ratios(chain, specs, load)
    witness = next(
        (
            vec
            for vec in border_peel_closure(chain)
            if fits(hosted(s_ratio, vec, S)) and fits(hosted(c_ratio, vec, C))
        ),
        None,
    )
    certified = AssertionResult(
        "scale_out_certified",
        witness is None,
        "" if witness is None
        else f"border-peelable placement {label(witness)} is fully feasible without adding crossings",
    )
    walked = oracle._first_reachable_witness(chain, s_ratio, c_ratio, count_crossings(chain))
    assert report.assertions[-1].name == "scale_out_certified"
    assertions = (*report.assertions[:-1], certified)
    info = (("global_feasible_subset", "none" if walked is None else label(walked)),)
    return VerificationReport(all(a.passed for a in assertions), assertions, info)


def unreachable_subset_chain():
    """A chain whose only fitting subsets empty nf1's run (CPU on both sides,
    -2 crossings) and move nf4 out of the middle of nf3..nf5 (+2): nf3 and
    nf5 fill the CPU on their own, so no border migration order fits."""
    caps = [(100.0, 100.0), (1 / 0.45, 100.0), (100.0, 100.0), (1 / 0.3, 1.0),
            (1 / 0.45, 100.0), (1 / 0.3, 1.0), (100.0, 100.0)]
    return (*chain_from("CSCSSSC", caps), 1.0)


class TestScaleOutCertificate:
    """Check (d) is decided by the walk; the closure is scanned only to name a witness."""

    def check(self, chain, specs, load) -> list[str]:
        # Both planners' plans and a ScaleOutRequired claim, which (d) checks
        # whatever the planners decide.
        plans = [planner(chain, specs, load) for planner in (plan_pam, plan_naive)]
        plans.append(MigrationPlan((), PlanOutcome.SCALE_OUT_REQUIRED, (), chain))
        kinds = []
        for plan in plans:
            report = verify_plan(chain, specs, load, plan)
            assert report == closure_first_report(chain, specs, load, plan), (chain, specs, load, plan)
            if plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED:
                found = dict(report.info)["global_feasible_subset"] != "none"
                kinds.append("witness" if not report.passed else "unreached" if found else "none")
        return kinds

    def test_same_reports_as_scanning_the_closure_first(self):
        rng = random.Random(57)
        kinds = []
        for i in range(600):
            generate = randgen.boundary_scenario if i % 2 else randgen.random_scenario
            chain, specs, load = generate(rng, max_len=8 if i % 2 else 12)
            if i % 3 == 0:
                chain = chain._replace(ingress_anchor=rng.choice((S, C)), egress_anchor=rng.choice((S, C)))
            kinds += self.check(chain, specs, load)
        for chain, specs, load in (greedy_limitation(), greedy_limitation(cpu_padding=11),
                                   unreachable_subset_chain()):
            kinds += self.check(chain, specs, load)
        # A fitting subset that no border migration reaches is rare in random
        # chains; `unreachable_subset_chain` gives one for both of its plans.
        assert len(kinds) >= 1000
        assert kinds.count("none") >= 500 and kinds.count("witness") >= 100
        assert kinds.count("unreached") >= 2

    @pytest.fixture
    def closure_calls(self, monkeypatch) -> list[ServiceChain]:
        calls = []

        def counted(chain):
            calls.append(chain)
            return border_peel_closure(chain)

        monkeypatch.setattr(oracle, "border_peel_closure", counted)
        return calls

    def test_no_scan_when_no_subset_fits(self, fig1_chain, fig1_specs, closure_calls):
        plan = plan_pam(fig1_chain, fig1_specs, 3.0)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        report = verify_plan(fig1_chain, fig1_specs, 3.0, plan)
        assert report.passed and dict(report.info)["global_feasible_subset"] == "none"
        assert closure_calls == []

    def test_one_scan_names_the_missed_peel(self, closure_calls):
        chain, specs, load = greedy_limitation()
        report = verify_plan(chain, specs, load, plan_pam(chain, specs, load))
        assert report.assertions[-1] == (
            "scale_out_certified",
            False,
            "border-peelable placement S,S,C,C,C,C,C,C,C is fully feasible without adding crossings",
        )
        assert closure_calls == [chain]

    def test_one_scan_finds_no_witness_for_an_unreachable_subset(self, closure_calls):
        chain, specs, load = unreachable_subset_chain()
        plan = plan_pam(chain, specs, load)
        assert plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED
        report = verify_plan(chain, specs, load, plan)
        assert report.passed
        assert dict(report.info)["global_feasible_subset"] == "C,C,C,S,C,S,C"
        assert closure_calls == [chain]
