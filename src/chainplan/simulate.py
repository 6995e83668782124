"""Trace replay and side-by-side policy comparison."""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .model import Placement, Scenario, ServiceChain, VnfSpec
from .oracle import MAX_ORACLE_CHAIN, VerificationReport, verify_plan
from .perf import count_crossings, estimate_latency
from .planner import MigrationPlan, PlanOutcome, plan_naive, plan_pam
from .resources import hosted, max_chain_throughput
from .scenario_io import TracePoint

_PLANNERS = {"pam": plan_pam, "naive": plan_naive}

POLICIES = (*_PLANNERS, "none")


class TimelineRecord(NamedTuple):
    """State after one planning round of a trace replay."""

    t: float
    theta_cur: float
    policy: str
    smartnic_util: float
    cpu_util: float
    crossings: int
    latency_us: float
    max_throughput_gbps: float
    migrations_this_step: tuple[str, ...]
    cumulative_migrations: int
    outcome: str


def _figures(chain: ServiceChain, specs: Mapping[str, VnfSpec], pcie_latency_us: float) -> tuple:
    """The chain's crossings, latency and max throughput."""
    return (
        count_crossings(chain),
        estimate_latency(chain, specs, pcie_latency_us),
        max_chain_throughput(chain, specs),
    )


def run_trace(
    scenario: Scenario, trace: Sequence[TracePoint], policy: str
) -> tuple[TimelineRecord, ...]:
    """Replay a load trace, planning against the carried-forward chain.

    Policy `none` never migrates; its outcome column reports `Overloaded`
    whenever the SmartNIC demand is at or past capacity.

    Each vNF's SmartNIC and CPU capacities are read once, and each device's
    hosted ones are picked once per chain state. A point's utilization adds
    theta / cap over them in chain order, left to right from int 0: the
    additions of `chain_sum` and `utilization`, so a device hosting nothing
    reports 0. The planner runs only at points whose SmartNIC sum is
    >= 1.0: below that (or at NaN) it would stop at its own overload test
    and return the chain unchanged.
    Nor does it run at a load of at least `floor`, the load of the last
    plan if that plan returned ScaleOutRequired (the chain is then still
    its `post_chain`): such a point is ScaleOutRequired with no migration.
    Proof sketch: every SmartNIC vNF in the post chain's pool was queued in
    that plan and rejected there against a CPU set that the post chain's
    contains. At a load theta' >= floor no ratio theta'/cap is smaller, and
    a chain-order float sum with a term inserted or enlarged is never
    smaller (rounding is monotone), so `fits` rejects each vNF again: no
    step, so no new border. The proof needs ratios >= 0, so the floor is
    kept only when every SmartNIC and CPU capacity of the chain is > 0.
    Crossings, latency and max throughput depend only on the chain, so they
    are computed once for each chain a record shows: the start chain unless
    the first point migrates, then the chain after each migrating point (a
    plan that moves nothing returns the input chain object).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if not trace:
        raise ValueError("trace is empty")

    planner = _PLANNERS.get(policy)
    chain = scenario.chain
    specs = scenario.specs
    nic_col = [specs[name].cap_smartnic for name in chain.spec_names]
    cpu_col = [specs[name].cap_cpu for name in chain.spec_names]
    nic_caps = hosted(nic_col, chain.placements, Placement.SMARTNIC)
    cpu_caps = hosted(cpu_col, chain.placements, Placement.CPU)
    # The floor's proof needs every ratio >= 0; a NaN capacity fails too.
    monotone = all([c > 0 for c in nic_col + cpu_col])
    floor = None
    not_overloaded = PlanOutcome.NOT_OVERLOADED.value
    scale_out = PlanOutcome.SCALE_OUT_REQUIRED.value
    # `_make` is a Python-level call; tuple.__new__ builds the same record in C.
    new_record = tuple.__new__
    shown = None
    cumulative = 0
    records: list[TimelineRecord] = []
    for t, theta in trace:
        nic_util = 0
        for c in nic_caps:
            nic_util += theta / c
        migrated: tuple[str, ...] = ()
        if not nic_util >= 1.0:
            outcome = not_overloaded
        elif planner is None:
            outcome = "Overloaded"
        elif floor is not None and theta >= floor:
            outcome = scale_out
        else:
            plan = planner(chain, specs, theta)
            outcome = plan.outcome.value
            floor = theta if monotone and outcome == scale_out else None
            if plan.post_chain is not chain:
                chain = plan.post_chain
                migrated = plan.steps
                cumulative += len(migrated)
                nic_caps = hosted(nic_col, chain.placements, Placement.SMARTNIC)
                cpu_caps = hosted(cpu_col, chain.placements, Placement.CPU)
                nic_util = 0
                for c in nic_caps:
                    nic_util += theta / c
        if chain is not shown:
            shown = chain
            crossings, latency, max_throughput = _figures(chain, specs, scenario.pcie_latency_us)
        cpu_util = 0
        for c in cpu_caps:
            cpu_util += theta / c
        records.append(
            new_record(
                TimelineRecord,
                (
                    t, theta, policy, nic_util, cpu_util, crossings, latency,
                    max_throughput, migrated, cumulative, outcome,
                ),
            )
        )
    return tuple(records)


class PolicyResult(NamedTuple):
    """One policy's plan plus before/after performance numbers."""

    policy: str
    plan: MigrationPlan
    crossings_before: int
    crossings_after: int
    latency_before_us: float
    latency_after_us: float
    max_throughput_before_gbps: float
    max_throughput_after_gbps: float
    verification: VerificationReport | None


class ComparisonReport(NamedTuple):
    """Both policies run from the same start on the same load.

    `latency_reduction_pct` is how much lower the border policy's post
    latency is relative to the baseline's, in percent. It is 0 when the two
    are equal (both inf included) or the baseline's is not positive, and 100
    when only the baseline's is inf, so an overflowing latency gives no NaN.
    """

    theta_cur: float
    pcie_latency_us: float
    pam: PolicyResult
    naive: PolicyResult
    latency_reduction_pct: float


def _policy_result(
    scenario: Scenario, policy: str, before: tuple[int, float, float]
) -> PolicyResult:
    """One policy's result; `before` holds the input chain's `_figures`,
    which both policies share. Only pam's verification checks crossings."""
    chain, specs, theta = scenario.chain, scenario.specs, scenario.theta_cur
    plan = _PLANNERS[policy](chain, specs, theta)
    verification = None
    if len(chain) <= MAX_ORACLE_CHAIN:
        verification = verify_plan(
            chain, specs, theta, plan, require_crossing_nonincrease=policy == "pam"
        )
    post = plan.post_chain
    # A plan that moved nothing returns the input chain object.
    after = before if post is chain else _figures(post, specs, scenario.pcie_latency_us)
    return PolicyResult(
        policy=policy,
        plan=plan,
        crossings_before=before[0],
        crossings_after=after[0],
        latency_before_us=before[1],
        latency_after_us=after[1],
        max_throughput_before_gbps=before[2],
        max_throughput_after_gbps=after[2],
        verification=verification,
    )


def compare(scenario: Scenario) -> ComparisonReport:
    """Plan with both policies from the same start and report the deltas.

    The baseline is allowed to add crossings, so its verification skips the
    crossing check; everything else is certified for both plans.
    """
    before = _figures(scenario.chain, scenario.specs, scenario.pcie_latency_us)
    pam = _policy_result(scenario, "pam", before)
    naive = _policy_result(scenario, "naive", before)
    pam_us, naive_us = pam.latency_after_us, naive.latency_after_us
    if pam_us == naive_us or not naive_us > 0:
        reduction = 0.0
    elif naive_us == math.inf:
        reduction = 100.0
    else:
        reduction = 100.0 * (naive_us - pam_us) / naive_us
    return ComparisonReport(
        theta_cur=scenario.theta_cur,
        pcie_latency_us=scenario.pcie_latency_us,
        pam=pam,
        naive=naive,
        latency_reduction_pct=reduction,
    )
