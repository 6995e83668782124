"""Trace replay and side-by-side policy comparison."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .model import Placement, Scenario
from .oracle import MAX_ORACLE_CHAIN, VerificationReport, verify_plan
from .perf import count_crossings, estimate_latency
from .planner import MigrationPlan, PlanOutcome, plan_naive, plan_pam
from .resources import hosted, max_chain_throughput
from .scenario_io import TracePoint

POLICIES = ("pam", "naive", "none")

_PLANNERS = {"pam": plan_pam, "naive": plan_naive}


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
    not_overloaded = PlanOutcome.NOT_OVERLOADED.value
    make = TimelineRecord._make
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
        else:
            plan = planner(chain, specs, theta)
            outcome = plan.outcome.value
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
            crossings = count_crossings(chain)
            latency = estimate_latency(chain, specs, scenario.pcie_latency_us)
            max_throughput = max_chain_throughput(chain, specs)
        cpu_util = 0
        for c in cpu_caps:
            cpu_util += theta / c
        records.append(
            make(
                (
                    t, theta, policy, nic_util, cpu_util, crossings, latency,
                    max_throughput, migrated, cumulative, outcome,
                )
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
    latency is relative to the baseline's, in percent.
    """

    theta_cur: float
    pcie_latency_us: float
    pam: PolicyResult
    naive: PolicyResult
    latency_reduction_pct: float


def _policy_result(scenario: Scenario, policy: str, check_crossings: bool) -> PolicyResult:
    chain, specs, theta = scenario.chain, scenario.specs, scenario.theta_cur
    plan = _PLANNERS[policy](chain, specs, theta)
    verification = None
    if len(chain) <= MAX_ORACLE_CHAIN:
        verification = verify_plan(
            chain, specs, theta, plan, require_crossing_nonincrease=check_crossings
        )
    return PolicyResult(
        policy=policy,
        plan=plan,
        crossings_before=count_crossings(chain),
        crossings_after=count_crossings(plan.post_chain),
        latency_before_us=estimate_latency(chain, specs, scenario.pcie_latency_us),
        latency_after_us=estimate_latency(plan.post_chain, specs, scenario.pcie_latency_us),
        max_throughput_before_gbps=max_chain_throughput(chain, specs),
        max_throughput_after_gbps=max_chain_throughput(plan.post_chain, specs),
        verification=verification,
    )


def compare(scenario: Scenario) -> ComparisonReport:
    """Plan with both policies from the same start and report the deltas.

    The baseline is allowed to add crossings, so its verification skips the
    crossing check; everything else is certified for both plans.
    """
    pam = _policy_result(scenario, "pam", check_crossings=True)
    naive = _policy_result(scenario, "naive", check_crossings=False)
    if naive.latency_after_us > 0:
        reduction = 100.0 * (naive.latency_after_us - pam.latency_after_us) / naive.latency_after_us
    else:
        reduction = 0.0
    return ComparisonReport(
        theta_cur=scenario.theta_cur,
        pcie_latency_us=scenario.pcie_latency_us,
        pam=pam,
        naive=naive,
        latency_reduction_pct=reduction,
    )
