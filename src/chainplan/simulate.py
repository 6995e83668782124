"""Trace replay and side-by-side policy comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import LoadState, Placement, Scenario
from .oracle import MAX_ORACLE_CHAIN, VerificationReport, verify_plan
from .perf import count_crossings, estimate_latency
from .planner import MigrationPlan, PlanOutcome, plan_naive, plan_pam
from .resources import is_overloaded, max_chain_throughput, utilization
from .scenario_io import TracePoint

POLICIES = ("pam", "naive", "none")

_PLANNERS = {"pam": plan_pam, "naive": plan_naive}


@dataclass(frozen=True)
class TimelineRecord:
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
    """Replay a load trace, planning once per point against the carried-forward chain.

    Policy `none` never migrates; its outcome column reports `Overloaded`
    whenever the SmartNIC demand is at or past capacity.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if not trace:
        raise ValueError("trace is empty")

    chain = scenario.chain
    specs = scenario.specs
    cumulative = 0
    records: list[TimelineRecord] = []
    for point in trace:
        load = LoadState(point.theta_cur)
        if policy == "none":
            migrated: tuple[str, ...] = ()
            if is_overloaded(chain, specs, Placement.SMARTNIC, load):
                outcome = "Overloaded"
            else:
                outcome = PlanOutcome.NOT_OVERLOADED.value
        else:
            plan = _PLANNERS[policy](chain, specs, load)
            chain = plan.post_chain
            migrated = tuple(s.vnf_id for s in plan.steps)
            cumulative += len(migrated)
            outcome = plan.outcome.value
        records.append(
            TimelineRecord(
                t=point.t,
                theta_cur=point.theta_cur,
                policy=policy,
                smartnic_util=utilization(chain, specs, Placement.SMARTNIC, load),
                cpu_util=utilization(chain, specs, Placement.CPU, load),
                crossings=count_crossings(chain),
                latency_us=estimate_latency(chain, specs, scenario.pcie_latency_us),
                max_throughput_gbps=max_chain_throughput(chain, specs),
                migrations_this_step=migrated,
                cumulative_migrations=cumulative,
                outcome=outcome,
            )
        )
    return tuple(records)


@dataclass(frozen=True)
class PolicyResult:
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


@dataclass(frozen=True)
class ComparisonReport:
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
    chain, specs, load = scenario.chain, scenario.specs, scenario.load
    plan = _PLANNERS[policy](chain, specs, load)
    verification = None
    if len(chain) <= MAX_ORACLE_CHAIN:
        verification = verify_plan(
            chain, specs, load, plan, require_crossing_nonincrease=check_crossings
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
        theta_cur=scenario.load.theta_cur,
        pcie_latency_us=scenario.pcie_latency_us,
        pam=pam,
        naive=naive,
        latency_reduction_pct=reduction,
    )
