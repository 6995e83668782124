"""Trace replay and side-by-side policy comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import LoadState, Placement, Scenario, ServiceChain, VnfSpec
from .oracle import MAX_ORACLE_CHAIN, VerificationReport, verify_plan
from .perf import count_crossings, estimate_latency
from .planner import MigrationPlan, PlanOutcome, plan_naive, plan_pam
from .resources import chain_sum, max_chain_throughput
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
    """Replay a load trace, planning against the carried-forward chain.

    Policy `none` never migrates; its outcome column reports `Overloaded`
    whenever the SmartNIC demand is at or past capacity.

    Each device's hosted capacities are cached per chain state, and a
    point's utilization is the `chain_sum` of theta / cap over them in chain
    order, the same additions as `utilization`. The planner runs only at
    points whose SmartNIC sum is >= 1.0: below that (or at NaN) it would stop
    at its own `is_overloaded` test and return the chain unchanged.
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
    nic_caps = _hosted_capacities(chain, specs, Placement.SMARTNIC)
    cpu_caps = _hosted_capacities(chain, specs, Placement.CPU)
    shown = None
    cumulative = 0
    records: list[TimelineRecord] = []
    for point in trace:
        theta = point.theta_cur
        nic_util = chain_sum([theta / c for c in nic_caps])
        migrated: tuple[str, ...] = ()
        if not nic_util >= 1.0:
            outcome = PlanOutcome.NOT_OVERLOADED.value
        elif planner is None:
            outcome = "Overloaded"
        else:
            plan = planner(chain, specs, LoadState(theta))
            outcome = plan.outcome.value
            if plan.post_chain is not chain:
                chain = plan.post_chain
                migrated = tuple(s.vnf_id for s in plan.steps)
                cumulative += len(migrated)
                nic_caps = _hosted_capacities(chain, specs, Placement.SMARTNIC)
                cpu_caps = _hosted_capacities(chain, specs, Placement.CPU)
                nic_util = chain_sum([theta / c for c in nic_caps])
        if chain is not shown:
            shown = chain
            crossings = count_crossings(chain)
            latency = estimate_latency(chain, specs, scenario.pcie_latency_us)
            max_throughput = max_chain_throughput(chain, specs)
        records.append(
            TimelineRecord(
                t=point.t,
                theta_cur=theta,
                policy=policy,
                smartnic_util=nic_util,
                cpu_util=chain_sum([theta / c for c in cpu_caps]),
                crossings=crossings,
                latency_us=latency,
                max_throughput_gbps=max_throughput,
                migrations_this_step=migrated,
                cumulative_migrations=cumulative,
                outcome=outcome,
            )
        )
    return tuple(records)


def _hosted_capacities(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], device: Placement
) -> tuple[float, ...]:
    """Capacities on `device` of the vNFs it hosts, in chain order."""
    return tuple(specs[v.spec].capacity(device) for v in chain.vnfs if v.placement is device)


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
