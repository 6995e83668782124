"""Placement planning and analytic performance models for SmartNIC/CPU service chains."""

from .model import (
    DEFAULT_PCIE_LATENCY_US,
    Placement,
    Scenario,
    ServiceChain,
    ValidationReport,
    Violation,
    VnfSpec,
    builtin_table1,
    validate,
)
from .oracle import (
    ChainTooLongError,
    PlacementRecord,
    VerificationReport,
    border_peel_closure,
    enumerate_placements,
    verify_plan,
)
from .perf import count_crossings, estimate_latency
from .planner import (
    MigrationPlan,
    PlanOutcome,
    identify_borders,
    plan_naive,
    plan_pam,
)
from .reports import emit_report, parse_timeline_csv, timeline_to_csv
from .resources import is_overloaded, max_chain_throughput, utilization
from .scenario_io import (
    ScenarioFormatError,
    ScenarioValidationError,
    TracePoint,
    load_scenario,
    load_trace,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .simulate import ComparisonReport, PolicyResult, TimelineRecord, compare, run_trace

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PCIE_LATENCY_US",
    "ChainTooLongError",
    "ComparisonReport",
    "MigrationPlan",
    "PlacementRecord",
    "Placement",
    "PlanOutcome",
    "PolicyResult",
    "Scenario",
    "ScenarioFormatError",
    "ScenarioValidationError",
    "ServiceChain",
    "TimelineRecord",
    "TracePoint",
    "ValidationReport",
    "VerificationReport",
    "Violation",
    "VnfSpec",
    "border_peel_closure",
    "builtin_table1",
    "compare",
    "count_crossings",
    "emit_report",
    "enumerate_placements",
    "estimate_latency",
    "identify_borders",
    "is_overloaded",
    "load_scenario",
    "load_trace",
    "max_chain_throughput",
    "parse_timeline_csv",
    "plan_naive",
    "plan_pam",
    "run_trace",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "timeline_to_csv",
    "utilization",
    "validate",
    "verify_plan",
]
