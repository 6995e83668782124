"""Command-line interface: plan, simulate, compare, verify.

Exit codes: 0 success (and verification pass), 1 validation or parse error,
2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .model import Placement, Scenario, validate
from .oracle import verify_plan
from .perf import count_crossings
from .planner import MigrationPlan, plan_pam
from .reports import comparison_svg, timeline_svg, timeline_to_csv
from .resources import utilization
from .scenario_io import (
    ScenarioFormatError,
    ScenarioValidationError,
    load_scenario,
    load_trace,
)
from .simulate import _PLANNERS, POLICIES, ComparisonReport, compare, run_trace

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_IO_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument(
        "--pcie-latency-us",
        type=float,
        default=None,
        help="override the scenario's per-crossing latency",
    )

    parser = argparse.ArgumentParser(
        prog="chainplan",
        description="Plan SmartNIC/CPU migrations for a service chain and estimate their cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[common], help="plan migrations for one load level")
    p.add_argument("--policy", required=True, choices=tuple(_PLANNERS))
    p.add_argument("--json", action="store_true", help="emit the plan as JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", parents=[common], help="replay a load trace")
    p.add_argument("--trace", required=True, help="trace CSV file (t,theta_cur_gbps)")
    p.add_argument("--policy", required=True, choices=POLICIES)
    p.add_argument("--out", required=True, help="timeline CSV output path")
    p.add_argument("--svg", default=None, help="also write an SVG chart here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", parents=[common], help="run both policies side by side")
    p.add_argument("--json", action="store_true", help="emit the comparison as JSON")
    p.add_argument("--svg", default=None, help="also write an SVG chart here")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", parents=[common], help="certify the border plan against brute force")
    p.set_defaults(func=_cmd_verify)

    return parser


def _load(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.pcie_latency_us is not None:
        scenario = replace(scenario, pcie_latency_us=args.pcie_latency_us)
        report = validate(scenario)
        if not report.ok:
            raise ScenarioValidationError(report)
    return scenario


def _rejections(plan: MigrationPlan) -> list[dict]:
    # The planner rejects a candidate only for lack of CPU headroom.
    return [{"vnf_id": vnf_id, "reason": "cpu_headroom"} for vnf_id in plan.rejected_candidates]


def _plan_payload(scenario: Scenario, policy: str, plan: MigrationPlan) -> dict:
    before, after = scenario.chain, plan.post_chain

    def util(chain, device):
        return utilization(chain, scenario.specs, device, scenario.theta_cur)

    return {
        "policy": policy,
        "theta_cur_gbps": scenario.theta_cur,
        "outcome": plan.outcome.value,
        "steps": [
            {
                "vnf_id": vnf_id,
                "from": Placement.SMARTNIC.value,
                "to": Placement.CPU.value,
                "reason": "min_smartnic_capacity",
                "selected_as_candidate": True,
            }
            for vnf_id in plan.steps
        ],
        "rejected_candidates": _rejections(plan),
        "post_placements": [
            {"id": v.id, "placement": v.placement.value} for v in after.vnfs
        ],
        "smartnic_util_before": util(before, Placement.SMARTNIC),
        "smartnic_util_after": util(after, Placement.SMARTNIC),
        "cpu_util_before": util(before, Placement.CPU),
        "cpu_util_after": util(after, Placement.CPU),
        "crossings_before": count_crossings(before),
        "crossings_after": count_crossings(after),
    }


def _print_plan_text(payload: dict) -> None:
    print(f"policy: {payload['policy']}")
    print(f"theta_cur: {payload['theta_cur_gbps']} Gbps")
    print(f"outcome: {payload['outcome']}")
    if payload["steps"]:
        print("steps:")
        for i, s in enumerate(payload["steps"], start=1):
            print(f"  {i}. {s['vnf_id']}: {s['from']} -> {s['to']}")
    else:
        print("steps: (none)")
    if payload["rejected_candidates"]:
        rejected = ", ".join(
            f"{r['vnf_id']} ({r['reason']})" for r in payload["rejected_candidates"]
        )
        print(f"rejected: {rejected}")
    print(
        f"smartnic utilization: {payload['smartnic_util_before']!r} -> "
        f"{payload['smartnic_util_after']!r}"
    )
    print(f"cpu utilization: {payload['cpu_util_before']!r} -> {payload['cpu_util_after']!r}")
    print(f"crossings: {payload['crossings_before']} -> {payload['crossings_after']}")


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = _load(args)
    plan = _PLANNERS[args.policy](scenario.chain, scenario.specs, scenario.theta_cur)
    payload = _plan_payload(scenario, args.policy, plan)
    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        _print_plan_text(payload)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    records = run_trace(scenario, load_trace(args.trace), args.policy)
    Path(args.out).write_text(timeline_to_csv(records))
    if args.svg:
        Path(args.svg).write_text(timeline_svg(records))
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _comparison_payload(report: ComparisonReport) -> dict:
    def policy_payload(result) -> dict:
        payload = {
            "outcome": result.plan.outcome.value,
            "steps": list(result.plan.steps),
            "rejected_candidates": _rejections(result.plan),
            "crossings_before": result.crossings_before,
            "crossings_after": result.crossings_after,
            "latency_before_us": result.latency_before_us,
            "latency_after_us": result.latency_after_us,
            "max_throughput_before_gbps": result.max_throughput_before_gbps,
            "max_throughput_after_gbps": result.max_throughput_after_gbps,
        }
        if result.verification is not None:
            payload["verification"] = "pass" if result.verification.passed else "fail"
        return payload

    return {
        "theta_cur_gbps": report.theta_cur,
        "pcie_latency_us": report.pcie_latency_us,
        "pam": policy_payload(report.pam),
        "naive": policy_payload(report.naive),
        "latency_reduction_pct": report.latency_reduction_pct,
    }


def _print_comparison_text(payload: dict) -> None:
    print(
        f"theta_cur: {payload['theta_cur_gbps']} Gbps, "
        f"pcie latency: {payload['pcie_latency_us']} us/crossing"
    )
    for policy in ("pam", "naive"):
        p = payload[policy]
        print(f"== {policy} ==")
        print(f"outcome: {p['outcome']}")
        print(f"steps: {', '.join(p['steps']) if p['steps'] else '(none)'}")
        print(f"crossings: {p['crossings_before']} -> {p['crossings_after']}")
        print(f"latency_us: {p['latency_before_us']!r} -> {p['latency_after_us']!r}")
        print(
            f"max_throughput_gbps: {p['max_throughput_before_gbps']!r} -> "
            f"{p['max_throughput_after_gbps']!r}"
        )
        if "verification" in p:
            print(f"verification: {p['verification']}")
    print(f"pam latency vs naive: {payload['latency_reduction_pct']:.1f}% lower")


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load(args)
    report = compare(scenario)
    payload = _comparison_payload(report)
    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        _print_comparison_text(payload)
    if args.svg:
        Path(args.svg).write_text(comparison_svg(report))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = _load(args)
    chain, specs, theta = scenario.chain, scenario.specs, scenario.theta_cur
    report = verify_plan(chain, specs, theta, plan_pam(chain, specs, theta))
    for a in report.assertions:
        line = f"{'PASS' if a.passed else 'FAIL'} {a.name}"
        if a.detail:
            line += f": {a.detail}"
        print(line)
    for key, value in report.info:
        print(f"info {key}: {value}")
    if report.passed:
        print("verified")
        return EXIT_OK
    print("verification failed")
    return EXIT_VERIFICATION_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioFormatError, ScenarioValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
