"""Command-line interface: plan, simulate, compare, verify.

Exit codes: 0 success (and verification pass), 1 validation or parse error,
2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .model import Placement, Scenario, validate
from .oracle import verify_plan
from .perf import count_crossings
from .planner import MigrationPlan, plan_pam
from .reports import comparison_svg, timeline_svg, timeline_to_csv
from .resources import demand_ratios, device_sums
from .scenario_io import ScenarioValidationError, load_scenario, load_trace
from .simulate import _PLANNERS, POLICIES, ComparisonReport, PolicyResult, compare, run_trace

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_IO_ERROR = 3


def _load(args: SimpleNamespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.pcie_latency_us is not None:
        scenario = scenario._replace(pcie_latency_us=args.pcie_latency_us)
        report = validate(scenario)
        if not report.ok:
            raise ScenarioValidationError(report)
    return scenario


def _number_text(x: float) -> str:
    """The JSON text of an int or float, as `json.dumps` writes it: its repr.

    A NaN or infinity raises json's ValueError, as `allow_nan=False` does.
    """
    if not -math.inf < x < math.inf:
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(x)


# The planner rejects a candidate only for lack of CPU headroom.
_REJECTION_REASON = "cpu_headroom"


def _plan_figures(scenario: Scenario, plan: MigrationPlan) -> tuple:
    """The SmartNIC utilization before and after `plan`, the CPU's, then the
    crossings. Each utilization is a device's `device_sums` entry, as
    `utilization` adds it, so a device hosting nothing reads int 0."""
    before, after = scenario.chain, plan.post_chain
    # One set of ratios serves both chains: a plan's post_chain is its input
    # re-placed, with the same spec_names.
    nic, cpu = demand_ratios(before, scenario.specs, scenario.theta_cur)
    nic_before, cpu_before = device_sums(nic, cpu, before.placements)
    crossings_before = count_crossings(before)
    if after is before:  # the plan moved nothing
        return nic_before, nic_before, cpu_before, cpu_before, crossings_before, crossings_before
    nic_after, cpu_after = device_sums(nic, cpu, after.placements)
    return nic_before, nic_after, cpu_before, cpu_after, crossings_before, count_crossings(after)


# The plan document's fixed text before and after the vNF id of each entry of
# its `steps`, `rejected_candidates` and `post_placements`.
_VNF_ID_HEAD = '{\n      "vnf_id": '
_STEP_TAIL = (
    ',\n      "from": "SmartNIC",\n      "to": "CPU",\n      "reason": "min_smartnic_capacity",'
    '\n      "selected_as_candidate": true\n    }'
)
_REJECTION_TAIL = ',\n      "reason": ' + encode_basestring_ascii(_REJECTION_REASON) + "\n    }"
_PLACEMENT_HEAD = '{\n      "id": '
_NIC_TAIL, _CPU_TAIL = [
    ',\n      "placement": ' + encode_basestring_ascii(p.value) + "\n    }"
    for p in (Placement.SMARTNIC, Placement.CPU)
]
# The `compare` document's rejections, whose list sits two spaces deeper.
_POLICY_REJECTION_HEAD, _POLICY_REJECTION_TAIL = [
    text.replace("\n", "\n  ") for text in (_VNF_ID_HEAD, _REJECTION_TAIL)
]


def _entries(texts: list[str], indent: str) -> str:
    """The JSON list of the written `texts`, its `]` at `indent`. The small
    parts are joined first: each `+` on the long body copies it."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(texts) + ("\n" + indent + "]") if texts else "[]"


def _plan_json(scenario: Scenario, policy: str, plan: MigrationPlan) -> str:
    """The `plan --json` document, written straight from the plan.

    It is the text `json.dumps(payload, indent=2, allow_nan=False)` returns for
    the plan's payload of dicts (`reference_payload` in tests/test_cli.py), with
    one concatenation per vNF. Scalars are encoded first, in document order,
    so a non-finite utilization raises json's ValueError.
    """
    theta, nic_before, nic_after, cpu_before, cpu_after, crossings_before, crossings_after = [
        _number_text(x) for x in (scenario.theta_cur, *_plan_figures(scenario, plan))
    ]
    enc = encode_basestring_ascii
    # `is` on the two members: a dict keyed by Placement would hash each
    # member through Enum's Python-level __hash__.
    nic, nic_tail, cpu_tail = Placement.SMARTNIC, _NIC_TAIL, _CPU_TAIL
    return "".join((
        '{\n  "policy": ', enc(policy),
        ',\n  "theta_cur_gbps": ', theta,
        ',\n  "outcome": ', enc(plan.outcome.value),
        ',\n  "steps": ', _entries([_VNF_ID_HEAD + enc(i) + _STEP_TAIL for i in plan.steps], "  "),
        ',\n  "rejected_candidates": ', _entries(
            [_VNF_ID_HEAD + enc(i) + _REJECTION_TAIL for i in plan.rejected_candidates], "  "
        ),
        ',\n  "post_placements": ', _entries([
            _PLACEMENT_HEAD + enc(i) + (nic_tail if p is nic else cpu_tail)
            for i, p in zip(plan.post_chain.ids, plan.post_chain.placements)
        ], "  "),
        ',\n  "smartnic_util_before": ', nic_before,
        ',\n  "smartnic_util_after": ', nic_after,
        ',\n  "cpu_util_before": ', cpu_before,
        ',\n  "cpu_util_after": ', cpu_after,
        ',\n  "crossings_before": ', crossings_before,
        ',\n  "crossings_after": ', crossings_after,
        "\n}",
    ))


def _print_plan_text(scenario: Scenario, policy: str, plan: MigrationPlan) -> None:
    nic_before, nic_after, cpu_before, cpu_after, crossings_before, crossings_after = (
        _plan_figures(scenario, plan)
    )
    print(f"policy: {policy}")
    print(f"theta_cur: {scenario.theta_cur} Gbps")
    print(f"outcome: {plan.outcome.value}")
    if plan.steps:
        print("steps:")
        for i, vnf_id in enumerate(plan.steps, start=1):
            print(f"  {i}. {vnf_id}: SmartNIC -> CPU")
    else:
        print("steps: (none)")
    if plan.rejected_candidates:
        rejected = ", ".join(f"{r} ({_REJECTION_REASON})" for r in plan.rejected_candidates)
        print(f"rejected: {rejected}")
    print(f"smartnic utilization: {nic_before!r} -> {nic_after!r}")
    print(f"cpu utilization: {cpu_before!r} -> {cpu_after!r}")
    print(f"crossings: {crossings_before} -> {crossings_after}")


def _cmd_plan(args: SimpleNamespace) -> int:
    scenario = _load(args)
    plan = _PLANNERS[args.policy](scenario.chain, scenario.specs, scenario.theta_cur)
    if args.json:
        print(_plan_json(scenario, args.policy, plan))
    else:
        _print_plan_text(scenario, args.policy, plan)
    return EXIT_OK


def _cmd_simulate(args: SimpleNamespace) -> int:
    scenario = _load(args)
    records = run_trace(scenario, load_trace(args.trace), args.policy)
    # Both texts come first: one that raises leaves neither file behind.
    timeline = timeline_to_csv(records)
    chart = timeline_svg(records) if args.svg else None
    Path(args.out).write_text(timeline, encoding="utf-8")
    if chart is not None:
        Path(args.svg).write_text(chart, encoding="utf-8")
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _policy_json(result: PolicyResult) -> str:
    """One policy's object in the `compare --json` document, at indent 2.
    A result with no verification (a chain past the oracle's limit) gets no
    `verification` key."""
    plan, verification, enc = result.plan, result.verification, encode_basestring_ascii
    # A list, not a tuple: CPython 3.11 frees a 20-item tuple onto a free list
    # it never takes one back from, so each call would keep one until 2,000.
    return "".join([
        '{\n    "outcome": ', enc(plan.outcome.value),
        ',\n    "steps": ', _entries([enc(i) for i in plan.steps], "    "),
        ',\n    "rejected_candidates": ', _entries([
            _POLICY_REJECTION_HEAD + enc(i) + _POLICY_REJECTION_TAIL
            for i in plan.rejected_candidates
        ], "    "),
        ',\n    "crossings_before": ', _number_text(result.crossings_before),
        ',\n    "crossings_after": ', _number_text(result.crossings_after),
        ',\n    "latency_before_us": ', _number_text(result.latency_before_us),
        ',\n    "latency_after_us": ', _number_text(result.latency_after_us),
        ',\n    "max_throughput_before_gbps": ', _number_text(result.max_throughput_before_gbps),
        ',\n    "max_throughput_after_gbps": ', _number_text(result.max_throughput_after_gbps),
        "" if verification is None
        else ',\n    "verification": ' + ('"pass"' if verification.passed else '"fail"'),
        "\n  }",
    ])


def _comparison_json(report: ComparisonReport) -> str:
    """The `compare --json` document, written straight from the report.

    It is the text `json.dumps(payload, indent=2, allow_nan=False)` returns for
    the report's payload of dicts (`reference_comparison_payload` in
    tests/test_cli.py). The tuple below is built left to right, so scalars are
    encoded in document order and the first non-finite one raises json's
    ValueError before anything is printed.
    """
    return "".join((
        '{\n  "theta_cur_gbps": ', _number_text(report.theta_cur),
        ',\n  "pcie_latency_us": ', _number_text(report.pcie_latency_us),
        ',\n  "pam": ', _policy_json(report.pam),
        ',\n  "naive": ', _policy_json(report.naive),
        ',\n  "latency_reduction_pct": ', _number_text(report.latency_reduction_pct),
        "\n}",
    ))


def _print_comparison_text(report: ComparisonReport) -> None:
    print(f"theta_cur: {report.theta_cur} Gbps, pcie latency: {report.pcie_latency_us} us/crossing")
    for result in (report.pam, report.naive):
        steps = result.plan.steps
        print(f"== {result.policy} ==")
        print(f"outcome: {result.plan.outcome.value}")
        print(f"steps: {', '.join(steps) if steps else '(none)'}")
        print(f"crossings: {result.crossings_before} -> {result.crossings_after}")
        print(f"latency_us: {result.latency_before_us!r} -> {result.latency_after_us!r}")
        print(
            f"max_throughput_gbps: {result.max_throughput_before_gbps!r} -> "
            f"{result.max_throughput_after_gbps!r}"
        )
        if result.verification is not None:
            print(f"verification: {'pass' if result.verification.passed else 'fail'}")
    print(f"pam latency vs naive: {report.latency_reduction_pct:.1f}% lower")


def _cmd_compare(args: SimpleNamespace) -> int:
    scenario = _load(args)
    report = compare(scenario)
    # Both texts come first: one that raises leaves no output behind.
    document = _comparison_json(report) if args.json else None
    chart = comparison_svg(report) if args.svg else None
    if document is None:
        _print_comparison_text(report)
    else:
        print(document)
    if chart is not None:
        Path(args.svg).write_text(chart, encoding="utf-8")
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
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


class _Option(NamedTuple):
    """One long option of a command: what `build_parser` passes to
    `add_argument`, and what `_fast_args` checks."""

    flag: str
    dest: str
    help: str | None = None
    required: bool = False
    store_true: bool = False
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    default: object = None


# The options every command takes first.
_COMMON = (
    _Option("--scenario", "scenario", "scenario JSON file", required=True),
    _Option(
        "--pcie-latency-us",
        "pcie_latency_us",
        "override the scenario's per-crossing latency",
        type=float,
    ),
)

# Each command's help, handler and options, in the order `--help` lists them.
_COMMANDS = {
    "plan": ("plan migrations for one load level", _cmd_plan, _COMMON + (
        _Option("--policy", "policy", required=True, choices=tuple(_PLANNERS)),
        _Option("--json", "json", "emit the plan as JSON", store_true=True, default=False),
    )),
    "simulate": ("replay a load trace", _cmd_simulate, _COMMON + (
        _Option("--trace", "trace", "trace CSV file (t,theta_cur_gbps)", required=True),
        _Option("--policy", "policy", required=True, choices=POLICIES),
        _Option("--out", "out", "timeline CSV output path", required=True),
        _Option("--svg", "svg", "also write an SVG chart here"),
    )),
    "compare": ("run both policies side by side", _cmd_compare, _COMMON + (
        _Option("--json", "json", "emit the comparison as JSON", store_true=True, default=False),
        _Option("--svg", "svg", "also write an SVG chart here"),
    )),
    "verify": ("certify the border plan against brute force", _cmd_verify, _COMMON),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argparse parser of the `chainplan` command line, built from
    `_COMMANDS`; `main` keeps one, built on the first argv it needs."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="chainplan",
        description="Plan SmartNIC/CPU migrations for a service chain and estimate their cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for o in options:
            if o.store_true:
                kind = {"action": "store_true"}
            else:
                kind = {"type": o.type, "choices": o.choices}
            p.add_argument(
                o.flag, dest=o.dest, required=o.required, default=o.default, help=o.help, **kind
            )
        p.set_defaults(func=func)
    return parser


# Per command: its options by flag, the namespace argparse starts from (every
# dest at its default), and the dests that must be given.
_FAST = {
    name: (
        {o.flag: o for o in options},
        {"command": name, **{o.dest: o.default for o in options}, "func": func},
        frozenset(o.dest for o in options if o.required),
    )
    for name, (_, func, options) in _COMMANDS.items()
}


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse gives `argv`, or None for an argv outside the
    one spelling read here, which argparse accepts with these attributes.

    That spelling is a command name, then each of its options at most once,
    by its exact long flag. A value option is followed by a string that does
    not start with `-` (argparse reads the empty string as a value too),
    which converts by the option's `type` and is one of its `choices`. Every
    required option is given. Any other argv (an abbreviation, `--opt=value`,
    a repeat, a `-`-prefixed value, `--`, `-h`, an error) is argparse's.
    """
    tokens = iter(argv)
    command = _FAST.get(next(tokens, None))
    if command is None:
        return None
    options, defaults, required = command
    values = {}
    for flag in tokens:
        option = options.get(flag)
        if option is None or option.dest in values:
            return None
        if option.store_true:
            value = True
        else:
            value = next(tokens, None)
            if not isinstance(value, str) or value.startswith("-"):
                return None
            if option.type is not None:
                try:
                    value = option.type(value)
                except ValueError:
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        values[option.dest] = value
    if not required.issubset(values):
        return None
    return SimpleNamespace(**{**defaults, **values})


# The parser `main` falls back to, built once per process on the first argv
# `_fast_args` refuses: `parse_args` leaves it as it was, and building one
# (with argparse's import) costs more than many whole commands.
_PARSER = None


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:  # help, usage errors and every other spelling
        args = _parser().parse_args(argv, SimpleNamespace())
    try:
        return args.func(args)
    except ValueError as exc:  # the readers' two error classes are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
