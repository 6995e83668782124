"""Command-line interface: plan, simulate, compare, verify.

Exit codes: 0 success (and verification pass), 1 validation or parse error,
2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
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


def _entries(texts: list[str], indent: str) -> str:
    """The JSON list of the written `texts`, its `]` at `indent`. The small
    parts are joined first: each `+` on the long body copies it."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(texts) + ("\n" + indent + "]") if texts else "[]"


def _plan_json(scenario: Scenario, policy: str, plan: MigrationPlan) -> str:
    """The `plan --json` document, written straight from the plan.

    It is the text `json.dumps(payload, indent=2, allow_nan=False)` returns for
    the plan's payload of dicts (`reference_payload` in tests/test_cli.py), with
    one f-string per vNF. Scalars are encoded first, in document order,
    so a non-finite utilization raises json's ValueError.
    """
    theta, nic_before, nic_after, cpu_before, cpu_after, crossings_before, crossings_after = [
        _number_text(x) for x in (scenario.theta_cur, *_plan_figures(scenario, plan))
    ]
    enc, nic = encode_basestring_ascii, Placement.SMARTNIC
    return "".join((
        '{\n  "policy": ', enc(policy),
        ',\n  "theta_cur_gbps": ', theta,
        ',\n  "outcome": ', enc(plan.outcome.value),
        ',\n  "steps": ', _entries([
            f'{{\n      "vnf_id": {enc(i)},\n      "from": "SmartNIC",\n      "to": "CPU",'
            f'\n      "reason": "min_smartnic_capacity",\n      "selected_as_candidate": true\n    }}'
            for i in plan.steps
        ], "  "),
        ',\n  "rejected_candidates": ', _entries([
            f'{{\n      "vnf_id": {enc(i)},\n      "reason": "{_REJECTION_REASON}"\n    }}'
            for i in plan.rejected_candidates
        ], "  "),
        ',\n  "post_placements": ', _entries([
            f'{{\n      "id": {enc(i)},\n      "placement": "{"SmartNIC" if p is nic else "CPU"}"\n    }}'
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


def _plan_text(scenario: Scenario, policy: str, plan: MigrationPlan) -> str:
    nic_before, nic_after, cpu_before, cpu_after, crossings_before, crossings_after = (
        _plan_figures(scenario, plan)
    )
    lines = [
        f"policy: {policy}", f"theta_cur: {scenario.theta_cur} Gbps", f"outcome: {plan.outcome.value}"
    ]
    if plan.steps:
        lines.append("steps:")
        lines += [f"  {i}. {step}: SmartNIC -> CPU" for i, step in enumerate(plan.steps, 1)]
    else:
        lines.append("steps: (none)")
    if plan.rejected_candidates:
        rejected = ", ".join(f"{r} ({_REJECTION_REASON})" for r in plan.rejected_candidates)
        lines.append(f"rejected: {rejected}")
    lines += (
        f"smartnic utilization: {nic_before!r} -> {nic_after!r}",
        f"cpu utilization: {cpu_before!r} -> {cpu_after!r}",
        f"crossings: {crossings_before} -> {crossings_after}",
    )
    return "\n".join(lines)


def _cmd_plan(scenario: Scenario, args: SimpleNamespace) -> tuple[int, str, dict]:
    plan = _PLANNERS[args.policy](scenario.chain, scenario.specs, scenario.theta_cur)
    write = _plan_json if args.json else _plan_text
    return EXIT_OK, write(scenario, args.policy, plan), {}


def _cmd_simulate(scenario: Scenario, args: SimpleNamespace) -> tuple[int, str, dict]:
    records = run_trace(scenario, load_trace(args.trace), args.policy)
    # An `--svg` naming the `--out` path takes the CSV's entry: that file holds the SVG.
    files = {args.out: timeline_to_csv(records)}
    if args.svg:
        files[args.svg] = timeline_svg(records)
    return EXIT_OK, f"wrote {len(records)} records to {args.out}", files


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
            f'{{\n        "vnf_id": {enc(i)},\n        "reason": "{_REJECTION_REASON}"\n      }}'
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


def _comparison_text(report: ComparisonReport) -> str:
    lines = [f"theta_cur: {report.theta_cur} Gbps, pcie latency: {report.pcie_latency_us} us/crossing"]
    for result in (report.pam, report.naive):
        steps = result.plan.steps
        lines += (
            f"== {result.policy} ==",
            f"outcome: {result.plan.outcome.value}",
            f"steps: {', '.join(steps) if steps else '(none)'}",
            f"crossings: {result.crossings_before} -> {result.crossings_after}",
            f"latency_us: {result.latency_before_us!r} -> {result.latency_after_us!r}",
            f"max_throughput_gbps: {result.max_throughput_before_gbps!r} -> "
            f"{result.max_throughput_after_gbps!r}",
        )
        if result.verification is not None:
            lines.append(f"verification: {'pass' if result.verification.passed else 'fail'}")
    lines.append(f"pam latency vs naive: {report.latency_reduction_pct:.1f}% lower")
    return "\n".join(lines)


def _cmd_compare(scenario: Scenario, args: SimpleNamespace) -> tuple[int, str, dict]:
    report = compare(scenario)
    text = _comparison_json(report) if args.json else _comparison_text(report)
    files = {args.svg: comparison_svg(report)} if args.svg else {}
    return EXIT_OK, text, files


def _cmd_verify(scenario: Scenario, args: SimpleNamespace) -> tuple[int, str, dict]:
    chain, specs, theta = scenario.chain, scenario.specs, scenario.theta_cur
    report = verify_plan(chain, specs, theta, plan_pam(chain, specs, theta))
    lines = [
        f"{'PASS' if a.passed else 'FAIL'} {a.name}" + (f": {a.detail}" if a.detail else "")
        for a in report.assertions
    ]
    lines += [f"info {key}: {value}" for key, value in report.info]
    lines.append("verified" if report.passed else "verification failed")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED, "\n".join(lines), {}


class _Option(NamedTuple):
    """One long option of a command: what `build_parser` passes to
    `add_argument`, and what `_fast_args` checks. argparse derives its dest
    (below) and default (False for a `store_true` option, else None)."""

    flag: str
    help: str | None = None
    required: bool = False
    store_true: bool = False
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


# The options every command takes first.
_COMMON = (
    _Option("--scenario", "scenario JSON file", required=True),
    _Option("--pcie-latency-us", "override the scenario's per-crossing latency", type=float),
)

# Each command's help, handler and options, in the order `--help` lists them.
# A handler returns its exit code, its stdout text and the files to write
# ({path: text}, in order) for `main` to emit.
_COMMANDS = {
    "plan": ("plan migrations for one load level", _cmd_plan, _COMMON + (
        _Option("--policy", required=True, choices=tuple(_PLANNERS)),
        _Option("--json", "emit the plan as JSON", store_true=True),
    )),
    "simulate": ("replay a load trace", _cmd_simulate, _COMMON + (
        _Option("--trace", "trace CSV file (t,theta_cur_gbps)", required=True),
        _Option("--policy", required=True, choices=POLICIES),
        _Option("--out", "timeline CSV output path", required=True),
        _Option("--svg", "also write an SVG chart here"),
    )),
    "compare": ("run both policies side by side", _cmd_compare, _COMMON + (
        _Option("--json", "emit the comparison as JSON", store_true=True),
        _Option("--svg", "also write an SVG chart here"),
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
            p.add_argument(o.flag, required=o.required, help=o.help, **kind)
        p.set_defaults(func=func)
    return parser


# Per command: its options and their dests by flag, the namespace argparse
# starts from (every dest at argparse's default), and the dests that must be given.
_FAST = {
    name: (
        {o.flag: (o, o.dest) for o in options},
        {"command": name, "func": func,
         **{o.dest: False if o.store_true else None for o in options}},
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
        option, dest = options.get(flag, (None, None))
        if option is None or dest in values:
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
        values[dest] = value
    if not required.issubset(values):
        return None
    return SimpleNamespace(**{**defaults, **values})


# The parser `main` falls back to, built once per process on the first argv
# `_fast_args` refuses: `parse_args` leaves it as it was, and building one
# (with argparse's import) costs more than many whole commands.
_parser = functools.cache(build_parser)


def _emit(text: str, files: dict[str, str]) -> None:
    """Open every file in `files` without truncating it, then write them in
    order, then print `text`. If any of it raises, the files this call
    created or wrote in full are removed, so a refused `open` leaves every
    path as it was; a file that was there before and whose write raised stays
    as it stopped, and a device stays. A failed removal does not replace the
    error."""
    ours = []
    try:
        with contextlib.ExitStack() as stack:
            opened = []
            for path, content in files.items():
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    ours.append(path)
                except FileExistsError:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                opened.append((path, content, stack.enter_context(open(fd, "w", encoding="utf-8"))))
            for path, content, out in opened:
                # Not a device such as /dev/null: it cannot be truncated, and
                # a failure must not remove it.
                regular = stat.S_ISREG(os.fstat(out.fileno()).st_mode)
                if regular:
                    out.truncate()
                out.write(content)
                out.close()
                if regular and path not in ours:
                    ours.append(path)
        print(text)
    except BaseException:
        for path in ours:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def main(argv: list[str] | None = None) -> int:
    """Run one command and emit what it returns: no output is written until
    every text is built, so an exit of 1 or 3 leaves no output file."""
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:  # help, usage errors and every other spelling
        args = _parser().parse_args(argv, SimpleNamespace())
    try:
        code, text, files = args.func(_load(args), args)
        _emit(text, files)
        return code
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
