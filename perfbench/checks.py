"""Output checks that do not trust the planner.

Each check replays what an op printed or wrote against the generator's own
copy of the scenario and returns the invariants it breaks (an empty list
when the output is sound):

- replaying the steps from the input placements reproduces the reported
  post placement (and its crossing count);
- every step moves a vNF that is on the SmartNIC to the CPU;
- pam never adds PCIe crossings;
- a Resolved plan leaves both devices strictly under capacity, with the
  device sums recomputed exactly by math.fsum;
- a replay CSV round-trips through chainplan's parse_timeline_csv.
"""

from __future__ import annotations

import json
import math

from gen import C, S, Chain, Op


def crossings(chain: Chain, placement: list[str]) -> int:
    seq = [chain.anchors[0], *placement, chain.anchors[1]]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _device_sums(chain: Chain, placement: list[str], theta: float) -> tuple[float, float]:
    nic = math.fsum(theta / chain.caps[s][0] for s, p in zip(chain.spec, placement) if p == S)
    cpu = math.fsum(theta / chain.caps[s][1] for s, p in zip(chain.spec, placement) if p == C)
    return nic, cpu


def _replay(chain: Chain, placement: list[str], vnf_ids: list[str], index: dict[str, int]) -> list[str]:
    problems = []
    for vnf in vnf_ids:
        i = index.get(vnf)
        if i is None:
            problems.append(f"step names unknown vNF {vnf!r}")
        elif placement[i] != S:
            problems.append(f"step moves {vnf!r}, which is not on the SmartNIC")
        else:
            placement[i] = C
    return problems


def _check_plan_result(
    chain: Chain, policy: str, outcome: str, steps: list[str], crossings_after: int
) -> tuple[list[str], list[str]]:
    """Replay one plan's steps from the input placements; returns (problems, post placements)."""
    index = {v: i for i, v in enumerate(chain.ids)}
    placement = list(chain.placement)
    problems = _replay(chain, placement, steps, index)
    before, after = crossings(chain, chain.placement), crossings(chain, placement)
    if after != crossings_after:
        problems.append(f"{policy}: replayed steps give {after} crossings, output says {crossings_after}")
    if policy == "pam" and after > before:
        problems.append(f"pam added crossings: {before} -> {after}")
    if outcome == "Resolved":
        nic, cpu = _device_sums(chain, placement, chain.theta)
        if not (nic < 1.0 and cpu < 1.0):
            problems.append(f"{policy}: Resolved plan is not under capacity: smartnic={nic!r}, cpu={cpu!r}")
    return problems, placement


def check_plan(chain: Chain, op: Op, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    problems = [
        f"step {s['vnf_id']!r} goes {s['from']} -> {s['to']}"
        for s in payload["steps"]
        if (s["from"], s["to"]) != (S, C)
    ]
    more, placement = _check_plan_result(
        chain, op.policy, payload["outcome"], [s["vnf_id"] for s in payload["steps"]], payload["crossings_after"]
    )
    problems += more
    reported = [(p["id"], p["placement"]) for p in payload["post_placements"]]
    if reported != list(zip(chain.ids, placement)):
        problems.append("replayed steps do not reproduce post_placements")
    return problems


def check_compare(chain: Chain, op: Op, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    problems = []
    for policy in ("pam", "naive"):
        p = payload[policy]
        problems += _check_plan_result(chain, policy, p["outcome"], p["steps"], p["crossings_after"])[0]
    return problems


def check_simulate(chain: Chain, op: Op, stdout: str, csv_text: str) -> list[str]:
    from chainplan.reports import parse_timeline_csv, timeline_to_csv

    problems = []
    records = parse_timeline_csv(csv_text)
    if timeline_to_csv(records) != csv_text:
        problems.append("timeline CSV does not round-trip through parse_timeline_csv")
    if len(records) != len(op.trace):
        problems.append(f"timeline has {len(records)} rows for {len(op.trace)} trace points")
    expected = f"wrote {len(op.trace)} records to {op.out_files[0]}\n"
    if stdout != expected:
        problems.append(f"unexpected stdout {stdout!r}")
    index = {v: i for i, v in enumerate(chain.ids)}
    placement = list(chain.placement)
    start_crossings = crossings(chain, placement)
    for row, (record, theta) in enumerate(zip(records, op.trace)):
        moved = list(record.migrations_this_step)
        if op.policy == "none" and moved:
            problems.append(f"row {row}: policy none migrated {moved}")
        problems += [f"row {row}: {p}" for p in _replay(chain, placement, moved, index)]
        now = crossings(chain, placement)
        if now != record.crossings:
            problems.append(f"row {row}: replayed migrations give {now} crossings, CSV says {record.crossings}")
        if op.policy == "pam" and now > start_crossings:
            problems.append(f"row {row}: pam added crossings: {start_crossings} -> {now}")
        if record.outcome == "Resolved":
            nic, cpu = _device_sums(chain, placement, theta)
            if not (nic < 1.0 and cpu < 1.0):
                problems.append(f"row {row}: Resolved but smartnic={nic!r}, cpu={cpu!r}")
        if len(problems) > 20:
            break
    return problems
