"""Brute-force ground truth for small chains.

Enumerates the full placement space to score every alternative, and replays
emitted migration plans against that ground truth. Capped at 20 vNFs since
the space is 2^n.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from .model import LoadState, Placement, ServiceChain, VnfSpec
from .perf import count_crossings
from .planner import MigrationPlan, PlanOutcome, _below_one, identify_borders
from .resources import utilization

MAX_ORACLE_CHAIN = 20


class ChainTooLongError(ValueError):
    """Chain exceeds the exhaustive-enumeration cap."""


@dataclass(frozen=True)
class PlacementRecord:
    """One point of the placement space, scored.

    `migrations_from_input` counts vNFs moved SmartNIC-to-CPU relative to the
    input chain; placements that also move something the other way are not
    reachable by migration and can be recognized by comparing vectors.
    """

    placement_vector: tuple[Placement, ...]
    feasible_smartnic: bool
    feasible_cpu: bool
    crossings: int
    migrations_from_input: int


@dataclass(frozen=True)
class AssertionResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    assertions: tuple[AssertionResult, ...]
    info: tuple[tuple[str, str], ...] = ()


def _vector_label(vec: tuple[Placement, ...]) -> str:
    return ",".join("S" if p is Placement.SMARTNIC else "C" for p in vec)


def _check_length(chain: ServiceChain) -> None:
    if len(chain) > MAX_ORACLE_CHAIN:
        raise ChainTooLongError(
            f"chain has {len(chain)} vNFs; enumeration is capped at {MAX_ORACLE_CHAIN}"
        )


def enumerate_placements(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], load: LoadState
) -> tuple[PlacementRecord, ...]:
    """Reference full scan: score all 2^n placements in binary counting order.

    Record index 0 is the all-SmartNIC vector; bit j of the index gives vNF
    j's placement (set bit = CPU), with chain position 0 as the least
    significant bit. `verify_plan` no longer calls it: its informational
    scan walks only the placements reachable from the input, in this order.
    """
    _check_length(chain)
    n = len(chain)
    theta = load.theta_cur
    s_ratio = [theta / specs[v.spec].cap_smartnic for v in chain.vnfs]
    c_ratio = [theta / specs[v.spec].cap_cpu for v in chain.vnfs]
    input_vec = chain.placements()

    records = []
    for k in range(1 << n):
        vec = tuple(
            Placement.CPU if (k >> j) & 1 else Placement.SMARTNIC for j in range(n)
        )
        s_util = sum(s_ratio[j] for j in range(n) if vec[j] is Placement.SMARTNIC)
        c_util = sum(c_ratio[j] for j in range(n) if vec[j] is Placement.CPU)
        seq = (chain.ingress_anchor, *vec, chain.egress_anchor)
        crossings = sum(1 for a, b in zip(seq, seq[1:]) if a is not b)
        migrations = sum(
            1
            for j in range(n)
            if input_vec[j] is Placement.SMARTNIC and vec[j] is Placement.CPU
        )
        records.append(
            PlacementRecord(vec, s_util < 1.0, c_util < 1.0, crossings, migrations)
        )
    return tuple(records)


def border_peel_closure(chain: ServiceChain) -> Iterator[ServiceChain]:
    """Every placement reachable by repeatedly migrating border vNFs to the CPU.

    Breadth-first from the input chain, expanding borders in chain order, so
    the iteration order is deterministic. Includes the input itself.
    """
    seen = {chain.placements()}
    queue = deque([chain])
    while queue:
        cur = queue.popleft()
        yield cur
        for i in sorted(identify_borders(cur).union):
            nxt = cur.with_placement(i, Placement.CPU)
            vec = nxt.placements()
            if vec not in seen:
                seen.add(vec)
                queue.append(nxt)


def _fully_feasible(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], load: LoadState
) -> bool:
    return (
        utilization(chain, specs, Placement.SMARTNIC, load).utilization < 1.0
        and utilization(chain, specs, Placement.CPU, load).utilization < 1.0
    )


def _first_reachable_witness(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    load: LoadState,
    base_crossings: int,
) -> tuple[Placement, ...] | None:
    """First placement, in `enumerate_placements` order, that keeps the
    input's CPU vNFs on the CPU, fits strictly on both devices and has at
    most `base_crossings` crossings; None if there is none.

    Only the 2^k subsets of the k SmartNIC vNFs can qualify. A depth-first
    walk decides them from the highest chain index down, staying on the
    SmartNIC first, so its leaves come in increasing binary-counting index.
    It carries the CPU sum, the sum of the SmartNIC vNFs decided to stay and
    the crossings of pairs whose two ends are decided, so a leaf outside the
    rounding band around 1.0 costs O(1), and it drops a subtree as soon as
    one of them rules out every leaf below.
    """
    n = len(chain)
    theta = load.theta_cur
    s_ratio = [theta / specs[v.spec].cap_smartnic for v in chain.vnfs]
    c_ratio = [theta / specs[v.spec].cap_cpu for v in chain.vnfs]
    # row[j + 1] is vNF j's placement, between the anchors. The anchors and
    # the input's CPU vNFs are decided from the start; the walk writes each
    # SmartNIC position as it decides it, before anything to its left.
    row = list(chain.placement_sequence())
    free_at = [False, *(p is Placement.SMARTNIC for p in row[1:-1]), False]
    free = [j for j in range(n) if free_at[j + 1]]
    left_fixed = [not free_at[j] for j in free]
    cross0 = sum(
        1 for i in range(n + 1) if row[i] is not row[i + 1] and not (free_at[i] or free_at[i + 1])
    )
    cpu0 = sum(c_ratio[j] for j in range(n) if row[j + 1] is Placement.CPU)
    # The leaf test is the reference scan's: chain-order `sum(...) < 1.0` on
    # both devices. The carried sums only filter it. With u = 2**-53 and
    # T = 1 + the sum of every ratio of both devices (ratios are >= 0, so T
    # bounds every partial sum) and n <= 20:
    # - a leaf's chain-order sum is within 1.01*n*u*T of its exact sum
    #   (recursive summation; the compensated `sum` of Python 3.12+ is
    #   tighter);
    # - a carried sum takes at most n float additions (the CPU one starts
    #   from the chain-order sum of the input's CPU vNFs), so it is within
    #   1.01*n*u*T of the exact sum of its own terms.
    # Leaf: carried and chain-order sums differ by less than
    # 2.02*n*u*T < (n+2)*2**-50*T = tol, so a carried value farther than tol
    # from 1.0 decides as the chain-order test would (`_below_one`); inside
    # the band the chain-order test itself decides.
    # Pruning: a leaf below a node holds all of the node's decided terms, so
    # its exact sum is at least theirs. A carried value past 1 + tol has an
    # exact sum above 1 + tol - 1.01*n*u*T, so every leaf below has a
    # chain-order sum above 1 + tol - 2.02*n*u*T > 1 and fails. The argument
    # runs through exact sums only: float `sum` need not be monotone.
    # Crossings only accumulate, so decided ones past `base_crossings` rule
    # out every leaf below too. A negative or NaN ratio voids the bounds:
    # tol is then infinite, nothing is pruned on sums and every leaf takes
    # the chain-order test. T is summed with `sum` (it overflows to inf, the
    # same fallback, where `fsum` would raise); its rounding is far inside
    # the slack between 2.02 and 8.
    ratios = s_ratio + c_ratio
    tol = (n + 2) * 2.0**-50 * (1.0 + sum(ratios)) if all(r >= 0.0 for r in ratios) else math.inf
    limit = 1.0 + tol

    def walk(t: int, nic: float, cpu: float, cross: int) -> tuple[Placement, ...] | None:
        if t < 0:
            if _below_one(
                nic,
                tol,
                lambda: sum(s_ratio[j] for j in range(n) if row[j + 1] is Placement.SMARTNIC) < 1.0,
            ) and _below_one(
                cpu,
                tol,
                lambda: sum(c_ratio[j] for j in range(n) if row[j + 1] is Placement.CPU) < 1.0,
            ):
                return tuple(row[1:-1])
            return None
        p = free[t]
        for place, nic_next, cpu_next in (
            (Placement.SMARTNIC, nic + s_ratio[p], cpu),
            (Placement.CPU, nic, cpu + c_ratio[p]),
        ):
            if nic_next > limit or cpu_next > limit:
                continue
            # The right neighbour is an anchor, a CPU vNF or decided already.
            cross_next = cross + (place is not row[p + 2]) + (left_fixed[t] and place is not row[p])
            if cross_next > base_crossings:
                continue
            row[p + 1] = place
            found = walk(t - 1, nic_next, cpu_next, cross_next)
            if found is not None:
                return found
        return None

    if cross0 > base_crossings or cpu0 > limit:
        return None
    return walk(len(free) - 1, 0.0, cpu0, cross0)


def verify_plan(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    load: LoadState,
    plan: MigrationPlan,
    *,
    require_crossing_nonincrease: bool = True,
) -> VerificationReport:
    """Replay and certify a migration plan against brute-force ground truth.

    Asserts that (a) the steps really transform the input into `post_chain`,
    (b) a Resolved plan leaves both devices strictly under capacity, (c) the
    post chain adds no PCIe crossings -- disable for baselines that are
    allowed to add them -- and (d) a ScaleOutRequired outcome is certified by
    exhausting every placement reachable through iterated border migration.
    Failed assertions name the witness placement. Failures are report
    content, not exceptions.
    """
    _check_length(chain)
    assertions: list[AssertionResult] = []
    info: list[tuple[str, str]] = []

    # (a) post_chain is the input with exactly the steps applied, in order.
    work: ServiceChain | None = chain
    replay_problem = ""
    for step_no, step in enumerate(plan.steps, start=1):
        try:
            idx = work.index_of(step.vnf_id)
        except KeyError:
            replay_problem = f"step {step_no} names unknown vNF {step.vnf_id!r}"
            work = None
            break
        if work.vnfs[idx].placement is not Placement.SMARTNIC:
            replay_problem = (
                f"step {step_no} migrates {step.vnf_id!r} which is not on the SmartNIC "
                f"in {_vector_label(work.placements())}"
            )
            work = None
            break
        work = work.with_placement(idx, Placement.CPU)
    if work is not None and work != plan.post_chain:
        replay_problem = (
            f"replayed steps give {_vector_label(work.placements())} but post_chain is "
            f"{_vector_label(plan.post_chain.placements())}"
        )
        work = None
    assertions.append(AssertionResult("reachability", work is not None, replay_problem))

    # (b) Resolved means strictly feasible on both devices.
    if plan.outcome is PlanOutcome.RESOLVED:
        s_util = utilization(plan.post_chain, specs, Placement.SMARTNIC, load).utilization
        c_util = utilization(plan.post_chain, specs, Placement.CPU, load).utilization
        ok = s_util < 1.0 and c_util < 1.0
        detail = "" if ok else (
            f"post placement {_vector_label(plan.post_chain.placements())} has "
            f"smartnic={s_util!r}, cpu={c_util!r}"
        )
        assertions.append(AssertionResult("resolved_feasibility", ok, detail))

    # (c) crossings must not grow.
    if require_crossing_nonincrease:
        before = count_crossings(chain)
        after = count_crossings(plan.post_chain)
        ok = after <= before
        detail = "" if ok else (
            f"crossings {after} > {before} for placement "
            f"{_vector_label(plan.post_chain.placements())}"
        )
        assertions.append(AssertionResult("crossing_nonincrease", ok, detail))

    # (d) ScaleOutRequired must survive the border-peeling closure.
    if plan.outcome is PlanOutcome.SCALE_OUT_REQUIRED:
        base_crossings = count_crossings(chain)
        witness = None
        for state in border_peel_closure(chain):
            if count_crossings(state) <= base_crossings and _fully_feasible(state, specs, load):
                witness = state
                break
        ok = witness is None
        detail = "" if ok else (
            f"border-peelable placement {_vector_label(witness.placements())} is fully "
            "feasible without adding crossings"
        )
        assertions.append(AssertionResult("scale_out_certified", ok, detail))

        # Informational only: border migration can never reach interior vNFs,
        # so also report whether any SmartNIC-to-CPU subset at all would fit.
        global_witness = _first_reachable_witness(chain, specs, load, base_crossings)
        info.append(
            (
                "global_feasible_subset",
                "none" if global_witness is None else _vector_label(global_witness),
            )
        )

    passed = all(a.passed for a in assertions)
    return VerificationReport(passed, tuple(assertions), tuple(info))
