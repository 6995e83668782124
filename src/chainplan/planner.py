"""Hot-spot migration planning for SmartNIC/CPU service chains.

Two policies share one greedy loop. The border policy (`plan_pam`) only
migrates vNFs sitting next to a CPU neighbor, so no plan it emits adds PCIe
crossings. The bottleneck baseline (`plan_naive`) picks from every SmartNIC
vNF and may split a SmartNIC run in two, paying two extra crossings.

Both pick the candidate with the smallest SmartNIC capacity (it releases the
most SmartNIC utilization per step), skip candidates the CPU cannot absorb,
and stop as soon as the SmartNIC fits strictly under capacity. A candidate
the CPU cannot absorb is dropped for the rest of the plan, so each vNF
appears at most once in `rejected_candidates`.

A plan costs O(n + (steps + rejections) * log n) for n vNFs: the loop keeps
the candidate pool in a heap, the placements in a mutable list and each
device's demand as a running sum, and builds `post_chain` once at the end.
The decisions are still those of the chain-order sums that `utilization`
and `check_cpu_headroom` compute. A running sum differs from its chain-order
sum by a rounding error with a proven bound (`resources.rounding_band`), so
it decides only when it lies farther than that bound from 1.0; inside the
bound the chain-order sum over the current placements decides.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Collection, Mapping

from .model import LoadState, Placement, ServiceChain, VnfSpec
from .resources import (
    below_one, chain_sum, demand_ratios, is_overloaded, rounding_band, utilization
)

REJECT_CPU_HEADROOM = "cpu_headroom"
REASON_MIN_CAPACITY = "min_smartnic_capacity"


@dataclass(frozen=True)
class BorderSets:
    """Chain indices of SmartNIC vNFs adjacent to a CPU neighbor.

    `left` members have their upstream neighbor on the CPU, `right` members
    their downstream one; anchors count as neighbors. A singleton SmartNIC
    run is in both sets.
    """

    left: frozenset[int]
    right: frozenset[int]

    @property
    def union(self) -> frozenset[int]:
        return self.left | self.right


class PlanOutcome(Enum):
    NOT_OVERLOADED = "NotOverloaded"
    RESOLVED = "Resolved"
    SCALE_OUT_REQUIRED = "ScaleOutRequired"


@dataclass(frozen=True)
class MigrationStep:
    """One SmartNIC-to-CPU move of the pool's minimum-capacity vNF."""

    vnf_id: str


@dataclass(frozen=True)
class MigrationPlan:
    """Ordered migration steps plus the outcome and resulting chain.

    `rejected_candidates` lists, in selection order and once each, the vNFs
    that were selected but skipped because the CPU could not absorb them.
    `post_chain` is the input chain with exactly `steps` applied, in order.
    """

    steps: tuple[MigrationStep, ...]
    outcome: PlanOutcome
    rejected_candidates: tuple[tuple[str, str], ...]
    post_chain: ServiceChain


def identify_borders(chain: ServiceChain) -> BorderSets:
    """Find the SmartNIC vNFs whose neighbor (anchors included) is on the CPU.

    With the default SmartNIC anchors a chain-head SmartNIC vNF is not a
    left border: its upstream neighbor is the NIC itself.
    """
    seq = chain.placement_sequence()
    left: set[int] = set()
    right: set[int] = set()
    for i, vnf in enumerate(chain.vnfs):
        if vnf.placement is not Placement.SMARTNIC:
            continue
        if seq[i] is Placement.CPU:
            left.add(i)
        if seq[i + 2] is Placement.CPU:
            right.add(i)
    return BorderSets(frozenset(left), frozenset(right))


def select_candidate(
    chain: ServiceChain,
    pool: Collection[int],
    specs: Mapping[str, VnfSpec],
) -> int | None:
    """Pool index with minimum SmartNIC capacity; lowest chain index on ties."""
    if not pool:
        return None
    return min(pool, key=lambda i: (specs[chain.vnfs[i].spec].cap_smartnic, i))


def check_cpu_headroom(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    index: int,
    load: LoadState,
) -> bool:
    """Would moving the vNF at `index` keep the CPU strictly under capacity?

    The CPU sum reflects the chain as passed in, so migrations applied
    earlier in the same planning round are already counted.
    """
    cpu = utilization(chain, specs, Placement.CPU, load).utilization
    spec = specs[chain.vnfs[index].spec]
    return cpu + load.theta_cur / spec.cap_cpu < 1.0


def _plan(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    load: LoadState,
    *,
    borders_only: bool,
) -> MigrationPlan:
    if not is_overloaded(chain, specs, Placement.SMARTNIC, load):
        return MigrationPlan((), PlanOutcome.NOT_OVERLOADED, (), chain)

    n = len(chain.vnfs)
    cap_nic = [specs[v.spec].cap_smartnic for v in chain.vnfs]
    nic_ratio, cpu_ratio = demand_ratios(chain, specs, load)
    tol = rounding_band(nic_ratio, cpu_ratio)
    on_nic = [v.placement is Placement.SMARTNIC for v in chain.vnfs]
    nic = math.fsum(r for r, s in zip(nic_ratio, on_nic) if s)
    cpu = math.fsum(r for r, s in zip(cpu_ratio, on_nic) if not s)

    def device_sum(ratios: list[float], on_smartnic: bool) -> float:
        # `utilization(...).utilization` on the current placements.
        return chain_sum([r for r, s in zip(ratios, on_nic) if s == on_smartnic])

    pool = identify_borders(chain).union if borders_only else [i for i in range(n) if on_nic[i]]
    # Same order as `select_candidate`. An index enters at most once: it then
    # migrates (off the SmartNIC for good) or is rejected, and the CPU sum
    # only grows, so a rejected vNF would be rejected again.
    heap = [(cap_nic[i], i) for i in pool]
    heapq.heapify(heap)
    queued = set(pool)
    moved: list[int] = []
    rejected: list[int] = []
    outcome = PlanOutcome.SCALE_OUT_REQUIRED
    while heap:
        _, idx = heapq.heappop(heap)
        # Inside the band: `check_cpu_headroom`, then `not is_overloaded`.
        if not below_one(
            cpu + cpu_ratio[idx], tol, lambda: device_sum(cpu_ratio, False) + cpu_ratio[idx] < 1.0
        ):
            rejected.append(idx)
            continue
        moved.append(idx)
        on_nic[idx] = False
        nic -= nic_ratio[idx]
        cpu += cpu_ratio[idx]
        if below_one(nic, tol, lambda: not device_sum(nic_ratio, True) >= 1.0):
            outcome = PlanOutcome.RESOLVED
            break
        # A migrated vNF's SmartNIC neighbors become borders.
        for j in (idx - 1, idx + 1):
            if 0 <= j < n and on_nic[j] and j not in queued:
                queued.add(j)
                heapq.heappush(heap, (cap_nic[j], j))

    steps = tuple(MigrationStep(chain.vnfs[i].id) for i in moved)
    rejections = tuple((chain.vnfs[i].id, REJECT_CPU_HEADROOM) for i in rejected)
    post_chain = chain
    if moved:
        # Only the moved vNFs are rebuilt; `with_placements` rebuilds every
        # one, about 5x slower on a 1500-vNF chain.
        vnfs = list(chain.vnfs)
        for i in moved:
            vnfs[i] = replace(vnfs[i], placement=Placement.CPU)
        post_chain = replace(chain, vnfs=tuple(vnfs))
    return MigrationPlan(steps, outcome, rejections, post_chain)


def plan_pam(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], load: LoadState
) -> MigrationPlan:
    """Push-aside migration: drain minimum-capacity border vNFs to the CPU.

    Never adds PCIe crossings. Returns NotOverloaded untouched plans when the
    SmartNIC already fits, and ScaleOutRequired when the border pool empties
    while the SmartNIC is still over capacity.
    """
    return _plan(chain, specs, load, borders_only=True)


def plan_naive(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], load: LoadState
) -> MigrationPlan:
    """Bottleneck baseline: same loop, but any SmartNIC vNF may be picked.

    Picking an interior vNF splits a SmartNIC run and costs two extra PCIe
    crossings. The CPU headroom check is kept even though a pure bottleneck
    rule would skip it; without it the baseline could emit infeasible plans.
    """
    return _plan(chain, specs, load, borders_only=False)
