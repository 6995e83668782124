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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping

from .model import LoadState, Placement, ServiceChain, VnfSpec
from .resources import is_overloaded, utilization

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

    if borders_only:
        pool = set(identify_borders(chain).union)
    else:
        pool = {i for i, v in enumerate(chain.vnfs) if v.placement is Placement.SMARTNIC}
    work = chain
    steps: list[MigrationStep] = []
    rejected: list[int] = []
    outcome = PlanOutcome.SCALE_OUT_REQUIRED
    while (idx := select_candidate(work, pool, specs)) is not None:
        pool.discard(idx)
        if not check_cpu_headroom(work, specs, idx, load):
            rejected.append(idx)
            continue
        steps.append(MigrationStep(work.vnfs[idx].id))
        work = work.with_placement(idx, Placement.CPU)
        if not is_overloaded(work, specs, Placement.SMARTNIC, load):
            outcome = PlanOutcome.RESOLVED
            break
        # A migrated vNF's SmartNIC neighbors become borders. A rejected one
        # stays out: the CPU sum only grows, so it would be rejected again.
        for j in (idx - 1, idx + 1):
            if (
                0 <= j < len(work.vnfs)
                and work.vnfs[j].placement is Placement.SMARTNIC
                and j not in rejected
            ):
                pool.add(j)

    rejections = tuple((chain.vnfs[i].id, REJECT_CPU_HEADROOM) for i in rejected)
    return MigrationPlan(tuple(steps), outcome, rejections, work)


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
