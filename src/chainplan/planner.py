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
Both entry sums come from one `resources.device_sums` pass, and the pools
are picked with C iterators (`identify_borders` tests only the neighbours
of the CPU entries).
Every decision is `resources.fits` on a device's hosted ratios in chain
order (for headroom, the CPU's followed by the candidate's). A running sum
differs from that chain-order sum by a rounding error with a proven bound
(`resources.rounding_band`), so it decides only when it lies farther than
that bound from 1.0; inside the bound `fits` on the current placements
decides.
"""

from __future__ import annotations

import heapq
from enum import Enum
from itertools import compress, repeat
from operator import is_
from typing import Mapping, NamedTuple

from .model import Placement, ServiceChain, VnfSpec
from .resources import below_one, demand_ratios, device_sums, hosted, rounding_band


class PlanOutcome(Enum):
    NOT_OVERLOADED = "NotOverloaded"
    RESOLVED = "Resolved"
    SCALE_OUT_REQUIRED = "ScaleOutRequired"


class MigrationPlan(NamedTuple):
    """The vNFs to move SmartNIC-to-CPU, plus the outcome and resulting chain.

    `steps` holds the ids of the vNFs to migrate, in order; `post_chain` is
    the input chain with exactly those moves applied. `rejected_candidates`
    holds, in selection order and once each, the ids of the vNFs that were
    selected but skipped because the CPU could not absorb them.
    """

    steps: tuple[str, ...]
    outcome: PlanOutcome
    rejected_candidates: tuple[str, ...]
    post_chain: ServiceChain


def identify_borders(chain: ServiceChain) -> frozenset[int]:
    """Chain indices of the SmartNIC vNFs with a neighbor on the CPU. Anchors
    count, so with SmartNIC anchors a chain-head vNF borders only downstream."""
    S, C = Placement.SMARTNIC, Placement.CPU
    seq, placed = chain.placement_sequence(), chain.placements
    n = len(placed)
    # seq[k] is vNF k - 1, so a CPU entry at k borders vNFs k - 2 and k.
    return frozenset([
        j for k in compress(range(n + 2), map(is_, seq, repeat(C)))
        for j in (k - 2, k) if 0 <= j < n and placed[j] is S
    ])


def _plan(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    theta_cur: float,
    *,
    borders_only: bool,
) -> MigrationPlan:
    nic_ratio, cpu_ratio = demand_ratios(chain, specs, theta_cur)
    S, C = Placement.SMARTNIC, Placement.CPU
    placed = list(chain.placements)
    # `nic` and `cpu` are the devices' `utilization`s, the same additions in
    # the same order. The SmartNIC is a hot spot when it is >= 1 (NaN is not).
    nic, cpu = device_sums(nic_ratio, cpu_ratio, placed)
    if not nic >= 1.0:
        return MigrationPlan((), PlanOutcome.NOT_OVERLOADED, (), chain)

    n = len(chain)
    cap_nic = [specs[name].cap_smartnic for name in chain.spec_names]
    # An overflowing sum is inf, and so is tol then: every test takes `fits`.
    tol = rounding_band(nic_ratio, cpu_ratio)

    if borders_only:
        pool = identify_borders(chain)
    else:
        pool = list(compress(range(n), map(is_, placed, repeat(S))))
    # An index enters at most once: it then migrates (off the SmartNIC for
    # good) or is rejected, and the CPU sum only grows, so a rejected vNF
    # would be rejected again.
    heap = list(zip(map(cap_nic.__getitem__, pool), pool))
    heapq.heapify(heap)
    queued = set(pool)
    moved: list[int] = []
    rejected: list[int] = []
    outcome = PlanOutcome.SCALE_OUT_REQUIRED
    while heap:
        _, idx = heapq.heappop(heap)
        cpu_next = cpu + cpu_ratio[idx]
        if not below_one(cpu_next, tol, lambda: [*hosted(cpu_ratio, placed, C), cpu_ratio[idx]]):
            rejected.append(idx)
            continue
        moved.append(idx)
        placed[idx] = C
        nic -= nic_ratio[idx]
        cpu = cpu_next
        # `fits` (`< 1`) negates the entry test (`>= 1`) unless the sum is
        # NaN. It is not: the plan returned early unless the SmartNIC's
        # chain_sum was >= 1, so no hosted ratio is NaN, and ratios >= 0 (as
        # `validate` ensures) never sum to NaN.
        if below_one(nic, tol, lambda: hosted(nic_ratio, placed, S)):
            outcome = PlanOutcome.RESOLVED
            break
        # A migrated vNF's SmartNIC neighbors become borders.
        for j in (idx - 1, idx + 1):
            if 0 <= j < n and placed[j] is S and j not in queued:
                queued.add(j)
                heapq.heappush(heap, (cap_nic[j], j))

    # From lists, not generators: CPython builds tuple(<generator>) at a
    # guessed length and resizes it, parking a spare tuple on its free lists.
    steps = tuple([chain.ids[i] for i in moved])
    rejections = tuple([chain.ids[i] for i in rejected])
    post_chain = chain._replace(placements=tuple(placed)) if moved else chain
    return MigrationPlan(steps, outcome, rejections, post_chain)


def plan_pam(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], theta_cur: float
) -> MigrationPlan:
    """Push-aside migration at chain throughput `theta_cur` (Gbps): drain
    minimum-capacity border vNFs to the CPU.

    Never adds PCIe crossings. Returns NotOverloaded untouched plans when the
    SmartNIC already fits, and ScaleOutRequired when the border pool empties
    while the SmartNIC is still over capacity.
    """
    return _plan(chain, specs, theta_cur, borders_only=True)


def plan_naive(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], theta_cur: float
) -> MigrationPlan:
    """Bottleneck baseline: same loop, but any SmartNIC vNF may be picked.

    Picking an interior vNF splits a SmartNIC run and costs two extra PCIe
    crossings. The CPU headroom check is kept even though a pure bottleneck
    rule would skip it; without it the baseline could emit infeasible plans.
    """
    return _plan(chain, specs, theta_cur, borders_only=False)
