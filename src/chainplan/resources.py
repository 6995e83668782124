"""Linear utilization model and the chain throughput bound it implies.

A vNF's resource consumption grows linearly with its throughput, so at chain
throughput theta it uses the fraction theta / capacity of its device. Device
utilization is the sum of those fractions over the hosted vNFs.

Every device sum is a `chain_sum` (left to right, in chain order).
The planner, the oracle and trace replay pick a device's entries of a
per-vNF column (ratios, capacities) from a placement vector with `hosted`.
`utilization` sums one device; `device_utilizations`, which the CLI's `plan`
output uses, sums both in one walk with the same additions. Every capacity
decision is `fits`: the hosted ratios' chain_sum is below 1. The oracle
asks it of every set it tests. The planner keeps its sums up to date (from
the hosted ratios' chain_sum) and decides with `below_one`, which asks `fits`
only when a carried sum is too close to 1 to stand in for the chain_sum.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from .model import Placement, ServiceChain, VnfSpec


def chain_sum(values: Iterable[float]) -> float:
    """Add `values` left to right from int 0, as builtin `sum` does up to
    Python 3.11 (from 3.12 on it compensates float rounding)."""
    total = 0
    for value in values:
        total += value
    return total


def hosted(values: list[float], placements: Sequence[Placement], device: Placement) -> list[float]:
    """The entries of `values` whose vNF `placements` puts on `device`, in chain order."""
    return [value for value, p in zip(values, placements) if p is device]


def fits(ratios: Iterable[float]) -> bool:
    """The capacity test: a device hosting vNFs with these demand ratios, in
    chain order, has headroom when their `chain_sum` is below 1."""
    return chain_sum(ratios) < 1.0


def utilization(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    device: Placement,
    theta_cur: float,
) -> float:
    """Summed demand ratio theta_cur / capacity over the vNFs hosted on `device`.

    Not clamped: a value of 1 or more shows how far over capacity a hot spot
    is. Anchors contribute nothing; a device hosting no vNFs reports 0.
    """
    return chain_sum([
        theta_cur / specs[spec].capacity(device)
        for spec, p in zip(chain.spec_names, chain.placements) if p is device
    ])


def device_utilizations(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], theta_cur: float
) -> tuple[float, float]:
    """The SmartNIC and the CPU `utilization` of `chain`, from one walk.

    Each device's ratios are added left to right from int 0 in chain order,
    as `chain_sum` adds them, so both values have `utilization`'s bits.
    """
    nic = cpu = 0
    for spec, p in zip(chain.spec_names, chain.placements):
        if p is Placement.SMARTNIC:
            nic += theta_cur / specs[spec].cap_smartnic
        else:
            cpu += theta_cur / specs[spec].cap_cpu
    return nic, cpu


def is_overloaded(
    chain: ServiceChain,
    specs: Mapping[str, VnfSpec],
    device: Placement,
    theta_cur: float,
) -> bool:
    """A device is a hot spot when demand reaches capacity (ratio >= 1)."""
    return utilization(chain, specs, device, theta_cur) >= 1.0


def max_chain_throughput(chain: ServiceChain, specs: Mapping[str, VnfSpec]) -> float:
    """Largest throughput at which neither device is overloaded.

    Each device bounds the chain by 1 / sum(1 / cap_i) over its hosted vNFs,
    which is 1 / its utilization at theta = 1; a device hosting nothing
    imposes no bound. Finite for any non-empty chain.
    """
    best = math.inf
    for inv in device_utilizations(chain, specs, 1.0):
        if inv > 0.0:
            best = min(best, 1.0 / inv)
    return best


def demand_ratios(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], theta_cur: float
) -> tuple[list[float], list[float]]:
    """theta_cur / capacity of every vNF, in chain order, on the SmartNIC and
    on the CPU, wherever it sits now."""
    spec_at = [specs[name] for name in chain.spec_names]
    return [theta_cur / s.cap_smartnic for s in spec_at], [theta_cur / s.cap_cpu for s in spec_at]


def rounding_band(nic: Sequence[float], cpu: Sequence[float]) -> float:
    """Half-width tol of the band around 1.0 inside which a carried sum
    cannot stand in for the `chain_sum` of its terms.

    The planner is the band's only user. `nic` and `cpu` are the
    `demand_ratios` of a chain of n vNFs. A carried sum starts from the
    chain_sum of some ratios of one device (the planner's hosted ratios) and
    then adds or subtracts one ratio at a time. With u = 2**-53,
    T = 1 + the sum of all the ratios (they are >= 0, so T bounds every
    partial sum) and n < 2**40:
    - a left-to-right sum of m <= n ratios is within 1.01*n*u*T of exact;
    - a carried sum at most n + 2 roundings from exact (a chain_sum of m
      ratios m - 1, each later update one, leaving room for one more ratio
      added to both sides of a test) is within 1.01*(n+2)*u*T.
    They differ by less than 1.01*(2n+2)*u*T < (n+2)*2**-50*T = tol, so a
    carried value farther than tol from 1.0 is on the chain_sum's side of
    1.0. A carried value above 1 + tol also rules out every superset of its
    terms: their exact sum is no smaller, so their chain_sum exceeds
    1 + tol - 1.01*(2n+2)*u*T > 1. (A carried sum need not be monotone, but
    a chain-order sum of ratios >= 0 is: inserting a term never lowers it.)
    A negative or NaN ratio voids the bound, and an overflowing T is
    infinite; tol is then infinite and every test takes the chain_sum.
    """
    ratios = [*nic, *cpu]
    if not all(r >= 0.0 for r in ratios):
        return math.inf
    return (len(nic) + 2) * 2.0**-50 * (1.0 + chain_sum(ratios))


def below_one(value: float, tol: float, hosted: Callable[[], Iterable[float]]) -> bool:
    """`fits` for `value`, a carried sum of the ratios `hosted()` returns in
    chain order: inside its `rounding_band` tol (or for NaN) `fits` decides."""
    if value < 1.0 - tol:
        return True
    if value > 1.0 + tol:
        return False
    return fits(hosted())
