"""PCIe crossing counts and the additive latency estimate.

Latency is modeled as per-vNF processing time on its device plus a fixed
cost per SmartNIC/CPU crossing; no queueing. Crossing-count deltas between
placements are therefore exact latency deltas whenever processing latencies
do not depend on the device.
"""

from __future__ import annotations

import operator
from typing import Mapping

from .model import ServiceChain, VnfSpec
from .resources import chain_sum


def count_crossings(chain: ServiceChain) -> int:
    """Adjacent placement changes along [ingress anchor, vNFs..., egress anchor]."""
    seq = chain.placement_sequence()
    return sum(map(operator.is_not, seq, seq[1:]))


def estimate_latency(
    chain: ServiceChain, specs: Mapping[str, VnfSpec], pcie_latency_us: float
) -> float:
    proc = chain_sum(
        [specs[spec].proc_latency(p) for spec, p in zip(chain.spec_names, chain.placements)]
    )
    return proc + count_crossings(chain) * pcie_latency_us

