"""Seeded random scenario generators shared by the property and acceptance suites.

`random_scenario`: capacities log-uniform in [0.5, 16] Gbps, the load uniform
in [0.1, 4] Gbps, placements uniform, chains up to 10 vNFs. Processing
latencies are device-invariant so latency deltas between placements are pure
crossing cost.

`boundary_scenario`: capacities theta*k/d for small integers k and d, so each
demand ratio is d/k up to rounding and device sums keep landing within a few
ulps of the capacity limit 1.0, where summation order can flip a decision.
"""

from __future__ import annotations

import math
import random

from chainplan import Placement, ServiceChain, VnfSpec
from golden import chain_from_rows

CAP_LO, CAP_HI = 0.5, 16.0
THETA_LO, THETA_HI = 0.1, 4.0
MAX_CHAIN = 10


def log_uniform(rng: random.Random, lo: float = CAP_LO, hi: float = CAP_HI) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def random_scenario(
    rng: random.Random, max_len: int = MAX_CHAIN
) -> tuple[ServiceChain, dict[str, VnfSpec], float]:
    n = rng.randint(1, max_len)
    specs: dict[str, VnfSpec] = {}
    rows = []
    for j in range(n):
        name = f"nf{j}"
        proc = rng.uniform(0.0, 20.0)
        specs[name] = VnfSpec(
            name,
            cap_smartnic=log_uniform(rng),
            cap_cpu=log_uniform(rng),
            proc_latency_smartnic=proc,
            proc_latency_cpu=proc,
        )
        rows.append((name, name, rng.choice((Placement.SMARTNIC, Placement.CPU))))
    theta = rng.uniform(THETA_LO, THETA_HI)
    return chain_from_rows(rows), specs, theta


BOUNDARY_THETAS = (0.3, 0.7, 1.0, 1.1, 1.2, 1.5, 2.4)
BOUNDARY_K = (2, 3, 4, 5, 6, 8, 10, 12)
BOUNDARY_D = (1, 2, 3)


def boundary_scenario(
    rng: random.Random, max_len: int = MAX_CHAIN
) -> tuple[ServiceChain, dict[str, VnfSpec], float]:
    theta = rng.choice(BOUNDARY_THETAS)

    def cap() -> float:
        return theta * rng.choice(BOUNDARY_K) / rng.choice(BOUNDARY_D)

    n = rng.randint(1, max_len)
    specs: dict[str, VnfSpec] = {}
    rows = []
    for j in range(n):
        name = f"nf{j}"
        specs[name] = VnfSpec(name, cap_smartnic=cap(), cap_cpu=cap())
        rows.append((name, name, rng.choice((Placement.SMARTNIC, Placement.CPU))))
    return chain_from_rows(rows), specs, theta
