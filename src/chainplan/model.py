"""Service chain data model: placements, vNF specs, scenarios, validation."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, NamedTuple

DEFAULT_PCIE_LATENCY_US = 10.0


class Placement(Enum):
    """Where a vNF instance (or a chain anchor) sits."""

    SMARTNIC = "SmartNIC"
    CPU = "CPU"


@dataclass(frozen=True)
class VnfSpec:
    """Throughput capacities (Gbps) and per-packet processing latencies (us) of one vNF type."""

    name: str
    cap_smartnic: float
    cap_cpu: float
    proc_latency_smartnic: float = 0.0
    proc_latency_cpu: float = 0.0

    def capacity(self, device: Placement) -> float:
        return self.cap_smartnic if device is Placement.SMARTNIC else self.cap_cpu

    def proc_latency(self, device: Placement) -> float:
        return self.proc_latency_smartnic if device is Placement.SMARTNIC else self.proc_latency_cpu


@dataclass(frozen=True)
class ServiceChain:
    """vNFs in traffic order as three equal-length columns (their ids, the
    names of their specs and their placements), bracketed by the NIC-side
    anchors.

    Anchors default to the SmartNIC because packets physically enter and
    leave the host through the NIC; a chain-head vNF on the SmartNIC is
    therefore not adjacent to the CPU.
    """

    ids: tuple[str, ...]
    spec_names: tuple[str, ...]
    placements: tuple[Placement, ...]
    ingress_anchor: Placement = Placement.SMARTNIC
    egress_anchor: Placement = Placement.SMARTNIC

    def __post_init__(self) -> None:
        if not len(self.ids) == len(self.spec_names) == len(self.placements):
            raise ValueError(
                f"chain columns differ in length: {len(self.ids)} ids, "
                f"{len(self.spec_names)} spec names, {len(self.placements)} placements"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def placement_sequence(self) -> tuple[Placement, ...]:
        """Placements as traffic sees them: ingress anchor, every vNF, egress anchor."""
        return (self.ingress_anchor, *self.placements, self.egress_anchor)

    def with_placement(self, index: int, placement: Placement) -> "ServiceChain":
        placements = list(self.placements)
        placements[index] = placement
        return replace(self, placements=tuple(placements))


@dataclass(frozen=True)
class Scenario:
    """A chain and its specs at throughput theta_cur (Gbps, uniform along the chain)."""

    chain: ServiceChain
    specs: Mapping[str, VnfSpec]
    theta_cur: float
    pcie_latency_us: float = DEFAULT_PCIE_LATENCY_US


class Violation(NamedTuple):
    code: str
    where: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        # From a list, not a generator: CPython builds tuple(<generator>) at a
        # guessed length and resizes it, so each call parks one tuple of the
        # real length on the interpreter's free lists (up to 2,000 per length).
        return tuple([v.code for v in self.violations])


def builtin_table1() -> dict[str, VnfSpec]:
    """Built-in capacity profile for the four stock vNF types.

    The load balancer's SmartNIC capacity is only known to exceed 10 Gbps;
    15 is a documented stand-in, and the shipped scenarios keep the load
    balancer on the CPU so the exact value never changes an outcome.
    Processing latencies default to 0 and are overridable per scenario.
    """
    specs = (
        VnfSpec("Firewall", cap_smartnic=10.0, cap_cpu=4.0),
        VnfSpec("Logger", cap_smartnic=2.0, cap_cpu=4.0),
        VnfSpec("Monitor", cap_smartnic=3.2, cap_cpu=10.0),
        VnfSpec("LoadBalancer", cap_smartnic=15.0, cap_cpu=4.0),
    )
    return {s.name: s for s in specs}


# (field, holds(value, 0) must be true, code, message) per VnfSpec number; NaN fails.
_SPEC_RULES = (
    ("cap_smartnic", operator.gt, "non_positive_capacity", "capacity must be > 0"),
    ("cap_cpu", operator.gt, "non_positive_capacity", "capacity must be > 0"),
    ("proc_latency_smartnic", operator.ge, "negative_latency", "processing latency must be >= 0"),
    ("proc_latency_cpu", operator.ge, "negative_latency", "processing latency must be >= 0"),
)


def validate(scenario: Scenario) -> ValidationReport:
    """Check every model invariant.

    A passing scenario is accepted by every other module without further
    checks; each kind of violation is reported under its own code with the
    offending field.
    """
    violations: list[Violation] = []
    chain = scenario.chain

    if not chain.ids:
        violations.append(Violation("empty_chain", "chain", "chain has no vNF instances"))

    seen: set[str] = set()
    for vnf_id, spec in zip(chain.ids, chain.spec_names):
        if vnf_id in seen:
            violations.append(
                Violation("duplicate_vnf_id", f"chain[{vnf_id}]", f"vNF id {vnf_id!r} appears more than once")
            )
        seen.add(vnf_id)
        if spec not in scenario.specs:
            violations.append(
                Violation(
                    "unresolved_spec_reference",
                    f"chain[{vnf_id}].spec",
                    f"vNF {vnf_id!r} references unknown spec {spec!r}",
                )
            )

    for name, spec in scenario.specs.items():
        for field, holds, code, rule in _SPEC_RULES:
            value = getattr(spec, field)
            if not holds(value, 0):
                violations.append(Violation(code, f"specs[{name}].{field}", f"{rule}, got {value}"))

    if not scenario.theta_cur >= 0:  # NaN too
        violations.append(
            Violation("negative_load", "theta_cur",
                      f"throughput must be >= 0, got {scenario.theta_cur}")
        )
    pcie = scenario.pcie_latency_us
    if pcie < 0:
        violations.append(Violation("negative_pcie_latency", "pcie_latency_us",
                                    f"crossing latency must be >= 0, got {pcie}"))
    elif not math.isfinite(pcie):  # NaN or +inf
        violations.append(Violation("non_finite_pcie_latency", "pcie_latency_us",
                                    f"crossing latency must be finite, got {pcie}"))

    return ValidationReport(tuple(violations))
