"""Service chain data model: placements, vNF specs, scenarios, validation."""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Mapping, NamedTuple

DEFAULT_PCIE_LATENCY_US = 10.0


class Placement(Enum):
    """Where a vNF instance (or a chain anchor) sits."""

    SMARTNIC = "SmartNIC"
    CPU = "CPU"


_set = object.__setattr__


class _Record:
    """An immutable value record whose fields, named in order by `_fields`,
    are its `__slots__`.

    It prints, compares and hashes by its fields, and `_replace` copies it
    with some fields changed, as on the package's NamedTuple records. It is
    not a tuple: it does not iterate, and it equals only a record of its own
    type. Each subclass writes its fields in `__init__` with `_set`.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        # From a list, so the tuple is built at its final size. tuple(map(...))
        # builds it at a guessed size and shrinks it, and that parks one more
        # tuple per call on the free list of the final size.
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def _replace(self, **changes: object):
        """A copy with `changes` applied; an unknown field raises TypeError."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


class VnfSpec(_Record):
    """Throughput capacities (Gbps) and per-packet processing latencies (us) of one vNF type."""

    _fields = __slots__ = ("name", "cap_smartnic", "cap_cpu", "proc_latency_smartnic", "proc_latency_cpu")

    def __init__(self, name: str, cap_smartnic: float, cap_cpu: float,
                 proc_latency_smartnic: float = 0.0, proc_latency_cpu: float = 0.0) -> None:
        _set(self, "name", name)
        _set(self, "cap_smartnic", cap_smartnic)
        _set(self, "cap_cpu", cap_cpu)
        _set(self, "proc_latency_smartnic", proc_latency_smartnic)
        _set(self, "proc_latency_cpu", proc_latency_cpu)

    def proc_latency(self, device: Placement) -> float:
        return self.proc_latency_smartnic if device is Placement.SMARTNIC else self.proc_latency_cpu


class ServiceChain(_Record):
    """vNFs in traffic order as three equal-length columns (their ids, the
    names of their specs and their placements), bracketed by the NIC-side
    anchors.

    Anchors default to the SmartNIC because packets physically enter and
    leave the host through the NIC; a chain-head vNF on the SmartNIC is
    therefore not adjacent to the CPU.
    """

    _fields = __slots__ = ("ids", "spec_names", "placements", "ingress_anchor", "egress_anchor")

    def __init__(self, ids: tuple[str, ...], spec_names: tuple[str, ...], placements: tuple[Placement, ...],
                 ingress_anchor: Placement = Placement.SMARTNIC,
                 egress_anchor: Placement = Placement.SMARTNIC) -> None:
        if not len(ids) == len(spec_names) == len(placements):
            raise ValueError(
                f"chain columns differ in length: {len(ids)} ids, "
                f"{len(spec_names)} spec names, {len(placements)} placements"
            )
        _set(self, "ids", ids)
        _set(self, "spec_names", spec_names)
        _set(self, "placements", placements)
        _set(self, "ingress_anchor", ingress_anchor)
        _set(self, "egress_anchor", egress_anchor)

    def __len__(self) -> int:
        return len(self.ids)

    def placement_sequence(self) -> tuple[Placement, ...]:
        """Placements as traffic sees them: ingress anchor, every vNF, egress anchor."""
        return (self.ingress_anchor, *self.placements, self.egress_anchor)

    def with_placement(self, index: int, placement: Placement) -> "ServiceChain":
        placements = list(self.placements)
        placements[index] = placement
        return self._replace(placements=tuple(placements))


class Scenario(_Record):
    """A chain and its specs at throughput theta_cur (Gbps, uniform along the chain)."""

    _fields = __slots__ = ("chain", "specs", "theta_cur", "pcie_latency_us")

    def __init__(self, chain: ServiceChain, specs: Mapping[str, VnfSpec], theta_cur: float,
                 pcie_latency_us: float = DEFAULT_PCIE_LATENCY_US) -> None:
        _set(self, "chain", chain)
        _set(self, "specs", specs)
        _set(self, "theta_cur", theta_cur)
        _set(self, "pcie_latency_us", pcie_latency_us)


class Violation(NamedTuple):
    code: str
    where: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


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

    Distinct ids that all name a known spec are decided in bulk, by set
    sizes and containment. Otherwise the chain is walked in order, and each
    repeated id and unresolved spec is reported at its vNF.
    """
    violations: list[Violation] = []
    chain = scenario.chain
    ids = chain.ids

    if not ids:
        violations.append(Violation("empty_chain", "chain", "chain has no vNF instances"))

    if len(set(ids)) != len(ids) or not scenario.specs.keys() >= set(chain.spec_names):
        seen: set[str] = set()
        for vnf_id, spec in zip(ids, chain.spec_names):
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
